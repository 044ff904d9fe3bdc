"""Differential gate: the vectorized chunk kernel vs the scalar loop.

The vectorized hot path (:meth:`repro.machine.machine.Machine.run_chunk`)
claims *bit identity* with the scalar event loop -- not "close", not
"statistically equal": the same RunStats, the same page-table end state,
the same published metrics, for every application.  This module is the
enforcement: each NAS app runs O and P twice, once through the numpy
kernel (the default) and once through the scalar loop
(``scalar_chunks=True``, the same code path the ``REPRO_SCALAR=1``
environment hatch selects), and everything observable must match
exactly.

A second leg pins nest lowering the same way: with nothing attached
that consumes units, the executor lowers whole loop nests into single
chunks, and the result must equal the per-unit (leaf-by-leaf) run that a
checkpointer forces -- here one that never writes -- for every app under
O, P, P-nofilter, P-adaptive and a seeded fault plan.

A third leg pins observed runs: a metrics-only observer (the farm's
telemetry) rides the vector kernel, which then charges every prefetch
as the run-time layer does.  It must equal the same observer on the
scalar loop, a ringed observer (which always takes the scalar loop) and
a checkpointed metrics-only run, registry and all.

A hypothesis property additionally pins the classification primitive
itself: for arbitrary flag vectors and page-number arrays,
:meth:`repro.vm.residency.PageFlagVector.take` must agree with the
scalar ``test`` loop element for element.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import ALL_APPS, get_app
from repro.checkpoint.runner import (
    CheckpointConfig, Checkpointer, setup_checkpointing,
)
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.faults.plan import default_plan
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.obs import Observer
from repro.vm.residency import PageFlagVector

# The golden-trace footprint: small enough that all sixteen configs run
# in test time, out-of-core enough (data > memory) that every machinery
# layer -- faults, evictions, prefetches, releases, the filter -- fires.
MEMORY_PAGES = 96
DATA_PAGES = 120

APP_NAMES = tuple(spec.name for spec in ALL_APPS)


def _run(app_name: str, prefetching: bool, scalar: bool):
    """One fresh O or P run; returns (stats, machine) for inspection."""
    platform = PlatformConfig(memory_pages=MEMORY_PAGES)
    program = get_app(app_name).make(DATA_PAGES, seed=1)
    if prefetching:
        program = insert_prefetches(
            program, CompilerOptions.from_platform(platform)
        ).program
    machine = Machine(platform, prefetching=prefetching,
                      scalar_chunks=scalar)
    stats = Executor(machine).run(program)
    return stats, machine


def _page_table(machine: Machine) -> dict:
    """Everything the page table knows, per page."""
    return {
        vpage: (
            page.state,
            page.dirty,
            page.ref_bit,
            page.version,
            page.via_prefetch,
            page.used_since_arrival,
            page.arrival_us,
        )
        for vpage, page in machine.manager.pages.items()
    }


@pytest.mark.parametrize("variant", ["O", "P"])
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_vector_kernel_is_bit_identical(app_name, variant):
    prefetching = variant == "P"
    vec_stats, vec_machine = _run(app_name, prefetching, scalar=False)
    sca_stats, sca_machine = _run(app_name, prefetching, scalar=True)

    # RunStats is a dataclass tree of plain counters/floats: == is exact.
    assert vec_stats == sca_stats

    # Full page-table end state, including the columnar fields the
    # kernel scatters in bulk and the scalar loop writes one at a time.
    assert _page_table(vec_machine) == _page_table(sca_machine)

    # The residency indexes the kernel classifies from must agree too.
    fast_vec = vec_machine.manager.fast.raw
    fast_sca = sca_machine.manager.fast.raw
    n = max(len(fast_vec), len(fast_sca))
    assert np.array_equal(
        np.pad(fast_vec, (0, n - len(fast_vec))),
        np.pad(fast_sca, (0, n - len(fast_sca))),
    )

    # Published metrics (the CLI/JSON export surface) must be identical.
    vec_metrics = vec_stats.publish().as_dict()
    sca_metrics = sca_stats.publish().as_dict()
    assert vec_metrics == sca_metrics


#: Machine switches of each per-unit differential variant.
UNIT_VARIANTS = {
    "O": {"prefetching": False},
    "P": {"prefetching": True},
    "nofilter": {"prefetching": True, "runtime_filter": False},
    "adaptive": {"prefetching": True, "adaptive_prefetch": True},
    "faulted": {"prefetching": True, "fault_plan": "default"},
}


def _run_units(app_name: str, variant: str, per_unit: bool):
    """One fresh run, fused (no unit consumer) or per unit."""
    platform = PlatformConfig(memory_pages=MEMORY_PAGES)
    program = get_app(app_name).make(DATA_PAGES, seed=1)
    switches = dict(UNIT_VARIANTS[variant])
    if switches["prefetching"]:
        program = insert_prefetches(
            program, CompilerOptions.from_platform(platform)
        ).program
    if switches.get("fault_plan") == "default":
        switches["fault_plan"] = default_plan(platform.num_disks, seed=2)
    machine = Machine(platform, **switches)
    executor = Executor(machine)
    if per_unit:
        executor.checkpointer = Checkpointer(machine, executor,
                                             CheckpointConfig())
    chunks = []
    replay = machine.run_chunk

    def counting(kinds, *args):
        chunks.append(len(kinds))
        replay(kinds, *args)

    machine.run_chunk = counting
    stats = executor.run(program)
    return stats, machine, executor, len(chunks)


@pytest.mark.parametrize("variant", sorted(UNIT_VARIANTS))
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_fused_nests_equal_per_unit_replay(app_name, variant):
    fused, fused_machine, fused_ex, fused_chunks = _run_units(
        app_name, variant, per_unit=False)
    unit, unit_machine, unit_ex, unit_chunks = _run_units(
        app_name, variant, per_unit=True)
    assert fused == unit
    assert _page_table(fused_machine) == _page_table(unit_machine)
    assert fused.publish().as_dict() == unit.publish().as_dict()
    assert fused_ex.units == unit_ex.units
    assert fused_ex.out_of_range_hints == unit_ex.out_of_range_hints
    assert fused_chunks <= unit_chunks


#: Observed runs: (observer capacity, scalar chunk loop, checkpointed).
OBSERVED_MODES = {
    "metrics-vector": (None, False, False),
    "metrics-scalar": (None, True, False),
    "ringed": (65536, False, False),
    "metrics-checkpointed": (None, False, True),
}


def _run_observed(app_name: str, prefetching: bool, mode: str, tmp_path):
    """One fresh observed run; returns everything it makes observable."""
    capacity, scalar, checkpointed = OBSERVED_MODES[mode]
    platform = PlatformConfig(memory_pages=MEMORY_PAGES)
    program = get_app(app_name).make(DATA_PAGES, seed=1)
    if prefetching:
        program = insert_prefetches(
            program, CompilerOptions.from_platform(platform)
        ).program
    observer = Observer(capacity=capacity)
    machine = Machine(platform, prefetching=prefetching, observer=observer,
                      scalar_chunks=scalar)
    executor = Executor(machine)
    checkpointer = None
    if checkpointed:
        checkpointer = setup_checkpointing(machine, executor, CheckpointConfig(
            every_us=100_000.0, directory=tmp_path / mode, label="job"))
    vector_calls = []
    kernel = machine._run_chunk_vector

    def counting(kinds, *args):
        vector_calls.append(len(kinds))
        kernel(kinds, *args)

    machine._run_chunk_vector = counting
    stats = executor.run(program)
    stats.publish(observer.metrics)
    registry = observer.metrics.as_dict()
    if checkpointer is not None:
        # The checkpointer's own ckpt.* series are the only addition.
        assert checkpointer.writes > 0
        registry = {name: value for name, value in registry.items()
                    if not name.startswith("ckpt.")}
    return {
        "stats": stats,
        "pages": _page_table(machine),
        "registry": registry,
    }, vector_calls


@pytest.mark.parametrize("variant", ["O", "P"])
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_metrics_only_observer_rides_vector_kernel(app_name, variant,
                                                   tmp_path):
    prefetching = variant == "P"
    runs = {mode: _run_observed(app_name, prefetching, mode, tmp_path)
            for mode in OBSERVED_MODES}
    reference, _ = runs["metrics-scalar"]
    for mode, (run, _) in runs.items():
        # RunStats, page table and the whole registry (obs.* histogram
        # buckets included) must match bit for bit.
        assert run == reference, mode
    assert runs["metrics-scalar"][1] == runs["ringed"][1] == []


def test_metrics_only_observer_reaches_vector_kernel(tmp_path, monkeypatch):
    """Every chunk at or over the scalar cutoff reaches the kernel, so
    the observer gate cannot silently fall back to the scalar loop."""
    chunk_sizes = []
    replay = Machine.run_chunk

    def counting(self, kinds, *args):
        chunk_sizes.append(len(kinds))
        replay(self, kinds, *args)

    monkeypatch.setattr(Machine, "run_chunk", counting)
    _, vector_calls = _run_observed("BUK", True, "metrics-vector", tmp_path)
    large = [n for n in chunk_sizes if n >= Machine._SCALAR_CUTOFF]
    assert large
    assert vector_calls == large


def test_scalar_env_hatch_forces_scalar_loop(monkeypatch):
    monkeypatch.setenv("REPRO_SCALAR", "1")
    assert Machine(PlatformConfig()).scalar_chunks
    monkeypatch.setenv("REPRO_SCALAR", "0")
    assert not Machine(PlatformConfig()).scalar_chunks
    monkeypatch.delenv("REPRO_SCALAR")
    assert not Machine(PlatformConfig()).scalar_chunks


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flag_vector_take_matches_scalar_test(data):
    """Property: bulk classification == per-page scalar classification.

    Random residency vectors and random query pages, including pages
    past the end of the flag array (never marked, so never fast).
    """
    capacity = data.draw(st.integers(min_value=1, max_value=64))
    marked = data.draw(
        st.lists(st.integers(min_value=0, max_value=capacity - 1),
                 max_size=32)
    )
    unmarked = data.draw(
        st.lists(st.integers(min_value=0, max_value=capacity - 1),
                 max_size=32)
    )
    flags = PageFlagVector(capacity=capacity)
    for vpage in marked:
        flags.mark(vpage)
    for vpage in unmarked:
        flags.unmark(vpage)
    queries = data.draw(
        st.lists(st.integers(min_value=0, max_value=4 * capacity),
                 min_size=1, max_size=64)
    )
    vpages = np.asarray(queries, dtype=np.int64)
    bulk = flags.take(vpages)
    scalar = np.array([flags.test(int(v)) for v in queries], dtype=bool)
    assert np.array_equal(bulk, scalar)
