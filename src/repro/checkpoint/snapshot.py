"""Snapshot capture and deterministic restore of a live machine.

A snapshot is taken only at an interpreter *safe point* (between work
units), where no chunk is half-replayed and no layer holds transient
state outside its long-lived fields.  Capture gathers live references
to every mutable piece of the machine into one nested dict and pickles
it -- the pickle *is* the deep copy, and its memo table preserves
object identity across sections (the same :class:`~repro.vm.page.Page`
object appears in the page table, the clock ring, and the in-transit
map; all three must keep pointing at one object after restore).

Restore goes the other way and is strictly *in place*: it mutates the
objects a freshly constructed machine already wired together, so every
cross-layer reference (the shared clock, the shared ``RunStats``, the
bit vector the run-time layer and the memory manager both hold) stays
intact.  Anything that cannot line up -- different platform shape,
different variant flags, different fault plan -- fails fast with a
:class:`~repro.errors.CheckpointError` instead of resuming into a
subtly different run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from collections import OrderedDict, deque
from typing import Any

from repro.errors import CheckpointError
from repro.faults.inject import LaggedBitVector
from repro.runtime.bitvector import ResidencyBitVector
from repro.sim.clock import TimeCategory
from repro.vm.page import PageColumns

#: Version of the pickled state layout (independent of the container
#: format version in :mod:`repro.checkpoint.store`).
SNAPSHOT_VERSION = 3  # v3: columnar trace ring, absent for metrics-only observers


def _plan_fingerprint(plan) -> str | None:
    if plan is None:
        return None
    blob = json.dumps(plan.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def machine_signature(machine, executor) -> dict[str, Any]:
    """Everything a snapshot's machine must agree on to be resumable."""
    runtime = machine.runtime
    return {
        "memory_pages": machine.config.memory_pages,
        "num_disks": machine.config.num_disks,
        "page_size": machine.config.page_size,
        "prefetching": machine.prefetching,
        "filter_enabled": runtime.filter_enabled if runtime is not None else None,
        "adaptive": runtime.adaptive if runtime is not None else None,
        "readahead": machine.manager.readahead,
        "binding": machine.manager.binding,
        "observed": machine.obs is not None,
        "plan_fingerprint": _plan_fingerprint(
            machine.injector.plan if machine.injector is not None else None
        ),
        "vectorize": executor.vectorize,
        "warm": executor.warm_start,
    }


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------


def _capture_bitvector(vec) -> Any:
    if vec is None:
        return None
    if isinstance(vec, LaggedBitVector):
        return ("lagged", vec.inner.to_bytes(), list(vec._pending))
    if isinstance(vec, ResidencyBitVector):
        return ("plain", vec.to_bytes())
    raise CheckpointError(f"unknown bit-vector type {type(vec).__name__}")


def _capture_metrics(registry) -> list[tuple[str, str, dict]]:
    captured = []
    for name in registry.names():
        inst = registry.get(name)
        if inst.kind == "counter":
            state = {"value": inst.value}
        elif inst.kind == "gauge":
            state = {"value": inst.value, "min": inst.min, "max": inst.max,
                     "seen": inst._seen}
        else:  # histogram
            state = {"bounds": list(inst.bounds), "buckets": list(inst.buckets),
                     "count": inst.count, "total": inst.total,
                     "min": inst.min, "max": inst.max}
        captured.append((name, inst.kind, state))
    return captured


def _capture_state(machine, executor) -> dict[str, Any]:
    manager = machine.manager
    runtime = machine.runtime
    injector = machine.injector
    state: dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "clock": {
            "now": machine.clock.now,
            "by_category": {c.value: t
                            for c, t in machine.clock._by_category.items()},
        },
        "stats": machine.stats,
        "vm": {
            # Pickled as one section so the shared Page objects keep one
            # identity across the page table, ring, and in-transit map.
            "pages": manager.pages,
            "ring": manager.ring._ring,
            "ring_live": manager.ring._live,
            "in_transit": manager._in_transit,
            "frames": {
                "total": manager.frames.total_frames,
                "fresh": manager.frames.fresh,
                "freelist": list(manager.frames.freelist),
                "in_use": manager.frames.in_use,
                "reserved": manager.frames.reserved,
            },
            "free_last_us": manager._free_last_us,
            "pressure_events": list(manager._pressure_events),
            "ra_state": dict(manager._ra_state),
            "bound_versions": dict(manager._bound_versions),
        },
        "bitvector": _capture_bitvector(manager.bitvector),
        "runtime": None if runtime is None else {
            "filtered_streak": runtime._filtered_streak,
            "suppressed_remaining": runtime._suppressed_remaining,
        },
        "disks": [
            {
                "busy_until": d.busy_until,
                "last_block": d.last_block,
                "busy_us": d.busy_us,
                "sequential_count": d.sequential_count,
                "near_count": d.near_count,
                "random_count": d.random_count,
            }
            for d in machine.disks.disks
        ],
        "disk_array": {
            "reads_fault": machine.disks.reads_fault,
            "reads_prefetch": machine.disks.reads_prefetch,
            "writes": machine.disks.writes,
            "retries": machine.disks.retries,
            "degraded_reads": machine.disks.degraded_reads,
            "degraded_writes": machine.disks.degraded_writes,
        },
        "injector": None if injector is None else {
            # RNG streams resume mid-sequence; the crash cursor is
            # deliberately NOT captured (see FaultInjector.crash_cursor).
            "disk_rngs": (
                {idx: st._rng.getstate()
                 for idx, st in injector.storage.states.items()}
                if injector.storage is not None else None
            ),
            "hints": None if injector.hints is None else {
                "rng": injector.hints._rng.getstate(),
                "consecutive_failures": injector.hints.consecutive_failures,
                "cooldown_remaining": injector.hints.cooldown_remaining,
                "in_fallback": injector.hints.in_fallback,
            },
        },
        "machine": {"finished": machine._finished},
        "executor": {
            "units": executor.units,
            "out_of_range_hints": executor.out_of_range_hints,
        },
        "obs": None if machine.obs is None else {
            "ring": (None if machine.obs.trace is None
                     else machine.obs.trace.state()),
            "metrics": _capture_metrics(machine.obs.metrics),
        },
    }
    return state


class Snapshot:
    """One captured machine state: a meta dict plus a pickled payload."""

    def __init__(self, meta: dict[str, Any], payload: bytes) -> None:
        self.meta = meta
        self.payload = payload

    @property
    def cycle_us(self) -> float:
        return self.meta["cycle_us"]

    @property
    def cursor(self) -> int:
        return self.meta["cursor"]

    def state(self) -> dict[str, Any]:
        try:
            state = pickle.loads(self.payload)
        except Exception as exc:
            raise CheckpointError(f"unreadable snapshot payload: {exc}") from None
        if not isinstance(state, dict) or state.get("version") != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot payload version "
                f"{state.get('version') if isinstance(state, dict) else '?'} "
                f"is not supported (this build reads version {SNAPSHOT_VERSION})"
            )
        return state

    def restore_into(self, machine, executor) -> None:
        """Apply this snapshot to a freshly constructed machine, in place.

        The executor must already have bound the program's arrays (the
        runner arranges this via the resume hook); after restore its
        skip-replay cursor is armed and execution continues live from
        the captured safe point.
        """
        _check_signature(self.meta, machine, executor)
        _restore_state(machine, executor, self.state())


def capture(machine, executor, label: str = "run") -> Snapshot:
    """Snapshot the machine at the current (safe-point) state."""
    meta = {
        "snapshot_version": SNAPSHOT_VERSION,
        "label": label,
        "cycle_us": machine.clock.now,
        "cursor": executor.units,
        "signature": machine_signature(machine, executor),
    }
    payload = pickle.dumps(_capture_state(machine, executor), protocol=4)
    return Snapshot(meta, payload)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def _check_signature(meta, machine, executor) -> None:
    if meta.get("snapshot_version") != SNAPSHOT_VERSION:
        raise CheckpointError(
            f"snapshot version {meta.get('snapshot_version')!r} is not "
            f"supported (this build reads version {SNAPSHOT_VERSION})"
        )
    want = meta.get("signature")
    have = machine_signature(machine, executor)
    if want != have:
        diffs = sorted(
            k for k in set(want or {}) | set(have)
            if (want or {}).get(k) != have.get(k)
        )
        raise CheckpointError(
            "snapshot does not match this machine; differing signature "
            f"keys: {', '.join(diffs) or '<shape>'}"
        )


def _restore_bitvector(vec, state) -> None:
    if state is None:
        if vec is not None:
            raise CheckpointError("snapshot has no bit vector but machine does")
        return
    if vec is None:
        raise CheckpointError("snapshot has a bit vector but machine does not")
    if state[0] == "lagged":
        if not isinstance(vec, LaggedBitVector):
            raise CheckpointError("snapshot bit vector is lagged, machine's is not")
        vec.inner.load_bytes(state[1])
        vec._pending = deque(state[2])
    else:
        if not isinstance(vec, ResidencyBitVector):
            raise CheckpointError("snapshot bit vector is plain, machine's is not")
        vec.load_bytes(state[1])


def _restore_metrics(registry, captured) -> None:
    for name, kind, state in captured:
        if kind == "counter":
            inst = registry.counter(name)
            inst.value = state["value"]
        elif kind == "gauge":
            inst = registry.gauge(name)
            inst.value = state["value"]
            inst.min = state["min"]
            inst.max = state["max"]
            inst._seen = state["seen"]
        else:
            inst = registry.histogram(name, bounds=tuple(state["bounds"]))
            if list(inst.bounds) != list(state["bounds"]):
                raise CheckpointError(
                    f"histogram {name!r} bounds changed since the snapshot"
                )
            inst.buckets = list(state["buckets"])
            inst.count = state["count"]
            inst.total = state["total"]
            inst.min = state["min"]
            inst.max = state["max"]


def _restore_state(machine, executor, state: dict[str, Any]) -> None:
    # Clock -- shared by every layer; mutate in place.
    clock = machine.clock
    clock.now = state["clock"]["now"]
    by_category = {c: 0.0 for c in TimeCategory}
    for key, value in state["clock"]["by_category"].items():
        by_category[TimeCategory(key)] = value
    clock._by_category = by_category

    # RunStats -- replace each section on the existing (shared) object.
    for f in dataclasses.fields(type(machine.stats)):
        setattr(machine.stats, f.name, getattr(state["stats"], f.name))

    # VM: page table, replacement ring, in-transit map, frame pool.
    manager = machine.manager
    vm = state["vm"]
    manager.pages = vm["pages"]
    if manager.pages:
        # The unpickled pages share one PageColumns (pickle memo); adopt
        # it as the manager's store so later page creation and the chunk
        # kernel's bulk scatters hit the same arrays.
        manager.cols = next(iter(manager.pages.values())).cols
        for page in manager.pages.values():
            manager.cols.ensure(page.vpage)
    else:
        manager.cols = PageColumns()
    ring = vm["ring"]
    manager.ring._ring = ring if isinstance(ring, deque) else deque(ring)
    manager.ring._live = vm["ring_live"]
    manager._in_transit = vm["in_transit"]
    frames = vm["frames"]
    pool = manager.frames
    if frames["total"] != pool.total_frames:
        raise CheckpointError(
            f"snapshot has {frames['total']} frames, machine has "
            f"{pool.total_frames}"
        )
    pool.fresh = frames["fresh"]
    pool.freelist = OrderedDict((frame, None) for frame in frames["freelist"])
    pool.in_use = frames["in_use"]
    pool.reserved = frames["reserved"]
    manager._free_last_us = vm["free_last_us"]
    manager._pressure_events = list(vm["pressure_events"])
    manager._ra_state = dict(vm["ra_state"])
    manager._bound_versions = dict(vm["bound_versions"])
    manager.rebuild_fast_mask()

    _restore_bitvector(manager.bitvector, state["bitvector"])

    runtime = machine.runtime
    if (runtime is None) != (state["runtime"] is None):
        raise CheckpointError("snapshot and machine disagree on the run-time layer")
    if runtime is not None:
        runtime._filtered_streak = state["runtime"]["filtered_streak"]
        runtime._suppressed_remaining = state["runtime"]["suppressed_remaining"]

    disks = machine.disks
    if len(state["disks"]) != len(disks.disks):
        raise CheckpointError(
            f"snapshot has {len(state['disks'])} disks, machine has "
            f"{len(disks.disks)}"
        )
    for disk, d in zip(disks.disks, state["disks"]):
        disk.busy_until = d["busy_until"]
        disk.last_block = d["last_block"]
        disk.busy_us = d["busy_us"]
        disk.sequential_count = d["sequential_count"]
        disk.near_count = d["near_count"]
        disk.random_count = d["random_count"]
    array = state["disk_array"]
    disks.reads_fault = array["reads_fault"]
    disks.reads_prefetch = array["reads_prefetch"]
    disks.writes = array["writes"]
    disks.retries = array["retries"]
    disks.degraded_reads = array["degraded_reads"]
    disks.degraded_writes = array["degraded_writes"]

    injector = machine.injector
    if (injector is None) != (state["injector"] is None):
        raise CheckpointError("snapshot and machine disagree on fault injection")
    if injector is not None:
        inj = state["injector"]
        if (injector.storage is None) != (inj["disk_rngs"] is None):
            raise CheckpointError("snapshot and machine disagree on storage faults")
        if injector.storage is not None:
            for idx, rng_state in inj["disk_rngs"].items():
                disk_state = injector.storage.states.get(idx)
                if disk_state is None:
                    raise CheckpointError(
                        f"snapshot faults disk {idx}, machine's plan does not"
                    )
                disk_state._rng.setstate(rng_state)
        if (injector.hints is None) != (inj["hints"] is None):
            raise CheckpointError("snapshot and machine disagree on hint faults")
        if injector.hints is not None:
            hints = inj["hints"]
            injector.hints._rng.setstate(hints["rng"])
            injector.hints.consecutive_failures = hints["consecutive_failures"]
            injector.hints.cooldown_remaining = hints["cooldown_remaining"]
            injector.hints.in_fallback = hints["in_fallback"]
        # injector.crash_cursor is per-incarnation state: left untouched.

    machine._finished = state["machine"]["finished"]

    executor._skip_until = state["executor"]["units"]
    executor.out_of_range_hints = state["executor"]["out_of_range_hints"]

    if (machine.obs is None) != (state["obs"] is None):
        raise CheckpointError("snapshot and machine disagree on observability")
    if machine.obs is not None:
        obs_state = state["obs"]
        _restore_metrics(machine.obs.metrics, obs_state["metrics"])
        trace, ring = machine.obs.trace, obs_state["ring"]
        if trace is not None:
            # A ring continues only from a ring of the same capacity.
            # Across tiers (or sizes) it starts empty, so the resumed
            # segment opens with the runner's CHECKPOINT_RESTORE event;
            # a snapshot's ring is simply dropped by a metrics-only
            # observer.  Either way the metrics tier is restored in full.
            if ring is not None and ring["capacity"] == trace.capacity:
                trace.load_state(ring)
            else:
                trace.clear()


# ----------------------------------------------------------------------
# Canonical state description (tests)
# ----------------------------------------------------------------------


def describe_state(machine, units: int = 0) -> dict[str, Any]:
    """A canonical, comparison-friendly rendering of the machine state.

    Used by the round-trip property tests: comparing two machines'
    descriptions avoids false negatives from pickle memo ordering while
    still covering every field a snapshot carries (frames, bit vector,
    disk queues, RNG streams, ...).
    """
    manager = machine.manager
    runtime = machine.runtime
    injector = machine.injector
    vec = manager.bitvector
    if vec is None:
        bitvector = None
    elif isinstance(vec, LaggedBitVector):
        bitvector = ("lagged", bytes(vec.inner._bits).hex(), list(vec._pending))
    else:
        bitvector = ("plain", bytes(vec._bits).hex())
    return {
        "clock": {
            "now": machine.clock.now,
            "by_category": sorted(
                (c.value, t) for c, t in machine.clock._by_category.items()
            ),
        },
        "stats": dataclasses.asdict(machine.stats),
        "pages": sorted(
            (p.vpage, int(p.state), p.dirty, p.ref_bit, p.arrival_us,
             p.via_prefetch, p.used_since_arrival, p.prefetched_pending,
             p.ring_token, p.version)
            for p in manager.pages.values()
        ),
        "ring": [(p.vpage, token) for p, token in manager.ring._ring],
        "ring_live": manager.ring._live,
        "in_transit": sorted(manager._in_transit),
        "frames": {
            "fresh": manager.frames.fresh,
            "freelist": list(manager.frames.freelist),
            "in_use": manager.frames.in_use,
            "reserved": manager.frames.reserved,
        },
        "free_last_us": manager._free_last_us,
        "pressure_events": sorted(manager._pressure_events),
        "ra_state": sorted(manager._ra_state.items()),
        "bound_versions": sorted(manager._bound_versions.items()),
        "bitvector": bitvector,
        "runtime": None if runtime is None else (
            runtime._filtered_streak, runtime._suppressed_remaining,
        ),
        "disks": [
            (d.busy_until, d.last_block, d.busy_us,
             d.sequential_count, d.near_count, d.random_count)
            for d in machine.disks.disks
        ],
        "disk_array": (
            machine.disks.reads_fault, machine.disks.reads_prefetch,
            machine.disks.writes, machine.disks.retries,
            machine.disks.degraded_reads, machine.disks.degraded_writes,
        ),
        "disk_rngs": None if injector is None or injector.storage is None else
            sorted((idx, st._rng.getstate())
                   for idx, st in injector.storage.states.items()),
        "hints": None if injector is None or injector.hints is None else (
            injector.hints._rng.getstate(),
            injector.hints.consecutive_failures,
            injector.hints.cooldown_remaining,
            injector.hints.in_fallback,
        ),
        "finished": machine._finished,
        "units": units,
    }
