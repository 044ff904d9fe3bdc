"""Running one application under the paper's experimental variants.

The paper compares, per application:

* **O** -- the original program on plain paged virtual memory;
* **P** -- the compiled prefetching program with the run-time layer;
* **P-nofilter** -- prefetching with the run-time layer removed
  (Figure 4(c));
* **P-adaptive** -- prefetching with adaptive suppression (Section 4.3.1);
* warm/cold starts (Figure 6) and different problem sizes (Figures 7, 8).

``compare_app`` builds the program once, compiles it once, and executes
the requested variants on fresh machines, so O and P see identical
workloads (including identical index-array data).

This module is also the **run spine**: :func:`execute` turns one
:class:`repro.serve.JobSpec` (``run``/``compare``/``sweep``/``chaos``)
into its result, and every surface that runs a named application -- the
CLI commands, farm workers (``execute_job``), the chaos harness and
``repro bench`` -- resolves platform, footprint, program and variant
through the helpers below, so one spec means one simulation everywhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.apps.base import SIZE_CLASSES, AppSpec
from repro.apps.registry import get_app
from repro.checkpoint.runner import CheckpointConfig, setup_checkpointing
from repro.config import PlatformConfig
from repro.core.ir.nodes import Program
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import PassResult, insert_prefetches
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.sim.stats import RunStats

if TYPE_CHECKING:
    from repro.serve.jobspec import JobSpec


class Variant(NamedTuple):
    """How one run variant is labelled and which machine it runs on."""

    #: Report label (compare rows, bench entries).
    label: str
    #: ``run_variant`` / :func:`new_machine` switches.
    machine: dict[str, bool]


#: The run variants, keyed by :data:`repro.serve.jobspec.JOB_VARIANTS`
#: (the CLI's ``--variant`` choices).  The one place a variant name
#: becomes a machine configuration.
VARIANTS: dict[str, Variant] = {
    "o": Variant("O", {"prefetching": False}),
    "p": Variant("P", {"prefetching": True}),
    "nofilter": Variant("P-nofilter",
                        {"prefetching": True, "runtime_filter": False}),
    "adaptive": Variant("P-adaptive", {"prefetching": True, "adaptive": True}),
}


def default_data_pages(platform: PlatformConfig, memory_multiple: float = 2.0) -> int:
    """Major-data footprint for an out-of-core run (~2x available memory)."""
    return max(8, int(platform.available_frames * memory_multiple))


def platform_for(memory_pages: int = 0, disks: int = 0) -> PlatformConfig:
    """The default platform with the non-zero overrides applied."""
    overrides = {}
    if memory_pages:
        overrides["memory_pages"] = memory_pages
    if disks:
        overrides["num_disks"] = disks
    return PlatformConfig(**overrides)


def size_class_pages(size_class: str, platform: PlatformConfig) -> int:
    """Footprint of a NAS-style problem class (S/W/A/B) on ``platform``."""
    try:
        multiple = SIZE_CLASSES[size_class.upper()]
    except KeyError:
        raise ConfigError(
            f"unknown size class {size_class!r}; known: "
            + "/".join(SIZE_CLASSES)
        ) from None
    return default_data_pages(platform, multiple)


def resolve_pages(app: AppSpec, platform: PlatformConfig,
                  pages: int | None = 0) -> int:
    """``pages`` when given, else the app's default out-of-core footprint."""
    return pages or default_data_pages(platform, app.default_memory_multiple)


def build_program(app: AppSpec, platform: PlatformConfig, data_pages: int,
                  seed: int, variant: str) -> Program:
    """The program ``variant`` executes: compiled when it prefetches."""
    program = app.make(data_pages, seed=seed)
    if VARIANTS[variant].machine["prefetching"]:
        options = CompilerOptions.from_platform(platform)
        program = insert_prefetches(program, options).program
    return program


@dataclass
class RunResult:
    """One executed variant."""

    app: str
    variant: str  # a Variant label: "O", "P", "P-nofilter", ...
    stats: RunStats
    warm: bool = False
    data_pages: int = 0

    @property
    def elapsed_us(self) -> float:
        return self.stats.elapsed_us


@dataclass
class ComparisonResult:
    """O and P (and friends) for one application at one problem size."""

    app: str
    data_pages: int
    original: RunResult
    prefetch: RunResult
    extras: dict[str, RunResult] = field(default_factory=dict)
    pass_result: PassResult | None = None

    @property
    def speedup(self) -> float:
        return self.original.elapsed_us / self.prefetch.elapsed_us

    @property
    def stall_eliminated(self) -> float:
        """Fraction of the original I/O stall removed by prefetching."""
        o_stall = self.original.stats.times.idle
        if o_stall <= 0:
            return 0.0
        return max(0.0, 1.0 - self.prefetch.stats.times.idle / o_stall)


def new_machine(
    platform: PlatformConfig,
    prefetching: bool,
    runtime_filter: bool = True,
    warm: bool = False,
    adaptive: bool = False,
    os_readahead: bool = False,
    observer=None,
    fault_plan=None,
) -> tuple[Machine, Executor]:
    """A fresh machine for one variant plus the executor that drives it."""
    machine = Machine(
        platform,
        prefetching=prefetching,
        runtime_filter=runtime_filter,
        adaptive_prefetch=adaptive,
        os_readahead=os_readahead,
        observer=observer,
        fault_plan=fault_plan,
    )
    return machine, Executor(machine, warm_start=warm)


def run_variant(
    program,
    platform: PlatformConfig,
    prefetching: bool,
    runtime_filter: bool = True,
    warm: bool = False,
    adaptive: bool = False,
    os_readahead: bool = False,
    observer=None,
    fault_plan=None,
    checkpoint: CheckpointConfig | None = None,
) -> RunStats:
    """Execute one program variant on a fresh machine.

    Passing a :class:`repro.obs.Observer` records the run: trace events
    go to ``observer.trace`` and the finished stats are published into
    ``observer.metrics`` (so ``--trace`` / ``--metrics-out`` artifacts
    come straight off the observer).  Passing a
    :class:`repro.faults.FaultPlan` runs the variant under injected
    faults (seeded, deterministic; see docs/robustness.md).  Passing a
    :class:`repro.checkpoint.CheckpointConfig` enables periodic
    snapshots and/or resume; a checkpointer is also attached (even with
    no config) whenever the fault plan schedules ``process_crash``
    faults, since crash delivery rides the interpreter's safe points.
    """
    machine, executor = new_machine(
        platform, prefetching, runtime_filter=runtime_filter, warm=warm,
        adaptive=adaptive, os_readahead=os_readahead, observer=observer,
        fault_plan=fault_plan,
    )
    plan_crashes = fault_plan is not None and bool(fault_plan.crashes)
    if (checkpoint is not None and checkpoint.active()) or plan_crashes:
        setup_checkpointing(machine, executor, checkpoint or CheckpointConfig())
    stats = executor.run(program)
    assert stats is not None
    if observer is not None:
        stats.publish(observer.metrics)
    return stats


def compare_app(
    spec: AppSpec,
    platform: PlatformConfig,
    data_pages: int | None = None,
    seed: int = 1,
    warm: bool = False,
    options: CompilerOptions | None = None,
    include_nofilter: bool = False,
    include_adaptive: bool = False,
    include_readahead: bool = False,
    observer=None,
    fault_plan=None,
    checkpoint: CheckpointConfig | None = None,
) -> ComparisonResult:
    """Run O and P (optionally P-nofilter, P-adaptive, O-readahead).

    An ``observer`` records the **P** run only -- the prefetching
    variant is the one whose schedule the trace exists to debug; the
    other variants run unobserved so their timings stay comparable.
    A ``fault_plan`` applies to *every* variant so the comparison is a
    faulted-vs-faulted one (each variant gets its own injector, so the
    seeded fault streams are identical across variants).
    A ``checkpoint`` config applies to every variant too, re-labelled
    ``<app>-<variant>`` so one checkpoint directory serves the whole
    comparison; variants a crashed invocation never reached have no
    checkpoints under their label and resume as fresh runs.
    """
    data_pages = resolve_pages(spec, platform, data_pages)
    program = spec.make(data_pages, seed=seed)
    options = options or CompilerOptions.from_platform(platform)
    compiled = insert_prefetches(program, options)

    def run(variant: str, label: str | None = None, **extra) -> RunResult:
        label = label or VARIANTS[variant].label
        machine = VARIANTS[variant].machine
        ckpt = None
        if checkpoint is not None:
            ckpt = dataclasses.replace(checkpoint, label=f"{spec.name}-{label}")
        stats = run_variant(
            compiled.program if machine["prefetching"] else program,
            platform, warm=warm, fault_plan=fault_plan, checkpoint=ckpt,
            **machine, **extra,
        )
        return RunResult(spec.name, label, stats, warm, data_pages)

    result = ComparisonResult(
        app=spec.name,
        data_pages=data_pages,
        original=run("o"),
        prefetch=run("p", observer=observer),
        pass_result=compiled,
    )
    for variant, wanted in (("nofilter", include_nofilter),
                            ("adaptive", include_adaptive)):
        if wanted:
            result.extras[VARIANTS[variant].label] = run(variant)
    if include_readahead:
        result.extras["O-readahead"] = run("o", "O-readahead",
                                           os_readahead=True)
    return result


# ----------------------------------------------------------------------
# The run spine: one JobSpec in, one result out
# ----------------------------------------------------------------------


def execute(job: JobSpec, *, observer=None,
            checkpoint: CheckpointConfig | None = None,
            include_nofilter: bool = False, include_adaptive: bool = False):
    """Run one job spec; returns the kind's rich result.

    * ``run`` -> :class:`RunResult` (its ``stats`` is the ``RunStats``);
    * ``compare`` -> :class:`ComparisonResult`;
    * ``sweep`` -> one :class:`ComparisonResult` per ``job.multiples``;
    * ``chaos`` -> :class:`repro.faults.chaos.ChaosReport`.

    ``observer`` records the run, compare's P run, or the P run of the
    final sweep point (every run restarts the simulated clock, so one
    trace holds one run); chaos sweeps run unobserved.  ``checkpoint``
    applies to ``run`` and ``compare`` (re-labelled per variant by
    :func:`compare_app`).  ``include_nofilter``/``include_adaptive`` add
    compare's extra variants (CLI options, not job fields).
    """
    app = get_app(job.app)
    platform = platform_for(job.memory_pages, job.disks)
    plan = FaultPlan.from_dict(job.faults) if job.faults else None
    if job.kind == "run":
        pages = resolve_pages(app, platform, job.pages)
        program = build_program(app, platform, pages, job.seed, job.variant)
        variant = VARIANTS[job.variant]
        stats = run_variant(program, platform, warm=job.warm,
                            observer=observer, fault_plan=plan,
                            checkpoint=checkpoint, **variant.machine)
        return RunResult(app.name, variant.label, stats, job.warm, pages)
    if job.kind == "compare":
        return compare_app(app, platform, data_pages=job.pages, seed=job.seed,
                           warm=job.warm, include_nofilter=include_nofilter,
                           include_adaptive=include_adaptive,
                           observer=observer, fault_plan=plan,
                           checkpoint=checkpoint)
    if job.kind == "sweep":
        last = len(job.multiples) - 1
        return [compare_app(app, platform,
                            data_pages=default_data_pages(platform, multiple),
                            seed=job.seed, warm=job.warm,
                            observer=observer if k == last else None)
                for k, multiple in enumerate(job.multiples)]
    # job.kind == "chaos" (JobSpec validated the kind).
    from repro.faults.chaos import chaos_sweep

    return chaos_sweep(app, platform, base_plan=plan,
                       intensities=job.intensities, data_pages=job.pages,
                       seed=job.seed, variant=job.variant)
