"""The chaos harness: sweep fault intensities, report the degradation.

``chaos_sweep`` compiles one application once, runs it clean, then runs
it again under ``base_plan.scaled(i)`` for each requested intensity.
Every run uses the same program, platform, and workload seed, so the
whole table isolates the cost of the injected faults.  The CLI front
door is ``python -m repro chaos`` (see docs/robustness.md).

Plans that schedule ``process_crash`` faults run through the in-process
kill/resume loop (:func:`repro.checkpoint.run_with_recovery`): each
crash kills the incarnation and the next one resumes from the newest
in-memory checkpoint, so the row's stats are those of the *completed*
run and the row also reports how many crashes/resumes it survived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.base import AppSpec
from repro.checkpoint.runner import CheckpointConfig, run_with_recovery
from repro.config import PlatformConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, default_plan
from repro.harness.experiment import (
    VARIANTS,
    build_program,
    new_machine,
    resolve_pages,
    run_variant,
)
from repro.sim.stats import RunStats

#: Checkpoint cadence for crash-bearing chaos rows (simulated us).  A
#: fixed deterministic cadence keeps the sweep reproducible; it only
#: bounds how much work a resume replays, never the row's statistics
#: (checkpointing is pure observation).
CHAOS_CHECKPOINT_EVERY_US = 50_000.0


def dropped_hint_pages(stats: RunStats) -> int:
    """Prefetch pages that never reached the OS because of hint faults.

    Every compiler-inserted page is either filtered, suppressed, issued
    to the OS, or lost to a failed/gated hint call; the conservation
    identity makes the loss directly computable from the run's stats.
    """
    p = stats.prefetch
    return max(0, p.compiler_inserted - p.filtered - p.suppressed - p.issued_pages)


@dataclass
class ChaosRow:
    """One faulted run of the sweep."""

    intensity: float
    plan: FaultPlan
    stats: RunStats
    #: Process crashes delivered (and resumes survived) to finish the row.
    crashes: int = 0
    resumes: int = 0

    @property
    def elapsed_us(self) -> float:
        return self.stats.elapsed_us

    @property
    def drop_rate(self) -> float:
        """Fraction of compiler-inserted prefetch pages lost to faults."""
        inserted = self.stats.prefetch.compiler_inserted
        if inserted == 0:
            return 0.0
        return dropped_hint_pages(self.stats) / inserted

    @property
    def retries(self) -> int:
        return self.stats.disk.retries

    @property
    def degraded_requests(self) -> int:
        return self.stats.disk.degraded_reads + self.stats.disk.degraded_writes

    @property
    def fallback_episodes(self) -> int:
        return self.stats.robust.fallback_episodes


@dataclass
class ChaosReport:
    """The clean baseline plus one row per fault intensity."""

    app: str
    variant: str
    data_pages: int
    clean: RunStats
    rows: list[ChaosRow]

    def slowdown(self, row: ChaosRow) -> float:
        return row.elapsed_us / self.clean.elapsed_us if self.clean.elapsed_us else 1.0


def chaos_report_dict(report: ChaosReport) -> dict:
    """JSON-ready view of a report (``chaos --out``, farm chaos jobs)."""
    return {
        "kind": "chaos",
        "app": report.app,
        "variant": report.variant,
        "data_pages": report.data_pages,
        "clean_elapsed_us": report.clean.elapsed_us,
        "rows": [
            {
                "intensity": row.intensity,
                "elapsed_us": row.elapsed_us,
                "slowdown": report.slowdown(row),
                "drop_rate": row.drop_rate,
                "retries": row.retries,
                "degraded_requests": row.degraded_requests,
                "fallback_episodes": row.fallback_episodes,
                "crashes": row.crashes,
                "resumes": row.resumes,
            }
            for row in report.rows
        ],
    }


def chaos_sweep(
    spec: AppSpec,
    platform: PlatformConfig,
    base_plan: FaultPlan | None = None,
    intensities: Sequence[float] = (0.25, 0.5, 1.0),
    data_pages: int | None = None,
    seed: int = 1,
    variant: str = "p",
) -> ChaosReport:
    """Run one app clean and at each fault intensity of ``base_plan``.

    ``variant`` follows the CLI's run command: ``o`` (no prefetching),
    ``p`` (the default), ``nofilter``, or ``adaptive``.  With no
    ``base_plan``, :func:`repro.faults.plan.default_plan` supplies a
    representative all-taxonomy plan sized to the platform's array.
    """
    if not intensities:
        raise ConfigError("chaos sweep needs at least one intensity")
    data_pages = resolve_pages(spec, platform, data_pages)
    if base_plan is None:
        base_plan = default_plan(platform.num_disks, seed=seed)
    program = build_program(spec, platform, data_pages, seed, variant)
    machine = VARIANTS[variant].machine

    def execute(plan: FaultPlan | None) -> tuple[RunStats, int, int]:
        if plan is not None and plan.crashes:
            # Crash-bearing plans go through the kill/resume loop: a
            # fresh machine per incarnation, in-memory checkpoints.
            rec = run_with_recovery(
                lambda: new_machine(platform, fault_plan=plan, **machine),
                program,
                CheckpointConfig(every_us=CHAOS_CHECKPOINT_EVERY_US),
            )
            return rec.stats, rec.crashes, rec.resumes
        stats = run_variant(program, platform, fault_plan=plan, **machine)
        return stats, 0, 0

    clean, _, _ = execute(None)
    rows = []
    for intensity in intensities:
        plan = base_plan.scaled(intensity)
        stats, crashes, resumes = execute(None if plan.is_noop() else plan)
        rows.append(ChaosRow(intensity=intensity, plan=plan, stats=stats,
                             crashes=crashes, resumes=resumes))
    return ChaosReport(
        app=spec.name,
        variant=variant,
        data_pages=data_pages,
        clean=clean,
        rows=rows,
    )
