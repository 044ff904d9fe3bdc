"""The three benchmark workloads, driven through the public API.

Each workload has a set-up (everything a user pays before the first
simulated event), a pass (the measured unit of work), and a correctness
gate over the simulated results.  The caller (``run.py``) has already
put the checkout's ``src/`` on ``sys.path``.

* ``table3-matrix`` -- all eight NAS apps as O and P at the Table-3
  footprint, in process, default ``run_variant`` (the paper's table).
* ``per-event-variants`` -- MGRID and CGM P runs under the four
  configurations that replay chunks event by event: adaptive filter,
  P-nofilter, an attached ``Observer`` and a seeded fault plan.
* ``farm-batch`` -- ``demo_jobs(8, seed)`` through a 2-worker farm with
  every other ``FarmConfig`` field at its default.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.apps.registry import ALL_APPS, get_app
from repro.config import PlatformConfig
from repro.core import prefetch_pass
from repro.core.options import CompilerOptions
from repro.faults.plan import default_plan
from repro.harness import experiment
from repro.obs.observer import Observer
from repro.obs.telemetry import TelemetryConfig
from repro.serve.controller import Farm, FarmConfig
from repro.serve.jobspec import JobSpec, JobState, demo_jobs
from repro.serve import worker as serve_worker

from tracing import Tracer, sim_events

#: Apps and configurations of ``per-event-variants``: one structured
#: stencil (MGRID) and one indirect, seed-dependent kernel (CGM).
PER_EVENT_APPS = ("MGRID", "CGM")
PER_EVENT_CONFIGS = ("adaptive", "nofilter", "observed", "faulted")
#: Intensity of the seeded ``default_plan`` (below 1.0 no disk dies).
FAULT_INTENSITY = 0.5

FARM_JOBS = 8
FARM_WORKERS = 2


#: Seconds one :func:`calibration` takes on the reference host (a 2-vCPU
#: VM, Python 3.11.7, ``host.calib_s`` about 0.15 s).  All times of a run
#: are scaled by REF_CALIB_S / the median calibration around its passes.
REF_CALIB_S = 0.33


def calibration_loop() -> float:
    """Seconds of one fixed pure-Python loop: the host's speed now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def calibration() -> float:
    """Seconds of :func:`calibration_loop` plus a fixed memory exercise:
    allocating and copying 64 MB, so fresh pages are faulted in and
    zeroed.  The interpreter loop alone tracked the drift of both gated
    workloads less well than this mix (see NOTES.md)."""
    start = time.perf_counter()
    buf = bytearray(64 << 20)
    bytes(buf)
    bytes(buf)
    del buf
    memory_s = time.perf_counter() - start
    return memory_s + calibration_loop()


def normalize(value: Any) -> Any:
    """The JSON form of a result: what expected files and farm results
    hold, so in-process objects compare exactly against them."""
    return json.loads(json.dumps(value))


def stats_dict(stats) -> dict:
    return normalize(dataclasses.asdict(stats))


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


@dataclass
class Run:
    key: str
    program: Any
    kwargs: Callable[[], dict]


@dataclass
class PassResult:
    wall_s: float
    #: key -> host seconds of that run (or farm job execution).
    seconds: dict[str, float]
    #: key -> simulated output (stats dict or job result).
    outputs: dict[str, Any]
    events: int = 0
    latency_s: list[float] = field(default_factory=list)
    #: Peak resident memory during the pass (see TreeRssSampler).
    peak_rss_mb: float = 0.0
    #: Farm-only: records and per-job timings.
    queue_wait_s: list[float] = field(default_factory=list)
    not_done: int = 0
    retries: int = 0


def _platform() -> PlatformConfig:
    return PlatformConfig()


def _compile(program, platform):
    # Looked up on the module at call time, so a traced run sees it.
    options = CompilerOptions.from_platform(platform)
    return prefetch_pass.insert_prefetches(program, options).program


def setup_matrix(seed: int) -> list[Run]:
    platform = _platform()
    runs = []
    for spec in ALL_APPS:
        pages = experiment.default_data_pages(platform,
                                              spec.default_memory_multiple)
        program = spec.make(pages, seed=seed)
        compiled = _compile(program, platform)
        runs.append(Run(f"{spec.name}/O", program,
                        lambda: {"prefetching": False}))
        runs.append(Run(f"{spec.name}/P", compiled,
                        lambda: {"prefetching": True}))
    return runs


def _per_event_kwargs(config: str, seed: int) -> Callable[[], dict]:
    if config == "adaptive":
        return lambda: {"prefetching": True, "adaptive": True}
    if config == "nofilter":
        return lambda: {"prefetching": True, "runtime_filter": False}
    if config == "observed":
        return lambda: {"prefetching": True, "observer": Observer()}
    plan = default_plan(_platform().num_disks, seed=seed).scaled(
        FAULT_INTENSITY)
    return lambda: {"prefetching": True, "fault_plan": plan}


def setup_per_event(seed: int) -> list[Run]:
    platform = _platform()
    runs = []
    for name in PER_EVENT_APPS:
        spec = get_app(name)
        pages = experiment.default_data_pages(platform,
                                              spec.default_memory_multiple)
        compiled = _compile(spec.make(pages, seed=seed), platform)
        for config in PER_EVENT_CONFIGS:
            runs.append(Run(f"{name}/{config}", compiled,
                            _per_event_kwargs(config, seed)))
    return runs


def run_in_process(runs: list[Run], tracer: Tracer | None = None) -> PassResult:
    """Run every variant once, in order.  The client submits the whole
    batch at the start, so a run's latency is its completion time."""
    platform = _platform()
    seconds: dict[str, float] = {}
    outputs: dict[str, Any] = {}
    latency = []
    events = 0
    with TreeRssSampler() as rss:
        for run in runs:
            if tracer is not None:
                tracer.run_id = run.key
            t0 = time.perf_counter()
            stats = experiment.run_variant(run.program, platform,
                                           **run.kwargs())
            seconds[run.key] = time.perf_counter() - t0
            latency.append(sum(seconds.values()))
            outputs[run.key] = stats_dict(stats)
            events += sim_events(stats)
    return PassResult(sum(seconds.values()), seconds, outputs, events,
                      latency_s=latency, peak_rss_mb=rss.peak_kb / 1024.0)


def plain_p_reference(runs: list[Run]) -> dict[str, dict]:
    """Plain P stats of the per-event apps (the observed runs must
    reproduce them, see :func:`invariant_failures`)."""
    platform = _platform()
    programs = {run.key.split("/")[0]: run.program for run in runs}
    return {name: stats_dict(experiment.run_variant(program, platform,
                                                     prefetching=True))
            for name, program in programs.items()}


#: Largest relative difference of a float statistic that still counts as
#: float rounding (summation order), not as a different simulation.
ROUNDING = 1e-9


def float_drift(got: Any, want: Any) -> float | None:
    """Largest relative difference between two results' floats, or None
    when anything else (a count, a key, a type) differs."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return None
        drifts = [float_drift(got[k], want[k]) for k in want]
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return None
        drifts = [float_drift(g, w) for g, w in zip(got, want)]
    elif isinstance(want, float) and isinstance(got, float):
        return abs(got - want) / max(abs(want), abs(got), 1.0)
    else:
        return 0.0 if got == want and type(got) is type(want) else None
    if any(d is None for d in drifts):
        return None
    return max(drifts, default=0.0)


def observed_pairs(outputs: dict[str, Any],
                   reference: dict) -> dict[str, tuple[Any, Any]]:
    return {f"{name}/observed": (outputs[f"{name}/observed"], reference[name])
            for name in PER_EVENT_APPS}


def observer_notes(pairs: dict[str, tuple[Any, Any]]) -> list[str]:
    """Observed runs whose floats are not bit-identical to unobserved
    ones; ``pairs`` maps a label to (observed, unobserved)."""
    notes = []
    for label, (observed, plain) in pairs.items():
        drift = float_drift(observed, plain)
        if drift is None:
            notes.append(f"{label}: observed and unobserved results differ")
        elif drift:
            notes.append(f"{label}: observed float results differ from "
                         f"unobserved by up to {drift:.1e} (relative)")
    return notes


def invariant_failures(workload: str, outputs: dict[str, Any],
                       reference: dict | None) -> list[str]:
    """Checks that hold at every seed."""
    problems = []
    if workload == "table3-matrix":
        for spec in ALL_APPS:
            o = outputs[f"{spec.name}/O"]["elapsed_us"]
            p = outputs[f"{spec.name}/P"]["elapsed_us"]
            if not p < o:
                problems.append(f"{spec.name}: P ({p}) does not beat O ({o})")
    elif workload == "per-event-variants":
        for name in PER_EVENT_APPS:
            drift = float_drift(outputs[f"{name}/observed"], reference[name])
            if drift is None or drift > ROUNDING:
                problems.append(f"{name}/observed: stats differ from the "
                                "unobserved P run")
            nofilter = outputs[f"{name}/nofilter"]["prefetch"]
            if nofilter["filtered"] != 0:
                problems.append(f"{name}/nofilter: filtered "
                                f"{nofilter['filtered']} hints")
            inserted = reference[name]["prefetch"]["compiler_inserted"]
            for config in PER_EVENT_CONFIGS:
                got = outputs[f"{name}/{config}"]["prefetch"]
                if got["compiler_inserted"] != inserted:
                    problems.append(
                        f"{name}/{config}: {got['compiler_inserted']} "
                        f"compiler hints, plain P executes {inserted}")
    return problems


# ----------------------------------------------------------------------
# The farm
# ----------------------------------------------------------------------


def setup_farm_specs(seed: int) -> list[JobSpec]:
    """The batch as ``repro serve submit`` admits it: validated specs."""
    return [JobSpec.from_dict(spec.to_dict())
            for spec in demo_jobs(FARM_JOBS, seed=seed)]


def farm_config(telemetry: bool = True) -> FarmConfig:
    if telemetry:
        return FarmConfig(workers=FARM_WORKERS)
    return FarmConfig(workers=FARM_WORKERS,
                      telemetry=TelemetryConfig(enabled=False))


def job_ids(specs: list[JobSpec]) -> list[str]:
    """The ids ``Farm.submit`` assigns to an id-less batch."""
    return [spec.job_id or f"job-{k:04d}" for k, spec in
            enumerate(specs, start=1)]


class TreeRssSampler:
    """Peak resident memory of this process plus all its descendants,
    sampled from /proc (forked workers share pages with the controller;
    each process's RSS counts them once per process)."""

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _tree(root: int) -> list[int]:
        pids, todo = [], [root]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children") as fh:
                        todo.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
        return pids

    @staticmethod
    def _rss_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def sample(self) -> None:
        total = sum(self._rss_kb(pid) for pid in self._tree(os.getpid()))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "TreeRssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def run_farm_pass(specs: list[JobSpec], workdir: Path,
                  telemetry: bool = True) -> PassResult:
    """Submit the batch to a fresh farm and wait for every job.

    Latencies come from ``JobRecord`` timestamps, not from the
    ``serve.job_latency_us`` histogram (its quantiles are bucket upper
    bounds).
    """
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        farm = Farm(farm_config(telemetry), workdir)
        with TreeRssSampler() as rss:
            start = time.perf_counter()
            farm.submit(specs)
            report = asyncio.run(farm.run())
            wall = time.perf_counter() - start
        seconds, outputs = {}, {}
        latency, queue_wait = [], []
        not_done = 0
        for record in report.records:
            job = record.spec.job_id
            latency.append(record.latency_s)
            queue_wait.append(record.started_at - record.submitted_at)
            if record.state != JobState.DONE:
                not_done += 1
                continue
            outputs[job] = normalize(record.result)
            path = serve_worker.result_path(farm.results_dir, job,
                                            record.attempts)
            with open(path) as fh:
                seconds[job] = json.load(fh)["wall_s"]
        return PassResult(
            wall, seconds, outputs, latency_s=latency,
            queue_wait_s=queue_wait, not_done=not_done,
            retries=int(report.metrics.value("serve.retries")),
            peak_rss_mb=rss.peak_kb / 1024.0,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def replay_jobs(specs: list[JobSpec], workdir: Path, observer: bool,
                tracer: Tracer | None = None,
                checkpoint_every_us: float | None =
                serve_worker.DEFAULT_CHECKPOINT_EVERY_US,
                ) -> tuple[float, dict[str, Any]]:
    """Run every job in process through ``execute_job``, as a worker
    does (with ``observer``: as a telemetry-on worker does).

    ``checkpoint_every_us=None`` skips checkpoint writes, which are pure
    observation: the results are the same bits, several times faster.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    outputs = {}
    try:
        start = time.perf_counter()
        for spec, job in zip(specs, job_ids(specs)):
            if tracer is not None:
                tracer.run_id = job
            result = serve_worker.execute_job(
                spec.with_id(job), workdir / job, resume=False,
                checkpoint_every_us=checkpoint_every_us,
                observer=Observer() if observer else None)
            outputs[job] = normalize(result)
        return time.perf_counter() - start, outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Metrics and checks shared by the workloads
# ----------------------------------------------------------------------


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_outputs(label: str, got: dict, want: dict) -> list[str]:
    """One line per key whose output differs (or is missing)."""
    problems = []
    for key in want:
        if key not in got:
            problems.append(f"{label}: {key} missing")
        elif got[key] != want[key]:
            problems.append(f"{label}: {key} differs")
    for key in got:
        if key not in want:
            problems.append(f"{label}: {key} unexpected")
    return problems


def median(values) -> float:
    return statistics.median(values)
