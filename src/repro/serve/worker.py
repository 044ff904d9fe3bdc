"""The farm worker: one process, one job at a time, always heartbeating.

A worker is deliberately dumb.  It pulls a dispatch message off its
inbox queue, executes the job, writes the outcome as an **atomic** JSON
file into the farm's results directory, and goes back to waiting.  All
policy -- retries, backoff, quarantine, preemption, load shedding --
lives in the controller; all the worker owes the farm is:

* **heartbeats**: a daemon thread stamps ``time.monotonic()`` into the
  worker's slot of a shared array every ``hb_interval_s``.  A SIGSTOPped
  or dead worker stops stamping, which is exactly the signal the
  supervisor's missed-heartbeat detector keys on.
* **torn-write freedom**: results go through
  :func:`repro.ioutil.atomic_write_json`, so a SIGKILL mid-report
  leaves either the complete file or nothing -- the controller never
  parses garbage.
* **checkpoint discipline**: ``run`` and ``compare`` jobs checkpoint
  into the job's own directory at a fixed simulated cadence, so a job
  killed here resumes on *another* worker from the newest good snapshot
  and finishes bit-identical to an uninterrupted run (the PR-5
  machinery; ``sweep``/``chaos`` jobs are cheap and deterministic and
  simply restart from scratch).

Communication is one-directional queues in, files out: the worker never
writes to a structure the controller also locks, so killing a worker at
any instant cannot wedge the farm.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any

from repro.errors import ProcessCrash
from repro.ioutil import atomic_write_json

#: Simulated microseconds between checkpoints inside farm jobs.  Small
#: enough that even smoke-footprint jobs write several snapshots before
#: any plausible kill, so preemption almost never replays from scratch.
DEFAULT_CHECKPOINT_EVERY_US = 10_000.0


def result_path(results_dir: str | Path, job_id: str, attempt: int) -> Path:
    """Where the outcome of one attempt of one job lands."""
    return Path(results_dir) / f"{job_id}.a{attempt}.json"


def job_observer(telemetry: dict | None):
    """The observer a worker attaches to one job, or None.

    ``telemetry`` is the worker's :meth:`~repro.obs.telemetry.
    TelemetryConfig.worker_args` dict.  Telemetry alone needs only the
    metrics tier; the event ring is allocated only when per-job traces
    were requested (``traces_dir``, i.e. ``--farm-trace``), because
    every checkpoint of the job would otherwise carry it.
    """
    if telemetry is None:
        return None
    from repro.obs.observer import Observer

    return Observer() if telemetry.get("traces_dir") else Observer(capacity=None)


def execute_job(spec, job_dir: Path, resume: bool,
                checkpoint_every_us: float = DEFAULT_CHECKPOINT_EVERY_US,
                observer=None) -> dict[str, Any]:
    """Run one job spec to completion; returns the JSON-ready result.

    Raises :class:`~repro.errors.ProcessCrash` when a plan
    ``process_crash`` fault fires (the controller retries with resume,
    and the shared crash ledger in ``job_dir`` keeps the retry from
    re-dying), and whatever the simulator raises for poison jobs.

    ``observer`` attaches farm telemetry to ``run``/``compare`` jobs
    (live obs.* histograms, plus the per-job trace when it has a ring;
    see :func:`job_observer`); ``sweep``/``chaos`` jobs run unobserved,
    because an observer forces the scalar chunk loop.  That loop makes
    an observed job ~3x slower than an unobserved one on the demo
    batch; a ring adds another ~1.8x, as every checkpoint copies it
    (docs/observability.md, *Overhead*).  The payload is computed from
    a fresh ``RunStats.publish`` registry, and every count matches a
    run without telemetry.  Float statistics may differ in their last
    bits: an observer sends each prefetch through the run-time layer,
    which charges per request where the inline filter batches the
    charge (docs/observability.md, *Fidelity over wall-clock*).
    """
    from repro.checkpoint import CheckpointConfig
    from repro.faults.chaos import chaos_report_dict
    from repro.harness.experiment import execute
    from repro.obs.metrics import RUN_METRIC_NAMES

    # A kill can land before the first checkpoint of the first attempt,
    # in which case the job directory was never created: resuming then
    # just means starting fresh.
    resume = resume and job_dir.is_dir()
    checkpoint = CheckpointConfig(
        every_us=checkpoint_every_us, directory=job_dir, label="job",
        resume_from=job_dir if resume else None,
    )
    result = execute(
        spec, checkpoint=checkpoint,
        observer=observer if spec.kind in ("run", "compare") else None,
    )
    if spec.kind == "run":
        registry = result.stats.publish()
        return {"kind": "run", "app": result.app, "variant": spec.variant,
                "data_pages": result.data_pages,
                "elapsed_us": result.stats.elapsed_us,
                "metrics": {name: registry.value(name)
                            for name in RUN_METRIC_NAMES}}
    if spec.kind == "compare":
        return {"kind": "compare", "app": result.app,
                "data_pages": result.data_pages, "speedup": result.speedup,
                "rows": [{"variant": run.variant,
                          "elapsed_us": run.stats.elapsed_us,
                          "stall_us": run.stats.times.idle}
                         for run in (result.original, result.prefetch)]}
    if spec.kind == "sweep":
        return {"kind": "sweep", "app": result[0].app,
                "rows": [{"multiple": multiple,
                          "data_pages": point.data_pages,
                          "original_us": point.original.elapsed_us,
                          "prefetch_us": point.prefetch.elapsed_us,
                          "speedup": point.speedup}
                         for multiple, point in zip(spec.multiples, result)]}
    return chaos_report_dict(result)


def _heartbeat_loop(beats, worker_id: int, interval_s: float,
                    hb_path: str | None = None) -> None:
    """Stamp the shared array (and, with ``hb_path``, touch the on-disk
    heartbeat file -- the shared array dies with the controller that
    created it, so a *recovering* controller reads freshness from the
    file's mtime instead)."""
    import os

    while True:
        beats[worker_id] = time.monotonic()
        if hb_path is not None:
            try:
                os.utime(hb_path)
            except OSError:
                try:
                    open(hb_path, "w").close()
                except OSError:
                    pass
        time.sleep(interval_s)


def _telemetry_flush_loop(slot: dict, worker_id: int, telemetry_dir: str,
                          interval_s: float) -> None:
    """Periodically snapshot the current job's observer registry.

    The snapshot is cumulative (the controller replaces, never adds,
    partials for an attempt) and atomically written, so a worker killed
    mid-flush leaves the previous complete partial.  The registry is
    being mutated by the job thread while we serialize it -- the GIL
    keeps individual reads coherent and a torn iteration just skips
    this tick.
    """
    from repro.ioutil import atomic_write_json as write

    path = Path(telemetry_dir) / f"worker{worker_id}.json"
    while True:
        time.sleep(interval_s)
        current = slot.get("current")
        if current is None:
            continue
        spec, attempt, observer = current
        try:
            write(path, {
                "job_id": spec.job_id,
                "attempt": attempt,
                "tenant": spec.tenant,
                "worker": worker_id,
                "final": False,
                "metrics": observer.metrics.as_dict(),
            })
        except Exception:  # noqa: BLE001 -- a live partial is best-effort
            continue


def worker_main(worker_id: int, inbox, beats, results_dir: str,
                ckpt_root: str, hb_interval_s: float,
                checkpoint_every_us: float = DEFAULT_CHECKPOINT_EVERY_US,
                telemetry: dict | None = None,
                hb_path: str | None = None) -> None:
    """Worker process entry point (the multiprocessing target).

    ``telemetry`` (from :meth:`repro.obs.telemetry.TelemetryConfig.
    worker_args`) turns on per-job observers: live metric deltas flush
    to ``<dir>/worker<id>.json`` every ``flush_every_s`` and ride the
    result payload as the final delta; with ``traces_dir`` set, each
    attempt's Chrome trace lands there for the merged farm timeline.

    ``hb_path`` mirrors the heartbeat into an on-disk touch-file so a
    controller that replaced a crashed one can judge this worker's
    freshness (docs/serving.md, *Controller failure & recovery*).
    """
    from repro.serve.jobspec import JobSpec

    beats[worker_id] = time.monotonic()
    if hb_path is not None:
        try:
            open(hb_path, "w").close()
        except OSError:
            hb_path = None
    thread = threading.Thread(
        target=_heartbeat_loop,
        args=(beats, worker_id, hb_interval_s, hb_path),
        name=f"heartbeat-{worker_id}", daemon=True,
    )
    thread.start()
    slot: dict[str, Any] = {"current": None}
    if telemetry is not None:
        threading.Thread(
            target=_telemetry_flush_loop,
            args=(slot, worker_id, telemetry["dir"],
                  telemetry.get("flush_every_s", 0.5)),
            name=f"telemetry-{worker_id}", daemon=True,
        ).start()
    results = Path(results_dir)
    while True:
        try:
            message = inbox.get()
        except (EOFError, OSError):  # controller went away
            return
        if message is None:  # drain sentinel
            return
        spec = JobSpec.from_dict(message["spec"])
        attempt = message["attempt"]
        job_dir = Path(ckpt_root) / spec.job_id
        observer = job_observer(telemetry)
        if observer is not None:
            slot["current"] = (spec, attempt, observer)
        payload: dict[str, Any] = {
            "job_id": spec.job_id,
            "attempt": attempt,
            "worker": worker_id,
            "trace_id": message.get("trace_id"),
            "parent_span": message.get("parent_span"),
        }
        start = time.perf_counter()
        try:
            result = execute_job(spec, job_dir, resume=message["resume"],
                                 checkpoint_every_us=checkpoint_every_us,
                                 observer=observer)
            payload.update(state="done", result=result)
        except ProcessCrash as crash:
            # A planned in-simulation process death: retryable, and the
            # job's crash ledger already advanced, so the resumed
            # attempt will run past it.
            payload.update(state="crashed", error=str(crash))
        except BaseException as exc:  # noqa: BLE001 -- poison jobs may raise anything
            payload.update(state="failed",
                           error=f"{type(exc).__name__}: {exc}")
        slot["current"] = None
        payload["wall_s"] = round(time.perf_counter() - start, 4)
        if observer is not None:
            if payload["state"] == "done":
                payload["telemetry"] = {
                    "job_id": spec.job_id,
                    "attempt": attempt,
                    "tenant": spec.tenant,
                    "final": True,
                    "metrics": observer.metrics.as_dict(),
                }
            if telemetry.get("traces_dir"):
                _write_job_trace(telemetry["traces_dir"], spec.job_id,
                                 attempt, observer, payload)
        atomic_write_json(result_path(results, spec.job_id, attempt), payload)


def _write_job_trace(traces_dir: str, job_id: str, attempt: int,
                     observer, payload: dict) -> None:
    """One attempt's Chrome trace segment, written whatever the outcome
    (a crashed attempt's partial trace is exactly what the farm
    timeline needs to show)."""
    from repro.obs.export import chrome_trace

    try:
        trace = chrome_trace(observer.trace,
                             process_name=f"{job_id}.a{attempt}")
        trace["otherData"]["trace_id"] = payload.get("trace_id")
        trace["otherData"]["parent_span"] = payload.get("parent_span")
        atomic_write_json(
            Path(traces_dir) / f"{job_id}.a{attempt}.json", trace,
            sort_keys=False)
    except Exception:  # noqa: BLE001 -- traces are best-effort artifacts
        return
