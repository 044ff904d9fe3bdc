"""The repository benchmark: end-to-end metrics, or a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table3-matrix --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics.  Both run the correctness gate.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines above it are for people.
``--write-expected`` records the expected simulated results of a seed
into ``perfbench/expected/`` instead of measuring.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected"

WORKLOADS = ("table3-matrix", "per-event-variants", "farm-batch")
#: Set-ups per run (each in a fresh interpreter); setup_s is the median.
SETUP_REPS = 5
#: Calibrations before and after every pass.
CALIB_LOOPS = 3
#: Passes every run makes, however long they take: each metric is a
#: median, and a median of two passes is their mean, which one slow
#: pass moves as far as it likes.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "run_geomean_s": "s",
    "sim_events_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Layers whose spans must record calls on each workload (the traced
#: run's self-check: a wrapper patched where no caller looks finds 0).
EXPECTED_LAYERS = {
    "table3-matrix": ("apps.make", "core.compile", "interp.run",
                      "interp.lower", "machine.chunk", "machine.slowpath",
                      "vm.access"),
    "per-event-variants": ("apps.make", "core.compile", "interp.run",
                           "interp.lower", "machine.chunk", "vm.access",
                           "vm.hint", "runtime.hint", "storage.read",
                           "obs.emit"),
    "farm-batch": ("apps.make", "core.compile", "interp.run",
                   "interp.lower", "machine.chunk", "vm.access",
                   "obs.emit", "checkpoint.write"),
}


def say(line: str) -> None:
    print(line, flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds of SETUP_REPS set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def load_expected(workload: str, seed: int) -> dict | None:
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh).get(str(seed))


def write_expected(workload: str, seed: int, outputs: dict) -> Path:
    path = EXPECTED / f"{workload}.json"
    data = {}
    if path.is_file():
        with open(path) as fh:
            data = json.load(fh)
    data[str(seed)] = outputs
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


class Gate:
    """Counts attempted operations and failures; prints every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, problems: list[str]) -> None:
        for problem in problems:
            say(f"FAIL {problem}")
        self.failed += len(problems)

    def expected(self, bw, workload: str, seed: int, outputs: dict) -> None:
        want = load_expected(workload, seed)
        if want is None:
            say(f"gate: no expected results for seed {seed}; "
                "invariant checks only")
            return
        say(f"gate: comparing against perfbench/expected/{workload}.json "
            f"seed {seed}")
        self.fail(bw.compare_outputs("expected", outputs, want))

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        failed = min(self.failed, self.attempted)
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }


def say_notes(notes: list[str]) -> None:
    """Where attaching an Observer changed a result's float bits (not a
    failure unless beyond float rounding; see NOTES.md)."""
    for note in notes:
        say(f"note: {note}")


def run_passes(seconds: float, one_pass) -> list:
    """Passes for about ``seconds``: after MIN_PASSES, another pass starts
    while it would end less than half a pass past the deadline."""
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + elapsed / len(passes) / 2 > seconds):
            return passes
        passes.append(one_pass())


# ----------------------------------------------------------------------
# End-to-end (--trace 0)
# ----------------------------------------------------------------------


def end_to_end(bw, bt, workload: str, seed: int, seconds: float) -> dict:
    gate = Gate()
    setup = measure_setup(workload, seed)
    say("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    median = statistics.median
    calib: list[float] = []

    def calibrated(one_pass):
        # The host's speed drifts by tens of percent over minutes.  The
        # calibration around every pass tracks it, and all times of the
        # run are scaled to the reference host (see NOTES.md).
        def run():
            calib.extend(bw.calibration() for _ in range(CALIB_LOOPS))
            result = one_pass()
            calib.extend(bw.calibration() for _ in range(CALIB_LOOPS))
            return result
        return run

    if workload == "farm-batch":
        specs = bw.setup_farm_specs(seed)
        passes = run_passes(seconds, calibrated(
            lambda: bw.run_farm_pass(specs, OUT / "farm")))
        # The oracle runs each job in process as a telemetry-on worker
        # does (with an Observer), minus the checkpoint writes.
        events = bt.Tracer()
        events.install([bt.RUN_STATS])
        try:
            _, oracle = bw.replay_jobs(specs, OUT / "replay", observer=True,
                                       checkpoint_every_us=None)
        finally:
            events.uninstall()
        for p in passes:
            p.events = events.stat("interp.run").extra["events"]
        gate.expected(bw, workload, seed, oracle)
        for k, p in enumerate(passes):
            gate.attempted += len(specs)
            if p.not_done:  # each shows as "missing" below
                say(f"pass {k}: {p.not_done} jobs not done")
            gate.fail(bw.compare_outputs(f"pass {k} vs execute_job",
                                         p.outputs, oracle))
        say(f"job latency: p50 of {len(specs)} JobRecord latencies per pass "
            "(too few samples for a tail percentile)")
    else:
        runs = (bw.setup_matrix(seed) if workload == "table3-matrix"
                else bw.setup_per_event(seed))
        reference = (bw.plain_p_reference(runs)
                     if workload == "per-event-variants" else None)
        passes = run_passes(seconds, calibrated(
            lambda: bw.run_in_process(runs)))
        first = passes[0].outputs
        gate.expected(bw, workload, seed, first)
        gate.fail(bw.invariant_failures(workload, first, reference))
        if reference is not None:
            say_notes(bw.observer_notes(
                bw.observed_pairs(first, reference)))
        for k, p in enumerate(passes):
            gate.attempted += len(runs)
            if k:
                gate.fail(bw.compare_outputs(f"pass {k} vs pass 0",
                                             p.outputs, first))
    scale = bw.REF_CALIB_S / median(calib)
    say(f"calibration median {median(calib):.4f} s, scale {scale:.4f}")
    per_pass: dict[str, list[float]] = {}
    for p in passes:
        wall = p.wall_s * scale
        for name, value in (
            ("wall_s", wall),
            ("sim_events_per_s", p.events / wall),
            ("jobs_per_s", len(p.outputs) / wall),
            ("job_latency_p50_s", median(p.latency_s) * scale),
        ):
            per_pass.setdefault(name, []).append(value)
    say(f"passes: {len(passes)}; raw wall_s per pass: "
        + " ".join(f"{p.wall_s:.3f}" for p in passes))
    metrics = {"setup_s": median(setup)}
    metrics.update({name: median(values) for name, values in per_pass.items()})
    # Each run's (farm: job's) median over the passes first: in the farm a
    # job's time depends on which job shares the CPUs with it that pass.
    metrics["run_geomean_s"] = bw.geomean(
        median(p.seconds[key] for p in passes if key in p.seconds) * scale
        for key in passes[0].seconds)
    metrics["peak_rss_mb"] = median(p.peak_rss_mb for p in passes)
    metrics["ok_frac"] = 1.0 - min(gate.failed, gate.attempted) / gate.attempted
    return gate.result(metrics, END_TO_END_UNITS)


# ----------------------------------------------------------------------
# Per-layer (--trace 1)
# ----------------------------------------------------------------------


PER_LAYER_UNITS = {
    "apps.make_s": "s", "core.compile_s": "s",
    "interp.run_s": "s", "interp.self_s": "s", "interp.lower_s": "s",
    "interp.lower_calls": "count", "interp.lower_events": "count",
    "machine.chunk_s": "s", "machine.chunk_self_s": "s",
    "machine.chunk_calls": "count", "machine.chunk_events_mean": "count",
    "machine.small_chunk_frac": "ratio",
    "machine.slowpath_calls": "count", "machine.slowpath_s": "s",
    "vm.access_calls": "count", "vm.access_s": "s", "vm.hint_s": "s",
    "runtime.hint_calls": "count", "runtime.hint_s": "s",
    "runtime.filtered_frac": "ratio",
    "storage.read_calls": "count", "storage.read_s": "s",
    "storage.write_calls": "count", "storage.write_s": "s",
    "obs.emit_calls": "count", "obs.emit_s": "s",
    "obs.farm_telemetry_ratio": "ratio",
    "checkpoint.writes": "count", "checkpoint.write_s": "s",
    "checkpoint.bytes": "bytes", "checkpoint.job_share": "ratio",
    "serve.queue_wait_p50_s": "s", "serve.exec_s": "s",
    "serve.overhead_per_job_s": "s", "serve.retries": "count",
    "sim.events": "count", "sim.stall_frac": "ratio",
    "trace.overhead_ratio": "ratio", "trace.residue_s": "s",
    "host.calib_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    s = tracer.stat
    run, lower, chunk = s("interp.run"), s("interp.lower"), s("machine.chunk")
    slow, access, hint = s("machine.slowpath"), s("vm.access"), s("vm.hint")
    runtime, read, write = s("runtime.hint"), s("storage.read"), s("storage.write")
    emit, ckpt = s("obs.emit"), s("checkpoint.write")
    return {
        "apps.make_s": s("apps.make").total_s,
        "core.compile_s": s("core.compile").total_s,
        "interp.run_s": run.total_s,
        "interp.self_s": run.self_s,
        "interp.lower_s": lower.total_s,
        "interp.lower_calls": lower.calls,
        "interp.lower_events": lower.extra.get("events", 0),
        "machine.chunk_s": chunk.total_s,
        "machine.chunk_self_s": chunk.self_s,
        "machine.chunk_calls": chunk.calls,
        "machine.chunk_events_mean": _ratio(chunk.extra.get("events", 0),
                                            chunk.calls),
        "machine.small_chunk_frac": _ratio(chunk.extra.get("small", 0),
                                           chunk.calls),
        "machine.slowpath_calls": slow.calls,
        "machine.slowpath_s": slow.total_s,
        "vm.access_calls": access.calls,
        "vm.access_s": access.total_s,
        "vm.hint_s": hint.total_s,
        "runtime.hint_calls": runtime.calls,
        "runtime.hint_s": runtime.total_s,
        "runtime.filtered_frac": _ratio(run.extra.get("filtered", 0),
                                        run.extra.get("inserted", 0)),
        "storage.read_calls": read.calls,
        "storage.read_s": read.total_s,
        "storage.write_calls": write.calls,
        "storage.write_s": write.total_s,
        "obs.emit_calls": emit.calls,
        "obs.emit_s": emit.total_s,
        "checkpoint.writes": ckpt.calls,
        "checkpoint.write_s": ckpt.total_s,
        "checkpoint.bytes": ckpt.extra.get("bytes", 0),
        "sim.events": run.extra.get("events", 0),
        "sim.stall_frac": _ratio(run.extra.get("stall_us", 0.0),
                                 run.extra.get("elapsed_us", 0.0)),
    }


def print_layers(tracer, wall: float, residue: float) -> None:
    say(f"{'layer':<18}{'calls':>10}{'total_s':>10}{'self_s':>10}"
        f"{'self%':>8}")
    for layer, stat in sorted(tracer.stats.items()):
        say(f"{layer:<18}{stat.calls:>10}{stat.total_s:>10.3f}"
            f"{stat.self_s:>10.3f}{100 * _ratio(stat.self_s, wall):>7.1f}%")
    say(f"{'(no layer)':<18}{'':>10}{residue:>10.3f}{residue:>10.3f}"
        f"{100 * _ratio(residue, wall):>7.1f}%")


def self_check(gate: Gate, tracer, workload: str) -> None:
    gate.fail([f"trace: no calls recorded in layer {layer}"
               for layer in EXPECTED_LAYERS[workload]
               if tracer.stat(layer).calls == 0])


def traced(bw, bt, workload: str, seed: int, calib: float) -> dict:
    gate = Gate()
    metrics: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    tracer = bt.Tracer()
    if workload == "farm-batch":
        specs = bw.setup_farm_specs(seed)
        on = bw.run_farm_pass(specs, OUT / "farm")
        off = bw.run_farm_pass(specs, OUT / "farm", telemetry=False)
        # Job bodies run in forked workers, out of this process's sight:
        # replay them in process as a telemetry-on worker runs them.
        # The reference replay wraps only checkpoint writes (a few calls
        # per job) to measure their share of a job untraced.
        ckpt_only = bt.Tracer()
        ckpt_only.install([t for t in bt.TARGETS
                           if t.layer == "checkpoint.write"])
        try:
            base_wall, oracle = bw.replay_jobs(specs, OUT / "replay",
                                               observer=True)
        finally:
            ckpt_only.uninstall()
        _, plain = bw.replay_jobs(specs, OUT / "replay", observer=False,
                                  checkpoint_every_us=None)
        tracer.install(bt.TARGETS)
        try:
            tracer.start()
            _, outputs = bw.replay_jobs(specs, OUT / "replay", observer=True,
                                        tracer=tracer)
            wall, residue = tracer.stop()
        finally:
            tracer.uninstall()
        gate.expected(bw, workload, seed, oracle)
        gate.attempted += 4 * len(specs)
        gate.fail(bw.compare_outputs("farm vs execute_job", on.outputs,
                                     oracle))
        gate.fail(bw.compare_outputs("telemetry-off farm vs execute_job",
                                     off.outputs, plain))
        gate.fail(bw.compare_outputs("traced vs untraced replay", outputs,
                                     oracle))
        say_notes(bw.observer_notes(
            {job: (oracle[job], plain[job]) for job in plain}))
        exec_total = sum(on.seconds.values())
        metrics.update(layer_metrics(tracer))
        metrics.update({
            "obs.farm_telemetry_ratio": on.wall_s / off.wall_s,
            "checkpoint.job_share": _ratio(
                ckpt_only.stat("checkpoint.write").total_s, base_wall),
            "serve.queue_wait_p50_s": statistics.median(on.queue_wait_s),
            "serve.exec_s": exec_total,
            "serve.overhead_per_job_s":
                (bw.FARM_WORKERS * on.wall_s - exec_total) / len(specs),
            "serve.retries": on.retries,
        })
        say(f"farm wall: telemetry on {on.wall_s:.3f} s, off "
            f"{off.wall_s:.3f} s; in-process replay {base_wall:.3f} s")
        say(f"checkpoint writes take {100 * metrics['checkpoint.job_share']:.1f}% "
            "of a telemetry-on job replayed in process (untraced)")
    else:
        setup = (bw.setup_matrix if workload == "table3-matrix"
                 else bw.setup_per_event)
        start = time.perf_counter()
        runs = setup(seed)
        base = bw.run_in_process(runs)
        base_wall = time.perf_counter() - start
        reference = (bw.plain_p_reference(runs)
                     if workload == "per-event-variants" else None)
        tracer.install(bt.TARGETS)
        try:
            tracer.start()
            result = bw.run_in_process(setup(seed), tracer=tracer)
            wall, residue = tracer.stop()
        finally:
            tracer.uninstall()
        gate.attempted += 2 * len(base.outputs)
        gate.expected(bw, workload, seed, base.outputs)
        gate.fail(bw.invariant_failures(workload, base.outputs, reference))
        if reference is not None:
            say_notes(bw.observer_notes(
                bw.observed_pairs(base.outputs, reference)))
        gate.fail(bw.compare_outputs("traced vs untraced", result.outputs,
                                     base.outputs))
        metrics.update(layer_metrics(tracer))
    self_check(gate, tracer, workload)
    metrics["trace.overhead_ratio"] = wall / base_wall
    metrics["trace.residue_s"] = residue
    metrics["host.calib_s"] = calib
    print_layers(tracer, wall, residue)
    say(f"traced {wall:.3f} s vs untraced {base_wall:.3f} s "
        f"(overhead x{metrics['trace.overhead_ratio']:.2f}); "
        f"{residue:.3f} s covered by no layer span")
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    say(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    return gate.result(metrics, PER_LAYER_UNITS)


# ----------------------------------------------------------------------


def record_expected(bw, workload: str, seed: int) -> None:
    if workload == "farm-batch":
        _, outputs = bw.replay_jobs(bw.setup_farm_specs(seed),
                                    OUT / "replay", observer=True,
                                    checkpoint_every_us=None)
    else:
        runs = (bw.setup_matrix(seed) if workload == "table3-matrix"
                else bw.setup_per_event(seed))
        outputs = bw.run_in_process(runs).outputs
    path = write_expected(workload, seed, outputs)
    say(f"wrote seed {seed} to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}: run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing as bt
    import workloads as bw

    calib = statistics.median(bw.calibration_loop() for _ in range(5))
    say(f"workload {args.workload}, seed {args.seed}, host.calib_s "
        f"{calib:.4f} (Python {sys.version.split()[0]})")
    if args.write_expected:
        record_expected(bw, args.workload, args.seed)
        return 0
    if args.trace:
        result = traced(bw, bt, args.workload, args.seed, calib)
    else:
        result = end_to_end(bw, bt, args.workload, args.seed, args.seconds)
    for name, metric in result["metrics"].items():
        say(f"{name} = {metric['value']:.6g} {metric['unit']}")
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
