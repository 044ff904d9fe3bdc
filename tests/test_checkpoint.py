"""Crash-consistent checkpoint/restart (repro/checkpoint/).

The headline invariant: a run killed at an arbitrary simulated cycle
and resumed from its newest checkpoint finishes with **bit-identical**
``RunStats`` -- across every application, both variants, clean and
faulted.  Around it: checkpointing is pure observation (attached but
idle, or actively writing, the simulated run does not change), corrupt
checkpoints are detected and skipped in favour of the previous retained
one, the container format round-trips, the fault plan's ``crashes`` /
``version`` fields behave, and a Hypothesis round-trip pins full state
equality (pages, frames, disk queues, RNG streams) after a restore
into a fresh machine.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import ALL_APPS, get_app
from repro.apps.synthetic import stream
from repro.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    CheckpointStore,
    Snapshot,
    capture,
    describe_state,
    read_checkpoint_file,
    run_with_recovery,
)
from repro.checkpoint.runner import setup_checkpointing
from repro.checkpoint.store import CONTAINER_VERSION, encode_checkpoint
from repro.config import PlatformConfig
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import CheckpointError, ConfigError, ProcessCrash
from repro.faults import FaultPlan, default_plan, load_plan, save_plan
from repro.harness.experiment import run_variant
from repro.interp.executor import Executor
from repro.machine.machine import Machine
from repro.obs import Observer, TraceKind

#: Small out-of-core platform: 64 frames of memory, 80 pages of data.
CFG = PlatformConfig(memory_pages=64)
DATA_PAGES = 80
ELEMS_PER_PAGE = CFG.page_size // 8

APP_NAMES = sorted(spec.name for spec in ALL_APPS)

_CKPT_KINDS = (TraceKind.CHECKPOINT_WRITE, TraceKind.CHECKPOINT_RESTORE)


@pytest.fixture(scope="module")
def programs():
    """{(app, prefetching): program} -- built and compiled once."""
    cache = {}
    options = CompilerOptions.from_platform(CFG)
    for app in APP_NAMES:
        program = get_app(app).make(DATA_PAGES, seed=1)
        cache[(app, False)] = program
        cache[(app, True)] = insert_prefetches(program, options).program
    return cache


@pytest.fixture(scope="module")
def stream_program():
    program = stream(DATA_PAGES * ELEMS_PER_PAGE, cost_us=0.2)
    return insert_prefetches(program, CompilerOptions.from_platform(CFG)).program


def _factory(prefetching, plan=None, observer=None):
    def make():
        machine = Machine(CFG, prefetching=prefetching, observer=observer,
                          fault_plan=plan)
        return machine, Executor(machine)
    return make


def _uninterrupted(program, prefetching, plan=None):
    machine, executor = _factory(prefetching, plan)()
    return executor.run(program)


class _SafePointProbe:
    """Duck-typed checkpointer that only records safe-point cycles."""

    def __init__(self, machine):
        self.machine = machine
        self.cycles = []

    def at_safe_point(self, executor):
        self.cycles.append(self.machine.clock.now)


def _probe_run(program, prefetching, plan=None):
    """(uninterrupted stats, sorted positive safe-point cycles)."""
    machine, executor = _factory(prefetching, plan)()
    probe = _SafePointProbe(machine)
    executor.checkpointer = probe
    stats = executor.run(program)
    return stats, sorted({c for c in probe.cycles if c > 0})


# ----------------------------------------------------------------------
# The headline invariant: crash + resume == uninterrupted, bitwise
# ----------------------------------------------------------------------


class TestCrashResumeInvariant:
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("variant", ["O", "P"])
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_resume_is_bit_identical(self, programs, app, variant, faulted):
        prefetching = variant == "P"
        program = programs[(app, prefetching)]
        plan = default_plan(CFG.num_disks, seed=1) if faulted else None
        base, cycles = _probe_run(program, prefetching, plan)
        assert len(cycles) >= 3, "workload too small to crash mid-run"
        # Checkpoint cadence and crash cycle are picked from observed
        # safe points, so a checkpoint is guaranteed to strictly precede
        # the kill.  The crash is config-level, so the fault plan -- and
        # with it the machine's code path -- is identical to the
        # control run's.
        config = CheckpointConfig(
            every_us=cycles[0],
            crash_at_us=(cycles[max(1, len(cycles) // 2)],),
        )
        rec = run_with_recovery(_factory(prefetching, plan), program, config)
        assert rec.crashes == 1
        assert rec.resumes == 1
        assert rec.checkpoints >= 1
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(base)

    def test_double_crash_double_resume(self, programs):
        program = programs[("EMBAR", True)]
        base, cycles = _probe_run(program, True)
        config = CheckpointConfig(
            every_us=cycles[0],
            crash_at_us=(cycles[len(cycles) // 3],
                         cycles[2 * len(cycles) // 3]),
        )
        rec = run_with_recovery(_factory(True), program, config)
        assert rec.crashes == 2
        assert rec.resumes == 2
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(base)

    def test_crash_with_no_checkpoint_restarts_from_scratch(self, programs):
        program = programs[("EMBAR", True)]
        base = _uninterrupted(program, True)
        # No cadence: the crash kills a checkpoint-less incarnation and
        # the next one replays the whole run.
        config = CheckpointConfig(crash_at_us=(base.elapsed_us * 0.5,))
        rec = run_with_recovery(_factory(True), program, config)
        assert rec.crashes == 1
        assert rec.resumes == 0
        assert rec.checkpoints == 0
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(base)


# ----------------------------------------------------------------------
# Checkpointing is pure observation
# ----------------------------------------------------------------------


class TestPureObservation:
    def test_active_checkpointing_does_not_change_stats(self, programs):
        program = programs[("EMBAR", True)]
        base = _uninterrupted(program, True)
        machine, executor = _factory(True)()
        setup_checkpointing(machine, executor,
                            CheckpointConfig(every_us=base.elapsed_us * 0.15))
        stats = executor.run(program)
        assert executor.checkpointer.writes >= 1
        assert dataclasses.asdict(stats) == dataclasses.asdict(base)

    def test_observed_trace_unchanged_modulo_checkpoint_events(self, programs):
        program = programs[("EMBAR", True)]

        def observed_run(config):
            obs = Observer()
            machine, executor = _factory(True, observer=obs)()
            if config is not None:
                setup_checkpointing(machine, executor, config)
            executor.run(program)
            return obs.trace.events()

        plain = observed_run(None)
        elapsed = plain[-1].ts_us
        ckpted = observed_run(CheckpointConfig(every_us=elapsed * 0.2))
        writes = [e for e in ckpted if e.kind in _CKPT_KINDS]
        assert writes and all(e.kind is TraceKind.CHECKPOINT_WRITE
                              for e in writes)
        assert [e for e in ckpted if e.kind not in _CKPT_KINDS] == plain


# ----------------------------------------------------------------------
# Observer tiers: the event ring in snapshots, and resume across tiers
# ----------------------------------------------------------------------


def _tiered_factory(capacities):
    """A factory whose n-th incarnation gets ``Observer(capacities[n])``;
    the observers built so far are kept on ``make.observers``."""
    def make():
        obs = Observer(capacity=capacities[len(make.observers)])
        make.observers.append(obs)
        return _factory(True, observer=obs)()
    make.observers = []
    return make


def _without_ckpt_metrics(obs):
    # ckpt.* describe the checkpoints themselves (restores, payload
    # sizes), which a resumed run differs in by construction.
    return {name: value for name, value in obs.metrics.as_dict().items()
            if not name.startswith("ckpt.")}


class TestObserverTiers:
    def test_wrapped_ring_round_trips(self, stream_program):
        obs = Observer(capacity=64)
        machine, executor = _factory(True, observer=obs)()
        setup_checkpointing(machine, executor,
                            CheckpointConfig(every_us=10_000.0))
        executor.run(stream_program)
        assert obs.trace.dropped > 0 and obs.trace.total_emitted % 64 != 0
        snap = capture(machine, executor)

        fresh = Observer(capacity=64)
        fresh_machine, fresh_executor = _factory(True, observer=fresh)()
        fresh_executor._bind_arrays(stream_program)
        snap.restore_into(fresh_machine, fresh_executor)
        assert fresh.trace.events() == obs.trace.events()
        assert fresh.trace.dropped == obs.trace.dropped
        assert fresh.trace.total_emitted == obs.trace.total_emitted
        assert fresh.metrics.as_dict() == obs.metrics.as_dict()

    @pytest.mark.parametrize("capacities", [(None, 65536), (65536, None)],
                             ids=["metrics-to-ring", "ring-to-metrics"])
    def test_resume_across_tiers(self, programs, capacities):
        program = programs[("BUK", True)]
        control = Observer(capacity=capacities[1])
        machine, executor = _factory(True, observer=control)()
        setup_checkpointing(machine, executor, CheckpointConfig(every_us=1.0))
        base = executor.run(program)
        crash_at = base.elapsed_us * 0.5
        config = CheckpointConfig(every_us=1.0, crash_at_us=(crash_at,))

        make = _tiered_factory(capacities)
        rec = run_with_recovery(make, program, config)
        assert (rec.crashes, rec.resumes) == (1, 1)
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(base)
        resumed = make.observers[-1]
        assert _without_ckpt_metrics(resumed) == _without_ckpt_metrics(control)
        assert resumed.metrics.value("ckpt.restores") == 1
        if resumed.trace is None:
            return
        # The ring starts empty: the resumed segment opens with the
        # restore, and what follows is the tail of the control's events.
        events = resumed.trace.events()
        assert events[0].kind is TraceKind.CHECKPOINT_RESTORE
        tail = [e for e in events if e.kind not in _CKPT_KINDS]
        full = [e for e in control.trace.events() if e.kind not in _CKPT_KINDS]
        assert tail and full[-len(tail):] == tail

    def test_metrics_only_payload_carries_no_ring(self, programs):
        program = programs[("BUK", True)]

        def payload_sizes(observer):
            machine, executor = _factory(True, observer=observer)()
            setup_checkpointing(machine, executor,
                                CheckpointConfig(every_us=10_000.0))
            sizes = []
            executor.checkpointer.on_write = (
                lambda snap: sizes.append(len(snap.payload)))
            executor.run(program)
            return sizes

        plain = payload_sizes(None)
        observer = Observer(capacity=None)
        observed = payload_sizes(observer)
        assert len(plain) == len(observed) >= 10
        # The metrics tier adds about 1 KiB (the registry); a ring would
        # add megabytes.
        assert all(0 < o - p <= 4096 for p, o in zip(plain, observed))
        assert observer.metrics.value("ckpt.payload_bytes") == observed[-1]


# ----------------------------------------------------------------------
# The store: container format, retention ring, corruption fallback
# ----------------------------------------------------------------------


class TestStore:
    def _completed_run_with_store(self, program, tmp_path, every_frac=0.2):
        base = _uninterrupted(program, True)
        config = CheckpointConfig(every_us=base.elapsed_us * every_frac,
                                  directory=tmp_path, label="t")
        machine, executor = _factory(True)()
        setup_checkpointing(machine, executor, config)
        executor.run(program)
        return base, executor.checkpointer

    def test_retention_ring_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for _ in range(4):
            store.save("x", {"cycle_us": 0.0}, b"payload")
        assert store.sequences("x") == [3, 4]
        meta, payload, path, skipped = store.load_latest_good("x")
        assert (meta["seq"], payload, skipped) == (4, b"payload", 0)
        assert path == store.path_for("x", 4)

    def test_flipped_byte_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path, _seq = store.save("x", {"cycle_us": 1.0}, b"some payload bytes")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum|truncated|magic"):
            read_checkpoint_file(path)

    def test_unknown_container_version_rejected(self, tmp_path):
        blob = encode_checkpoint({"cycle_us": 0.0}, b"p")
        # The version field sits right after the magic, little-endian.
        from repro.checkpoint.store import MAGIC
        bad = bytearray(blob)
        bad[len(MAGIC)] = CONTAINER_VERSION + 1
        path = tmp_path / "x.00000001.ckpt"
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint_file(path)

    def test_corrupt_newest_falls_back_to_previous(self, stream_program, tmp_path):
        base, ckpt = self._completed_run_with_store(stream_program, tmp_path)
        store = ckpt.store
        seqs = store.sequences("t")
        assert len(seqs) >= 2
        newest = store.path_for("t", seqs[-1])
        blob = bytearray(newest.read_bytes())
        blob[-1] ^= 0xFF
        newest.write_bytes(bytes(blob))
        meta, _payload, path, skipped = store.load_latest_good("t")
        assert skipped == 1
        assert meta["seq"] == seqs[-2]
        assert path == store.path_for("t", seqs[-2])

    def test_resume_from_corrupt_newest_still_bit_identical(
            self, stream_program, tmp_path):
        base, ckpt = self._completed_run_with_store(stream_program, tmp_path)
        store = ckpt.store
        newest = store.path_for("t", store.sequences("t")[-1])
        newest.write_bytes(b"REPRO-CKPT" + b"\x00" * 8)  # truncated garbage
        machine, executor = _factory(True)()
        setup_checkpointing(
            machine, executor,
            CheckpointConfig(directory=tmp_path, label="t",
                             resume_from=tmp_path),
        )
        stats = executor.run(stream_program)
        assert executor.checkpointer.restores == 1
        assert dataclasses.asdict(stats) == dataclasses.asdict(base)

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path, _ = store.save("x", {"cycle_us": 0.0}, b"p")
        path.write_bytes(b"junk")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load_latest_good("x")

    def test_missing_label_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            CheckpointStore(tmp_path).load_latest_good("nope")

    def test_crash_ledger_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.crashes_delivered("x") == 0
        assert store.record_crash("x") == 1
        assert store.record_crash("x") == 2
        assert store.crashes_delivered("x") == 2
        assert store.crashes_delivered("other") == 0

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("x", {"cycle_us": 0.0}, b"p")
        store.record_crash("x")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["x.00000001.ckpt", "x.crashes.json"]


# ----------------------------------------------------------------------
# process_crash faults in the plan
# ----------------------------------------------------------------------


class TestPlanCrashes:
    def test_plan_crash_raises_through_run_variant(self, stream_program):
        _base, cycles = _probe_run(stream_program, True)
        crash_at = cycles[len(cycles) // 2]
        plan = FaultPlan(seed=1, crashes=(crash_at,))
        with pytest.raises(ProcessCrash) as exc:
            run_variant(stream_program, CFG, prefetching=True, fault_plan=plan)
        assert exc.value.scheduled_us == crash_at
        assert exc.value.at_us >= crash_at

    def test_suppressed_equals_recovered(self, stream_program):
        _base, cycles = _probe_run(stream_program, True)
        plan = FaultPlan(seed=1, crashes=(cycles[len(cycles) // 2],))
        suppressed = run_variant(
            stream_program, CFG, prefetching=True, fault_plan=plan,
            checkpoint=CheckpointConfig(suppress_plan_crashes=True),
        )
        rec = run_with_recovery(
            _factory(True, plan), stream_program,
            CheckpointConfig(every_us=cycles[0]),
        )
        assert rec.crashes == 1
        assert rec.resumes == 1
        assert dataclasses.asdict(rec.stats) == dataclasses.asdict(suppressed)

    def test_chaos_sweep_survives_crashes(self):
        from repro.apps.base import AppSpec
        from repro.apps.synthetic import repeated_sweep
        from repro.faults.chaos import CHAOS_CHECKPOINT_EVERY_US, chaos_sweep

        # Several sweeps over an out-of-core array run far past the
        # chaos harness's fixed checkpoint cadence, so the killed row
        # resumes from a checkpoint rather than restarting.
        spec = AppSpec(
            name="SWEEP", nas_name="-", full_name="synthetic sweeps",
            description="repeated sequential passes",
            build=lambda pages, seed: repeated_sweep(
                pages * ELEMS_PER_PAGE, sweeps=3, cost_us=0.2),
        )
        crash_at = CHAOS_CHECKPOINT_EVERY_US * 4
        plan = FaultPlan(seed=1, crashes=(crash_at,))
        report = chaos_sweep(spec, CFG, base_plan=plan,
                             intensities=(0.5, 1.0), data_pages=DATA_PAGES)
        half, full = report.rows
        # Below intensity 1 the crash is dropped (all-or-nothing).
        assert (half.crashes, half.resumes) == (0, 0)
        assert report.clean.elapsed_us > crash_at
        assert full.crashes == 1
        assert full.resumes == 1
        assert dataclasses.asdict(full.stats) == dataclasses.asdict(report.clean)


# ----------------------------------------------------------------------
# FaultPlan: crashes field, version field
# ----------------------------------------------------------------------


class TestPlanSchema:
    def test_crashes_round_trip(self, tmp_path):
        plan = FaultPlan(seed=3, crashes=(200.0, 100.0))
        assert plan.crashes == (100.0, 200.0)  # normalized sorted
        assert not plan.is_noop()
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        assert load_plan(path) == plan
        assert json.loads(path.read_text())["version"] == 1

    def test_negative_crash_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(crashes=(-1.0,))

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            FaultPlan(version=2)

    def test_unknown_version_rejected_before_field_parsing(self):
        # A future plan with renamed fields must fail on the version,
        # not on "unknown field".
        with pytest.raises(ConfigError, match="version"):
            FaultPlan.from_dict({"version": 99, "renamed_field": 1})

    def test_scaled_drops_crashes_below_one(self):
        plan = FaultPlan(crashes=(10.0,), hint_failure_rate=0.5)
        assert plan.scaled(0.5).crashes == ()
        assert plan.scaled(1.0).crashes == (10.0,)
        assert plan.scaled(2.0).crashes == (10.0,)


# ----------------------------------------------------------------------
# Config validation and signature guard
# ----------------------------------------------------------------------


class TestGuards:
    def test_bad_cadence_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointConfig(every_us=0)
        with pytest.raises(CheckpointError):
            CheckpointConfig(keep=0)

    def test_snapshot_rejects_mismatched_machine(self, programs):
        program = programs[("EMBAR", True)]
        machine, executor = _factory(True)()
        ckpt = Checkpointer(machine, executor,
                            CheckpointConfig(every_us=1.0))
        captured = []
        ckpt.on_write = captured.append
        executor.checkpointer = ckpt
        executor.run(program)
        snap = captured[0]
        other = Machine(CFG, prefetching=False)  # O, not P
        other_ex = Executor(other)
        other_ex._bind_arrays(programs[("EMBAR", False)])
        with pytest.raises(CheckpointError, match="signature"):
            snap.restore_into(other, other_ex)


# ----------------------------------------------------------------------
# Hypothesis: snapshot -> restore -> full state equality
# ----------------------------------------------------------------------


class TestRoundTripProperty:
    @settings(max_examples=8, deadline=None)
    @given(fraction=st.floats(min_value=0.05, max_value=0.95))
    def test_restore_reproduces_full_state(self, stream_program, fraction):
        plan = default_plan(CFG.num_disks, seed=2)
        machine, executor = _factory(True, plan)()
        base = executor.run(stream_program)
        machine, executor = _factory(True, plan)()
        captured = []
        ckpt = Checkpointer(
            machine, executor,
            CheckpointConfig(every_us=max(1.0, base.elapsed_us * fraction)),
        )
        ckpt.on_write = lambda snap: captured.append(
            (snap, describe_state(machine, executor.units))
        )
        executor.checkpointer = ckpt
        executor.run(stream_program)
        assert captured
        snap, expected = captured[0]
        fresh_machine, fresh_executor = _factory(True, plan)()
        fresh_executor._bind_arrays(stream_program)
        snap.restore_into(fresh_machine, fresh_executor)
        restored = describe_state(fresh_machine, fresh_executor._skip_until)
        assert restored == expected


# ----------------------------------------------------------------------
# End-to-end through the CLI (the CI smoke job in miniature)
# ----------------------------------------------------------------------


class TestCli:
    def test_kill_resume_loop_matches_control(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.metrics import RUN_METRIC_NAMES

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"version": 1, "seed": 1, "crashes": [300000.0]}\n')
        ckpt_dir = tmp_path / "ckpts"
        common = [
            "--memory-pages", "96", "run", "EMBAR", "--pages", "120",
            "--faults", str(plan_path),
            "--checkpoint-dir", str(ckpt_dir),
        ]
        control = tmp_path / "control.json"
        assert main(common + ["--ignore-crash-faults",
                              "--metrics-out", str(control)]) == 0
        crash_metrics = tmp_path / "crash.json"
        code = main(common + ["--checkpoint-every", "100000",
                              "--metrics-out", str(crash_metrics)])
        assert code == 3
        err = capsys.readouterr().err
        assert "process crashed" in err and "--resume-from" in err
        assert list(ckpt_dir.glob("EMBAR-P.*.ckpt"))
        resumed = tmp_path / "resumed.json"
        assert main(common + ["--resume-from", str(ckpt_dir),
                              "--metrics-out", str(resumed)]) == 0
        a = json.loads(control.read_text())["metrics"]
        b = json.loads(resumed.read_text())["metrics"]
        for name in RUN_METRIC_NAMES:
            assert a.get(name) == b.get(name), name
        assert b["ckpt.restores"]["value"] == 1.0
