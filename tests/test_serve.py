"""Unit tests for the job-farm building blocks (repro/serve/).

Everything here runs in-process with no worker pool: the retry
schedule is a pure function and its exact values are pinned; the
admission queue's evict/shed/priority/backoff decisions are driven
record by record; job specs and farm chaos plans round-trip through
JSON; and the CLI exit-code enum's numbers are frozen (harnesses
branch on them).  The farm itself -- processes, signals, checkpoints
-- is exercised in tests/test_serve_integration.py.
"""

import json

import pytest

from repro.errors import ConfigError, ExitCode
from repro.faults.farm import (
    FarmChaosPlan,
    WorkerFault,
    default_farm_plan,
    load_farm_plan,
)
from repro.serve import (
    AdmissionQueue,
    JobRecord,
    JobSpec,
    JobState,
    RetryPolicy,
    demo_jobs,
    load_jobs,
    save_jobs,
)
from repro.serve.jobspec import TERMINAL_STATES


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_raw_ladder_is_capped_exponential(self):
        policy = RetryPolicy(base_s=0.1, multiplier=2.0, cap_s=0.5, jitter=0.0)
        assert policy.raw_delay_s(1) == pytest.approx(0.1)
        assert policy.raw_delay_s(2) == pytest.approx(0.2)
        assert policy.raw_delay_s(3) == pytest.approx(0.4)
        assert policy.raw_delay_s(4) == pytest.approx(0.5)  # capped
        assert policy.raw_delay_s(10) == pytest.approx(0.5)

    def test_zero_jitter_is_the_raw_ladder(self):
        policy = RetryPolicy(base_s=0.05, jitter=0.0)
        assert policy.delay_s("job-x", 1) == policy.raw_delay_s(1)
        assert policy.delay_s("job-x", 3) == policy.raw_delay_s(3)

    def test_jitter_is_deterministic_per_job_and_attempt(self):
        a = RetryPolicy(seed=7).delay_s("job-1", 2)
        b = RetryPolicy(seed=7).delay_s("job-1", 2)
        assert a == b
        assert RetryPolicy(seed=8).delay_s("job-1", 2) != a
        assert RetryPolicy(seed=7).delay_s("job-2", 2) != a
        assert RetryPolicy(seed=7).delay_s("job-1", 3) != a

    def test_jitter_stays_in_bounds(self):
        policy = RetryPolicy(base_s=0.1, multiplier=2.0, cap_s=2.0, jitter=0.5)
        for attempt in range(1, 8):
            raw = policy.raw_delay_s(attempt)
            for job in ("a", "b", "c", "d"):
                delay = policy.delay_s(job, attempt)
                assert raw * 0.5 <= delay <= raw

    def test_schedule_lists_every_attempt(self):
        policy = RetryPolicy(jitter=0.0, base_s=0.01)
        schedule = policy.schedule("j", 4)
        assert schedule == [policy.delay_s("j", n) for n in range(1, 5)]

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(base_s=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(base_s=1.0, cap_s=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigError):
            RetryPolicy().raw_delay_s(0)


# ----------------------------------------------------------------------
# AdmissionQueue
# ----------------------------------------------------------------------


def record(job_id: str, priority: int = 0, seq: int = 0,
           eligible_at: float = 0.0) -> JobRecord:
    spec = JobSpec(kind="run", app="EMBAR", job_id=job_id, priority=priority)
    return JobRecord(spec=spec, seq=seq, eligible_at=eligible_at)


class TestAdmissionQueue:
    def test_admits_until_depth(self):
        queue = AdmissionQueue(2)
        assert queue.offer(record("a", seq=1))
        assert queue.offer(record("b", seq=2))
        assert len(queue) == 2
        assert not queue.shed

    def test_full_queue_sheds_equal_priority_newcomer(self):
        queue = AdmissionQueue(1)
        assert queue.offer(record("a", priority=1, seq=1))
        assert not queue.offer(record("b", priority=1, seq=2))
        assert [r.spec.job_id for r in queue.shed] == ["b"]
        assert len(queue) == 1

    def test_full_queue_evicts_strictly_lower_priority_victim(self):
        queue = AdmissionQueue(2)
        queue.offer(record("old-low", priority=0, seq=1))
        queue.offer(record("old-high", priority=2, seq=2))
        assert queue.offer(record("new-mid", priority=1, seq=3))
        assert [r.spec.job_id for r in queue.shed] == ["old-low"]
        ids = {r.spec.job_id for r in queue}
        assert ids == {"old-high", "new-mid"}

    def test_eviction_victim_is_youngest_of_lowest_band(self):
        queue = AdmissionQueue(2)
        queue.offer(record("older", priority=0, seq=1))
        queue.offer(record("younger", priority=0, seq=2))
        queue.offer(record("vip", priority=5, seq=3))
        assert [r.spec.job_id for r in queue.shed] == ["younger"]

    def test_requeue_is_exempt_from_admission(self):
        queue = AdmissionQueue(1)
        queue.offer(record("a", seq=1))
        queue.requeue(record("retry", seq=2))
        assert len(queue) == 2
        assert not queue.shed

    def test_pop_ready_is_priority_then_fifo(self):
        queue = AdmissionQueue(8)
        queue.offer(record("low", priority=0, seq=1))
        queue.offer(record("high-old", priority=2, seq=2))
        queue.offer(record("high-new", priority=2, seq=3))
        assert queue.pop_ready(now=0.0).spec.job_id == "high-old"
        assert queue.pop_ready(now=0.0).spec.job_id == "high-new"
        assert queue.pop_ready(now=0.0).spec.job_id == "low"
        assert queue.pop_ready(now=0.0) is None

    def test_backoff_makes_a_job_ineligible_until_due(self):
        queue = AdmissionQueue(8)
        queue.offer(record("later", priority=9, seq=1, eligible_at=10.0))
        queue.offer(record("now", priority=0, seq=2))
        assert queue.peek_ready_priority(now=0.0) == 0
        assert queue.pop_ready(now=0.0).spec.job_id == "now"
        assert queue.pop_ready(now=0.0) is None
        assert queue.pop_ready(now=10.0).spec.job_id == "later"

    def test_drain_empties_the_queue(self):
        queue = AdmissionQueue(8)
        queue.offer(record("a", seq=1))
        queue.offer(record("b", seq=2))
        assert {r.spec.job_id for r in queue.drain()} == {"a", "b"}
        assert len(queue) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            AdmissionQueue(0)


# ----------------------------------------------------------------------
# JobSpec / JobRecord / batch files
# ----------------------------------------------------------------------


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(kind="sweep", app="MGRID", job_id="j-1", pages=200,
                       memory_pages=96, seed=3, multiples=(0.5, 1.5),
                       priority=2, timeout_s=30.0, max_attempts=5)
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ConfigError):
            JobSpec(kind="fry", app="EMBAR")
        with pytest.raises(ConfigError):
            JobSpec(kind="run", app="")
        with pytest.raises(ConfigError):
            JobSpec(kind="run", app="EMBAR", variant="x")
        with pytest.raises(ConfigError):
            JobSpec(kind="run", app="EMBAR", pages=-1)
        with pytest.raises(ConfigError):
            JobSpec(kind="sweep", app="EMBAR", multiples=())
        with pytest.raises(ConfigError):
            JobSpec(kind="chaos", app="EMBAR", intensities=())
        with pytest.raises(ConfigError):
            JobSpec(kind="run", app="EMBAR", timeout_s=0.0)
        with pytest.raises(ConfigError):
            JobSpec(kind="run", app="EMBAR", max_attempts=0)
        with pytest.raises(ConfigError):
            JobSpec(kind="run", app="EMBAR", faults={"nonsense": True})
        with pytest.raises(ConfigError):
            JobSpec.from_dict({"kind": "run", "app": "EMBAR", "bogus": 1})
        # Fields the kind would silently ignore.
        with pytest.raises(ConfigError):
            JobSpec(kind="sweep", app="EMBAR", faults={"seed": 1})
        with pytest.raises(ConfigError):
            JobSpec(kind="chaos", app="EMBAR", warm=True)
        with pytest.raises(ConfigError):
            JobSpec(kind="compare", app="EMBAR", variant="o")
        with pytest.raises(ConfigError):
            JobSpec(kind="sweep", app="EMBAR", variant="nofilter")

    def test_record_terminal_and_latency(self):
        rec = record("a")
        assert not rec.terminal
        assert rec.latency_s == 0.0
        rec.state = JobState.DONE
        rec.submitted_at, rec.finished_at = 10.0, 12.5
        assert rec.terminal
        assert rec.latency_s == pytest.approx(2.5)
        assert TERMINAL_STATES == {JobState.DONE, JobState.QUARANTINED,
                                   JobState.SHED}

    def test_batch_file_round_trip(self, tmp_path):
        path = tmp_path / "batch.json"
        jobs = demo_jobs(6, poison=1)
        save_jobs(path, jobs)
        assert load_jobs(path) == jobs

    def test_load_rejects_malformed_batches(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_jobs(path)
        path.write_text(json.dumps({"version": 99, "jobs": [{}]}))
        with pytest.raises(ConfigError):
            load_jobs(path)
        with pytest.raises(ConfigError):
            load_jobs(tmp_path / "missing.json")

    def test_demo_jobs_cycle_kinds_and_mark_poison(self):
        jobs = demo_jobs(8, poison=2)
        assert len(jobs) == 10
        assert {j.kind for j in jobs[:8]} == {"run", "compare", "sweep",
                                              "chaos"}
        assert all(j.app == "NO-SUCH-APP" for j in jobs[8:])
        assert demo_jobs(8, poison=2) == jobs  # deterministic
        with pytest.raises(ConfigError):
            demo_jobs(0)


# ----------------------------------------------------------------------
# FarmChaosPlan
# ----------------------------------------------------------------------


class TestFarmChaosPlan:
    def test_round_trip(self, tmp_path):
        plan = FarmChaosPlan(faults=(
            WorkerFault(on_start=2, delay_s=0.2, op="kill"),
            WorkerFault(on_start=5, delay_s=0.0, op="stall"),
        ))
        path = tmp_path / "farm.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert load_farm_plan(path) == plan

    def test_for_start(self):
        plan = default_farm_plan(kills=2, stalls=1, first_start=2, stride=3)
        assert plan.for_start(1) is None
        assert plan.for_start(2).op == "kill"
        assert plan.for_start(5).op == "kill"
        assert plan.for_start(8).op == "stall"

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkerFault(on_start=0)
        with pytest.raises(ConfigError):
            WorkerFault(on_start=1, delay_s=-0.1)
        with pytest.raises(ConfigError):
            WorkerFault(on_start=1, op="maim")
        with pytest.raises(ConfigError):
            FarmChaosPlan(faults=(WorkerFault(on_start=1),
                                  WorkerFault(on_start=1, op="stall")))
        with pytest.raises(ConfigError):
            FarmChaosPlan.from_dict({"faults": [], "version": 99})
        with pytest.raises(ConfigError):
            load_farm_plan("/no/such/plan.json")


# ----------------------------------------------------------------------
# ExitCode
# ----------------------------------------------------------------------


def test_exit_code_numbers_are_frozen():
    assert ExitCode.OK == 0
    assert ExitCode.FAILURE == 1
    assert ExitCode.USAGE == 2
    assert ExitCode.CRASH == 3
    assert ExitCode.JOB_FAILED == 4
    # IntEnum: usable directly as a process exit status.
    assert isinstance(ExitCode.OK, int)
