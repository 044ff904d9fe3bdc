"""The run spine: every surface turns one JobSpec into one simulation.

The CLI builds a :class:`JobSpec` from its flags and farm workers
receive one; both execute it through ``repro.harness.experiment.execute``.
These tests pin that the two surfaces agree bit for bit at the golden
footprint (``--memory-pages 96 --pages 120``).
"""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan, default_plan
from repro.harness.experiment import VARIANTS, platform_for
from repro.obs.metrics import RUN_METRIC_NAMES
from repro.obs.observer import Observer
from repro.serve.jobspec import JOB_VARIANTS, JobSpec
from repro.serve.worker import execute_job

GOLDEN = dict(app="EMBAR", memory_pages=96, pages=120)


def _metrics(path):
    with open(path) as fh:
        return {name: entry["value"]
                for name, entry in json.load(fh)["metrics"].items()
                if "value" in entry}


def _cli(capsys, argv):
    assert main(["--memory-pages", "96", *argv]) == 0
    capsys.readouterr()


def _job(tmp_path, spec, observed):
    """``execute_job`` as a farm worker runs it (telemetry on when the
    CLI command attaches an observer too)."""
    return execute_job(spec, tmp_path / "job", resume=False,
                       observer=Observer() if observed else None)


def test_variant_table_covers_job_variants():
    assert tuple(VARIANTS) == JOB_VARIANTS


def test_fault_plan_round_trips_exactly():
    plan = default_plan(platform_for(96).num_disks, seed=2)
    again = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert again == plan


@pytest.mark.parametrize("variant", JOB_VARIANTS)
def test_cli_run_equals_execute_job(tmp_path, capsys, variant):
    out = tmp_path / "metrics.json"
    _cli(capsys, ["run", "EMBAR", "--pages", "120",
                            "--variant", variant, "--metrics-out", str(out)])
    payload = _job(tmp_path, JobSpec(kind="run", variant=variant, **GOLDEN),
                   observed=True)
    cli = _metrics(out)
    assert {name: cli[name] for name in RUN_METRIC_NAMES} == payload["metrics"]


def test_cli_faulted_run_equals_execute_job(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    _cli(capsys, ["run", "EMBAR", "--pages", "120",
                            "--fault-seed", "2", "--metrics-out", str(out)])
    plan = default_plan(platform_for(96).num_disks, seed=2)
    payload = _job(tmp_path, JobSpec(kind="run", faults=plan.to_dict(),
                                     **GOLDEN), observed=True)
    cli = _metrics(out)
    assert {name: cli[name] for name in RUN_METRIC_NAMES} == payload["metrics"]


def test_cli_compare_equals_execute_job(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    _cli(capsys, ["compare", "EMBAR", "--pages", "120",
                            "--metrics-out", str(out)])
    payload = _job(tmp_path, JobSpec(kind="compare", **GOLDEN), observed=True)
    # The metrics artifact holds the observed P run.
    cli = _metrics(out)
    p_row = payload["rows"][1]
    assert p_row["variant"] == "P"
    assert cli["time.elapsed_us"] == p_row["elapsed_us"]
    assert (cli["time.stall_read_us"] + cli["time.stall_flush_us"]
            == p_row["stall_us"])


def test_cli_sweep_equals_execute_job(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    _cli(capsys, ["sweep", "EMBAR", "--multiples", "0.5,1.25",
                            "--metrics-out", str(out)])
    # Farm sweeps run unobserved; the CLI observes the final point's P.
    payload = _job(tmp_path, JobSpec(kind="sweep", app="EMBAR",
                                     memory_pages=96, multiples=(0.5, 1.25)),
                   observed=False)
    assert _metrics(out)["time.elapsed_us"] == payload["rows"][-1]["prefetch_us"]


def test_cli_chaos_equals_execute_job(tmp_path, capsys):
    out = tmp_path / "chaos.json"
    _cli(capsys, ["chaos", "EMBAR", "--pages", "120",
                            "--intensities", "0.5", "--out", str(out)])
    payload = _job(tmp_path, JobSpec(kind="chaos", intensities=(0.5,),
                                     **GOLDEN), observed=False)
    with open(out) as fh:
        assert json.load(fh) == json.loads(json.dumps(payload))
