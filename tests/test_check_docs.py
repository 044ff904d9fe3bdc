"""The docs/observability.md lint, run as part of the suite.

``scripts/check_docs.py`` cross-checks the doc's event-kind and metric
reference tables against ``repro.obs``; these tests run the same check
under pytest (so CI catches drift either way) and pin the parser's
behaviour.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    path = REPO_ROOT / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_match_code(check_docs):
    assert check_docs.check() == []


def test_parser_finds_all_tables(check_docs):
    tokens = check_docs.documented_tokens()
    assert "fault" in tokens["kinds"]
    assert "disk_request" in tokens["kinds"]
    assert "stall_frame_wait" in tokens["kinds"]
    assert "time.elapsed_us" in tokens["metrics"]
    assert "obs.stall_latency_us" in tokens["metrics"]
    assert "obs.disk_idle_fraction" in tokens["metrics"]
    assert "used_stall" in tokens["span_states"]
    assert "issued" in tokens["span_states"]
    assert "prefetch_too_late" in tokens["stall_causes"]
    assert "fault_injected" in tokens["stall_causes"]


def test_lint_catches_drift(check_docs, tmp_path):
    """Removing a documented row or inventing one must fail the lint."""
    doc = (REPO_ROOT / "docs" / "observability.md").read_text()
    mutated = tmp_path / "observability.md"

    mutated.write_text(doc.replace("| `fault` |", "| `fault_renamed` |"))
    problems = check_docs.check(mutated)
    assert any("fault_renamed" in p for p in problems)
    assert any("'fault'" in p for p in problems)

    mutated.write_text(
        doc.replace("| `time.elapsed_us` |", "| `time.bogus_us` |")
    )
    problems = check_docs.check(mutated)
    assert any("time.bogus_us" in p for p in problems)

    mutated.write_text(doc.replace("| `used_stall` |", "| `used_wrong` |"))
    problems = check_docs.check(mutated)
    assert any("used_wrong" in p for p in problems)
    assert any("'used_stall'" in p for p in problems)

    mutated.write_text(
        doc.replace("| `prefetch_too_late` |", "| `too_late_renamed` |")
    )
    problems = check_docs.check(mutated)
    assert any("too_late_renamed" in p for p in problems)


def test_bench_profile_table_matches_registry(check_docs):
    from repro.harness.bench import BENCH_PROFILES

    assert check_docs.documented_bench_profiles() == set(BENCH_PROFILES)


def test_lint_catches_bench_profile_drift(check_docs, tmp_path):
    """The performance.md bench-profile table is linted both ways."""
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    mutated = tmp_path / "performance.md"

    # A documented profile the harness does not have.
    mutated.write_text(doc.replace("| `smoke` |", "| `smoke_renamed` |"))
    problems = check_docs.check(performance_doc_path=mutated)
    assert any("smoke_renamed" in p for p in problems)
    assert any("'smoke'" in p for p in problems)

    # A harness profile missing from the doc.
    mutated.write_text(doc.replace("| `table3` |", "| not-a-row |"))
    problems = check_docs.check(performance_doc_path=mutated)
    assert any("'table3'" in p and "not documented" in p for p in problems)


def test_lint_catches_flag_group_drift(check_docs, tmp_path):
    """The README's flag-group list must match the parser both ways."""
    readme = (REPO_ROOT / "README.md").read_text()
    mutated = tmp_path / "README.md"
    line = "- `--variant`: run, trace, explain, profile, chaos"
    assert line in readme

    mutated.write_text(readme.replace(line, line[:-len(", chaos")]))
    problems = check_docs.check(flag_doc_paths=(mutated,))
    assert any("stale" in p and "--variant" in p for p in problems)
    assert any("not listed" in p and "--variant" in p for p in problems)
