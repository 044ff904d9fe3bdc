"""Nest lowering: a fused nest replays exactly like its leaves one by one.

With nothing attached that consumes individual units, the executor
lowers a whole loop nest into one chunk (``repro.interp.lower``); with a
checkpointer attached it runs the same nest leaf by leaf.  Every shape
below runs both ways and must agree bit for bit: RunStats, the page
table, the unit cursor and the dropped-hint count.  The fused run must
also really be fused (fewer chunks).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.checkpoint.runner import CheckpointConfig, Checkpointer
from repro.config import PlatformConfig
from repro.core.ir.builder import ProgramBuilder, loop, read, work, write
from repro.core.ir.expr import ElemOf, MinExpr, Var
from repro.core.ir.nodes import AddrOf, Hint, HintKind, If, Cmp
from repro.errors import ExecutionError
from repro.interp.executor import Executor, run_program
from repro.interp.lower import CHUNK_CELLS, FUSE_CELLS_PER_UNIT
from repro.machine.machine import Machine

PLATFORM = PlatformConfig(memory_pages=16)
i, j, k, s = Var("i"), Var("j"), Var("k"), Var("s")


def _page_table(machine: Machine) -> dict:
    return {
        vpage: (page.state, page.dirty, page.ref_bit, page.version,
                page.via_prefetch, page.used_since_arrival, page.arrival_us)
        for vpage, page in machine.manager.pages.items()
    }


def _run(build, per_unit: bool, prefetching: bool = True):
    machine = Machine(PLATFORM, prefetching=prefetching)
    executor = Executor(machine)
    if per_unit:
        # Never writes or crashes; its presence alone keeps units apart.
        executor.checkpointer = Checkpointer(machine, executor,
                                             CheckpointConfig())
    chunks = []
    replay = machine.run_chunk

    def counting(kinds, *args):
        chunks.append(len(kinds))
        replay(kinds, *args)

    machine.run_chunk = counting
    stats = executor.run(build())
    return {
        "stats": dataclasses.asdict(stats),
        "pages": _page_table(machine),
        "units": executor.units,
        "dropped": executor.out_of_range_hints,
    }, chunks


def _assert_fused_equals_per_unit(build, prefetching: bool = True):
    fused, fused_chunks = _run(build, per_unit=False, prefetching=prefetching)
    unit, unit_chunks = _run(build, per_unit=True, prefetching=prefetching)
    assert fused == unit
    assert len(fused_chunks) < len(unit_chunks)
    return fused, fused_chunks


def _triangular():
    b = ProgramBuilder("tri")
    a = b.array("a", (48, 48))
    v = b.array("v", (48,))
    b.append(loop("i", 0, 48, [
        Hint(HintKind.PREFETCH, AddrOf(a, (i + 1, 0)), npages=2),
        loop("j", 0, i, [work([read(a, i, j), write(v, j)], 0.3)]),
        work([write(v, i)], 0.7),
    ]))
    return b.build()


def _min_strips():
    n = 5000  # not a multiple of the strip: ragged final strip
    b = ProgramBuilder("strips")
    x = b.array("x", (n,))
    b.append(loop("s", 0, n, [
        Hint(HintKind.PREFETCH_RELEASE, AddrOf(x, (s + 512,)), npages=1,
             release_target=AddrOf(x, (s - 512,)), release_npages=1),
        loop("i", s, MinExpr(s + 64, n), [work([read(x, i)], 0.1)]),
    ], step=64))
    return b.build()


def _zero_trip():
    b = ProgramBuilder("zero")
    x = b.array("x", (64, 64))
    b.append(loop("i", 0, 30, [
        loop("j", 10, i, [work([read(x, i, j)], 0.2)]),    # empty for i <= 10
        loop("k", i, 12, [work([write(x, k, i)], 0.25)]),  # empty for i >= 12
        loop("k", 0, 3, [work([], 0.5)]),                  # pure compute
    ]))
    return b.build()


def _out_of_range_hints():
    b = ProgramBuilder("oor")
    x = b.array("x", (4096,))
    b.append(loop("i", 0, 40, [
        Hint(HintKind.PREFETCH, AddrOf(x, (i * 256 + 2048,)), npages=4),
        Hint(HintKind.RELEASE, AddrOf(x, (i * 256 - 8192,)), release_npages=2),
        loop("j", 0, 32, [work([read(x, i * 64 + j)], 0.15)]),
    ]))
    return b.build()


def _over_cap():
    # Leaves small enough to fuse, but the whole nest is several
    # CHUNK_CELLS budgets and each outer iteration alone is over one, so
    # both batching paths run.
    inner = FUSE_CELLS_PER_UNIT // 2
    rows = CHUNK_CELLS // inner + 2
    b = ProgramBuilder("cap")
    x = b.array("x", (rows * inner,))
    b.append(loop("i", 0, 2, [
        loop("j", 0, rows, [
            Hint(HintKind.PREFETCH, AddrOf(x, (j * inner + inner,)), npages=4),
            loop("k", 0, inner, [work([read(x, j * inner + k)], 0.05)]),
        ]),
    ]))
    return b.build()


def _indirect():
    rng = np.random.default_rng(7)
    b = ProgramBuilder("indirect")
    idx = b.array("idx", (400,), data=rng.integers(0, 2048, 400))
    y = b.array("y", (2048,))
    b.append(loop("i", 0, 20, [
        loop("j", 0, 20, [
            Hint(HintKind.PREFETCH,
                 AddrOf(y, (ElemOf(idx, i * 20 + j + 1, clamp=True),)),
                 npages=1),
            work([read(y, ElemOf(idx, i * 20 + j))], 0.35),
        ]),
    ]))
    return b.build()


SHAPES = {
    "triangular": _triangular,
    "min_strips": _min_strips,
    "zero_trip": _zero_trip,
    "out_of_range_hints": _out_of_range_hints,
    "over_cap": _over_cap,
    "indirect": _indirect,
}


@pytest.mark.parametrize("prefetching", [True, False], ids=["P", "O"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fused_nest_equals_per_unit(shape, prefetching):
    _assert_fused_equals_per_unit(SHAPES[shape], prefetching)


def test_out_of_range_hints_are_counted_when_fused():
    fused, _ = _assert_fused_equals_per_unit(_out_of_range_hints)
    assert fused["dropped"] > 0


def test_over_cap_nest_is_batched():
    _, chunks = _assert_fused_equals_per_unit(_over_cap)
    # Several batches, none much over the budget.
    assert len(chunks) > 2
    assert max(chunks) <= CHUNK_CELLS + FUSE_CELLS_PER_UNIT


def test_zero_trip_and_pure_compute_units_match():
    fused, _ = _assert_fused_equals_per_unit(_zero_trip)
    # 30 outer iterations: 19 + 12 non-empty leaves and 30 compute leaves.
    assert fused["units"] == 19 + 12 + 30


def test_if_keeps_the_nest_unfused():
    b = ProgramBuilder("cond")
    x = b.array("x", (512,))
    b.append(loop("i", 0, 8, [
        If(Cmp(i, "<", 4), [loop("j", 0, 8, [work([read(x, i * 8 + j)], 1.0)])]),
    ]))
    fused, fused_chunks = _run(b.build, per_unit=False)
    unit, unit_chunks = _run(b.build, per_unit=True)
    assert fused == unit
    assert len(fused_chunks) == len(unit_chunks) == 4


class TestUnboundVariable:
    """An unbound subscript variable is an ExecutionError on every path."""

    @staticmethod
    def _program(index, nested: bool = False):
        b = ProgramBuilder("unbound")
        x = b.array("x", (256,))
        body = [work([read(x, index)], 1.0)]
        if nested:
            body = [loop("j", 0, 2, [loop("i", 0, 100, body)])]
            b.append(*body)
        else:
            b.append(loop("i", 0, 100, body))
        return b.build()

    @pytest.mark.parametrize("vectorize", [True, False])
    @pytest.mark.parametrize("nested", [False, True])
    def test_affine_subscript(self, vectorize, nested):
        program = self._program(Var("i") + Var("q"), nested)
        executor = Executor(Machine(PLATFORM), vectorize=vectorize)
        with pytest.raises(ExecutionError, match="unbound variable 'q'"):
            executor.run(program)

    def test_affine_subscript_through_run_program(self):
        program = self._program(Var("i") + Var("q"))
        with pytest.raises(ExecutionError, match="unbound variable 'q'"):
            run_program(program, Machine(PLATFORM))

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_indirect_subscript(self, vectorize):
        b = ProgramBuilder("unbound")
        idx = b.array("idx", (128,), data=np.arange(128))
        x = b.array("x", (256,))
        b.append(loop("i", 0, 100, [
            work([read(x, ElemOf(idx, Var("i") + Var("q")))], 1.0),
        ]))
        executor = Executor(Machine(PLATFORM), vectorize=vectorize)
        with pytest.raises(ExecutionError, match="unbound variable 'q'"):
            executor.run(b.build())


class TestStrayLeafHints:
    """A single-page leaf hint outside its array is dropped and counted.

    The tree-walking executor clamps every hint to its array, so a hint
    wholly outside is a counted no-op; lowering must do the same rather
    than prefetch a neighbouring array's page or one backed by nothing.
    Dyadic costs keep every time sum exact, so all paths agree bit for
    bit: tree-walker or vectorized, fused or per unit, scalar chunk loop
    or vector kernel.
    """

    PLATFORM = dataclasses.replace(
        PLATFORM, cost=dataclasses.replace(PLATFORM.cost, addr_gen_us=0.5))

    @staticmethod
    def _program(offset: int):
        b = ProgramBuilder("stray")
        b.array("y", (4096,))  # mapped first: the neighbour below x
        x = b.array("x", (4096,))
        b.append(loop("k", 0, 2, [
            loop("i", 0, 512, [
                Hint(HintKind.PREFETCH, AddrOf(x, (i + offset,)), npages=1),
                work([read(x, i)], 1.0),
            ]),
        ]))
        return b.build()

    def _run(self, offset: int, vectorize: bool, per_unit: bool,
             scalar: bool) -> dict:
        machine = Machine(self.PLATFORM, scalar_chunks=scalar)
        executor = Executor(machine, vectorize=vectorize)
        if per_unit:
            executor.checkpointer = Checkpointer(machine, executor,
                                                 CheckpointConfig())
        stats = executor.run(self._program(offset))
        return {"stats": dataclasses.asdict(stats),
                "pages": _page_table(machine),
                "dropped": executor.out_of_range_hints}

    @pytest.mark.parametrize("offset,dropped", [
        (-3000, 2 * 512),  # every hint lands in the neighbouring array
        (-300, 2 * 300),   # the first 300 of each execution fall below x
        (5000, 2 * 512),   # every hint lands past the last mapped page
    ])
    def test_all_paths_agree(self, offset, dropped):
        runs = [self._run(offset, vectorize, per_unit, scalar)
                for vectorize in (True, False)
                for per_unit in (False, True)
                for scalar in (False, True)]
        assert all(run == runs[0] for run in runs[1:])
        assert runs[0]["dropped"] == dropped
        inserted = runs[0]["stats"]["prefetch"]["compiler_inserted"]
        assert inserted == 2 * 512 - dropped
