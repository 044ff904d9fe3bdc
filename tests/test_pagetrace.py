"""Tests for the page-trace analytics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.registry import get_app
from repro.core.ir.builder import ProgramBuilder, loop, read, work, write
from repro.core.ir.expr import Var
from repro.errors import ExecutionError
from repro.interp.pagetrace import (
    lru_miss_counts,
    page_trace,
    reuse_distances,
    reuse_distances_naive,
)


def stream_program(n=4 * 512):
    b = ProgramBuilder("stream")
    x = b.array("x", (n,), elem_size=8)
    b.append(loop("i", 0, n, [work([read(x, Var("i"))], 1.0)]))
    return b.build()


class TestPageTrace:
    def test_sequential_stream_pages(self):
        trace = page_trace(stream_program(4 * 512))
        # 4 pages, visited once each after collapsing.
        assert len(trace) == 4
        assert list(trace) == sorted(set(trace))

    def test_collapse_off_keeps_every_access(self):
        trace = page_trace(stream_program(2 * 512), collapse=False)
        assert len(trace) == 2 * 512

    def test_two_arrays_use_disjoint_pages(self):
        b = ProgramBuilder("two")
        x = b.array("x", (512,), elem_size=8)
        y = b.array("y", (512,), elem_size=8)
        i = Var("i")
        b.append(loop("i", 0, 512, [work([read(x, i), write(y, i)], 1.0)]))
        trace = page_trace(b.build())
        assert len(set(trace)) == 2

    def test_empty_program(self):
        b = ProgramBuilder("empty")
        b.array("x", (512,), elem_size=8)
        assert len(page_trace(b.build())) == 0


class TestReuseDistances:
    def test_cold_references(self):
        assert list(reuse_distances([1, 2, 3])) == [-1, -1, -1]

    def test_immediate_reuse(self):
        assert list(reuse_distances([1, 1])) == [-1, 0]

    def test_classic_example(self):
        # a b c a : 'a' has two distinct pages (b, c) in between.
        assert list(reuse_distances([1, 2, 3, 1])) == [-1, -1, -1, 2]

    def test_move_to_front(self):
        # a b a b : after the first reuse, each sees one intervening page.
        assert list(reuse_distances([1, 2, 1, 2])) == [-1, -1, 1, 1]


class TestFenwickVsNaive:
    @given(st.lists(st.integers(0, 30), max_size=400))
    def test_fenwick_matches_naive(self, trace):
        assert list(reuse_distances(trace)) == list(reuse_distances_naive(trace))

    def test_large_random_trace(self):
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 500, size=5000)
        assert list(reuse_distances(trace)) == list(reuse_distances_naive(trace))


class TestLruMissCounts:
    def test_inclusion_property(self):
        """Bigger LRU caches never miss more (Mattson inclusion)."""
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 50, size=2000)
        misses = lru_miss_counts(trace, [1, 2, 4, 8, 16, 32, 64])
        values = [misses[c] for c in sorted(misses)]
        assert values == sorted(values, reverse=True)

    def test_fits_entirely(self):
        trace = [1, 2, 3] * 10
        misses = lru_miss_counts(trace, [3])
        assert misses[3] == 3  # cold only

    def test_thrash_exactly_one_short(self):
        """Cyclic sweep over C+1 pages misses every time at capacity C."""
        trace = list(range(5)) * 10
        misses = lru_miss_counts(trace, [4])
        assert misses[4] == 50

    def test_matches_direct_simulation(self):
        """Cross-check the stack-distance method against a direct LRU."""
        rng = np.random.default_rng(7)
        trace = list(rng.integers(0, 30, size=1500))
        for cap in (4, 8, 16):
            from collections import OrderedDict

            lru: OrderedDict[int, None] = OrderedDict()
            direct = 0
            for page in trace:
                if page in lru:
                    lru.move_to_end(page)
                else:
                    direct += 1
                    lru[page] = None
                    if len(lru) > cap:
                        lru.popitem(last=False)
            assert lru_miss_counts(trace, [cap])[cap] == direct

    def test_bad_capacity(self):
        with pytest.raises(ExecutionError):
            lru_miss_counts([1], [0])

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=300),
           st.integers(1, 25))
    def test_property_matches_direct_lru(self, trace, cap):
        from collections import OrderedDict

        lru: OrderedDict[int, None] = OrderedDict()
        direct = 0
        for page in trace:
            if page in lru:
                lru.move_to_end(page)
            else:
                direct += 1
                lru[page] = None
                if len(lru) > cap:
                    lru.popitem(last=False)
        assert lru_miss_counts(trace, [cap])[cap] == direct


class TestHistogramAndApps:
    def test_buk_locality_signature(self):
        """BUK's count pages are hot (short distances); keys are streamed
        (cold every sweep at out-of-core sizes)."""
        program = get_app("BUK").make(64)
        trace = page_trace(program, limit=6_000_000)
        distances = reuse_distances(trace)
        short = np.count_nonzero((distances >= 0) & (distances < 16))
        # The indirect count accesses produce a mass of short distances.
        assert short > 0.3 * len(trace)
