"""Page-reference trace extraction and locality analytics.

Research companions to the simulator: extract a program's page-reference
trace (work accesses only, at page granularity) and compute the classic
locality curves -- reuse/stack distances and, from one distance pass,
LRU miss counts across capacities.

These are the tools one uses to *choose* experiment scales: the paper's
"~2x memory" out-of-core operating point is exactly the knee these curves
expose (see ``examples``/``benchmarks``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.core.ir.nodes import Program
from repro.errors import ExecutionError
from repro.interp.tracing import access_trace

DEFAULT_PAGE_SIZE = 4096


def page_trace(
    program: Program,
    page_size: int = DEFAULT_PAGE_SIZE,
    limit: int | None = 8_000_000,
    collapse: bool = True,
) -> np.ndarray:
    """The program's ordered page-reference string.

    Pages are global (array segments laid out back to back, page-aligned,
    in declaration order).  With ``collapse`` (the default), consecutive
    repeats are merged -- they are guaranteed hits under every
    demand-paging policy and only inflate the trace.
    """
    strides: Mapping[str, tuple[int, ...]] = {}
    bases: dict[str, int] = {}
    next_page = 0
    for arr in program.arrays:
        bases[arr.name] = next_page * page_size
        next_page += -(-arr.nbytes(program.params) // page_size) + 1
    entries = access_trace(program, limit=limit)
    if not entries:
        return np.empty(0, dtype=np.int64)
    elem_sizes = {arr.name: arr.elem_size for arr in program.arrays}
    pages = np.fromiter(
        (
            (bases[name] + index * elem_sizes[name]) // page_size
            for name, index, _ in entries
        ),
        dtype=np.int64,
        count=len(entries),
    )
    if collapse and len(pages) > 1:
        keep = np.empty(len(pages), dtype=bool)
        keep[0] = True
        keep[1:] = pages[1:] != pages[:-1]
        pages = pages[keep]
    return pages


class _FenwickTree:
    """Prefix-sum tree over trace positions (for stack distances)."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self.size:
            self.tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries in [0, index]."""
        index += 1
        total = 0
        while index > 0:
            total += self.tree[index]
            index -= index & (-index)
        return total


def reuse_distances(trace: Sequence[int]) -> np.ndarray:
    """LRU stack distance of every reference (-1 for cold references).

    The distance of a reference is the number of *distinct* pages touched
    since its page was last touched.  Computed with the textbook
    Fenwick-tree algorithm in O(N log N): keep a 1 at each page's most
    recent position; the distance at position i for a page last seen at
    position j is the number of ones in (j, i).
    """
    n = len(trace)
    out = np.empty(n, dtype=np.int64)
    tree = _FenwickTree(n)
    last_pos: dict[int, int] = {}
    for i, page in enumerate(trace):
        prev = last_pos.get(page)
        if prev is None:
            out[i] = -1
        else:
            # Ones strictly between prev and i = distinct pages touched
            # since (each page contributes only its latest position).
            out[i] = tree.prefix_sum(i - 1) - tree.prefix_sum(prev)
            tree.add(prev, -1)
        tree.add(i, 1)
        last_pos[page] = i
    return out


def reuse_distances_naive(trace: Sequence[int]) -> np.ndarray:
    """Reference implementation (move-to-front list, O(N*depth)).

    Kept as the oracle for differential tests of the Fenwick version.
    """
    stack: OrderedDict[int, None] = OrderedDict()
    out = np.empty(len(trace), dtype=np.int64)
    for i, page in enumerate(trace):
        if page in stack:
            depth = 0
            for key in reversed(stack):
                if key == page:
                    break
                depth += 1
            out[i] = depth
            stack.move_to_end(page)
        else:
            out[i] = -1
            stack[page] = None
    return out


def lru_miss_counts(
    trace: Sequence[int], capacities: Sequence[int]
) -> dict[int, int]:
    """Misses under LRU for every capacity, from one distance pass.

    Mattson's inclusion property: a reference misses in an LRU cache of
    capacity C iff its stack distance is >= C (cold references miss
    everywhere).
    """
    for cap in capacities:
        if cap <= 0:
            raise ExecutionError(f"capacity must be positive, got {cap}")
    distances = reuse_distances(trace)
    cold = int(np.count_nonzero(distances < 0))
    warm = distances[distances >= 0]
    return {
        cap: cold + int(np.count_nonzero(warm >= cap)) for cap in capacities
    }
