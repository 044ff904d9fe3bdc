"""Vectorized lowering of loops into event chunks.

A *leaf* loop is one whose body is a flat sequence of work statements and
single-page hints -- exactly what the innermost loops of both the original
and the strip-mined transformed programs look like.  For such loops the
interpreter does not iterate in Python: numpy computes every reference's
page number across the whole iteration range at once, interleaves the
columns in program order, collapses consecutive same-page accesses (a run
of accesses to one page is one access plus bulk compute time -- the page
cannot leave memory while nothing else is touched), and hands the machine
one compact chunk.

A *nest* is a loop whose body holds only work statements, hints and
nests or leaves (an ``If`` anywhere disqualifies it).  :func:`lower_leaf`
lowers a whole nest into one chunk: outer iterations become an array
axis, every leaf execution is lowered as above (merging never crosses
the start of a leaf execution), and each standalone machine call the
tree-walking executor would make -- a leaf's tail compute, a work
statement's compute, a pure-compute leaf, a block or bundled hint --
becomes a *call event* (:mod:`repro.machine.events`) that flushes pending
time exactly as a chunk end does.  Work-statement references become
page events of their own, never merged, as each is its own
``Machine.access`` call.  The replay is therefore bit-identical to
running the nest leaf by leaf.

Addresses come from *affine page plans*: an affine subscript set
compiles once per run into a byte offset plus one byte coefficient per
variable (the locality analysis's affine decomposition), so a leaf's page
matrix is one integer outer product and its bounds check needs only the
two endpoints of each execution.  Indirect (``ElemOf``), ``min``/``max``
and ``ceil`` subscripts keep their expression trees, evaluated with
``eval_vec``.

This is what makes simulating hundreds of thousands of iterations per
second feasible while keeping *every* fault, prefetch, and filter decision
exact: only provably-hit events are batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from repro.core.analysis.locality import const_offset_bytes, ref_stride_bytes
from repro.core.ir.arrays import ArrayDecl
from repro.core.ir.expr import Const, Expr, affine_parts
from repro.core.ir.nodes import Hint, HintKind, Loop, Work
from repro.errors import AddressError, ExecutionError
from repro.machine.events import COMPUTE, HINT, PREFETCH, READ, RELEASE, WRITE

#: Cell budget of one fused chunk: page-matrix cells of its leaf
#: executions plus one per work statement, hint and leaf execution.  A
#: nest over it is lowered in batches of outer iterations; one leaf is
#: never split.
CHUNK_CELLS = 1 << 16
#: Fuse a nest only while it has at most this many cells per leaf
#: execution or work statement -- the executor round trips fusing saves
#: (a hint costs about the same either way).  Larger leaves already
#: amortize their per-chunk cost, and fusing them would only add
#: placement work and mid-window hints to the replay.
FUSE_CELLS_PER_UNIT = 2048

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


# ----------------------------------------------------------------------
# Leaf classification
# ----------------------------------------------------------------------


@dataclass(slots=True)
class EventTemplate:
    """One column of the chunk matrix: a ref or hint inside the leaf body."""

    kind: int
    array: ArrayDecl
    indices: tuple
    #: Compute time charged before this event (first event of the
    #: iteration carries the whole iteration's cost).
    pre_cost: float


@dataclass(slots=True)
class LeafRecipe:
    """Pre-analyzed shape of one leaf loop body."""

    templates: list[EventTemplate]
    iter_cost: float


def analyze_leaf(loop: Loop) -> LeafRecipe | None:
    """Classify a loop as leaf-vectorizable; None if it is not.

    Leaf bodies contain only :class:`Work` statements and single-page
    prefetch/release hints (the per-iteration indirect hints and the
    indirect prolog loops).  Block hints and nested loops disqualify.
    """
    templates: list[EventTemplate] = []
    iter_cost = 0.0
    pending_cost = 0.0
    for stmt in loop.body:
        if isinstance(stmt, Work):
            pending_cost += stmt.cost_us
            iter_cost += stmt.cost_us
            for ref in stmt.refs:
                templates.append(
                    EventTemplate(
                        kind=WRITE if ref.is_write else READ,
                        array=ref.array,
                        indices=ref.indices,
                        pre_cost=pending_cost,
                    )
                )
                pending_cost = 0.0
        elif isinstance(stmt, Hint):
            if stmt.kind is HintKind.PREFETCH:
                if not (isinstance(stmt.npages, Const) and stmt.npages.value == 1):
                    return None
                templates.append(
                    EventTemplate(
                        kind=PREFETCH,
                        array=stmt.target.array,
                        indices=stmt.target.indices,
                        pre_cost=pending_cost,
                    )
                )
                pending_cost = 0.0
            elif stmt.kind is HintKind.RELEASE:
                if not (
                    isinstance(stmt.release_npages, Const)
                    and stmt.release_npages.value == 1
                ):
                    return None
                templates.append(
                    EventTemplate(
                        kind=RELEASE,
                        array=stmt.release_target.array,
                        indices=stmt.release_target.indices,
                        pre_cost=pending_cost,
                    )
                )
                pending_cost = 0.0
            else:
                return None  # bundled hints take the scalar path
        else:
            return None  # nested loop or If: not a leaf
    if pending_cost and templates:
        # Trailing cost with no event to carry it: fold into the first
        # event so totals stay exact (order within an iteration does not
        # affect simulated interleaving at this granularity).
        templates[0].pre_cost += pending_cost
    return LeafRecipe(templates=templates, iter_cost=iter_cost)


# ----------------------------------------------------------------------
# Affine plans
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Layout:
    """Where one run's arrays live: everything lowering needs to know."""

    page_size: int
    #: Array name -> (base byte address, nbytes).
    segments: dict[str, tuple[int, int]]
    #: Array name -> resolved row-major element strides.
    strides: dict[str, tuple[int, ...]]
    #: The run's full parameter binding (resolves affine coefficients).
    params: Mapping[str, int] = field(default_factory=dict)
    #: Whether hint statements reach a run-time layer (dead code if not).
    hints: bool = True

    def pages(self, addr, out=None):
        """Page numbers of byte addresses (floor division)."""
        page_size = self.page_size
        if page_size & (page_size - 1) == 0:
            return np.right_shift(addr, page_size.bit_length() - 1, out=out)
        return np.floor_divide(addr, page_size, out=out)


def _lookup(env: Mapping[str, int], name: str) -> int:
    try:
        return env[name]
    except KeyError:
        raise ExecutionError(f"unbound variable {name!r}") from None


def _full(value, n: int) -> np.ndarray:
    if isinstance(value, np.ndarray) and value.ndim:
        return value.astype(np.int64, copy=False)
    return np.full(n, int(value), dtype=np.int64)


class Form:
    """An integer expression compiled for row-wise evaluation.

    Affine expressions become ``const + sum(coeff * var)``; anything
    else keeps its tree and is evaluated with ``eval_vec``.
    """

    __slots__ = ("const", "coeffs", "expr")

    def __init__(self, expr: Expr) -> None:
        parts = affine_parts(expr)
        self.expr = expr if parts is None else None
        self.const = 0 if parts is None else parts[1]
        self.coeffs = () if parts is None else tuple(sorted(parts[0].items()))

    def rows(self, env: Mapping[str, int], rvars: dict, n: int) -> np.ndarray:
        """Values over ``n`` rows; ``rvars`` binds nest variables to arrays."""
        if self.expr is not None:
            return _full(self.expr.eval_vec({**env, **rvars}, None, None), n)
        return _full(_affine_rows(self.const, self.coeffs, env, rvars), n)


def _affine_rows(const: int, coeffs, env, rvars, skip: str | None = None):
    """``const + sum(coeff * var)`` with row variables as arrays."""
    total = const
    vec = None
    for name, coeff in coeffs:
        if name == skip:
            continue
        values = rvars.get(name)
        if values is None:
            total += coeff * _lookup(env, name)
        elif vec is None:
            vec = coeff * values
        else:
            vec = vec + coeff * values
    return total if vec is None else vec + total


class AddrPlan:
    """Byte address of one subscripted reference (``ref.array[ref.indices]``).

    Affine subscripts compile to ``const + sum(coeff * var)`` bytes, base
    included, from :func:`repro.core.analysis.locality.ref_stride_bytes`
    and :func:`~repro.core.analysis.locality.const_offset_bytes` under
    the run's full parameters.  Other subscripts keep ``terms``: (index
    expression, byte stride) pairs.
    """

    __slots__ = ("array", "base", "nbytes", "const", "coeffs", "terms")

    def __init__(self, ref, layout: Layout) -> None:
        array = ref.array
        self.array = array
        self.base, self.nbytes = layout.segments[array.name]
        self.const = 0
        self.coeffs: tuple[tuple[str, int], ...] | None = None
        self.terms: tuple | None = None
        if all(affine_parts(ix) is not None for ix in ref.indices):
            params = layout.params
            names = sorted(set().union(*(ix.free_vars() for ix in ref.indices)))
            coeffs = [(name, ref_stride_bytes(ref, name, params)) for name in names]
            offset = const_offset_bytes(ref, params)
            if offset is not None and all(c is not None for _, c in coeffs):
                self.const = self.base + offset
                self.coeffs = tuple((name, c) for name, c in coeffs if c)
                return
        strides = layout.strides[array.name]
        self.terms = tuple(
            (ix, stride * array.elem_size)
            for ix, stride in zip(ref.indices, strides)
        )

    def coeff(self, name: str) -> int:
        return dict(self.coeffs).get(name, 0)

    def rows(self, env, rvars: dict, n: int, skip: str | None = None):
        """Addresses over ``n`` rows, less the ``skip`` variable's term
        (affine plans only).  A scalar when no row variable is involved."""
        if self.coeffs is not None:
            return _affine_rows(self.const, self.coeffs, env, rvars, skip)
        return self.eval(env if not rvars else {**env, **rvars}, None, None)

    def eval(self, env, var: str | None, values):
        """Addresses by ``eval_vec`` (``var`` bound to ``values``)."""
        linear = 0
        for ix, stride in self.terms:
            linear = linear + ix.eval_vec(env, var, values) * stride
        return self.base + linear

    def check(self, low, high, ref=None) -> None:
        """Raise if accesses reach [low, high] outside the segment."""
        base, end = self.base, self.base + self.nbytes
        if low < base or high >= end:
            if ref is not None:
                bad = low if low < base else high
                raise AddressError(
                    f"reference {ref!r} evaluates to address {int(bad)} outside "
                    f"segment [{base}, {end})"
                )
            raise AddressError(
                f"reference to {self.array.name!r} runs outside its segment "
                f"(addresses [{low}, {high}], segment [{base}, {end}))"
            )


@dataclass(slots=True, eq=False)
class LoopPlan:
    """One qualifying loop, compiled against a run's :class:`Layout`."""

    loop: Loop
    lower: Form
    upper: Form
    #: The leaf shape, or None for a nest.
    leaf: LeafRecipe | None
    #: One address plan per leaf column.
    addrs: list[AddrPlan] = field(default_factory=list)
    #: Nest body: WorkPlan, HintPlan and LoopPlan items.
    items: list = field(default_factory=list)
    #: The data-independent leaf columns of the longest run lowered so
    #: far (kinds, cost template, merge masks); see :func:`_leaf_columns`.
    cache: tuple | None = None
    #: Leaf columns with affine plans, those without, and the variables
    #: the latter read (see :func:`_compile_leaf`).
    affine: list = field(default_factory=list)
    generic: tuple = ()
    generic_vars: frozenset = frozenset()
    #: The loop variable's byte coefficient per affine column, and the
    #: positions in ``affine`` of the bounds-checked (access) columns.
    coef: np.ndarray = field(default_factory=lambda: _EMPTY_I)
    checked: list = field(default_factory=list)
    #: (column, first page, last page) of each single-page hint column
    #: of a run with a run-time layer: a hint outside its array is
    #: dropped (see :func:`_drop_hints`).
    hinted: list = field(default_factory=list)


@dataclass(slots=True, eq=False)
class WorkPlan:
    stmt: Work
    #: (kind, address plan, ref) per reference.
    refs: list


@dataclass(slots=True, eq=False)
class HintPlan:
    stmt: Hint
    target: AddrPlan | None
    npages: Form
    release: AddrPlan | None
    release_npages: Form


def plan_loop(loop: Loop, layout: Layout, cache: dict | None = None) -> LoopPlan | None:
    """Compile ``loop`` for lowering; None if it does not qualify.

    A loop qualifies when it is a leaf, or when its body holds only work
    statements, hints and qualifying loops.  ``cache`` (keyed by
    ``loop_id``) receives the plan of every loop compiled on the way.
    """
    if cache is not None and loop.loop_id in cache:
        return cache[loop.loop_id]
    plan = _plan_loop(loop, layout, cache)
    if cache is not None:
        cache[loop.loop_id] = plan
    return plan


def _plan_loop(loop: Loop, layout: Layout, cache: dict | None) -> LoopPlan | None:
    plan = LoopPlan(loop, Form(loop.lower), Form(loop.upper), analyze_leaf(loop))
    if plan.leaf is not None:
        _compile_leaf(plan, layout)
        return plan
    for stmt in loop.body:
        if isinstance(stmt, Work):
            plan.items.append(WorkPlan(stmt, [
                (WRITE if ref.is_write else READ, AddrPlan(ref, layout), ref)
                for ref in stmt.refs
            ]))
        elif isinstance(stmt, Hint):
            plan.items.append(HintPlan(
                stmt,
                AddrPlan(stmt.target, layout) if stmt.target is not None else None,
                Form(stmt.npages),
                (AddrPlan(stmt.release_target, layout)
                 if stmt.release_target is not None else None),
                Form(stmt.release_npages),
            ))
        elif isinstance(stmt, Loop):
            sub = plan_loop(stmt, layout, cache)
            if sub is None:
                return None
            plan.items.append(sub)
        else:
            return None
    return plan


def _compile_leaf(plan: LoopPlan, layout: Layout) -> None:
    var = plan.loop.var
    templates = plan.leaf.templates
    plan.addrs = [AddrPlan(t, layout) for t in templates]
    affine = [c for c, a in enumerate(plan.addrs) if a.coeffs is not None]
    plan.affine = affine
    plan.generic = tuple(c for c, a in enumerate(plan.addrs) if a.coeffs is None)
    plan.generic_vars = frozenset().union(
        *(ix.free_vars() for c in plan.generic for ix in templates[c].indices))
    plan.coef = np.array([plan.addrs[c].coeff(var) for c in affine], dtype=np.int64)
    # Affine columns whose accesses are bounds-checked.  A hint is
    # non-binding instead: one that falls outside its array is dropped.
    plan.checked = [k for k, c in enumerate(affine) if templates[c].kind <= WRITE]
    if layout.hints:
        plan.hinted = [
            (c, layout.pages(a.base), layout.pages(a.base + a.nbytes - 1))
            for c, a in enumerate(plan.addrs) if templates[c].kind > WRITE
        ]


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------


class Chunk(NamedTuple):
    """One lowered chunk: the arguments of ``Machine.run_chunk`` plus
    what the executor settles after the replay."""

    kinds: np.ndarray
    pages: np.ndarray
    costs: np.ndarray
    #: One (pf_start, pf_n, r_start, r_n) row per HINT event; None for
    #: a leaf's chunk, which has no call events.
    calls: np.ndarray | None
    #: Compute charged after the chunk (a single leaf's last remainder).
    tail: float
    #: Executor units the chunk stands for.
    units: int
    #: Hints that fell entirely outside their arrays (dropped no-ops).
    dropped: int


def lower_leaf(plan: LoopPlan, env: dict, values: np.ndarray,
               layout: Layout) -> Chunk:
    """Lower one execution of ``plan``'s loop over ``values`` into a chunk.

    For a leaf, the chunk holds its merged page events and ``tail`` the
    compute left after the final one -- the executor charges it after
    the replay.  For a nest, every leaf's tail and every other machine
    call are call events inside the chunk and ``tail`` is 0.
    """
    if plan.leaf is not None:
        if len(values) == 0 or not plan.leaf.templates:
            return Chunk(_EMPTY_I, _EMPTY_I, _EMPTY_F, None,
                         len(values) * plan.leaf.iter_cost,
                         int(len(values) > 0), 0)
        kinds, pages, costs, _, tails, dropped = _leaf_events(
            plan, env, {}, values, np.array([len(values)]), layout)
        return Chunk(kinds, pages, costs, None, float(tails[0]), 1, dropped)
    out = _Out()
    counts, place = _lower_loop(plan, env, {}, 1, out, layout, values)
    total = int(counts[0])
    out.kinds = np.empty(total, dtype=np.int64)
    out.pages = np.zeros(total, dtype=np.int64)
    out.costs = np.zeros(total, dtype=np.float64)
    place(np.zeros(1, dtype=np.int64))
    calls = np.empty((0, 4), dtype=np.int64)
    if out.hint_pos:
        order = np.argsort(np.concatenate(out.hint_pos), kind="stable")
        calls = np.concatenate(out.hint_args)[order]
    return Chunk(out.kinds, out.pages, out.costs, calls, 0.0, out.units,
                 out.dropped)


def nest_size(plan: LoopPlan, env: dict,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells (see :data:`CHUNK_CELLS`) and leaf executions plus work
    statements (see :data:`FUSE_CELLS_PER_UNIT`) of each outer iteration
    of a nest."""
    return _items_size(plan.items, env, {plan.loop.var: values}, len(values))


class _Out:
    """The chunk a nest lowering fills in its placement pass."""

    __slots__ = ("kinds", "pages", "costs", "hint_pos", "hint_args",
                 "units", "dropped")

    def __init__(self) -> None:
        self.hint_pos: list[np.ndarray] = []
        self.hint_args: list[np.ndarray] = []
        self.units = 0
        self.dropped = 0


def _iterations(plan: LoopPlan, lower: np.ndarray,
                trips: np.ndarray) -> np.ndarray:
    """The loop variable of every iteration, row after row."""
    step = plan.loop.step
    first = np.cumsum(trips) - trips
    values = np.arange(int(trips.sum()), dtype=np.int64)
    if step != 1:
        values *= step
    values += np.repeat(lower - first * step, trips)
    return values


def _nested_rows(plan: LoopPlan, rvars: dict, trips: np.ndarray,
                 values: np.ndarray) -> dict:
    """Row variables of the body rows: the enclosing ones repeated per
    iteration, plus the loop's own variable."""
    rows = {}
    if rvars:
        parent = np.repeat(np.arange(len(trips)), trips)
        rows = {name: a[parent] for name, a in rvars.items()}
    rows[plan.loop.var] = values
    return rows


def _trips(plan: LoopPlan, env, rvars: dict, n: int):
    """Lower bound and trip count of ``plan``'s loop in each of ``n`` rows."""
    lower = plan.lower.rows(env, rvars, n)
    upper = plan.upper.rows(env, rvars, n)
    step = plan.loop.step
    trips = (upper - lower + (step - 1)) // step
    np.maximum(trips, 0, out=trips)
    return lower, trips


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of ``values`` with the given lengths."""
    csum = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=csum[1:])
    ends = np.cumsum(lengths)
    return csum[ends] - csum[ends - lengths]


def _items_size(items: list, env, rvars: dict, n: int):
    cells = np.zeros(n, dtype=np.int64)
    units = np.zeros(n, dtype=np.int64)
    for item in items:
        if isinstance(item, WorkPlan):
            cells += 1 + len(item.refs)
            units += 1
        elif isinstance(item, HintPlan):
            cells += 1
        elif item.leaf is not None:
            trips = _trips(item, env, rvars, n)[1]
            ran = trips > 0
            cells += trips * max(1, len(item.leaf.templates)) + ran
            units += ran
        else:
            lower, trips = _trips(item, env, rvars, n)
            values = _iterations(item, lower, trips)
            inner_cells, inner_units = _items_size(
                item.items, env, _nested_rows(item, rvars, trips, values),
                len(values))
            cells += _segment_sums(inner_cells, trips)
            units += _segment_sums(inner_units, trips)
    return cells, units


def _lower_items(items: list, env, rvars: dict, n: int, out: _Out,
                 layout: Layout):
    """Lower a nest body executed in ``n`` rows.

    Returns ``(counts, place)``: events per row, and the function that
    writes them into ``out`` given each row's first chunk position.
    """
    counts = np.zeros(n, dtype=np.int64)
    parts = []
    for item in items:
        if isinstance(item, WorkPlan):
            part = _lower_work(item, env, rvars, n, out, layout)
        elif isinstance(item, HintPlan):
            part = _lower_hint(item, env, rvars, n, out, layout)
        else:
            part = _lower_loop(item, env, rvars, n, out, layout)
        if part is not None:
            counts += part[0]
            parts.append(part)

    def place(starts: np.ndarray) -> None:
        for item_counts, item_place in parts:
            item_place(starts)
            starts = starts + item_counts

    return counts, place


def _lower_work(item: WorkPlan, env, rvars, n, out: _Out, layout: Layout):
    out.units += n
    cost = item.stmt.cost_us
    columns = []
    for kind, addr, ref in item.refs:
        a = _full(addr.rows(env, rvars, n), n)
        addr.check(int(a.min()), int(a.max()), ref)
        columns.append((kind, layout.pages(a)))
    count = (1 if cost else 0) + len(columns)
    if not count:
        return None

    def place(starts: np.ndarray) -> None:
        pos = starts
        if cost:
            out.kinds[pos] = COMPUTE
            out.costs[pos] = cost
            pos = pos + 1
        for kind, pages in columns:
            out.kinds[pos] = kind
            out.pages[pos] = pages
            pos = pos + 1

    return np.full(n, count, dtype=np.int64), place


def _hint_range(addr: AddrPlan, npages: Form, env, rvars, n, layout: Layout):
    """Per-row (start, npages) of a hint clamped to its array; (0, 0) if
    none of it falls inside (the executor's ``_hint_pages``)."""
    count = np.maximum(npages.rows(env, rvars, n), 0)
    start = layout.pages(_full(addr.rows(env, rvars, n), n))
    end = start + count - 1
    np.maximum(start, layout.pages(addr.base), out=start)
    np.minimum(end, layout.pages(addr.base + addr.nbytes - 1), out=end)
    live = end >= start
    return np.where(live, start, 0), np.where(live, end - start + 1, 0)


def _lower_hint(item: HintPlan, env, rvars, n, out: _Out, layout: Layout):
    out.units += n
    if not layout.hints:
        return None  # no run-time layer: hints are dead code
    zeros = np.zeros(n, dtype=np.int64)
    pf_start = pf_n = r_start = r_n = zeros
    if item.target is not None:
        pf_start, pf_n = _hint_range(item.target, item.npages, env, rvars, n,
                                     layout)
    if item.release is not None:
        r_start, r_n = _hint_range(item.release, item.release_npages, env,
                                   rvars, n, layout)
    kind = item.stmt.kind
    if kind is HintKind.PREFETCH:
        r_n = zeros
    elif kind is HintKind.RELEASE:
        pf_n = zeros
    live = (pf_n > 0) | (r_n > 0)
    nlive = int(np.count_nonzero(live))
    out.dropped += n - nlive
    if not nlive:
        return None
    args = np.stack([pf_start, pf_n, r_start, r_n], axis=1)[live]

    def place(starts: np.ndarray) -> None:
        pos = starts[live]
        out.kinds[pos] = HINT
        out.hint_pos.append(pos)
        out.hint_args.append(args)

    return live.astype(np.int64), place


def _lower_loop(plan: LoopPlan, env, rvars: dict, n: int, out: _Out,
                layout: Layout, values: np.ndarray | None = None):
    """Lower ``plan``'s loop executed once in each of ``n`` rows (or, at
    the top of a nest, once over the given ``values``)."""
    if values is None:
        lower, trips = _trips(plan, env, rvars, n)
        values = _iterations(plan, lower, trips)
    else:
        trips = np.array([len(values)], dtype=np.int64)
    if not len(values):
        return None  # no row runs an iteration
    if plan.leaf is None:
        inner_counts, inner_place = _lower_items(
            plan.items, env, _nested_rows(plan, rvars, trips, values),
            len(values), out, layout)
        csum = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(inner_counts, out=csum[1:])
        ends = np.cumsum(trips)
        first = ends - trips

        def place(starts: np.ndarray) -> None:
            inner_place(np.repeat(starts - csum[first], trips) + csum[:-1])

        return csum[ends] - csum[first], place

    ran = trips > 0
    out.units += int(np.count_nonzero(ran))
    counts = ran.astype(np.int64)
    if not plan.leaf.templates:  # pure compute: one COMPUTE per execution
        amounts = trips[ran] * plan.leaf.iter_cost

        def place(starts: np.ndarray) -> None:
            pos = starts[ran]
            out.kinds[pos] = COMPUTE
            out.costs[pos] = amounts

        return counts, place

    runs = trips[ran]
    kinds, pages, costs, groups, tails, dropped = _leaf_events(
        plan, env, {name: a[ran] for name, a in rvars.items()}, values, runs,
        layout)
    out.dropped += dropped
    counts[ran] += groups
    first = np.cumsum(groups) - groups

    def place(starts: np.ndarray) -> None:
        begin = starts[ran]
        pos = np.repeat(begin - first, groups) + np.arange(len(kinds))
        out.kinds[pos] = kinds
        out.pages[pos] = pages
        out.costs[pos] = costs
        tail_pos = begin + groups
        out.kinds[tail_pos] = COMPUTE
        out.costs[tail_pos] = tails

    return counts, place


def _leaf_columns(plan: LoopPlan, n: int):
    """The data-independent columns of ``n`` leaf iterations.

    The interleaved kind pattern, the per-event cost template and the
    merge masks derived from kinds alone repeat every iteration, so the
    columns of ``n`` iterations are a prefix of those of any longer run:
    they are built once per plan, for the longest run seen, and sliced.
    """
    templates = plan.leaf.templates
    total = n * len(templates)
    cached = plan.cache
    if cached is None or len(cached[0]) < total:
        kinds_row = np.array([t.kind for t in templates], dtype=np.int64)
        flat_kinds = np.tile(kinds_row, n)
        flat_costs = np.tile(np.array([t.pre_cost for t in templates],
                                      dtype=np.float64), n)
        is_access = flat_kinds <= WRITE
        acc_and_prev = np.empty(total, dtype=bool)
        acc_and_prev[0] = False
        acc_and_prev[1:] = is_access[:-1] & is_access[1:]
        # Running count of writes; lets the merged-run kind be computed
        # with two gathers instead of a reduceat over the flat array (a
        # run collapses to WRITE exactly when it contains a write).
        is_write = flat_kinds == WRITE
        write_csum = np.cumsum(is_write)
        cached = plan.cache = (flat_kinds, flat_costs, acc_and_prev,
                               is_write, write_csum)
    return tuple(column[:total] for column in cached)


def _leaf_events(plan: LoopPlan, env, rvars: dict, values: np.ndarray,
                 runs: np.ndarray, layout: Layout):
    """Merged events of ``len(runs)`` executions of a leaf.

    ``values`` holds the loop variable of every iteration, execution
    after execution (``runs`` iterations each, all non-zero); ``rvars``
    binds the enclosing nest variables per execution.  Returns the
    merged ``(kinds, pages, costs)`` of all executions back to back,
    the number of events of each, each one's tail compute, and the
    number of hints dropped for falling outside their arrays.
    """
    var = plan.loop.var
    templates = plan.leaf.templates
    ncols = len(templates)
    n = len(values)
    nexec = len(runs)
    single = nexec == 1
    exec_of = None if single else np.repeat(np.arange(nexec), runs)

    affine = plan.affine
    if len(affine) == ncols:
        pages = np.multiply.outer(values, plan.coef)
    else:
        pages = np.empty((n, ncols), dtype=np.int64)
    if affine:
        # Each execution's offset per affine column, less the loop
        # variable's term: Python ints for a single execution.
        offs = [plan.addrs[c].rows(env, rvars, nexec, skip=var) for c in affine]
        if single:
            offs = [int(o[0]) if isinstance(o, np.ndarray) else int(o)
                    for o in offs]
        else:
            offs = np.stack([_full(o, nexec) for o in offs], axis=1)
        # Addresses are monotone in the loop variable within an
        # execution: its two endpoints bound the whole stream.
        if single:
            first, last = int(values[0]), int(values[-1])
            for k in plan.checked:
                coeff = int(plan.coef[k])
                ends = (offs[k] + coeff * first, offs[k] + coeff * last)
                plan.addrs[affine[k]].check(min(ends), max(ends))
        elif plan.checked:
            starts = np.cumsum(runs) - runs
            coef = plan.coef[plan.checked]
            lo = offs[:, plan.checked] + np.multiply.outer(values[starts], coef)
            hi = (offs[:, plan.checked]
                  + np.multiply.outer(values[starts + runs - 1], coef))
            low = np.minimum(lo, hi).min(axis=0)
            high = np.maximum(lo, hi).max(axis=0)
            for k, col in enumerate(plan.checked):
                plan.addrs[affine[col]].check(int(low[k]), int(high[k]))
        if len(affine) == ncols:
            if single:
                pages += np.array(offs, dtype=np.int64)
            elif runs.min() == runs.max():
                # Rectangular: broadcast each execution's offsets.
                pages.reshape(nexec, -1, ncols)[:] += offs[:, None, :]
            else:
                pages += offs[exec_of]
            layout.pages(pages, out=pages)
        else:
            # Column by column, in place: no page-matrix temporaries.
            for k, c in enumerate(affine):
                column = pages[:, c]
                np.multiply(values, plan.coef[k], out=column)
                column += offs[k] if single else offs[exec_of, k]
                layout.pages(column, out=column)
    if plan.generic:
        venv = dict(env)
        for name in plan.generic_vars:
            a = rvars.get(name)
            if a is not None:
                venv[name] = a[0] if single else a[exec_of]
        for c in plan.generic:
            addr = plan.addrs[c].eval(venv, var, values)
            if templates[c].kind <= WRITE:
                low = addr.min() if isinstance(addr, np.ndarray) else addr
                high = addr.max() if isinstance(addr, np.ndarray) else addr
                plan.addrs[c].check(low, high)
            if isinstance(addr, np.ndarray):
                layout.pages(addr, out=pages[:, c])
            else:
                pages[:, c] = layout.pages(addr)

    gone = _stray_hints(plan, pages, runs)

    flat_kinds, flat_costs, acc_and_prev, is_write, write_csum = \
        _leaf_columns(plan, n)
    flat_pages = pages.reshape(-1)
    total = n * ncols

    # Collapse consecutive same-page access runs.  Hints never collapse
    # (each must reach the filter), an access never merges across a
    # hint boundary, and no run crosses the start of an execution.
    mergeable = np.empty(total, dtype=bool)
    mergeable[0] = False
    np.equal(flat_pages[1:], flat_pages[:-1], out=mergeable[1:])
    mergeable &= acc_and_prev
    if not single:
        exec_cells = (np.cumsum(runs) - runs) * ncols
        mergeable[exec_cells] = False
    starts = (~mergeable).nonzero()[0]
    ngroups = len(starts)

    if ngroups == total:
        # No merges at all: the flat columns *are* the events.  The
        # cached kinds/costs arrays are returned directly -- every
        # consumer treats them as read-only -- and every run's
        # remainder is zero, so there are no tails.
        events = (flat_kinds, flat_pages, flat_costs, runs * ncols,
                  np.zeros(nexec, dtype=np.float64))
        return _drop_hints(*events, gone) if gone is not None else events + (0,)

    group_pages = flat_pages[starts]
    # A merged run's kind: WRITE if the run contains any write, else the
    # run's first kind (hints never merge, so a hint run is a singleton
    # and keeps its own kind).  Counting writes per run from the cached
    # running sum is exact integer math.
    ends1 = np.empty(ngroups, dtype=np.int64)
    np.subtract(starts[1:], 1, out=ends1[:-1])
    ends1[-1] = total - 1
    run_writes = write_csum[ends1] - write_csum[starts] + is_write[starts]
    group_kinds = np.where(run_writes > 0, WRITE, flat_kinds[starts])
    # Cost attribution must preserve event timing: only the compute that
    # precedes a run's *first* access happens before the merged event; the
    # rest of the run's compute happens after it (before the next event of
    # the same execution), and each execution's final remainder is its
    # tail, charged after its events.  ``reduceat`` sums every run the
    # same way wherever it sits, so a run costs the same bits whether its
    # execution is lowered alone or inside a nest.
    first_costs = flat_costs[starts]
    remainders = np.add.reduceat(flat_costs, starts) - first_costs
    if single:
        groups = np.array([ngroups])
        tails = remainders[-1:]
    else:
        # Execution starts are run starts: where each one's runs begin.
        gfirst = np.searchsorted(starts, exec_cells)
        groups = np.diff(gfirst, append=ngroups)
        last = gfirst + groups - 1
        tails = remainders[last]
        remainders[last] = 0.0
    costs = first_costs
    costs[1:] += remainders[:-1]
    events = (group_kinds, group_pages, costs, groups, tails)
    if gone is None:
        return events + (0,)
    # A hint never merges, so each stray hint starts a run of its own.
    return _drop_hints(*events, gone[starts])


def _stray_hints(plan: LoopPlan, pages: np.ndarray,
                 runs: np.ndarray) -> np.ndarray | None:
    """Flat mask of the hint cells whose page lies outside their array,
    or None when every hint is in range (the usual case).

    An affine column is monotone within an execution, so its first and
    last rows bound it; other columns take a min/max.
    """
    if not plan.hinted:
        return None
    gone = None
    ends = np.cumsum(runs)
    rows = np.concatenate((ends - runs, ends - 1))
    for c, first, last in plan.hinted:
        column = pages[:, c]
        probe = column[rows] if c in plan.affine else column
        if probe.min() >= first and probe.max() <= last:
            continue
        if gone is None:
            gone = np.zeros(pages.shape, dtype=bool)
        gone[:, c] = (column < first) | (column > last)
    return None if gone is None else gone.reshape(-1)


def _drop_hints(kinds, pages, costs, groups, tails, gone):
    """Remove the ``gone`` hint events, as the tree-walking executor
    drops a hint that falls outside its array.

    A dropped event's compute moves to the next surviving event of its
    execution, or to the execution's tail when none survives; each
    such run is summed by itself, so the bits do not depend on where
    the execution sits in the chunk.  Returns the surviving events,
    the new per-execution counts and tails, and the dropped count.
    """
    nevents = len(kinds)
    exec_of = np.repeat(np.arange(len(groups)), groups)
    ends = np.repeat(np.cumsum(groups), groups)
    keep = ~gone
    # The event each one's compute moves to: itself if kept, else the
    # next kept event of its execution, else (the tail) its execution's
    # last event, which is then a dropped one.
    owner = np.where(keep, np.arange(nevents), nevents)
    owner = np.minimum.accumulate(owner[::-1])[::-1]
    owner = np.where(owner < ends, owner, ends - 1)
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    sums = np.add.reduceat(costs, first)
    owners = owner[first]
    to_event = keep[owners]
    costs = costs.copy()
    costs[owners[to_event]] = sums[to_event]
    tails = tails.copy()
    tails[exec_of[owners[~to_event]]] += sums[~to_event]
    groups = groups - np.bincount(exec_of[gone], minlength=len(groups))
    return (kinds[keep], pages[keep], costs[keep], groups, tails,
            int(np.count_nonzero(gone)))
