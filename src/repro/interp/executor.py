"""The IR interpreter.

Walks a program's statement tree against a :class:`Machine`:

* work statements charge compute time and perform their accesses;
* hints go through the run-time layer (prefetch filtering) or the OS
  (releases), clamped to the target array's segment -- an address outside
  the array is a silent no-op, preserving the non-binding semantics;
* leaf loops (flat bodies of work + single-page hints) take the
  vectorized path in :mod:`repro.interp.lower`;
* with no per-unit consumer attached (no checkpointer, no observer), a
  whole loop nest without ``If`` is lowered into one chunk (or a few,
  batched by outer iteration under :data:`~repro.interp.lower.CHUNK_CELLS`)
  whose replay is bit-identical to running it leaf by leaf.

The same interpreter runs both the original and the transformed program:
the original simply contains no hints.

**Safe points and the unit cursor.**  Execution is counted in *units*:
one work statement, one hint, one vectorized leaf chunk, or one
pure-compute leaf loop.  After each live unit the executor calls the
attached checkpointer's ``at_safe_point`` hook (crash delivery and
checkpoint cadence live there, see :mod:`repro.checkpoint.runner`) --
between units no chunk is half-replayed, which is what makes a snapshot
crash-consistent.  Resume is *skip-replay*: the control flow (loop
bounds, ``If`` conditions, environment bindings) is re-walked without
touching the machine until the unit cursor passes the snapshot's
cursor, then execution goes live.  This is sound because control flow
depends only on ``env``/params, never on machine state.  When no
checkpointer is attached the instrumentation is two integer compares
per unit, and the simulated run is bit-identical either way.  A fused
nest advances the cursor by every unit it stands for, so ``units`` is
the same whichever way a run was lowered.
"""

from __future__ import annotations

import numpy as np

from repro.core.ir.nodes import Hint, HintKind, If, Loop, Program, Stmt, Work
from repro.errors import AddressError, ExecutionError
from repro.interp.lower import (
    CHUNK_CELLS, FUSE_CELLS_PER_UNIT, Layout, LoopPlan, lower_leaf, nest_size,
    plan_loop,
)
from repro.machine.machine import Machine
from repro.sim.stats import RunStats


class Executor:
    """Runs one program on one machine."""

    def __init__(
        self,
        machine: Machine,
        warm_start: bool = False,
        vectorize: bool = True,
    ) -> None:
        self.machine = machine
        self.warm_start = warm_start
        #: Disable the numpy fast path (differential testing: the scalar
        #: and vectorized executions must produce identical statistics).
        self.vectorize = vectorize
        self._segments: dict[str, tuple[int, int]] = {}
        self._strides: dict[str, tuple[int, ...]] = {}
        self._layout: Layout | None = None
        self._plans: dict[int, LoopPlan | None] = {}
        #: Lower whole nests (set per run: nothing observes units).
        self._fuse = False
        #: Hints whose addresses fell outside their array (dropped no-ops).
        self.out_of_range_hints = 0
        #: Executed-unit cursor (work stmts, hints, leaf chunks).
        self.units = 0
        #: Units to skip-replay before going live (armed on resume).
        self._skip_until = 0
        #: Safe-point hook (a repro.checkpoint.runner.Checkpointer) or None.
        self.checkpointer = None
        #: One-shot callable run after array binding (snapshot restore).
        self._resume_hook = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _bind_arrays(self, program: Program) -> None:
        params = program.params
        for arr in program.arrays:
            seg = self.machine.map_segment(arr.name, arr.nbytes(params))
            arr.base = seg.base
            self._segments[arr.name] = (seg.base, arr.nbytes(params))
            self._strides[arr.name] = arr.strides_elems(params)
            if self.warm_start:
                self.machine.warm_load_segment(seg)
        self._layout = Layout(
            self.machine.config.page_size, self._segments, self._strides,
            params, hints=self.machine.runtime is not None,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, program: Program, finish: bool = True) -> RunStats | None:
        """Execute ``program``; returns its stats when ``finish`` is set."""
        self._bind_arrays(program)
        if self._resume_hook is not None:
            # Restore the snapshot over the (deterministic) bound setup,
            # then skip-replay to its cursor inside _exec_body below.
            hook, self._resume_hook = self._resume_hook, None
            hook(self)
        # Fuse nests only when nothing consumes individual units: a
        # checkpointer needs each safe point, an observer each chunk.
        self._fuse = (self.vectorize and self.checkpointer is None
                      and self.machine.obs is None and self._skip_until == 0)
        env = dict(program.params)
        obs = self.machine.obs
        if obs is not None:
            obs.push_context(program.name)
        try:
            self._exec_body(program.body, env)
        finally:
            if obs is not None:
                obs.pop_context()
        if finish:
            return self.machine.finish()
        return None

    def _unit_done(self) -> None:
        """Close one executed unit: advance the cursor, hit the safe point."""
        self.units += 1
        if self.checkpointer is not None:
            self.checkpointer.at_safe_point(self)

    def _exec_body(self, body: list[Stmt], env: dict) -> None:
        machine = self.machine
        for stmt in body:
            if isinstance(stmt, Work):
                if self.units < self._skip_until:
                    self.units += 1
                    continue
                if stmt.cost_us:
                    machine.compute(stmt.cost_us)
                for ref in stmt.refs:
                    vpage = self._ref_page(ref, env)
                    machine.access(vpage, ref.is_write)
                self._unit_done()
            elif isinstance(stmt, Loop):
                self._exec_loop(stmt, env)
            elif isinstance(stmt, Hint):
                if self.units < self._skip_until:
                    self.units += 1
                    continue
                self._exec_hint(stmt, env)
                self._unit_done()
            elif isinstance(stmt, If):
                branch = stmt.then_body if stmt.cond.eval(env) else stmt.else_body
                self._exec_body(branch, env)
            else:
                raise ExecutionError(f"cannot execute statement {stmt!r}")

    def _exec_loop(self, loop: Loop, env: dict) -> None:
        obs = self.machine.obs
        if obs is None:
            self._exec_loop_body(loop, env)
            return
        # Label by loop variable: stable across runs (loop_id is a
        # process-global counter) and what the collapsed stacks show.
        obs.push_context(loop.var)
        try:
            self._exec_loop_body(loop, env)
        finally:
            obs.pop_context()

    def _exec_loop_body(self, loop: Loop, env: dict) -> None:
        lower = loop.lower.eval(env)
        upper = loop.upper.eval(env)
        if upper <= lower:
            return
        plan = None
        if self.vectorize:
            plan = plan_loop(loop, self._layout, self._plans)
        if plan is not None and plan.leaf is None and self._fuse:
            values = np.arange(lower, upper, loop.step, dtype=np.int64)
            if self._run_nest(plan, env, values):
                return
        if plan is not None and plan.leaf is not None:
            # Either leaf form is one unit; skip mode never lowers it.
            if self.units < self._skip_until:
                self.units += 1
                return
            if not plan.leaf.templates:
                # Pure compute: charge the whole loop in one step.
                iters = -(-(upper - lower) // loop.step)
                self.machine.compute(iters * plan.leaf.iter_cost)
                self._unit_done()
                return
            values = np.arange(lower, upper, loop.step, dtype=np.int64)
            chunk = lower_leaf(plan, env, values, self._layout)
            self.machine.run_chunk(chunk.kinds, chunk.pages, chunk.costs)
            if chunk.tail:
                self.machine.compute(chunk.tail)
            self.out_of_range_hints += chunk.dropped
            self._unit_done()
            return
        for value in range(lower, upper, loop.step):
            env[loop.var] = value
            self._exec_body(loop.body, env)
        del env[loop.var]

    def _run_nest(self, plan: LoopPlan, env: dict, values: np.ndarray) -> bool:
        """Run a whole nest as chunks of outer iterations; False (nothing
        run) if its units are too large to gain from fusing.

        Batches are cut by :data:`CHUNK_CELLS`; an outer iteration over
        the budget on its own runs statement by statement instead, which
        fuses the nests inside it.
        """
        cells, units = nest_size(plan, env, values)
        if int(cells.sum()) > FUSE_CELLS_PER_UNIT * int(units.sum()):
            return False
        machine = self.machine
        layout = self._layout
        budget = np.cumsum(cells)
        start = 0
        while start < len(values):
            used = int(budget[start - 1]) if start else 0
            stop = int(np.searchsorted(budget, used + CHUNK_CELLS, side="right"))
            if stop <= start:
                env[plan.loop.var] = int(values[start])
                self._exec_body(plan.loop.body, env)
                del env[plan.loop.var]
                start += 1
                continue
            chunk = lower_leaf(plan, env, values[start:stop], layout)
            machine.run_chunk(chunk.kinds, chunk.pages, chunk.costs, chunk.calls)
            self.units += chunk.units
            self.out_of_range_hints += chunk.dropped
            start = stop
        return True

    # ------------------------------------------------------------------
    # Addresses and hints
    # ------------------------------------------------------------------

    def _addr(self, array, indices, env: dict) -> int:
        strides = self._strides[array.name]
        linear = 0
        for ix, stride in zip(indices, strides):
            linear += ix.eval(env) * stride
        base = array.base
        if base is None:
            raise ExecutionError(f"array {array.name!r} is not bound to a segment")
        return base + linear * array.elem_size

    def _ref_page(self, ref, env: dict) -> int:
        addr = self._addr(ref.array, ref.indices, env)
        base, nbytes = self._segments[ref.array.name]
        if not base <= addr < base + nbytes:
            raise AddressError(
                f"reference {ref!r} evaluates to address {addr} outside "
                f"segment [{base}, {base + nbytes})"
            )
        return addr // self.machine.config.page_size

    def _hint_pages(self, array, indices, npages: int, env: dict) -> tuple[int, int]:
        """(start_vpage, npages) clamped to the array's segment; (0,0) if none."""
        addr = self._addr(array, indices, env)
        base, nbytes = self._segments[array.name]
        page_size = self.machine.config.page_size
        first_page = base // page_size
        last_page = (base + nbytes - 1) // page_size
        start = addr // page_size
        end = start + npages - 1
        if start < first_page:
            start = first_page
        if end > last_page:
            end = last_page
        if end < start:
            return 0, 0
        return start, end - start + 1

    def _exec_hint(self, hint: Hint, env: dict) -> None:
        machine = self.machine
        if machine.runtime is None:
            return  # non-prefetching run: hints are dead code
        pf_start = pf_n = r_start = r_n = 0
        if hint.target is not None:
            npages = max(0, hint.npages.eval(env))
            pf_start, pf_n = self._hint_pages(
                hint.target.array, hint.target.indices, npages, env
            )
        if hint.release_target is not None:
            rn = max(0, hint.release_npages.eval(env))
            r_start, r_n = self._hint_pages(
                hint.release_target.array, hint.release_target.indices, rn, env
            )
        if hint.kind is HintKind.PREFETCH:
            r_n = 0
        elif hint.kind is HintKind.RELEASE:
            pf_n = 0
        if pf_n or r_n:
            machine.hint(pf_start, pf_n, r_start, r_n)
        else:
            self.out_of_range_hints += 1


def run_program(
    program: Program,
    machine: Machine | None = None,
    warm_start: bool = False,
) -> RunStats:
    """Convenience: execute ``program`` on a fresh (or given) machine."""
    if machine is None:
        machine = Machine()
    executor = Executor(machine, warm_start=warm_start)
    stats = executor.run(program)
    assert stats is not None
    return stats
