"""Per-process event streams.

A :class:`ProcessStream` walks one program's statement tree and yields a
flat sequence of machine operations, so a scheduler can interleave several
programs at event granularity.  Leaf loops go through the same vectorized
lowering as the single-process executor (`repro.interp.lower`), so the
event stream stays compact: one event per page transition, prefetch, or
release, with compute time carried on the events.

Event tuples:

* ``("event", kind, vpage, pre_cost_us)`` -- kind is a
  :mod:`repro.machine.events` int (READ/WRITE/PREFETCH/RELEASE); the
  compute time is charged before the operation.
* ``("compute", us)`` -- pure computation.
* ``("prefetch", start_vpage, npages)`` / ``("release", [vpages])`` /
  ``("prefetch_release", start, npages, [vpages])`` -- block hints from
  the scalar path, already clamped to their array's segment.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.ir.nodes import Hint, HintKind, If, Loop, Program, Stmt, Work
from repro.errors import AddressError, ExecutionError
from repro.interp.lower import Layout, lower_leaf, plan_loop
from repro.vm.page_table import AddressSpace


class ProcessStream:
    """Generates one program's machine operations, for co-scheduling."""

    def __init__(
        self,
        program: Program,
        address_space: AddressSpace,
        page_size: int,
        name: str,
        register_segment,
    ) -> None:
        """Bind the program's arrays into the *shared* address space.

        Segment names are prefixed with the process name so two processes
        (even of the same application) never collide.  ``register_segment``
        is called with ``(segment_name, base_vpage, npages)`` so the disk
        array can back each segment.
        """
        self.program = program
        self.page_size = page_size
        self.name = name
        self._segments: dict[str, tuple[int, int]] = {}
        self._strides: dict[str, tuple[int, ...]] = {}
        self._plans: dict[int, object] = {}
        params = program.params
        for arr in program.arrays:
            seg_name = f"{name}:{arr.name}"
            seg = address_space.map_segment(seg_name, arr.nbytes(params))
            register_segment(seg_name, seg.base // page_size, seg.npages)
            arr.base = seg.base
            self._segments[arr.name] = (seg.base, arr.nbytes(params))
            self._strides[arr.name] = arr.strides_elems(params)
        self._layout = Layout(page_size, self._segments, self._strides, params)

    # ------------------------------------------------------------------

    def events(self) -> Iterator[tuple]:
        yield from self._walk(self.program.body, dict(self.program.params))

    def _walk(self, body: list[Stmt], env: dict) -> Iterator[tuple]:
        for stmt in body:
            if isinstance(stmt, Work):
                if stmt.cost_us:
                    yield ("compute", stmt.cost_us)
                for ref in stmt.refs:
                    vpage = self._ref_page(ref, env)
                    yield ("event", 1 if ref.is_write else 0, vpage, 0.0)
            elif isinstance(stmt, Loop):
                yield from self._walk_loop(stmt, env)
            elif isinstance(stmt, Hint):
                op = self._resolve_hint(stmt, env)
                if op is not None:
                    yield op
            elif isinstance(stmt, If):
                branch = stmt.then_body if stmt.cond.eval(env) else stmt.else_body
                yield from self._walk(branch, env)
            else:
                raise ExecutionError(f"cannot stream statement {stmt!r}")

    def _walk_loop(self, loop: Loop, env: dict) -> Iterator[tuple]:
        lower = loop.lower.eval(env)
        upper = loop.upper.eval(env)
        if upper <= lower:
            return
        plan = plan_loop(loop, self._layout, self._plans)
        if plan is not None and plan.leaf is not None:
            if not plan.leaf.templates:
                iters = -(-(upper - lower) // loop.step)
                yield ("compute", iters * plan.leaf.iter_cost)
                return
            values = np.arange(lower, upper, loop.step, dtype=np.int64)
            chunk = lower_leaf(plan, env, values, self._layout)
            kinds = chunk.kinds.tolist()
            pages = chunk.pages.tolist()
            costs = chunk.costs.tolist()
            for k in range(len(kinds)):
                yield ("event", kinds[k], pages[k], costs[k])
            if chunk.tail:
                yield ("compute", chunk.tail)
            return
        for value in range(lower, upper, loop.step):
            env[loop.var] = value
            yield from self._walk(loop.body, env)
        del env[loop.var]

    # ------------------------------------------------------------------

    def _addr(self, array, indices, env: dict) -> int:
        strides = self._strides[array.name]
        linear = 0
        for ix, stride in zip(indices, strides):
            linear += ix.eval(env) * stride
        return array.base + linear * array.elem_size

    def _ref_page(self, ref, env: dict) -> int:
        addr = self._addr(ref.array, ref.indices, env)
        base, nbytes = self._segments[ref.array.name]
        if not base <= addr < base + nbytes:
            raise AddressError(
                f"[{self.name}] reference {ref!r} outside its segment"
            )
        return addr // self.page_size

    def _hint_pages(self, array, indices, npages: int, env: dict) -> tuple[int, int]:
        addr = self._addr(array, indices, env)
        base, nbytes = self._segments[array.name]
        first = base // self.page_size
        last = (base + nbytes - 1) // self.page_size
        start = max(addr // self.page_size, first)
        end = min(addr // self.page_size + npages - 1, last)
        if end < start:
            return 0, 0
        return start, end - start + 1

    def _resolve_hint(self, hint: Hint, env: dict) -> tuple | None:
        pf_start = pf_n = 0
        if hint.target is not None:
            npages = max(0, hint.npages.eval(env))
            pf_start, pf_n = self._hint_pages(
                hint.target.array, hint.target.indices, npages, env
            )
        rel: list[int] = []
        if hint.release_target is not None:
            rn = max(0, hint.release_npages.eval(env))
            r_start, r_n = self._hint_pages(
                hint.release_target.array, hint.release_target.indices, rn, env
            )
            rel = list(range(r_start, r_start + r_n))
        if hint.kind is HintKind.PREFETCH:
            return ("prefetch", pf_start, pf_n) if pf_n else None
        if hint.kind is HintKind.RELEASE:
            return ("release", rel) if rel else None
        if pf_n and rel:
            return ("prefetch_release", pf_start, pf_n, rel)
        if pf_n:
            return ("prefetch", pf_start, pf_n)
        if rel:
            return ("release", rel)
        return None
