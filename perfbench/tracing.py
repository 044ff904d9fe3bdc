"""Layer spans for the traced benchmark run.

The benchmark records spans from its own files: it wraps the public
callables of each layer at the place where their callers look them up,
runs the workload, and restores the originals.  Nothing in ``src/``
knows it is being traced.

Two kinds of layer boundary are recorded:

* **span** layers (compile, executor, lowering, chunk replay, checkpoint
  writes, ...) keep one record per call -- name, start, end, parent span
  and the per-run id -- in memory, written out as JSON lines when the
  run ends;
* **counted** layers (the per-event VM, run-time layer, storage and
  observer calls, millions per run) only aggregate calls and time at the
  boundary, so the trace does not grow with the event count.

Both kinds sit on one call stack, so every layer's self time (its time
minus the time its child layers cover) and the wall time no layer covers
(the residue) are exact for the traced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

perf_counter = time.perf_counter


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Workload-specific tallies (events per chunk, bytes written, ...).
    extra: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``owner`` is a dotted module path, optionally followed by ``:Class``
    for a method.  A module-level function is patched in *every* loaded
    module that binds it by name (``from x import f`` copies the binding),
    which is where its callers look it up.
    """

    layer: str
    owner: str
    attr: str
    record: bool = True
    #: ``measure(stat, args, result)`` adds workload tallies after a call.
    measure: Callable[[LayerStat, tuple, Any], None] | None = None


class Tracer:
    """Owns the span stack, the aggregate stats and the span records."""

    def __init__(self) -> None:
        # Each frame is [child_seconds, span_id]; frame 0 is the root.
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 1
        self.run_id = ""
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = 0.0

    # -- wrapping --------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stack = self._stack
        stat = self.stats.setdefault(target.layer, LayerStat())
        spans = self.spans
        record = target.record
        measure = target.measure
        layer = target.layer
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1]
                duration = end - start
                parent[0] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if record:
                    spans.append((layer, start, end, span_id, parent[1],
                                  tracer.run_id))
            if measure is not None:
                measure(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            module_name, _, cls_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(module, cls_name)
                original = owner.__dict__[target.attr]
                self._patch(owner, target.attr, self._wrap(target, original))
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap(target, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if not name.startswith("repro"):
                    continue
                if getattr(mod, target.attr, None) is original:
                    self._patch(mod, target.attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the traced interval -------------------------------------------

    def start(self) -> None:
        self._stack[:] = [[0.0, 0]]
        self._t0 = perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the traced interval; returns (wall_s, residue_s).

        The residue is the part of the wall time that no layer span
        covers: benchmark glue plus program code outside every layer.
        """
        wall = perf_counter() - self._t0
        if len(self._stack) != 1:
            raise RuntimeError("unbalanced layer spans")
        return wall, wall - self._stack[0][0]

    def stat(self, layer: str) -> LayerStat:
        return self.stats.get(layer, LayerStat())

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for layer, start, end, span_id, parent, run_id in self.spans:
                fh.write(json.dumps({
                    "name": layer, "start": start - self._t0,
                    "end": end - self._t0, "id": span_id, "parent": parent,
                    "run": run_id,
                }) + "\n")


# -- per-layer tallies ----------------------------------------------------


def sim_events(stats) -> int:
    """Simulated accesses (hits and every fault class) plus compiler
    hints (prefetched pages and release calls) of one run."""
    f = stats.faults
    return (f.hits + f.prefetched_hit + f.prefetched_fault
            + f.nonprefetched_fault + f.reclaim_fault
            + stats.prefetch.compiler_inserted + stats.release.calls)


def _add(extra: dict[str, float], key: str, value: float) -> None:
    extra[key] = extra.get(key, 0) + value


def _run_stats(stat: LayerStat, args: tuple, result: Any) -> None:
    extra = stat.extra
    _add(extra, "events", sim_events(result))
    _add(extra, "elapsed_us", result.elapsed_us)
    _add(extra, "stall_us", result.times.idle)
    _add(extra, "filtered", result.prefetch.filtered)
    _add(extra, "inserted", result.prefetch.compiler_inserted)


def _lower_events(stat: LayerStat, args: tuple, result: Any) -> None:
    _add(stat.extra, "events", len(result[0]))


def _chunk_events(stat: LayerStat, args: tuple, result: Any) -> None:
    machine, kinds = args[0], args[1]
    _add(stat.extra, "events", len(kinds))
    if len(kinds) < machine._SCALAR_CUTOFF:
        _add(stat.extra, "small", 1)


def _checkpoint_bytes(stat: LayerStat, args: tuple, result: Any) -> None:
    path = args[0].latest_path
    size = path.stat().st_size if path is not None else len(result.payload)
    _add(stat.extra, "bytes", size)


#: Counts every simulated run's events without any other span (the
#: untraced farm oracle needs the event total).
RUN_STATS = Target("interp.run", "repro.interp.executor:Executor", "run",
                   record=False, measure=_run_stats)

#: Every wrapped boundary, by layer.  Layers with ``record=False`` are
#: the per-event ones: counted at the boundary, no span records.
TARGETS: list[Target] = [
    Target("apps.make", "repro.apps.base:AppSpec", "make"),
    Target("core.compile", "repro.core.prefetch_pass", "insert_prefetches"),
    Target("interp.run", "repro.interp.executor:Executor", "run",
           measure=_run_stats),
    Target("interp.lower", "repro.interp.lower", "lower_leaf",
           measure=_lower_events),
    Target("machine.chunk", "repro.machine.machine:Machine", "run_chunk",
           measure=_chunk_events),
    *[Target("machine.slowpath", "repro.machine.machine:Machine", attr,
             record=False)
      for attr in ("access", "prefetch", "release", "prefetch_release")],
    Target("vm.access", "repro.vm.manager:MemoryManager", "access",
           record=False),
    *[Target("vm.hint", "repro.vm.manager:MemoryManager", attr, record=False)
      for attr in ("prefetch_call", "prefetch_release_call", "release_call")],
    *[Target("runtime.hint", "repro.runtime.layer:RuntimeLayer", attr,
             record=False)
      for attr in ("prefetch", "prefetch_release", "release")],
    *[Target("storage.read", "repro.storage.array_ctl:DiskArray", attr,
             record=False)
      for attr in ("read_page", "read_run")],
    Target("storage.write", "repro.storage.array_ctl:DiskArray", "write_page",
           record=False),
    Target("obs.emit", "repro.obs.observer:Observer", "emit", record=False),
    Target("checkpoint.write", "repro.checkpoint.runner:Checkpointer",
           "write_checkpoint", measure=_checkpoint_bytes),
]
