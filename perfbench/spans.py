"""Per-layer host time, measured from outside the simulator.

The benchmark never patches the simulator's source.  Before ``run()`` it
replaces public entry points on the *instances* of one built simulator with
wrappers that time every call (:func:`instrument`).  A stack of open spans
gives each span its self time: its duration minus the part its child spans
cover.  The self times of all spans therefore add up to the wall time of the
root spans (``scenario.build`` and ``sim.run``).

Aggregates per span name stay in memory for the whole benchmark run, plus the
raw spans of a bounded prefix of each simulation; the benchmark writes them
out (:meth:`Tracer.to_dict`) when it ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Tuple

#: Raw spans kept from the start of each simulation.
RAW_SPANS_PER_SIMULATION = 2000


class LayerStat:
    """Calls, inclusive seconds and self seconds of one span name."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span stack plus per-name aggregates for any number of simulations."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {}
        #: Child seconds accumulated so far by each open span, innermost last.
        self._open: List[float] = []
        self._raw_left = 0
        self._simulation = -1
        #: ``(simulation, name, depth, start, end)`` of the recorded prefix.
        self.raw: List[Tuple[int, str, int, float, float]] = []

    def begin_simulation(self) -> None:
        """Start a new simulation's bounded prefix of raw spans."""
        self._simulation += 1
        self._raw_left = RAW_SPANS_PER_SIMULATION

    def stat(self, name: str) -> LayerStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = LayerStat()
        return stat

    def _close(self, name: str, stat: LayerStat, start: float, end: float) -> None:
        elapsed = end - start
        open_spans = self._open
        children = open_spans.pop()
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - children
        if open_spans:
            open_spans[-1] += elapsed
        if self._raw_left:
            self._raw_left -= 1
            self.raw.append((self._simulation, name, len(open_spans), start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stat = self.stat(name)
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, stat, start, time.perf_counter())

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``."""
        inner = getattr(obj, attr)
        stat = self.stat(name)
        open_spans = self._open
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                close(name, stat, start, clock())

        setattr(obj, attr, traced)

    def wrap_iter(self, obj: object, attr: str, name: str) -> None:
        """Time every ``next()`` on the iterators ``obj.attr(...)`` returns."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            return self._timed(inner(*args, **kwargs), name)

        setattr(obj, attr, traced)

    def _timed(self, iterable: Iterable, name: str) -> Iterator:
        step = iter(iterable).__next__
        stat = self.stat(name)
        open_spans = self._open
        clock = time.perf_counter
        close = self._close
        while True:
            open_spans.append(0.0)
            start = clock()
            try:
                item = step()
            except StopIteration:
                close(name, stat, start, clock())
                return
            close(name, stat, start, clock())
            yield item

    def self_seconds(self) -> float:
        """Sum of every span's self time: the wall time of the root spans."""
        return sum(stat.self_s for stat in self.stats.values())

    def to_dict(self) -> Dict[str, object]:
        """The aggregates and the raw span prefix, JSON-ready."""
        return {
            "layers": {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                       for name, s in sorted(self.stats.items())},
            "raw_spans": [{"simulation": sim, "name": name, "depth": depth,
                           "start": start, "end": end}
                          for sim, name, depth, start, end in self.raw],
        }


def instrument(tracer: Tracer, sim) -> None:
    """Wrap every layer entry point of one built (single- or multi-core) simulator.

    Span names use the module as the layer.  Each object is wrapped once,
    even where several handles lead to it (the walker a backend and a
    Victima controller share, for example).
    """
    wrapped = set()

    def once(obj, attr: str, name: str, wrap=tracer.wrap) -> None:
        if obj is None or (id(obj), attr) in wrapped:
            return
        wrapped.add((id(obj), attr))
        wrap(obj, attr, name)

    once(sim, "run", "sim.run")
    once(sim, "prefault", "sim.prefault")
    system = sim.system
    nested = getattr(system, "nested_walker", None)
    once(system.memory_manager, "prefault_range", "memory.prefault_range")
    if nested is not None:
        once(nested.host_vmm, "prefault_range", "memory.prefault_range")
        once(nested, "walk", "virt.nested_walk")
    once(getattr(system, "backend", None), "warm_start", "backends.warm_start")

    for core in getattr(system, "cores", None) or [system]:
        mmu = core.mmu
        # Virtualized MMUs have no translate_data fast path.
        once(mmu, "translate_data" if hasattr(mmu, "translate_data") else "translate",
             "mmu.translate")
        once(mmu.backend, "translate", "backends.translate")
        for walker in (core.walker, getattr(mmu.backend, "walker", None),
                       getattr(mmu.backend, "shadow_walker", None)):
            once(walker, "walk", "mmu.walk")
        once(core.hierarchy, "access", "cache.access")
        once(core.hierarchy, "access_for_ptw", "cache.ptw_access")

    workloads = getattr(sim, "core_workloads", None) or [sim.workload]
    for workload in workloads:
        if workload is None:
            continue
        once(workload, "bounded_batches", "workloads.gen", tracer.wrap_iter)
        if sim.sampling is not None:
            # Sampled loops pull references from generate() directly; the
            # batched form is then never used, so the two spans never nest.
            once(workload, "generate", "workloads.gen", tracer.wrap_iter)
        once(workload, "fast_forward", "workloads.fast_forward")
