"""Resettable statistics: one list the warm-up boundary walks.

Before this module existed, every statistics reset at the warm-up boundary
was hand-called per component (``Simulator._reset_measured_stats`` listed the
MMU, the walker, each cache level, DRAM, the pressure monitor, Victima and
the POM-TLB one by one) — exactly the class of omission behind the three
PR 5 warm-up bugs.  Now every stat-bearing component *registers itself at
construction* with the :class:`StatsRegistry` that is active while the
system factory assembles the machine, and the simulators reset the whole
machine with one ``registry.reset_all()`` call.

Contract (documented for backend authors in ``docs/backends.md``):

* A component carries :class:`ResettableStats` (or defines its own
  ``reset_stats()``) and calls :func:`register_stats_component` at the end
  of its ``__init__``.
* ``reset_stats()`` must zero *measurement* state only — configuration
  (thresholds, geometry) and *functional* state (cache contents, TLB
  entries, open DRAM rows) survive, so resetting mid-run never changes
  simulated behaviour, only what the measured window reports.
* Components whose counters must span the whole run — the
  :class:`~repro.memory.page_allocator.VirtualMemoryManager` footprint
  counters, which describe the address space rather than the measured
  window — simply never register.

Registration is scoped: outside a ``with registry.activate():`` block,
:func:`register_stats_component` is a no-op, so unit tests constructing
components directly are unaffected.

>>> from dataclasses import dataclass
>>> @dataclass
... class _Stats:
...     hits: int = 0
>>> class Counter(ResettableStats):
...     def __init__(self):
...         self.stats = _Stats()
...         self._register_stats()
>>> registry = StatsRegistry()
>>> with registry.activate():
...     counter = Counter()
>>> counter.stats.hits = 7
>>> registry.reset_all()
>>> counter.stats.hits
0
>>> outside = Counter()   # no active registry: constructible, unregistered
>>> len(registry)
1
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

__all__ = ["ResettableStats", "StatsRegistry", "register_stats_component"]

#: Stack of registries currently collecting registrations (innermost last).
_ACTIVE: List["StatsRegistry"] = []


class StatsRegistry:
    """An ordered list of components whose statistics reset together.

    The system factory (:mod:`repro.sim.system`) activates one registry for
    a machine's shared structures and one per core (for the per-core
    warm-up boundaries); the simulators call :meth:`reset_all` at the
    warm-up boundary.
    """

    def __init__(self) -> None:
        self._components: List[object] = []

    def register(self, component: object) -> None:
        """Add ``component`` (anything with ``reset_stats()``)."""
        if not hasattr(component, "reset_stats"):
            raise TypeError(
                f"{type(component).__name__} registered without a "
                "reset_stats() method")
        self._components.append(component)

    def reset_all(self) -> None:
        """Call ``reset_stats()`` on every registered component, in order."""
        for component in self._components:
            component.reset_stats()

    def components(self) -> List[object]:
        """The registered components (a copy; registration order)."""
        return list(self._components)

    def __len__(self) -> int:
        return len(self._components)

    @contextmanager
    def activate(self) -> Iterator["StatsRegistry"]:
        """Collect every :func:`register_stats_component` call in this block."""
        _ACTIVE.append(self)
        try:
            yield self
        finally:
            _ACTIVE.pop()

    @staticmethod
    def current() -> Optional["StatsRegistry"]:
        """The innermost active registry, or ``None`` outside any block."""
        return _ACTIVE[-1] if _ACTIVE else None


def register_stats_component(component: object) -> None:
    """Register ``component`` with the active registry, if any.

    Called (typically via :meth:`ResettableStats._register_stats`) at the end
    of a stat-bearing component's ``__init__``.  Outside an
    :meth:`StatsRegistry.activate` block this is a no-op, so components stay
    constructible in isolation.
    """
    registry = StatsRegistry.current()
    if registry is not None:
        registry.register(component)


class ResettableStats:
    """Mixin for components whose ``self.stats`` zeroes at warm-up boundaries.

    The default :meth:`reset_stats` re-initialises ``self.stats`` in place
    (every stats object in this codebase is a plain dataclass of counters,
    so ``stats.__init__()`` restores all defaults without changing object
    identity — callers holding a reference keep seeing the live object).
    Components with configuration mixed into their measurement state (e.g.
    :class:`~repro.common.pressure.PressureMonitor`) override it.
    """

    def _register_stats(self) -> None:
        register_stats_component(self)

    def reset_stats(self) -> None:
        """Zero measured statistics; functional state is untouched."""
        self.stats.__init__()  # type: ignore[attr-defined]
