"""The :class:`TranslationBackend` interface and the :class:`BuildContext`.

A *translation backend* is the structure (or structure combination) that
resolves an L2 TLB miss — the part of the machine the paper's comparison
matrix varies while everything above it (L1/L2 TLBs, caches, workloads) stays
fixed.  The MMU (:class:`repro.mmu.mmu.MMU`, native and virtualized alike)
dispatches every L2 TLB miss to ``backend.translate(...)`` instead of
branching over hard-wired ``victima``/``l3_tlb``/``pom_tlb`` attributes.
One backend class serves a mechanism on both kinds of machine: what differs
is the walker its build hook receives (:class:`BuildContext`).

The protocol (see ``docs/backends.md`` for the worked tutorial):

``translate``
    Resolve one L2-TLB-missing address; returns a :class:`MissResolution`.
``warm_start``
    Pre-populate from the page table before the region of interest
    (structures that are warm there); the default does nothing.
``invalidate_page`` / ``invalidate_asid`` / ``invalidate_all``
    TLB-maintenance hooks (shootdowns, context switches), called only on
    backends with neither a Victima controller nor an L3 TLB (maintenance
    reaches those two directly).  Backends without invalidatable state
    inherit the no-ops.
``reset_stats``
    The :class:`~repro.common.stats.ResettableStats` contract; backends own
    no counters themselves (their structures register individually), so the
    default is a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

from repro.common.stats import ResettableStats
from repro.memory.page_table import PageTableEntry
from repro.mmu.mmu import ServedBy


@dataclass
class BuildContext:
    """What the system factory hands a backend spec's build hooks.

    ``build`` gets one context per core.  Its ``walker`` resolves the core's
    L2 TLB misses by walking ``page_table``: natively the core's radix walker
    over the process's table, on a virtualized machine the machine's nested
    walker over the guest's table.  Both walkers take
    ``walk(page_table, vaddr)`` and return a result with ``pte``, ``latency``
    and ``breakdown``.  Structures that hold the TLBs' own entries (Victima's
    TLB blocks, ideal shadow paging) also get that table as ``tlb_table``, a
    one-dimensional walker over it as ``tlb_walker`` and, on a virtualized
    machine, the host's table as ``host_page_table``; natively the first two
    are ``page_table`` and ``walker``, and the last is ``None``.

    ``shared`` carries the structure the spec's ``build_shared`` hook built
    once for the machine (e.g. the in-memory POM-TLB), or ``None``.  That
    hook runs before any core exists, so its context holds only ``config``
    and ``physical``; each core's backend passes its own hierarchy to the
    shared structure on every probe.
    """

    config: object                    # SystemConfig
    physical: object                  # PhysicalMemory (the host's, if virtualized)
    core_id: Optional[int] = None
    hierarchy: object = None          # CacheHierarchy (this core's)
    pressure: object = None           # PressureMonitor (this core's)
    walker: object = None             # resolves this core's L2 TLB misses
    page_table: object = None         # the table ``walker`` walks
    tlb_table: object = None          # the table whose entries the TLBs cache
    tlb_walker: object = None         # a one-dimensional walker over ``tlb_table``
    host_page_table: object = None    # the host's table (virtualized only)
    shared: Optional[object] = None


class MissResolution(NamedTuple):
    """What a backend reports for one resolved L2 TLB miss.

    The MMU keeps the accounting: it counts the miss under its
    ``served_by`` source (its ``page_walks`` count ``ServedBy.PAGE_WALK``)
    and adds ``latency`` and ``breakdown`` to its miss-latency totals.  The
    walkers count their own walks, host and shadow walks included.
    """

    served_by: ServedBy
    pte: PageTableEntry
    latency: int
    breakdown: Dict[str, int]


class TranslationBackend(ResettableStats):
    """Base class every registered translation backend derives from.

    Subclasses implement :meth:`translate`; everything else has a safe
    default.  The ``victima`` / ``pom_tlb`` / ``l3_tlb`` attributes expose
    the underlying structures (``None`` when absent) so the system factory,
    result collection and TLB maintenance keep their historical shapes.
    """

    #: Registry name (set by the registry when the spec builds the backend).
    name: str = ""

    victima = None
    pom_tlb = None
    l3_tlb = None

    # -- translation --------------------------------------------------- #
    def translate(self, vaddr: int, asid: int) -> MissResolution:
        """Resolve an L2 TLB miss for ``vaddr`` in address space ``asid``."""
        raise NotImplementedError

    # -- population ---------------------------------------------------- #
    def warm_start(self, page_table) -> None:
        """Pre-populate from every mapped translation before the region of
        interest.  Structures that accumulate translations over a process
        lifetime (the POM-TLB, the hashed page table) override this;
        probe-on-demand backends stay cold."""

    # -- invalidation (TLB maintenance) -------------------------------- #
    def invalidate_page(self, vaddr: int, asid: int) -> int:
        """Invalidate one page; returns the number of entries/blocks dropped."""
        return 0

    def invalidate_asid(self, asid: int) -> int:
        """Invalidate one address space; returns the number dropped."""
        return 0

    def invalidate_all(self) -> int:
        """Invalidate everything; returns the number dropped."""
        return 0

    # -- hooks ---------------------------------------------------------- #
    def on_l2_tlb_eviction(self, evicted) -> None:
        """Called when the L2 TLB evicts an entry (Victima's insertion
        trigger); no-op for every other backend."""

    # -- bookkeeping ---------------------------------------------------- #
    def reset_stats(self) -> None:
        """Backends hold no counters of their own; their structures
        (POM-TLB, Victima controller, ...) register individually."""
