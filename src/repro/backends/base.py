"""The :class:`TranslationBackend` interface.

A *translation backend* is the structure (or structure combination) that
resolves an L2 TLB miss — the part of the machine the paper's comparison
matrix varies while everything above it (L1/L2 TLBs, caches, workloads) stays
fixed.  The MMU (:class:`repro.mmu.mmu.MMU`, native and virtualized alike)
dispatches every L2 TLB miss to ``backend.translate(...)`` instead of
branching over hard-wired ``victima``/``l3_tlb``/``pom_tlb`` attributes.

The protocol (see ``docs/backends.md`` for the worked tutorial):

``translate``
    Resolve one L2-TLB-missing address; returns a :class:`MissResolution`.
``install`` / ``warm_start``
    Insert one already-walked translation, and pre-populate from the page
    table before the region of interest (structures that are warm there).
``invalidate_page`` / ``invalidate_asid`` / ``invalidate_all``
    TLB-maintenance hooks (shootdowns, context switches).  Backends without
    invalidatable state inherit the no-ops.
``reset_stats``
    The :class:`~repro.common.stats.ResettableStats` contract; backends own
    no counters themselves (their structures register individually), so the
    default is a no-op.
``describe``
    One human-readable line for ``repro backends list`` and the registry.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from repro.common.stats import ResettableStats
from repro.memory.page_table import PageTableEntry
from repro.mmu.mmu import ServedBy


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
    def install(self, pte: PageTableEntry, asid: int) -> None:
        """Install one translation into the backend's structure (no-op
        default: hardware-walked backends have nothing to pre-populate)."""

    def warm_start(self, page_table) -> None:
        """Pre-populate from every mapped translation before the region of
        interest.  The default calls ``install`` once per entry of
        ``page_table.all_entries()``, building every packed leaf, when a
        subclass overrides ``install`` (the hashed page table); the POM-TLB
        backends override ``warm_start`` itself so that they build only
        the entries they keep.  Probe-on-demand backends stay cold."""
        if type(self).install is not TranslationBackend.install:
            for pte in page_table.all_entries():
                self.install(pte, pte.asid)

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

    def describe(self) -> str:
        """One line for ``repro backends list``."""
        return type(self).__doc__.splitlines()[0] if type(self).__doc__ else ""
