"""The memory management unit: the full address-translation flow.

One MMU serves every evaluated machine, native (Figure 2, and Figure 17 when
Victima is attached) and virtualized (Figures 3 and 19): a two-level TLB
hierarchy and, behind the L2 TLB, one of the evaluated back-ends:

* a four-level radix walk (the Radix baseline),
* a large hardware L3 TLB (the "Opt. L3 TLB" configurations),
* a POM-TLB, i.e. a large software-managed TLB resident in memory,
* Victima, which probes the L2 cache for TLB blocks in parallel with the walk,
* under virtualization, nested paging's two-dimensional walk, ideal shadow
  paging, and the POM-TLB and Victima over nested paging.

The back-end behind the L2 TLB is a pluggable
:class:`~repro.backends.base.TranslationBackend` (see ``docs/backends.md``):
the MMU dispatches every L2 TLB miss to ``backend.translate`` and never
branches on which mechanism is attached, or on whether the machine is
virtualized.  On a virtualized machine the TLBs hold combined
guest-virtual → host-physical entries and the memory manager is the guest's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common.addresses import PageSize
from repro.common.pressure import PressureMonitor
from repro.common.stats import ResettableStats
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.page_table import PageTableEntry
from repro.mmu.tlb import TLB


class ServedBy(enum.Enum):
    """Which structure resolved a translation."""

    L1_TLB = "l1_tlb"
    L2_TLB = "l2_tlb"
    L3_TLB = "l3_tlb"
    POM_TLB = "pom_tlb"
    VICTIMA_BLOCK = "victima_block"
    PAGE_WALK = "page_walk"


@dataclass
class MMUStats:
    """Aggregate MMU statistics: one count per translation source."""

    l1_tlb_hits: int = 0
    l2_tlb_hits: int = 0
    l2_tlb_misses: int = 0
    l3_tlb_hits: int = 0
    pom_tlb_hits: int = 0
    victima_hits: int = 0
    page_walks: int = 0
    l1_tlb_evictions: int = 0
    l2_tlb_evictions: int = 0
    total_miss_latency: int = 0
    miss_latency_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def translations(self) -> int:
        return self.l1_tlb_hits + self.l2_tlb_hits + self.l2_tlb_misses

    @property
    def served_by(self) -> Dict[str, int]:
        """Translations per :class:`ServedBy` value; sources that served none
        are left out."""
        counts = ((ServedBy.L1_TLB, self.l1_tlb_hits), (ServedBy.L2_TLB, self.l2_tlb_hits),
                  (ServedBy.L3_TLB, self.l3_tlb_hits), (ServedBy.POM_TLB, self.pom_tlb_hits),
                  (ServedBy.VICTIMA_BLOCK, self.victima_hits),
                  (ServedBy.PAGE_WALK, self.page_walks))
        return {source.value: count for source, count in counts if count}

    @property
    def mean_miss_latency(self) -> float:
        return self.total_miss_latency / self.l2_tlb_misses if self.l2_tlb_misses else 0.0


class MMU(ResettableStats):
    """Two-level TLB hierarchy + pluggable back-end.

    ``backend`` is the :class:`~repro.backends.base.TranslationBackend`
    (page-table or nested walker included) that resolves every L2 TLB miss;
    the system factory builds it through the backend registry.
    ``memory_manager`` demand-maps the page of every L2 TLB miss.
    """

    def __init__(
        self,
        l1_dtlb_4k: TLB,
        l1_dtlb_2m: TLB,
        l2_tlb: TLB,
        memory_manager: VirtualMemoryManager,
        pressure: PressureMonitor,
        backend,
        asid: int = 0,
    ):
        self.l1_dtlb_4k = l1_dtlb_4k
        self.l1_dtlb_2m = l1_dtlb_2m
        self.l2_tlb = l2_tlb
        self.memory_manager = memory_manager
        self.pressure = pressure
        self.backend = backend
        self.asid = asid
        self.stats = MMUStats()
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Translation flow
    # ------------------------------------------------------------------ #
    def translate_data(self, vaddr: int) -> Tuple[int, int]:
        """Translate one data reference; returns ``(paddr, latency)``.

        Models the full latency of the lookup path: the L1 D-TLBs, the L2
        TLB, then the backend.  Each path bumps its counters inline, and the
        feature counters of the entry that served the translation.  Those
        saturate at their widths' maxima (see ``PTEFeatures``): ``accesses``
        is 6 bits, the TLB-miss counts 5.
        """
        asid = self.asid
        stats = self.stats

        # -- L1 D-TLBs (1 cycle) ----------------------------------------- #
        entry = self.l1_dtlb_4k.lookup(vaddr, asid)
        if entry is None:
            entry = self.l1_dtlb_2m.lookup(vaddr, asid)
        latency = self.l1_dtlb_4k.latency
        if entry is not None:
            stats.l1_tlb_hits += 1
            pte = entry.pte
            features = pte.features
            if features.accesses < 63:
                features.accesses += 1
            return pte.translate(vaddr), latency

        # -- L2 TLB (12 cycles) ------------------------------------------- #
        latency += self.l2_tlb.latency
        entry = self.l2_tlb.lookup(vaddr, asid)
        if entry is not None:
            stats.l2_tlb_hits += 1
            pte = entry.pte
            features = pte.features
            if features.accesses < 63:
                features.accesses += 1
            if features.l1_tlb_misses < 31:
                features.l1_tlb_misses += 1
            self._fill_l1(pte, asid)
            return pte.translate(vaddr), latency

        # -- L2 TLB miss: dispatch to the translation backend -------------- #
        stats.l2_tlb_misses += 1
        self.pressure.record_l2_tlb_miss()
        # Demand paging happens outside the timed path (a real OS would have
        # populated the mapping on first touch before the measured region).
        # A TLB holds only mapped pages and no run unmaps one, so only a
        # miss can reach an unmapped page.
        self.memory_manager.ensure_mapped(vaddr)
        miss = self.backend.translate(vaddr, asid)
        pte = miss.pte
        latency += miss.latency
        features = pte.features
        if features.accesses < 63:
            features.accesses += 1
        if features.l1_tlb_misses < 31:
            features.l1_tlb_misses += 1
        if features.l2_tlb_misses < 31:
            features.l2_tlb_misses += 1

        self._fill_l2(pte, asid)
        self._fill_l1(pte, asid)

        served_by = miss.served_by
        if served_by is ServedBy.PAGE_WALK:
            stats.page_walks += 1
        elif served_by is ServedBy.VICTIMA_BLOCK:
            stats.victima_hits += 1
        elif served_by is ServedBy.POM_TLB:
            stats.pom_tlb_hits += 1
        elif served_by is ServedBy.L3_TLB:
            stats.l3_tlb_hits += 1
        stats.total_miss_latency += miss.latency
        breakdown = stats.miss_latency_breakdown
        for component, cycles in miss.breakdown.items():
            breakdown[component] = breakdown.get(component, 0) + cycles
        return pte.translate(vaddr), latency

    # ------------------------------------------------------------------ #
    # TLB fills
    # ------------------------------------------------------------------ #
    def _fill_l1(self, pte: PageTableEntry, asid: int) -> None:
        if pte.page_size is PageSize.SIZE_2M:
            target = self.l1_dtlb_2m
        else:
            target = self.l1_dtlb_4k
        if not target.supports(pte.page_size):  # pragma: no cover - defensive
            return
        evicted = target.insert(pte, asid)
        if evicted is not None:
            self.stats.l1_tlb_evictions += 1
            features = evicted.pte.features
            if features.l1_tlb_evictions < 31:
                features.l1_tlb_evictions += 1

    def _fill_l2(self, pte: PageTableEntry, asid: int) -> None:
        evicted = self.l2_tlb.insert(pte, asid)
        if evicted is not None:
            self.stats.l2_tlb_evictions += 1
            features = evicted.pte.features
            if features.l2_tlb_evictions < 63:
                features.l2_tlb_evictions += 1
            self.backend.on_l2_tlb_eviction(evicted)
