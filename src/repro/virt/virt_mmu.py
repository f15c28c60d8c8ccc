"""The virtualized MMU: nested paging, ideal shadow paging, POM-TLB and Victima.

Mirrors :class:`repro.mmu.mmu.MMU` for virtualized execution (Figures 3 and 19
of the paper).  The L1/L2 TLBs cache *combined* guest-virtual → host-physical
translations; what differs between the evaluated systems is how an L2 TLB miss
is resolved:

* **Nested paging (NP)** — a two-dimensional walk via the nested walker.
* **NP + POM-TLB** — probe the in-memory software TLB first, then 2-D walk.
* **Ideal shadow paging (I-SP)** — a one-dimensional walk of the shadow table,
  with shadow-table maintenance assumed free.
* **Victima** — probe the L2 cache for a conventional TLB block in parallel
  with the 2-D walk; inside the walk, nested-TLB misses probe nested TLB
  blocks.  Completed walks insert both kinds of blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common.addresses import PageSize
from repro.common.pressure import PressureMonitor
from repro.common.stats import ResettableStats
from repro.memory.page_table import PageTableEntry
from repro.mmu.mmu import ServedBy
from repro.mmu.tlb import TLB


@dataclass
class VirtualizedMMUStats:
    translations: int = 0
    l1_tlb_hits: int = 0
    l2_tlb_hits: int = 0
    l2_tlb_misses: int = 0
    guest_page_walks: int = 0
    host_page_walks: int = 0
    shadow_walks: int = 0
    victima_hits: int = 0
    pom_tlb_hits: int = 0
    l1_tlb_evictions: int = 0
    l2_tlb_evictions: int = 0
    total_translation_latency: int = 0
    total_miss_latency: int = 0
    miss_latency_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_miss_latency(self) -> float:
        return self.total_miss_latency / self.l2_tlb_misses if self.l2_tlb_misses else 0.0


class VirtualizedMMU(ResettableStats):
    """Two-level TLB hierarchy over a virtualized translation back-end.

    ``backend`` is the virtualized
    :class:`~repro.backends.base.TranslationBackend` (bound to its nested
    walker) that resolves every L2 TLB miss; the system factory builds it
    through the backend registry.
    """

    def __init__(
        self,
        l1_dtlb_4k: TLB,
        l1_dtlb_2m: TLB,
        l2_tlb: TLB,
        pressure: PressureMonitor,
        backend,
        vmid: int = 0,
    ):
        self.l1_dtlb_4k = l1_dtlb_4k
        self.l1_dtlb_2m = l1_dtlb_2m
        self.l2_tlb = l2_tlb
        self.pressure = pressure
        self.backend = backend
        self.vmid = vmid
        self.stats = VirtualizedMMUStats()
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Translation flow
    # ------------------------------------------------------------------ #
    def translate_data(self, gva: int) -> Tuple[int, int]:
        """Translate one guest-virtual data reference; returns
        ``(host paddr, latency)``.  Each path bumps its counters inline."""
        vmid = self.vmid
        stats = self.stats
        stats.translations += 1

        # -- L1 D-TLBs ------------------------------------------------------ #
        latency = self.l1_dtlb_4k.latency
        entry = self.l1_dtlb_4k.lookup(gva, vmid)
        if entry is None:
            entry = self.l1_dtlb_2m.lookup(gva, vmid)
        if entry is not None:
            stats.l1_tlb_hits += 1
            stats.total_translation_latency += latency
            return entry.pte.translate(gva), latency

        # -- L2 TLB --------------------------------------------------------- #
        latency += self.l2_tlb.latency
        entry = self.l2_tlb.lookup(gva, vmid)
        if entry is not None:
            stats.l2_tlb_hits += 1
            self._fill_l1(entry.pte)
            stats.total_translation_latency += latency
            return entry.pte.translate(gva), latency

        # -- L2 TLB miss: dispatch to the translation backend ----------------- #
        # Backends report walk composition; the MMU keeps all the accounting.
        stats.l2_tlb_misses += 1
        self.pressure.record_l2_tlb_miss()
        miss = self.backend.translate(gva, vmid)
        stats.guest_page_walks += miss.guest_walks
        stats.host_page_walks += miss.host_walks
        stats.shadow_walks += miss.shadow_walks
        if miss.served_by is ServedBy.VICTIMA_BLOCK:
            stats.victima_hits += 1
        elif miss.served_by is ServedBy.POM_TLB:
            stats.pom_tlb_hits += 1
        pte = miss.pte
        latency += miss.latency

        # Saturating counters (see ``PTEFeatures``): 5, 5 and 6 bits.
        features = pte.features
        if features.l1_tlb_misses < 31:
            features.l1_tlb_misses += 1
        if features.l2_tlb_misses < 31:
            features.l2_tlb_misses += 1
        if features.accesses < 63:
            features.accesses += 1
        self._fill_l2(pte)
        self._fill_l1(pte)

        stats.total_miss_latency += miss.latency
        stats.total_translation_latency += latency
        breakdown = stats.miss_latency_breakdown
        for component, cycles in miss.breakdown.items():
            breakdown[component] = breakdown.get(component, 0) + cycles
        return pte.translate(gva), latency

    # ------------------------------------------------------------------ #
    # TLB fills
    # ------------------------------------------------------------------ #
    def _fill_l1(self, pte: PageTableEntry) -> None:
        if pte.page_size is PageSize.SIZE_2M:
            target = self.l1_dtlb_2m
        else:
            target = self.l1_dtlb_4k
        if not target.supports(pte.page_size):  # pragma: no cover - defensive
            return
        evicted = target.insert(pte, self.vmid)
        if evicted is not None:
            self.stats.l1_tlb_evictions += 1
            features = evicted.pte.features
            if features.l1_tlb_evictions < 31:
                features.l1_tlb_evictions += 1

    def _fill_l2(self, pte: PageTableEntry) -> None:
        evicted = self.l2_tlb.insert(pte, self.vmid)
        if evicted is not None:
            self.stats.l2_tlb_evictions += 1
            features = evicted.pte.features
            if features.l2_tlb_evictions < 63:
                features.l2_tlb_evictions += 1
            self.backend.on_l2_tlb_eviction(evicted)
