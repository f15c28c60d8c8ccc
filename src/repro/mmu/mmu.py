"""The memory management unit: the full address-translation flow.

This is the native-execution MMU of Figure 2 (and Figure 17 when Victima is
attached): a two-level TLB hierarchy, a hardware page-table walker with split
page-walk caches, and optionally one of the evaluated back-ends behind the L2
TLB:

* nothing (the Radix baseline),
* a large hardware L3 TLB (the "Opt. L3 TLB" configurations),
* a POM-TLB, i.e. a large software-managed TLB resident in memory,
* Victima, which probes the L2 cache for TLB blocks in parallel with the walk.

The back-end behind the L2 TLB is a pluggable
:class:`~repro.backends.base.TranslationBackend` (see ``docs/backends.md``):
the MMU dispatches every L2 TLB miss to ``backend.translate`` and never
branches on which mechanism is attached.

The virtualized MMU (nested paging, Figure 3 / 19) lives in
:mod:`repro.virt.virt_mmu` and reuses the same components.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.addresses import PageSize
from repro.common.pressure import PressureMonitor
from repro.common.stats import ResettableStats
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.page_table import PageTableEntry
from repro.mmu.tlb import TLB, TLBEntry


class ServedBy(enum.Enum):
    """Which structure resolved a translation."""

    L1_TLB = "l1_tlb"
    L2_TLB = "l2_tlb"
    L3_TLB = "l3_tlb"
    POM_TLB = "pom_tlb"
    VICTIMA_BLOCK = "victima_block"
    PAGE_WALK = "page_walk"


@dataclass
class TranslationResult:
    """Outcome of translating one virtual address."""

    vaddr: int
    paddr: int
    pte: PageTableEntry
    latency: int
    served_by: ServedBy
    l1_tlb_miss: bool
    l2_tlb_miss: bool
    page_walk: bool
    #: Latency accumulated after the L2 TLB miss (the paper's "L2 TLB miss latency").
    miss_latency: int = 0
    #: Breakdown of ``miss_latency`` by component ("walk", "stlb", "l2_cache", "l3_tlb").
    miss_breakdown: Dict[str, int] = field(default_factory=dict)


@dataclass
class MMUStats:
    """Aggregate MMU statistics."""

    translations: int = 0
    l1_tlb_hits: int = 0
    l2_tlb_hits: int = 0
    l2_tlb_misses: int = 0
    l3_tlb_hits: int = 0
    pom_tlb_hits: int = 0
    victima_hits: int = 0
    page_walks: int = 0
    l1_tlb_evictions: int = 0
    l2_tlb_evictions: int = 0
    total_translation_latency: int = 0
    total_miss_latency: int = 0
    miss_latency_breakdown: Dict[str, int] = field(default_factory=dict)
    served_by: Dict[str, int] = field(default_factory=dict)

    def record(self, result: TranslationResult) -> None:
        self.translations += 1
        self.total_translation_latency += result.latency
        served = result.served_by.value
        self.served_by[served] = self.served_by.get(served, 0) + 1
        if not result.l1_tlb_miss:
            self.l1_tlb_hits += 1
        if result.l2_tlb_miss:
            self.l2_tlb_misses += 1
            self.total_miss_latency += result.miss_latency
            for component, cycles in result.miss_breakdown.items():
                self.miss_latency_breakdown[component] = (
                    self.miss_latency_breakdown.get(component, 0) + cycles)
        elif result.l1_tlb_miss:
            self.l2_tlb_hits += 1
        if result.page_walk:
            self.page_walks += 1
        if result.served_by is ServedBy.VICTIMA_BLOCK:
            self.victima_hits += 1
        elif result.served_by is ServedBy.POM_TLB:
            self.pom_tlb_hits += 1
        elif result.served_by is ServedBy.L3_TLB:
            self.l3_tlb_hits += 1

    @property
    def mean_miss_latency(self) -> float:
        return self.total_miss_latency / self.l2_tlb_misses if self.l2_tlb_misses else 0.0

    @property
    def mean_translation_latency(self) -> float:
        return self.total_translation_latency / self.translations if self.translations else 0.0


class MMU(ResettableStats):
    """Two-level TLB hierarchy + pluggable back-end.

    ``backend`` is the :class:`~repro.backends.base.TranslationBackend`
    (page-table walker included) that resolves every L2 TLB miss; the system
    factory builds it through the backend registry.
    """

    def __init__(
        self,
        l1_itlb: TLB,
        l1_dtlb_4k: TLB,
        l1_dtlb_2m: TLB,
        l2_tlb: TLB,
        memory_manager: VirtualMemoryManager,
        pressure: PressureMonitor,
        backend,
        asid: int = 0,
    ):
        self.l1_itlb = l1_itlb
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
    def translate(self, vaddr: int, is_instruction: bool = False,
                  asid: Optional[int] = None) -> TranslationResult:
        """Translate ``vaddr``, modelling the full latency of the lookup path."""
        asid = self.asid if asid is None else asid
        # Demand paging happens outside the timed path (a real OS would have
        # populated the mapping on first touch before the measured region).
        pte = self.memory_manager.ensure_mapped(vaddr)
        pte.features.accesses.increment()

        # -- L1 TLBs (1 cycle) ------------------------------------------- #
        l1_hit_entry = self._l1_lookup(vaddr, asid, is_instruction)
        latency = self._l1_latency(is_instruction)
        if l1_hit_entry is not None:
            result = TranslationResult(
                vaddr=vaddr, paddr=l1_hit_entry.translate(vaddr), pte=l1_hit_entry.pte,
                latency=latency, served_by=ServedBy.L1_TLB,
                l1_tlb_miss=False, l2_tlb_miss=False, page_walk=False)
            self.stats.record(result)
            return result
        return self._translate_l1_miss(vaddr, asid, pte, latency, is_instruction)

    def translate_data(self, vaddr: int, asid: Optional[int] = None) -> Tuple[int, int]:
        """Hot-path data translation: returns only ``(paddr, latency)``.

        Behaviourally identical to ``translate(vaddr, is_instruction=False)``
        — every statistic, TLB LRU update, pressure signal and fill decision
        is the same (pinned by the parity tests in ``tests/test_hotpath.py``)
        — but the deterministic L1-D-TLB-hit case is short-circuited: its
        counters are bumped inline and no :class:`TranslationResult` (whose
        construction dominates the hit path) is built.  Misses fall through
        to the shared miss continuation and pay the full modelled cost.
        """
        asid = self.asid if asid is None else asid
        pte = self.memory_manager.ensure_mapped(vaddr)
        pte.features.accesses.increment()

        entry = self.l1_dtlb_4k.lookup(vaddr, asid)
        if entry is None:
            entry = self.l1_dtlb_2m.lookup(vaddr, asid)
        latency = self.l1_dtlb_4k.latency
        if entry is not None:
            # Inline equivalent of MMUStats.record for a ServedBy.L1_TLB hit.
            stats = self.stats
            stats.translations += 1
            stats.total_translation_latency += latency
            served = stats.served_by
            served["l1_tlb"] = served.get("l1_tlb", 0) + 1
            stats.l1_tlb_hits += 1
            return entry.pte.translate(vaddr), latency

        result = self._translate_l1_miss(vaddr, asid, pte, latency,
                                         is_instruction=False)
        return result.paddr, result.latency

    def _translate_l1_miss(self, vaddr: int, asid: int, pte,
                           latency: int, is_instruction: bool) -> TranslationResult:
        """Continuation of :meth:`translate` after an L1 TLB miss."""
        pte.features.l1_tlb_misses.increment()

        # -- L2 TLB (12 cycles) ------------------------------------------- #
        latency += self.l2_tlb.latency
        l2_entry = self.l2_tlb.lookup(vaddr, asid)
        if l2_entry is not None:
            self._fill_l1(l2_entry.pte, asid, is_instruction)
            result = TranslationResult(
                vaddr=vaddr, paddr=l2_entry.translate(vaddr), pte=l2_entry.pte,
                latency=latency, served_by=ServedBy.L2_TLB,
                l1_tlb_miss=True, l2_tlb_miss=False, page_walk=False)
            self.stats.record(result)
            return result

        # -- L2 TLB miss: dispatch to the translation backend -------------- #
        self.pressure.record_l2_tlb_miss()
        pte.features.l2_tlb_misses.increment()
        miss = self.backend.translate(vaddr, asid)
        resolved_pte = miss.pte
        latency += miss.latency

        self._fill_l2(resolved_pte, asid)
        self._fill_l1(resolved_pte, asid, is_instruction)

        result = TranslationResult(
            vaddr=vaddr, paddr=resolved_pte.translate(vaddr), pte=resolved_pte,
            latency=latency, served_by=miss.served_by,
            l1_tlb_miss=True, l2_tlb_miss=True, page_walk=miss.walked,
            miss_latency=miss.latency, miss_breakdown=miss.breakdown)
        self.stats.record(result)
        return result

    # ------------------------------------------------------------------ #
    # TLB fills
    # ------------------------------------------------------------------ #
    def _l1_latency(self, is_instruction: bool) -> int:
        return self.l1_itlb.latency if is_instruction else self.l1_dtlb_4k.latency

    def _l1_lookup(self, vaddr: int, asid: int, is_instruction: bool) -> Optional[TLBEntry]:
        if is_instruction:
            return self.l1_itlb.lookup(vaddr, asid)
        entry = self.l1_dtlb_4k.lookup(vaddr, asid)
        if entry is not None:
            return entry
        return self.l1_dtlb_2m.lookup(vaddr, asid)

    def _l1_for(self, pte: PageTableEntry, is_instruction: bool) -> TLB:
        if is_instruction:
            return self.l1_itlb
        if pte.page_size is PageSize.SIZE_2M:
            return self.l1_dtlb_2m
        return self.l1_dtlb_4k

    def _fill_l1(self, pte: PageTableEntry, asid: int, is_instruction: bool) -> None:
        target = self._l1_for(pte, is_instruction)
        if not target.supports(pte.page_size):  # pragma: no cover - defensive
            return
        evicted = target.insert(pte, asid)
        if evicted is not None:
            self.stats.l1_tlb_evictions += 1
            evicted.pte.features.l1_tlb_evictions.increment()

    def _fill_l2(self, pte: PageTableEntry, asid: int) -> None:
        evicted = self.l2_tlb.insert(pte, asid)
        if evicted is not None:
            self.stats.l2_tlb_evictions += 1
            evicted.pte.features.l2_tlb_evictions.increment()
            self.backend.on_l2_tlb_eviction(evicted)
