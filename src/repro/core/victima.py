"""The Victima controller.

Victima repurposes L2 cache blocks to store clusters of TLB entries, backing up
the last-level TLB (Sections 4-5 of the paper).  This module implements the
controller that sits next to the MMU:

* ``probe`` — on an L2 TLB miss the MMU probes the L2 cache for a TLB block in
  parallel with starting the page-table walk.  The probe checks both the 4 KB
  and the 2 MB virtual page number (the page size is not known a priori) and,
  on a hit, aborts the walk: the translation costs one L2 cache access.
* ``on_l2_tlb_miss`` — after a walk completes, if the PTW cost predictor deems
  the page costly-to-translate, the data block holding the fetched PTE cluster
  is transformed into a TLB block tagged by the virtual cluster and ASID.
* ``on_l2_tlb_eviction`` — when the L2 TLB evicts an entry of a costly page and
  no TLB block exists yet, a background page-table walk fetches the PTE cluster
  and inserts the TLB block, so a future access avoids a demand walk.
* nested variants of all three for virtualized execution (Section 5.4), which
  cache guest-physical → host-physical clusters as *nested TLB blocks*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.block import BlockKind, CacheBlock, nested_tlb_key, tlb_key
from repro.cache.cache import Cache
from repro.cache.block import data_key
from repro.common.addresses import PTES_PER_CACHE_BLOCK, PageSize, page_number
from repro.common.pressure import PressureMonitor
from repro.common.stats import ResettableStats
from repro.core.ptw_cp import PTWCostPredictor
from repro.memory.page_table import PageTableEntry, RadixPageTable
from repro.mmu.page_walker import PageTableWalker
from repro.mmu.tlb import TLBEntry

#: The page sizes a TLB-block probe tries, in order, with each one's VPN shift.
_PROBE_PLAN = ((PageSize.SIZE_4K, 12), (PageSize.SIZE_2M, 21))


@dataclass
class VictimaStats:
    """Statistics for the Victima controller."""

    probes: int = 0
    block_hits: int = 0
    block_misses: int = 0
    insertions_on_miss: int = 0
    insertions_on_eviction: int = 0
    duplicate_blocks_skipped: int = 0
    predictor_rejections: int = 0
    predictor_bypasses: int = 0
    background_walks: int = 0
    data_blocks_transformed: int = 0
    nested_probes: int = 0
    nested_block_hits: int = 0
    nested_insertions: int = 0
    invalidated_blocks: int = 0

    @property
    def probe_hit_rate(self) -> float:
        return self.block_hits / self.probes if self.probes else 0.0


class VictimaController(ResettableStats):
    """Inserts and probes (nested) TLB blocks in the L2 cache."""

    def __init__(
        self,
        l2_cache: Cache,
        page_table: RadixPageTable,
        walker: PageTableWalker,
        predictor: PTWCostPredictor,
        pressure: PressureMonitor,
        host_page_table: Optional[RadixPageTable] = None,
        insert_on_miss: bool = True,
        insert_on_eviction: bool = True,
        use_predictor: bool = True,
        bypass_on_low_locality: bool = True,
    ):
        self.l2_cache = l2_cache
        self.page_table = page_table
        self.walker = walker
        self.predictor = predictor
        self.pressure = pressure
        self.host_page_table = host_page_table
        self.insert_on_miss = insert_on_miss
        self.insert_on_eviction = insert_on_eviction
        self.use_predictor = use_predictor
        self.bypass_on_low_locality = bypass_on_low_locality
        self.stats = VictimaStats()
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Probing (the parallel L2-cache lookup on an L2 TLB miss)
    # ------------------------------------------------------------------ #
    def probe(self, vaddr: int, asid: int) -> Tuple[Optional[PageTableEntry], int]:
        """Probe the L2 cache for a TLB block covering ``vaddr``.

        Returns ``(pte, latency)``; ``pte`` is None on a miss.  The L2 cache is
        probed twice in parallel (once per page size), so the latency is a
        single L2 access regardless of the outcome.
        """
        self.stats.probes += 1
        pte = self._probe_kind(vaddr, asid, BlockKind.TLB)
        if pte is not None:
            self.stats.block_hits += 1
        else:
            self.stats.block_misses += 1
        return pte, self.l2_cache.latency

    def probe_nested(self, host_vaddr: int, vmid: int) -> Tuple[Optional[PageTableEntry], int]:
        """Probe for a *nested* TLB block (guest-physical → host-physical)."""
        self.stats.nested_probes += 1
        pte = self._probe_kind(host_vaddr, vmid, BlockKind.NESTED_TLB)
        if pte is not None:
            self.stats.nested_block_hits += 1
        return pte, self.l2_cache.latency

    def _probe_kind(self, vaddr: int, asid: int, kind: BlockKind) -> Optional[PageTableEntry]:
        block_key = tlb_key if kind is BlockKind.TLB else nested_tlb_key
        lookup = self.l2_cache.lookup
        for page_size, shift in _PROBE_PLAN:
            vpn = vaddr >> shift
            block = lookup(block_key(vpn, asid, page_size), count_access=False)
            if block is not None and block.kind is kind:
                pte = block.find_translation(vpn)
                if pte is not None:
                    return pte
        return None

    # ------------------------------------------------------------------ #
    # Insertion triggers
    # ------------------------------------------------------------------ #
    def on_l2_tlb_miss(self, pte: PageTableEntry) -> bool:
        """Called after a demand walk triggered by an L2 TLB miss completes."""
        if not self.insert_on_miss:
            return False
        if not self._should_insert(pte):
            return False
        inserted = self._insert_block(pte, kind=BlockKind.TLB)
        if inserted:
            self.stats.insertions_on_miss += 1
        return inserted

    def on_l2_tlb_eviction(self, evicted: TLBEntry) -> bool:
        """Called when the L2 TLB evicts an entry (Section 5.2, eviction path)."""
        if not self.insert_on_eviction:
            return False
        pte = evicted.pte
        if not pte.valid or not self._should_insert(pte):
            return False
        key = tlb_key(pte.vpn, evicted.asid, pte.page_size)
        if self.l2_cache.contains(key):
            self.stats.duplicate_blocks_skipped += 1
            return False
        # Issue the page-table walk in the background to (re)fetch the PTE
        # cluster; its latency stays off the translation critical path.
        vaddr = pte.vpn << pte.page_size.offset_bits
        self.walker.walk(self.page_table, vaddr, background=True)
        self.stats.background_walks += 1
        inserted = self._insert_block(pte, kind=BlockKind.TLB)
        if inserted:
            self.stats.insertions_on_eviction += 1
        return inserted

    def on_nested_tlb_miss(self, host_pte: PageTableEntry) -> bool:
        """Insert a nested TLB block after a host walk (virtualized execution)."""
        if not self.insert_on_miss or self.host_page_table is None:
            return False
        if not self._should_insert(host_pte):
            return False
        inserted = self._insert_block(host_pte, kind=BlockKind.NESTED_TLB)
        if inserted:
            self.stats.nested_insertions += 1
        return inserted

    def on_nested_tlb_eviction(self, evicted: TLBEntry) -> bool:
        """Insert a nested TLB block when the nested TLB evicts a costly entry."""
        if not self.insert_on_eviction or self.host_page_table is None:
            return False
        pte = evicted.pte
        if not pte.valid or not self._should_insert(pte):
            return False
        key = nested_tlb_key(pte.vpn, evicted.asid, pte.page_size)
        if self.l2_cache.contains(key):
            self.stats.duplicate_blocks_skipped += 1
            return False
        vaddr = pte.vpn << pte.page_size.offset_bits
        self.walker.walk(self.host_page_table, vaddr, background=True)
        self.stats.background_walks += 1
        inserted = self._insert_block(pte, kind=BlockKind.NESTED_TLB)
        if inserted:
            self.stats.nested_insertions += 1
        return inserted

    # ------------------------------------------------------------------ #
    # Decision and insertion mechanics
    # ------------------------------------------------------------------ #
    def _should_insert(self, pte: PageTableEntry) -> bool:
        """Apply the PTW-CP, honouring the L2-cache-MPKI bypass (Figure 15)."""
        if not self.use_predictor:
            return True
        if self.bypass_on_low_locality and self.pressure.data_locality_low:
            self.stats.predictor_bypasses += 1
            return True
        if self.predictor.predict(pte):
            return True
        self.stats.predictor_rejections += 1
        return False

    def _insert_block(self, pte: PageTableEntry, kind: BlockKind) -> bool:
        page_table = self.page_table if kind is BlockKind.TLB else self.host_page_table
        assert page_table is not None
        asid = pte.asid
        key = (tlb_key(pte.vpn, asid, pte.page_size) if kind is BlockKind.TLB
               else nested_tlb_key(pte.vpn, asid, pte.page_size))
        if self.l2_cache.contains(key):
            self.stats.duplicate_blocks_skipped += 1
            return False

        cluster = page_table.pte_cluster(pte)
        # "Transform" the data block holding this PTE cluster: the block that
        # the walk just brought into the L2 cache stops being a data block and
        # becomes the TLB block (its metadata is rewritten, Section 5.2).
        if self.l2_cache.invalidate(data_key(pte.cluster_block_paddr)):
            self.stats.data_blocks_transformed += 1

        block = CacheBlock(
            key=key,
            kind=kind,
            asid=asid,
            page_size=pte.page_size,
            payload=cluster,
        )
        self.l2_cache.insert(block)
        return True

    # ------------------------------------------------------------------ #
    # Reach, reuse and maintenance
    # ------------------------------------------------------------------ #
    def resident_tlb_blocks(self, include_nested: bool = True) -> List[CacheBlock]:
        blocks = self.l2_cache.resident_blocks(BlockKind.TLB)
        if include_nested:
            blocks += self.l2_cache.resident_blocks(BlockKind.NESTED_TLB)
        return blocks

    def translation_reach_bytes(self, assume_4k: bool = False) -> int:
        """Memory covered by the TLB blocks currently resident in the L2 cache.

        With ``assume_4k=True`` every entry is counted as a 4 KB page, matching
        the simplification of Figure 23; otherwise the actual page size of each
        valid cluster entry is used.
        """
        return self.translation_reach()[1 if assume_4k else 0]

    def translation_reach(self) -> Tuple[int, int]:
        """Both reach figures, ``(actual, assume_4k)``, from one scan of the L2."""
        sizes = [entry.page_size for block in self.l2_cache.resident_blocks()
                 if block.is_tlb_block and block.payload is not None
                 for entry in block.payload if entry is not None and entry.valid]
        return sum(sizes), 4096 * len(sizes)

    def tlb_block_reuse_distribution(self) -> dict:
        """Reuse histogram of evicted TLB blocks (Figure 24)."""
        combined: dict = {}
        for kind in (BlockKind.TLB, BlockKind.NESTED_TLB):
            for reuse, count in self.l2_cache.stats.reuse_distribution(kind).items():
                combined[reuse] = combined.get(reuse, 0) + count
        return combined

    def invalidate_all(self) -> int:
        """Invalidate every (nested) TLB block — a full TLB flush (Section 6.1)."""
        removed = self.l2_cache.invalidate_matching(lambda b: b.is_tlb_block)
        self.stats.invalidated_blocks += removed
        return removed

    def invalidate_asid(self, asid: int) -> int:
        """Invalidate all TLB blocks belonging to ``asid`` (partial flush)."""
        removed = self.l2_cache.invalidate_matching(
            lambda b: b.is_tlb_block and b.asid == asid)
        self.stats.invalidated_blocks += removed
        return removed

    def invalidate_page(self, vaddr: int, asid: int) -> int:
        """Invalidate the TLB block covering ``vaddr`` (TLB shootdown, §6.2).

        Because a TLB block holds eight contiguous translations, invalidating
        one entry invalidates the whole block.
        """
        removed = 0
        for page_size in (PageSize.SIZE_4K, PageSize.SIZE_2M):
            vpn = page_number(vaddr, page_size)
            for key in (tlb_key(vpn, asid, page_size), nested_tlb_key(vpn, asid, page_size)):
                if self.l2_cache.invalidate(key):
                    removed += 1
        self.stats.invalidated_blocks += removed
        return removed
