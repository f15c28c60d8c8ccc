"""Three-level cache hierarchy with a DRAM backend.

The hierarchy matches the data side of Table 3's baseline: a 32 KB L1-D
(4-cycle), a 2 MB 16-way L2 (16-cycle), a 2 MB-per-core L3 (35-cycle) and
DRAM behind it.  The model has no instruction stream: every reference a
workload emits is a data reference, so Table 3's L1-I is not modelled.
Latencies are *absolute* load-to-use values — a hit at level ``i`` costs the
configured latency of level ``i`` — which matches how the paper quotes them
("≈16 cycles" for an L2 hit, "≈35 cycles" for the LLC).

Data accesses start at the L1; page-table-walk accesses issued by the hardware
walker start at the L2, as in modern cores where the walker sits next to the
L2 (and as the paper assumes when it says a TLB entry resident in L2 costs one
≈16-cycle access instead of a ≈137-cycle walk).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.block import CacheKey, data_key
from repro.cache.cache import Cache
from repro.cache.prefetcher import Prefetcher
from repro.common.addresses import BLOCK_OFFSET_BITS
from repro.memory.dram import DramModel


class MemoryLevel(enum.Enum):
    """Where an access was served from."""

    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    DRAM = "DRAM"


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access through the hierarchy.

    Frozen because the hierarchy hands out shared, preallocated instances:
    one per hit level and one per DRAM latency.
    """

    latency: int
    level: MemoryLevel
    dram_accesses: int = 0


class CacheHierarchy:
    """L1-D + L2 + L3 caches in front of DRAM (inclusive fill policy)."""

    def __init__(
        self,
        l1d: Cache,
        l2: Cache,
        l3: Optional[Cache],
        dram: DramModel,
        l1d_prefetcher: Optional[Prefetcher] = None,
        l2_prefetcher: Optional[Prefetcher] = None,
    ):
        self.l1d = l1d
        self.l2 = l2
        self.l3 = l3
        self.dram = dram
        self.l1d_prefetcher = l1d_prefetcher
        self.l2_prefetcher = l2_prefetcher
        self._l1_hit = AccessResult(l1d.latency, MemoryLevel.L1)
        self._l2_hit = AccessResult(l2.latency, MemoryLevel.L2)
        self._l3_hit = AccessResult(l3.latency, MemoryLevel.L3) if l3 is not None else None
        self._dram_base = (l3 or l2).latency
        #: DRAM latency -> the result of an access that went to DRAM.
        self._dram_results: Dict[int, AccessResult] = {}

    # ------------------------------------------------------------------ #
    # Demand accesses
    # ------------------------------------------------------------------ #
    def access(self, paddr: int, write: bool = False, ip: int = 0) -> AccessResult:
        """Perform a demand data access at physical address ``paddr``."""
        # Keys are data_key(...) inlined: this runs once per reference.
        number = paddr >> BLOCK_OFFSET_BITS
        key = (number, ("D", number))
        l1d = self.l1d
        block = l1d.lookup(key)
        if block is not None:
            if write:
                block.dirty = True
            result = self._l1_hit
        else:
            result = self._access_from_l2(paddr, write, key)
            l1d.fill(key, write)

        # Both prefetchers observe before either fills: fills never feed
        # back into ``observe``, so this matches the interleaved order.
        l1_targets = (self.l1d_prefetcher.observe(ip, paddr)
                      if self.l1d_prefetcher is not None else ())
        l2_targets = (self.l2_prefetcher.observe(ip, paddr)
                      if self.l2_prefetcher is not None else ())
        for target in l1_targets:
            number = target >> BLOCK_OFFSET_BITS
            key = (number, ("D", number))
            if not l1d.contains(key):
                l1d.fill(key, prefetched=True)
        for target in l2_targets:
            number = target >> BLOCK_OFFSET_BITS
            key = (number, ("D", number))
            if not self.l2.contains(key):
                self.l2.fill(key, prefetched=True)
        return result

    def access_for_ptw(self, paddr: int) -> AccessResult:
        """Memory access issued by the page-table walker (starts at the L2)."""
        return self._access_from_l2(paddr, False, data_key(paddr))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _access_from_l2(self, paddr: int, write: bool,
                        key: CacheKey) -> AccessResult:
        # On a miss the levels fill outside-in (L3, then L2; the caller
        # fills the L1 last), all from the caller's key.
        l2 = self.l2
        block = l2.lookup(key)
        if block is not None:
            if write:
                block.dirty = True
            return self._l2_hit

        l3 = self.l3
        if l3 is not None:
            block = l3.lookup(key)
            if block is not None:
                if write:
                    block.dirty = True
                l2.fill(key, write)
                return self._l3_hit

        dram_latency = self.dram.access(paddr, write=write)
        if l3 is not None:
            l3.fill(key, write)
        l2.fill(key, write)
        result = self._dram_results.get(dram_latency)
        if result is None:
            result = self._dram_results[dram_latency] = AccessResult(
                self._dram_base + dram_latency, MemoryLevel.DRAM, dram_accesses=1)
        return result
