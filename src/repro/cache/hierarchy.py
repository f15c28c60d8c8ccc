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
from typing import Optional

from repro.cache.block import BlockKind, CacheBlock, CacheKey, data_key
from repro.cache.cache import Cache
from repro.cache.prefetcher import Prefetcher
from repro.memory.dram import DramModel


_DATA = BlockKind.DATA


class MemoryLevel(enum.Enum):
    """Where an access was served from."""

    L1 = "L1"
    L2 = "L2"
    L3 = "L3"
    DRAM = "DRAM"


@dataclass
class AccessResult:
    """Outcome of one memory access through the hierarchy."""

    latency: int
    level: MemoryLevel
    dram_accesses: int = 0

    @property
    def hit_in_cache(self) -> bool:
        return self.level is not MemoryLevel.DRAM


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

    # ------------------------------------------------------------------ #
    # Demand accesses
    # ------------------------------------------------------------------ #
    def access(self, paddr: int, write: bool = False, ip: int = 0) -> AccessResult:
        """Perform a demand data access at physical address ``paddr``."""
        key = data_key(paddr)
        l1d = self.l1d
        block = l1d.lookup(key)
        if block is not None:
            if write:
                block.dirty = True
            self._train_prefetchers(ip, paddr)
            return AccessResult(latency=l1d.latency, level=MemoryLevel.L1)

        result = self._access_from_l2(paddr, write, key)
        self._fill(l1d, key, dirty=write)
        self._train_prefetchers(ip, paddr)
        return result

    def access_for_ptw(self, paddr: int) -> AccessResult:
        """Memory access issued by the page-table walker (starts at the L2)."""
        return self._access_from_l2(paddr, False, data_key(paddr))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _access_from_l2(self, paddr: int, write: bool,
                        key: CacheKey) -> AccessResult:
        # The key is derived from the address alone; callers build it once
        # and pass it down instead of paying the construction again here.
        block = self.l2.lookup(key)
        if block is not None:
            if write:
                block.dirty = True
            return AccessResult(latency=self.l2.latency, level=MemoryLevel.L2)

        if self.l3 is not None:
            block = self.l3.lookup(key)
            if block is not None:
                if write:
                    block.dirty = True
                self._fill(self.l2, key, dirty=write)
                return AccessResult(latency=self.l3.latency, level=MemoryLevel.L3)

        dram_latency = self.dram.access(paddr, write=write)
        base = self.l3.latency if self.l3 is not None else self.l2.latency
        if self.l3 is not None:
            self._fill(self.l3, key, dirty=write)
        self._fill(self.l2, key, dirty=write)
        return AccessResult(latency=base + dram_latency, level=MemoryLevel.DRAM, dram_accesses=1)

    def _fill(self, cache: Cache, key: CacheKey, dirty: bool = False,
              prefetched: bool = False) -> Optional[CacheBlock]:
        return cache.insert(CacheBlock(key, _DATA, dirty), prefetched)

    def _train_prefetchers(self, ip: int, paddr: int) -> None:
        # Train both prefetchers before filling either: fills never feed back
        # into ``observe``, so this matches the historical interleaved order.
        l1_targets = (self.l1d_prefetcher.observe(ip, paddr)
                      if self.l1d_prefetcher is not None else ())
        l2_targets = (self.l2_prefetcher.observe(ip, paddr)
                      if self.l2_prefetcher is not None else ())
        for target in l1_targets:
            key = data_key(target)
            if not self.l1d.contains(key):
                self._fill(self.l1d, key, prefetched=True)
        for target in l2_targets:
            key = data_key(target)
            if not self.l2.contains(key):
                self._fill(self.l2, key, prefetched=True)
