"""Hardware page-table walker.

The walker performs the radix walk of Figure 1: it probes the page-walk caches
for the deepest cached non-leaf level and then issues one memory access per
remaining level through the cache hierarchy (starting at the L2, where the
walker sits).  It updates the PTE metadata counters the PTW cost predictor
consumes (PTW frequency, PTW cost = number of walks with at least one DRAM
access) and collects the latency distribution needed for Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.hierarchy import CacheHierarchy, MemoryLevel
from repro.common.stats import ResettableStats
from repro.memory.page_table import PageTableEntry, RadixPageTable
from repro.mmu.pwc import PageWalkCaches


@dataclass
class PTWResult:
    """Outcome of one page-table walk."""

    pte: PageTableEntry
    latency: int
    memory_accesses: int
    dram_accesses: int
    pwc_hit_level: Optional[int]
    background: bool = False

    @property
    def breakdown(self) -> Dict[str, int]:
        """The walk's share of a miss's latency breakdown."""
        return {"walk": self.latency}


@dataclass
class PTWStats:
    """Aggregate walker statistics (includes the Figure 4 latency histogram)."""

    walks: int = 0
    background_walks: int = 0
    total_latency: int = 0
    total_memory_accesses: int = 0
    total_dram_accesses: int = 0
    latency_histogram: Dict[int, int] = field(default_factory=dict)
    histogram_bin_width: int = 10
    max_latency: int = 0

    def record(self, result: PTWResult) -> None:
        if result.background:
            self.background_walks += 1
            return
        self.walks += 1
        self.total_latency += result.latency
        self.total_memory_accesses += result.memory_accesses
        self.total_dram_accesses += result.dram_accesses
        self.max_latency = max(self.max_latency, result.latency)
        bucket = (result.latency // self.histogram_bin_width) * self.histogram_bin_width
        self.latency_histogram[bucket] = self.latency_histogram.get(bucket, 0) + 1

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.walks if self.walks else 0.0


class PageTableWalker(ResettableStats):
    """Dedicated hardware walker with split page-walk caches."""

    def __init__(self, hierarchy: CacheHierarchy, pwcs: Optional[PageWalkCaches] = None):
        self.hierarchy = hierarchy
        self.pwcs = pwcs or PageWalkCaches()
        self.stats = PTWStats()
        self._register_stats()

    def walk(self, page_table: RadixPageTable, vaddr: int,
             background: bool = False) -> PTWResult:
        """Walk ``page_table`` for ``vaddr``.

        ``background=True`` models the walks Victima issues on L2 TLB evictions:
        the walk still performs its memory accesses (warming the caches with
        the leaf PTE block) but its latency is off the critical path, so it is
        not added to any translation latency and is accounted separately.
        """
        path = page_table.walk(vaddr)
        leaf_level = path.steps[-1].level
        asid = page_table.asid

        pwc_hit_level = self.pwcs.deepest_hit_level(asid, vaddr, max_level=leaf_level - 1)
        first_memory_level = 0 if pwc_hit_level is None else pwc_hit_level + 1

        latency = self.pwcs.latency
        memory_accesses = 0
        dram_accesses = 0
        pwc_hits = 1 if pwc_hit_level is not None else 0
        for step in path.steps:
            if step.level < first_memory_level:
                continue
            access = self.hierarchy.access_for_ptw(step.entry_paddr)
            latency += access.latency
            memory_accesses += 1
            dram_accesses += access.dram_accesses

        # Fill the PWCs with the non-leaf levels that were walked from memory.
        self.pwcs.fill(asid, vaddr, range(first_memory_level, leaf_level))

        path.pte.record_walk(latency, dram_accesses, pwc_hits)
        result = PTWResult(
            pte=path.pte,
            latency=latency,
            memory_accesses=memory_accesses,
            dram_accesses=dram_accesses,
            pwc_hit_level=pwc_hit_level,
            background=background,
        )
        self.stats.record(result)
        return result
