"""POM-TLB: a large software-managed part-of-memory TLB (Ryoo et al., ISCA 2017).

The paper's main software-managed-TLB comparison point.  The POM-TLB is a large
set-associative TLB whose entries live in a contiguous physical memory region;
looking it up requires fetching the entry's cache block from the memory
hierarchy (it is cached in L2/L3 like ordinary data), which is why its hit
latency is comparable to a page-table walk in native execution but attractive
in virtualized execution where nested walks are far more expensive (Section
3.2, Figure 9).

The structure holds no cache hierarchy of its own: every lookup names the
probing core's hierarchy, so on a multi-core machine all cores share one
POM-TLB, each fetching its set blocks through its own private caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.addresses import PageSize, is_power_of_two, page_number
from repro.common.errors import ConfigurationError
from repro.common.stats import ResettableStats
from repro.memory.page_table import PageTableEntry, RadixPageTable
from repro.memory.physical import PhysicalMemory


@dataclass
class POMTLBStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    total_lookup_latency: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def mean_lookup_latency(self) -> float:
        return self.total_lookup_latency / self.lookups if self.lookups else 0.0


class POMTLB(ResettableStats):
    """A 64K-entry (by default) software-managed L3 TLB resident in memory."""

    def __init__(
        self,
        physical_memory: PhysicalMemory,
        entries: int = 64 * 1024,
        associativity: int = 16,
        entry_size_bytes: int = 16,
    ):
        if entries % associativity != 0:
            raise ConfigurationError("POM-TLB entries must be a multiple of associativity")
        self.entries = entries
        self.associativity = associativity
        self.entry_size_bytes = entry_size_bytes
        self.num_sets = entries // associativity
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError("POM-TLB set count must be a power of two")
        self.size_bytes = entries * entry_size_bytes
        # The defining constraint of a software-managed TLB: it needs a large
        # *contiguous* physical allocation (Section 3.2, drawback 2).
        self.base_paddr = physical_memory.reserve_contiguous(self.size_bytes, label="pom-tlb")
        self.stats = POMTLBStats()
        # set index -> {(asid, page_size, vpn): pte} in last-touch order: a
        # hit or a re-insert moves its key to the end, so the LRU victim is
        # the first key.
        self._sets: list[Dict[Tuple[int, int, int], PageTableEntry]] = [
            dict() for _ in range(self.num_sets)
        ]
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def _set_index(self, vpn: int) -> int:
        return vpn & (self.num_sets - 1)

    def _set_paddr(self, set_index: int) -> int:
        return self.base_paddr + set_index * self.associativity * self.entry_size_bytes

    # ------------------------------------------------------------------ #
    # Lookup / insertion
    # ------------------------------------------------------------------ #
    def lookup(self, vaddr: int, asid: int,
               hierarchy: CacheHierarchy) -> Tuple[Optional[PageTableEntry], int]:
        """Probe the POM-TLB; returns ``(pte or None, latency)``.

        The latency is the cost of fetching the (4 KB and 2 MB) set blocks
        through ``hierarchy``, the probing core's caches — POM-TLB entries
        are ordinary cacheable data, and on a multi-core machine every core
        probes the one shared POM-TLB through its own private caches.  The
        two probes proceed in parallel, so the slower one is charged.
        """
        self.stats.lookups += 1
        latency = 0
        found: Optional[PageTableEntry] = None
        for page_size in (PageSize.SIZE_4K, PageSize.SIZE_2M):
            vpn = page_number(vaddr, page_size)
            set_index = self._set_index(vpn)
            access = hierarchy.access_for_ptw(self._set_paddr(set_index))
            latency = max(latency, access.latency)
            if found is None:
                pom_set = self._sets[set_index]
                key = (asid, int(page_size), vpn)
                pte = pom_set.get(key)
                if pte is not None and pte.valid:
                    found = pte
                    del pom_set[key]
                    pom_set[key] = pte
        if found is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        self.stats.total_lookup_latency += latency
        return found, latency

    def insert(self, pte: PageTableEntry, asid: int) -> Optional[PageTableEntry]:
        """Insert a translation (on the return path of a page walk)."""
        vpn = pte.vpn
        pom_set = self._sets[self._set_index(vpn)]
        key = (asid, int(pte.page_size), vpn)
        evicted: Optional[PageTableEntry] = None
        if key in pom_set:
            del pom_set[key]
        elif len(pom_set) >= self.associativity:
            evicted = pom_set.pop(next(iter(pom_set)))
            self.stats.evictions += 1
        pom_set[key] = pte
        self.stats.insertions += 1
        return evicted

    def warm_start(self, page_table: RadixPageTable) -> None:
        """Insert every leaf of ``page_table``, in ``all_entries()`` order.

        The POM-TLB ends exactly as after one :meth:`insert` per entry of
        :meth:`~repro.memory.page_table.RadixPageTable.all_entries`: the same
        keys in the same order in each set, each holding the page table's
        own entry, and the same insertion and eviction counts.  The LRU rule
        runs on the keys of :meth:`~repro.memory.page_table.RadixPageTable.leaves`
        first, so a packed leaf is built
        (:meth:`~repro.memory.page_table.RadixPageTable.entry_4k`) only if
        it stays resident.
        """
        sets = self._sets
        mask = self.num_sets - 1
        ways = self.associativity
        asid = page_table.asid
        evictions = 0
        inserted = 0
        for vpn, page_size, pte in page_table.leaves():
            pom_set = sets[vpn & mask]
            key = (asid, int(page_size), vpn)
            if key in pom_set:
                del pom_set[key]
            elif len(pom_set) >= ways:
                del pom_set[next(iter(pom_set))]
                evictions += 1
            # A packed leaf's slot holds None until the entry is built below.
            pom_set[key] = pte
            inserted += 1
        for pom_set in sets:
            for key, pte in pom_set.items():
                if pte is None:
                    pom_set[key] = page_table.entry_4k(key[2])
        self.stats.insertions += inserted
        self.stats.evictions += evictions

    def contains(self, vaddr: int, asid: int) -> bool:
        """Residency check without memory accesses or statistics updates."""
        for page_size in (PageSize.SIZE_4K, PageSize.SIZE_2M):
            vpn = page_number(vaddr, page_size)
            if (asid, int(page_size), vpn) in self._sets[self._set_index(vpn)]:
                return True
        return False

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

