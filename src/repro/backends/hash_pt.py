"""Hashed page table: a flat, single-access translation baseline (``hash_pt``).

The classic alternative to the x86 radix table (PA-RISC/Itanium lineage;
revisited by the elastic-cuckoo-hashing line of work): translations live in an
open-hash table in a *contiguous* physical region, so a translation needs one
hashed bucket probe — a handful of dependent cache-block fetches — instead of
a four-level pointer chase.  The simulator models it as a translation backend:
an L2 TLB miss probes the hashed table through the memory hierarchy; if the
translation has never been walked (demand-mapped page) the radix walker
resolves it once and the result is installed.  The table holds no hierarchy:
each core's backend passes its own to every probe, so the cores of a
multi-core machine share one table.

This is the registry's worked example of a *new* backend: one module defines
the structure, the backend and the spec, and registration alone makes
``hash_pt`` reachable from scenarios, ``repro run`` and the experiment runner
(see ``docs/backends.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.backends.base import BuildContext, MissResolution, TranslationBackend
from repro.backends.registry import BackendSpec, register_backend
from repro.common.addresses import PageSize, page_number
from repro.common.errors import ConfigurationError
from repro.common.stats import ResettableStats
from repro.memory.page_table import PageTableEntry
from repro.mmu.mmu import ServedBy


@dataclass
class HashedPageTableStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    blocks_fetched: int = 0
    total_lookup_latency: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class HashedPageTable(ResettableStats):
    """The in-memory open-hash translation store.

    ``entries // bucket_slots`` buckets of ``bucket_slots`` slots each occupy
    a contiguous physical reservation.  A probe hashes (ASID, page size, VPN)
    to a bucket and fetches the bucket's cache blocks *sequentially* until the
    matching slot: unlike the POM-TLB's single set-indexed fetch, chained
    slots cost extra dependent block fetches — the structural trade-off this
    baseline exists to measure.  4 KB and 2 MB probes proceed in parallel, so
    the slower one is charged (same convention as the POM-TLB).
    """

    def __init__(self, physical_memory, entries: int = 64 * 1024,
                 bucket_slots: int = 8, entry_size_bytes: int = 16,
                 block_size: int = 64):
        if entries % bucket_slots != 0:
            raise ConfigurationError(
                "hashed-PT entries must be a multiple of bucket_slots")
        self.entries = entries
        self.bucket_slots = bucket_slots
        self.entry_size_bytes = entry_size_bytes
        self.block_size = block_size
        self.num_buckets = entries // bucket_slots
        if self.num_buckets & (self.num_buckets - 1):
            raise ConfigurationError("hashed-PT bucket count must be a power of two")
        self.size_bytes = entries * entry_size_bytes
        # Like the POM-TLB, the defining constraint is one large contiguous
        # physical allocation (the whole table is physically indexed).
        self.base_paddr = physical_memory.reserve_contiguous(self.size_bytes,
                                                             label="hash-pt")
        self.stats = HashedPageTableStats()
        # bucket index -> { (asid, page_size, vpn): (pte, last_touch) };
        # dict order within a bucket is slot order (insertion order, compacted
        # on eviction), which determines how many blocks a probe fetches.
        self._buckets: list = [dict() for _ in range(self.num_buckets)]
        self._clock = 0
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def _bucket_index(self, vpn: int, asid: int, page_size: int) -> int:
        h = (vpn * 0x9E3779B97F4A7C15) ^ (asid * 0xBF58476D1CE4E5B9) ^ page_size
        h ^= h >> 29
        return h & (self.num_buckets - 1)

    def _bucket_paddr(self, bucket_index: int) -> int:
        return self.base_paddr + bucket_index * self.bucket_slots * self.entry_size_bytes

    def _blocks_for_slots(self, slots: int) -> int:
        """Cache blocks covering the first ``slots`` slots (at least one)."""
        return max(1, -(-(slots * self.entry_size_bytes) // self.block_size))

    # ------------------------------------------------------------------ #
    # Lookup / insertion
    # ------------------------------------------------------------------ #
    def lookup(self, vaddr: int, asid: int,
               hierarchy) -> Tuple[Optional[PageTableEntry], int]:
        """Probe the table through ``hierarchy``, the probing core's caches;
        returns ``(pte or None, latency)``."""
        self.stats.lookups += 1
        self._clock += 1
        latency = 0
        found: Optional[PageTableEntry] = None
        for page_size in (PageSize.SIZE_4K, PageSize.SIZE_2M):
            vpn = page_number(vaddr, page_size)
            bucket_index = self._bucket_index(vpn, asid, int(page_size))
            bucket = self._buckets[bucket_index]
            key = (asid, int(page_size), vpn)
            # Slot position decides how deep the sequential fetch goes: a hit
            # stops at its slot's block, a miss scans every occupied slot.
            slots_examined = len(bucket)
            hit: Optional[PageTableEntry] = None
            for position, (slot_key, slot) in enumerate(bucket.items()):
                if slot_key == key and slot[0].valid:
                    hit = slot[0]
                    slots_examined = position + 1
                    bucket[key] = (slot[0], self._clock)
                    break
            blocks = self._blocks_for_slots(slots_examined)
            probe_latency = 0
            base = self._bucket_paddr(bucket_index)
            for block in range(blocks):
                access = hierarchy.access_for_ptw(base + block * self.block_size)
                probe_latency += access.latency
            self.stats.blocks_fetched += blocks
            latency = max(latency, probe_latency)
            if found is None:
                found = hit
        if found is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        self.stats.total_lookup_latency += latency
        return found, latency

    def insert(self, pte: PageTableEntry, asid: int) -> Optional[PageTableEntry]:
        """Install a translation (on the return path of a fallback walk)."""
        self._clock += 1
        key = (asid, int(pte.page_size), pte.vpn)
        bucket = self._buckets[self._bucket_index(pte.vpn, asid, int(pte.page_size))]
        evicted: Optional[PageTableEntry] = None
        if key not in bucket and len(bucket) >= self.bucket_slots:
            victim_key = min(bucket, key=lambda k: bucket[k][1])
            evicted = bucket.pop(victim_key)[0]
            self.stats.evictions += 1
        bucket[key] = (pte, self._clock)
        self.stats.insertions += 1
        return evicted

    def contains(self, vaddr: int, asid: int) -> bool:
        """Residency check without memory accesses or statistics updates."""
        for page_size in (PageSize.SIZE_4K, PageSize.SIZE_2M):
            vpn = page_number(vaddr, page_size)
            bucket = self._buckets[self._bucket_index(vpn, asid, int(page_size))]
            if (asid, int(page_size), vpn) in bucket:
                return True
        return False

    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)

    # ------------------------------------------------------------------ #
    # Invalidation (TLB maintenance reaches the table like any other
    # translation structure — unlike the radix table, stale hashed entries
    # would be served directly, so shootdowns must drop them).
    # ------------------------------------------------------------------ #
    def invalidate_page(self, vaddr: int, asid: int) -> int:
        dropped = 0
        for page_size in (PageSize.SIZE_4K, PageSize.SIZE_2M):
            vpn = page_number(vaddr, page_size)
            bucket = self._buckets[self._bucket_index(vpn, asid, int(page_size))]
            if bucket.pop((asid, int(page_size), vpn), None) is not None:
                dropped += 1
        return dropped

    def invalidate_asid(self, asid: int) -> int:
        dropped = 0
        for bucket in self._buckets:
            stale = [key for key in bucket if key[0] == asid]
            for key in stale:
                del bucket[key]
            dropped += len(stale)
        return dropped

    def invalidate_all(self) -> int:
        dropped = self.occupancy()
        for bucket in self._buckets:
            bucket.clear()
        return dropped


class HashedPageTableBackend(TranslationBackend):
    """Hashed page table probed on every L2 TLB miss; radix walk as fallback."""

    def __init__(self, hash_pt: HashedPageTable, hierarchy, walker, page_table):
        #: The machine's table, shared by every core.
        self.hash_pt = hash_pt
        #: This core's caches, which every probe of the table goes through.
        self.hierarchy = hierarchy
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        pte, probe_latency = self.hash_pt.lookup(vaddr, asid, self.hierarchy)
        breakdown["hash_pt"] = probe_latency
        if pte is not None:
            # The hashed probe *is* the page walk for this baseline, so it
            # reports as a (cheap) walk — results keep their schema.
            return MissResolution(ServedBy.PAGE_WALK, pte, probe_latency, breakdown)
        # Demand-mapped page never walked before: resolve through the radix
        # walker once and install, as the OS would on a hashed-PT miss fault.
        walk = self.walker.walk(self.page_table, vaddr)
        self.hash_pt.insert(walk.pte, asid)
        breakdown["walk"] = walk.latency
        return MissResolution(ServedBy.PAGE_WALK, walk.pte,
                              probe_latency + walk.latency, breakdown)

    def warm_start(self, page_table) -> None:
        """The hashed table mirrors the OS page table, so it starts warm:
        one ``insert`` per entry of ``page_table.all_entries()``, in order."""
        for pte in page_table.all_entries():
            self.hash_pt.insert(pte, pte.asid)

    def invalidate_page(self, vaddr: int, asid: int) -> int:
        return self.hash_pt.invalidate_page(vaddr, asid)

    def invalidate_asid(self, asid: int) -> int:
        return self.hash_pt.invalidate_asid(asid)

    def invalidate_all(self) -> int:
        return self.hash_pt.invalidate_all()


# --------------------------------------------------------------------------- #
# Registration
# --------------------------------------------------------------------------- #
def _make_table(ctx: BuildContext) -> HashedPageTable:
    return HashedPageTable(ctx.physical,
                           entries=ctx.config.hash_pt.entries,
                           bucket_slots=ctx.config.hash_pt.bucket_slots,
                           entry_size_bytes=ctx.config.hash_pt.entry_size_bytes)


def _build_hash_pt(ctx: BuildContext) -> HashedPageTableBackend:
    return HashedPageTableBackend(ctx.shared, ctx.hierarchy, ctx.walker, ctx.page_table)


register_backend(BackendSpec(
    name="hash_pt", label="Hashed PT",
    summary="Open-hash page table in memory: one hashed bucket probe per walk.",
    build=_build_hash_pt,
    build_shared=_make_table))
