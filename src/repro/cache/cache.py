"""Set-associative cache model.

The cache stores :class:`~repro.cache.block.CacheBlock` objects in sets.  It is
kind-agnostic: conventional data blocks and Victima TLB / nested-TLB blocks
live side by side in the same sets and compete through the replacement policy,
which is exactly the property the paper exploits.

The cache is a *functional + latency* model: it tracks residency, replacement
state, reuse and statistics, and reports a fixed access latency; bandwidth and
MSHR contention are not modelled (see ARCHITECTURE.md, "Scaled simulation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.addresses import is_power_of_two
from repro.common.errors import ConfigurationError
from repro.common.stats import ResettableStats
from repro.cache.block import BlockKind, CacheBlock, CacheKey
from repro.cache.replacement import LRUPolicy, ReplacementPolicy

_DATA = BlockKind.DATA


@dataclass
class CacheStats:
    """Aggregate statistics for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    fills: int = 0
    writebacks: int = 0
    tlb_block_hits: int = 0
    tlb_block_fills: int = 0
    tlb_block_evictions: int = 0
    prefetch_fills: int = 0
    # Reuse histograms keyed by block kind name (``BlockKind.value``) then by
    # reuse count (recorded at eviction time); used for Figures 11 and 24.
    reuse_histogram: Dict[str, Dict[int, int]] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reuse_distribution(self, kind: BlockKind) -> Dict[int, int]:
        return dict(self.reuse_histogram.get(kind.value, {}))


class CacheSet:
    """One set: a list of ways plus the per-set replacement state.

    ``tags`` maps the tag of every resident block to its way index, making
    the residency probe on the simulator's hot path a single dictionary
    lookup instead of an associativity-wide scan.  The cache keeps the map
    in sync on every insert/evict/invalidate; replacement policies only ever
    read ``ways``.
    """

    __slots__ = ("ways", "access_counter", "tags")

    def __init__(self, associativity: int):
        self.ways: List[Optional[CacheBlock]] = [None] * associativity
        self.access_counter = 0
        self.tags: Dict[tuple, int] = {}

    def find(self, tag: tuple) -> Optional[int]:
        return self.tags.get(tag)

    def first_invalid(self) -> Optional[int]:
        for way, block in enumerate(self.ways):
            if block is None:
                return way
        return None


class Cache(ResettableStats):
    """A single level of set-associative cache."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        latency: int,
        block_size: int = 64,
        replacement_policy: Optional[ReplacementPolicy] = None,
    ):
        if size_bytes % (associativity * block_size) != 0:
            raise ConfigurationError(
                f"{name}: size {size_bytes} is not a multiple of "
                f"associativity*block_size ({associativity}*{block_size})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_size = block_size
        self.latency = latency
        self.num_sets = size_bytes // (associativity * block_size)
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{name}: number of sets ({self.num_sets}) must be a power of two")
        self.policy = replacement_policy or LRUPolicy()
        self.stats = CacheStats()
        self._sets: List[CacheSet] = [CacheSet(associativity) for _ in range(self.num_sets)]
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def set_index(self, key: CacheKey) -> int:
        return key[0] & (self.num_sets - 1)

    def _set_for(self, key: CacheKey) -> CacheSet:
        return self._sets[self.set_index(key)]

    # ------------------------------------------------------------------ #
    # Lookup / insert / invalidate
    # ------------------------------------------------------------------ #
    def lookup(self, key: CacheKey, count_access: bool = True) -> Optional[CacheBlock]:
        """Look ``key`` up; on a hit update replacement state and reuse."""
        # Hot path: one dict probe (no _set_for/find calls) because this
        # runs several times per simulated memory reference.
        cache_set = self._sets[key[0] & (self.num_sets - 1)]
        stats = self.stats
        if count_access:
            stats.accesses += 1
        way = cache_set.tags.get(key[1])
        if way is None:
            if count_access:
                stats.misses += 1
            return None
        block = cache_set.ways[way]
        if count_access:
            stats.hits += 1
            if block.is_tlb_block:
                stats.tlb_block_hits += 1
        block.reuse_count += 1
        if block.prefetched:
            block.prefetched = False
        self.policy.on_hit(cache_set, block)
        return block

    def contains(self, key: CacheKey) -> bool:
        """Residency check with no statistics or replacement side effects."""
        return key[1] in self._sets[key[0] & (self.num_sets - 1)].tags

    def peek(self, key: CacheKey) -> Optional[CacheBlock]:
        """Return the resident block for ``key`` without any side effects."""
        cache_set = self._set_for(key)
        way = cache_set.find(key[1])
        return cache_set.ways[way] if way is not None else None

    def insert(self, block: CacheBlock, prefetched: bool = False) -> Optional[CacheBlock]:
        """Insert the prebuilt ``block``; returns the evicted block, if any.

        Victima builds its TLB blocks itself; data fills go through
        :meth:`fill`.  If a block with the same tag is already resident it is
        overwritten in place (refreshing its payload) and nothing is evicted.
        """
        cache_set = self._sets[block.key[0] & (self.num_sets - 1)]
        block.prefetched = prefetched
        existing_way = cache_set.tags.get(block.tag)
        if existing_way is not None:
            old = cache_set.ways[existing_way]
            assert old is not None
            block.reuse_count = old.reuse_count
            block.rrpv = old.rrpv
            block.last_touch = old.last_touch
            cache_set.ways[existing_way] = block
            return None
        way = self._claim_way(cache_set)
        evicted = cache_set.ways[way]
        cache_set.ways[way] = block
        cache_set.tags[block.tag] = way
        self.policy.on_insert(cache_set, block)
        stats = self.stats
        stats.fills += 1
        if prefetched:
            stats.prefetch_fills += 1
        if block.is_tlb_block:
            stats.tlb_block_fills += 1
        return evicted

    def fill(self, key: CacheKey, dirty: bool = False, prefetched: bool = False) -> None:
        """Fill a data block for ``key``, which the caller just missed on.

        A fill that evicts reuses the evicted block object, reset to a fresh
        data block; only a fill into a free way allocates one.
        """
        cache_set = self._sets[key[0] & (self.num_sets - 1)]
        way = self._claim_way(cache_set)
        block = cache_set.ways[way]
        if block is None:
            block = cache_set.ways[way] = CacheBlock(key, _DATA, dirty,
                                                     prefetched=prefetched)
        else:
            block.reset_as_data(key, dirty, prefetched)
        cache_set.tags[key[1]] = way
        self.policy.on_insert(cache_set, block)
        stats = self.stats
        stats.fills += 1
        if prefetched:
            stats.prefetch_fills += 1

    def _claim_way(self, cache_set: CacheSet) -> int:
        """The way a fill takes: a free one or, in a full set, the policy's
        victim, whose eviction is booked here."""
        tags = cache_set.tags
        # A full set (every tag resident) cannot have an invalid way; skip
        # the associativity-wide scan in that common steady-state case.
        if len(tags) < self.associativity:
            return cache_set.first_invalid()
        way = self.policy.select_victim(cache_set)
        victim = cache_set.ways[way]
        del tags[victim.tag]
        self._record_eviction(victim)
        return way

    def invalidate(self, key: CacheKey) -> bool:
        """Remove the block for ``key`` if resident.  Returns True if removed."""
        cache_set = self._set_for(key)
        way = cache_set.tags.pop(key[1], None)
        if way is None:
            return False
        block = cache_set.ways[way]
        cache_set.ways[way] = None
        assert block is not None
        self._record_eviction(block)
        return True

    def invalidate_matching(self, predicate: Callable[[CacheBlock], bool]) -> int:
        """Invalidate every resident block for which ``predicate`` is true.

        Used by TLB shootdowns and context-switch flushes (Section 6): e.g.
        "all TLB blocks", "all TLB blocks with ASID x", or "the TLB block
        covering virtual page v".
        """
        removed = 0
        for cache_set in self._sets:
            for way, block in enumerate(cache_set.ways):
                if block is not None and predicate(block):
                    cache_set.ways[way] = None
                    del cache_set.tags[block.tag]
                    self._record_eviction(block)
                    removed += 1
        return removed

    def _record_eviction(self, block: CacheBlock) -> None:
        stats = self.stats
        stats.evictions += 1
        if block.dirty:
            stats.writebacks += 1
        if block.is_tlb_block:
            stats.tlb_block_evictions += 1
        # ``_value_`` is the member's value without the (Python-level)
        # ``Enum.value`` descriptor call; evictions are per-access work.
        name = block.kind._value_
        per_kind = stats.reuse_histogram.get(name)
        if per_kind is None:
            per_kind = stats.reuse_histogram[name] = {}
        reuse = block.reuse_count
        per_kind[reuse] = per_kind.get(reuse, 0) + 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def resident_blocks(self, kind: Optional[BlockKind] = None) -> List[CacheBlock]:
        return [block for cache_set in self._sets for block in cache_set.ways
                if block is not None and (kind is None or block.kind is kind)]

    def occupancy(self, kind: Optional[BlockKind] = None) -> int:
        """Number of resident blocks, optionally restricted to one kind."""
        return len(self.resident_blocks(kind))

    @property
    def total_blocks(self) -> int:
        return self.num_sets * self.associativity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.size_bytes >> 10}KB, {self.associativity}-way, "
            f"{self.latency}-cycle, policy={self.policy.name})"
        )
