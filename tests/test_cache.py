"""Unit tests for repro.cache: blocks, cache, replacement, prefetchers, hierarchy."""

import dataclasses

import pytest

from repro.cache.block import BlockKind, CacheBlock, data_key, nested_tlb_key, tlb_key
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy, MemoryLevel
from repro.cache.prefetcher import IPStridePrefetcher, StreamPrefetcher
from repro.cache.replacement import (
    LRUPolicy,
    SRRIPPolicy,
    TLBAwareSRRIPPolicy,
    make_policy,
)
from repro.common.addresses import PageSize
from repro.common.errors import ConfigurationError
from repro.common.stats import StatsRegistry
from repro.memory.dram import DramModel


def _data_block(paddr: int) -> CacheBlock:
    return CacheBlock(key=data_key(paddr), kind=BlockKind.DATA)


def _tlb_block(vpn: int, asid: int = 0, payload=None) -> CacheBlock:
    return CacheBlock(key=tlb_key(vpn, asid, PageSize.SIZE_4K), kind=BlockKind.TLB,
                      asid=asid, page_size=PageSize.SIZE_4K, payload=payload)


class TestCacheKeys:
    def test_data_key_distinguishes_blocks(self):
        assert data_key(0x1000) != data_key(0x1040)
        assert data_key(0x1000) == data_key(0x103F)

    def test_tlb_key_covers_cluster(self):
        assert tlb_key(0x1000, 0, PageSize.SIZE_4K) == tlb_key(0x1007, 0, PageSize.SIZE_4K)
        assert tlb_key(0x1000, 0, PageSize.SIZE_4K) != tlb_key(0x1008, 0, PageSize.SIZE_4K)

    def test_tlb_key_asid_and_size_disambiguate(self):
        assert tlb_key(0x10, 0, PageSize.SIZE_4K) != tlb_key(0x10, 1, PageSize.SIZE_4K)
        assert tlb_key(0x10, 0, PageSize.SIZE_4K) != tlb_key(0x10, 0, PageSize.SIZE_2M)

    def test_nested_key_namespace_is_distinct(self):
        assert nested_tlb_key(0x10, 0, PageSize.SIZE_4K) != tlb_key(0x10, 0, PageSize.SIZE_4K)

    def test_find_translation_uses_low_vpn_bits(self):
        payload = [f"pte{i}" for i in range(8)]
        block = _tlb_block(0x1000, payload=payload)
        assert block.find_translation(0x1003) == "pte3"

    def test_find_translation_missing_slot(self):
        payload = [None] * 8
        block = _tlb_block(0x1000, payload=payload)
        assert block.find_translation(0x1003) is None


class TestCacheBasics:
    def test_insert_then_lookup_hits(self, small_cache):
        small_cache.insert(_data_block(0x1000))
        assert small_cache.lookup(data_key(0x1000)) is not None
        assert small_cache.stats.hits == 1

    def test_lookup_miss_counts(self, small_cache):
        assert small_cache.lookup(data_key(0x2000)) is None
        assert small_cache.stats.misses == 1

    def test_contains_has_no_side_effects(self, small_cache):
        small_cache.insert(_data_block(0x1000))
        small_cache.contains(data_key(0x1000))
        assert small_cache.stats.accesses == 0

    def test_eviction_when_set_full(self, small_cache):
        # All these addresses map to the same set (same low block-number bits).
        addresses = [0x0 + i * 64 * small_cache.num_sets for i in range(5)]
        for addr in addresses:
            small_cache.insert(_data_block(addr))
        assert small_cache.stats.evictions == 1
        assert small_cache.occupancy() == 4

    def test_lru_evicts_least_recently_used(self, small_cache):
        stride = 64 * small_cache.num_sets
        addresses = [i * stride for i in range(4)]
        for addr in addresses:
            small_cache.insert(_data_block(addr))
        small_cache.lookup(data_key(addresses[0]))  # refresh the oldest
        small_cache.insert(_data_block(4 * stride))
        assert small_cache.contains(data_key(addresses[0]))
        assert not small_cache.contains(data_key(addresses[1]))

    def test_reinsert_does_not_evict(self, small_cache):
        small_cache.insert(_data_block(0x1000))
        evicted = small_cache.insert(_data_block(0x1000))
        assert evicted is None
        assert small_cache.occupancy() == 1

    def test_invalidate(self, small_cache):
        small_cache.insert(_data_block(0x1000))
        assert small_cache.invalidate(data_key(0x1000))
        assert not small_cache.contains(data_key(0x1000))
        assert not small_cache.invalidate(data_key(0x1000))

    def test_invalidate_matching(self, small_cache):
        small_cache.insert(_data_block(0x1000))
        small_cache.insert(_tlb_block(0x55))
        removed = small_cache.invalidate_matching(lambda b: b.is_tlb_block)
        assert removed == 1
        assert small_cache.occupancy(BlockKind.TLB) == 0
        assert small_cache.occupancy(BlockKind.DATA) == 1

    def test_reuse_histogram_recorded_on_eviction(self, small_cache):
        small_cache.insert(_data_block(0x1000))
        small_cache.lookup(data_key(0x1000))
        small_cache.lookup(data_key(0x1000))
        small_cache.invalidate(data_key(0x1000))
        histogram = small_cache.stats.reuse_distribution(BlockKind.DATA)
        assert histogram == {2: 1}

    def test_mixed_kinds_coexist(self, small_cache):
        small_cache.insert(_data_block(0x1000))
        small_cache.insert(_tlb_block(0x10))
        assert small_cache.occupancy() == 2
        assert small_cache.stats.tlb_block_fills == 1

    def test_data_fill_reuses_evicted_tlb_block_without_its_state(self):
        # One way per set: the data fill evicts the TLB block in its set and
        # turns that very object into the new data block.
        cache = Cache("direct", size_bytes=4 * 64, associativity=1, latency=1)
        tlb_block = _tlb_block(0, asid=3, payload=[f"pte{i}" for i in range(8)])
        cache.insert(tlb_block)
        cache.lookup(tlb_block.key)
        cache.lookup(tlb_block.key)
        cache.fill(data_key(0x1000), dirty=True, prefetched=True)

        assert cache.peek(data_key(0x1000)) is tlb_block
        assert tlb_block.key == data_key(0x1000)
        assert tlb_block.kind is BlockKind.DATA
        assert tlb_block.is_tlb_block is False
        assert tlb_block.payload is None
        assert tlb_block.asid is None
        assert tlb_block.page_size is None
        assert tlb_block.reuse_count == 0
        assert tlb_block.dirty is True
        assert tlb_block.prefetched is True
        stats = cache.stats
        assert stats.reuse_distribution(BlockKind.TLB) == {2: 1}
        assert stats.reuse_distribution(BlockKind.DATA) == {}
        assert (stats.evictions, stats.tlb_block_evictions) == (1, 1)
        assert (stats.fills, stats.tlb_block_fills, stats.prefetch_fills) == (2, 1, 1)
        assert cache.resident_blocks(BlockKind.TLB) == []
        assert cache.resident_blocks(BlockKind.DATA) == [tlb_block]

    def test_fill_into_a_free_way_builds_a_data_block(self, small_cache):
        small_cache.fill(data_key(0x1000))
        block = small_cache.peek(data_key(0x1000))
        assert block.kind is BlockKind.DATA and not block.dirty and not block.prefetched
        assert small_cache.stats.fills == 1 and small_cache.stats.evictions == 0

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            Cache("bad", size_bytes=1000, associativity=4, latency=1)

    def test_total_blocks(self, small_cache):
        assert small_cache.total_blocks == 16


class TestReplacementPolicies:
    def test_make_policy_names(self, high_pressure):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("srrip"), SRRIPPolicy)
        assert isinstance(make_policy("tlb_aware_srrip", high_pressure), TLBAwareSRRIPPolicy)

    def test_tlb_aware_requires_pressure(self):
        with pytest.raises(ConfigurationError):
            make_policy("tlb_aware_srrip")

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_policy("random")

    def test_srrip_inserts_distant(self, srrip_cache):
        block = _data_block(0x1000)
        srrip_cache.insert(block)
        assert block.rrpv == 3

    def test_srrip_promotes_on_hit(self, srrip_cache):
        block = _data_block(0x1000)
        srrip_cache.insert(block)
        srrip_cache.lookup(data_key(0x1000))
        assert block.rrpv == 2

    def test_tlb_aware_inserts_tlb_blocks_with_high_priority(self, high_pressure):
        cache = Cache("v", 4 * 4 * 64, 4, 10,
                      replacement_policy=TLBAwareSRRIPPolicy(high_pressure))
        tlb_block = _tlb_block(0x10)
        data_block = _data_block(0x1000)
        cache.insert(tlb_block)
        cache.insert(data_block)
        assert tlb_block.rrpv == 0
        assert data_block.rrpv == 3

    def test_tlb_aware_without_pressure_behaves_like_srrip(self, low_pressure):
        cache = Cache("v", 4 * 4 * 64, 4, 10,
                      replacement_policy=TLBAwareSRRIPPolicy(low_pressure))
        tlb_block = _tlb_block(0x10)
        cache.insert(tlb_block)
        assert tlb_block.rrpv == 3

    def test_tlb_aware_victim_prefers_data_blocks(self, high_pressure):
        cache = Cache("v", 4 * 4 * 64, 4, 10,
                      replacement_policy=TLBAwareSRRIPPolicy(high_pressure))
        stride = cache.num_sets  # cluster index stride mapping to set 0
        tlb_blocks = [_tlb_block(i * 8 * stride) for i in range(3)]
        for block in tlb_blocks:
            cache.insert(block)
            block.rrpv = 3  # age them artificially so they look like victims
        data_block = _data_block(0)
        cache.insert(data_block)
        data_block.rrpv = 3
        # Next insertion to the same set must evict the data block, not a TLB block.
        newcomer = _tlb_block(99 * 8 * stride)
        cache.insert(newcomer)
        assert not cache.contains(data_key(0))
        assert all(cache.contains(b.key) for b in tlb_blocks)

    def test_srrip_ages_the_set_at_once_and_evicts_the_first_oldest(self, srrip_cache):
        # Listing 1 ages [1, 2, 0, 2] by one until some block is distant:
        # way 1 is then the first distant block.
        stride = 64 * srrip_cache.num_sets
        blocks = [_data_block(way * stride) for way in range(4)]
        for block, rrpv in zip(blocks, (1, 2, 0, 2)):
            srrip_cache.insert(block)
            block.rrpv = rrpv
        srrip_cache.fill(data_key(4 * stride))
        # The fill reuses the evicted object, so residency is checked by key.
        assert [srrip_cache.contains(data_key(way * stride)) for way in range(4)] == [
            True, False, True, True]
        assert [blocks[way].rrpv for way in (0, 2, 3)] == [2, 1, 3]

    def test_tlb_aware_skips_a_distant_tlb_block_under_pressure(self, high_pressure):
        cache = Cache("v", 4 * 4 * 64, 4, 10,
                      replacement_policy=TLBAwareSRRIPPolicy(high_pressure))
        stride = cache.num_sets
        ways = [_tlb_block(0), _data_block(1 * 64 * stride),
                _data_block(2 * 64 * stride), _tlb_block(8 * stride)]
        keys = [block.key for block in ways]
        for block, rrpv in zip(ways, (3, 1, 2, 0)):
            cache.insert(block)
            block.rrpv = rrpv
        cache.fill(data_key(3 * 64 * stride))
        # Way 0 is the first distant block but a TLB block: the one more
        # attempt takes the non-TLB block with the highest RRPV.
        assert [cache.contains(key) for key in keys] == [True, True, False, True]
        assert cache.stats.reuse_distribution(BlockKind.DATA) == {0: 1}

    def test_tlb_aware_hit_promotion_is_stronger(self, high_pressure):
        cache = Cache("v", 4 * 4 * 64, 4, 10,
                      replacement_policy=TLBAwareSRRIPPolicy(high_pressure))
        tlb_block = _tlb_block(0x10)
        cache.insert(tlb_block)
        tlb_block.rrpv = 3
        cache.lookup(tlb_block.key)
        assert tlb_block.rrpv == 0


class TestPrefetchers:
    def test_ip_stride_learns_stride(self):
        prefetcher = IPStridePrefetcher(degree=2, confidence_threshold=2)
        prefetches = []
        for i in range(6):
            prefetches = prefetcher.observe(ip=0x400, paddr=0x1000 + i * 64)
        assert prefetches == [0x1000 + 6 * 64, 0x1000 + 7 * 64]

    def test_ip_stride_no_prefetch_for_random(self):
        prefetcher = IPStridePrefetcher()
        addresses = [0x1000, 0x5000, 0x2000, 0x9000, 0x100]
        results = [prefetcher.observe(0x400, a) for a in addresses]
        assert results[-1] == []

    def test_stream_prefetcher_detects_sequential_blocks(self):
        prefetcher = StreamPrefetcher(degree=2, train_length=2)
        prefetches = []
        for i in range(5):
            prefetches = prefetcher.observe(ip=0, paddr=0x10000 + i * 64)
        assert len(prefetches) == 2
        assert prefetches[0] == 0x10000 + 5 * 64

    def test_ip_stride_prefetches_one_stride_ahead(self):
        prefetcher = IPStridePrefetcher(degree=1, confidence_threshold=1)
        targets = [prefetcher.observe(0x1, 0x1000 + i * 64) for i in range(4)]
        # The first access fills the entry and the second learns the stride;
        # from the third on, each access prefetches one stride ahead.
        assert targets == [[], [], [0x1000 + 3 * 64], [0x1000 + 4 * 64]]


class TestHierarchy:
    def _make(self, with_prefetchers=False):
        l1d = Cache("L1D", 1024, 4, 4)
        l2 = Cache("L2", 8192, 8, 16)
        l3 = Cache("L3", 16384, 8, 35)
        dram = DramModel()
        return CacheHierarchy(
            l1d, l2, l3, dram,
            l1d_prefetcher=IPStridePrefetcher() if with_prefetchers else None,
            l2_prefetcher=StreamPrefetcher() if with_prefetchers else None)

    def test_first_access_goes_to_dram(self):
        hierarchy = self._make()
        result = hierarchy.access(0x1000)
        assert result.level is MemoryLevel.DRAM
        assert result.latency > 35
        assert result.dram_accesses == 1

    def test_second_access_hits_l1(self):
        hierarchy = self._make()
        hierarchy.access(0x1000)
        result = hierarchy.access(0x1000)
        assert result.level is MemoryLevel.L1
        assert result.latency == 4

    def test_results_are_shared_and_frozen(self):
        hierarchy = self._make()
        first = hierarchy.access(0x1000)
        assert hierarchy.access(0x1000) is hierarchy.access(0x1000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.latency = 0
        assert hierarchy.access(0x1000).latency == 4

    def test_ptw_access_starts_at_l2(self):
        hierarchy = self._make()
        hierarchy.access_for_ptw(0x2000)
        result = hierarchy.access_for_ptw(0x2000)
        assert result.level is MemoryLevel.L2
        assert hierarchy.l1d.stats.accesses == 0

    def test_fill_is_inclusive(self):
        hierarchy = self._make()
        hierarchy.access(0x3000)
        assert hierarchy.l2.contains(data_key(0x3000))
        assert hierarchy.l3.contains(data_key(0x3000))

    def test_writes_mark_dirty(self):
        hierarchy = self._make()
        hierarchy.access(0x1000, write=True)
        block = hierarchy.l1d.peek(data_key(0x1000))
        assert block is not None and block.dirty

    def test_prefetchers_fill_without_latency(self):
        hierarchy = self._make(with_prefetchers=True)
        for i in range(8):
            hierarchy.access(0x10000 + i * 64, ip=0x400)
        # The next sequential block should have been prefetched into L1D or L2.
        next_key = data_key(0x10000 + 8 * 64)
        assert hierarchy.l1d.contains(next_key) or hierarchy.l2.contains(next_key)

    def test_reset_stats(self):
        # The hierarchy keeps no reset of its own: each level registers with
        # the active stats registry, whose reset_all() zeroes every level.
        registry = StatsRegistry()
        with registry.activate():
            hierarchy = self._make()
        hierarchy.access(0x1000)
        registry.reset_all()
        assert hierarchy.l1d.stats.accesses == 0
        assert hierarchy.l2.stats.accesses == 0
        assert hierarchy.l3.stats.accesses == 0
        assert hierarchy.dram.stats.accesses == 0

    def test_levels_list(self):
        # Every level, DRAM included, is in the registry, so a warm-up reset
        # reaches each of them.
        registry = StatsRegistry()
        with registry.activate():
            hierarchy = self._make()
        assert registry.components() == [hierarchy.l1d, hierarchy.l2,
                                          hierarchy.l3, hierarchy.dram]
