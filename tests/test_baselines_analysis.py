"""Unit tests for the baselines (POM-TLB, large TLBs) and repro.analysis."""

import pytest

from repro.analysis.cacti import (
    PAPER_REALISTIC_LATENCIES,
    tlb_access_latency,
    tlb_area_mm2,
    tlb_power_mw,
)
from repro.analysis.mcpat import victima_overheads
from repro.analysis.metrics import (
    arithmetic_mean,
    geometric_mean,
    histogram_fraction,
    percent_reduction,
    reuse_buckets,
)
from repro.analysis.report import format_markdown_table, format_table
from repro.baselines.pom_tlb import POMTLB
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.common.addresses import PageSize
from repro.memory.dram import DramModel
from repro.memory.page_table import RadixPageTable
from repro.memory.physical import PhysicalMemory
from repro.sim.presets import make_system_config
from repro.sim.system import build_system


def make_hierarchy():
    l1d = Cache("L1D", 1024, 4, 4)
    l2 = Cache("L2", 8192, 8, 16)
    return CacheHierarchy(l1d, l2, None, DramModel())


class TestPOMTLB:
    def test_requires_contiguous_reservation(self):
        physical = PhysicalMemory(4 << 30)
        pom = POMTLB(physical, entries=1024, associativity=16)
        assert physical.reserved_regions[0][2] == "pom-tlb"
        assert pom.size_bytes == 1024 * 16

    def test_miss_then_hit(self, page_table):
        physical = PhysicalMemory(4 << 30)
        pom = POMTLB(physical, entries=1024, associativity=16)
        hierarchy = make_hierarchy()
        pte = page_table.map_page(vpn=0x123, pfn=0x5)
        found, latency = pom.lookup(0x123 << 12, asid=0, hierarchy=hierarchy)
        assert found is None and latency > 0
        pom.insert(pte, asid=0)
        found, latency = pom.lookup(0x123 << 12, asid=0, hierarchy=hierarchy)
        assert found is pte
        assert pom.stats.hits == 1

    def test_lookup_latency_uses_memory_hierarchy(self, page_table):
        physical = PhysicalMemory(4 << 30)
        hierarchy = make_hierarchy()
        pom = POMTLB(physical, entries=1024, associativity=16)
        _, first_latency = pom.lookup(0x1000, asid=0, hierarchy=hierarchy)
        _, second_latency = pom.lookup(0x1000, asid=0, hierarchy=hierarchy)
        assert second_latency <= first_latency  # the set block is now cached

    def test_eviction_within_set(self, page_table):
        physical = PhysicalMemory(4 << 30)
        pom = POMTLB(physical, entries=32, associativity=2)
        sets = pom.num_sets
        vpns = [i * sets for i in range(3)]
        for vpn in vpns:
            pom.insert(page_table.map_page(vpn=vpn, pfn=vpn + 1), asid=0)
        assert pom.stats.evictions == 1
        assert pom.occupancy() == 2

    def test_contains(self, page_table):
        physical = PhysicalMemory(4 << 30)
        pom = POMTLB(physical, entries=64, associativity=4)
        pte = page_table.map_page(vpn=0x1, pfn=0x1)
        assert not pom.contains(0x1 << 12, asid=0)
        pom.insert(pte, asid=0)
        assert pom.contains(0x1 << 12, asid=0)

    def test_2m_pages(self, page_table):
        physical = PhysicalMemory(4 << 30)
        pom = POMTLB(physical, entries=64, associativity=4)
        pte = page_table.map_page(vpn=0x3, pfn=0x9, page_size=PageSize.SIZE_2M)
        pom.insert(pte, asid=0)
        found, _ = pom.lookup((0x3 << 21) + 999, asid=0, hierarchy=make_hierarchy())
        assert found is pte


    def test_warm_start_moves_resident_keys_as_insert_does(self):
        # Twin tables: 4K pages 0x400-0x414 (all but the first packed) and a
        # 2 MB page, into 4 sets of 4 ways.  Sets 1 and 2 already hold keys
        # of the table out of order, so the first warm start re-inserts them
        # while resident; the second one thrashes every set.
        poms, tables = [], []
        for _ in range(2):
            table = RadixPageTable(PhysicalMemory(1 << 30))
            table.map_page(vpn=0x400, pfn=0x1)
            table.map_4k_run(0x401, [0x70 + i for i in range(0x14)])
            table.map_page(vpn=0x3, pfn=0x9, page_size=PageSize.SIZE_2M)
            pom = POMTLB(PhysicalMemory(1 << 30), entries=16, associativity=4)
            for vpn in (0x409, 0x401, 0x406):
                pom.insert(table.lookup(vpn << 12), asid=0)
            poms.append(pom)
            tables.append(table)
        warm, reference = poms
        for _ in range(2):
            warm.warm_start(tables[0])
            for pte in tables[1].all_entries():
                reference.insert(pte, pte.asid)
            assert [list(s) for s in warm._sets] == [list(s) for s in reference._sets]
            assert warm.stats == reference.stats
        assert (warm.stats.insertions, warm.stats.evictions) == (3 + 2 * 22, 6 + 22)
        # Pages 0x402-0x404 never stayed resident, so they are still packed.
        assert {vpn for vpn, _, pte in tables[0].leaves() if pte is None} == {
            0x402, 0x403, 0x404}


class TestLargeTLBs:
    """The large-TLB baselines of Figure 8, as the system factory builds them."""

    def test_baseline_l2_tlb(self):
        tlb = build_system(make_system_config("radix")).cores[0].l2_tlb
        assert tlb.entries == 1536 and tlb.latency == 12

    def test_optimistic_keeps_baseline_latency(self):
        tlb = build_system(make_system_config("opt_l2tlb_64k")).cores[0].l2_tlb
        assert tlb.latency == 12
        assert tlb.entries == 64 * 1024

    def test_realistic_uses_cacti_latency(self):
        tlb = build_system(make_system_config("real_l2tlb_64k")).cores[0].l2_tlb
        assert tlb.latency == 39

    def test_l3_tlb(self):
        tlb = build_system(make_system_config("opt_l3tlb_64k", l3_latency=25)).backend.l3_tlb
        assert tlb.latency == 25 and tlb.entries == 64 * 1024


class TestCacti:
    def test_paper_quoted_points(self):
        for entries, latency in PAPER_REALISTIC_LATENCIES.items():
            assert tlb_access_latency(entries) == latency

    def test_latency_monotonic_in_size(self):
        sizes = [1536, 4096, 16384, 65536, 262144]
        latencies = [tlb_access_latency(s) for s in sizes]
        assert latencies == sorted(latencies)

    def test_baseline_latency(self):
        assert tlb_access_latency(1536) == 12
        assert tlb_access_latency(512) == 12

    def test_area_and_power_scale_with_size(self):
        assert tlb_area_mm2(64 * 1024) > 10 * tlb_area_mm2(1536)
        assert tlb_power_mw(64 * 1024) > 10 * tlb_power_mw(1536)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            tlb_access_latency(0)
        with pytest.raises(ValueError):
            tlb_area_mm2(-1)


class TestMcpat:
    def test_overheads_match_paper_order_of_magnitude(self):
        report = victima_overheads()
        assert report.extra_storage_bytes == 8 * 1024
        assert 0.2 <= report.storage_overhead_of_l2 * 100 <= 0.6
        assert 0.01 <= report.area_overhead_fraction * 100 <= 0.1
        assert 0.02 <= report.power_overhead_fraction * 100 <= 0.2

    def test_overhead_scales_with_cache_size(self):
        small = victima_overheads(l2_cache_bytes=1 * 1024 * 1024)
        large = victima_overheads(l2_cache_bytes=8 * 1024 * 1024)
        assert large.extra_storage_bytes == 8 * small.extra_storage_bytes

    def test_as_dict(self):
        data = victima_overheads().as_dict()
        assert "area_overhead_percent" in data and "power_overhead_percent" in data


class TestMetrics:
    def test_percent_reduction(self):
        assert percent_reduction(100, 50) == 50.0
        assert percent_reduction(0, 50) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_histogram_fraction(self):
        histogram = {0: 5, 3: 3, 25: 2}
        assert histogram_fraction(histogram, 0, 1) == 0.5
        assert histogram_fraction(histogram, 20, float("inf")) == 0.2
        assert histogram_fraction({}, 0, 1) == 0.0

    def test_reuse_buckets_sum_to_one(self):
        buckets = reuse_buckets({0: 10, 2: 5, 7: 3, 15: 1, 100: 1})
        assert sum(buckets.values()) == pytest.approx(1.0)
        assert buckets["0"] == 0.5


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_markdown_table(self):
        markdown = format_markdown_table(["a"], [[1]])
        assert markdown.splitlines()[1] == "|---|"
