"""Unit tests for repro.mmu: TLBs, PWCs, the page-table walker, MMU, maintenance."""

import pytest

from repro import api
from repro.backends import L3TLBBackend, RadixBackend
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.common.addresses import PageSize
from repro.common.errors import ConfigurationError
from repro.common.pressure import PressureMonitor
from repro.memory.dram import DramModel
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.physical import PhysicalMemory
from repro.mmu.maintenance import TLBMaintenance
from repro.mmu.mmu import MMU, ServedBy
from repro.mmu.page_walker import PageTableWalker
from repro.mmu.pwc import PageWalkCaches
from repro.mmu.tlb import TLB
from tests.conftest import allocator_state, page_table_state, translate_counted

BOTH = (PageSize.SIZE_4K, PageSize.SIZE_2M)


def make_hierarchy():
    l1d = Cache("L1D", 1024, 4, 4)
    l2 = Cache("L2", 8192, 8, 16)
    l3 = Cache("L3", 16384, 8, 35)
    return CacheHierarchy(l1d, l2, l3, DramModel())


def make_mmu(physical=None, l3_tlb=None, huge_fraction=0.0):
    physical = physical or PhysicalMemory(4 << 30)
    hierarchy = make_hierarchy()
    vmm = VirtualMemoryManager(physical, asid=0, huge_page_fraction=huge_fraction)
    walker = PageTableWalker(hierarchy, PageWalkCaches())
    if l3_tlb is not None:
        backend = L3TLBBackend(l3_tlb, walker, vmm.page_table)
    else:
        backend = RadixBackend(walker, vmm.page_table)
    mmu = MMU(
        l1_dtlb_4k=TLB("L1D-4K", 8, 4, 1, (PageSize.SIZE_4K,)),
        l1_dtlb_2m=TLB("L1D-2M", 8, 4, 1, (PageSize.SIZE_2M,)),
        l2_tlb=TLB("L2-TLB", 48, 12, 12, BOTH),
        memory_manager=vmm,
        pressure=PressureMonitor(),
        backend=backend,
    )
    return mmu, hierarchy


class TestTLB:
    def test_insert_then_lookup(self, page_table):
        tlb = TLB("t", 16, 4, 1, BOTH)
        pte = page_table.map_page(vpn=0x100, pfn=0x5)
        tlb.insert(pte)
        entry = tlb.lookup(0x100 << 12, asid=0)
        assert entry is not None
        assert entry.translate((0x100 << 12) | 0x10) == (0x5 << 12) | 0x10

    def test_miss_counts(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        assert tlb.lookup(0x1000, asid=0) is None
        assert tlb.stats.misses == 1

    def test_multiple_page_sizes(self, page_table):
        tlb = TLB("t", 16, 4, 1, BOTH)
        pte = page_table.map_page(vpn=0x3, pfn=0x9, page_size=PageSize.SIZE_2M)
        tlb.insert(pte)
        assert tlb.lookup((0x3 << 21) + 0x1234, asid=0) is not None

    def test_asid_isolation(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        pte = page_table.map_page(vpn=0x10, pfn=0x1)
        tlb.insert(pte, asid=1)
        assert tlb.lookup(0x10 << 12, asid=0) is None
        assert tlb.lookup(0x10 << 12, asid=1) is not None

    def test_lru_eviction_within_set(self, page_table):
        tlb = TLB("t", 8, 2, 1)  # 4 sets, 2 ways
        num_sets = tlb.num_sets
        vpns = [i * num_sets for i in range(3)]  # same set
        ptes = [page_table.map_page(vpn=v, pfn=v + 1) for v in vpns]
        tlb.insert(ptes[0])
        tlb.insert(ptes[1])
        tlb.lookup(vpns[0] << 12, asid=0)  # refresh the first
        evicted = tlb.insert(ptes[2])
        assert evicted is not None
        assert evicted.vpn == vpns[1]

    def test_invalidate_all(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1))
        assert tlb.invalidate_all() == 1
        assert tlb.occupancy() == 0

    def test_invalidate_asid(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1), asid=0)
        tlb.insert(page_table.map_page(vpn=0x2, pfn=0x2), asid=1)
        assert tlb.invalidate_asid(1) == 1
        assert tlb.occupancy() == 1

    def test_invalidate_page(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1))
        assert tlb.invalidate_page(0x1 << 12, asid=0) == 1
        assert tlb.lookup(0x1 << 12, asid=0) is None

    def test_reach(self, page_table):
        tlb = TLB("t", 16, 4, 1, BOTH)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1))
        tlb.insert(page_table.map_page(vpn=0x9, pfn=0x2, page_size=PageSize.SIZE_2M))
        assert tlb.reach_bytes() == 4096 + 2 * 1024 * 1024

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            TLB("bad", entries=10, associativity=4, latency=1)

    def test_unsupported_page_size_rejected(self, page_table):
        tlb = TLB("t", 16, 4, 1, (PageSize.SIZE_4K,))
        pte = page_table.map_page(vpn=0x1, pfn=0x1, page_size=PageSize.SIZE_2M)
        with pytest.raises(ConfigurationError):
            tlb.insert(pte)

    def test_contains_no_stats(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1))
        assert tlb.contains(0x1 << 12, asid=0)
        assert tlb.stats.accesses == 0


class TestPageWalkCaches:
    def test_miss_then_hit(self):
        pwcs = PageWalkCaches()
        vaddr = 0x7F00_1234_5000
        assert pwcs.deepest_hit_level(0, vaddr, max_level=2) is None
        pwcs.fill(0, vaddr, range(0, 3))
        assert pwcs.deepest_hit_level(0, vaddr, max_level=2) == 2

    def test_hit_respects_max_level(self):
        pwcs = PageWalkCaches()
        vaddr = 0x7F00_1234_5000
        pwcs.fill(0, vaddr, range(0, 3))
        assert pwcs.deepest_hit_level(0, vaddr, max_level=1) == 1

    def test_different_asids_do_not_alias(self):
        pwcs = PageWalkCaches()
        vaddr = 0x1234_5000
        pwcs.fill(0, vaddr, range(0, 3))
        assert pwcs.deepest_hit_level(1, vaddr, max_level=2) is None

    def test_invalidate_all(self):
        pwcs = PageWalkCaches()
        pwcs.fill(0, 0x1000, range(0, 3))
        pwcs.invalidate_all()
        assert pwcs.deepest_hit_level(0, 0x1000, max_level=2) is None

    def test_stats(self):
        pwcs = PageWalkCaches()
        pwcs.deepest_hit_level(0, 0x1000, max_level=2)
        assert pwcs.stats.lookups == 3
        assert pwcs.stats.hits == 0


class TestPageTableWalker:
    def test_walk_latency_and_counters(self, vmm):
        hierarchy = make_hierarchy()
        walker = PageTableWalker(hierarchy, PageWalkCaches())
        pte = vmm.ensure_mapped(0x1234_5000)
        result = walker.walk(vmm.page_table, 0x1234_5000)
        assert result.pte is pte
        assert result.memory_accesses == 4
        assert result.latency >= walker.pwcs.latency + 4 * hierarchy.l2.latency
        assert pte.ptw_frequency == 1
        assert walker.stats.walks == 1

    def test_second_walk_benefits_from_pwcs(self, vmm):
        walker = PageTableWalker(make_hierarchy(), PageWalkCaches())
        vmm.ensure_mapped(0x1234_5000)
        vmm.ensure_mapped(0x1234_6000)
        first = walker.walk(vmm.page_table, 0x1234_5000)
        second = walker.walk(vmm.page_table, 0x1234_6000)
        assert second.memory_accesses < first.memory_accesses
        assert second.pwc_hit_level is not None

    def test_2m_walk_is_shorter(self, vmm_huge):
        walker = PageTableWalker(make_hierarchy(), PageWalkCaches())
        vmm_huge.ensure_mapped(0x4000_0000)
        result = walker.walk(vmm_huge.page_table, 0x4000_0000)
        assert result.memory_accesses == 3

    def test_background_walk_not_in_histogram(self, vmm):
        walker = PageTableWalker(make_hierarchy(), PageWalkCaches())
        vmm.ensure_mapped(0x1000)
        walker.walk(vmm.page_table, 0x1000, background=True)
        assert walker.stats.walks == 0
        assert walker.stats.background_walks == 1
        assert walker.stats.latency_histogram == {}

    def test_dram_accesses_update_cost_counter(self, vmm):
        walker = PageTableWalker(make_hierarchy(), PageWalkCaches())
        pte = vmm.ensure_mapped(0x1000)
        walker.walk(vmm.page_table, 0x1000)
        assert pte.ptw_cost >= 1

    def test_mean_latency(self, vmm):
        walker = PageTableWalker(make_hierarchy(), PageWalkCaches())
        vmm.ensure_mapped(0x1000)
        result = walker.walk(vmm.page_table, 0x1000)
        assert walker.stats.mean_latency == pytest.approx(result.latency)


class TestMMU:
    def test_first_translation_walks(self):
        mmu, _ = make_mmu()
        _, _, delta = translate_counted(mmu, 0x1234_5678)
        assert delta["l2_tlb_misses"] == 1 and delta["page_walks"] == 1
        assert delta["total_miss_latency"] > 0
        assert mmu.stats.served_by == {ServedBy.PAGE_WALK.value: 1}

    def test_second_translation_hits_l1(self):
        mmu, _ = make_mmu()
        mmu.translate_data(0x1234_5678)
        _, latency, delta = translate_counted(mmu, 0x1234_5000)
        assert delta["l1_tlb_hits"] == 1
        assert delta["l2_tlb_hits"] == delta["l2_tlb_misses"] == 0
        assert latency == 1

    def test_l2_tlb_hit_path(self):
        mmu, _ = make_mmu()
        mmu.translate_data(0x1234_5678)
        # Evict from the tiny L1 D-TLB by touching many other pages.
        for i in range(1, 20):
            mmu.translate_data(0x2000_0000 + i * 4096)
        _, _, delta = translate_counted(mmu, 0x1234_5678)
        assert (delta["l1_tlb_hits"], delta["l2_tlb_hits"]) in ((0, 1), (1, 0))
        assert delta["l2_tlb_misses"] == 0

    def test_tlb_hits_make_no_demand_paging_call(self):
        mmu, _ = make_mmu()
        mmu.translate_data(0x1234_5678)
        calls = []
        ensure_mapped = mmu.memory_manager.ensure_mapped

        def spy(vaddr):
            calls.append(vaddr)
            return ensure_mapped(vaddr)

        mmu.memory_manager.ensure_mapped = spy
        _, _, delta = translate_counted(mmu, 0x1234_5000)
        assert delta["l1_tlb_hits"] == 1
        mmu.l1_dtlb_4k.invalidate_all()
        _, _, delta = translate_counted(mmu, 0x1234_5000)
        assert delta["l2_tlb_hits"] == 1
        assert calls == []
        # An L2 TLB miss on the same page is where demand paging runs.
        mmu.l1_dtlb_4k.invalidate_all()
        mmu.l2_tlb.invalidate_all()
        _, _, delta = translate_counted(mmu, 0x1234_5000)
        assert delta["l2_tlb_misses"] == 1
        assert calls == [0x1234_5000]

    def test_translation_is_correct(self):
        mmu, _ = make_mmu()
        paddr, _ = mmu.translate_data(0x1234_5678)
        expected = mmu.memory_manager.page_table.translate(0x1234_5678).translate(0x1234_5678)
        assert paddr == expected

    def test_huge_pages_use_2m_dtlb(self):
        mmu, _ = make_mmu(huge_fraction=1.0)
        mmu.translate_data(0x4000_0000)
        assert mmu.l1_dtlb_2m.occupancy() == 1
        assert mmu.l1_dtlb_4k.occupancy() == 0

    def test_stats_accumulate(self):
        mmu, _ = make_mmu()
        for i in range(10):
            mmu.translate_data(0x1000_0000 + i * 4096)
        assert mmu.stats.translations == 10
        assert mmu.stats.l2_tlb_misses == 10
        assert mmu.stats.page_walks == 10
        assert mmu.stats.mean_miss_latency > 0

    def test_l3_tlb_path(self):
        l3_tlb = TLB("L3-TLB", 64, 4, 15, BOTH)
        mmu, _ = make_mmu(l3_tlb=l3_tlb)
        mmu.translate_data(0x1234_5000)
        # Force the entry out of the small L2 TLB but keep it in the L3 TLB.
        for i in range(1, 60):
            mmu.translate_data(0x3000_0000 + i * 4096)
        _, _, delta = translate_counted(mmu, 0x1234_5000)
        if delta["l2_tlb_misses"]:
            assert (delta["l3_tlb_hits"], delta["page_walks"]) in ((1, 0), (0, 1))
        assert mmu.stats.l3_tlb_hits >= 0

    def test_eviction_features_updated(self):
        mmu, _ = make_mmu()
        mmu.translate_data(0x1234_5000)
        first = mmu.memory_manager.page_table.translate(0x1234_5000)
        for i in range(1, 80):
            mmu.translate_data(0x5000_0000 + i * 4096)
        assert int(first.features.l2_tlb_evictions) >= 1

    def test_accesses_counter_saturates_at_six_bits(self):
        mmu, _ = make_mmu()
        for _ in range(70):
            mmu.translate_data(0x1234_5000)
        features = mmu.memory_manager.page_table.translate(0x1234_5000).features
        assert features.accesses == 63
        assert (features.l1_tlb_misses, features.l2_tlb_misses) == (1, 1)
        assert features.ptw_frequency == 1


class TestDemandPagingInsideARun:
    """Pages demand-mapped during a run, where no golden run maps a native page.

    With ``prefault`` replaced by a no-op every page the run touches is
    mapped by the MMU's own ``ensure_mapped`` call.  Mapping each page before
    its reference enters the MMU, as a wrapper here does, must change
    nothing: not the result, the page table or the frame allocator.
    """

    @staticmethod
    def _run(system_name: str, map_first: bool):
        sim = api.build_simulator({"system": system_name, "hardware_scale": 16,
                                   "workload": "rnd", "max_refs": 2000, "seed": 7})
        sim.prefault = lambda: 0
        system = sim.system
        if map_first:
            mmu = system.cores[0].mmu
            translate_data = mmu.translate_data
            ensure_mapped = system.memory_manager.ensure_mapped

            def mapped_then_translated(vaddr):
                ensure_mapped(vaddr)
                return translate_data(vaddr)

            mmu.translate_data = mapped_then_translated
        result = sim.run()
        return (result, page_table_state(system.memory_manager.page_table),
                allocator_state(system.physical), system.memory_manager.stats)

    @pytest.mark.parametrize("system_name", ["radix", "victima"])
    def test_mapping_before_translation_changes_nothing(self, system_name):
        result, table, frames, vm_stats = self._run(system_name, map_first=False)
        assert vm_stats.demand_faults > 1000
        assert self._run(system_name, map_first=True) == (result, table, frames, vm_stats)


class TestMaintenance:
    def test_context_switch_partial_flush(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1), asid=0)
        tlb.insert(page_table.map_page(vpn=0x2, pfn=0x2), asid=1)
        maintenance = TLBMaintenance([tlb])
        result = maintenance.context_switch(outgoing_asid=0)
        assert result.tlb_entries_invalidated == 1
        assert tlb.occupancy() == 1

    def test_full_flush(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1))
        pwcs = PageWalkCaches()
        pwcs.fill(0, 0x1000, range(0, 3))
        maintenance = TLBMaintenance([tlb], pwcs)
        result = maintenance.flush_all()
        assert result.tlb_entries_invalidated == 1
        assert pwcs.deepest_hit_level(0, 0x1000, max_level=2) is None

    def test_shootdown_page(self, page_table):
        tlb = TLB("t", 16, 4, 1)
        tlb.insert(page_table.map_page(vpn=0x1, pfn=0x1))
        maintenance = TLBMaintenance([tlb])
        result = maintenance.shootdown_page(0x1 << 12, asid=0)
        assert result.tlb_entries_invalidated == 1
        assert result.cycles > 0

    def test_shootdown_range(self, page_table):
        tlb = TLB("t", 64, 4, 1)
        for vpn in range(4):
            tlb.insert(page_table.map_page(vpn=vpn, pfn=vpn + 1))
        maintenance = TLBMaintenance([tlb])
        result = maintenance.shootdown_range(0, 4 * 4096, asid=0)
        assert result.tlb_entries_invalidated == 4
