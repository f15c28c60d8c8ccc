"""Unit tests for repro.virt: shadow table, nested walker, and the MMU over them."""

import pytest

from repro.backends import RadixBackend, ShadowPagingBackend, VictimaBackend
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.replacement import TLBAwareSRRIPPolicy
from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, PageSize
from repro.common.errors import OutOfPhysicalMemory
from repro.common.pressure import PressureMonitor
from repro.core.ptw_cp import ComparatorPTWCostPredictor
from repro.core.victima import VictimaController
from repro.memory.dram import DramModel
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.physical import PhysicalMemory
from repro.mmu.mmu import MMU
from repro.mmu.page_walker import PageTableWalker
from repro.mmu.pwc import PageWalkCaches
from repro.mmu.tlb import TLB
from repro.virt.nested import NestedPageTableWalker
from repro.virt.shadow import ShadowPageTableBuilder
from tests.conftest import allocator_state, built_entries, page_table_state, translate_counted

BOTH = (PageSize.SIZE_4K, PageSize.SIZE_2M)


def make_virt_stack(with_victima=False, shadow_paging=False, guest_huge_fraction=0.0,
                    host_huge_fraction=0.0):
    host_physical = PhysicalMemory(8 << 30)
    guest_physical = PhysicalMemory(8 << 30)
    l1d = Cache("L1D", 1024, 4, 4)
    pressure = PressureMonitor()
    l2 = Cache("L2", 64 * 1024, 16, 16, replacement_policy=TLBAwareSRRIPPolicy(pressure))
    hierarchy = CacheHierarchy(l1d, l2, None, DramModel())

    guest_vmm = VirtualMemoryManager(guest_physical, asid=0,
                                     huge_page_fraction=guest_huge_fraction)
    host_vmm = VirtualMemoryManager(host_physical, asid=0,
                                    huge_page_fraction=host_huge_fraction)
    host_walker = PageTableWalker(hierarchy, PageWalkCaches())
    shadow_walker = PageTableWalker(hierarchy, PageWalkCaches())
    shadow_builder = ShadowPageTableBuilder(host_physical, vmid=0)
    nested_tlb = TLB("nTLB", 16, 4, 1, BOTH)

    victima = None
    if with_victima:
        victima = VictimaController(
            l2_cache=l2, page_table=shadow_builder.table, walker=shadow_walker,
            predictor=ComparatorPTWCostPredictor(), pressure=pressure,
            host_page_table=host_vmm.page_table, use_predictor=False,
            bypass_on_low_locality=False)

    nested_walker = NestedPageTableWalker(
        guest_vmm=guest_vmm, host_vmm=host_vmm, host_walker=host_walker,
        nested_tlb=nested_tlb, hierarchy=hierarchy, shadow_builder=shadow_builder,
        victima=victima, vmid=0)

    # The native backends over the nested walker and the guest's table.
    if shadow_paging:
        backend = ShadowPagingBackend(nested_walker, shadow_walker, shadow_builder.table)
    elif victima is not None:
        backend = VictimaBackend(victima, nested_walker, guest_vmm.page_table)
    else:
        backend = RadixBackend(nested_walker, guest_vmm.page_table)
    mmu = MMU(
        l1_dtlb_4k=TLB("L1D-4K", 8, 4, 1, (PageSize.SIZE_4K,)),
        l1_dtlb_2m=TLB("L1D-2M", 8, 4, 1, (PageSize.SIZE_2M,)),
        l2_tlb=TLB("L2-TLB", 48, 12, 12, BOTH),
        memory_manager=guest_vmm, pressure=pressure, backend=backend)
    return mmu, nested_walker, shadow_builder, victima


def nested_walk(walker: NestedPageTableWalker, gva: int):
    """Walk ``gva`` as the MMU does on an L2 TLB miss: demand-map the guest
    page, then walk the guest's table."""
    walker.guest_vmm.ensure_mapped(gva)
    return walker.walk(walker.guest_vmm.page_table, gva)


class TestShadowBuilder:
    def test_install_and_lookup(self):
        host_physical = PhysicalMemory(4 << 30)
        guest_physical = PhysicalMemory(4 << 30)
        guest_vmm = VirtualMemoryManager(guest_physical, asid=0, huge_page_fraction=0.0)
        host_vmm = VirtualMemoryManager(host_physical, asid=0, huge_page_fraction=0.0)
        builder = ShadowPageTableBuilder(host_physical, vmid=0)

        gva = 0x1234_5000
        guest_pte = guest_vmm.ensure_mapped(gva)
        host_pte = host_vmm.ensure_mapped(guest_pte.pfn << 12)
        combined = builder.install(gva, guest_pte, host_pte)
        assert builder.lookup(gva) is combined
        assert builder.installed_pages == 1
        # Installing again returns the same entry.
        assert builder.install(gva, guest_pte, host_pte) is combined

    def test_combined_translation_points_to_host_frame(self):
        host_physical = PhysicalMemory(4 << 30)
        guest_physical = PhysicalMemory(4 << 30)
        guest_vmm = VirtualMemoryManager(guest_physical, asid=0, huge_page_fraction=0.0)
        host_vmm = VirtualMemoryManager(host_physical, asid=0, huge_page_fraction=0.0)
        builder = ShadowPageTableBuilder(host_physical, vmid=0)
        gva = 0x9999_1000
        guest_pte = guest_vmm.ensure_mapped(gva)
        gpa = guest_pte.translate(gva)
        host_pte = host_vmm.ensure_mapped(gpa)
        combined = builder.install(gva, guest_pte, host_pte)
        assert combined.translate(gva) == host_pte.translate(gpa)

    def test_lookup_missing(self):
        builder = ShadowPageTableBuilder(PhysicalMemory(1 << 30), vmid=0)
        assert builder.lookup(0xABC_DEF0) is None

    def test_out_of_memory_installs_the_prefix_the_host_mapped(self):
        # 512 host frames: the root, 344 taken here and 167 left.
        host_physical = PhysicalMemory(PAGE_SIZE_2M)
        host_vmm = VirtualMemoryManager(host_physical, huge_page_fraction=0.0)
        host_physical.allocate_4k_frames(344)
        builder = ShadowPageTableBuilder(PhysicalMemory(1 << 30))
        builder.table.map_page(vpn=0x400, pfn=0x1)  # creates the shadow PT node
        # Two host runs.  Guest frames 0-99 take 4 + 99 frames (page 0 also
        # builds three host nodes).  Guest frames 500-599 take 12 frames for
        # 500-511, 2 for 512 (and its PT node), and then the 87 of 513-599
        # do not fit in the 50 left, so none of them is taken.
        guest_pfns = list(range(100)) + list(range(500, 600))
        with pytest.raises(OutOfPhysicalMemory):
            builder.install_run(0x401, guest_pfns, host_vmm)
        frames = host_vmm.page_table.frame_numbers(guest_pfns)
        assert None not in frames[:113] and set(frames[113:]) == {None}
        assert builder.installed_pages == 113
        assert [builder.lookup((0x401 + i) << 12).pfn for i in range(113)] == frames[:113]
        assert builder.lookup((0x401 + 113) << 12) is None
        assert builder.table.num_leaf_entries == 114


class TestNestedWalker:
    def test_walk_counts_host_walks(self):
        _, walker, _, _ = make_virt_stack()
        result = nested_walk(walker, 0x1234_5000)
        assert result.host_walks >= 1
        assert result.guest_memory_accesses == 4
        assert result.latency == result.guest_latency + result.host_latency
        assert result.pte.translate(0x1234_5000) >= 0

    def test_nested_tlb_reduces_host_walks(self):
        _, walker, _, _ = make_virt_stack()
        first = nested_walk(walker, 0x1234_5000)
        second = nested_walk(walker, 0x1234_5000)
        assert second.host_walks <= first.host_walks
        assert walker.stats.nested_tlb_hits > 0

    def test_walks_accumulate_stats(self):
        _, walker, _, _ = make_virt_stack()
        nested_walk(walker, 0x1000)
        nested_walk(walker, 0x2000_0000)
        assert walker.stats.walks == 2
        assert walker.stats.mean_latency > 0

    def test_install_shadow_mapping_is_untimed(self):
        _, walker, builder, _ = make_virt_stack()
        combined = walker.install_shadow_mapping(0x7777_0000)
        assert builder.lookup(0x7777_0000) is combined
        assert walker.stats.walks == 0

    def test_victima_nested_blocks_skip_host_walks(self):
        _, walker, _, victima = make_virt_stack(with_victima=True)
        gpa_probe_target = None
        first = nested_walk(walker, 0x5000_0000)
        assert victima.stats.nested_insertions > 0
        # Clear the nested TLB so the next walk must use the nested TLB blocks.
        walker.nested_tlb.invalidate_all()
        second = nested_walk(walker, 0x5000_0000)
        assert second.host_walks < first.host_walks or victima.stats.nested_block_hits > 0


class _FixedPWCs:
    """Page-walk caches whose deepest hit is always ``hit_level`` (None: a miss)."""

    latency = 0

    def __init__(self, hit_level=None):
        self.hit_level = hit_level

    def deepest_hit_level(self, asid, vaddr, max_level):
        return self.hit_level

    def fill(self, asid, vaddr, levels):
        pass


class _MissingTLB:
    """A nested TLB that never hits and never evicts."""

    latency = 0

    def lookup(self, vaddr, vmid):
        return None

    def insert(self, pte, vmid):
        return None


class TestNestedWalkLength:
    """The length of a 2-D walk, derived from the page-table geometry.

    With 4 KB pages in both dimensions each table has four levels.  Every
    guest entry's guest-physical address is translated before the entry is
    read, and so is the data page's: with no PWC and no nested-TLB hit that
    is one 4-read host walk each.  A cold walk thus reads 4 guest entries and
    makes 5 host walks, 4 + 5 x 4 = 24 reads.  A guest PWC hit at level L
    skips guest levels 0..L, with their reads and their host walks.
    """

    def _walk(self, guest_pwc_hit=None):
        hierarchy = CacheHierarchy(Cache("L1D", 1024, 4, 4),
                                   Cache("L2", 64 * 1024, 16, 16), None, DramModel())
        reads = []
        access_for_ptw = hierarchy.access_for_ptw

        def counted(paddr):
            reads.append(paddr)
            return access_for_ptw(paddr)

        hierarchy.access_for_ptw = counted
        host_physical = PhysicalMemory(8 << 30)
        host_walker = PageTableWalker(hierarchy, _FixedPWCs())
        walker = NestedPageTableWalker(
            guest_vmm=VirtualMemoryManager(PhysicalMemory(8 << 30), asid=0,
                                           huge_page_fraction=0.0),
            host_vmm=VirtualMemoryManager(host_physical, asid=0,
                                          huge_page_fraction=0.0),
            host_walker=host_walker, nested_tlb=_MissingTLB(),
            hierarchy=hierarchy,
            shadow_builder=ShadowPageTableBuilder(host_physical, vmid=0),
            guest_pwcs=_FixedPWCs(guest_pwc_hit))
        result = nested_walk(walker, 0x1234_5000)
        return result, len(reads), host_walker.stats

    def test_cold_walk_reads_24_entries(self):
        result, reads, host = self._walk()
        assert result.guest_memory_accesses == 4
        assert result.host_walks == host.walks == 5
        assert host.total_memory_accesses == 5 * 4
        assert reads == 24

    @pytest.mark.parametrize("level,expected_reads", [(0, 19), (1, 14), (2, 9)])
    def test_guest_pwc_hit_removes_the_reads_it_covers(self, level, expected_reads):
        result, reads, host = self._walk(guest_pwc_hit=level)
        assert result.guest_memory_accesses == 3 - level
        assert result.host_walks == host.walks == 4 - level
        assert host.total_memory_accesses == (4 - level) * 4
        assert reads == (3 - level) + (4 - level) * 4 == expected_reads


#: A guest range over 2 MB regions 2-8 from ``_BASE``; at huge fraction 0.3
#: regions 3 and 6 are huge.  Both ends fall mid-page and mid-region.
_BASE = 0x4000_0000
_START = _BASE + 2 * PAGE_SIZE_2M + 3 * PAGE_SIZE_4K + 0x123
_END = _BASE + 8 * PAGE_SIZE_2M + 4 * PAGE_SIZE_4K + 0x567


def _page(region: int, page: int) -> int:
    return _BASE + region * PAGE_SIZE_2M + page * PAGE_SIZE_4K


def _prepared_walker(host_fraction: float = 0.0) -> NestedPageTableWalker:
    """A nested walker whose guest range is prefaulted with mixed page sizes.

    The guest maps a few pages past the range's end.  One guest page of the
    range is unmapped again, one page's shadow mapping is already installed,
    and the host backs only the first half of guest memory, so the shadow
    install has to fault in host pages as it goes.
    """
    _, walker, _, _ = make_virt_stack(guest_huge_fraction=0.3,
                                      host_huge_fraction=host_fraction)
    guest = walker.guest_vmm
    guest.prefault_range(_START, _END - _START + 3 * PAGE_SIZE_4K)
    guest.unmap(_page(4, 100))
    walker.host_vmm.prefault_range(0, guest.physical.allocated_bytes // 2)
    walker.install_shadow_mapping(_page(5, 200))
    return walker


def _walker_state(walker: NestedPageTableWalker) -> tuple:
    vmms = [(page_table_state(vmm.page_table), allocator_state(vmm.physical), vmm.stats)
            for vmm in (walker.guest_vmm, walker.host_vmm)]
    shadow = walker.shadow_builder
    return vmms, page_table_state(shadow.table), shadow.installed_pages


class TestShadowRangeInstall:
    """``install_shadow_range`` is one ``install_shadow_mapping`` per page."""

    @pytest.mark.parametrize("host_fraction", [0.0, 0.3])
    def test_matches_per_page_install(self, host_fraction):
        runs, single = _prepared_walker(host_fraction), _prepared_walker(host_fraction)
        assert _walker_state(runs) == _walker_state(single)
        host = runs.host_vmm
        host_faults, host_2m = host.stats.demand_faults, host.stats.pages_2m
        mapped = {(vpn, size) for vpn, size, _ in host.page_table.leaves()}
        # Host pages that an ensure_mapped call returns, whoever calls it.
        per_page = set()
        ensure_mapped = host.ensure_mapped

        def spy(vaddr):
            pte = ensure_mapped(vaddr)
            per_page.add((pte.vpn, pte.page_size))
            return pte

        host.ensure_mapped = spy
        covered = runs.install_shadow_range(_START, _END - _START)
        del host.ensure_mapped
        pages = 0
        gva = _START
        while gva < _END:
            combined = single.install_shadow_mapping(gva)
            gva = (combined.vpn + 1) << combined.page_size.offset_bits
            pages += 1
        assert covered == pages
        # The other host faults took prefault_range's runs: packed leaves.
        # Checked before _walker_state, whose page_table_state builds them.
        in_runs = [pte for vpn, size, pte in host.page_table.leaves()
                   if (vpn, size) not in mapped | per_page]
        assert len(in_runs) > 100 and set(in_runs) == {None}
        assert _walker_state(runs) == _walker_state(single)
        # The range really mixed page sizes and made the host fault.
        sizes = {pte.page_size for pte in runs.shadow_builder.table.all_entries()}
        assert sizes == set(BOTH)
        assert runs.host_vmm.stats.demand_faults > host_faults
        assert (host.stats.pages_2m > host_2m) == (host_fraction > 0)
        assert runs.shadow_builder.lookup(_END - 1) is not None
        assert runs.shadow_builder.lookup(_END - 1 + PAGE_SIZE_4K) is None

    def test_second_install_covers_the_same_pages_and_adds_none(self):
        twice, once = _prepared_walker(), _prepared_walker()
        covered = twice.install_shadow_range(_START, _END - _START)
        assert once.install_shadow_range(_START, _END - _START) == covered
        tables = (twice.guest_vmm.page_table, twice.host_vmm.page_table,
                  twice.shadow_builder.table)
        built = [built_entries(table) for table in tables]
        assert twice.install_shadow_range(_START, _END - _START) == covered
        # Counted before _walker_state, whose page_table_state builds every entry.
        assert [built_entries(table) for table in tables] == built
        assert _walker_state(twice) == _walker_state(once)


class TestVirtualizedMMU:
    """The MMU on a virtualized machine: the guest's memory manager and a
    backend over the nested walker."""

    def test_nested_paging_translation(self):
        mmu, nested_walker, _, _ = make_virt_stack()
        _, _, delta = translate_counted(mmu, 0x1234_5678)
        assert delta["l2_tlb_misses"] == 1 and delta["page_walks"] == 1
        breakdown = delta["miss_latency_breakdown"]
        assert "host" in breakdown and "guest" in breakdown
        assert mmu.stats.page_walks == 1
        assert nested_walker.stats.total_host_walks >= 1

    def test_l1_hit_on_repeat(self):
        mmu, _, _, _ = make_virt_stack()
        mmu.translate_data(0x1234_5678)
        _, _, delta = translate_counted(mmu, 0x1234_5000)
        assert delta["l1_tlb_hits"] == 1

    def test_shadow_paging_mode_has_no_host_walks(self):
        mmu, nested_walker, _, _ = make_virt_stack(shadow_paging=True)
        _, _, delta = translate_counted(mmu, 0x1234_5678)
        assert delta["page_walks"] == 1
        assert nested_walker.stats.total_host_walks == 0
        assert mmu.backend.shadow_walker.stats.walks == 1
        breakdown = delta["miss_latency_breakdown"]
        assert "guest" in breakdown and "host" not in breakdown

    def test_victima_block_hit_skips_walk(self):
        mmu, _, _, victima = make_virt_stack(with_victima=True)
        mmu.translate_data(0x1234_5678)
        # Flush the TLB hierarchy so the next translation must consult the L2 cache.
        mmu.l1_dtlb_4k.invalidate_all()
        mmu.l1_dtlb_2m.invalidate_all()
        mmu.l2_tlb.invalidate_all()
        _, _, delta = translate_counted(mmu, 0x1234_5678)
        assert delta["victima_hits"] == 1
        assert mmu.stats.victima_hits == 1

    def test_miss_latency_higher_than_native_single_walk(self):
        mmu, _, _, _ = make_virt_stack()
        _, _, delta = translate_counted(mmu, 0x1234_5678)
        # A 2-D walk must cost more than the guest dimension alone.
        assert delta["total_miss_latency"] > delta["miss_latency_breakdown"]["guest"]

    def test_stats_latency_accumulation(self):
        mmu, _, _, _ = make_virt_stack()
        for i in range(5):
            mmu.translate_data(0x4000_0000 + i * 4096)
        assert mmu.stats.translations == 5
        assert mmu.stats.total_miss_latency > 0
        assert mmu.stats.mean_miss_latency > 0
