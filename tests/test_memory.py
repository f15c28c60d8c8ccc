"""Unit tests for repro.memory: physical frames, DRAM, page table, VM manager."""

import pytest

from repro.api import build_simulator
from repro.cache.hierarchy import AccessResult, MemoryLevel
from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, PageSize
from repro.common.errors import OutOfPhysicalMemory, TranslationFault
from repro.memory.dram import DramModel
from repro.memory.page_table import LEAF_LEVEL_2M, LEAF_LEVEL_4K, PageTableEntry, RadixPageTable
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.physical import PhysicalMemory
from repro.mmu.page_walker import PageTableWalker
from repro.scenario import ScenarioSpec
from tests.conftest import allocator_state, built_entries, page_table_state


class TestPhysicalMemory:
    def test_4k_frames_are_aligned_and_distinct(self, physical):
        frames = [physical.allocate_frame(PageSize.SIZE_4K) for _ in range(16)]
        assert len(set(frames)) == 16
        assert all(f % PAGE_SIZE_4K == 0 for f in frames)

    def test_2m_frames_are_aligned(self, physical):
        frame = physical.allocate_frame(PageSize.SIZE_2M)
        assert frame % PAGE_SIZE_2M == 0

    def test_free_and_reallocate(self, physical):
        frame = physical.allocate_frame()
        physical.free_frame(frame)
        assert physical.allocate_frame() == frame

    def test_allocated_bytes_tracking(self, physical):
        physical.allocate_frame(PageSize.SIZE_4K)
        physical.allocate_frame(PageSize.SIZE_2M)
        assert physical.allocated_bytes == PAGE_SIZE_4K + PAGE_SIZE_2M

    def test_reserve_contiguous_region(self, physical):
        base = physical.reserve_contiguous(10 * 1024 * 1024, label="pom")
        assert base % PAGE_SIZE_2M == 0
        assert physical.reserved_regions[0][2] == "pom"

    def test_out_of_memory(self):
        tiny = PhysicalMemory(size_bytes=2 * PAGE_SIZE_2M)
        tiny.allocate_frame(PageSize.SIZE_2M)
        tiny.allocate_frame(PageSize.SIZE_2M)
        with pytest.raises(OutOfPhysicalMemory):
            tiny.allocate_frame(PageSize.SIZE_4K)

    def test_size_must_be_2m_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(size_bytes=3 * 1024 * 1024 + 1)

    def test_utilisation(self, physical):
        assert physical.utilisation == 0.0
        physical.allocate_frame(PageSize.SIZE_2M)
        assert physical.utilisation > 0.0


def _fragmented_physical(size_bytes: int = 4 * PAGE_SIZE_2M) -> PhysicalMemory:
    """An allocator with a 2 MB-aligned bump pointer gap and two freed frames."""
    physical = PhysicalMemory(size_bytes)
    first = physical.allocate_frame()
    physical.allocate_frame(PageSize.SIZE_2M)
    second = physical.allocate_frame()
    physical.allocate_frame()
    physical.free_frame(first)
    physical.free_frame(second)
    return physical


class TestAllocate4KFrames:
    """``allocate_4k_frames(n)`` is ``n`` successive ``allocate_frame()`` calls."""

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 40])
    def test_matches_successive_calls(self, count):
        bulk, single = _fragmented_physical(), _fragmented_physical()
        frames = bulk.allocate_4k_frames(count)
        assert frames == [single.allocate_frame() for _ in range(count)]
        assert allocator_state(bulk) == allocator_state(single)

    def test_reuses_free_list_last_freed_first(self):
        physical = _fragmented_physical()
        freed = list(physical._free_4k)
        assert physical.allocate_4k_frames(2) == freed[::-1]
        assert physical._free_4k == []

    def test_out_of_memory_at_capacity_changes_nothing(self):
        physical = _fragmented_physical(size_bytes=PAGE_SIZE_2M * 3)
        # Two freed frames plus the frames the bump pointer has left.
        fits = 2 + (physical.size_bytes - physical._next_free) // PAGE_SIZE_4K
        before = allocator_state(physical)
        with pytest.raises(OutOfPhysicalMemory):
            physical.allocate_4k_frames(fits + 1)
        assert allocator_state(physical) == before
        single = _fragmented_physical(size_bytes=PAGE_SIZE_2M * 3)
        with pytest.raises(OutOfPhysicalMemory):
            for _ in range(fits + 1):
                single.allocate_frame()
        assert len(physical.allocate_4k_frames(fits)) == fits
        assert physical._next_free == physical.size_bytes and not physical._free_4k


class TestDramModel:
    def test_row_miss_then_hit(self):
        dram = DramModel(row_hit_latency=100, row_miss_latency=200)
        first = dram.access(0x1000)
        # Same bank (block number differs by num_banks) and same 8 KB row.
        second = dram.access(0x1000 + 64 * 16)
        assert first == 200
        assert second == 100

    def test_different_rows_miss(self):
        dram = DramModel(row_hit_latency=100, row_miss_latency=200, num_banks=1)
        dram.access(0x0)
        assert dram.access(0x10000) == 200

    def test_consecutive_blocks_interleave_across_banks(self):
        dram = DramModel(row_hit_latency=100, row_miss_latency=200, num_banks=16)
        # Adjacent 64-byte blocks sit in different banks, so opening the
        # second block's row leaves the first block's row open.
        assert dram.access(0x0) == 200
        assert dram.access(0x40) == 200
        assert dram.access(0x0) == 100

    def test_rows_are_eight_kib(self):
        dram = DramModel(row_hit_latency=100, row_miss_latency=200, num_banks=1)
        dram.access(0x0)
        assert dram.access(8 * 1024 - 64) == 100
        assert dram.access(8 * 1024) == 200
        assert (dram.stats.row_hits, dram.stats.row_misses) == (1, 2)

    def test_stats(self):
        dram = DramModel()
        dram.access(0x0)
        dram.access(0x40, write=True)
        assert dram.stats.accesses == 2
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1

    def test_reset_stats(self):
        dram = DramModel()
        dram.access(0x0)
        dram.reset_stats()
        assert dram.stats.accesses == 0


class TestRadixPageTable:
    def test_map_and_translate(self, page_table):
        pte = page_table.map_page(vpn=0x12345, pfn=0x777, page_size=PageSize.SIZE_4K)
        vaddr = (0x12345 << 12) | 0xABC
        found = page_table.translate(vaddr)
        assert found is pte
        assert found.translate(vaddr) == (0x777 << 12) | 0xABC

    def test_unmapped_raises(self, page_table):
        with pytest.raises(TranslationFault):
            page_table.translate(0xDEAD_BEEF_000)

    def test_walk_has_four_levels_for_4k(self, page_table):
        page_table.map_page(vpn=0x12345, pfn=0x1, page_size=PageSize.SIZE_4K)
        path = page_table.walk(0x12345 << 12)
        assert path.num_levels == LEAF_LEVEL_4K + 1 == 4
        assert [step.level for step in path.steps] == [0, 1, 2, 3]

    def test_walk_has_three_levels_for_2m(self, page_table):
        page_table.map_page(vpn=0x60, pfn=0x2, page_size=PageSize.SIZE_2M)
        path = page_table.walk(0x60 << 21)
        assert path.num_levels == LEAF_LEVEL_2M + 1 == 3

    def test_walk_entry_addresses_point_into_nodes(self, page_table):
        page_table.map_page(vpn=0x999, pfn=0x3)
        path = page_table.walk(0x999 << 12)
        for step in path.steps:
            assert step.node_paddr <= step.entry_paddr < step.node_paddr + 4096

    def test_remap_invalidates_old_entry(self, page_table):
        old = page_table.map_page(vpn=0x10, pfn=0x1)
        new = page_table.map_page(vpn=0x10, pfn=0x2)
        assert not old.valid
        assert page_table.translate(0x10 << 12) is new
        assert page_table.num_leaf_entries == 1

    def test_unmap(self, page_table):
        page_table.map_page(vpn=0x10, pfn=0x1)
        removed = page_table.unmap_page(0x10 << 12)
        assert removed is not None
        assert not page_table.is_mapped(0x10 << 12)
        assert page_table.unmap_page(0x10 << 12) is None

    def test_pte_cluster_contains_eight_slots(self, page_table):
        base_vpn = 0x1000
        for i in range(8):
            page_table.map_page(vpn=base_vpn + i, pfn=0x100 + i)
        pte = page_table.translate((base_vpn + 3) << 12)
        cluster = page_table.pte_cluster(pte)
        assert len(cluster) == 8
        assert all(entry is not None for entry in cluster)
        assert cluster[3] is pte

    def test_pte_cluster_sparse(self, page_table):
        pte = page_table.map_page(vpn=0x2000, pfn=0x1)
        cluster = page_table.pte_cluster(pte)
        assert cluster[0] is pte
        assert cluster.count(None) == 7

    def test_cluster_block_paddr_is_block_aligned(self, page_table):
        pte = page_table.map_page(vpn=0x2003, pfn=0x1)
        assert pte.cluster_block_paddr % 64 == 0
        assert pte.cluster_base_vpn == 0x2000

    def test_all_entries(self, page_table):
        for vpn in (0x1, 0x200, 0x40000):
            page_table.map_page(vpn=vpn, pfn=vpn)
        assert len(page_table.all_entries()) == 3

    def test_page_table_size_grows_with_nodes(self, page_table):
        before = page_table.size_bytes
        page_table.map_page(vpn=0x1, pfn=0x1)
        page_table.map_page(vpn=1 << 27, pfn=0x2)  # different PML4 subtree
        assert page_table.size_bytes > before

    def test_pte_feature_vector_has_ten_entries(self, page_table):
        pte = page_table.map_page(vpn=0x5, pfn=0x5)
        assert len(pte.features.as_vector()) == 10

    def test_record_walk_updates_counters(self, page_table):
        pte = page_table.map_page(vpn=0x5, pfn=0x5)
        pte.record_walk(cycles=100, dram_accesses=2, pwc_hits=1)
        assert pte.ptw_frequency == 1
        assert pte.ptw_cost == 2
        assert pte.total_ptw_cycles == 100

    def test_unmapped_run_stops_at_mapped_page_limit_and_node_end(self, page_table):
        assert page_table.unmapped_run(0x400, 0x600) == 0  # no PT node yet
        page_table.map_page(vpn=0x405, pfn=0x1)
        assert page_table.unmapped_run(0x400, 0x600) == 5
        assert page_table.unmapped_run(0x406, 0x600) == 0x600 - 0x406
        assert page_table.unmapped_run(0x406, 0x410) == 0x410 - 0x406
        assert page_table.unmapped_run(0x406, 0x406) == 0
        assert page_table.unmapped_run(0x600, 0x700) == 0  # the next node

    def test_map_4k_run_equals_map_page_per_page(self):
        runs, single = (RadixPageTable(PhysicalMemory(1 << 30)) for _ in range(2))
        for table in (runs, single):
            table.map_page(vpn=0x405, pfn=0x1)
        pfns = [0x70 + i for i in range(0x600 - 0x406)]
        runs.map_4k_run(0x406, pfns)
        for i, pfn in enumerate(pfns):
            single.map_page(vpn=0x406 + i, pfn=pfn)
        assert page_table_state(runs) == page_table_state(single)
        assert runs.leaf_run(0x405, 0x409) == [runs.lookup(vpn << 12).pfn
                                               for vpn in range(0x405, 0x409)]
        assert len(runs.leaf_run(0x400, 0x600)) == 0
        assert len(runs.leaf_run(0x405, 0x700)) == 0x600 - 0x405

    def test_runs_need_an_uncovered_pt_node(self, page_table):
        with pytest.raises(ValueError):
            page_table.map_4k_run(0x400, [0x1])
        page_table.map_page(vpn=0x400, pfn=0x1)
        with pytest.raises(ValueError):
            page_table.map_4k_run(0x5FF, [0x2, 0x3])  # would cross into the next node
        page_table.map_page(vpn=0x400 >> 9, pfn=0x2, page_size=PageSize.SIZE_2M)
        assert page_table.unmapped_run(0x401, 0x600) == 0
        assert page_table.leaf_run(0x400, 0x600) == []


class TestPackedLeaves:
    """A leaf ``map_4k_run`` wrote is a PFN until something reads it; the
    entry built then stays in its slot, so every reader sees one object."""

    @pytest.fixture
    def table(self, page_table):
        page_table.map_page(vpn=0x400, pfn=0x1)  # creates the PT node
        page_table.map_4k_run(0x401, [0x70 + i for i in range(0xF)])
        return page_table

    def test_readers_share_one_entry_per_page(self, table):
        va = (0x405 << 12) | 0x123
        pte = table.lookup(va)
        assert table.lookup(va) is pte
        assert table.walk(va).pte is pte
        table.map_page(vpn=0x9000, pfn=0x2)
        table.unmap_page(0x9000 << 12)  # clears both memos
        assert table.lookup(va) is pte
        assert table.walk(va).pte is pte
        assert (pte.vpn, pte.pfn, pte.page_size, pte.asid) == (0x405, 0x74, PageSize.SIZE_4K, 0)
        entries = table.all_entries()
        assert [entry.vpn for entry in entries] == list(range(0x400, 0x410))
        assert all(entry is table.lookup(entry.vpn << 12) for entry in entries)
        assert table.all_entries()[5] is pte

    def test_remap_of_a_packed_slot(self, table):
        entries = table.num_leaf_entries
        table.map_page(vpn=0x406, pfn=0x999)
        assert table.num_leaf_entries == entries
        assert table.lookup(0x406 << 12).pfn == 0x999
        # An entry already handed out is invalidated by the remap.
        pte = table.lookup(0x407 << 12)
        new = table.map_page(vpn=0x407, pfn=0x998)
        assert pte.valid is False and new.valid is True
        assert table.lookup(0x407 << 12) is new
        assert table.num_leaf_entries == entries

    def test_unmap_of_a_packed_slot(self, table):
        node_base = table.walk(0x400 << 12).steps[-1].node_paddr
        entries = table.num_leaf_entries
        removed = table.unmap_page(0x408 << 12)
        assert removed.valid is False
        assert (removed.vpn, removed.pfn, removed.entry_paddr) == (0x408, 0x77, node_base + 64)
        assert table.lookup(0x408 << 12) is None
        assert table.num_leaf_entries == entries - 1
        pte = table.lookup(0x409 << 12)
        assert table.unmap_page(0x409 << 12) is pte and pte.valid is False

    def test_leaves_follow_all_entries_without_building(self, table):
        table.map_page(vpn=0x3, pfn=0x40, page_size=PageSize.SIZE_2M)
        looked_up = table.lookup(0x405 << 12)
        built = built_entries(table)
        leaves = list(table.leaves())
        assert built_entries(table) == built == 3
        assert [pte for _, _, pte in leaves].count(None) == 0xE
        entries = table.all_entries()
        assert [(vpn, size) for vpn, size, _ in leaves] == [
            (entry.vpn, entry.page_size) for entry in entries]
        assert all(pte is None or pte is entry for (_, _, pte), entry in zip(leaves, entries))
        assert looked_up in [pte for _, _, pte in leaves]

    def test_entry_4k_builds_the_slot_entry(self, table):
        node = table.pt_node(0x400)
        pte = table.entry_4k(0x406)
        assert node.leaves[6] is pte and (pte.vpn, pte.pfn) == (0x406, 0x75)
        assert table.entry_4k(0x406) is pte
        assert table.lookup(0x406 << 12) is pte
        assert built_entries(table) == 2
        with pytest.raises(KeyError):
            table.entry_4k(0x410)

    def test_frame_numbers_read_frames_without_building_entries(self, table):
        table.map_page(vpn=0x3, pfn=0x40, page_size=PageSize.SIZE_2M)  # pages 0x600-0x7FF
        vpns = [0x402, 0x400, 0x7FF, 0x410, 0x601, 0x600, 0x9000, 0x40F, 0x6FF]
        frames = table.frame_numbers(vpns)
        node = table.pt_node(0x400)
        assert [type(leaf) for leaf in node.leaves.values()] == [PageTableEntry] + [int] * 0xF
        assert frames == [0x71, 0x1, (0x40 << 9) | 0x1FF, None, (0x40 << 9) | 0x1,
                          0x40 << 9, None, 0x7E, (0x40 << 9) | 0xFF]
        for vpn, frame in zip(vpns, frames):
            pte = table.lookup(vpn << 12)
            assert frame == (None if pte is None else pte.translate(vpn << 12) >> 12)

    def test_prefault_builds_entries_only_on_the_per_page_path(self):
        spec = ScenarioSpec.from_dict({
            "name": "packed", "system": "radix", "max_refs": 100, "seed": 42,
            "hardware_scale": 16,
            "workload": {"workload": "bfs", "footprint_scale": 0.05}})
        simulator = build_simulator(spec)
        simulator.prefault()
        pt_nodes, huge_pages, packed = 0, 0, 0
        stack = [simulator.system.page_table._root]
        while stack:
            node = stack.pop()
            kinds = [type(leaf) for leaf in node.leaves.values()]
            if node.level == LEAF_LEVEL_4K:
                # The page that created the node took the per-page path.
                assert kinds == [PageTableEntry] + [int] * (len(kinds) - 1)
                pt_nodes += 1
                packed += len(kinds) - 1
            else:
                assert set(kinds) <= {PageTableEntry}
                huge_pages += len(kinds)
            stack.extend(node.children.values())
        assert pt_nodes and huge_pages and packed > 10 * pt_nodes


class _RecordingHierarchy:
    """Stands in for the cache hierarchy: records every address a walk reads."""

    def __init__(self):
        self.addresses = []

    def access_for_ptw(self, paddr):
        self.addresses.append(paddr)
        return AccessResult(1, MemoryLevel.L2)


class TestRadixWalkOracle:
    """Walk addresses derived by hand, not recorded from the code.

    The x86-64 walk (Figure 1 of the paper) starts at the root node (CR3).
    At level k it reads the 8-byte entry at node base + 8 * ((va >> s) & 511),
    with s = 39, 30, 21 and 12 for PML4, PDPT, PD and PT.  A 2 MB page's leaf
    is the PD entry, so its walk stops after three reads.  Victima's TLB
    block is the 64-byte block holding the leaf entry.
    """

    SHIFTS = (39, 30, 21, 12)
    #: Three 4 KB pages with different PML4 indices, and a 2 MB page that
    #: shares its PML4 and PDPT indices with ``4k_a``.
    VAS = {"4k_a": (1 << 39) | (2 << 30) | (3 << 21) | (4 << 12),
           "4k_b": (7 << 39) | (511 << 30) | (0 << 21) | (511 << 12),
           "4k_c": (300 << 39) | (45 << 30) | (100 << 21) | (257 << 12),
           "2m": (1 << 39) | (2 << 30) | (5 << 21)}

    @pytest.fixture
    def table(self, page_table):
        for pfn, (name, va) in enumerate(self.VAS.items(), start=0x100):
            if name == "2m":
                page_table.map_page(vpn=va >> 21, pfn=pfn, page_size=PageSize.SIZE_2M)
            else:
                page_table.map_page(vpn=va >> 12, pfn=pfn)
        return page_table

    def expected_entries(self, va, node_bases):
        return [base + 8 * ((va >> shift) & 511)
                for base, shift in zip(node_bases, self.SHIFTS)]

    @pytest.mark.parametrize("name", VAS)
    def test_each_entry_is_node_base_plus_eight_times_index(self, table, name):
        va = self.VAS[name]
        levels = 3 if name == "2m" else 4
        path = table.walk(va)
        assert len(path.steps) == levels
        assert path.steps[0].node_paddr == table.root_paddr
        nodes = [step.node_paddr for step in path.steps]
        assert all(base % 4096 == 0 for base in nodes)
        assert len(set(nodes)) == levels
        assert [step.level for step in path.steps] == list(range(levels))
        assert ([step.entry_paddr for step in path.steps]
                == self.expected_entries(va, nodes))

    @pytest.mark.parametrize("name", VAS)
    def test_leaf_entry_and_tlb_block(self, table, name):
        path = table.walk(self.VAS[name])
        leaf = path.steps[-1].entry_paddr
        assert path.pte.entry_paddr == leaf
        assert path.pte.cluster_block_paddr == leaf & ~63

    def test_walks_share_nodes_exactly_where_indices_agree(self, table):
        first, huge = table.walk(self.VAS["4k_a"]), table.walk(self.VAS["2m"])
        # Same PML4 and PDPT indices: same root, PDPT node and PD node.
        assert ([step.node_paddr for step in huge.steps]
                == [step.node_paddr for step in first.steps[:3]])
        # Different PML4 indices: three different PDPT nodes.
        assert len({table.walk(self.VAS[name]).steps[1].node_paddr
                    for name in ("4k_a", "4k_b", "4k_c")}) == 3

    @pytest.mark.parametrize("name", VAS)
    def test_cold_walker_reads_exactly_the_derived_entries(self, table, name):
        va = self.VAS[name]
        hierarchy = _RecordingHierarchy()
        result = PageTableWalker(hierarchy).walk(table, va)
        nodes = [step.node_paddr for step in table.walk(va).steps]
        assert hierarchy.addresses == self.expected_entries(va, nodes)
        assert result.memory_accesses == len(nodes)


class TestVirtualMemoryManager:
    def test_demand_mapping_is_stable(self, vmm):
        pte1 = vmm.ensure_mapped(0x1234_5000)
        pte2 = vmm.ensure_mapped(0x1234_5FFF)
        assert pte1 is pte2
        assert vmm.stats.demand_faults == 1

    def test_all_4k_when_fraction_zero(self, vmm):
        for i in range(16):
            pte = vmm.ensure_mapped(0x4000_0000 + i * PAGE_SIZE_2M)
            assert pte.page_size is PageSize.SIZE_4K
        assert vmm.stats.pages_2m == 0

    def test_all_huge_when_fraction_one(self, vmm_huge):
        pte = vmm_huge.ensure_mapped(0x4000_0123)
        assert pte.page_size is PageSize.SIZE_2M
        assert vmm_huge.stats.pages_2m == 1

    def test_huge_decision_is_deterministic(self, physical):
        a = VirtualMemoryManager(physical, asid=0, huge_page_fraction=0.5)
        b = VirtualMemoryManager(PhysicalMemory(1 << 30), asid=0, huge_page_fraction=0.5)
        addresses = [0x1000_0000 + i * PAGE_SIZE_2M for i in range(32)]
        sizes_a = [a.ensure_mapped(addr).page_size for addr in addresses]
        sizes_b = [b.ensure_mapped(addr).page_size for addr in addresses]
        assert sizes_a == sizes_b
        assert PageSize.SIZE_2M in sizes_a and PageSize.SIZE_4K in sizes_a

    def test_translate_returns_physical_address(self, vmm):
        paddr = vmm.translate(0x5555_1234)
        pte = vmm.ensure_mapped(0x5555_1234)
        assert paddr == pte.translate(0x5555_1234)

    def test_prefault_range(self, vmm):
        mapped = vmm.prefault_range(0x9000_0000, 64 * 1024)
        assert mapped == 16
        assert vmm.footprint_bytes == 64 * 1024

    def test_prefault_range_with_huge_pages(self, vmm_huge):
        mapped = vmm_huge.prefault_range(0x0, 4 * PAGE_SIZE_2M)
        assert mapped == 4

    def test_fault_in_a_huge_region_with_a_pt_node_maps_4k(self, vmm_huge):
        # The region is decided huge, but its PT node already holds a 4 KB
        # leaf, which a 2 MB leaf at the PD slot would hide.
        table = vmm_huge.page_table
        small = table.map_page(vpn=0x4000_5000 >> 12, pfn=0x77)
        pte = vmm_huge.ensure_mapped(0x4000_0000)
        assert pte.page_size is PageSize.SIZE_4K
        assert (vmm_huge.stats.pages_4k, vmm_huge.stats.pages_2m) == (1, 0)
        assert table.lookup(0x4000_5000) is small and small.valid
        assert table.lookup(0x4000_0000) is pte
        assert table.walk(0x4000_5000).pte is small
        assert table.num_leaf_entries == 2
        # A huge region without a PT node still takes a 2 MB page.
        assert vmm_huge.ensure_mapped(0x4020_0000).page_size is PageSize.SIZE_2M

    def test_fault_that_runs_out_of_memory_takes_no_frame(self):
        # 512 frames: the root, 509 taken here and two left.  The fault takes
        # the data frame, then the PDPT node; the PD node does not fit.
        physical = PhysicalMemory(PAGE_SIZE_2M)
        vmm = VirtualMemoryManager(physical, huge_page_fraction=0.0)
        taken = len(physical.allocate_4k_frames(509))
        with pytest.raises(OutOfPhysicalMemory):
            vmm.ensure_mapped(0x1000)
        table = vmm.page_table
        assert (vmm.stats.demand_faults, vmm.stats.pages_4k, vmm.stats.pages_2m) == (0, 0, 0)
        assert vmm.footprint_bytes == 0
        assert table.num_leaf_entries == 0 and table.lookup(0x1000) is None
        # The data frame went back; the new PDPT node stays, as the pages
        # before a failing one stay in ``prefault_range``.
        assert table.num_nodes == 2
        assert physical.allocated_4k_frames == taken + table.num_nodes

    def test_unmap_releases_frame(self, vmm):
        vmm.ensure_mapped(0x7000_0000)
        before = vmm.physical.allocated_4k_frames
        vmm.unmap(0x7000_0000)
        assert vmm.physical.allocated_4k_frames == before - 1
        assert vmm.unmap(0x7000_0000) is None

    def test_invalid_fraction_rejected(self, physical):
        with pytest.raises(ValueError):
            VirtualMemoryManager(physical, huge_page_fraction=1.5)


def _prefault_per_page(vmm: VirtualMemoryManager, start_vaddr: int, size_bytes: int) -> int:
    """The reference prefault: one ``ensure_mapped`` per page, in order."""
    covered = 0
    vaddr = start_vaddr
    end = start_vaddr + size_bytes
    while vaddr < end:
        pte = vmm.ensure_mapped(vaddr)
        vaddr = (pte.vpn + 1) << pte.page_size.offset_bits
        covered += 1
    return covered


#: Regions are 2 MB regions from ``_BASE``.  At huge fraction 0.3 (asid 0)
#: regions 3 and 6 are decided huge, the others in 2..10 are not.
_BASE = 0x4000_0000
_START = _BASE + 2 * PAGE_SIZE_2M + 3 * PAGE_SIZE_4K + 0x123
_SIZE = 6 * PAGE_SIZE_2M + 4 * PAGE_SIZE_4K + 0x567 - 3 * PAGE_SIZE_4K - 0x123


def _region(k: int, page: int = 0) -> int:
    return _BASE + k * PAGE_SIZE_2M + page * PAGE_SIZE_4K


def _prepared_vmm(fraction: float) -> VirtualMemoryManager:
    """A VMM whose range already holds mappings and whose allocator has freed frames."""
    physical = PhysicalMemory(1 << 32)
    vmm = VirtualMemoryManager(physical, asid=0, huge_page_fraction=fraction)
    table = vmm.page_table
    # A demand-mapped page mid-region (4K where the region is not huge).
    vmm.ensure_mapped(_region(4, 77))
    # 4K pages mapped whatever the THP decision: the first page of a region,
    # a page in region 3 (huge at fractions 0.3 and 1.0), and the last page
    # before region 3.
    for vaddr in (_region(5, 0), _region(3, 5), _region(2, 511)):
        table.map_page(vaddr >> 12, physical.allocate_frame() >> 12)
    # A 2 MB page in region 7, which fraction 0.3 leaves small.
    table.map_page(_region(7) >> 21, physical.allocate_frame(PageSize.SIZE_2M) >> 21,
                   PageSize.SIZE_2M)
    # Two frames on a free list, left by unmaps outside the range.
    for far in (_region(9, 1), _region(10, 2)):
        vmm.ensure_mapped(far)
    for far in (_region(9, 1), _region(10, 2)):
        vmm.unmap(far)
    return vmm


def _vmm_state(vmm: VirtualMemoryManager) -> tuple:
    return (page_table_state(vmm.page_table), allocator_state(vmm.physical), vmm.stats)


class TestPrefaultRuns:
    """``prefault_range`` maps a PT node at a time, exactly like the per-page loop."""

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_matches_per_page_loop(self, fraction):
        runs, single = _prepared_vmm(fraction), _prepared_vmm(fraction)
        assert _vmm_state(runs) == _vmm_state(single)
        covered = runs.prefault_range(_START, _SIZE)
        assert covered == _prefault_per_page(single, _START, _SIZE)
        assert _vmm_state(runs) == _vmm_state(single)
        # The page holding the range's last byte is mapped, the next is not.
        assert runs.page_table.lookup(_START + _SIZE - 1) is not None
        if fraction == 0.0:
            assert runs.physical._free_4k == []
            assert runs.page_table.lookup(_START + _SIZE - 1 + PAGE_SIZE_4K) is None

    def test_layout_mixes_page_sizes_at_fraction_0_3(self):
        vmm = _prepared_vmm(0.3)
        vmm.prefault_range(_START, _SIZE)
        sizes = {vmm.page_table.lookup(_region(k, 3)).page_size for k in range(2, 9)}
        assert sizes == {PageSize.SIZE_4K, PageSize.SIZE_2M}

    def test_second_pass_covers_the_same_pages_without_faults(self, vmm):
        covered = vmm.prefault_range(_START, _SIZE)
        faults = vmm.stats.demand_faults
        assert vmm.prefault_range(_START, _SIZE) == covered
        assert vmm.stats.demand_faults == faults

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_second_pass_builds_no_entries(self, fraction):
        twice, once = _prepared_vmm(fraction), _prepared_vmm(fraction)
        covered = twice.prefault_range(_START, _SIZE)
        assert once.prefault_range(_START, _SIZE) == covered
        built = built_entries(twice.page_table)
        assert twice.prefault_range(_START, _SIZE) == covered
        # Counted before page_table_state, which builds every entry itself.
        assert built_entries(twice.page_table) == built
        assert _vmm_state(twice) == _vmm_state(once)

    def test_out_of_memory_raises_before_mapping_the_run(self):
        physical = PhysicalMemory(PAGE_SIZE_2M * 2)
        vmm = VirtualMemoryManager(physical, huge_page_fraction=0.0)
        with pytest.raises(OutOfPhysicalMemory):
            vmm.prefault_range(0, PAGE_SIZE_2M * 2)
        # Region 0 took its 512 pages and four nodes, region 1 its first page
        # and PT node; the 511 frames of region 1's run did not fit in the
        # 506 left, so none of them was taken.
        assert vmm.page_table.num_leaf_entries == 513
        assert physical.allocated_4k_frames == 518
        assert vmm.stats.demand_faults == 513
        assert vmm.page_table.lookup(PAGE_SIZE_2M + PAGE_SIZE_4K) is None
