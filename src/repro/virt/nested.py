"""Nested paging: the two-dimensional page-table walk (Section 2.3).

Under nested paging every guest-physical address touched during a guest walk —
the four guest page-table entries plus the final data page — must itself be
translated to a host-physical address.  Each of those translations is served
by the nested TLB when possible and by a full host page-table walk otherwise,
which is how a single L2 TLB miss can cost up to 24 memory accesses.

When Victima is attached (Section 5.4), a nested-TLB miss additionally probes
the L2 cache for a *nested TLB block* before falling back to the host walk, and
completed host walks insert nested TLB blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.addresses import PAGE_SIZE_4K
from repro.common.stats import ResettableStats
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.page_table import PageTableEntry, RadixPageTable
from repro.mmu.page_walker import PageTableWalker
from repro.mmu.pwc import PageWalkCaches
from repro.mmu.tlb import TLB
from repro.virt.shadow import ShadowPageTableBuilder


@dataclass
class NestedWalkResult:
    """Outcome of one two-dimensional (guest × host) walk.

    ``pte`` is the combined guest-virtual → host-physical entry the walk
    installed in the shadow table: the one the TLBs cache.
    """

    pte: PageTableEntry
    guest_pte: PageTableEntry
    latency: int
    guest_latency: int
    host_latency: int
    guest_memory_accesses: int
    host_walks: int
    dram_accesses: int

    @property
    def breakdown(self) -> Dict[str, int]:
        """The walk's share of a miss's latency breakdown, per dimension."""
        return {"guest": self.guest_latency, "host": self.host_latency}


@dataclass
class NestedWalkStats:
    walks: int = 0
    total_latency: int = 0
    total_guest_latency: int = 0
    total_host_latency: int = 0
    total_host_walks: int = 0
    nested_tlb_hits: int = 0
    nested_tlb_misses: int = 0
    nested_block_hits: int = 0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.walks if self.walks else 0.0


class NestedPageTableWalker(ResettableStats):
    """Performs 2-D walks over a guest page table backed by a host page table."""

    def __init__(
        self,
        guest_vmm: VirtualMemoryManager,
        host_vmm: VirtualMemoryManager,
        host_walker: PageTableWalker,
        nested_tlb: TLB,
        hierarchy: CacheHierarchy,
        shadow_builder: ShadowPageTableBuilder,
        guest_pwcs: Optional[PageWalkCaches] = None,
        victima=None,
        vmid: int = 0,
    ):
        self.guest_vmm = guest_vmm
        self.host_vmm = host_vmm
        self.host_walker = host_walker
        self.nested_tlb = nested_tlb
        self.hierarchy = hierarchy
        self.shadow_builder = shadow_builder
        self.guest_pwcs = guest_pwcs or PageWalkCaches()
        self.victima = victima
        self.vmid = vmid
        self.stats = NestedWalkStats()
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Guest-physical → host-physical translation (the "host dimension")
    # ------------------------------------------------------------------ #
    def nested_translate(self, gpa: int) -> Tuple[PageTableEntry, int, int]:
        """Translate a guest-physical address; returns ``(host_pte, latency, host_walks)``."""
        # Make sure the host has a backing frame for this guest-physical page.
        self.host_vmm.ensure_mapped(gpa)

        latency = self.nested_tlb.latency
        entry = self.nested_tlb.lookup(gpa, self.vmid)
        if entry is not None:
            self.stats.nested_tlb_hits += 1
            return entry.pte, latency, 0
        self.stats.nested_tlb_misses += 1

        if self.victima is not None:
            block_pte, probe_latency = self.victima.probe_nested(gpa, self.vmid)
            if block_pte is not None:
                self.stats.nested_block_hits += 1
                self._fill_nested_tlb(block_pte)
                return block_pte, latency + probe_latency, 0

        walk = self.host_walker.walk(self.host_vmm.page_table, gpa)
        latency += walk.latency
        self._fill_nested_tlb(walk.pte)
        if self.victima is not None:
            self.victima.on_nested_tlb_miss(walk.pte)
        return walk.pte, latency, 1

    def _fill_nested_tlb(self, host_pte: PageTableEntry) -> None:
        evicted = self.nested_tlb.insert(host_pte, self.vmid)
        if evicted is not None and self.victima is not None:
            self.victima.on_nested_tlb_eviction(evicted)

    # ------------------------------------------------------------------ #
    # The 2-D walk itself
    # ------------------------------------------------------------------ #
    def walk(self, guest_table: RadixPageTable, gva: int) -> NestedWalkResult:
        """Perform a full nested walk of ``guest_table``, the guest's page
        table, for guest-virtual address ``gva``.

        Takes the arguments a :class:`PageTableWalker` takes, so a backend
        resolves its misses through either walker the same way.  The guest
        page must already be mapped: the MMU demand-maps it on the L2 TLB
        miss, before the backend walks.
        """
        path = guest_table.walk(gva)
        leaf_level = path.steps[-1].level

        pwc_hit = self.guest_pwcs.deepest_hit_level(guest_table.asid, gva,
                                                    max_level=leaf_level - 1)
        first_level = 0 if pwc_hit is None else pwc_hit + 1

        guest_latency = self.guest_pwcs.latency
        host_latency = 0
        guest_accesses = 0
        host_walks = 0
        dram_accesses = 0

        for step in path.steps:
            if step.level < first_level:
                continue
            # Host dimension: translate the guest-physical address of the
            # guest page-table entry before the entry itself can be read.
            host_pte, nested_latency, walks = self.nested_translate(step.entry_paddr)
            host_latency += nested_latency
            host_walks += walks
            # Guest dimension: read the guest page-table entry.
            host_paddr = host_pte.translate(step.entry_paddr)
            access = self.hierarchy.access_for_ptw(host_paddr)
            guest_latency += access.latency
            guest_accesses += 1
            dram_accesses += access.dram_accesses

        self.guest_pwcs.fill(guest_table.asid, gva, range(first_level, leaf_level))

        # Final host translation: the data page's guest-physical base address.
        guest_pte = path.pte
        guest_page_base = guest_pte.pfn << guest_pte.page_size.offset_bits
        host_pte, nested_latency, walks = self.nested_translate(guest_page_base)
        host_latency += nested_latency
        host_walks += walks

        combined = self.shadow_builder.install(gva, guest_pte, host_pte)
        total_latency = guest_latency + host_latency
        combined.record_walk(total_latency, dram_accesses, 1 if pwc_hit is not None else 0)

        result = NestedWalkResult(
            pte=combined,
            guest_pte=guest_pte,
            latency=total_latency,
            guest_latency=guest_latency,
            host_latency=host_latency,
            guest_memory_accesses=guest_accesses,
            host_walks=host_walks,
            dram_accesses=dram_accesses,
        )
        self.stats.walks += 1
        self.stats.total_latency += total_latency
        self.stats.total_guest_latency += guest_latency
        self.stats.total_host_latency += host_latency
        self.stats.total_host_walks += host_walks
        return result

    # ------------------------------------------------------------------ #
    # Functional (untimed) path used by ideal shadow paging
    # ------------------------------------------------------------------ #
    def install_shadow_mapping(self, gva: int) -> PageTableEntry:
        """Install the combined gVA→hPA mapping without charging any latency.

        Ideal shadow paging assumes shadow-page-table updates are free; this is
        the hook it uses to keep the shadow table populated.
        """
        guest_pte = self.guest_vmm.ensure_mapped(gva)
        guest_page_base = guest_pte.pfn << guest_pte.page_size.offset_bits
        host_pte = self.host_vmm.ensure_mapped(guest_page_base)
        return self.shadow_builder.install(gva, guest_pte, host_pte)

    def install_shadow_range(self, start_gva: int, size_bytes: int) -> int:
        """Install the combined mapping of every guest page overlapping a range.

        Equivalent to one :meth:`install_shadow_mapping` per page, in order;
        returns the number of pages covered.  A run of pages whose guest
        leaves are present 4 KB leaves and whose shadow slots are free in an
        existing shadow PT node is installed in one step
        (:meth:`ShadowPageTableBuilder.install_run`), its host faults in
        runs of ``host_vmm.prefault_range``.  A run whose shadow slots are
        filled, whose guest leaves are 4 KB and whose host frames are all
        mapped is stepped over without building any entry, since the
        per-page path would change nothing there.  Every other page, such as
        the first of a region (which creates the shadow node), a 2 MB one or
        one whose guest leaf is missing, takes the per-page path.
        """
        guest_table = self.guest_vmm.page_table
        host_table = self.host_vmm.page_table
        shadow = self.shadow_builder
        shadow_table = shadow.table
        end = start_gva + size_bytes
        end_vpn = (end + PAGE_SIZE_4K - 1) >> 12  # one past the page holding end - 1
        covered = 0
        gva = start_gva
        while gva < end:
            vpn = gva >> 12
            free = shadow_table.unmapped_run(vpn, end_vpn)
            if free:
                guest_pfns = guest_table.leaf_run(vpn, vpn + free)
                if guest_pfns:
                    shadow.install_run(vpn, guest_pfns, self.host_vmm)
                count = len(guest_pfns)
            else:
                filled = len(shadow_table.leaf_run(vpn, end_vpn))
                host_pfns = host_table.frame_numbers(guest_table.leaf_run(vpn, vpn + filled))
                count = host_pfns.index(None) if None in host_pfns else len(host_pfns)
            if count:
                covered += count
                gva = (vpn + count) << 12
            else:
                combined = self.install_shadow_mapping(gva)
                covered += 1
                gva = (combined.vpn + 1) << combined.page_size.offset_bits
        return covered
