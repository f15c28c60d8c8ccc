"""Demand paging and transparent-huge-page policy.

The paper's workloads run under Linux with Transparent Huge Pages enabled, so
their address spaces are a mix of 4 KB and 2 MB mappings (Table 3 / Section 8:
"We extract the page size information for each workload from a real system
that uses Transparent Huge Pages").  We reproduce that with a deterministic
THP policy: each naturally aligned 2 MB virtual region is promoted to a huge
page with a workload-specific probability, decided by a hash of the region
number so every run of the same workload sees the same page-size layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, PageSize
from repro.common.errors import OutOfPhysicalMemory
from repro.memory.page_table import PageTableEntry, RadixPageTable
from repro.memory.physical import PhysicalMemory

#: Knuth multiplicative hash constant used for the deterministic THP decision.
_HASH_MULTIPLIER = 2654435761
_HASH_MODULUS = 1 << 32


@dataclass
class VMStats:
    """Bookkeeping for one address space."""

    pages_4k: int = 0
    pages_2m: int = 0
    demand_faults: int = 0

    @property
    def footprint_bytes(self) -> int:
        return self.pages_4k * 4096 + self.pages_2m * PAGE_SIZE_2M


class VirtualMemoryManager:
    """Demand-pages an address space into a :class:`RadixPageTable`.

    Parameters
    ----------
    physical:
        The physical frame allocator to draw frames from.
    asid:
        Address-space identifier of the owning process.
    huge_page_fraction:
        Probability that a 2 MB-aligned virtual region is backed by a huge
        page rather than 4 KB pages.  The decision is a deterministic function
        of the region number, so the layout is stable across runs.
    page_table:
        Optionally, an existing page table to populate (used by the nested
        paging setup, where the "physical" space of the guest is itself an
        address space demand-paged in the host).
    """

    def __init__(
        self,
        physical: PhysicalMemory,
        asid: int = 0,
        huge_page_fraction: float = 0.3,
        page_table: RadixPageTable | None = None,
    ):
        if not 0.0 <= huge_page_fraction <= 1.0:
            raise ValueError("huge_page_fraction must be in [0, 1]")
        self.physical = physical
        self.asid = asid
        self.huge_page_fraction = huge_page_fraction
        self.page_table = page_table or RadixPageTable(physical, asid=asid)
        self.stats = VMStats()

    # ------------------------------------------------------------------ #
    # THP policy
    # ------------------------------------------------------------------ #
    def _region_is_huge(self, vaddr: int) -> bool:
        if self.huge_page_fraction <= 0.0:
            return False
        if self.huge_page_fraction >= 1.0:
            return True
        region = vaddr >> PageSize.SIZE_2M.offset_bits
        mixed = (region * _HASH_MULTIPLIER + self.asid * 0x9E3779B9) % _HASH_MODULUS
        return (mixed / _HASH_MODULUS) < self.huge_page_fraction

    # ------------------------------------------------------------------ #
    # Demand paging
    # ------------------------------------------------------------------ #
    def ensure_mapped(self, vaddr: int) -> PageTableEntry:
        """Return the PTE covering ``vaddr``, demand-allocating it if needed.

        A fault maps a 2 MB page in a region the THP policy decides huge,
        unless that region's PT node already exists: then it maps a 4 KB
        page, as Linux does when the PMD already points to a page table, so
        a 2 MB leaf never hides the node's 4 KB leaves.

        The data frame goes out before any node the page needs.  Should a
        node not fit, the frame goes back, the fault is not counted and the
        error propagates; the nodes built before it stay.
        """
        pte = self.page_table.lookup(vaddr)
        if pte is not None:
            return pte
        if self._region_is_huge(vaddr) and self.page_table.pt_node(vaddr >> 12) is None:
            page_size = PageSize.SIZE_2M
        else:
            page_size = PageSize.SIZE_4K
        offset_bits = page_size.offset_bits
        frame = self.physical.allocate_frame(page_size)
        try:
            pte = self.page_table.map_page(vaddr >> offset_bits, frame >> offset_bits,
                                           page_size)
        except OutOfPhysicalMemory:
            self.physical.free_frame(frame, page_size)
            raise
        self.stats.demand_faults += 1
        if page_size is PageSize.SIZE_2M:
            self.stats.pages_2m += 1
        else:
            self.stats.pages_4k += 1
        return pte

    def translate(self, vaddr: int) -> int:
        """Functional virtual-to-physical translation with demand paging."""
        return self.ensure_mapped(vaddr).translate(vaddr)

    def prefault_range(self, start_vaddr: int, size_bytes: int) -> int:
        """Eagerly map a virtual range; returns the number of pages covered.

        Every page overlapping the range counts once, whether this call maps
        it or finds it already mapped.  Workload generators use this to model
        allocation-time population of data structures whose first touch we do
        not want to bill as a page fault during the measured region.

        The range is mapped one PT node at a time.  Where the PT node
        exists, each run of unmapped pages is mapped in one step: one frame
        grab, filled straight into the node as packed leaves (a fault there
        maps a 4 KB page even in a region decided huge, see
        :meth:`ensure_mapped`).  A run of pages already mapped 4 KB is
        stepped over in one step too, without building their entries
        (:meth:`RadixPageTable.leaf_run`).  Every other page, such as the
        first of a region (which creates the node or maps a 2 MB page) or
        one a 2 MB page covers, goes through :meth:`ensure_mapped`.  Frames
        still go out in page order, each page's data frame before any node
        it needs, so the result is exactly that of one :meth:`ensure_mapped`
        per page, in order.  Should physical memory run out, the pages
        before the failing one stay mapped, and a run whose frames do not
        all fit maps none of its pages
        (:meth:`~repro.memory.physical.PhysicalMemory.allocate_4k_frames`
        raises before taking any).
        """
        table = self.page_table
        stats = self.stats
        end = start_vaddr + size_bytes
        end_vpn = (end + PAGE_SIZE_4K - 1) >> 12  # one past the page holding end - 1
        covered = 0
        vaddr = start_vaddr
        while vaddr < end:
            vpn = vaddr >> 12
            count = table.unmapped_run(vpn, end_vpn)
            if count:
                frames = self.physical.allocate_4k_frames(count)
                table.map_4k_run(vpn, [frame >> 12 for frame in frames])
                stats.demand_faults += count
                stats.pages_4k += count
            else:
                count = len(table.leaf_run(vpn, end_vpn))
            if count:
                covered += count
                vaddr = (vpn + count) << 12
            else:
                pte = self.ensure_mapped(vaddr)
                covered += 1
                vaddr = (pte.vpn + 1) << pte.page_size.offset_bits
        return covered

    def unmap(self, vaddr: int) -> PageTableEntry | None:
        """Unmap the page containing ``vaddr`` and release its frame."""
        pte = self.page_table.unmap_page(vaddr)
        if pte is None:
            return None
        self.physical.free_frame(pte.pfn << pte.page_size.offset_bits, pte.page_size)
        if pte.page_size is PageSize.SIZE_2M:
            self.stats.pages_2m -= 1
        else:
            self.stats.pages_4k -= 1
        return pte

    @property
    def footprint_bytes(self) -> int:
        return self.stats.footprint_bytes
