"""Shadow page table: direct guest-virtual → host-physical mappings.

Two users:

* **Ideal shadow paging (I-SP)** — the paper's optimistic comparison point for
  virtualized execution: translation needs only a one-dimensional walk of the
  shadow table and keeping the shadow table synchronised with the guest is
  assumed free.
* **The combined-translation store** — in every virtualized system the L2 TLB
  (and Victima's conventional TLB blocks) hold direct gVA→hPA translations;
  we materialise those combined entries as PTEs of a shadow radix table so
  the TLB, the PTW-CP counters and Victima's cluster transformation all work
  unchanged.
"""

from __future__ import annotations

from typing import List

from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.page_table import PageTableEntry, RadixPageTable
from repro.memory.physical import PhysicalMemory


class ShadowPageTableBuilder:
    """Lazily builds a radix table of combined gVA→hPA translations."""

    def __init__(self, host_physical: PhysicalMemory, vmid: int = 0):
        self.vmid = vmid
        self.table = RadixPageTable(host_physical, asid=vmid)
        self.installed_pages = 0

    def install(self, gva: int, guest_pte: PageTableEntry,
                host_pte: PageTableEntry) -> PageTableEntry:
        """Install (or fetch) the combined mapping for the page containing ``gva``.

        The combined entry uses the *guest* page size; its frame number is the
        host-physical address of the guest page's base.  When a 2 MB guest page
        is backed by 4 KB host pages the resulting physical addresses inside
        the page are an approximation (they assume host contiguity), which only
        affects which cache sets the data lands in, not translation behaviour.
        """
        page_size = guest_pte.page_size
        vpn = gva >> page_size.offset_bits
        existing = self.table.lookup(vpn << page_size.offset_bits)
        if existing is not None:
            return existing
        guest_page_base = guest_pte.pfn << page_size.offset_bits
        host_base = host_pte.translate(guest_page_base)
        pfn = host_base >> page_size.offset_bits
        combined = self.table.map_page(vpn, pfn, page_size)
        self.installed_pages += 1
        return combined

    def install_run(self, vpn: int, guest_pfns: List[int],
                    host_vmm: VirtualMemoryManager) -> None:
        """Install the combined mappings of 4 KB guest pages ``vpn``, ``vpn + 1``, ….

        ``guest_pfns`` are the pages' guest frames (a guest
        :meth:`~repro.memory.page_table.RadixPageTable.leaf_run`), and the
        pages must be an
        :meth:`~repro.memory.page_table.RadixPageTable.unmapped_run` of the
        shadow table.  The host frames are read from the host table without
        building its entries
        (:meth:`~repro.memory.page_table.RadixPageTable.frame_numbers`).
        Each maximal run of guest frames that the host has not mapped and
        that follow one another (``guest_pfns[k + 1] == guest_pfns[k] + 1``)
        is backed by one ``host_vmm.prefault_range`` call, in page order, so
        host faults allocate as one :meth:`install` per page would while
        most become packed host leaves.  The shadow PT node is then filled
        in one step, packed.  Should a host fault raise, the longest prefix
        of the pages whose host frames are mapped stays installed.
        """
        host_table = host_vmm.page_table
        host_pfns = host_table.frame_numbers(guest_pfns)
        count = len(guest_pfns)
        try:
            start = 0
            while start < count:
                if host_pfns[start] is not None:
                    start += 1
                    continue
                stop = start + 1
                while (stop < count and host_pfns[stop] is None
                       and guest_pfns[stop] == guest_pfns[stop - 1] + 1):
                    stop += 1
                try:
                    host_vmm.prefault_range(guest_pfns[start] << 12, (stop - start) << 12)
                finally:
                    host_pfns[start:stop] = host_table.frame_numbers(guest_pfns[start:stop])
                start = stop
        finally:
            installed = host_pfns.index(None) if None in host_pfns else count
            self.table.map_4k_run(vpn, host_pfns[:installed])
            self.installed_pages += installed

    def lookup(self, gva: int) -> PageTableEntry | None:
        """Return the combined entry for ``gva`` if one has been installed."""
        return self.table.lookup(gva)

    @property
    def size_bytes(self) -> int:
        return self.table.size_bytes
