"""MMU components: TLBs, page-walk caches, the page-table walker and the MMU."""

from repro.mmu.tlb import TLB, TLBEntry, TLBStats
from repro.mmu.pwc import PageWalkCaches
from repro.mmu.page_walker import PageTableWalker, PTWResult, PTWStats
from repro.mmu.mmu import MMU, MMUStats
from repro.mmu.maintenance import TLBMaintenance

__all__ = [
    "TLB",
    "TLBEntry",
    "TLBStats",
    "PageWalkCaches",
    "PageTableWalker",
    "PTWResult",
    "PTWStats",
    "MMU",
    "MMUStats",
    "TLBMaintenance",
]
