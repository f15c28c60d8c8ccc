"""Virtualized execution: nested paging, nested TLBs, shadow paging, virtualized MMU."""

from repro.virt.shadow import ShadowPageTableBuilder
from repro.virt.nested import NestedPageTableWalker, NestedWalkResult, NestedWalkStats
from repro.virt.virt_mmu import VirtualizedMMU, VirtualizedMMUStats

__all__ = [
    "ShadowPageTableBuilder",
    "NestedPageTableWalker",
    "NestedWalkResult",
    "NestedWalkStats",
    "VirtualizedMMU",
    "VirtualizedMMUStats",
]
