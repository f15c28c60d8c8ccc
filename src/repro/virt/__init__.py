"""Virtualized execution: nested paging, nested TLBs and shadow paging."""

from repro.virt.shadow import ShadowPageTableBuilder
from repro.virt.nested import NestedPageTableWalker, NestedWalkResult, NestedWalkStats

__all__ = [
    "ShadowPageTableBuilder",
    "NestedPageTableWalker",
    "NestedWalkResult",
    "NestedWalkStats",
]
