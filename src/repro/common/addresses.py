"""Address arithmetic for a modern x86-64-like machine.

The reference design point follows the paper (Section 5): 48-bit virtual
addresses, 52-bit physical addresses, 64-byte cache blocks, 4 KB base pages and
2 MB huge pages, and a four-level radix page table with 9 index bits per level.
"""

from __future__ import annotations

import enum
from typing import Tuple

VIRTUAL_ADDRESS_BITS = 48
PHYSICAL_ADDRESS_BITS = 52

CACHE_BLOCK_SIZE = 64
BLOCK_OFFSET_BITS = 6

PAGE_SIZE_4K = 4 * 1024
PAGE_SIZE_2M = 2 * 1024 * 1024

#: Number of radix page-table levels in x86-64 (PML4, PDPT, PD, PT).
RADIX_LEVELS = 4
#: Index bits consumed by each radix level.
RADIX_INDEX_BITS = 9
#: Entries per page-table node (512 eight-byte entries in one 4 KB frame).
ENTRIES_PER_NODE = 1 << RADIX_INDEX_BITS
#: Size in bytes of one page-table entry.
PTE_SIZE = 8
#: Number of PTEs that fit in one 64-byte cache block (a Victima "TLB block"
#: therefore covers 8 contiguous virtual pages).
PTES_PER_CACHE_BLOCK = CACHE_BLOCK_SIZE // PTE_SIZE


class PageSize(enum.IntEnum):
    """Supported page sizes.

    The integer value is the page size in bytes, so ``int(PageSize.SIZE_4K)``
    can be used directly in address arithmetic.
    """

    SIZE_4K = PAGE_SIZE_4K
    SIZE_2M = PAGE_SIZE_2M

    def __new__(cls, size: int) -> "PageSize":
        member = int.__new__(cls, size)
        member._value_ = size
        #: Number of page-offset bits for this page size (12 or 21).  A plain
        #: member attribute rather than a property: it is read on every
        #: mapping and translation.
        member.offset_bits = size.bit_length() - 1
        return member

    @property
    def label(self) -> str:
        return "4KB" if self is PageSize.SIZE_4K else "2MB"


def page_number(vaddr: int, page_size: PageSize = PageSize.SIZE_4K) -> int:
    """Return the page number of ``vaddr`` for the given page size."""
    return vaddr >> page_size.offset_bits


def radix_indices(vaddr: int) -> Tuple[int, int, int, int]:
    """Split a virtual address into its four radix page-table indices.

    Returns ``(pml4_index, pdpt_index, pd_index, pt_index)``, each 9 bits wide,
    exactly as Figure 1 of the paper describes for a 48-bit virtual address.
    """
    mask = ENTRIES_PER_NODE - 1
    pt = (vaddr >> 12) & mask
    pd = (vaddr >> 21) & mask
    pdpt = (vaddr >> 30) & mask
    pml4 = (vaddr >> 39) & mask
    return pml4, pdpt, pd, pt


def align_up(addr: int, alignment: int) -> int:
    """Round ``addr`` up to a multiple of ``alignment`` (a power of two)."""
    return (addr + alignment - 1) & ~(alignment - 1)


def is_power_of_two(value: int) -> bool:
    """Return ``True`` if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0
