"""Cache block representation and key construction.

A Victima-enabled L2 cache stores two kinds of blocks in the same data store:

* **Data blocks** — conventional 64-byte blocks, indexed and tagged by the
  physical address.
* **TLB blocks** (and, in virtualized execution, **nested TLB blocks**) —
  blocks holding a cluster of eight PTEs for eight contiguous virtual pages,
  indexed and tagged by the *virtual* page-cluster number, the ASID/VMID and
  the page size (Figure 13 of the paper).

We capture both with a single :class:`CacheBlock` plus two helper key
constructors.  A key is ``(index_value, tag)``: the cache derives the set from
``index_value`` and stores/compares the full ``tag`` (which embeds the kind,
so a data block and a TLB block can never alias).
"""

from __future__ import annotations

import enum
from typing import Any, Optional, Tuple

from repro.common.addresses import BLOCK_OFFSET_BITS, PTES_PER_CACHE_BLOCK, PageSize

#: A cache key: (set-index value, full tag).
CacheKey = Tuple[int, tuple]


class BlockKind(enum.Enum):
    """Kind of block stored in a cache entry."""

    DATA = "data"
    TLB = "tlb"
    NESTED_TLB = "nested_tlb"


def data_key(paddr: int) -> CacheKey:
    """Key for a conventional data block, indexed by physical block number."""
    block_number = paddr >> BLOCK_OFFSET_BITS
    return block_number, ("D", block_number)


def tlb_key(vpn: int, asid: int, page_size: PageSize) -> CacheKey:
    """Key for a TLB block covering the 8-page cluster containing ``vpn``.

    The set index is derived from the cluster number (the VPN with its three
    least-significant bits dropped), mirroring Figure 13 where the TLB block's
    set index comes from virtual-address bits above the 3-bit PTE selector.
    """
    cluster = vpn >> 3
    return cluster, ("T", asid, int(page_size), cluster)


def nested_tlb_key(host_vpn: int, vmid: int, page_size: PageSize) -> CacheKey:
    """Key for a nested TLB block (guest-physical → host-physical cluster)."""
    cluster = host_vpn >> 3
    return cluster, ("N", vmid, int(page_size), cluster)


class CacheBlock:
    """One resident cache block and its metadata.

    A hand-rolled ``__slots__`` class (not a dataclass): the ``tag`` /
    ``is_tlb_block`` accessors sit on the hit path of every cache lookup, so
    both are precomputed at construction instead of being re-derived through
    properties.  A data fill that evicts reuses the evicted object through
    :meth:`reset_as_data` instead of building a new one; otherwise ``key``
    and ``kind`` are never reassigned.
    """

    __slots__ = ("key", "tag", "kind", "is_tlb_block", "dirty", "asid",
                 "page_size", "payload", "prefetched", "rrpv", "last_touch",
                 "reuse_count")

    def __init__(
        self,
        key: CacheKey,
        kind: BlockKind = BlockKind.DATA,
        dirty: bool = False,
        asid: Optional[int] = None,
        page_size: Optional[PageSize] = None,
        payload: Any = None,
        prefetched: bool = False,
        rrpv: int = 0,
        last_touch: int = 0,
        reuse_count: int = 0,
    ):
        self.key = key
        #: Full tag (``key[1]``), cached for the set-scan comparison loop.
        self.tag = key[1]
        self.kind = kind
        #: Whether this is a TLB or nested-TLB block (the kind never changes).
        self.is_tlb_block = kind is not BlockKind.DATA
        self.dirty = dirty
        #: Address-space identifier for TLB / nested TLB blocks (None for data).
        self.asid = asid
        #: Page size covered by each entry of a TLB block (None for data).
        self.page_size = page_size
        #: Arbitrary payload; for TLB blocks this is the 8-slot PTE cluster.
        self.payload = payload
        #: Whether the block was brought in by a prefetcher (for accuracy stats).
        self.prefetched = prefetched
        # Replacement state
        self.rrpv = rrpv
        self.last_touch = last_touch
        # Reuse tracking
        self.reuse_count = reuse_count

    def reset_as_data(self, key: CacheKey, dirty: bool, prefetched: bool) -> None:
        """Give every slot the value ``CacheBlock(key, BlockKind.DATA, dirty,
        prefetched=prefetched)`` would set."""
        self.key = key
        self.tag = key[1]
        self.kind = BlockKind.DATA
        self.is_tlb_block = False
        self.dirty = dirty
        self.asid = None
        self.page_size = None
        self.payload = None
        self.prefetched = prefetched
        self.rrpv = 0
        self.last_touch = 0
        self.reuse_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheBlock(key={self.key!r}, kind={self.kind!r}, "
                f"dirty={self.dirty}, rrpv={self.rrpv}, "
                f"reuse_count={self.reuse_count})")

    def find_translation(self, vpn: int) -> Optional[Any]:
        """For TLB blocks: return the PTE for ``vpn`` if present in the cluster.

        The three least-significant VPN bits select one of the eight entries,
        exactly as described in Section 5.1 (footnote 3) of the paper.
        """
        if not self.is_tlb_block or self.payload is None:
            return None
        slot = vpn & (PTES_PER_CACHE_BLOCK - 1)
        entry = self.payload[slot]
        if entry is None or not getattr(entry, "valid", True):
            return None
        return entry
