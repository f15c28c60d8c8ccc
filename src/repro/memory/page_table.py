"""Four-level radix page table, materialised in simulated physical memory.

The page table is the central substrate of the reproduction: every page-table
walk issued by the hardware walker turns into memory accesses at the *physical
addresses of the page-table entries*, which then travel through the simulated
cache hierarchy exactly as in the paper's Sniper-based setup.  Victima's block
transformation also needs to know which 64-byte cache block holds the cluster
of eight leaf PTEs for a virtual page, which this module exposes via
:meth:`RadixPageTable.pte_cluster`.

Level numbering follows the walk order of Figure 1: level 0 is the PML4 root,
level 3 is the leaf PT.  2 MB pages terminate the walk at level 2 (the PD).

A 4 KB leaf written in bulk (:meth:`RadixPageTable.map_4k_run`, the
prefault path) is stored packed, as its PFN, much as hardware keeps a PTE
in one 64-bit word: its VPN and entry address follow from its node and
slot.  Its :class:`PageTableEntry` is built the first time a lookup, walk,
:meth:`RadixPageTable.all_entries` or :meth:`RadixPageTable.entry_4k`
returns it and then replaces the PFN in the slot, so every later read
returns the same object.  A pre-faulted table thus holds objects only for
the pages a run touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.common.addresses import (
    ENTRIES_PER_NODE,
    PTE_SIZE,
    PTES_PER_CACHE_BLOCK,
    PageSize,
    radix_indices,
)
from repro.common.errors import TranslationFault
from repro.memory.physical import PhysicalMemory

#: Leaf level for 4 KB pages (the PT level).
LEAF_LEVEL_4K = 3
#: Leaf level for 2 MB pages (the PD level).
LEAF_LEVEL_2M = 2
#: Right shift that brings each level's 9-bit index to the bottom of a
#: virtual address (PML4, PDPT, PD, PT), see :func:`radix_indices`.
_LEVEL_SHIFTS = (39, 30, 21, 12)
_INDEX_MASK = ENTRIES_PER_NODE - 1


class PTEFeatures:
    """Per-page feature counters from Table 1 of the paper.

    These are the ten features the PTW cost predictor study considers.  The
    two that the final comparator-based PTW-CP uses (PTW frequency and PTW
    cost) are saturating counters stored in the unused PTE bits; the remaining
    ones are gathered for the offline feature-selection study (Table 2).

    The nine counters are plain ints that saturate where they are
    incremented (:meth:`PageTableEntry.record_walk` and the MMU's inline
    updates), once they reach their width's maximum: ``ptw_frequency`` is 3
    bits (7), ``ptw_cost`` 4 bits (15), ``l2_tlb_evictions`` and
    ``accesses`` 6 bits (63), and the other five 5 bits (31).
    """

    __slots__ = ("page_size_is_2m", "ptw_frequency", "ptw_cost", "pwc_hits",
                 "l1_tlb_misses", "l2_tlb_misses", "l2_cache_hits",
                 "l1_tlb_evictions", "l2_tlb_evictions", "accesses")

    def __init__(self, page_size_is_2m: bool = False):
        self.page_size_is_2m = page_size_is_2m
        self.ptw_frequency = 0
        self.ptw_cost = 0
        self.pwc_hits = 0
        self.l1_tlb_misses = 0
        self.l2_tlb_misses = 0
        self.l2_cache_hits = 0
        self.l1_tlb_evictions = 0
        self.l2_tlb_evictions = 0
        self.accesses = 0

    def as_vector(self) -> List[int]:
        """Return the ten features as a plain list (for the predictor study)."""
        return [
            int(self.page_size_is_2m),
            self.ptw_frequency,
            self.ptw_cost,
            self.pwc_hits,
            self.l1_tlb_misses,
            self.l2_tlb_misses,
            self.l2_cache_hits,
            self.l1_tlb_evictions,
            self.l2_tlb_evictions,
            self.accesses,
        ]


#: Feature names in the order produced by :meth:`PTEFeatures.as_vector`.
FEATURE_NAMES: Tuple[str, ...] = (
    "page_size",
    "ptw_frequency",
    "ptw_cost",
    "pwc_hits",
    "l1_tlb_misses",
    "l2_tlb_misses",
    "l2_cache_hits",
    "l1_tlb_evictions",
    "l2_tlb_evictions",
    "accesses",
)


class PageTableEntry:
    """A leaf page-table entry (a virtual-to-physical mapping).

    Besides the mapping itself the entry carries the metadata counters the
    PTW cost predictor reads (Section 5.2) and bookkeeping that lets Victima
    find the cache block holding this entry's PTE cluster.
    """

    __slots__ = ("vpn", "pfn", "page_size", "asid", "entry_paddr", "features",
                 "total_ptw_cycles", "valid")

    def __init__(self, vpn: int, pfn: int, page_size: PageSize, asid: int, entry_paddr: int):
        self.vpn = vpn
        self.pfn = pfn
        self.page_size = page_size
        self.asid = asid
        #: Physical address of this 8-byte entry inside its page-table node.
        self.entry_paddr = entry_paddr
        # ``features`` is built on first access (see ``__getattr__``): a
        # pre-faulted table holds tens of thousands of entries, most of which
        # the measured window never touches.
        #: Total cycles spent walking to this entry (label source for Table 2).
        self.total_ptw_cycles = 0
        self.valid = True

    def __getattr__(self, name: str):
        # Reached only for a slot that is still unset, i.e. ``features``
        # before its first use; afterwards the slot serves it directly.
        if name != "features":
            raise AttributeError(name)
        features = PTEFeatures(page_size_is_2m=(self.page_size is PageSize.SIZE_2M))
        self.features = features
        return features

    def counted_features(self) -> Optional[PTEFeatures]:
        """``features`` if it exists, else ``None``; builds nothing.

        Every counter update goes through ``features``, so ``None`` means
        that nothing has counted on this entry yet.
        """
        try:
            return PageTableEntry.features.__get__(self)
        except AttributeError:
            return None

    # Convenience accessors used by the predictor and the MMU ----------------
    @property
    def ptw_frequency(self) -> int:
        return self.features.ptw_frequency

    @property
    def ptw_cost(self) -> int:
        return self.features.ptw_cost

    def record_walk(self, cycles: int, dram_accesses: int, pwc_hits: int) -> None:
        """Update the PTE metadata after a page-table walk that fetched it."""
        features = self.features
        if features.ptw_frequency < 7:
            features.ptw_frequency += 1
        if dram_accesses > 0:
            cost = features.ptw_cost + dram_accesses
            features.ptw_cost = cost if cost < 15 else 15
        if pwc_hits > 0:
            hits = features.pwc_hits + pwc_hits
            features.pwc_hits = hits if hits < 31 else 31
        self.total_ptw_cycles += cycles

    def translate(self, vaddr: int) -> int:
        """Translate ``vaddr`` (which must lie in this page) to a physical address."""
        offset = vaddr & (int(self.page_size) - 1)
        return (self.pfn << self.page_size.offset_bits) | offset

    @property
    def cluster_base_vpn(self) -> int:
        """Base VPN of the 8-page cluster this entry's cache block covers."""
        return self.vpn & ~(PTES_PER_CACHE_BLOCK - 1)

    @property
    def cluster_block_paddr(self) -> int:
        """Physical address of the 64-byte block containing this PTE's cluster."""
        return self.entry_paddr & ~(PTES_PER_CACHE_BLOCK * PTE_SIZE - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PTE(vpn=0x{self.vpn:x}, pfn=0x{self.pfn:x}, "
            f"size={self.page_size.label}, asid={self.asid})"
        )


@dataclass(frozen=True)
class WalkStep:
    """One memory access of a page-table walk."""

    level: int
    node_paddr: int
    entry_paddr: int


@dataclass
class WalkPath:
    """The full sequence of accesses needed to walk to a leaf PTE."""

    steps: List[WalkStep]
    pte: PageTableEntry

    @property
    def num_levels(self) -> int:
        return len(self.steps)


class _PageTableNode:
    """An internal radix node occupying one 4 KB physical frame.

    ``leaves`` maps a slot to its leaf: a :class:`PageTableEntry`, or, for
    a 4 KB leaf that :meth:`RadixPageTable.map_4k_run` wrote and nothing
    has read yet, its PFN as a plain ``int``.  ``base_vpn`` is the first
    4 KB page the node covers, so slot ``i`` of a PT node maps page
    ``base_vpn + i``.
    """

    __slots__ = ("level", "frame_paddr", "base_vpn", "children", "leaves")

    def __init__(self, level: int, frame_paddr: int, base_vpn: int):
        self.level = level
        self.frame_paddr = frame_paddr
        self.base_vpn = base_vpn
        self.children: Dict[int, "_PageTableNode"] = {}
        self.leaves: Dict[int, Union[PageTableEntry, int]] = {}

    def entry_paddr(self, index: int) -> int:
        return self.frame_paddr + index * PTE_SIZE


class RadixPageTable:
    """An x86-64-style four-level radix page table for one address space."""

    def __init__(self, physical_memory: PhysicalMemory, asid: int = 0):
        self.physical = physical_memory
        self.asid = asid
        self._root = self._new_node(level=0, base_vpn=0)
        self.num_nodes = 1
        self.num_leaf_entries = 0
        # Functional-lookup memo: 4K page number -> leaf PTE.  Purely an
        # accelerator for :meth:`lookup` (the radix structure stays the source
        # of truth); cleared on every unmap and on any map that could change a
        # lookup (see :meth:`map_page`), so it can never serve a stale entry.
        # A 2 MB page appears under each of its 4K-page keys lazily.
        self._leaf_memo: Dict[int, PageTableEntry] = {}
        # Same idea for :meth:`walk`: the step sequence of a walk depends only
        # on the radix structure, so it is immutable between table changes.
        self._walk_memo: Dict[int, WalkPath] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _new_node(self, level: int, base_vpn: int) -> _PageTableNode:
        frame = self.physical.allocate_frame(PageSize.SIZE_4K)
        return _PageTableNode(level, frame, base_vpn)

    def _entry(self, node: _PageTableNode, index: int) -> PageTableEntry:
        """The entry in ``node``'s slot ``index``, built on first use.

        A packed 4K leaf (a PFN) becomes a :class:`PageTableEntry` whose VPN
        and entry address follow from the node and the slot; the entry then
        replaces the PFN in the slot (keeping the slot's dictionary order),
        so every later read returns the same object.
        """
        leaves = node.leaves
        leaf = leaves[index]
        if leaf.__class__ is int:
            leaf = leaves[index] = PageTableEntry(
                node.base_vpn + index, leaf, PageSize.SIZE_4K, self.asid,
                node.frame_paddr + index * PTE_SIZE)
        return leaf

    @property
    def root_paddr(self) -> int:
        """Physical address of the PML4 (the CR3 value)."""
        return self._root.frame_paddr

    def map_page(self, vpn: int, pfn: int, page_size: PageSize = PageSize.SIZE_4K) -> PageTableEntry:
        """Install a mapping for virtual page ``vpn`` → physical frame ``pfn``.

        Intermediate nodes are created on demand.  Returns the new leaf entry.
        Mapping an already-mapped page replaces the previous entry (the old
        entry is invalidated), which is what happens on a remap in a real OS.
        """
        vaddr = vpn << page_size.offset_bits
        if page_size is PageSize.SIZE_2M:
            leaf_level, leaf_shift = LEAF_LEVEL_2M, 21
        else:
            leaf_level, leaf_shift = LEAF_LEVEL_4K, 12

        node = self._root
        for level in range(leaf_level):
            shift = _LEVEL_SHIFTS[level]
            index = (vaddr >> shift) & _INDEX_MASK
            child = node.children.get(index)
            if child is None:
                child = self._new_node(level + 1, (vaddr >> shift) << (shift - 12))
                node.children[index] = child
                self.num_nodes += 1
            node = child

        leaf_index = (vaddr >> leaf_shift) & _INDEX_MASK
        old = node.leaves.get(leaf_index)
        if old is None:
            self.num_leaf_entries += 1
        elif old.__class__ is not int:
            # Invalidate the entry readers may hold.  A packed leaf (a PFN)
            # was never handed out, so nothing holds it.
            old.valid = False
        if old is not None or leaf_level == LEAF_LEVEL_2M:
            # Only a remap, or a 2 MB leaf that may shadow 4K leaves below its
            # slot, can change what an earlier lookup or walk found.  A new 4K
            # leaf in an empty slot cannot, so pre-faulting keeps the memos.
            self._leaf_memo.clear()
            self._walk_memo.clear()
        pte = PageTableEntry(vpn, pfn, page_size, self.asid,
                             node.frame_paddr + leaf_index * PTE_SIZE)
        node.leaves[leaf_index] = pte
        return pte

    # ------------------------------------------------------------------ #
    # Runs of 4 KB pages inside one PT node (bulk prefault)
    # ------------------------------------------------------------------ #
    def pt_node(self, vpn: int) -> Optional[_PageTableNode]:
        """The PT node holding 4K page ``vpn``'s slot, if it exists and no
        larger page's leaf above it covers that page."""
        vaddr = vpn << 12
        node = self._root
        for shift in _LEVEL_SHIFTS[:LEAF_LEVEL_4K]:
            index = (vaddr >> shift) & _INDEX_MASK
            if index in node.leaves:
                return None
            node = node.children.get(index)
            if node is None:
                return None
        return node

    def unmapped_run(self, vpn: int, limit: int) -> int:
        """Count the unmapped 4K pages ``vpn``, ``vpn + 1``, … of one PT node.

        The count stops at the first mapped page, at VPN ``limit``
        (exclusive) and at the end of ``vpn``'s PT node.  It is 0 when that
        node does not exist or a 2 MB leaf covers ``vpn``: only an existing
        node can take a run (see :meth:`map_4k_run`).
        """
        index = start = vpn & _INDEX_MASK
        stop = min(start + limit - vpn, ENTRIES_PER_NODE)
        node = self.pt_node(vpn) if start < stop else None
        if node is None:
            return 0
        leaves = node.leaves
        while index < stop and index not in leaves:
            index += 1
        return index - start

    def leaf_run(self, vpn: int, limit: int) -> List[int]:
        """The PFNs of 4K pages ``vpn``, ``vpn + 1``, … of one PT node.

        The run stops at the first unmapped page, at VPN ``limit``
        (exclusive) and at the end of ``vpn``'s PT node; it is empty when
        that node does not exist or a 2 MB leaf covers ``vpn``.  Each PFN
        is that of the entry :meth:`lookup` returns for its page, but a
        packed leaf is read as it is: no entry is built.
        """
        index = vpn & _INDEX_MASK
        stop = min(index + limit - vpn, ENTRIES_PER_NODE)
        node = self.pt_node(vpn) if index < stop else None
        run: List[int] = []
        if node is None:
            return run
        leaves = node.leaves
        while index < stop:
            leaf = leaves.get(index)
            if leaf is None:
                break
            run.append(leaf if leaf.__class__ is int else leaf.pfn)
            index += 1
        return run

    def frame_numbers(self, vpns: List[int]) -> List[Optional[int]]:
        """The 4K frame each 4K page of ``vpns`` maps to, ``None`` where unmapped.

        A mapped page's frame is ``lookup(vpn << 12).translate(vpn << 12) >> 12``,
        read here without building the entry of a packed leaf or filling the
        lookup memo.  Pages of one 2 MB region in a row share one descent.
        """
        frames: List[Optional[int]] = []
        region = -1
        leaves: Dict[int, Union[PageTableEntry, int]] = {}
        huge_base: Optional[int] = None
        for vpn in vpns:
            if vpn >> 9 != region:
                region = vpn >> 9
                node = self.pt_node(vpn)
                if node is not None:
                    leaves, huge_base = node.leaves, None
                else:
                    # No PT node: a 2 MB leaf covers the page, or nothing does.
                    found = self._find(vpn << 12)
                    leaves = {}
                    huge_base = None if found is None else found[2].pfn << 9
            leaf = leaves.get(vpn & _INDEX_MASK)
            if leaf is not None:
                frames.append(leaf if leaf.__class__ is int else leaf.pfn)
            else:
                frames.append(None if huge_base is None else huge_base | (vpn & _INDEX_MASK))
        return frames

    def map_4k_run(self, vpn: int, pfns: List[int]) -> None:
        """Map 4K pages ``vpn``, ``vpn + 1``, … to frames ``pfns`` in one step.

        The pages must be an :meth:`unmapped_run` of an existing PT node.
        Each leaf is stored packed, as its PFN, and becomes an entry only
        when something reads it (see :meth:`_entry`).  The table then reads
        exactly as after one :meth:`map_page` call per page, in order,
        without the per-page descents: no node is created, and since fresh
        4K leaves in empty slots cannot change an earlier lookup or walk,
        the memos are kept.
        """
        if not pfns:
            return
        node = self.pt_node(vpn)
        index = vpn & _INDEX_MASK
        if node is None or index + len(pfns) > ENTRIES_PER_NODE:
            raise ValueError(f"pages 0x{vpn:x}+{len(pfns)} are not in one existing PT node")
        node.leaves.update(zip(range(index, index + len(pfns)), pfns))
        self.num_leaf_entries += len(pfns)

    def unmap_page(self, vaddr: int) -> Optional[PageTableEntry]:
        """Remove the mapping covering ``vaddr``; returns the removed entry."""
        found = self._find(vaddr)
        if found is None:
            return None
        node, leaf_index, pte = found
        del node.leaves[leaf_index]
        pte.valid = False
        self.num_leaf_entries -= 1
        self._leaf_memo.clear()
        self._walk_memo.clear()
        return pte

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _find(self, vaddr: int) -> Optional[Tuple[_PageTableNode, int, PageTableEntry]]:
        node = self._root
        for shift in _LEVEL_SHIFTS:
            index = (vaddr >> shift) & _INDEX_MASK
            leaf = node.leaves.get(index)
            if leaf is not None:
                if leaf.__class__ is int:
                    leaf = self._entry(node, index)
                return node, index, leaf
            node = node.children.get(index)
            if node is None:
                return None
        return None

    def lookup(self, vaddr: int) -> Optional[PageTableEntry]:
        """Functional lookup of the leaf PTE covering ``vaddr`` (no timing).

        Returns ``None`` when unmapped.  Memoised by 4K page number — the
        demand-paging check in :meth:`VirtualMemoryManager.ensure_mapped`
        runs once per L2 TLB miss, and one dictionary probe replaces the
        four-level radix descent on the (overwhelmingly common)
        already-mapped case.
        """
        key = vaddr >> 12
        pte = self._leaf_memo.get(key)
        if pte is not None:
            return pte
        found = self._find(vaddr)
        if found is None:
            return None
        pte = found[2]
        self._leaf_memo[key] = pte
        return pte

    def translate(self, vaddr: int) -> PageTableEntry:
        """Functional translation (no timing).  Raises on unmapped addresses."""
        pte = self.lookup(vaddr)
        if pte is None:
            raise TranslationFault(vaddr, self.asid)
        return pte

    def is_mapped(self, vaddr: int) -> bool:
        return self.lookup(vaddr) is not None

    def walk(self, vaddr: int) -> WalkPath:
        """Return the sequence of entry accesses a hardware walker performs.

        For a 4 KB page this is four steps (PML4 → PDPT → PD → PT); for a 2 MB
        page it is three.  Raises :class:`TranslationFault` if unmapped.
        Successful paths are memoised by 4K page number (and invalidated on
        any map/unmap) — the walker replays the same access sequence every
        time it walks the same page, which is the common case inside a
        simulation window whose page table was fully pre-faulted.
        """
        memo_key = vaddr >> 12
        path = self._walk_memo.get(memo_key)
        if path is not None:
            return path
        indices = radix_indices(vaddr)
        steps: List[WalkStep] = []
        node = self._root
        for level in range(LEAF_LEVEL_4K + 1):
            index = indices[level]
            entry_paddr = node.entry_paddr(index)
            steps.append(WalkStep(level=level, node_paddr=node.frame_paddr, entry_paddr=entry_paddr))
            leaf = node.leaves.get(index)
            if leaf is not None:
                if leaf.__class__ is int:
                    leaf = self._entry(node, index)
                path = WalkPath(steps=steps, pte=leaf)
                self._walk_memo[memo_key] = path
                return path
            child = node.children.get(index)
            if child is None:
                raise TranslationFault(vaddr, self.asid)
            node = child
        raise TranslationFault(vaddr, self.asid)

    def pte_cluster(self, pte: PageTableEntry) -> List[Optional[PageTableEntry]]:
        """Return the eight PTEs sharing ``pte``'s 64-byte page-table block.

        This is the cluster Victima turns into a TLB block: eight leaf entries
        for eight contiguous virtual pages.  Unmapped slots are ``None``.
        """
        base_vpn = pte.cluster_base_vpn
        cluster: List[Optional[PageTableEntry]] = []
        for i in range(PTES_PER_CACHE_BLOCK):
            entry = self.lookup((base_vpn + i) << pte.page_size.offset_bits)
            if entry is None or entry.page_size is not pte.page_size:
                cluster.append(None)
            else:
                cluster.append(entry)
        return cluster

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def all_entries(self) -> List[PageTableEntry]:
        """Return every valid leaf entry (the Table 2 dataset builder and the
        backends' warm start read them); packed leaves are built here."""
        entries: List[PageTableEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            leaves = node.leaves
            for index in [index for index, leaf in leaves.items() if leaf.__class__ is int]:
                self._entry(node, index)
            entries.extend(leaves.values())
            stack.extend(node.children.values())
        return entries

    def leaves(self) -> Iterator[Tuple[int, PageSize, Optional[PageTableEntry]]]:
        """Every leaf as ``(vpn, page_size, entry)``, in :meth:`all_entries` order.

        ``entry`` is the leaf's :class:`PageTableEntry` once one has been
        built, and ``None`` for a packed leaf (always a 4 KB one), which is
        read as it is: nothing is built.  :meth:`entry_4k` builds it.
        """
        stack = [self._root]
        while stack:
            node = stack.pop()
            base_vpn = node.base_vpn
            for index, leaf in node.leaves.items():
                if leaf.__class__ is int:
                    yield base_vpn + index, PageSize.SIZE_4K, None
                else:
                    yield leaf.vpn, leaf.page_size, leaf
            stack.extend(node.children.values())

    def entry_4k(self, vpn: int) -> PageTableEntry:
        """The entry in 4K page ``vpn``'s leaf slot, built if it is packed.

        This is the slot's own entry, the one :meth:`all_entries` returns;
        raises ``KeyError`` if the slot or a node above it is missing.
        """
        vaddr = vpn << 12
        node = self._root
        for shift in _LEVEL_SHIFTS[:LEAF_LEVEL_4K]:
            node = node.children[(vaddr >> shift) & _INDEX_MASK]
        return self._entry(node, vpn & _INDEX_MASK)

    @property
    def size_bytes(self) -> int:
        """Total physical memory consumed by page-table nodes."""
        return self.num_nodes * 4096

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RadixPageTable(asid={self.asid}, nodes={self.num_nodes}, "
            f"entries={self.num_leaf_entries})"
        )
