"""Translation lookaside buffers.

The baseline MMU (Table 3 of the paper) has:

* a 128-entry 8-way L1 I-TLB (1 cycle),
* a 64-entry 4-way L1 D-TLB for 4 KB pages (1 cycle),
* a 32-entry 4-way L1 D-TLB for 2 MB pages (1 cycle),
* a 1536-entry 12-way unified L2 TLB holding both page sizes (12 cycles),
* and, in virtualized execution, a 64-entry nested TLB (1 cycle).

All of them are modelled by :class:`TLB`: a set-associative structure with LRU
replacement whose entries are tagged by ``(VPN, ASID, page size)``.  A TLB
configured with multiple page sizes probes each size on lookup — the physical
equivalent of the parallel probes a real unified L2 TLB performs because the
page size of a request is not known a priori.  Each set is a dict keyed by
that tag, in insertion order, so a probe is one dict lookup per page size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.addresses import PageSize, is_power_of_two, page_number
from repro.common.errors import ConfigurationError
from repro.common.stats import ResettableStats
from repro.memory.page_table import PageTableEntry


_last_touch = attrgetter("last_touch")


class TLBEntry:
    """One cached virtual-to-physical translation.

    A ``__slots__`` class: one entry is built per TLB fill, so construction
    is on the simulator's hot path.
    """

    __slots__ = ("vpn", "asid", "page_size", "pte", "last_touch")

    def __init__(self, vpn: int, asid: int, page_size: PageSize,
                 pte: PageTableEntry, last_touch: int = 0):
        self.vpn = vpn
        self.asid = asid
        self.page_size = page_size
        self.pte = pte
        self.last_touch = last_touch

    def translate(self, vaddr: int) -> int:
        return self.pte.translate(vaddr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TLBEntry(vpn={self.vpn}, asid={self.asid}, "
                f"page_size={self.page_size!r}, last_touch={self.last_touch})")


@dataclass
class TLBStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    hits_by_page_size: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB(ResettableStats):
    """A set-associative TLB with LRU replacement."""

    def __init__(
        self,
        name: str,
        entries: int,
        associativity: int,
        latency: int,
        page_sizes: Sequence[PageSize] = (PageSize.SIZE_4K,),
    ):
        if entries % associativity != 0:
            raise ConfigurationError(f"{name}: entries must be a multiple of associativity")
        self.name = name
        self.entries = entries
        self.associativity = associativity
        self.latency = latency
        self.page_sizes: Tuple[PageSize, ...] = tuple(page_sizes)
        if not self.page_sizes:
            raise ConfigurationError(f"{name}: at least one page size is required")
        self.num_sets = entries // associativity
        if not is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{name}: number of sets ({self.num_sets}) must be a power of two")
        self.stats = TLBStats()
        self._access_counter = 0
        # set index -> {(vpn, asid, page size): entry}, at most
        # `associativity` entries in insertion order
        self._sets: List[Dict[tuple, TLBEntry]] = [{} for _ in range(self.num_sets)]
        # Hot-path precomputation: (page size, offset-bit shift, stat label)
        # per supported size, so lookups read no PageSize attribute or
        # property per probe.
        self._probe_plan: Tuple[Tuple[PageSize, int, str], ...] = tuple(
            (ps, ps.offset_bits, ps.label) for ps in self.page_sizes)
        self._register_stats()

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def _set_index(self, vpn: int) -> int:
        return vpn & (self.num_sets - 1)

    def supports(self, page_size: PageSize) -> bool:
        return page_size in self.page_sizes

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def lookup(self, vaddr: int, asid: int) -> Optional[TLBEntry]:
        """Probe the TLB for ``vaddr``; probes every supported page size."""
        stats = self.stats
        stats.accesses += 1
        self._access_counter += 1
        set_mask = self.num_sets - 1
        sets = self._sets
        for page_size, shift, label in self._probe_plan:
            vpn = vaddr >> shift
            entry = sets[vpn & set_mask].get((vpn, asid, page_size))
            if entry is not None:
                stats.hits += 1
                stats.hits_by_page_size[label] = stats.hits_by_page_size.get(label, 0) + 1
                entry.last_touch = self._access_counter
                return entry
        stats.misses += 1
        return None

    def contains(self, vaddr: int, asid: int) -> bool:
        """Residency check without disturbing statistics or LRU state."""
        for page_size in self.page_sizes:
            vpn = page_number(vaddr, page_size)
            if (vpn, asid, page_size) in self._sets[self._set_index(vpn)]:
                return True
        return False

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def insert(self, pte: PageTableEntry, asid: Optional[int] = None) -> Optional[TLBEntry]:
        """Insert a translation; returns the evicted entry, if any."""
        page_size = pte.page_size
        if page_size not in self.page_sizes:
            raise ConfigurationError(
                f"{self.name} does not support {page_size.label} pages"
            )
        asid = pte.asid if asid is None else asid
        vpn = pte.vpn
        key = (vpn, asid, page_size)
        tlb_set = self._sets[vpn & (self.num_sets - 1)]
        existing = tlb_set.get(key)
        self._access_counter += 1
        if existing is not None:
            existing.pte = pte
            existing.last_touch = self._access_counter
            return None
        evicted: Optional[TLBEntry] = None
        if len(tlb_set) >= self.associativity:
            # LRU: the first entry with the lowest last_touch.
            evicted = min(tlb_set.values(), key=_last_touch)
            del tlb_set[(evicted.vpn, evicted.asid, evicted.page_size)]
            self.stats.evictions += 1
        tlb_set[key] = TLBEntry(vpn, asid, page_size, pte, self._access_counter)
        self.stats.insertions += 1
        return evicted

    # ------------------------------------------------------------------ #
    # Invalidation (context switches and shootdowns, Section 6)
    # ------------------------------------------------------------------ #
    def invalidate_all(self) -> int:
        removed = sum(len(s) for s in self._sets)
        self._sets = [{} for _ in range(self.num_sets)]
        self.stats.invalidations += removed
        return removed

    def invalidate_asid(self, asid: int) -> int:
        removed = 0
        for tlb_set in self._sets:
            for key in [key for key in tlb_set if key[1] == asid]:
                del tlb_set[key]
                removed += 1
        self.stats.invalidations += removed
        return removed

    def invalidate_page(self, vaddr: int, asid: int) -> int:
        removed = 0
        for page_size in self.page_sizes:
            vpn = page_number(vaddr, page_size)
            if self._sets[self._set_index(vpn)].pop((vpn, asid, page_size), None) is not None:
                removed += 1
        self.stats.invalidations += removed
        return removed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_entries(self) -> Iterable[TLBEntry]:
        for tlb_set in self._sets:
            yield from tlb_set.values()

    def reach_bytes(self) -> int:
        """Amount of memory covered by the currently resident entries."""
        return sum(int(entry.page_size) for entry in self.resident_entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "/".join(ps.label for ps in self.page_sizes)
        return f"TLB({self.name}, {self.entries} entries, {self.associativity}-way, {sizes})"
