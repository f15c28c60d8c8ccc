"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.block import BlockKind, CacheBlock, data_key
from repro.cache.cache import Cache
from repro.cache.replacement import SRRIPPolicy
from repro.common.addresses import PageSize, page_number, radix_indices
from repro.common.counters import SaturatingCounter
from repro.analysis.metrics import geometric_mean, reuse_buckets
from repro.memory.page_table import PageTableEntry, RadixPageTable
from repro.memory.physical import PhysicalMemory
from repro.mmu.tlb import TLB

BOTH = (PageSize.SIZE_4K, PageSize.SIZE_2M)
MAX_VPN_4K = (1 << 36) - 1

common_settings = settings(max_examples=50, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# Address arithmetic
# --------------------------------------------------------------------------- #
@common_settings
@given(vaddr=st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_radix_indices_reconstruct_the_vpn(vaddr):
    pml4, pdpt, pd, pt = radix_indices(vaddr)
    rebuilt = (pml4 << 39) | (pdpt << 30) | (pd << 21) | (pt << 12)
    assert rebuilt == vaddr & ~0xFFF
    assert all(0 <= index < 512 for index in (pml4, pdpt, pd, pt))


@common_settings
@given(vaddr=st.integers(min_value=0, max_value=(1 << 48) - 1),
       page_size=st.sampled_from(list(PageSize)))
def test_page_number_roundtrip(vaddr, page_size):
    vpn = page_number(vaddr, page_size)
    base = vpn * int(page_size)
    assert base <= vaddr < base + int(page_size)


# --------------------------------------------------------------------------- #
# Saturating counters
# --------------------------------------------------------------------------- #
@common_settings
@given(bits=st.integers(min_value=1, max_value=8),
       operations=st.lists(st.integers(min_value=0, max_value=5), max_size=50))
def test_saturating_counter_stays_in_range(bits, operations):
    counter = SaturatingCounter(bits)
    for op in operations:
        counter.increment(op)
        assert 0 <= int(counter) <= counter.max_value


# --------------------------------------------------------------------------- #
# Page table
# --------------------------------------------------------------------------- #
@common_settings
@given(mappings=st.dictionaries(
    keys=st.integers(min_value=0, max_value=MAX_VPN_4K),
    values=st.integers(min_value=1, max_value=(1 << 30)),
    min_size=1, max_size=30))
def test_page_table_map_translate_roundtrip(mappings):
    table = RadixPageTable(PhysicalMemory(8 << 30), asid=0)
    for vpn, pfn in mappings.items():
        table.map_page(vpn, pfn, PageSize.SIZE_4K)
    assert table.num_leaf_entries == len(mappings)
    for vpn, pfn in mappings.items():
        vaddr = (vpn << 12) | 0x7
        pte = table.translate(vaddr)
        assert pte.pfn == pfn
        assert pte.translate(vaddr) == (pfn << 12) | 0x7
        # The walk must end at the same leaf and have at most four steps.
        path = table.walk(vaddr)
        assert path.pte is pte
        assert 1 <= path.num_levels <= 4


@common_settings
@given(vpns=st.lists(st.integers(min_value=0, max_value=MAX_VPN_4K),
                     min_size=1, max_size=20, unique=True))
def test_pte_cluster_is_consistent(vpns):
    table = RadixPageTable(PhysicalMemory(8 << 30), asid=0)
    for vpn in vpns:
        table.map_page(vpn, vpn + 1, PageSize.SIZE_4K)
    for vpn in vpns:
        pte = table.translate(vpn << 12)
        cluster = table.pte_cluster(pte)
        assert len(cluster) == 8
        slot = vpn & 7
        assert cluster[slot] is pte
        for i, entry in enumerate(cluster):
            if entry is not None:
                assert entry.vpn == pte.cluster_base_vpn + i


# --------------------------------------------------------------------------- #
# Caches
# --------------------------------------------------------------------------- #
@common_settings
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                          max_size=200))
def test_cache_occupancy_never_exceeds_capacity(addresses):
    cache = Cache("prop", size_bytes=8 * 2 * 64, associativity=2, latency=1,
                  replacement_policy=SRRIPPolicy())
    for addr in addresses:
        cache.insert(CacheBlock(key=data_key(addr), kind=BlockKind.DATA))
        assert cache.occupancy() <= cache.total_blocks
    # Every resident block has a unique tag.
    tags = [block.tag for block in cache.resident_blocks()]
    assert len(tags) == len(set(tags))
    # The most recently inserted block is always resident.
    assert cache.contains(data_key(addresses[-1]))


@common_settings
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 18), min_size=1,
                          max_size=100))
def test_cache_stats_are_consistent(addresses):
    cache = Cache("prop", size_bytes=4 * 4 * 64, associativity=4, latency=1)
    for addr in addresses:
        if cache.lookup(data_key(addr)) is None:
            cache.insert(CacheBlock(key=data_key(addr), kind=BlockKind.DATA))
    stats = cache.stats
    assert stats.hits + stats.misses == stats.accesses
    assert stats.fills >= stats.evictions


# --------------------------------------------------------------------------- #
# TLBs
# --------------------------------------------------------------------------- #
@common_settings
@given(vpns=st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1,
                     max_size=100))
def test_tlb_occupancy_and_most_recent_entry(vpns):
    table = RadixPageTable(PhysicalMemory(8 << 30), asid=0)
    tlb = TLB("prop", entries=16, associativity=4, latency=1, page_sizes=BOTH)
    for vpn in vpns:
        pte = table.map_page(vpn, vpn + 1, PageSize.SIZE_4K)
        tlb.insert(pte)
        assert tlb.occupancy() <= tlb.entries
        assert tlb.lookup(vpn << 12, asid=0) is not None
    assert tlb.stats.insertions >= tlb.stats.evictions


class _ListScanTLB:
    """The oracle: a set-associative TLB whose sets are lists scanned in
    insertion order, evicting the entry with the lowest ``last_touch``."""

    def __init__(self, entries, associativity, page_sizes):
        self.num_sets = entries // associativity
        self.associativity = associativity
        self.page_sizes = page_sizes
        self.sets = [[] for _ in range(self.num_sets)]
        self.clock = 0
        self.stats = dict(accesses=0, hits=0, misses=0, insertions=0,
                          evictions=0, invalidations=0)

    def lookup(self, vaddr, asid):
        self.stats["accesses"] += 1
        self.clock += 1
        for page_size in self.page_sizes:
            vpn = page_number(vaddr, page_size)
            for entry in self.sets[vpn % self.num_sets]:
                if entry["tag"] == (vpn, asid, page_size):
                    self.stats["hits"] += 1
                    entry["touch"] = self.clock
                    return entry["pte"]
        self.stats["misses"] += 1
        return None

    def insert(self, pte, asid):
        tag = (pte.vpn, asid, pte.page_size)
        tlb_set = self.sets[pte.vpn % self.num_sets]
        self.clock += 1
        for entry in tlb_set:
            if entry["tag"] == tag:
                entry.update(pte=pte, touch=self.clock)
                return None
        evicted = None
        if len(tlb_set) == self.associativity:
            victim = 0
            for index, entry in enumerate(tlb_set):
                if entry["touch"] < tlb_set[victim]["touch"]:
                    victim = index
            evicted = tlb_set.pop(victim)["tag"]
            self.stats["evictions"] += 1
        tlb_set.append(dict(tag=tag, pte=pte, touch=self.clock))
        self.stats["insertions"] += 1
        return evicted

    def invalidate(self, drop):
        removed = 0
        for tlb_set in self.sets:
            keep = [entry for entry in tlb_set if not drop(entry["tag"])]
            removed += len(tlb_set) - len(keep)
            tlb_set[:] = keep
        self.stats["invalidations"] += removed
        return removed

    def resident(self):
        return [entry["tag"] for tlb_set in self.sets for entry in tlb_set]


#: Virtual pages 0-7 of the first two 2 MB regions: 4 KB entries collide in
#: the four sets, and both 2 MB pages cover them.
_PAGES = st.builds(lambda page, region: page | (region << 9),
                   st.integers(min_value=0, max_value=7),
                   st.integers(min_value=0, max_value=1))
_ASIDS = st.integers(min_value=0, max_value=1)
_TLB_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert_4k"), _PAGES, _ASIDS),
    st.tuples(st.just("insert_2m"), st.integers(min_value=0, max_value=1), _ASIDS),
    st.tuples(st.just("lookup"), _PAGES, _ASIDS),
    st.tuples(st.just("invalidate_page"), _PAGES, _ASIDS),
    st.tuples(st.just("invalidate_asid"), st.none(), _ASIDS),
), min_size=10, max_size=120)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_TLB_OPS)
def test_tlb_matches_a_list_scan_lru_model(ops):
    tlb = TLB("prop", entries=8, associativity=2, latency=1, page_sizes=BOTH)
    model = _ListScanTLB(8, 2, BOTH)
    for op, value, asid in ops:
        if op.startswith("insert"):
            size = PageSize.SIZE_4K if op == "insert_4k" else PageSize.SIZE_2M
            pte = PageTableEntry(value, value + 7, size, asid, entry_paddr=0)
            evicted = tlb.insert(pte, asid)
            expected = model.insert(pte, asid)
            if evicted is None:
                assert expected is None
            else:
                assert (evicted.vpn, evicted.asid, evicted.page_size) == expected
        elif op == "lookup":
            vaddr = (value << 12) | 0x123
            entry = tlb.lookup(vaddr, asid)
            expected = model.lookup(vaddr, asid)
            assert (entry.pte if entry is not None else None) is expected
        elif op == "invalidate_page":
            vaddr = value << 12
            tags = {(page_number(vaddr, size), asid, size) for size in BOTH}
            assert tlb.invalidate_page(vaddr, asid) == model.invalidate(
                lambda tag: tag in tags)
        else:
            assert tlb.invalidate_asid(asid) == model.invalidate(
                lambda tag: tag[1] == asid)
        assert [(e.vpn, e.asid, e.page_size) for e in tlb.resident_entries()] == (
            model.resident())
    stats = tlb.stats
    assert {name: getattr(stats, name) for name in model.stats} == model.stats


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
@common_settings
@given(values=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                       max_size=20))
def test_geometric_mean_is_bounded_by_extremes(values):
    mean = geometric_mean(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


@common_settings
@given(histogram=st.dictionaries(keys=st.integers(min_value=0, max_value=200),
                                 values=st.integers(min_value=1, max_value=50),
                                 min_size=1, max_size=20))
def test_reuse_buckets_partition_the_histogram(histogram):
    buckets = reuse_buckets(histogram)
    assert abs(sum(buckets.values()) - 1.0) < 1e-9
    assert all(0.0 <= value <= 1.0 for value in buckets.values())
