"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.pom_tlb import POMTLB
from repro.cache.block import BlockKind, CacheBlock, data_key
from repro.cache.cache import Cache
from repro.cache.hierarchy import AccessResult, MemoryLevel
from repro.cache.replacement import SRRIPPolicy
from repro.common.addresses import PageSize, page_number, radix_indices
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
# PTE feature counters
# --------------------------------------------------------------------------- #
@common_settings
@given(walks=st.lists(st.tuples(st.integers(min_value=0, max_value=500),
                                st.integers(min_value=0, max_value=6),
                                st.integers(min_value=0, max_value=4)),
                      max_size=40))
def test_record_walk_counters_saturate_at_their_widths(walks):
    """PTW frequency is 3 bits, PTW cost 4 and PWC hits 5 (Section 5.2):
    each counter reads min(sum of its increments, its ceiling)."""
    pte = PageTableEntry(0x5, 0x9, PageSize.SIZE_4K, 0, entry_paddr=0)
    for cycles, dram_accesses, pwc_hits in walks:
        pte.record_walk(cycles, dram_accesses, pwc_hits)
    frequency = min(len(walks), 7)
    cost = min(sum(walk[1] for walk in walks), 15)
    pwc_hits = min(sum(walk[2] for walk in walks), 31)
    assert pte.features.as_vector() == [0, frequency, cost, pwc_hits, 0, 0, 0, 0, 0, 0]
    assert (pte.ptw_frequency, pte.ptw_cost) == (frequency, cost)
    assert pte.total_ptw_cycles == sum(walk[0] for walk in walks)


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


class _MinTouchPOMTLB:
    """The oracle: POM-TLB sets that stamp each entry with its last touch
    and evict the entry with the lowest stamp.  The clock ticks once per
    lookup and once per insert; a hit or an insert stamps its key."""

    def __init__(self, num_sets, associativity):
        self.num_sets = num_sets
        self.associativity = associativity
        self.sets = [{} for _ in range(num_sets)]
        self.clock = 0
        self.hits = 0

    def lookup(self, vaddr, asid):
        self.clock += 1
        for page_size in BOTH:
            vpn = page_number(vaddr, page_size)
            pom_set = self.sets[vpn % self.num_sets]
            key = (asid, int(page_size), vpn)
            if key in pom_set and pom_set[key][0].valid:
                pte = pom_set[key][0]
                pom_set[key] = (pte, self.clock)
                self.hits += 1
                return pte
        return None

    def insert(self, pte, asid):
        self.clock += 1
        pom_set = self.sets[pte.vpn % self.num_sets]
        key = (asid, int(pte.page_size), pte.vpn)
        evicted = None
        if key not in pom_set and len(pom_set) == self.associativity:
            victim = min(pom_set, key=lambda k: pom_set[k][1])
            evicted = pom_set.pop(victim)[0]
        pom_set[key] = (pte, self.clock)
        return evicted

    def resident(self):
        return sorted(key for pom_set in self.sets for key in pom_set)


class _FlatHierarchy:
    """Stands in for the cache hierarchy: every set block costs 1 cycle."""

    def access_for_ptw(self, paddr):
        return AccessResult(1, MemoryLevel.L2)


_POM_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert_4k"), _PAGES, _ASIDS),
    st.tuples(st.just("insert_2m"), st.integers(min_value=0, max_value=1), _ASIDS),
    st.tuples(st.just("lookup"), _PAGES, _ASIDS),
    st.tuples(st.just("invalidate"), st.integers(min_value=0, max_value=63), st.none()),
), min_size=10, max_size=120)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_POM_OPS)
def test_pom_tlb_matches_a_min_last_touch_model(ops):
    pom = POMTLB(PhysicalMemory(1 << 30), entries=8, associativity=2)
    model = _MinTouchPOMTLB(pom.num_sets, 2)
    hierarchy = _FlatHierarchy()
    inserted = []
    for op, value, asid in ops:
        if op.startswith("insert"):
            size = PageSize.SIZE_4K if op == "insert_4k" else PageSize.SIZE_2M
            pte = PageTableEntry(value, value + 7, size, asid, entry_paddr=0)
            inserted.append(pte)
            assert pom.insert(pte, asid) is model.insert(pte, asid)
        elif op == "lookup":
            vaddr = (value << 12) | 0x123
            found, _ = pom.lookup(vaddr, asid, hierarchy)
            assert found is model.lookup(vaddr, asid)
        elif inserted:
            # A remapped page's entry stays resident but no longer hits.
            inserted[value % len(inserted)].valid = False
        assert sorted(key for pom_set in pom._sets for key in pom_set) == model.resident()
        assert pom.occupancy() == len(model.resident())
    assert pom.stats.hits == model.hits


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
