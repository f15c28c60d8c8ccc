"""Configuration dataclasses for the simulated systems.

Defaults follow Table 3 of the paper (the baseline system).  Every evaluated
system is expressed as a :class:`SystemConfig` whose ``kind`` names the
translation backend in the registry (:mod:`repro.backends`);
:mod:`repro.sim.presets` provides ready-made configs for each system the
paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.common.addresses import PageSize
from repro.common.errors import ConfigurationError


@dataclass
class TLBConfig:
    """Geometry and latency of one TLB."""

    entries: int
    associativity: int
    latency: int
    page_sizes: Tuple[PageSize, ...] = (PageSize.SIZE_4K,)

    def validate(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ConfigurationError("TLB entries and associativity must be positive")
        if self.entries % self.associativity != 0:
            raise ConfigurationError("TLB entries must be a multiple of associativity")


BOTH_PAGE_SIZES = (PageSize.SIZE_4K, PageSize.SIZE_2M)


@dataclass
class MMUConfig:
    """The TLB hierarchy and page-walk caches (Table 3 defaults)."""

    l1_dtlb_4k: TLBConfig = field(default_factory=lambda: TLBConfig(64, 4, 1, (PageSize.SIZE_4K,)))
    l1_dtlb_2m: TLBConfig = field(default_factory=lambda: TLBConfig(32, 4, 1, (PageSize.SIZE_2M,)))
    l2_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(1536, 12, 12, BOTH_PAGE_SIZES))
    #: Optional hardware L3 TLB (the Opt. L3 TLB configurations of Figure 8).
    l3_tlb: Optional[TLBConfig] = None
    #: Nested TLB used in virtualized execution (64-entry, 1-cycle in Table 3).
    nested_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(64, 4, 1, BOTH_PAGE_SIZES))
    pwc_entries: int = 32
    pwc_associativity: int = 4
    pwc_latency: int = 2

    def validate(self) -> None:
        for tlb in (self.l1_dtlb_4k, self.l1_dtlb_2m, self.l2_tlb, self.nested_tlb):
            tlb.validate()
        if self.l3_tlb is not None:
            self.l3_tlb.validate()


@dataclass
class CacheConfig:
    """Geometry, latency and policies of one cache level."""

    size_bytes: int
    associativity: int
    latency: int
    replacement_policy: str = "lru"
    prefetcher: Optional[str] = None
    block_size: int = 64

    def validate(self) -> None:
        if self.size_bytes % (self.associativity * self.block_size) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of associativity * block size")


@dataclass
class DramTimingConfig:
    row_hit_latency: int = 110
    row_miss_latency: int = 170
    num_banks: int = 16

    def validate(self) -> None:
        if self.row_hit_latency <= 0 or self.row_miss_latency <= 0:
            raise ConfigurationError("DRAM latencies must be positive")
        if self.row_miss_latency < self.row_hit_latency:
            raise ConfigurationError(
                "DRAM row-miss latency must be >= row-hit latency")
        if self.num_banks <= 0:
            raise ConfigurationError("DRAM needs at least one bank")


@dataclass
class VictimaConfig:
    """Victima's knobs (all defaults follow the paper's design)."""

    insert_on_miss: bool = True
    insert_on_eviction: bool = True
    use_predictor: bool = True
    bypass_on_low_locality: bool = True
    #: L2 TLB MPKI above which the TLB-aware policies activate.
    tlb_pressure_threshold: float = 5.0
    #: L2 cache MPKI above which the PTW-CP is bypassed.
    cache_pressure_threshold: float = 5.0
    #: Lower corner of the comparator bounding box (PTW frequency, PTW cost).
    predictor_min_frequency: int = 1
    predictor_min_cost: int = 1


@dataclass
class PomTLBConfig:
    entries: int = 64 * 1024
    associativity: int = 16
    entry_size_bytes: int = 16

    def validate(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ConfigurationError(
                "POM-TLB entries and associativity must be positive")
        if self.entries % self.associativity != 0:
            raise ConfigurationError(
                "POM-TLB entries must be a multiple of associativity")
        if self.entry_size_bytes <= 0:
            raise ConfigurationError("POM-TLB entry size must be positive")


@dataclass
class HashPTConfig:
    """Geometry of the hashed-page-table baseline (``hash_pt``).

    The table is an open-hash structure in a contiguous physical region:
    ``entries // bucket_slots`` buckets of ``bucket_slots`` translation slots
    each; a lookup fetches the bucket's cache blocks from the memory
    hierarchy sequentially until the translation (or an empty slot) is found.
    """

    entries: int = 64 * 1024
    bucket_slots: int = 8
    entry_size_bytes: int = 16

    def validate(self) -> None:
        if self.entries <= 0 or self.bucket_slots <= 0:
            raise ConfigurationError(
                "hashed-PT entries and bucket slots must be positive")
        if self.entries % self.bucket_slots != 0:
            raise ConfigurationError(
                "hashed-PT entries must be a multiple of bucket_slots")
        buckets = self.entries // self.bucket_slots
        if buckets & (buckets - 1):
            raise ConfigurationError("hashed-PT bucket count must be a power of two")
        if self.entry_size_bytes <= 0:
            raise ConfigurationError("hashed-PT entry size must be positive")


#: Upper bound on ``SystemConfig.num_cores``.  One tenant address-space slot
#: is reserved per core (see :mod:`repro.traces.combinators`), and slots beyond
#: 15 would escape the 48-bit virtual address space of the radix page table.
MAX_CORES = 15


@dataclass
class SystemConfig:
    """A complete evaluated system."""

    #: Registry name of the translation backend the system factory builds.
    kind: str = "radix"
    label: str = "Radix"
    mmu: MMUConfig = field(default_factory=MMUConfig)
    l1d_cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        32 * 1024, 8, 4, "lru", prefetcher="ip_stride"))
    l2_cache: CacheConfig = field(default_factory=lambda: CacheConfig(
        2 * 1024 * 1024, 16, 16, "srrip", prefetcher="stream"))
    l3_cache: Optional[CacheConfig] = field(default_factory=lambda: CacheConfig(
        2 * 1024 * 1024, 16, 35, "srrip"))
    dram: DramTimingConfig = field(default_factory=DramTimingConfig)
    victima: VictimaConfig = field(default_factory=VictimaConfig)
    pom_tlb: PomTLBConfig = field(default_factory=PomTLBConfig)
    hash_pt: HashPTConfig = field(default_factory=HashPTConfig)
    physical_memory_bytes: int = 64 * 1024 * 1024 * 1024
    #: Base cycles-per-instruction of the core for non-memory work.
    base_cpi: float = 0.35
    #: Core frequency, used only when reporting wall-clock-style numbers.
    frequency_ghz: float = 2.6
    #: Number of cores (:class:`~repro.sim.system.Core`) the machine builds,
    #: each with private structures (TLBs, PWCs, walker, L1/L2 caches) around
    #: the shared LLC, DRAM, page table and POM-TLB.  1 is the default.
    num_cores: int = 1

    def validate(self) -> None:
        # Importing the package registers the built-in backends; an unknown
        # name raises the registry's error, which lists every registered one.
        from repro.backends import get_backend

        backend = get_backend(self.kind)
        if not 1 <= self.num_cores <= MAX_CORES:
            raise ConfigurationError(
                f"num_cores must be in [1, {MAX_CORES}], got {self.num_cores}")
        if self.num_cores > 1 and backend.virtualized:
            raise ConfigurationError(
                "multi-core simulation currently supports native systems only; "
                f"{self.kind!r} requires num_cores=1")
        if (self.l3_cache is not None
                and self.l3_cache.replacement_policy == "tlb_aware_srrip"):
            raise ConfigurationError(
                "translation pressure is tracked per core only, so the shared "
                "LLC cannot use 'tlb_aware_srrip'; use 'srrip'")
        self.mmu.validate()
        for cache in (self.l1d_cache, self.l2_cache):
            cache.validate()
        if self.l3_cache is not None:
            self.l3_cache.validate()
        self.dram.validate()
        self.pom_tlb.validate()
        self.hash_pt.validate()
        if self.kind == "l3_tlb" and self.mmu.l3_tlb is None:
            raise ConfigurationError("an L3-TLB system needs mmu.l3_tlb configured")
        if (self.kind in ("victima", "virt_victima")
                and self.l2_cache.replacement_policy not in ("srrip", "tlb_aware_srrip")):
            raise ConfigurationError(
                "Victima systems require an SRRIP-family L2 replacement policy")
