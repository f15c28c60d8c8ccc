"""System factory: assemble every evaluated system from a :class:`SystemConfig`.

A :class:`System` is one machine: ``config.num_cores`` cores (:class:`Core`)
around the structures they share, wired together exactly as the
corresponding row of Table 3 describes.  The machine holds physical memory,
DRAM, the LLC, one address space with its page table (the tenants a
multi-core scenario pins to cores are isolated by disjoint virtual-address
slots, exactly like single-core mixes), the structure a backend spec's
``build_shared`` hook builds once, after the page-table roots (the POM-TLB
or the hashed page table), and, on a virtualized machine, the guest and
host memory managers, the shadow-table builder and the nested walker.  Each
core owns its L1-D and L2 caches, TLB hierarchy, page-walk caches, walker,
pressure monitor and translation backend (:func:`_build_native_core`,
:func:`_build_virtualized_core`); a core's backend passes that core's cache
hierarchy to the shared structure on every probe.  Both kinds of core hand
the backend's build hook one :class:`~repro.backends.base.BuildContext`,
whose miss walker is the core's radix walker or the machine's nested
walker.  A single-core machine is a machine with one core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.backends import BuildContext, get_backend
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetcher import IPStridePrefetcher, Prefetcher, StreamPrefetcher
from repro.cache.replacement import make_policy
from repro.common.errors import ConfigurationError
from repro.common.pressure import PressureMonitor
from repro.common.stats import StatsRegistry
from repro.core.victima import VictimaController
from repro.memory.dram import DramModel
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.physical import PhysicalMemory
from repro.mmu.maintenance import TLBMaintenance
from repro.mmu.mmu import MMU
from repro.mmu.page_walker import PageTableWalker
from repro.mmu.pwc import PageWalkCaches
from repro.mmu.tlb import TLB
from repro.sim.config import CacheConfig, SystemConfig, TLBConfig
from repro.virt.nested import NestedPageTableWalker
from repro.virt.shadow import ShadowPageTableBuilder


@dataclass
class Core:
    """One core's private slice of a :class:`System`.

    Everything here is private to the core: the L1/L2 caches (the hierarchy
    object routes misses into the shared LLC/DRAM), the TLB hierarchy, the
    page-walk caches and walker (the host walker on a virtualized machine),
    the pressure monitor feeding the core's TLB-aware L2 replacement policy,
    and the translation backend, which holds the core's Victima controller
    (TLB blocks in this core's private L2) or probes the machine's shared
    POM-TLB or hashed page table through this core's caches.
    """

    core_id: int
    hierarchy: CacheHierarchy
    pressure: PressureMonitor
    walker: PageTableWalker
    mmu: MMU
    maintenance: TLBMaintenance
    #: This core's translation backend (also ``mmu.backend``).
    backend: object
    #: This core's private stat-bearing components (per-core warm-up reset).
    stats_registry: StatsRegistry

    @property
    def victima(self) -> Optional[VictimaController]:
        return self.backend.victima

    @property
    def l2_cache(self) -> Cache:
        return self.hierarchy.l2

    @property
    def l2_tlb(self) -> TLB:
        return self.mmu.l2_tlb


@dataclass
class System:
    """A fully assembled simulated machine: its cores and what they share."""

    config: SystemConfig
    physical: PhysicalMemory
    dram: DramModel
    llc: Optional[Cache]
    #: Machine-wide shared stat-bearing components (LLC, DRAM, POM-TLB, ...).
    stats_registry: StatsRegistry
    #: The process's address space (the guest's on a virtualized machine).
    memory_manager: Optional[VirtualMemoryManager] = None
    #: The once-per-machine structure built by the backend spec's
    #: ``build_shared`` hook (e.g. the shared POM-TLB or hashed page table).
    shared: Optional[object] = None
    #: Virtualized machines only: the host's backing of guest memory, the
    #: combined-table builder and core 0's two-dimensional walker.
    host_memory_manager: Optional[VirtualMemoryManager] = None
    shadow_builder: Optional[ShadowPageTableBuilder] = None
    nested_walker: Optional[NestedPageTableWalker] = None
    cores: List[Core] = field(default_factory=list)

    @property
    def is_virtualized(self) -> bool:
        return get_backend(self.config.kind).virtualized

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def backend(self):
        """Core 0's translation backend: the one that warms a shared structure."""
        return self.cores[0].backend

    @property
    def page_table(self):
        """The page table whose leaf entries back the TLB hierarchy.

        Natively this is the process's radix table; in virtualized execution it
        is the combined (shadow) gVA→hPA table.
        """
        if self.shadow_builder is not None:
            return self.shadow_builder.table
        return self.memory_manager.page_table


def _make_tlb(name: str, config: TLBConfig) -> TLB:
    return TLB(name, entries=config.entries, associativity=config.associativity,
               latency=config.latency, page_sizes=config.page_sizes)


def _make_tlbs(config: SystemConfig, core_id: int) -> List[TLB]:
    """The 4 KB and 2 MB L1-D TLBs and the L2 TLB, in the MMU's argument order."""
    mmu = config.mmu
    return [_make_tlb(f"L1-DTLB-4K-c{core_id}", mmu.l1_dtlb_4k),
            _make_tlb(f"L1-DTLB-2M-c{core_id}", mmu.l1_dtlb_2m),
            _make_tlb(f"L2-TLB-c{core_id}", mmu.l2_tlb)]


def _make_pwcs(config: SystemConfig) -> PageWalkCaches:
    return PageWalkCaches(config.mmu.pwc_entries, config.mmu.pwc_associativity,
                          config.mmu.pwc_latency)


def _make_dram(config: SystemConfig) -> DramModel:
    return DramModel(config.dram.row_hit_latency, config.dram.row_miss_latency,
                     config.dram.num_banks)


def _make_pressure(config: SystemConfig) -> PressureMonitor:
    return PressureMonitor(
        tlb_pressure_threshold=config.victima.tlb_pressure_threshold,
        cache_pressure_threshold=config.victima.cache_pressure_threshold)


def _make_prefetcher(name: Optional[str]) -> Optional[Prefetcher]:
    if name is None:
        return None
    if name == "ip_stride":
        return IPStridePrefetcher()
    if name == "stream":
        return StreamPrefetcher()
    raise ConfigurationError(f"unknown prefetcher: {name!r}")


def _make_cache(name: str, config: CacheConfig,
                pressure: Optional[PressureMonitor]) -> Cache:
    policy = make_policy(config.replacement_policy, pressure)
    return Cache(name, size_bytes=config.size_bytes, associativity=config.associativity,
                 latency=config.latency, block_size=config.block_size,
                 replacement_policy=policy)


def _make_hierarchy(config: SystemConfig, pressure: PressureMonitor,
                    llc: Optional[Cache], dram: DramModel) -> CacheHierarchy:
    """A core's private L1-D and L2 caches in front of ``llc`` and ``dram``."""
    return CacheHierarchy(
        _make_cache("L1-D", config.l1d_cache, pressure),
        _make_cache("L2", config.l2_cache, pressure),
        llc, dram,
        l1d_prefetcher=_make_prefetcher(config.l1d_cache.prefetcher),
        l2_prefetcher=_make_prefetcher(config.l2_cache.prefetcher),
    )


def build_system(config: SystemConfig, huge_page_fraction: float = 0.3) -> System:
    """Build the machine ``config`` describes, with ``config.num_cores`` cores.

    Per-core structures replicate the single-core geometry of ``config`` (so
    ``hardware_scale`` keeps its meaning per core); the LLC described by
    ``config.l3_cache`` is instantiated once and shared.
    ``huge_page_fraction`` is workload-dependent (the THP mix the paper
    extracted per workload), so it is supplied by the caller rather than being
    part of the system configuration.
    """
    config.validate()
    spec = get_backend(config.kind)

    # Shared structures register with the machine's registry; everything a
    # core owns registers with that core's registry (per-core warm-up resets).
    registry = StatsRegistry()
    with registry.activate():
        physical = PhysicalMemory(config.physical_memory_bytes)
        system = System(config=config, physical=physical, dram=_make_dram(config),
                        llc=(_make_cache("LLC", config.l3_cache, None)
                             if config.l3_cache is not None else None),
                        stats_registry=registry)
        if spec.virtualized:
            # The guest sees its own (pseudo-)physical address space; the host
            # backs it with real frames.  The host backing uses the same VMID
            # (0) as the guest context: nested TLB blocks in the L2 cache are
            # tagged by VMID, and the probe side (the nested walker) identifies
            # the VM, not the host address space.
            system.memory_manager = VirtualMemoryManager(
                PhysicalMemory(config.physical_memory_bytes), asid=0,
                huge_page_fraction=huge_page_fraction)
            system.host_memory_manager = VirtualMemoryManager(
                physical, asid=0, huge_page_fraction=huge_page_fraction)
            system.shadow_builder = ShadowPageTableBuilder(physical, vmid=0)
        else:
            system.memory_manager = VirtualMemoryManager(
                physical, asid=0, huge_page_fraction=huge_page_fraction)
        # The once-per-machine backend structure (e.g. the shared POM-TLB,
        # which reserves its contiguous physical region once, after the
        # page-table roots).
        if spec.build_shared is not None:
            system.shared = spec.build_shared(BuildContext(config=config,
                                                           physical=physical))

    build_core = _build_virtualized_core if spec.virtualized else _build_native_core
    for core_id in range(config.num_cores):
        core_registry = StatsRegistry()
        with core_registry.activate():
            pressure = _make_pressure(config)
            hierarchy = _make_hierarchy(config, pressure, system.llc, system.dram)
            system.cores.append(build_core(system, core_id, hierarchy, pressure,
                                           core_registry))
    return system


# --------------------------------------------------------------------------- #
# Cores
# --------------------------------------------------------------------------- #
def _build_native_core(system: System, core_id: int, hierarchy: CacheHierarchy,
                       pressure: PressureMonitor, registry: StatsRegistry) -> Core:
    """Build one native core's PWCs, walker, backend, TLBs, MMU and TLB maintenance.

    The registry supplies the translation backend ``config.kind`` names; its
    build hook constructs whatever structures the mechanism needs (Victima
    controller, L3 TLB, ...) over the core's radix walker and the process's
    page table, and receives the machine's ``build_shared`` structure, if
    any, as ``ctx.shared``.
    """
    config = system.config
    pwcs = _make_pwcs(config)
    walker = PageTableWalker(hierarchy, pwcs)
    page_table = system.memory_manager.page_table
    spec = get_backend(config.kind)
    backend = spec.build(BuildContext(
        config=config, physical=system.physical, core_id=core_id,
        hierarchy=hierarchy, pressure=pressure, walker=walker,
        page_table=page_table, tlb_table=page_table, tlb_walker=walker,
        shared=system.shared))
    backend.name = spec.name

    tlbs = _make_tlbs(config, core_id)
    mmu = MMU(*tlbs, system.memory_manager, pressure, backend, asid=0)
    if backend.l3_tlb is not None:
        tlbs.append(backend.l3_tlb)
    maintenance = TLBMaintenance(tlbs, pwcs, backend=backend)
    return Core(core_id, hierarchy, pressure, walker, mmu, maintenance, backend,
                registry)


def _build_virtualized_core(system: System, core_id: int, hierarchy: CacheHierarchy,
                            pressure: PressureMonitor, registry: StatsRegistry) -> Core:
    """Build a virtualized machine's core, and the nested walker the machine keeps.

    Guest page-table nodes live in guest-physical memory, and the nested
    walker translates every guest-physical access through the host
    dimension.  The backend's build hook gets that walker and the guest's
    table where a native core passes its radix walker and the process's
    table, and the combined (shadow) table as the table the TLBs cache.  A
    Victima controller also serves the nested walker's nested TLB blocks, so
    the walker takes it once the backend is built.  The MMU is the one a
    native core builds, given the guest's memory manager, which demand-maps
    the guest page of each L2 TLB miss.
    """
    config = system.config
    host_pwcs = _make_pwcs(config)
    host_walker = PageTableWalker(hierarchy, host_pwcs)
    shadow_walker = PageTableWalker(hierarchy, _make_pwcs(config))
    nested_tlb = _make_tlb(f"Nested-TLB-c{core_id}", config.mmu.nested_tlb)
    nested_walker = system.nested_walker = NestedPageTableWalker(
        guest_vmm=system.memory_manager, host_vmm=system.host_memory_manager,
        host_walker=host_walker, nested_tlb=nested_tlb, hierarchy=hierarchy,
        shadow_builder=system.shadow_builder, guest_pwcs=_make_pwcs(config), vmid=0)
    spec = get_backend(config.kind)
    backend = spec.build(BuildContext(
        config=config, physical=system.physical, core_id=core_id,
        hierarchy=hierarchy, pressure=pressure, walker=nested_walker,
        page_table=system.memory_manager.page_table,
        tlb_table=system.shadow_builder.table, tlb_walker=shadow_walker,
        host_page_table=system.host_memory_manager.page_table,
        shared=system.shared))
    backend.name = spec.name
    nested_walker.victima = backend.victima

    tlbs = _make_tlbs(config, core_id)
    mmu = MMU(*tlbs, system.memory_manager, pressure, backend, asid=0)
    maintenance = TLBMaintenance(tlbs + [nested_tlb], host_pwcs, backend=backend)
    return Core(core_id, hierarchy, pressure, host_walker, mmu, maintenance, backend,
                registry)
