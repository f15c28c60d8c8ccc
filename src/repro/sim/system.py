"""System factory: assemble every evaluated system from a :class:`SystemConfig`.

A :class:`System` bundles the physical memory, DRAM, cache hierarchy, MMU
(native or virtualized), and the optional Victima / POM-TLB / L3 TLB back-end,
wired together exactly as the corresponding row of Table 3 describes.

With ``SystemConfig.num_cores > 1`` the factory instead assembles a
:class:`MultiCoreSystem`: per-core private structures (L1-D + L2 caches,
the full TLB hierarchy, page-walk caches, a hardware walker, and a Victima
controller over the private L2) around the shared LLC, DRAM, physical memory,
page table and — for POM-TLB systems — one shared in-memory POM-TLB that
every core probes through its own :class:`~repro.baselines.pom_tlb.POMTLBPort`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.backends import NativeBuildContext, VirtBuildContext, backend_for_kind
from repro.baselines.pom_tlb import POMTLB, POMTLBPort
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetcher import IPStridePrefetcher, Prefetcher, StreamPrefetcher
from repro.cache.replacement import make_policy
from repro.common.errors import ConfigurationError
from repro.common.pressure import PressureMonitor
from repro.common.stats import StatsRegistry
from repro.core.victima import VictimaController
from repro.memory.dram import DramConfig, DramModel
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.physical import PhysicalMemory
from repro.mmu.maintenance import TLBMaintenance
from repro.mmu.mmu import MMU
from repro.mmu.page_walker import PageTableWalker
from repro.mmu.pwc import PageWalkCaches
from repro.mmu.tlb import TLB
from repro.sim.config import CacheConfig, SystemConfig, SystemKind, TLBConfig
from repro.virt.nested import NestedPageTableWalker
from repro.virt.shadow import ShadowPageTableBuilder
from repro.virt.virt_mmu import VirtualizedMMU


@dataclass
class System:
    """A fully assembled simulated machine."""

    config: SystemConfig
    physical: PhysicalMemory
    dram: DramModel
    hierarchy: CacheHierarchy
    pressure: PressureMonitor
    memory_manager: VirtualMemoryManager
    walker: PageTableWalker
    mmu: object  # MMU or VirtualizedMMU
    maintenance: TLBMaintenance
    victima: Optional[VictimaController] = None
    pom_tlb: Optional[POMTLB] = None
    l3_tlb: Optional[TLB] = None
    nested_walker: Optional[NestedPageTableWalker] = None
    shadow_builder: Optional[ShadowPageTableBuilder] = None
    #: The translation backend the registry built (also ``mmu.backend``).
    backend: Optional[object] = None
    #: Every stat-bearing component, registered at construction; the
    #: simulator's warm-up boundary resets them all with one call.
    stats_registry: Optional[StatsRegistry] = None

    @property
    def is_virtualized(self) -> bool:
        return self.config.kind.is_virtualized

    @property
    def l2_cache(self) -> Cache:
        return self.hierarchy.l2

    @property
    def page_table(self):
        """The page table whose leaf entries back the TLB hierarchy.

        Natively this is the process's radix table; in virtualized execution it
        is the combined (shadow) gVA→hPA table.
        """
        if self.shadow_builder is not None:
            return self.shadow_builder.table
        return self.memory_manager.page_table

    @property
    def l2_tlb(self) -> TLB:
        return self.mmu.l2_tlb


def _make_tlb(name: str, config: TLBConfig) -> TLB:
    return TLB(name, entries=config.entries, associativity=config.associativity,
               latency=config.latency, page_sizes=config.page_sizes)


def _make_prefetcher(name: Optional[str]) -> Optional[Prefetcher]:
    if name is None:
        return None
    if name == "ip_stride":
        return IPStridePrefetcher()
    if name == "stream":
        return StreamPrefetcher()
    raise ConfigurationError(f"unknown prefetcher: {name!r}")


def _make_cache(name: str, config: CacheConfig, pressure: PressureMonitor) -> Cache:
    policy = make_policy(config.replacement_policy, pressure)
    return Cache(name, size_bytes=config.size_bytes, associativity=config.associativity,
                 latency=config.latency, block_size=config.block_size,
                 replacement_policy=policy)


def build_system(config: SystemConfig,
                 huge_page_fraction: float = 0.3) -> Union[System, "MultiCoreSystem"]:
    """Build a :class:`System` (or, with ``num_cores > 1``, a :class:`MultiCoreSystem`).

    ``huge_page_fraction`` is workload-dependent (the THP mix the paper
    extracted per workload), so it is supplied by the caller rather than being
    part of the system configuration.  The single-core path is byte-for-byte
    the pre-multi-core factory, so every existing figure and cache entry built
    through it is unaffected.
    """
    config.validate()
    if config.num_cores > 1:
        return build_multicore_system(config, huge_page_fraction)
    kind = config.kind

    # Every stat-bearing component constructed inside this block registers
    # itself; the simulator's warm-up boundary resets them with one call.
    registry = StatsRegistry()
    with registry.activate():
        physical = PhysicalMemory(config.physical_memory_bytes)
        dram = DramModel(DramConfig(
            row_hit_latency=config.dram.row_hit_latency,
            row_miss_latency=config.dram.row_miss_latency,
            num_banks=config.dram.num_banks,
        ))
        pressure = PressureMonitor(
            tlb_pressure_threshold=config.victima.tlb_pressure_threshold,
            cache_pressure_threshold=config.victima.cache_pressure_threshold,
        )

        l1d = _make_cache("L1-D", config.l1d_cache, pressure)
        l2 = _make_cache("L2", config.l2_cache, pressure)
        l3 = (_make_cache("L3", config.l3_cache, pressure)
              if config.l3_cache is not None else None)
        hierarchy = CacheHierarchy(
            l1d, l2, l3, dram,
            l1d_prefetcher=_make_prefetcher(config.l1d_cache.prefetcher),
            l2_prefetcher=_make_prefetcher(config.l2_cache.prefetcher),
        )

        l1_dtlb_4k = _make_tlb("L1-DTLB-4K", config.mmu.l1_dtlb_4k)
        l1_dtlb_2m = _make_tlb("L1-DTLB-2M", config.mmu.l1_dtlb_2m)
        l2_tlb = _make_tlb("L2-TLB", config.mmu.l2_tlb)

        if not kind.is_virtualized:
            system = _build_native(config, physical, dram, hierarchy, pressure,
                                   l1_dtlb_4k, l1_dtlb_2m, l2_tlb,
                                   huge_page_fraction)
        else:
            system = _build_virtualized(config, physical, dram, hierarchy,
                                        pressure, l1_dtlb_4k, l1_dtlb_2m,
                                        l2_tlb, huge_page_fraction)
    system.stats_registry = registry
    return system


# --------------------------------------------------------------------------- #
# Native systems
# --------------------------------------------------------------------------- #
def _build_native(config, physical, dram, hierarchy, pressure,
                  l1_dtlb_4k, l1_dtlb_2m, l2_tlb,
                  huge_page_fraction) -> System:
    kind = config.kind
    memory_manager = VirtualMemoryManager(physical, asid=0,
                                          huge_page_fraction=huge_page_fraction)
    pwcs = PageWalkCaches(config.mmu.pwc_entries, config.mmu.pwc_associativity,
                          config.mmu.pwc_latency)
    walker = PageTableWalker(hierarchy, pwcs)

    # The registry supplies the translation backend for the configured kind;
    # its build hook constructs whatever structures the mechanism needs
    # (Victima controller, POM-TLB reservation, L3 TLB, hashed table, ...).
    spec = backend_for_kind(kind)
    backend = spec.build(NativeBuildContext(
        config=config, physical=physical, hierarchy=hierarchy,
        pressure=pressure, walker=walker, memory_manager=memory_manager))
    backend.name = spec.name

    mmu = MMU(l1_dtlb_4k, l1_dtlb_2m, l2_tlb, memory_manager, pressure,
              backend, asid=0)
    victima = backend.victima
    l3_tlb = backend.l3_tlb

    tlbs: List[TLB] = [l1_dtlb_4k, l1_dtlb_2m, l2_tlb]
    if l3_tlb is not None:
        tlbs.append(l3_tlb)
    maintenance = TLBMaintenance(tlbs, pwcs, backend=backend)

    return System(config=config, physical=physical, dram=dram, hierarchy=hierarchy,
                  pressure=pressure, memory_manager=memory_manager, walker=walker,
                  mmu=mmu, maintenance=maintenance, victima=victima,
                  pom_tlb=backend.pom_tlb, l3_tlb=l3_tlb, backend=backend)


# --------------------------------------------------------------------------- #
# Virtualized systems
# --------------------------------------------------------------------------- #
def _build_virtualized(config, physical, dram, hierarchy, pressure,
                       l1_dtlb_4k, l1_dtlb_2m, l2_tlb,
                       huge_page_fraction) -> System:
    kind = config.kind
    # The guest sees its own (pseudo-)physical address space; the host backs it
    # with real frames.  Guest page-table nodes live in guest-physical memory
    # and every guest-physical access is translated through the host dimension.
    guest_physical = PhysicalMemory(config.physical_memory_bytes)
    guest_vmm = VirtualMemoryManager(guest_physical, asid=0,
                                     huge_page_fraction=huge_page_fraction)
    # The host backing uses the same VMID (0) as the guest context: nested TLB
    # blocks in the L2 cache are tagged by VMID, and the probe side (the nested
    # walker) identifies the VM, not the host address space.
    host_vmm = VirtualMemoryManager(physical, asid=0,
                                    huge_page_fraction=huge_page_fraction)

    host_pwcs = PageWalkCaches(config.mmu.pwc_entries, config.mmu.pwc_associativity,
                               config.mmu.pwc_latency)
    host_walker = PageTableWalker(hierarchy, host_pwcs)
    shadow_pwcs = PageWalkCaches(config.mmu.pwc_entries, config.mmu.pwc_associativity,
                                 config.mmu.pwc_latency)
    shadow_walker = PageTableWalker(hierarchy, shadow_pwcs)
    shadow_builder = ShadowPageTableBuilder(physical, vmid=0)
    nested_tlb = _make_tlb("Nested-TLB", config.mmu.nested_tlb)

    # The backend's build hook runs exactly where the Victima controller /
    # POM-TLB used to be constructed (physical-memory reservation order
    # matters); the nested walker is built afterwards because it takes the
    # backend's Victima controller, then bound to the backend.
    spec = backend_for_kind(kind)
    backend = spec.build(VirtBuildContext(
        config=config, physical=physical, hierarchy=hierarchy, pressure=pressure,
        shadow_builder=shadow_builder, shadow_walker=shadow_walker,
        host_vmm=host_vmm))
    backend.name = spec.name
    victima = backend.victima

    nested_walker = NestedPageTableWalker(
        guest_vmm=guest_vmm, host_vmm=host_vmm, host_walker=host_walker,
        nested_tlb=nested_tlb, hierarchy=hierarchy, shadow_builder=shadow_builder,
        guest_pwcs=PageWalkCaches(config.mmu.pwc_entries, config.mmu.pwc_associativity,
                                  config.mmu.pwc_latency),
        victima=victima, vmid=0)
    backend.bind(nested_walker)

    mmu = VirtualizedMMU(l1_dtlb_4k, l1_dtlb_2m, l2_tlb, pressure,
                         backend, vmid=0)

    tlbs: List[TLB] = [l1_dtlb_4k, l1_dtlb_2m, l2_tlb, nested_tlb]
    maintenance = TLBMaintenance(tlbs, host_pwcs, backend=backend)

    return System(config=config, physical=physical, dram=dram, hierarchy=hierarchy,
                  pressure=pressure, memory_manager=guest_vmm, walker=host_walker,
                  mmu=mmu, maintenance=maintenance, victima=victima,
                  pom_tlb=backend.pom_tlb, nested_walker=nested_walker,
                  shadow_builder=shadow_builder, backend=backend)


# --------------------------------------------------------------------------- #
# Multi-core systems
# --------------------------------------------------------------------------- #
@dataclass
class Core:
    """One core's private slice of a :class:`MultiCoreSystem`.

    Everything here is private to the core: the L1/L2 caches (the hierarchy
    object routes misses into the shared LLC/DRAM), the TLB hierarchy, the
    page-walk caches and walker, the pressure monitor feeding the core's
    TLB-aware L2 replacement policy, and — on Victima systems — the Victima
    controller that stores TLB blocks in this core's private L2.  ``pom_tlb``
    is a :class:`~repro.baselines.pom_tlb.POMTLBPort` onto the shared POM-TLB.
    """

    core_id: int
    hierarchy: CacheHierarchy
    pressure: PressureMonitor
    walker: PageTableWalker
    mmu: MMU
    maintenance: TLBMaintenance
    victima: Optional[VictimaController] = None
    pom_tlb: Optional[POMTLBPort] = None
    l3_tlb: Optional[TLB] = None
    #: This core's translation backend (also ``mmu.backend``).
    backend: Optional[object] = None
    #: This core's private stat-bearing components (per-core warm-up reset).
    stats_registry: Optional[StatsRegistry] = None

    @property
    def l2_cache(self) -> Cache:
        return self.hierarchy.l2

    @property
    def l2_tlb(self) -> TLB:
        return self.mmu.l2_tlb


@dataclass
class MultiCoreSystem:
    """A simulated machine with ``num_cores`` cores around shared structures.

    Shared: physical memory, DRAM, the LLC, one address space (the tenants a
    multi-core scenario pins to cores are isolated by disjoint virtual-address
    slots, exactly like single-core mixes), its radix page table, and — on
    POM-TLB systems — the in-memory POM-TLB.  ``shared_pressure`` aggregates
    instruction/miss events machine-wide for the LLC replacement policy.
    """

    config: SystemConfig
    physical: PhysicalMemory
    dram: DramModel
    llc: Optional[Cache]
    shared_pressure: PressureMonitor
    memory_manager: VirtualMemoryManager
    cores: List[Core] = field(default_factory=list)
    pom_tlb: Optional[POMTLB] = None
    #: The once-per-machine structure built by the backend spec's
    #: ``build_shared`` hook (e.g. the shared POM-TLB or hashed page table).
    shared_backend: Optional[object] = None
    #: Machine-wide shared stat-bearing components (LLC, DRAM, POM-TLB, ...).
    stats_registry: Optional[StatsRegistry] = None

    @property
    def is_virtualized(self) -> bool:
        return False

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def page_table(self):
        return self.memory_manager.page_table


def build_multicore_system(config: SystemConfig,
                           huge_page_fraction: float = 0.3) -> MultiCoreSystem:
    """Assemble a native multi-core machine from ``config``.

    Per-core structures replicate the single-core geometry of ``config`` (so
    ``hardware_scale`` keeps its meaning per core); the LLC described by
    ``config.l3_cache`` is instantiated once and shared.
    """
    config.validate()
    kind = config.kind
    if kind.is_virtualized:  # pragma: no cover - validate() already rejects
        raise ConfigurationError("multi-core simulation supports native systems only")

    spec = backend_for_kind(kind)

    # Shared structures register with the machine-wide registry; everything a
    # core owns registers with that core's registry (per-core warm-up resets).
    shared_registry = StatsRegistry()
    with shared_registry.activate():
        physical = PhysicalMemory(config.physical_memory_bytes)
        dram = DramModel(DramConfig(
            row_hit_latency=config.dram.row_hit_latency,
            row_miss_latency=config.dram.row_miss_latency,
            num_banks=config.dram.num_banks,
        ))
        shared_pressure = PressureMonitor(
            tlb_pressure_threshold=config.victima.tlb_pressure_threshold,
            cache_pressure_threshold=config.victima.cache_pressure_threshold,
        )
        llc = (_make_cache("LLC", config.l3_cache, shared_pressure)
               if config.l3_cache is not None else None)
        memory_manager = VirtualMemoryManager(physical, asid=0,
                                              huge_page_fraction=huge_page_fraction)

    system = MultiCoreSystem(config=config, physical=physical, dram=dram, llc=llc,
                             shared_pressure=shared_pressure,
                             memory_manager=memory_manager,
                             stats_registry=shared_registry)

    core_registries = [StatsRegistry() for _ in range(config.num_cores)]
    hierarchies: List[CacheHierarchy] = []
    pressures: List[PressureMonitor] = []
    for core_id in range(config.num_cores):
        with core_registries[core_id].activate():
            pressure = PressureMonitor(
                tlb_pressure_threshold=config.victima.tlb_pressure_threshold,
                cache_pressure_threshold=config.victima.cache_pressure_threshold,
            )
            hierarchy = CacheHierarchy(
                _make_cache("L1-D", config.l1d_cache, pressure),
                _make_cache("L2", config.l2_cache, pressure),
                llc, dram,
                l1d_prefetcher=_make_prefetcher(config.l1d_cache.prefetcher),
                l2_prefetcher=_make_prefetcher(config.l2_cache.prefetcher),
            )
        pressures.append(pressure)
        hierarchies.append(hierarchy)

    # The once-per-machine backend structure (e.g. the shared POM-TLB, which
    # reserves its contiguous physical region once; its default hierarchy is
    # replaced per lookup by each core's port).
    shared = None
    if spec.build_shared is not None:
        with shared_registry.activate():
            shared = spec.build_shared(NativeBuildContext(
                config=config, physical=physical, hierarchy=hierarchies[0],
                pressure=shared_pressure, walker=None,
                memory_manager=memory_manager))
    system.shared_backend = shared
    system.pom_tlb = shared if kind is SystemKind.POM_TLB else None

    for core_id in range(config.num_cores):
        pressure = pressures[core_id]
        hierarchy = hierarchies[core_id]
        with core_registries[core_id].activate():
            pwcs = PageWalkCaches(config.mmu.pwc_entries,
                                  config.mmu.pwc_associativity,
                                  config.mmu.pwc_latency)
            walker = PageTableWalker(hierarchy, pwcs)

            backend = spec.build(NativeBuildContext(
                config=config, physical=physical, hierarchy=hierarchy,
                pressure=pressure, walker=walker, memory_manager=memory_manager,
                core_id=core_id, shared=shared))
            backend.name = spec.name

            l1_dtlb_4k = _make_tlb(f"L1-DTLB-4K-c{core_id}", config.mmu.l1_dtlb_4k)
            l1_dtlb_2m = _make_tlb(f"L1-DTLB-2M-c{core_id}", config.mmu.l1_dtlb_2m)
            l2_tlb = _make_tlb(f"L2-TLB-c{core_id}", config.mmu.l2_tlb)
            mmu = MMU(l1_dtlb_4k, l1_dtlb_2m, l2_tlb, memory_manager,
                      pressure, backend, asid=0)

        l3_tlb = backend.l3_tlb
        tlbs: List[TLB] = [l1_dtlb_4k, l1_dtlb_2m, l2_tlb]
        if l3_tlb is not None:
            tlbs.append(l3_tlb)
        maintenance = TLBMaintenance(tlbs, pwcs, backend=backend)

        system.cores.append(Core(core_id=core_id, hierarchy=hierarchy,
                                 pressure=pressure, walker=walker, mmu=mmu,
                                 maintenance=maintenance, victima=backend.victima,
                                 pom_tlb=backend.pom_tlb, l3_tlb=l3_tlb,
                                 backend=backend,
                                 stats_registry=core_registries[core_id]))
    return system
