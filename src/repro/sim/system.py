"""System factory: assemble every evaluated system from a :class:`SystemConfig`.

A :class:`System` bundles the physical memory, DRAM, cache hierarchy, MMU
(native or virtualized), and the optional Victima / POM-TLB / L3 TLB back-end,
wired together exactly as the corresponding row of Table 3 describes.

With ``SystemConfig.num_cores > 1`` the factory instead assembles a
:class:`MultiCoreSystem`: per-core private structures (L1-D + L2 caches,
the full TLB hierarchy, page-walk caches, a hardware walker, and a Victima
controller over the private L2) around the shared LLC, DRAM, physical memory,
page table and — for POM-TLB and hashed-PT systems — one shared in-memory
structure.  Each core's backend passes that core's cache hierarchy to the
shared structure on every probe.  One function builds a native core, for
both factories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.backends import NativeBuildContext, VirtBuildContext, get_backend
from repro.baselines.pom_tlb import POMTLB
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
        return get_backend(self.config.kind).virtualized

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


def _make_tlbs(config: SystemConfig,
               tlb_name: Callable[[str], str] = lambda base: base) -> List[TLB]:
    """The 4 KB and 2 MB L1-D TLBs and the L2 TLB, in the MMUs' argument order."""
    mmu = config.mmu
    return [_make_tlb(tlb_name("L1-DTLB-4K"), mmu.l1_dtlb_4k),
            _make_tlb(tlb_name("L1-DTLB-2M"), mmu.l1_dtlb_2m),
            _make_tlb(tlb_name("L2-TLB"), mmu.l2_tlb)]


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


def build_system(config: SystemConfig,
                 huge_page_fraction: float = 0.3) -> Union[System, "MultiCoreSystem"]:
    """Build a :class:`System` (or, with ``num_cores > 1``, a :class:`MultiCoreSystem`).

    ``huge_page_fraction`` is workload-dependent (the THP mix the paper
    extracted per workload), so it is supplied by the caller rather than being
    part of the system configuration.
    """
    config.validate()
    if config.num_cores > 1:
        return build_multicore_system(config, huge_page_fraction)

    # Every stat-bearing component constructed inside this block registers
    # itself; the simulator's warm-up boundary resets them with one call.
    registry = StatsRegistry()
    with registry.activate():
        physical = PhysicalMemory(config.physical_memory_bytes)
        dram = _make_dram(config)
        pressure = _make_pressure(config)
        l3 = (_make_cache("L3", config.l3_cache, pressure)
              if config.l3_cache is not None else None)
        hierarchy = _make_hierarchy(config, pressure, l3, dram)
        if get_backend(config.kind).virtualized:
            system = _build_virtualized(config, physical, dram, hierarchy,
                                        pressure, huge_page_fraction)
        else:
            memory_manager = VirtualMemoryManager(
                physical, asid=0, huge_page_fraction=huge_page_fraction)
            system = System(config=config, physical=physical, dram=dram,
                            memory_manager=memory_manager,
                            **_build_native_core(config, physical, memory_manager,
                                                 hierarchy, pressure))
    system.stats_registry = registry
    return system


# --------------------------------------------------------------------------- #
# Native cores
# --------------------------------------------------------------------------- #
def _build_native_core(config: SystemConfig, physical: PhysicalMemory,
                       memory_manager: VirtualMemoryManager,
                       hierarchy: CacheHierarchy, pressure: PressureMonitor,
                       core_id: Optional[int] = None,
                       shared: Optional[object] = None) -> Dict[str, object]:
    """Build one native core's TLBs, PWCs, walker, backend, MMU and TLB maintenance.

    :func:`build_system` calls this once, :func:`build_multicore_system` once
    per core (``core_id`` names it, ``shared`` is the structure its
    backend spec built once for the machine).  Returns the fields a
    :class:`System` and a :class:`Core` share.
    """
    pwcs = _make_pwcs(config)
    walker = PageTableWalker(hierarchy, pwcs)

    # The registry supplies the translation backend ``config.kind`` names;
    # its build hook constructs whatever structures the mechanism needs
    # (Victima controller, POM-TLB reservation, L3 TLB, hashed table, ...).
    spec = get_backend(config.kind)
    ctx = NativeBuildContext(
        config=config, physical=physical, hierarchy=hierarchy,
        pressure=pressure, walker=walker, memory_manager=memory_manager,
        core_id=core_id, shared=shared)
    backend = spec.build(ctx)
    backend.name = spec.name

    tlbs = _make_tlbs(config, ctx.tlb_name)
    mmu = MMU(*tlbs, memory_manager, pressure, backend, asid=0)
    if backend.l3_tlb is not None:
        tlbs.append(backend.l3_tlb)
    maintenance = TLBMaintenance(tlbs, pwcs, backend=backend)
    return dict(hierarchy=hierarchy, pressure=pressure, walker=walker, mmu=mmu,
                maintenance=maintenance, victima=backend.victima,
                pom_tlb=backend.pom_tlb, l3_tlb=backend.l3_tlb, backend=backend)


# --------------------------------------------------------------------------- #
# Virtualized systems
# --------------------------------------------------------------------------- #
def _build_virtualized(config, physical, dram, hierarchy, pressure,
                       huge_page_fraction) -> System:
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

    host_pwcs = _make_pwcs(config)
    host_walker = PageTableWalker(hierarchy, host_pwcs)
    shadow_walker = PageTableWalker(hierarchy, _make_pwcs(config))
    shadow_builder = ShadowPageTableBuilder(physical, vmid=0)
    nested_tlb = _make_tlb("Nested-TLB", config.mmu.nested_tlb)

    # The backend's build hook runs exactly where the Victima controller /
    # POM-TLB used to be constructed (physical-memory reservation order
    # matters); the nested walker is built afterwards because it takes the
    # backend's Victima controller, then bound to the backend.
    spec = get_backend(config.kind)
    backend = spec.build(VirtBuildContext(
        config=config, physical=physical, hierarchy=hierarchy, pressure=pressure,
        shadow_builder=shadow_builder, shadow_walker=shadow_walker,
        host_vmm=host_vmm))
    backend.name = spec.name
    victima = backend.victima

    nested_walker = NestedPageTableWalker(
        guest_vmm=guest_vmm, host_vmm=host_vmm, host_walker=host_walker,
        nested_tlb=nested_tlb, hierarchy=hierarchy, shadow_builder=shadow_builder,
        guest_pwcs=_make_pwcs(config), victima=victima, vmid=0)
    backend.bind(nested_walker)

    tlbs = _make_tlbs(config)
    mmu = VirtualizedMMU(*tlbs, pressure, backend, vmid=0)
    maintenance = TLBMaintenance(tlbs + [nested_tlb], host_pwcs, backend=backend)

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
    is the machine's shared POM-TLB, which this core's backend probes
    through this core's caches.
    """

    core_id: int
    hierarchy: CacheHierarchy
    pressure: PressureMonitor
    walker: PageTableWalker
    mmu: MMU
    maintenance: TLBMaintenance
    victima: Optional[VictimaController] = None
    pom_tlb: Optional[POMTLB] = None
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
    POM-TLB systems — the in-memory POM-TLB.  Translation pressure is
    tracked per core only, so the LLC has no TLB-aware replacement.
    """

    config: SystemConfig
    physical: PhysicalMemory
    dram: DramModel
    llc: Optional[Cache]
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
    spec = get_backend(config.kind)

    # Shared structures register with the machine-wide registry; everything a
    # core owns registers with that core's registry (per-core warm-up resets).
    shared_registry = StatsRegistry()
    with shared_registry.activate():
        physical = PhysicalMemory(config.physical_memory_bytes)
        dram = _make_dram(config)
        llc = (_make_cache("LLC", config.l3_cache, None)
               if config.l3_cache is not None else None)
        memory_manager = VirtualMemoryManager(physical, asid=0,
                                              huge_page_fraction=huge_page_fraction)
        # The once-per-machine backend structure (e.g. the shared POM-TLB,
        # which reserves its contiguous physical region once, after the
        # page-table root).
        shared = None
        if spec.build_shared is not None:
            shared = spec.build_shared(NativeBuildContext(
                config=config, physical=physical, hierarchy=None, pressure=None,
                walker=None, memory_manager=memory_manager))

    system = MultiCoreSystem(
        config=config, physical=physical, dram=dram, llc=llc,
        memory_manager=memory_manager,
        pom_tlb=shared if isinstance(shared, POMTLB) else None,
        shared_backend=shared, stats_registry=shared_registry)
    for core_id in range(config.num_cores):
        registry = StatsRegistry()
        with registry.activate():
            pressure = _make_pressure(config)
            hierarchy = _make_hierarchy(config, pressure, llc, dram)
            core = Core(core_id=core_id, stats_registry=registry,
                        **_build_native_core(config, physical, memory_manager,
                                             hierarchy, pressure, core_id, shared))
        system.cores.append(core)
    return system
