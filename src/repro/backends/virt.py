"""Virtualized-execution translation backends (NP, I-SP, POM-TLB, Victima).

Counterparts of :mod:`repro.backends.native` for virtualized machines
(Figures 3 and 19 of the paper): the same MMU dispatches their L2 TLB
misses, whose entries are combined guest-virtual → host-physical
translations.  The walkers count the walks, host and shadow walks included.

Virtualized backends are built in two phases: the spec's ``build`` hook runs
at the exact point of the factory where the Victima controller / POM-TLB used
to be constructed (physical-memory reservation order matters for bit-identical
results), and :meth:`VirtTranslationBackend.bind` attaches the nested walker
afterwards — the nested walker itself needs the Victima controller at
construction, so it cannot exist before the backend does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.backends.base import MissResolution, TranslationBackend
from repro.backends.registry import BackendSpec, register_backend
from repro.baselines.pom_tlb import POMTLB
from repro.core.ptw_cp import BoundingBox, ComparatorPTWCostPredictor
from repro.core.victima import VictimaController
from repro.mmu.mmu import ServedBy


@dataclass
class VirtBuildContext:
    """What the system factory hands a virtualized backend's build hook."""

    config: object           # SystemConfig
    physical: object         # PhysicalMemory (host)
    hierarchy: object        # CacheHierarchy
    pressure: object         # PressureMonitor
    shadow_builder: object   # ShadowPageTableBuilder
    shadow_walker: object    # PageTableWalker over the shadow table
    host_vmm: object         # VirtualMemoryManager (host backing)


class VirtTranslationBackend(TranslationBackend):
    """Base for backends that resolve misses through the nested walker."""

    virtualized = True

    def __init__(self):
        self.nested_walker = None

    def bind(self, nested_walker) -> "VirtTranslationBackend":
        """Attach the nested walker (built *after* the backend — it needs the
        backend's Victima controller at construction)."""
        self.nested_walker = nested_walker
        return self


class NestedPagingBackend(VirtTranslationBackend):
    """Nested paging: every L2 TLB miss takes the two-dimensional walk."""

    def translate(self, gva: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        nested = self.nested_walker.walk(gva)
        breakdown["guest"] = nested.guest_latency
        breakdown["host"] = nested.host_latency
        return MissResolution(ServedBy.PAGE_WALK, nested.combined_pte, nested.latency, breakdown)


class ShadowPagingBackend(VirtTranslationBackend):
    """Ideal shadow paging: a free-to-maintain one-dimensional shadow walk."""

    def __init__(self, shadow_walker):
        super().__init__()
        self.shadow_walker = shadow_walker

    @property
    def shadow_table(self):
        return self.nested_walker.shadow_builder.table

    def translate(self, gva: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        # Ideal shadow paging: keep the shadow table in sync for free,
        # then a one-dimensional walk resolves the translation.
        self.nested_walker.install_shadow_mapping(gva)
        walk = self.shadow_walker.walk(self.shadow_table, gva)
        breakdown["guest"] = walk.latency
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, walk.latency, breakdown)


class VirtVictimaBackend(VirtTranslationBackend):
    """Victima under virtualization: combined-translation TLB blocks in L2."""

    def __init__(self, victima: VictimaController):
        super().__init__()
        self.victima = victima

    def translate(self, gva: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        block_pte, probe_latency = self.victima.probe(gva, asid)
        if block_pte is not None:
            breakdown["l2_cache"] = probe_latency
            return MissResolution(ServedBy.VICTIMA_BLOCK, block_pte, probe_latency, breakdown)
        nested = self.nested_walker.walk(gva)
        breakdown["guest"] = nested.guest_latency
        breakdown["host"] = nested.host_latency
        self.victima.on_l2_tlb_miss(nested.combined_pte)
        return MissResolution(ServedBy.PAGE_WALK, nested.combined_pte, nested.latency, breakdown)

    def on_l2_tlb_eviction(self, evicted) -> None:
        self.victima.on_l2_tlb_eviction(evicted)

    def invalidate_page(self, vaddr: int, asid: int) -> int:
        return self.victima.invalidate_page(vaddr, asid)

    def invalidate_asid(self, asid: int) -> int:
        return self.victima.invalidate_asid(asid)

    def invalidate_all(self) -> int:
        return self.victima.invalidate_all()


class VirtPOMTLBBackend(VirtTranslationBackend):
    """Nested paging plus an in-memory POM-TLB of combined translations."""

    def __init__(self, pom_tlb: POMTLB, hierarchy):
        super().__init__()
        self.pom_tlb = pom_tlb
        #: The caches every probe of the POM-TLB goes through.
        self.hierarchy = hierarchy

    def translate(self, gva: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        pom_pte, pom_latency = self.pom_tlb.lookup(gva, asid, self.hierarchy)
        breakdown["stlb"] = pom_latency
        if pom_pte is not None:
            return MissResolution(ServedBy.POM_TLB, pom_pte, pom_latency, breakdown)
        nested = self.nested_walker.walk(gva)
        breakdown["guest"] = nested.guest_latency
        breakdown["host"] = nested.host_latency
        self.pom_tlb.insert(nested.combined_pte, asid)
        return MissResolution(ServedBy.PAGE_WALK, nested.combined_pte,
                              pom_latency + nested.latency, breakdown)

    def warm_start(self, page_table) -> None:
        """The POM-TLB starts warm with the combined (shadow) translations,
        as on a native machine."""
        self.pom_tlb.warm_start(page_table)


# --------------------------------------------------------------------------- #
# Build hooks (one per evaluated virtualized system)
# --------------------------------------------------------------------------- #
def _build_nested(ctx: VirtBuildContext) -> NestedPagingBackend:
    return NestedPagingBackend()


def _build_shadow(ctx: VirtBuildContext) -> ShadowPagingBackend:
    return ShadowPagingBackend(ctx.shadow_walker)


def _build_virt_victima(ctx: VirtBuildContext) -> VirtVictimaBackend:
    victima_config = ctx.config.victima
    predictor = ComparatorPTWCostPredictor(BoundingBox(
        min_frequency=victima_config.predictor_min_frequency,
        min_cost=victima_config.predictor_min_cost))
    victima = VictimaController(
        l2_cache=ctx.hierarchy.l2,
        page_table=ctx.shadow_builder.table,
        walker=ctx.shadow_walker,
        predictor=predictor,
        pressure=ctx.pressure,
        host_page_table=ctx.host_vmm.page_table,
        insert_on_miss=victima_config.insert_on_miss,
        insert_on_eviction=victima_config.insert_on_eviction,
        use_predictor=victima_config.use_predictor,
        bypass_on_low_locality=victima_config.bypass_on_low_locality,
    )
    return VirtVictimaBackend(victima)


def _build_virt_pom(ctx: VirtBuildContext) -> VirtPOMTLBBackend:
    pom = POMTLB(ctx.physical, entries=ctx.config.pom_tlb.entries,
                 associativity=ctx.config.pom_tlb.associativity,
                 entry_size_bytes=ctx.config.pom_tlb.entry_size_bytes)
    return VirtPOMTLBBackend(pom, ctx.hierarchy)


register_backend(BackendSpec(
    name="nested_paging", label="Nested Paging",
    summary="Two-dimensional guest+host walk on every L2 TLB miss.",
    build=_build_nested, virtualized=True))

register_backend(BackendSpec(
    name="ideal_shadow_paging", label="Ideal Shadow Paging",
    summary="One-dimensional shadow-table walk with free shadow maintenance.",
    build=_build_shadow, virtualized=True))

register_backend(BackendSpec(
    name="virt_pom_tlb", label="NP + POM-TLB",
    summary="In-memory POM-TLB of combined translations over nested paging.",
    build=_build_virt_pom, virtualized=True))

register_backend(BackendSpec(
    name="virt_victima", label="NP + Victima",
    summary="Combined-translation TLB blocks in the L2 cache over nested paging.",
    build=_build_virt_victima, virtualized=True))
