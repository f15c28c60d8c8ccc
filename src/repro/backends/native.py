"""Native-execution translation backends (Radix, L3 TLB, POM-TLB, Victima).

Each class here is the body of one branch of the historical
``MMU._resolve_miss`` — moved, not rewritten, so every latency and
side-effect order is preserved (pinned bit-identical by
``tests/test_backends.py``); the MMU, which also serves virtualized
machines, counts each miss by its reported source.  The module registers one :class:`BackendSpec`
per evaluated native system; the build hooks reproduce exactly the
construction the system factory used to hard-code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.backends.base import MissResolution, TranslationBackend
from repro.backends.registry import BackendSpec, register_backend
from repro.baselines.pom_tlb import POMTLB
from repro.core.ptw_cp import BoundingBox, ComparatorPTWCostPredictor
from repro.core.victima import VictimaController
from repro.mmu.mmu import ServedBy
from repro.mmu.tlb import TLB


@dataclass
class NativeBuildContext:
    """What the system factory hands a native backend's build hooks.

    ``build`` gets one context per core: ``core_id`` names the core and
    ``shared`` carries the structure the spec's ``build_shared`` hook built
    once for the machine (e.g. the in-memory POM-TLB), or ``None``.  That
    hook runs before any core exists, so its context has no ``core_id``,
    ``hierarchy``, ``pressure`` or ``walker``; each core's backend passes
    its own hierarchy to the shared structure on every probe.
    """

    config: object            # SystemConfig
    physical: object          # PhysicalMemory
    hierarchy: object         # CacheHierarchy (this core's)
    pressure: object          # PressureMonitor (this core's)
    walker: object            # PageTableWalker (this core's)
    memory_manager: object    # VirtualMemoryManager (shared address space)
    core_id: Optional[int] = None
    shared: Optional[object] = None

    @property
    def page_table(self):
        return self.memory_manager.page_table


class RadixBackend(TranslationBackend):
    """Four-level radix walk: the baseline (and every large-L2-TLB system)."""

    def __init__(self, walker, page_table):
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        walk = self.walker.walk(self.page_table, vaddr)
        breakdown: Dict[str, int] = {"walk": walk.latency}
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, walk.latency, breakdown)


class L3TLBBackend(TranslationBackend):
    """A large hardware L3 TLB probed before the walk (Opt. L3 TLB, Fig. 8)."""

    def __init__(self, l3_tlb: TLB, walker, page_table):
        self.l3_tlb = l3_tlb
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        l3_latency = self.l3_tlb.latency
        entry = self.l3_tlb.lookup(vaddr, asid)
        if entry is not None:
            breakdown["l3_tlb"] = l3_latency
            return MissResolution(ServedBy.L3_TLB, entry.pte, l3_latency, breakdown)
        walk = self.walker.walk(self.page_table, vaddr)
        self.l3_tlb.insert(walk.pte, asid)
        breakdown["l3_tlb"] = l3_latency
        breakdown["walk"] = walk.latency
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, l3_latency + walk.latency, breakdown)

    def invalidate_page(self, vaddr: int, asid: int) -> int:
        return self.l3_tlb.invalidate_page(vaddr, asid)

    def invalidate_asid(self, asid: int) -> int:
        return self.l3_tlb.invalidate_asid(asid)

    def invalidate_all(self) -> int:
        return self.l3_tlb.invalidate_all()


class POMTLBBackend(TranslationBackend):
    """A part-of-memory software TLB probed before the walk (Ryoo et al.)."""

    def __init__(self, pom_tlb: POMTLB, hierarchy, walker, page_table):
        #: The machine's POM-TLB, shared by every core.
        self.pom_tlb = pom_tlb
        #: This core's caches, which every probe of the POM-TLB goes through.
        self.hierarchy = hierarchy
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        pom_pte, pom_latency = self.pom_tlb.lookup(vaddr, asid, self.hierarchy)
        breakdown["stlb"] = pom_latency
        if pom_pte is not None:
            return MissResolution(ServedBy.POM_TLB, pom_pte, pom_latency, breakdown)
        walk = self.walker.walk(self.page_table, vaddr)
        self.pom_tlb.insert(walk.pte, asid)
        breakdown["walk"] = walk.latency
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, pom_latency + walk.latency, breakdown)

    def warm_start(self, page_table) -> None:
        """POM-TLBs accumulate every translation ever walked, so they start
        the region of interest warm (see ``Simulator.prefault``)."""
        self.pom_tlb.warm_start(page_table)


class VictimaBackend(TranslationBackend):
    """Victima: TLB blocks in the L2 cache, probed in parallel with the walk."""

    def __init__(self, victima: VictimaController, walker, page_table):
        self.victima = victima
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        breakdown: Dict[str, int] = {}
        # Probe the L2 cache for a TLB block in parallel with starting the
        # walk (Figure 17).  On a hit the walk is aborted; on a miss the
        # probe is fully overlapped with the walk, so only the walk's
        # latency appears on the critical path.
        block_pte, probe_latency = self.victima.probe(vaddr, asid)
        if block_pte is not None:
            breakdown["l2_cache"] = probe_latency
            return MissResolution(ServedBy.VICTIMA_BLOCK, block_pte, probe_latency, breakdown)
        walk = self.walker.walk(self.page_table, vaddr)
        breakdown["walk"] = walk.latency
        self.victima.on_l2_tlb_miss(walk.pte)
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, walk.latency, breakdown)

    def on_l2_tlb_eviction(self, evicted) -> None:
        self.victima.on_l2_tlb_eviction(evicted)

    def invalidate_page(self, vaddr: int, asid: int) -> int:
        return self.victima.invalidate_page(vaddr, asid)

    def invalidate_asid(self, asid: int) -> int:
        return self.victima.invalidate_asid(asid)

    def invalidate_all(self) -> int:
        return self.victima.invalidate_all()


# --------------------------------------------------------------------------- #
# Build hooks (one per evaluated native system)
# --------------------------------------------------------------------------- #
def _build_radix(ctx: NativeBuildContext) -> RadixBackend:
    return RadixBackend(ctx.walker, ctx.page_table)


def _build_l3_tlb(ctx: NativeBuildContext) -> L3TLBBackend:
    tlb_config = ctx.config.mmu.l3_tlb
    l3_tlb = TLB(f"L3-TLB-c{ctx.core_id}", entries=tlb_config.entries,
                 associativity=tlb_config.associativity,
                 latency=tlb_config.latency, page_sizes=tlb_config.page_sizes)
    return L3TLBBackend(l3_tlb, ctx.walker, ctx.page_table)


def _make_pom_tlb(ctx) -> POMTLB:
    return POMTLB(ctx.physical, entries=ctx.config.pom_tlb.entries,
                  associativity=ctx.config.pom_tlb.associativity,
                  entry_size_bytes=ctx.config.pom_tlb.entry_size_bytes)


def _build_pom_tlb(ctx: NativeBuildContext) -> POMTLBBackend:
    return POMTLBBackend(ctx.shared, ctx.hierarchy, ctx.walker, ctx.page_table)


def _build_victima(ctx: NativeBuildContext) -> VictimaBackend:
    victima_config = ctx.config.victima
    predictor = ComparatorPTWCostPredictor(BoundingBox(
        min_frequency=victima_config.predictor_min_frequency,
        min_cost=victima_config.predictor_min_cost))
    victima = VictimaController(
        l2_cache=ctx.hierarchy.l2,
        page_table=ctx.page_table,
        walker=ctx.walker,
        predictor=predictor,
        pressure=ctx.pressure,
        insert_on_miss=victima_config.insert_on_miss,
        insert_on_eviction=victima_config.insert_on_eviction,
        use_predictor=victima_config.use_predictor,
        bypass_on_low_locality=victima_config.bypass_on_low_locality,
    )
    return VictimaBackend(victima, ctx.walker, ctx.page_table)


register_backend(BackendSpec(
    name="radix", label="Radix",
    summary="Baseline four-level radix page-table walk behind the L2 TLB.",
    build=_build_radix))

register_backend(BackendSpec(
    name="large_l2_tlb", label="Large L2 TLB",
    summary="Radix walk behind an enlarged L2 TLB (opt_l2tlb_*/real_l2tlb_* presets).",
    build=_build_radix))

register_backend(BackendSpec(
    name="l3_tlb", label="Opt. L3 TLB 64K",
    summary="Large hardware L3 TLB probed before the radix walk (Figure 8).",
    build=_build_l3_tlb))

register_backend(BackendSpec(
    name="pom_tlb", label="POM-TLB 64K",
    summary="In-memory software-managed TLB probed before the walk (Ryoo et al.).",
    build=_build_pom_tlb,
    build_shared=_make_pom_tlb))

register_backend(BackendSpec(
    name="victima", label="Victima",
    summary="TLB blocks stored in the L2 cache, probed in parallel with the walk.",
    build=_build_victima))
