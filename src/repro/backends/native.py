"""Translation backends for native and virtualized machines (Radix, L3 TLB,
POM-TLB, Victima).

Each class resolves an L2 TLB miss with one mechanism, on either kind of
machine: its build hook gets the miss walker from the :class:`BuildContext`,
the core's radix walker over the process's table on a native machine or the
machine's nested walker over the guest's table on a virtualized one, where
the entries are combined guest-virtual → host-physical translations.  Every
latency and side-effect order is pinned bit-identical by
``tests/test_backends.py``; the MMU counts each miss by its reported source.
The module registers one :class:`BackendSpec` per evaluated native system;
:mod:`repro.backends.virt` registers the virtualized systems, three of them
over the build hooks here.
"""

from __future__ import annotations

from repro.backends.base import BuildContext, MissResolution, TranslationBackend
from repro.backends.registry import BackendSpec, register_backend
from repro.baselines.pom_tlb import POMTLB
from repro.core.ptw_cp import BoundingBox, ComparatorPTWCostPredictor
from repro.core.victima import VictimaController
from repro.mmu.mmu import ServedBy
from repro.mmu.tlb import TLB


class RadixBackend(TranslationBackend):
    """A walk on every L2 TLB miss: radix, every large-L2-TLB system, nested paging."""

    def __init__(self, walker, page_table):
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        walk = self.walker.walk(self.page_table, vaddr)
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, walk.latency, walk.breakdown)


class L3TLBBackend(TranslationBackend):
    """A large hardware L3 TLB probed before the walk (Opt. L3 TLB, Fig. 8)."""

    def __init__(self, l3_tlb: TLB, walker, page_table):
        self.l3_tlb = l3_tlb
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        l3_latency = self.l3_tlb.latency
        breakdown = {"l3_tlb": l3_latency}
        entry = self.l3_tlb.lookup(vaddr, asid)
        if entry is not None:
            return MissResolution(ServedBy.L3_TLB, entry.pte, l3_latency, breakdown)
        walk = self.walker.walk(self.page_table, vaddr)
        self.l3_tlb.insert(walk.pte, asid)
        breakdown.update(walk.breakdown)
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, l3_latency + walk.latency, breakdown)


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
        pom_pte, pom_latency = self.pom_tlb.lookup(vaddr, asid, self.hierarchy)
        breakdown = {"stlb": pom_latency}
        if pom_pte is not None:
            return MissResolution(ServedBy.POM_TLB, pom_pte, pom_latency, breakdown)
        walk = self.walker.walk(self.page_table, vaddr)
        self.pom_tlb.insert(walk.pte, asid)
        breakdown.update(walk.breakdown)
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, pom_latency + walk.latency, breakdown)

    def warm_start(self, page_table) -> None:
        """POM-TLBs accumulate every translation ever walked, so they start
        the region of interest warm (see ``Simulator.prefault``) with the
        entries of the table the TLBs cache: the combined (shadow) table on
        a virtualized machine."""
        self.pom_tlb.warm_start(page_table)


class VictimaBackend(TranslationBackend):
    """Victima: TLB blocks in the L2 cache, probed in parallel with the walk."""

    def __init__(self, victima: VictimaController, walker, page_table):
        self.victima = victima
        self.walker = walker
        self.page_table = page_table

    def translate(self, vaddr: int, asid: int) -> MissResolution:
        # Probe the L2 cache for a TLB block in parallel with starting the
        # walk (Figure 17).  On a hit the walk is aborted; on a miss the
        # probe is fully overlapped with the walk, so only the walk's
        # latency appears on the critical path.
        block_pte, probe_latency = self.victima.probe(vaddr, asid)
        if block_pte is not None:
            return MissResolution(ServedBy.VICTIMA_BLOCK, block_pte, probe_latency,
                                  {"l2_cache": probe_latency})
        walk = self.walker.walk(self.page_table, vaddr)
        self.victima.on_l2_tlb_miss(walk.pte)
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, walk.latency, walk.breakdown)

    def on_l2_tlb_eviction(self, evicted) -> None:
        self.victima.on_l2_tlb_eviction(evicted)


# --------------------------------------------------------------------------- #
# Build hooks (one per mechanism)
# --------------------------------------------------------------------------- #
def _build_radix(ctx: BuildContext) -> RadixBackend:
    return RadixBackend(ctx.walker, ctx.page_table)


def _build_l3_tlb(ctx: BuildContext) -> L3TLBBackend:
    tlb_config = ctx.config.mmu.l3_tlb
    l3_tlb = TLB(f"L3-TLB-c{ctx.core_id}", entries=tlb_config.entries,
                 associativity=tlb_config.associativity,
                 latency=tlb_config.latency, page_sizes=tlb_config.page_sizes)
    return L3TLBBackend(l3_tlb, ctx.walker, ctx.page_table)


def _make_pom_tlb(ctx: BuildContext) -> POMTLB:
    return POMTLB(ctx.physical, entries=ctx.config.pom_tlb.entries,
                  associativity=ctx.config.pom_tlb.associativity,
                  entry_size_bytes=ctx.config.pom_tlb.entry_size_bytes)


def _build_pom_tlb(ctx: BuildContext) -> POMTLBBackend:
    return POMTLBBackend(ctx.shared, ctx.hierarchy, ctx.walker, ctx.page_table)


def _build_victima(ctx: BuildContext) -> VictimaBackend:
    victima_config = ctx.config.victima
    predictor = ComparatorPTWCostPredictor(BoundingBox(
        min_frequency=victima_config.predictor_min_frequency,
        min_cost=victima_config.predictor_min_cost))
    victima = VictimaController(
        l2_cache=ctx.hierarchy.l2,
        page_table=ctx.tlb_table,
        walker=ctx.tlb_walker,
        predictor=predictor,
        pressure=ctx.pressure,
        host_page_table=ctx.host_page_table,
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
