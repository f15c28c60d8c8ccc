"""The virtualized systems (Figures 3, 19 and 27 of the paper).

On a virtualized machine the TLBs cache combined guest-virtual →
host-physical translations, and the system factory hands each build hook
the machine's nested walker, which walks the guest's table in two
dimensions.  Nested paging, its POM-TLB and Victima are therefore the native
backends of :mod:`repro.backends.native` over that walker: their specs below
register the native build hooks with ``virtualized=True``.  Ideal shadow
paging is the one virtualized-only mechanism: it walks the combined (shadow)
table in one dimension and keeps it in sync for free.
"""

from __future__ import annotations

from repro.backends.base import BuildContext, MissResolution, TranslationBackend
from repro.backends.native import _build_pom_tlb, _build_radix, _build_victima, _make_pom_tlb
from repro.backends.registry import BackendSpec, register_backend
from repro.mmu.mmu import ServedBy


class ShadowPagingBackend(TranslationBackend):
    """Ideal shadow paging: a free-to-maintain one-dimensional shadow walk."""

    def __init__(self, nested_walker, shadow_walker, shadow_table):
        #: Installs each combined mapping, untimed; it walks nothing here.
        self.nested_walker = nested_walker
        self.shadow_walker = shadow_walker
        self.shadow_table = shadow_table

    def translate(self, gva: int, asid: int) -> MissResolution:
        # Ideal shadow paging: keep the shadow table in sync for free,
        # then a one-dimensional walk resolves the translation.
        self.nested_walker.install_shadow_mapping(gva)
        walk = self.shadow_walker.walk(self.shadow_table, gva)
        return MissResolution(ServedBy.PAGE_WALK, walk.pte, walk.latency,
                              {"guest": walk.latency})


def _build_shadow(ctx: BuildContext) -> ShadowPagingBackend:
    return ShadowPagingBackend(ctx.walker, ctx.tlb_walker, ctx.tlb_table)


register_backend(BackendSpec(
    name="nested_paging", label="Nested Paging",
    summary="Two-dimensional guest+host walk on every L2 TLB miss.",
    build=_build_radix, virtualized=True))

register_backend(BackendSpec(
    name="ideal_shadow_paging", label="Ideal Shadow Paging",
    summary="One-dimensional shadow-table walk with free shadow maintenance.",
    build=_build_shadow, virtualized=True))

register_backend(BackendSpec(
    name="virt_pom_tlb", label="POM-TLB (virtualized)",
    summary="In-memory POM-TLB of combined translations over nested paging.",
    build=_build_pom_tlb, build_shared=_make_pom_tlb, virtualized=True))

register_backend(BackendSpec(
    name="virt_victima", label="Victima (virtualized)",
    summary="Combined-translation TLB blocks in the L2 cache over nested paging.",
    build=_build_victima, virtualized=True))
