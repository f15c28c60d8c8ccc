"""TLB maintenance operations: context switches and TLB shootdowns (Section 6).

With Victima, any invalidation that touches the TLB hierarchy must also
invalidate the matching TLB blocks inside the L2 cache.  This module bundles
the hardware TLBs, the page-walk caches and (optionally) the Victima controller
behind one interface and reports both what was invalidated and a latency
estimate, following the paper's cost discussion:

* Invalidating all TLB blocks of a 2 MB L2 cache takes on the order of 100 ns
  (≈260 cycles at 2.6 GHz), performed in parallel with the (much slower)
  context-switch or shootdown software path.
* A single-page shootdown invalidates the whole 8-entry TLB block containing
  that page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mmu.pwc import PageWalkCaches
from repro.mmu.tlb import TLB

#: Cycles to sweep every L2 cache set in parallel across banks (≈100 ns @ 2.6 GHz).
FULL_CACHE_SWEEP_CYCLES = 260
#: Cycles to invalidate a single TLB block in the L2 cache (one indexed probe).
SINGLE_BLOCK_INVALIDATION_CYCLES = 16
#: Cycles for an inter-processor interrupt during a shootdown (order of µs).
SHOOTDOWN_IPI_CYCLES = 4000


@dataclass
class MaintenanceResult:
    """Outcome of one maintenance operation."""

    operation: str
    tlb_entries_invalidated: int
    cache_blocks_invalidated: int
    cycles: int


class TLBMaintenance:
    """Coordinates invalidations across TLBs, PWCs and the translation backend.

    ``backend`` (a :class:`~repro.backends.base.TranslationBackend`) wires
    whatever invalidatable state it declares: a Victima backend contributes
    its controller (and its cost model), backends whose structures are
    already in ``tlbs`` (the L3 TLB) or hold no invalidatable state
    contribute nothing extra, and memory-resident backends (the hashed page
    table) have their generic ``invalidate_*`` hooks called on every
    operation.
    """

    def __init__(self, tlbs: List[TLB], pwcs: Optional[PageWalkCaches] = None,
                 backend=None):
        self.tlbs = tlbs
        self.pwcs = pwcs
        self.backend = backend
        self.victima = backend.victima if backend is not None else None
        # Backends whose structures are not the Victima controller and not a
        # TLB already swept via ``tlbs`` get their own invalidation hooks.
        self._backend_invalidates = (backend is not None
                                     and backend.victima is None
                                     and backend.l3_tlb is None)

    # ------------------------------------------------------------------ #
    # Context switches (Section 6.1)
    # ------------------------------------------------------------------ #
    def context_switch(self, outgoing_asid: int, full_flush: bool = False) -> MaintenanceResult:
        """Flush state for a context switch.

        ``full_flush=True`` models an OS that flushes the whole TLB hierarchy
        (e.g. when it runs out of ASIDs); otherwise only the outgoing ASID's
        entries are invalidated.
        """
        entries = 0
        blocks = 0
        if full_flush:
            for tlb in self.tlbs:
                entries += tlb.invalidate_all()
            if self.pwcs is not None:
                self.pwcs.invalidate_all()
            if self.victima is not None:
                blocks = self.victima.invalidate_all()
        else:
            for tlb in self.tlbs:
                entries += tlb.invalidate_asid(outgoing_asid)
            if self.victima is not None:
                blocks = self.victima.invalidate_asid(outgoing_asid)
        if self._backend_invalidates:
            if full_flush:
                entries += self.backend.invalidate_all()
            else:
                entries += self.backend.invalidate_asid(outgoing_asid)
        cycles = FULL_CACHE_SWEEP_CYCLES if self.victima is not None else 0
        return MaintenanceResult("context_switch", entries, blocks, cycles)

    # ------------------------------------------------------------------ #
    # Shootdowns (Section 6.2)
    # ------------------------------------------------------------------ #
    def shootdown_page(self, vaddr: int, asid: int) -> MaintenanceResult:
        """Invalidate one page's translation everywhere (a single-page shootdown)."""
        entries = sum(tlb.invalidate_page(vaddr, asid) for tlb in self.tlbs)
        blocks = 0
        cycles = SHOOTDOWN_IPI_CYCLES
        if self.victima is not None:
            blocks = self.victima.invalidate_page(vaddr, asid)
            cycles += SINGLE_BLOCK_INVALIDATION_CYCLES
        if self._backend_invalidates:
            entries += self.backend.invalidate_page(vaddr, asid)
        return MaintenanceResult("shootdown_page", entries, blocks, cycles)

    def shootdown_range(self, start_vaddr: int, size_bytes: int, asid: int,
                        page_size_bytes: int = 4096) -> MaintenanceResult:
        """Invalidate a virtual address range (e.g. after ``munmap``)."""
        entries = 0
        blocks = 0
        cycles = SHOOTDOWN_IPI_CYCLES
        vaddr = start_vaddr
        end = start_vaddr + size_bytes
        while vaddr < end:
            entries += sum(tlb.invalidate_page(vaddr, asid) for tlb in self.tlbs)
            if self.victima is not None:
                blocks += self.victima.invalidate_page(vaddr, asid)
                cycles += SINGLE_BLOCK_INVALIDATION_CYCLES
            if self._backend_invalidates:
                entries += self.backend.invalidate_page(vaddr, asid)
            vaddr += page_size_bytes
        return MaintenanceResult("shootdown_range", entries, blocks, cycles)

    def flush_all(self) -> MaintenanceResult:
        """Invalidate the entire translation state (all TLBs, PWCs, TLB blocks)."""
        entries = sum(tlb.invalidate_all() for tlb in self.tlbs)
        if self.pwcs is not None:
            self.pwcs.invalidate_all()
        blocks = self.victima.invalidate_all() if self.victima is not None else 0
        if self._backend_invalidates:
            entries += self.backend.invalidate_all()
        return MaintenanceResult("flush_all", entries, blocks, FULL_CACHE_SWEEP_CYCLES)
