#!/usr/bin/env python3
"""Domain example: TLB maintenance (context switches and shootdowns) with Victima.

Section 6 of the paper describes how Victima keeps the TLB blocks in the L2
cache coherent with the rest of the TLB hierarchy.  This example runs a short
Victima simulation, then exercises the maintenance operations — a single-page
shootdown after an ``unmap``, an ASID-selective flush on a context switch, and
a full flush — and reports what got invalidated and the estimated cost.

Usage::

    python examples/tlb_shootdown_study.py
"""

from __future__ import annotations

from repro import api
from repro.analysis.report import format_table


def main() -> None:
    # Built, not simulated through api.simulate: the study needs the machine.
    simulator = api.build_simulator({"system": "victima", "hardware_scale": 8,
                                     "workload": "gen", "max_refs": 8_000,
                                     "warmup_fraction": 0.0})
    simulator.run()
    system = simulator.system
    core = system.cores[0]
    victima = core.victima
    maintenance = core.maintenance

    resident_before = len(victima.resident_tlb_blocks())
    print(f"After the run, {resident_before} TLB blocks are resident in the L2 cache, "
          f"covering {victima.translation_reach_bytes() / (1 << 20):.1f} MB.\n")

    # 1. A single-page shootdown (e.g. after munmap of one page).
    entry = next(pte for block in victima.resident_tlb_blocks()
                 for pte in (block.payload or []) if pte is not None)
    vaddr = entry.vpn << entry.page_size.offset_bits
    system.memory_manager.unmap(vaddr)
    shootdown = maintenance.shootdown_page(vaddr, asid=0)

    # 2. A context switch that only flushes the outgoing ASID.
    context_switch = maintenance.context_switch(outgoing_asid=0)

    # 3. A full flush (the OS ran out of ASIDs).
    # Re-run a little work first so there is state to flush again.
    simulator.core_workloads[0].config.max_refs = 1_000
    simulator.run()
    full_flush = maintenance.flush_all()

    rows = [
        [result.operation, result.tlb_entries_invalidated,
         result.cache_blocks_invalidated, result.cycles]
        for result in (shootdown, context_switch, full_flush)
    ]
    print(format_table(
        ["operation", "TLB entries invalidated", "L2-cache TLB blocks invalidated",
         "estimated cycles"],
        rows, title="TLB maintenance with Victima"))
    print("\nNote: invalidating a single translation removes the whole 8-entry "
          "TLB block containing it, and a full flush sweeps the L2 cache in "
          "parallel with the (much slower) software side of the context switch.")


if __name__ == "__main__":
    main()
