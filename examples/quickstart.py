#!/usr/bin/env python3
"""Quickstart: simulate one workload on the baseline and on Victima.

Runs the GUPS random-access workload (the paper's most TLB-hostile benchmark)
on the Radix baseline and on a Victima-enabled system, then prints the headline
translation metrics side by side.

Usage::

    python examples/quickstart.py [workload] [refs]

where ``workload`` is one of the 11 evaluated workloads (default ``rnd``) and
``refs`` is the number of memory references to simulate (default 20000).
"""

from __future__ import annotations

import sys

from repro import api
from repro.analysis.report import format_table
from repro.sim.presets import make_system_config

#: Machine scale-down factor; see ARCHITECTURE.md ("Scaled simulation").
HARDWARE_SCALE = 8


def run(system_name: str, workload: str, refs: int):
    return api.simulate({"system": system_name, "workload": workload,
                         "max_refs": refs, "hardware_scale": HARDWARE_SCALE,
                         "warmup_fraction": 0.3}, use_cache=False)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "rnd"
    refs = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    print(f"Simulating workload {workload!r} for {refs} memory references...")
    baseline = run("radix", workload, refs)
    victima = run("victima", workload, refs)

    rows = [
        ["cycles", round(baseline.cycles), round(victima.cycles)],
        ["speedup over Radix", 1.0, round(baseline.cycles / victima.cycles, 3)],
        ["L2 TLB MPKI", round(baseline.l2_tlb_mpki, 1), round(victima.l2_tlb_mpki, 1)],
        ["page-table walks", baseline.page_walks, victima.page_walks],
        ["mean L2 TLB miss latency (cycles)",
         round(baseline.l2_tlb_miss_latency_mean, 1),
         round(victima.l2_tlb_miss_latency_mean, 1)],
        ["translation cycles (% of total)",
         round(100 * baseline.translation_cycle_fraction, 1),
         round(100 * victima.translation_cycle_fraction, 1)],
    ]
    print()
    print(format_table(["metric", "Radix baseline", "Victima"], rows))

    stats = victima.victima_stats or {}
    print()
    print("Victima internals:")
    print(f"  TLB-block probe hit rate : {stats.get('probe_hit_rate', 0):.2%}")
    print(f"  TLB blocks inserted      : "
          f"{stats.get('insertions_on_miss', 0) + stats.get('insertions_on_eviction', 0)}")
    l2_tlb = make_system_config("radix", hardware_scale=HARDWARE_SCALE).mmu.l2_tlb
    scaled_l2_tlb_reach_mb = l2_tlb.entries * 4096 / (1 << 20)
    print(f"  translation reach        : "
          f"{victima.mean_translation_reach_bytes / (1 << 20):.1f} MB "
          f"(vs. the scaled L2 TLB's ~{scaled_l2_tlb_reach_mb:.2f} MB of 4KB reach)")


if __name__ == "__main__":
    main()
