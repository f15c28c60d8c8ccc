#!/usr/bin/env python3
"""Domain example: how much does address translation cost graph analytics?

The paper's motivation (Section 3) is built on data-intensive workloads such as
GraphBIG kernels whose irregular accesses defeat the TLB hierarchy.  This
example runs the seven graph kernels on the baseline system, reports how much
of their execution time goes to address translation, and then shows what
Victima and a (realistically slow) 64K-entry L2 TLB would each recover.

Usage::

    python examples/graph_analytics_study.py [refs_per_kernel]
"""

from __future__ import annotations

import sys

from repro import api
from repro.analysis.metrics import geometric_mean
from repro.analysis.report import format_table

GRAPH_KERNELS = ("bc", "bfs", "cc", "gc", "pr", "sssp", "tc")
SYSTEMS = ("radix", "real_l2tlb_64k", "victima")
HARDWARE_SCALE = 8


def run(system_name: str, workload: str, refs: int):
    return api.simulate({"system": system_name, "workload": workload,
                         "max_refs": refs, "hardware_scale": HARDWARE_SCALE,
                         "warmup_fraction": 0.3}, use_cache=False)


def main() -> None:
    refs = int(sys.argv[1]) if len(sys.argv) > 1 else 15_000
    rows = []
    speedups = {system: [] for system in SYSTEMS[1:]}
    for kernel in GRAPH_KERNELS:
        results = {system: run(system, kernel, refs) for system in SYSTEMS}
        baseline = results["radix"]
        row = [
            kernel,
            round(baseline.l2_tlb_mpki, 1),
            f"{100 * baseline.translation_cycle_fraction:.1f}%",
        ]
        for system in SYSTEMS[1:]:
            speedup = baseline.cycles / results[system].cycles
            speedups[system].append(speedup)
            row.append(round(speedup, 3))
        rows.append(row)
    rows.append(["GMEAN", "", ""] + [round(geometric_mean(speedups[s]), 3)
                                     for s in SYSTEMS[1:]])
    print(format_table(
        ["kernel", "L2 TLB MPKI", "cycles in translation",
         "speedup: realistic 64K L2 TLB", "speedup: Victima"],
        rows,
        title="Address translation in graph analytics (scaled machine)"))
    print("\nTakeaway: the graph kernels spend a large share of their time in "
          "translation, a realistically slow large TLB recovers little of it, "
          "and Victima recovers most of it with no SRAM added.")


if __name__ == "__main__":
    main()
