#!/usr/bin/env python3
"""Domain example: recommendation-model inference inside a virtual machine.

DLRM-style sparse embedding lookups are both TLB-hostile and commonly deployed
in virtualized clouds, where nested paging makes every L2 TLB miss an order of
magnitude more expensive (up to 24 memory accesses).  This example compares the
four virtualized systems the paper evaluates — nested paging, POM-TLB, ideal
shadow paging and Victima — on the DLRM and GUPS workloads and reports where
the translation cycles go.

Usage::

    python examples/virtualized_inference.py [refs]
"""

from __future__ import annotations

import sys

from repro import api
from repro.analysis.report import format_table

WORKLOADS = ("dlrm", "rnd")
SYSTEMS = ("nested_paging", "virt_pom_tlb", "ideal_shadow", "virt_victima")
LABELS = {
    "nested_paging": "Nested Paging",
    "virt_pom_tlb": "POM-TLB",
    "ideal_shadow": "Ideal Shadow Paging",
    "virt_victima": "Victima",
}
HARDWARE_SCALE = 8


def run(system_name: str, workload: str, refs: int):
    return api.simulate({"system": system_name, "workload": workload,
                         "max_refs": refs, "hardware_scale": HARDWARE_SCALE,
                         "warmup_fraction": 0.3}, use_cache=False)


def main() -> None:
    refs = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000
    for workload in WORKLOADS:
        results = {system: run(system, workload, refs) for system in SYSTEMS}
        baseline = results["nested_paging"]
        rows = []
        for system in SYSTEMS:
            result = results[system]
            breakdown = result.miss_latency_breakdown
            total = sum(breakdown.values()) or 1
            rows.append([
                LABELS[system],
                round(baseline.cycles / result.cycles, 3),
                result.page_walks,
                result.host_page_walks,
                round(result.l2_tlb_miss_latency_mean, 1),
                f"{100 * breakdown.get('host', 0) / total:.0f}%",
            ])
        print(format_table(
            ["system", "speedup over NP", "guest walks", "host walks",
             "mean miss latency (cycles)", "host share of miss latency"],
            rows,
            title=f"Virtualized execution of {workload.upper()} (scaled machine)"))
        print()
    print("Takeaway: in a VM the host dimension dominates translation cost; "
          "Victima's nested TLB blocks remove nearly all host walks and its "
          "conventional TLB blocks remove most guest walks, which is why its "
          "virtualized gains exceed its native gains.")


if __name__ == "__main__":
    main()
