"""Native-execution evaluation (Sections 9.1-9.2): Figures 20, 21, 22, 23, 24."""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.metrics import arithmetic_mean, geometric_mean, percent_reduction
from repro.experiments.runner import ExperimentSettings, FigureResult, run_matrix
from repro.sim.presets import make_system_config

#: Column order and display names for the Figure 20 comparison.
NATIVE_SYSTEMS = ("pom_tlb", "opt_l3tlb_64k", "opt_l2tlb_64k", "opt_l2tlb_128k", "victima")
NATIVE_LABELS = {
    "pom_tlb": "POM-TLB 64K",
    "opt_l3tlb_64k": "Opt. L3 TLB 64K",
    "opt_l2tlb_64k": "Opt. L2 TLB 64K",
    "opt_l2tlb_128k": "Opt. L2 TLB 128K",
    "victima": "Victima",
}


def _native_matrix(settings: ExperimentSettings, jobs: Optional[int] = None):
    return run_matrix(("radix",) + NATIVE_SYSTEMS, settings, jobs=jobs)


def fig20_native_speedup(settings: Optional[ExperimentSettings] = None,
                         jobs: Optional[int] = None) -> FigureResult:
    """Figure 20: execution-time speedup of every native system over Radix."""
    settings = settings or ExperimentSettings()
    matrix = _native_matrix(settings, jobs)
    rows = []
    speedups: Dict[str, list] = {system: [] for system in NATIVE_SYSTEMS}
    for workload in settings.workloads:
        baseline = matrix[workload]["radix"].cycles
        row = [workload]
        for system in NATIVE_SYSTEMS:
            speedup = baseline / matrix[workload][system].cycles
            speedups[system].append(speedup)
            row.append(round(speedup, 3))
        rows.append(row)
    gmeans = {system: geometric_mean(speedups[system]) for system in NATIVE_SYSTEMS}
    rows.append(["GMEAN"] + [round(gmeans[s], 3) for s in NATIVE_SYSTEMS])
    return FigureResult(
        experiment_id="Figure 20",
        title="Native execution: speedup over the Radix baseline",
        headers=["workload"] + [NATIVE_LABELS[s] for s in NATIVE_SYSTEMS],
        rows=rows,
        paper_expectation={"Victima GMEAN speedup": 1.074,
                           "Victima vs POM-TLB (x)": 1.062,
                           "Victima vs Opt. L2 TLB 64K (x)": 1.033,
                           "Victima ~ Opt. L2 TLB 128K": "within ~1%"},
        measured={"Victima GMEAN speedup": round(gmeans["victima"], 3),
                  "Victima vs POM-TLB (x)": round(gmeans["victima"] / gmeans["pom_tlb"], 3),
                  "Victima vs Opt. L2 TLB 64K (x)": round(
                      gmeans["victima"] / gmeans["opt_l2tlb_64k"], 3),
                  "Victima ~ Opt. L2 TLB 128K": f"ratio {round(gmeans['victima'] / gmeans['opt_l2tlb_128k'], 3)}"},
        notes="Key shape: Victima > Opt. L2 TLB 64K > Opt. L3 TLB > POM-TLB, and "
              "Victima is comparable to the optimistic 128K-entry L2 TLB.",
    )


def fig21_ptw_reduction(settings: Optional[ExperimentSettings] = None,
                        jobs: Optional[int] = None) -> FigureResult:
    """Figure 21: reduction in page-table walks over Radix."""
    settings = settings or ExperimentSettings()
    matrix = _native_matrix(settings, jobs)
    systems = ("pom_tlb", "opt_l2tlb_64k", "opt_l2tlb_128k", "victima")
    rows = []
    reductions: Dict[str, list] = {system: [] for system in systems}
    for workload in settings.workloads:
        baseline = matrix[workload]["radix"].page_walks
        row = [workload]
        for system in systems:
            reduction = percent_reduction(baseline, matrix[workload][system].page_walks)
            reductions[system].append(reduction)
            row.append(round(reduction, 1))
        rows.append(row)
    means = {system: arithmetic_mean(reductions[system]) for system in systems}
    rows.append(["MEAN"] + [round(means[s], 1) for s in systems])
    return FigureResult(
        experiment_id="Figure 21",
        title="Reduction in PTWs over Radix (native execution)",
        headers=["workload", "POM-TLB", "Opt. L2 TLB 64K", "Opt. L2 TLB 128K", "Victima"],
        rows=rows,
        paper_expectation={"Victima mean PTW reduction (%)": 50,
                           "POM-TLB mean PTW reduction (%)": 37,
                           "Opt. L2 TLB 128K mean PTW reduction (%)": 48},
        measured={"Victima mean PTW reduction (%)": round(means["victima"], 1),
                  "POM-TLB mean PTW reduction (%)": round(means["pom_tlb"], 1),
                  "Opt. L2 TLB 128K mean PTW reduction (%)": round(means["opt_l2tlb_128k"], 1)},
        notes="Victima and the 128K-entry TLB should achieve comparable reductions.",
    )


def fig22_miss_latency(settings: Optional[ExperimentSettings] = None,
                       jobs: Optional[int] = None) -> FigureResult:
    """Figure 22: L2 TLB miss latency of POM-TLB and Victima normalised to Radix."""
    settings = settings or ExperimentSettings()
    matrix = _native_matrix(settings, jobs)
    rows = []
    normalized = {"pom_tlb": [], "victima": []}
    for workload in settings.workloads:
        base = matrix[workload]["radix"].l2_tlb_miss_latency_mean or 1.0
        row = [workload]
        for system in ("pom_tlb", "victima"):
            result = matrix[workload][system]
            norm = result.l2_tlb_miss_latency_mean / base
            normalized[system].append(norm)
            breakdown = result.miss_latency_breakdown
            total = sum(breakdown.values()) or 1
            walk_frac = breakdown.get("walk", 0) / total
            other_frac = (breakdown.get("stlb", 0) + breakdown.get("l2_cache", 0)) / total
            row.extend([round(norm, 3), round(100 * other_frac, 1), round(100 * walk_frac, 1)])
        rows.append(row)
    means = {s: arithmetic_mean(normalized[s]) for s in normalized}
    rows.append(["MEAN", round(means["pom_tlb"], 3), "", "", round(means["victima"], 3), "", ""])
    return FigureResult(
        experiment_id="Figure 22",
        title="L2 TLB miss latency normalised to Radix (native)",
        headers=["workload", "POM-TLB (norm.)", "POM-TLB: STLB/L2$ share (%)",
                 "POM-TLB: walk share (%)", "Victima (norm.)",
                 "Victima: STLB/L2$ share (%)", "Victima: walk share (%)"],
        rows=rows,
        paper_expectation={"Victima miss-latency reduction (%)": 22,
                           "POM-TLB miss-latency reduction (%)": 3},
        measured={"Victima miss-latency reduction (%)": round(100 * (1 - means["victima"]), 1),
                  "POM-TLB miss-latency reduction (%)": round(100 * (1 - means["pom_tlb"]), 1)},
        notes="Victima's reduction should be much larger than POM-TLB's, whose "
              "lookup latency nearly nullifies its PTW savings.",
    )


def fig23_reach(settings: Optional[ExperimentSettings] = None,
                jobs: Optional[int] = None) -> FigureResult:
    """Figure 23: translation reach provided by TLB blocks in the L2 cache."""
    settings = settings or ExperimentSettings()
    matrix = _native_matrix(settings, jobs)
    base_reach_mb = _baseline_tlb_reach_mb(settings)
    rows = []
    reach_values = []
    reach_4k_values = []
    for workload in settings.workloads:
        victima = matrix[workload]["victima"]
        reach_mb = victima.mean_translation_reach_bytes / (1 << 20)
        reach_4k_mb = victima.mean_translation_reach_bytes_4k / (1 << 20)
        reach_values.append(reach_mb)
        reach_4k_values.append(reach_4k_mb)
        rows.append([workload, round(reach_4k_mb, 1), round(reach_mb, 1),
                     round(base_reach_mb, 2)])
    mean_reach = arithmetic_mean(reach_values)
    mean_reach_4k = arithmetic_mean(reach_4k_values)
    mean_ratio = mean_reach_4k / base_reach_mb if base_reach_mb else 0.0
    rows.append(["MEAN", round(mean_reach_4k, 1), round(mean_reach, 1),
                 round(base_reach_mb, 2)])
    return FigureResult(
        experiment_id="Figure 23",
        title="Translation reach of TLB blocks stored in the L2 cache",
        headers=["workload", "Victima reach, 4KB-equivalent (MB)",
                 "Victima reach, actual page sizes (MB)", "L2 TLB max reach, 4KB (MB)"],
        rows=rows,
        paper_expectation={"mean Victima reach (MB)": 220,
                           "reach vs. L2 TLB (x)": 36},
        measured={"mean Victima reach (MB)": round(mean_reach, 1),
                  "reach vs. L2 TLB (x)": round(mean_ratio, 1)},
        notes="Reach is sampled every epoch during the measured window; the scaled "
              "system's absolute reach scales with the scaled L2 cache capacity.",
    )


def _baseline_tlb_reach_mb(settings: ExperimentSettings) -> float:
    """Maximum reach of the (scaled) baseline L2 TLB assuming 4 KB pages."""
    l2_tlb = make_system_config("radix", hardware_scale=settings.hardware_scale).mmu.l2_tlb
    return l2_tlb.entries * 4096 / (1 << 20)


def fig24_tlb_block_reuse(settings: Optional[ExperimentSettings] = None,
                          jobs: Optional[int] = None) -> FigureResult:
    """Figure 24: reuse-level distribution of TLB blocks in the L2 cache."""
    settings = settings or ExperimentSettings()
    matrix = _native_matrix(settings, jobs)
    buckets_order = ("0", "1-5", "5-10", "10-20", ">20")
    rows = []
    high_reuse = []
    reuse_per_block = []
    for workload in settings.workloads:
        victima = matrix[workload]["victima"]
        buckets = victima.tlb_block_reuse_buckets
        high_reuse.append(buckets["10-20"] + buckets[">20"])
        stats = victima.victima_stats or {}
        inserted = (stats.get("insertions_on_miss", 0)
                    + stats.get("insertions_on_eviction", 0)) or 1
        reuse_per_block.append(stats.get("block_hits", 0) / inserted)
        rows.append([workload] + [round(100 * buckets[b], 1) for b in buckets_order])
    mean_high = 100 * arithmetic_mean(high_reuse)
    mean_reuse_per_block = arithmetic_mean(reuse_per_block)
    rows.append(["MEAN"] + ["" for _ in buckets_order])
    return FigureResult(
        experiment_id="Figure 24",
        title="Reuse-level distribution of TLB blocks in the L2 cache (Victima)",
        headers=["workload", "reuse 0 (%)", "1-5 (%)", "5-10 (%)", "10-20 (%)", ">20 (%)"],
        rows=rows,
        paper_expectation={"fraction of TLB blocks with reuse > 20 (%)": 65,
                           "contrast": "TLB blocks show far higher reuse than data blocks (Fig. 11)"},
        measured={"fraction of TLB blocks with reuse >= 10 (%)": round(mean_high, 1),
                  "mean hits per inserted TLB block": round(mean_reuse_per_block, 1)},
        notes="TLB blocks must show dramatically higher reuse than the ~92% "
              "zero-reuse data blocks of Figure 11.",
    )
