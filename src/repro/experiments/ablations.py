"""Victima sensitivity studies (Section 9.2): Figures 25 and 26."""

from __future__ import annotations

from typing import Optional

from repro.analysis.metrics import arithmetic_mean, geometric_mean, percent_reduction
from repro.experiments.engine import RunSpec, run_many
from repro.experiments.runner import ExperimentSettings, FigureResult, run_matrix, run_one

#: L2 cache sizes swept by Figure 25 (bytes, before hardware scaling).
L2_CACHE_SIZES = (1 * 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024, 8 * 1024 * 1024)


def fig25_cache_size_sweep(settings: Optional[ExperimentSettings] = None,
                           jobs: Optional[int] = None) -> FigureResult:
    """Figure 25: Victima's PTW reduction across L2 cache sizes (1-8 MB)."""
    settings = settings or ExperimentSettings()
    # Dispatch the whole (workload x cache size) sweep in one batch; the loops
    # below are then served from the in-process cache.
    specs = [RunSpec.make("radix", workload) for workload in settings.workloads]
    specs += [RunSpec.make("victima", workload,
                           system_label=f"Victima (L2 {size >> 20}MB)",
                           l2_cache_bytes=size)
              for workload in settings.workloads for size in L2_CACHE_SIZES]
    run_many(specs, settings, jobs=jobs)
    rows = []
    means = {size: [] for size in L2_CACHE_SIZES}
    for workload in settings.workloads:
        baseline = run_one("radix", workload, settings)
        row = [workload]
        for size in L2_CACHE_SIZES:
            label = f"Victima (L2 {size >> 20}MB)"
            result = run_one("victima", workload, settings, l2_cache_bytes=size,
                             system_label=label)
            reduction = percent_reduction(baseline.page_walks, result.page_walks)
            means[size].append(reduction)
            row.append(round(reduction, 1))
        rows.append(row)
    mean_by_size = {size: arithmetic_mean(means[size]) for size in L2_CACHE_SIZES}
    rows.append(["MEAN"] + [round(mean_by_size[s], 1) for s in L2_CACHE_SIZES])
    return FigureResult(
        experiment_id="Figure 25",
        title="Victima's reduction in PTWs across L2 cache sizes",
        headers=["workload"] + [f"{size >> 20}MB" for size in L2_CACHE_SIZES],
        rows=rows,
        paper_expectation={"mean PTW reduction at 8MB (%)": 63,
                           "trend": "reduction grows with L2 cache size"},
        measured={"mean PTW reduction at 8MB (%)": round(mean_by_size[L2_CACHE_SIZES[-1]], 1),
                  "trend": ("monotonic" if all(
                      mean_by_size[a] <= mean_by_size[b] + 1.0
                      for a, b in zip(L2_CACHE_SIZES, L2_CACHE_SIZES[1:])) else "non-monotonic")},
        notes="A larger L2 cache stores more TLB blocks, increasing reach.  Cache "
              "sizes are divided by the hardware scale factor like the rest of the machine.",
    )


def fig26_replacement_ablation(settings: Optional[ExperimentSettings] = None,
                               jobs: Optional[int] = None) -> FigureResult:
    """Figure 26: Victima with TLB-aware SRRIP vs. Victima with TLB-agnostic SRRIP."""
    settings = settings or ExperimentSettings()
    matrix = run_matrix(("victima", "victima_srrip"), settings, jobs=jobs)
    rows = []
    speedups = []
    for workload in settings.workloads:
        aware = matrix[workload]["victima"].cycles
        agnostic = matrix[workload]["victima_srrip"].cycles
        speedup = agnostic / aware
        speedups.append(speedup)
        rows.append([workload, round(speedup, 3)])
    gmean = geometric_mean(speedups)
    rows.append(["GMEAN", round(gmean, 3)])
    return FigureResult(
        experiment_id="Figure 26",
        title="Victima with TLB-aware SRRIP vs. Victima with TLB-agnostic SRRIP",
        headers=["workload", "speedup of TLB-aware over TLB-agnostic"],
        rows=rows,
        paper_expectation={"GMEAN benefit of TLB-aware SRRIP (%)": 1.8},
        measured={"GMEAN benefit of TLB-aware SRRIP (%)": round(100 * (gmean - 1), 1)},
        notes="Victima should work with both policies; the TLB-aware policy gives "
              "a small additional benefit.",
    )
