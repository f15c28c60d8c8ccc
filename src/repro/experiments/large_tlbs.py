"""Large hardware TLB studies (Section 3.1): Figures 6, 7 and 8."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.cacti import tlb_access_latency
from repro.analysis.metrics import geometric_mean
from repro.experiments.engine import run_many
from repro.experiments.runner import (
    ExperimentSettings,
    FigureResult,
    run_matrix,
    scenario_for_run,
)
from repro.experiments.motivation import L2_TLB_SWEEP

#: The realistic-latency sweep of Figure 7.
REALISTIC_SWEEP = ("real_l2tlb_2k", "real_l2tlb_4k", "real_l2tlb_8k", "real_l2tlb_16k",
                   "real_l2tlb_32k", "real_l2tlb_64k")
#: L3 TLB access latencies swept by Figure 8 (cycles).
L3_TLB_LATENCIES = (15, 20, 25, 30, 35, 39)


def _speedup_figure(settings: ExperimentSettings, systems: Sequence[str],
                    experiment_id: str, title: str, headers: Sequence[str],
                    paper_gmean: dict, notes: str,
                    jobs: Optional[int] = None) -> FigureResult:
    matrix = run_matrix(("radix",) + tuple(systems), settings, jobs=jobs)
    rows = []
    speedups = {system: [] for system in systems}
    for workload in settings.workloads:
        baseline = matrix[workload]["radix"].cycles
        row = [workload]
        for system in systems:
            speedup = baseline / matrix[workload][system].cycles
            speedups[system].append(speedup)
            row.append(round(speedup, 3))
        rows.append(row)
    gmeans = {system: geometric_mean(speedups[system]) for system in systems}
    rows.append(["GMEAN"] + [round(gmeans[s], 3) for s in systems])
    measured = {key: round(gmeans[system], 3) for key, system in paper_gmean["_map"].items()}
    expectation = {k: v for k, v in paper_gmean.items() if k != "_map"}
    return FigureResult(experiment_id=experiment_id, title=title,
                        headers=list(headers), rows=rows,
                        paper_expectation=expectation, measured=measured, notes=notes)


def fig06_opt_l2tlb(settings: Optional[ExperimentSettings] = None,
                    jobs: Optional[int] = None) -> FigureResult:
    """Figure 6: speedup of larger L2 TLBs at a fixed (optimistic) 12-cycle latency."""
    settings = settings or ExperimentSettings()
    return _speedup_figure(
        settings, L2_TLB_SWEEP, jobs=jobs,
        experiment_id="Figure 6",
        title="Speedup of larger L2 TLBs @ optimistic 12-cycle latency (vs. Radix)",
        headers=["workload", "2K", "4K", "8K", "16K", "32K", "64K"],
        paper_gmean={"GMEAN speedup of optimistic 64K L2 TLB": 1.040,
                     "_map": {"GMEAN speedup of optimistic 64K L2 TLB": "opt_l2tlb_64k"}},
        notes="Speedup should grow monotonically with TLB size when latency is "
              "held constant.")


def fig07_realistic_l2tlb(settings: Optional[ExperimentSettings] = None,
                          jobs: Optional[int] = None) -> FigureResult:
    """Figure 7: speedup of larger L2 TLBs with CACTI-derived access latencies."""
    settings = settings or ExperimentSettings()
    headers = ["workload"] + [
        f"{name.split('_')[-1].upper()}-{tlb_access_latency(int(name.split('_')[-1][:-1]) * 1024)}cyc"
        for name in REALISTIC_SWEEP]
    return _speedup_figure(
        settings, REALISTIC_SWEEP, jobs=jobs,
        experiment_id="Figure 7",
        title="Speedup of larger L2 TLBs @ realistic (CACTI) latencies (vs. Radix)",
        headers=headers,
        paper_gmean={"GMEAN speedup of realistic 64K L2 TLB": 1.008,
                     "_map": {"GMEAN speedup of realistic 64K L2 TLB": "real_l2tlb_64k"}},
        notes="The realistic benefit must be clearly smaller than the optimistic "
              "benefit of Figure 6 (the added hit latency eats the gains).")


def fig08_l3tlb(settings: Optional[ExperimentSettings] = None,
                jobs: Optional[int] = None) -> FigureResult:
    """Figure 8: speedup of a 64K-entry L3 TLB with increasing access latencies."""
    settings = settings or ExperimentSettings()
    # The whole (workload x latency) sweep plus the baseline is one batch, so
    # a process pool overlaps every run; the cells are read in spec order.
    specs = [scenario_for_run("radix", workload, settings)
             for workload in settings.workloads]
    specs += [scenario_for_run("opt_l3tlb_64k", workload, settings,
                               system_label=f"Opt. L3 TLB 64K ({latency} cyc)",
                               l3_latency=latency)
              for workload in settings.workloads for latency in L3_TLB_LATENCIES]
    sweep = iter(run_many(specs, jobs=jobs))
    baselines = [next(sweep) for _ in settings.workloads]
    rows = []
    speedups = {latency: [] for latency in L3_TLB_LATENCIES}
    for workload, baseline in zip(settings.workloads, baselines):
        row = [workload]
        for latency in L3_TLB_LATENCIES:
            speedup = baseline.cycles / next(sweep).cycles
            speedups[latency].append(speedup)
            row.append(round(speedup, 3))
        rows.append(row)
    gmeans = {latency: geometric_mean(speedups[latency]) for latency in L3_TLB_LATENCIES}
    rows.append(["GMEAN"] + [round(gmeans[l], 3) for l in L3_TLB_LATENCIES])
    return FigureResult(
        experiment_id="Figure 8",
        title="Speedup of a 64K-entry L3 TLB at different access latencies (vs. Radix)",
        headers=["workload"] + [f"{latency} cyc" for latency in L3_TLB_LATENCIES],
        rows=rows,
        paper_expectation={"GMEAN speedup at 15-cycle L3 TLB": 1.029},
        measured={"GMEAN speedup at 15-cycle L3 TLB": round(gmeans[15], 3)},
        notes="Speedup should decrease as the L3 TLB latency grows, and the best "
              "case should stay below the optimistic large L2 TLB of Figure 6.")
