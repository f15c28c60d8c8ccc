"""Experiment runners: one function per paper table/figure.

Each ``figNN_*`` / ``table2_*`` function runs the simulations it needs (re-using
cached results where experiments share runs), and returns a
:class:`repro.experiments.runner.FigureResult` whose rows mirror the series the
paper plots.  The benchmark harness under ``benchmarks/`` calls these functions
and prints their tables; ``examples/reproduce_paper.py`` assembles them into
EXPERIMENTS.md.

Modules
-------
* :mod:`repro.experiments.engine` — :func:`run_many`, the one way a batch of
  runs executes (in-process, or on a shared process pool).
* :mod:`repro.experiments.runner` — settings, caching and the shared run matrix.
* :mod:`repro.experiments.motivation` — Figures 4, 5, 9, 10, 11 (Section 3).
* :mod:`repro.experiments.large_tlbs` — Figures 6, 7, 8 (Section 3.1).
* :mod:`repro.experiments.ptwcp` — Table 2 and Figure 16 (Section 5.2).
* :mod:`repro.experiments.native` — Figures 20-24 (Section 9.1-9.2).
* :mod:`repro.experiments.ablations` — Figures 25, 26 (Section 9.2).
* :mod:`repro.experiments.virtualized` — Figures 27-29 (Section 9.3).
* :mod:`repro.experiments.overheads` — Section 7 (area and power).
"""

from repro.experiments.engine import resolve_jobs, run_many
from repro.experiments.runner import ExperimentSettings, FigureResult, clear_cache
from repro.experiments.motivation import (
    fig04_ptw_latency,
    fig05_tlb_mpki,
    fig09_stlb_latency,
    fig10_tlb_hit_level,
    fig11_cache_reuse,
)
from repro.experiments.large_tlbs import (
    fig06_opt_l2tlb,
    fig07_realistic_l2tlb,
    fig08_l3tlb,
)
from repro.experiments.ptwcp import fig16_decision_region, table2_ptwcp
from repro.experiments.native import (
    fig20_native_speedup,
    fig21_ptw_reduction,
    fig22_miss_latency,
    fig23_reach,
    fig24_tlb_block_reuse,
)
from repro.experiments.ablations import fig25_cache_size_sweep, fig26_replacement_ablation
from repro.experiments.virtualized import (
    fig27_virt_speedup,
    fig28_virt_ptw_reduction,
    fig29_virt_miss_latency,
)
from repro.experiments.overheads import sec7_overheads

ALL_EXPERIMENTS = {
    "fig04": fig04_ptw_latency,
    "fig05": fig05_tlb_mpki,
    "fig06": fig06_opt_l2tlb,
    "fig07": fig07_realistic_l2tlb,
    "fig08": fig08_l3tlb,
    "fig09": fig09_stlb_latency,
    "fig10": fig10_tlb_hit_level,
    "fig11": fig11_cache_reuse,
    "table2": table2_ptwcp,
    "fig16": fig16_decision_region,
    "fig20": fig20_native_speedup,
    "fig21": fig21_ptw_reduction,
    "fig22": fig22_miss_latency,
    "fig23": fig23_reach,
    "fig24": fig24_tlb_block_reuse,
    "fig25": fig25_cache_size_sweep,
    "fig26": fig26_replacement_ablation,
    "fig27": fig27_virt_speedup,
    "fig28": fig28_virt_ptw_reduction,
    "fig29": fig29_virt_miss_latency,
    "sec7": sec7_overheads,
}

__all__ = [
    "ExperimentSettings",
    "FigureResult",
    "clear_cache",
    "ALL_EXPERIMENTS",
    "resolve_jobs",
    "run_many",
    *[name for name in dir() if name.startswith(("fig", "table2", "sec7"))],
]
