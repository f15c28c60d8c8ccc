"""PTW cost predictor study (Section 5.2): Table 2 and Figure 16."""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import numpy as np

from repro import api
from repro.core.ptw_cp import ComparatorPTWCostPredictor
from repro.core.ptw_cp_training import (
    COSTLY_FRACTION,
    FEATURES_NN2,
    PTWCPDataset,
    build_synthetic_dataset,
    decision_region,
    label_by_cost,
    train_and_evaluate_models,
)
from repro.experiments.runner import ExperimentSettings, FigureResult


def build_dataset_from_simulation(workloads: Sequence[str] = ("rnd", "bfs", "xs"),
                                  max_refs: int = 15_000, seed: int = 1,
                                  costly_fraction: float = COSTLY_FRACTION) -> PTWCPDataset:
    """Harvest PTE feature counters from short baseline simulations.

    Each listed workload is run on the Radix baseline for ``max_refs`` memory
    references; every touched page contributes one row whose label says whether
    its total PTW cycles put it in the top ``costly_fraction``.
    """
    rows: List[List[float]] = []
    costs: List[float] = []
    for workload in workloads:
        simulator = api.build_simulator({"system": "radix", "workload": workload,
                                         "max_refs": max_refs, "seed": seed})
        simulator.run()
        for _, _, pte in simulator.system.page_table.leaves():
            # Only pages that were actually touched during the window carry a
            # meaningful label; the pre-faulted-but-untouched majority would
            # otherwise swamp the dataset with all-zero rows.  An untouched
            # page may have no entry (a packed leaf) or no features yet.
            features = None if pte is None else pte.counted_features()
            if features is None or features.accesses == 0:
                continue
            rows.append([float(v) for v in features.as_vector()])
            costs.append(float(pte.total_ptw_cycles))
    features = np.asarray(rows, dtype=float)
    labels = label_by_cost(np.asarray(costs), costly_fraction)
    return PTWCPDataset(features, labels)


def _build_dataset(settings: ExperimentSettings, use_simulation: bool) -> PTWCPDataset:
    if use_simulation:
        workloads = tuple(settings.workloads[:3]) or ("rnd", "bfs", "xs")
        return build_dataset_from_simulation(
            workloads=workloads,
            max_refs=max(5_000, settings.max_refs // 2),
            seed=settings.seed,
        )
    return build_synthetic_dataset(num_pages=6_000, seed=settings.seed)


def table2_ptwcp(settings: Optional[ExperimentSettings] = None,
                 use_simulation: Optional[bool] = None,
                 epochs: int = 40) -> FigureResult:
    """Table 2: NN-10 / NN-5 / NN-2 / comparator accuracy, precision, recall, F1.

    ``use_simulation`` selects the dataset source: per-page feature counters
    harvested from baseline simulations (the faithful path, default) or the
    fast synthetic dataset (set ``REPRO_PTWCP_SYNTHETIC=1`` or pass False...True
    explicitly for quick runs).
    """
    settings = settings or ExperimentSettings()
    if use_simulation is None:
        use_simulation = not bool(os.environ.get("REPRO_PTWCP_SYNTHETIC"))
    dataset = _build_dataset(settings, use_simulation)
    rows_data = train_and_evaluate_models(dataset, epochs=epochs, seed=settings.seed)
    rows = []
    measured = {}
    for row in rows_data:
        rows.append([row.name, row.num_features,
                     row.num_layers if row.num_layers is not None else "N/A",
                     row.size_bytes,
                     round(row.metrics.recall, 3), round(row.metrics.accuracy, 3),
                     round(row.metrics.precision, 3), round(row.metrics.f1_score, 3)])
        if row.name == "Comparator":
            measured = {
                "comparator recall": round(row.metrics.recall, 3),
                "comparator accuracy": round(row.metrics.accuracy, 3),
                "comparator precision": round(row.metrics.precision, 3),
                "comparator F1": round(row.metrics.f1_score, 3),
                "comparator size (bytes)": row.size_bytes,
            }
    return FigureResult(
        experiment_id="Table 2",
        title="PTW cost predictor models: accuracy / precision / recall / F1",
        headers=["model", "features", "layers", "size (B)", "recall", "accuracy",
                 "precision", "F1"],
        rows=rows,
        paper_expectation={"comparator recall": 0.896, "comparator accuracy": 0.829,
                           "comparator precision": 0.733, "comparator F1": 0.807,
                           "comparator size (bytes)": 24},
        measured=measured,
        notes=("Dataset labelled with the top-30%% most costly-to-translate pages; "
               f"source = {'simulation counters' if use_simulation else 'synthetic'}."),
    )


def fig16_decision_region(settings: Optional[ExperimentSettings] = None,
                          use_simulation: Optional[bool] = None) -> FigureResult:
    """Figure 16: the comparator's decision region over (PTW frequency, PTW cost)."""
    settings = settings or ExperimentSettings()
    if use_simulation is None:
        use_simulation = not bool(os.environ.get("REPRO_PTWCP_SYNTHETIC"))
    dataset = _build_dataset(settings, use_simulation)
    train, _ = dataset.split(train_fraction=0.7, seed=settings.seed)
    comparator = ComparatorPTWCostPredictor.fit(train.features[:, list(FEATURES_NN2)],
                                                train.labels)
    grid = decision_region(comparator, max_frequency=7, max_cost=15)
    rows = []
    for frequency in range(grid.shape[0]):
        rows.append([frequency] + ["costly" if grid[frequency, cost] else "-"
                                   for cost in range(grid.shape[1])])
    box = comparator.box
    return FigureResult(
        experiment_id="Figure 16",
        title="Comparator decision region (rows = PTW frequency, columns = PTW cost)",
        headers=["freq \\ cost"] + [str(c) for c in range(grid.shape[1])],
        rows=rows,
        paper_expectation={"decision boundary": "pages with both counters >= 1 are costly"},
        measured={"decision boundary":
                  f"freq >= {box.min_frequency} and cost >= {box.min_cost}"},
        notes="The fitted comparator box should separate frequently, expensively "
              "walked pages (inside) from the rest (outside).",
    )
