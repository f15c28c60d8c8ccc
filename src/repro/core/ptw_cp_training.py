"""Dataset construction, training and evaluation for the PTW-CP study (Table 2).

The paper collects ten per-page features (Table 1), labels the top 30 % most
costly-to-translate pages as positives, and compares three MLP architectures
against a comparator that mimics the NN-2 decision region (Figure 16).

Two dataset sources feed it:

* :func:`repro.experiments.ptwcp.build_dataset_from_simulation` — runs short
  simulations of a few workloads on the baseline system and harvests the real
  PTE feature counters, labelling pages with :func:`label_by_cost` by the
  total cycles their walks consumed.  This is the faithful reproduction path
  used by the Table 2 benchmark.
* :func:`build_synthetic_dataset` — draws features from distributions shaped
  like the simulation output.  It is fast and fully deterministic, which makes
  it suitable for unit tests and quick demos.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.mlp import MLPClassifier
from repro.core.ptw_cp import ComparatorPTWCostPredictor, NeuralPTWCostPredictor
from repro.memory.page_table import FEATURE_NAMES

#: Column indices (into the Table-1 feature vector) used by each NN variant.
FEATURES_NN10 = tuple(range(10))
FEATURES_NN5 = (2, 1, 3, 8, 9)   # PTW cost, PTW frequency, PWC hits, L2 TLB evictions, accesses
FEATURES_NN2 = (1, 2)            # PTW frequency, PTW cost
#: Fraction of pages labelled costly-to-translate (the paper's "top 30%").
COSTLY_FRACTION = 0.30


@dataclass
class PTWCPDataset:
    """A labelled per-page feature dataset."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: Tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have the same number of rows")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} feature columns, got {self.features.shape[1]}"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def positive_fraction(self) -> float:
        return float(self.labels.mean()) if len(self) else 0.0

    def split(self, train_fraction: float = 0.7, seed: int = 0) -> Tuple["PTWCPDataset", "PTWCPDataset"]:
        """Deterministic train/test split."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        cut = int(len(self) * train_fraction)
        train_idx, test_idx = order[:cut], order[cut:]
        return (
            PTWCPDataset(self.features[train_idx], self.labels[train_idx], self.feature_names),
            PTWCPDataset(self.features[test_idx], self.labels[test_idx], self.feature_names),
        )


@dataclass
class ClassificationMetrics:
    """Accuracy / precision / recall / F1 — the four metrics of Table 2."""

    accuracy: float
    precision: float
    recall: float
    f1_score: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1_score": self.f1_score,
        }


@dataclass
class ModelComparisonRow:
    """One column of Table 2."""

    name: str
    num_features: int
    num_layers: Optional[int]
    size_bytes: int
    metrics: ClassificationMetrics

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "model": self.name,
            "features": self.num_features,
            "layers": self.num_layers if self.num_layers is not None else "N/A",
            "size_bytes": self.size_bytes,
        }
        row.update({k: round(v, 4) for k, v in self.metrics.as_dict().items()})
        return row


def evaluate_predictions(labels: np.ndarray, predictions: np.ndarray) -> ClassificationMetrics:
    """Compute the Table 2 metrics for binary predictions."""
    labels = np.asarray(labels).astype(int)
    predictions = np.asarray(predictions).astype(int)
    true_pos = int(np.sum((labels == 1) & (predictions == 1)))
    true_neg = int(np.sum((labels == 0) & (predictions == 0)))
    false_pos = int(np.sum((labels == 0) & (predictions == 1)))
    false_neg = int(np.sum((labels == 1) & (predictions == 0)))
    total = len(labels)
    accuracy = (true_pos + true_neg) / total if total else 0.0
    precision = true_pos / (true_pos + false_pos) if (true_pos + false_pos) else 0.0
    recall = true_pos / (true_pos + false_neg) if (true_pos + false_neg) else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
    return ClassificationMetrics(accuracy=accuracy, precision=precision, recall=recall, f1_score=f1)


def label_by_cost(costs: np.ndarray, costly_fraction: float = COSTLY_FRACTION) -> np.ndarray:
    """Label the top ``costly_fraction`` of pages (by cost) as positives."""
    costs = np.asarray(costs, dtype=float)
    if len(costs) == 0:
        return np.zeros(0, dtype=int)
    threshold = np.quantile(costs, 1.0 - costly_fraction)
    labels = (costs >= threshold).astype(int)
    # Guard against degenerate distributions where the quantile catches
    # (almost) everything: keep the positive fraction close to the target.
    if labels.mean() > min(0.95, costly_fraction * 2.5):
        order = np.argsort(costs)[::-1]
        labels = np.zeros_like(labels)
        labels[order[: max(1, int(len(costs) * costly_fraction))]] = 1
    return labels


# --------------------------------------------------------------------------- #
# Dataset sources
# --------------------------------------------------------------------------- #
def build_synthetic_dataset(num_pages: int = 4000, seed: int = 7,
                            costly_fraction: float = COSTLY_FRACTION) -> PTWCPDataset:
    """Generate a feature dataset shaped like the simulation output.

    Costly pages (frequent, DRAM-heavy walks) and cheap pages (rarely walked,
    PWC/cache-served walks) are drawn from different distributions, then the
    continuous "true cost" is thresholded at the top ``costly_fraction`` to
    produce labels — the same labelling rule as the simulation-driven dataset.
    """
    rng = np.random.default_rng(seed)
    hot = rng.random(num_pages) < 0.45

    ptw_frequency = np.where(hot, rng.integers(2, 8, num_pages), rng.integers(0, 3, num_pages))
    ptw_cost = np.where(hot, rng.integers(2, 16, num_pages), rng.integers(0, 3, num_pages))
    page_size = (rng.random(num_pages) < 0.3).astype(int)
    pwc_hits = np.where(hot, rng.integers(0, 10, num_pages), rng.integers(0, 32, num_pages))
    l1_misses = np.where(hot, rng.integers(8, 32, num_pages), rng.integers(0, 8, num_pages))
    l2_misses = np.where(hot, rng.integers(4, 32, num_pages), rng.integers(0, 4, num_pages))
    l2_cache_hits = rng.integers(0, 32, num_pages)
    l1_evictions = np.where(hot, rng.integers(4, 32, num_pages), rng.integers(0, 6, num_pages))
    l2_evictions = np.where(hot, rng.integers(2, 64, num_pages), rng.integers(0, 4, num_pages))
    accesses = np.where(hot, rng.integers(16, 64, num_pages), rng.integers(1, 16, num_pages))

    features = np.column_stack([
        page_size, ptw_frequency, ptw_cost, pwc_hits, l1_misses,
        l2_misses, l2_cache_hits, l1_evictions, l2_evictions, accesses,
    ]).astype(float)

    true_cost = (
        ptw_frequency * 40.0
        + ptw_cost * 60.0
        + l2_misses * 10.0
        + rng.normal(0.0, 25.0, num_pages)
    )
    labels = label_by_cost(true_cost, costly_fraction)
    return PTWCPDataset(features, labels)


# --------------------------------------------------------------------------- #
# Model zoo / Table 2
# --------------------------------------------------------------------------- #
def make_nn10(seed: int = 0) -> NeuralPTWCostPredictor:
    """NN-10: all ten features, 4 layers, hidden size 16."""
    model = MLPClassifier([10, 16, 16, 1], seed=seed)
    return NeuralPTWCostPredictor(model, FEATURES_NN10, name="NN-10")


def make_nn5(seed: int = 0) -> NeuralPTWCostPredictor:
    """NN-5: five features, 4 layers, hidden size 64."""
    model = MLPClassifier([5, 64, 64, 1], seed=seed)
    return NeuralPTWCostPredictor(model, FEATURES_NN5, name="NN-5")


def make_nn2(seed: int = 0) -> NeuralPTWCostPredictor:
    """NN-2: PTW frequency and cost only, 6 layers, hidden size 4."""
    model = MLPClassifier([2, 4, 4, 4, 4, 1], seed=seed)
    return NeuralPTWCostPredictor(model, FEATURES_NN2, name="NN-2")


def train_and_evaluate_models(dataset: PTWCPDataset, epochs: int = 60,
                              seed: int = 0) -> List[ModelComparisonRow]:
    """Train NN-10 / NN-5 / NN-2, fit the comparator, and evaluate all four.

    Returns one :class:`ModelComparisonRow` per model, in the Table 2 order.
    """
    train, test = dataset.split(train_fraction=0.7, seed=seed)
    rows: List[ModelComparisonRow] = []

    for factory, indices in ((make_nn10, FEATURES_NN10), (make_nn5, FEATURES_NN5),
                             (make_nn2, FEATURES_NN2)):
        predictor = factory(seed=seed)
        predictor.model.fit(train.features[:, list(indices)], train.labels,
                            epochs=epochs, seed=seed)
        predictions = predictor.predict_matrix(test.features)
        metrics = evaluate_predictions(test.labels, predictions)
        rows.append(ModelComparisonRow(
            name=predictor.name,
            num_features=len(indices),
            num_layers=predictor.model.num_layers,
            size_bytes=predictor.size_bytes,
            metrics=metrics,
        ))

    comparator = ComparatorPTWCostPredictor.fit(
        train.features[:, list(FEATURES_NN2)], train.labels)
    freq = test.features[:, FEATURES_NN2[0]]
    cost = test.features[:, FEATURES_NN2[1]]
    predictions = np.array([
        comparator.predict_from_counters(int(f), int(c)) for f, c in zip(freq, cost)
    ]).astype(int)
    metrics = evaluate_predictions(test.labels, predictions)
    rows.append(ModelComparisonRow(
        name="Comparator",
        num_features=2,
        num_layers=None,
        size_bytes=comparator.size_bytes,
        metrics=metrics,
    ))
    return rows


def decision_region(predictor, max_frequency: int = 15, max_cost: int = 15) -> np.ndarray:
    """Evaluate a 2-feature predictor over the full (frequency, cost) grid.

    Returns a ``(max_frequency + 1, max_cost + 1)`` boolean array — the data
    behind Figure 16's bounding-box plot.
    """
    grid = np.zeros((max_frequency + 1, max_cost + 1), dtype=bool)
    for frequency in range(max_frequency + 1):
        for cost in range(max_cost + 1):
            if isinstance(predictor, ComparatorPTWCostPredictor):
                grid[frequency, cost] = predictor.predict_from_counters(frequency, cost)
            else:
                vector = np.zeros((1, 10))
                vector[0, 1] = frequency
                vector[0, 2] = cost
                grid[frequency, cost] = bool(predictor.predict_matrix(vector)[0])
    return grid
