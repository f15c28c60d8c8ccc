"""Page-table-walk cost predictors (PTW-CP).

Victima consults a predictor on every L2 TLB miss or eviction to decide whether
the page is likely to be among the most costly-to-translate pages in the future
and therefore deserves L2 cache space for its TLB block (Section 5.2).

Two families are implemented:

* :class:`ComparatorPTWCostPredictor` — the design Victima actually uses: four
  comparators checking that the PTE's PTW-frequency and PTW-cost counters fall
  inside a bounding box (Figure 16).  24 bytes of state, single-cycle.
* :class:`NeuralPTWCostPredictor` — a wrapper around the NumPy MLPs used in the
  feature-selection study of Table 2 (NN-10, NN-5, NN-2).  These exist to
  reproduce the study, not to run inside the simulated MMU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.memory.page_table import PageTableEntry
from repro.core.mlp import MLPClassifier


class PTWCostPredictor:
    """Interface: decide whether a page is costly-to-translate."""

    name = "base"

    def predict(self, pte: PageTableEntry) -> bool:
        raise NotImplementedError

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class BoundingBox:
    """The comparator thresholds: a rectangle in (PTW frequency, PTW cost) space.

    A page is predicted costly-to-translate when both counters fall inside the
    (inclusive) box.  The paper's Figure 16 draws the box from (1, 1) to
    (12, 7); because the counters saturate (3-bit frequency, 4-bit cost in
    Table 1) the practically relevant corners are the lower ones — any page
    that has walked at least ``min_frequency`` times with at least ``min_cost``
    DRAM-touching walks is classified costly.
    """

    min_frequency: int = 1
    min_cost: int = 1
    max_frequency: int = 15
    max_cost: int = 15

    def contains(self, frequency: int, cost: int) -> bool:
        return (self.min_frequency <= frequency <= self.max_frequency
                and self.min_cost <= cost <= self.max_cost)


class ComparatorPTWCostPredictor(PTWCostPredictor):
    """The comparator-based PTW-CP used by Victima.

    Hardware cost (Section 7): four comparators and four threshold registers,
    24 bytes of storage, one-cycle prediction.
    """

    name = "comparator"

    def __init__(self, box: Optional[BoundingBox] = None):
        self.box = box or BoundingBox()

    def predict(self, pte: PageTableEntry) -> bool:
        return self.box.contains(pte.ptw_frequency, pte.ptw_cost)

    def predict_from_counters(self, frequency: int, cost: int) -> bool:
        """Classify a raw (frequency, cost) pair — used by Figure 16."""
        return self.box.contains(frequency, cost)

    @property
    def size_bytes(self) -> int:
        # Four threshold registers plus four comparators' latches; the paper
        # reports 24 bytes total for the comparator-based model.
        return 24

    @classmethod
    def fit(cls, features: np.ndarray, labels: np.ndarray,
            frequency_column: int = 0, cost_column: int = 1) -> "ComparatorPTWCostPredictor":
        """Fit the bounding box to a labelled dataset by a small grid search.

        The search maximises F1 over lower-corner candidates, mimicking how the
        paper derived the comparator thresholds from the NN-2 decision region.
        """
        features = np.asarray(features)
        labels = np.asarray(labels).astype(int)
        freq = features[:, frequency_column]
        cost = features[:, cost_column]
        best_box = BoundingBox()
        best_f1 = -1.0
        for min_freq in range(0, 4):
            for min_cost in range(0, 4):
                box = BoundingBox(min_frequency=min_freq, min_cost=min_cost)
                predictions = np.array([box.contains(f, c) for f, c in zip(freq, cost)])
                f1 = _f1_score(labels, predictions.astype(int))
                if f1 > best_f1:
                    best_f1 = f1
                    best_box = box
        return cls(box=best_box)


class NeuralPTWCostPredictor(PTWCostPredictor):
    """An MLP-based predictor over a configurable subset of the Table 1 features."""

    def __init__(self, model: MLPClassifier, feature_indices: Sequence[int], name: str):
        self.model = model
        self.feature_indices = list(feature_indices)
        self.name = name

    def predict(self, pte: PageTableEntry) -> bool:
        vector = np.asarray(pte.features.as_vector(), dtype=float)[self.feature_indices]
        return bool(self.model.predict(vector.reshape(1, -1))[0])

    def predict_matrix(self, features: np.ndarray) -> np.ndarray:
        """Vectorised prediction over a full Table-1 feature matrix."""
        features = np.asarray(features, dtype=float)
        return self.model.predict(features[:, self.feature_indices])

    @property
    def size_bytes(self) -> int:
        return self.model.size_bytes


def _f1_score(labels: np.ndarray, predictions: np.ndarray) -> float:
    true_pos = int(np.sum((labels == 1) & (predictions == 1)))
    false_pos = int(np.sum((labels == 0) & (predictions == 1)))
    false_neg = int(np.sum((labels == 1) & (predictions == 0)))
    precision = true_pos / (true_pos + false_pos) if (true_pos + false_pos) else 0.0
    recall = true_pos / (true_pos + false_neg) if (true_pos + false_neg) else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
