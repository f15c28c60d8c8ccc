"""Metric helpers shared by the experiment runners and reports."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping


def percent_reduction(baseline: float, value: float) -> float:
    """Percentage reduction of ``value`` relative to ``baseline`` (0-100)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - value) / baseline


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's GMEAN columns use this for speedups."""
    values = [v for v in values]
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def histogram_fraction(histogram: Mapping[int, int], lower: int, upper: float) -> float:
    """Fraction of histogram mass with key in ``[lower, upper)``."""
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    in_range = sum(count for key, count in histogram.items() if lower <= key < upper)
    return in_range / total


def reuse_buckets(histogram: Mapping[int, int]) -> Dict[str, float]:
    """Bucket a reuse histogram the way Figures 11 and 24 present it.

    Buckets: ``0``, ``1-5``, ``5-10``, ``10-20`` and ``>20`` — fractions of all
    evicted blocks.
    """
    return {
        "0": histogram_fraction(histogram, 0, 1),
        "1-5": histogram_fraction(histogram, 1, 5),
        "5-10": histogram_fraction(histogram, 5, 10),
        "10-20": histogram_fraction(histogram, 10, 20),
        ">20": histogram_fraction(histogram, 20, float("inf")),
    }
