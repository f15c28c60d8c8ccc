"""Baseline translation mechanisms the paper compares Victima against."""

from repro.baselines.pom_tlb import POMTLB, POMTLBStats

__all__ = [
    "POMTLB",
    "POMTLBStats",
]
