"""Analytical models (CACTI/McPAT-style) and metric helpers."""

from repro.analysis.cacti import tlb_access_latency, tlb_area_mm2, tlb_power_mw
from repro.analysis.mcpat import victima_overheads, OverheadReport
from repro.analysis.metrics import geometric_mean, percent_reduction

__all__ = [
    "tlb_access_latency",
    "tlb_area_mm2",
    "tlb_power_mw",
    "victima_overheads",
    "OverheadReport",
    "geometric_mean",
    "percent_reduction",
]
