"""CACTI-style latency / area / power scaling for TLBs.

The paper uses CACTI 7.0 to derive the access latency of large L2/L3 TLBs
(Section 3.1): "1.4x larger latency for every 2x increase in size", anchored at
the baseline 1.5K-entry / 12-cycle L2 TLB and reaching 39 cycles at 64K
entries.  The same scaling rule is used for the realistic configurations of
Figure 7 (2K-13, 4K-16, 8K-21, 16K-27, 32K-34, 64K-39).  We encode that curve
directly rather than re-running CACTI, and provide analogous area and power
scaling (roughly linear in capacity) for the overhead discussion.
"""

from __future__ import annotations

import math
from typing import Dict

#: The paper's baseline L2 TLB: 1536 entries at 12 cycles.
BASELINE_ENTRIES = 1536
BASELINE_LATENCY_CYCLES = 12
#: Latency multiplier per doubling of capacity (CACTI 7.0, per the paper).
LATENCY_SCALING_PER_DOUBLING = 1.4

#: The realistic latencies the paper quotes for Figure 7, used to pin the curve.
PAPER_REALISTIC_LATENCIES: Dict[int, int] = {
    2 * 1024: 13,
    4 * 1024: 16,
    8 * 1024: 21,
    16 * 1024: 27,
    32 * 1024: 34,
    64 * 1024: 39,
}

#: Approximate area (mm^2) and power (mW) of the baseline 1.5K-entry L2 TLB,
#: in a 22 nm-class process (order-of-magnitude values for overhead ratios).
BASELINE_AREA_MM2 = 0.30
BASELINE_POWER_MW = 60.0


def tlb_access_latency(entries: int) -> int:
    """Return the realistic access latency (cycles) of a TLB with ``entries`` entries.

    Exact paper-quoted points are returned verbatim; other sizes follow the
    1.4x-per-doubling scaling rule anchored at the 1.5K-entry baseline.
    """
    if entries <= 0:
        raise ValueError("a TLB needs a positive number of entries")
    if entries in PAPER_REALISTIC_LATENCIES:
        return PAPER_REALISTIC_LATENCIES[entries]
    if entries <= BASELINE_ENTRIES:
        return BASELINE_LATENCY_CYCLES
    doublings = math.log2(entries / BASELINE_ENTRIES)
    return int(round(BASELINE_LATENCY_CYCLES * (LATENCY_SCALING_PER_DOUBLING ** doublings)))


def tlb_area_mm2(entries: int) -> float:
    """Approximate die area of a TLB, scaling linearly with capacity."""
    if entries <= 0:
        raise ValueError("a TLB needs a positive number of entries")
    return BASELINE_AREA_MM2 * entries / BASELINE_ENTRIES


def tlb_power_mw(entries: int) -> float:
    """Approximate power of a TLB, scaling slightly super-linearly with capacity.

    The exponent (1.1) reflects that bigger SRAM arrays pay extra periphery
    and wire energy on top of the per-bit cost.
    """
    if entries <= 0:
        raise ValueError("a TLB needs a positive number of entries")
    return BASELINE_POWER_MW * (entries / BASELINE_ENTRIES) ** 1.1
