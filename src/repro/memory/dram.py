"""Analytical DRAM timing model.

The paper's baseline (Table 3) does not spell out DRAM timings, but its measured
average PTW latency of ~137 cycles with a 35-cycle LLC implies a main-memory
round trip somewhere in the 130-170 cycle range.  We model DRAM as a set of
banks with open-row policy: a row-buffer hit is cheaper than a row-buffer miss,
and a simple per-bank interleaving on block address spreads accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.stats import register_stats_component

#: Bytes per DRAM row (the open-row unit).
ROW_SIZE_BYTES = 8 * 1024
#: Consecutive 64-byte blocks interleave across banks.
INTERLEAVE_BITS = 6


@dataclass
class DramStats:
    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    reads: int = 0
    writes: int = 0


class DramModel:
    """Open-row DRAM latency model.

    The three timing values mirror :class:`~repro.sim.config.DramTimingConfig`,
    which validates them.
    """

    # reset_stats replaces the stats object (callers re-read it), so the
    # registry is used directly instead of the ResettableStats default.

    def __init__(self, row_hit_latency: int = 110, row_miss_latency: int = 170,
                 num_banks: int = 16):
        self.row_hit_latency = row_hit_latency
        self.row_miss_latency = row_miss_latency
        self.num_banks = num_banks
        self.stats = DramStats()
        self._open_rows: Dict[int, int] = {}
        register_stats_component(self)

    def access(self, paddr: int, write: bool = False) -> int:
        """Access ``paddr`` and return the access latency in cycles."""
        bank = (paddr >> INTERLEAVE_BITS) % self.num_banks
        row = paddr // ROW_SIZE_BYTES
        self.stats.accesses += 1
        if write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if self._open_rows.get(bank) == row:
            self.stats.row_hits += 1
            return self.row_hit_latency
        self.stats.row_misses += 1
        self._open_rows[bank] = row
        return self.row_miss_latency

    def reset_stats(self) -> None:
        self.stats = DramStats()
