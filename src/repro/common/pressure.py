"""Run-time pressure signals shared between the MMU, the caches and Victima.

Victima's insertion and replacement decisions are gated by two MPKI-style
signals (Section 5.1 / 5.2 of the paper):

* **Translation pressure** — the L2 TLB miss rate (misses per kilo
  instructions).  The TLB-aware replacement policy and the high-priority
  insertion of TLB blocks only activate when this exceeds a threshold
  (5 MPKI in the paper).
* **Data-locality pressure** — the L2 *cache* MPKI.  When data exhibits very
  low locality, caching data is not beneficial, so the PTW cost predictor is
  bypassed and TLB blocks are always inserted.

Both signals are produced by :class:`PressureMonitor`, which the simulator
ticks with retired instructions and the MMU / L2 cache feed with miss events.
"""

from __future__ import annotations

from repro.common.stats import register_stats_component


class PressureMonitor:
    """Aggregates the L2 TLB and L2 cache MPKI signals.

    Each signal's rate is taken over a window of ``window_instructions``
    retired instructions, which both signals share: once a window completes
    the rate is that window's, and before any window has completed (or while
    the last completed one saw no events) it is the rate so far in the
    current window, so early simulation phases do not permanently bias it.
    """

    def __init__(self, window_instructions: int = 50_000,
                 tlb_pressure_threshold: float = 5.0,
                 cache_pressure_threshold: float = 5.0):
        self.window_instructions = window_instructions
        self.tlb_pressure_threshold = tlb_pressure_threshold
        self.cache_pressure_threshold = cache_pressure_threshold
        self.reset_stats()
        register_stats_component(self)

    # -- feeding ---------------------------------------------------------- #
    def record_instructions(self, count: int) -> None:
        self._instructions += count
        window = self._window + count
        if window >= self.window_instructions:
            self._tlb_rate = 1000.0 * self._tlb_window / max(window, 1)
            self._cache_rate = 1000.0 * self._cache_window / max(window, 1)
            self._tlb_window = self._cache_window = window = 0
        self._window = window

    def record_l2_tlb_miss(self, count: int = 1) -> None:
        self._tlb_window += count
        self._tlb_misses += count

    def record_l2_cache_miss(self, count: int = 1) -> None:
        self._cache_window += count
        self._cache_misses += count

    # -- resetting -------------------------------------------------------- #
    def reset_stats(self) -> None:
        """Zero the window, the totals and both rates (the ``reset_stats``
        convention).

        Called at the warm-up boundary: Victima's insertion and replacement
        decisions inside the measured window must be driven by measured-window
        pressure only, not by instructions and misses retired during warm-up.
        The configured thresholds and window length are kept.
        """
        self._instructions = self._window = 0
        self._tlb_misses = self._tlb_window = 0
        self._cache_misses = self._cache_window = 0
        self._tlb_rate = self._cache_rate = 0.0

    # -- reading ---------------------------------------------------------- #
    @property
    def total_l2_tlb_misses(self) -> int:
        """Total L2 TLB misses recorded since construction or ``reset_stats``."""
        return self._tlb_misses

    @property
    def total_l2_cache_misses(self) -> int:
        """Total L2 cache misses recorded since construction or ``reset_stats``."""
        return self._cache_misses

    @property
    def total_instructions(self) -> int:
        """Total instructions recorded since construction or ``reset_stats``."""
        return self._instructions

    @property
    def l2_tlb_mpki(self) -> float:
        rate = self._tlb_rate
        if not rate and self._window:
            rate = 1000.0 * self._tlb_window / self._window
        return rate

    @property
    def l2_cache_mpki(self) -> float:
        rate = self._cache_rate
        if not rate and self._window:
            rate = 1000.0 * self._cache_window / self._window
        return rate

    # The two flags repeat the MPKI rule inline: the TLB-aware replacement
    # policy reads ``translation_pressure_high`` on every TLB-block insertion,
    # hit and victim choice.
    @property
    def translation_pressure_high(self) -> bool:
        """True when the L2 TLB MPKI exceeds the activation threshold."""
        rate = self._tlb_rate
        if not rate and self._window:
            rate = 1000.0 * self._tlb_window / self._window
        return rate > self.tlb_pressure_threshold

    @property
    def data_locality_low(self) -> bool:
        """True when the L2 cache MPKI is high enough to bypass the PTW-CP."""
        rate = self._cache_rate
        if not rate and self._window:
            rate = 1000.0 * self._cache_window / self._window
        return rate > self.cache_pressure_threshold
