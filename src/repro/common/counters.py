"""The event-rate monitor behind Victima's run-time pressure signals."""

from __future__ import annotations


class EventRateMonitor:
    """Tracks an event rate per kilo-instructions over a sliding window.

    Used for the two "pressure" signals Victima consults at run time:

    * the L2 TLB MPKI (translation pressure; the TLB-aware replacement policy
      and the insertion policy activate above ``threshold``), and
    * the L2 cache MPKI (data-locality signal; above the threshold the PTW cost
      predictor is bypassed because caching data is not beneficial anyway).

    The monitor keeps a running total plus a windowed estimate so that early
    simulation phases do not permanently bias the rate.
    """

    __slots__ = ("window_instructions", "_events_window", "_instr_window",
                 "_events_total", "_instr_total", "_last_rate")

    def __init__(self, window_instructions: int = 100_000):
        self.window_instructions = window_instructions
        self._events_window = 0
        self._instr_window = 0
        self._events_total = 0
        self._instr_total = 0
        self._last_rate = 0.0

    def record_instructions(self, count: int) -> None:
        self._instr_window += count
        self._instr_total += count
        if self._instr_window >= self.window_instructions:
            self._last_rate = 1000.0 * self._events_window / max(self._instr_window, 1)
            self._events_window = 0
            self._instr_window = 0

    def record_event(self, count: int = 1) -> None:
        self._events_window += count
        self._events_total += count

    def reset(self) -> None:
        """Zero all accumulated state (window, totals and cached rate).

        Part of the ``reset_stats`` convention: the simulator calls this at
        the warm-up boundary so that warm-up instructions and events do not
        contaminate the rate estimate used inside the measured window.
        """
        self._events_window = 0
        self._instr_window = 0
        self._events_total = 0
        self._instr_total = 0
        self._last_rate = 0.0

    @property
    def rate_per_kilo_instructions(self) -> float:
        """Current events-per-kilo-instruction estimate.

        Uses the last completed window when one exists, otherwise the running
        average so far (so short unit tests still get a sensible value).
        """
        if self._last_rate > 0.0 or self._instr_total >= self.window_instructions:
            if self._instr_window > 0 and self._last_rate == 0.0:
                return 1000.0 * self._events_window / self._instr_window
            return self._last_rate
        if self._instr_total == 0:
            return 0.0
        return 1000.0 * self._events_total / self._instr_total

    @property
    def total_events(self) -> int:
        return self._events_total

    @property
    def total_instructions(self) -> int:
        return self._instr_total
