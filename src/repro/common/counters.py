"""Small hardware-style counters used by predictors and replacement policies."""

from __future__ import annotations


class SaturatingCounter:
    """An ``n``-bit saturating counter.

    The paper stores two such counters in the unused bits of each PTE: a 3-bit
    page-table-walk frequency counter and a 4-bit PTW cost counter.  When a
    counter saturates it stays at its maximum value for the rest of execution
    (Section 5.2).
    """

    __slots__ = ("bits", "value", "max_value")

    def __init__(self, bits: int, value: int = 0):
        if bits <= 0:
            raise ValueError("a saturating counter needs at least one bit")
        self.bits = bits
        # Stored (not a property): increments happen several times per
        # simulated memory reference, so the ceiling must not be recomputed.
        max_value = self.max_value = (1 << bits) - 1
        self.value = value if value < max_value else max_value

    def increment(self, amount: int = 1) -> int:
        """Increment, saturating at the maximum value.  Returns the new value."""
        value = self.value + amount
        if value > self.max_value:
            value = self.max_value
        self.value = value
        return value

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SaturatingCounter(bits={self.bits}, value={self.value})"


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
