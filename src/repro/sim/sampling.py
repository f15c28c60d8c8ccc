"""SMARTS-style sampled simulation: configuration, the sampler, error bars.

SMARTS (Wunderlich et al., ISCA 2003) observes that detailed simulation of a
small systematic sample of a program's execution — one short *detailed window*
out of every N, fast-forwarding through the rest — estimates whole-run
metrics with quantifiable error bars at a fraction of the cost.  This module
holds the opt-in configuration (:class:`SamplingConfig`) threaded through
:class:`~repro.scenario.ScenarioSpec` and
:class:`~repro.sim.simulator.Simulator`; the sampler the simulator runs per
core (:func:`sampled_batches`); and the per-window statistics that become
the ``sampling`` block of a :class:`~repro.sim.simulator.SimulationResult`
(:func:`sampling_block`).

Semantics (per core, on any number of cores):

* The global warm-up region (``warmup_fraction`` of the run) is always
  simulated in detail, so the sampled and full runs reset their measured
  statistics at the same reference.
* After warm-up the reference stream is divided into fixed-size windows of
  ``window_refs`` references.  Window ``w`` is simulated in detail iff
  ``w % stride == 0`` (window 0 always is); the others are skipped through
  :meth:`~repro.workloads.base.Workload.fast_forward`, which advances the
  workload's generator state exactly without materialising references.
* Within each detailed window the first ``warmup_refs`` references re-warm
  micro-architectural state after the skip: they are simulated in detail and
  *included* in the run totals, but *excluded* from the per-window
  cycles-per-ref series that feeds the error bars.
* Reported totals are the raw measured values from the detailed references —
  they are not scaled up — so ratio metrics (hit rates, CPI, cycle
  breakdowns) remain unbiased estimates of the full run's.  The error bars
  quantify how well the sampled windows represent the whole.

``stride=1`` skips nothing and is pinned bit-identical to the full run by
``tests/test_sampling.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.workloads.base import MemoryRef, Workload

__all__ = ["SamplingConfig", "sampled_batches", "window_series_summary",
           "sampling_metadata", "sampling_block"]


@dataclass(frozen=True)
class SamplingConfig:
    """Opt-in SMARTS sampling parameters for the simulator.

    ``stride``
        Simulate one detailed window out of every ``stride`` post-warm-up
        windows.  ``1`` simulates everything (bit-identical to a full run).
    ``warmup_refs``
        Detailed-but-unmeasured references at the head of each detailed
        window, re-warming TLB/cache state after the preceding skip.  They
        count toward run totals but not the error-bar series.
    ``window_refs``
        References per window; the default matches
        ``Workload.BATCH_SIZE`` so a detailed window is one hot-path batch.
    """

    stride: int = 4
    warmup_refs: int = 0
    window_refs: int = 1024

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ConfigurationError("sampling stride must be >= 1")
        if self.window_refs < 1:
            raise ConfigurationError("sampling window_refs must be >= 1")
        if not 0 <= self.warmup_refs < self.window_refs:
            raise ConfigurationError(
                "sampling warmup_refs must satisfy 0 <= warmup_refs < window_refs")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SamplingConfig":
        unknown = set(data) - {"stride", "warmup_refs", "window_refs"}
        if unknown:
            raise ConfigurationError(
                f"unknown sampling keys: {sorted(unknown)!r} "
                "(expected stride/warmup_refs/window_refs)")
        kwargs = {key: int(data[key]) for key in
                  ("stride", "warmup_refs", "window_refs") if key in data}
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, int]:
        return {"stride": self.stride, "warmup_refs": self.warmup_refs,
                "window_refs": self.window_refs}


def sampled_batches(run, sampling: SamplingConfig) -> Iterator[List[MemoryRef]]:
    """Yield one run's detailed references as lists, skipping sampled-out windows.

    ``run`` is the core's :class:`~repro.sim.simulator.CoreRun`.  The global
    warm-up comes first, in lists of at most ``Workload.BATCH_SIZE``
    references.  Then every detailed window yields its re-warm head and its
    measured body as two lists, and every other window is skipped through
    ``Workload.fast_forward`` on the workload's own ``generate()`` stream.

    The consumer must simulate each list before pulling the next: the
    generator resumes only then, so a window's cycles-per-ref (appended to
    ``run.window_series``) and a skip's estimate read settled accumulators.
    A skipped window advances ``run.ready_at``, the core's clock, by the
    run's measured mean cycles per reference, which keeps the scheduler
    interleaving cores in (estimated) cycle order.  On one core nothing
    compares the clock, so the skip does not change the run.
    """
    workload = run.workload
    stream = workload.generate()
    total = workload.config.max_refs
    produced = 0
    while produced < run.warmup_refs:
        want = min(Workload.BATCH_SIZE, run.warmup_refs - produced)
        batch = list(islice(stream, want))
        if batch:
            produced += len(batch)
            yield batch
        if len(batch) < want:
            return

    window = 0
    while produced < total:
        want = min(sampling.window_refs, total - produced)
        if window % sampling.stride:
            got = workload.fast_forward(stream, want)
            produced += got
            run.skipped_refs += got
            run.ready_at += got * (run.cycles / max(1, run.refs - run.warmup_refs))
            if got < want:
                return
        else:
            head = min(sampling.warmup_refs, want)
            batch = list(islice(stream, head))
            if batch:
                produced += len(batch)
                yield batch
            if len(batch) < head:
                return
            start_refs = run.refs
            # The warm-up reset fires inside window 0's first measured
            # reference; its cycle baseline is 0.
            start_cycles = run.cycles if run.measuring else 0.0
            batch = list(islice(stream, want - head))
            if batch:
                produced += len(batch)
                yield batch
                measured = run.refs - start_refs
                if measured:
                    run.window_series.append((run.cycles - start_cycles) / measured)
            if len(batch) < want - head:
                return
        window += 1


def window_series_summary(window_cycles_per_ref: List[float]) -> Dict[str, object]:
    """Mean / sample std-dev / 95 % confidence half-width of a window series.

    The windows of a systematic sample are treated as independent draws (the
    standard SMARTS approximation); with ``W`` windows the half-width is
    ``1.96 * s / sqrt(W)``.  Fewer than two windows yields zero spread.
    """
    count = len(window_cycles_per_ref)
    if count == 0:
        return {"mean": 0.0, "std": 0.0, "ci95": 0.0}
    mean = sum(window_cycles_per_ref) / count
    if count < 2:
        return {"mean": mean, "std": 0.0, "ci95": 0.0}
    variance = sum((x - mean) ** 2 for x in window_cycles_per_ref) / (count - 1)
    std = math.sqrt(variance)
    return {"mean": mean, "std": std, "ci95": 1.96 * std / math.sqrt(count)}


def sampling_metadata(config: SamplingConfig,
                      window_cycles_per_ref: List[float],
                      detailed_refs: int, skipped_refs: int,
                      per_core: Optional[List[Dict[str, object]]] = None,
                      ) -> Dict[str, object]:
    """Build the JSON-friendly ``sampling`` block of a result."""
    total = detailed_refs + skipped_refs
    summary = window_series_summary(window_cycles_per_ref)
    meta: Dict[str, object] = {
        "stride": config.stride,
        "window_refs": config.window_refs,
        "window_warmup_refs": config.warmup_refs,
        "windows": len(window_cycles_per_ref),
        "detailed_refs": detailed_refs,
        "skipped_refs": skipped_refs,
        "coverage": detailed_refs / total if total else 0.0,
        "cycles_per_ref_mean": summary["mean"],
        "cycles_per_ref_std": summary["std"],
        "cycles_per_ref_ci95": summary["ci95"],
        "window_cycles_per_ref": list(window_cycles_per_ref),
    }
    if per_core is not None:
        meta["per_core"] = per_core
    return meta


def sampling_block(config: SamplingConfig, runs: Sequence,
                   per_core: bool) -> Dict[str, object]:
    """The ``sampling`` block of a sampled result, built from its core runs.

    The window series of all runs pool into the run-wide error bars; with
    ``per_core`` (multi-core machines) each run also gets its own entry.
    """
    entries = None
    if per_core:
        entries = []
        for run in runs:
            summary = window_series_summary(run.window_series)
            entries.append({
                "core": run.core.core_id,
                "workload": run.workload.name,
                "windows": len(run.window_series),
                "detailed_refs": run.refs,
                "skipped_refs": run.skipped_refs,
                "cycles_per_ref_mean": summary["mean"],
                "cycles_per_ref_std": summary["std"],
                "cycles_per_ref_ci95": summary["ci95"],
            })
    return sampling_metadata(
        config, [cpr for run in runs for cpr in run.window_series],
        detailed_refs=sum(run.refs for run in runs),
        skipped_refs=sum(run.skipped_refs for run in runs),
        per_core=entries)
