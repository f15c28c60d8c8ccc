"""Closed-loop measurement of one benchmark workload.

One process and one thread run one simulation at a time through the public
API (``repro.api.build_simulator`` then ``.run()``), so the result cache is
never consulted and every repeat simulates.  Imports happen before any
timing; set-up (building the simulator and prefaulting its page tables) is
timed, because a user pays it on every simulation.

The untraced mode measures the end-to-end metrics and wraps only
``prefault``, which marks the end of set-up.  The traced mode runs one
untraced pass, then traced passes of the same cells (see :mod:`spans`); it
reports per-layer metrics and checks that tracing left every result
unchanged.

Every simulation is checked (:func:`check_result`); one that raises or fails
a check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro import api
from repro.sim.simulator import SimulationResult

import cells
import spans


class Metric(NamedTuple):
    name: str
    unit: str
    better: str


#: Printed by the untraced mode, in the final JSON line.
END_TO_END = (
    Metric("refs_per_s", "refs/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("sim_p50_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
)
#: Printed with the end-to-end metrics but carried in the JSON line by
#: ``failed`` / ``attempted``: it is 0 on a healthy run, so it cannot serve
#: as a metric whose regressions are measured relative to its median.
ERROR_RATE = Metric("error_rate", "fraction", "lower")

#: Printed by the traced mode, in the final JSON line.
PER_LAYER = (
    Metric("scenario.build_s", "s", "lower"),
    Metric("memory.prefault_s", "s", "lower"),
    Metric("memory.pages_mapped", "count", "lower"),
    Metric("memory.prefault_us_per_page", "us", "lower"),
    Metric("backends.warm_start_s", "s", "lower"),
    Metric("workloads.gen_s", "s", "lower"),
    Metric("workloads.fast_forward_s", "s", "lower"),
    Metric("workloads.skipped_refs", "count", "higher"),
    Metric("mmu.translate_calls", "count", "lower"),
    Metric("mmu.translate_self_s", "s", "lower"),
    Metric("mmu.l1_tlb_hit_ratio", "fraction", "higher"),
    Metric("backends.translate_calls", "count", "lower"),
    Metric("backends.translate_self_s", "s", "lower"),
    Metric("backends.no_walk_ratio", "fraction", "higher"),
    Metric("mmu.walk_calls", "count", "lower"),
    Metric("mmu.walk_self_s", "s", "lower"),
    Metric("virt.nested_walk_calls", "count", "lower"),
    Metric("virt.nested_walk_self_s", "s", "lower"),
    Metric("cache.access_calls", "count", "lower"),
    Metric("cache.access_self_s", "s", "lower"),
    Metric("cache.l1_hit_ratio", "fraction", "higher"),
    Metric("cache.ptw_access_calls", "count", "lower"),
    Metric("cache.ptw_access_self_s", "s", "lower"),
    Metric("core.victima_probe_hit_ratio", "fraction", "higher"),
    Metric("sim.loop_self_s", "s", "lower"),
    Metric("sim.trace_overhead_ratio", "ratio", "lower"),
)


@dataclass
class SimRecord:
    """One simulation: what ran, what it cost, what it produced."""

    cell: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    pages_mapped: int = 0
    result: Optional[SimulationResult] = None
    digest: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Report:
    """What one benchmark invocation prints."""

    lines: List[str]
    summary: Dict[str, object]
    #: Digests of the untraced and traced passes (traced mode only).
    digests: Dict[str, List[str]] = field(default_factory=dict)
    #: Self seconds of all spans over traced wall seconds (traced mode only).
    accounted_share: float = 0.0


def result_digest(result: SimulationResult) -> str:
    canonical = json.dumps(result.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _negative_counters(value, path: str = "") -> List[str]:
    if isinstance(value, dict):
        found = []
        for key, item in value.items():
            found.extend(_negative_counters(item, f"{path}.{key}" if path else str(key)))
        return found
    if isinstance(value, (list, tuple)):
        found = []
        for index, item in enumerate(value):
            found.extend(_negative_counters(item, f"{path}[{index}]"))
        return found
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value < 0:
        return [path]
    return []


def check_result(result: SimulationResult) -> List[str]:
    """Cross-counter invariants every result must satisfy."""
    problems = []
    refs = result.memory_refs
    levels = sum(result.data_access_levels.values())
    if levels != refs:
        problems.append(f"data_access_levels sum to {levels}, memory_refs is {refs}")
    # Virtualized systems (the ones with nested-walk stats) leave served_by empty.
    if result.nested_stats is None or result.served_by:
        served = sum(result.served_by.values())
        if served != refs:
            problems.append(f"served_by sums to {served}, memory_refs is {refs}")
    if result.per_core:
        per_core = sum(core.memory_refs for core in result.per_core)
        if per_core != refs:
            problems.append(f"per-core memory_refs sum to {per_core}, aggregate is {refs}")
    negative = _negative_counters(result.to_json_dict())
    if negative:
        problems.append("negative counters: " + ", ".join(negative[:5]))
    return problems


def simulate(spec, tracer: Optional[spans.Tracer] = None) -> SimRecord:
    """Build, prefault and run one cell, timing set-up and the whole."""
    record = SimRecord(cell=spec.name)
    clock = time.perf_counter
    start = clock()
    try:
        if tracer is not None:
            tracer.begin_simulation()
            with tracer.span("scenario.build"):
                sim = api.build_simulator(spec)
            spans.instrument(tracer, sim)
        else:
            sim = api.build_simulator(spec)
        prefault = sim.prefault

        def timed_prefault():
            record.pages_mapped = prefault()
            record.setup_s = clock() - start
            return record.pages_mapped

        sim.prefault = timed_prefault
        result = sim.run()
        record.wall_s = clock() - start
    except Exception as exc:  # a failed simulation is counted, not fatal
        record.wall_s = clock() - start
        traceback.print_exc(file=sys.stderr)
        record.problems.append(f"raised {type(exc).__name__}: {exc}")
        return record
    record.result = result
    record.digest = result_digest(result)
    record.problems.extend(check_result(result))
    return record


def _run_passes(specs, seconds: float,
                tracer: Optional[spans.Tracer] = None) -> List[List[SimRecord]]:
    """Closed loop: whole passes over ``specs`` while another one fits.

    At least one pass runs; another starts only if the last one's duration
    still fits in ``seconds``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append([simulate(spec, tracer) for spec in specs])
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def _check_repeats(records: List[SimRecord], what: str) -> None:
    """Fail every simulation whose digest differs from its cell's first one."""
    first: Dict[str, str] = {}
    for record in records:
        if not record.digest:
            continue
        expected = first.setdefault(record.cell, record.digest)
        if record.digest != expected:
            record.problems.append(f"result digest differs from {what}")


def _speedup_lines(name: str, records: List[SimRecord]) -> List[str]:
    ref = cells.SPEEDUPS.get(name)
    if ref is None:
        return []
    ipc: Dict[str, float] = {}
    for record in records:
        if record.result is not None:
            ipc.setdefault(record.cell, record.result.ipc)
    ratios = []
    for cell, base in sorted(ipc.items()):
        system, workload = cell.split("/")
        victima = ipc.get(f"{ref.victima}/{workload}")
        if system == ref.baseline and victima and base:
            ratios.append(victima / base)
    if not ratios:
        return []
    gmean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return [f"sim_victima_speedup {gmean:.4f} x  (GMEAN of {ref.victima} over "
            f"{ref.baseline}, {len(ratios)} workloads; paper {ref.paper}; "
            "simulated time, model unvalidated against hardware)"]


def _sampling_lines(records: List[SimRecord]) -> List[str]:
    for record in records:
        sampling = record.result.sampling if record.result is not None else None
        if sampling:
            return [f"sim_cycles_per_ref {sampling['cycles_per_ref_mean']:.3f} "
                    f"+- {sampling['cycles_per_ref_ci95']:.3f} cycles  (CI95 over "
                    f"{sampling['windows']} windows, coverage "
                    f"{sampling['coverage']:.4f}; simulated time, model "
                    "unvalidated against hardware)"]
    return []


def _metric_line(metric: Metric, value, note: str = "") -> str:
    text = f"{metric.name} {value:.6g} {metric.unit}"
    return f"{text}  ({note})" if note else text


def _summary(records: List[SimRecord], values: Dict[str, float],
             metrics) -> Dict[str, object]:
    failed = sum(record.failed for record in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics},
    }


def _problem_lines(records: List[SimRecord]) -> List[str]:
    return [f"FAILED {record.cell}: {problem}"
            for record in records for problem in record.problems]


def end_to_end(name: str, seed: int, seconds: float, tiny: bool = False) -> Report:
    """The untraced run: every end-to-end metric, from closed-loop passes."""
    specs = cells.WORKLOADS[name](seed, tiny)
    passes = _run_passes(specs, seconds)
    records = [record for records in passes for record in records]
    _check_repeats(records, "an earlier repeat of the cell")
    failed = sum(record.failed for record in records)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Each cell's median over the passes, so that a burst of host noise in
    # one pass moves no cell by more than the other passes allow.
    walls = [statistics.median(recs[i].wall_s for recs in passes) for i in range(len(specs))]
    setups = [statistics.median(recs[i].setup_s for recs in passes) for i in range(len(specs))]
    values = {
        "refs_per_s": sum(spec.max_refs for spec in specs) / sum(walls),
        "setup_s": sum(setups),
        "sim_p50_s": statistics.median(r.wall_s for r in records),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    per_cell = f"each cell's median over {len(passes)} passes"
    notes = {
        "refs_per_s": f"refs of {len(specs)} cells / sum of {per_cell}, set-up included",
        "setup_s": f"build_simulator + prefault, sum over cells of {per_cell}",
        "sim_p50_s": f"median of {len(records)} simulations",
        "peak_rss_mb": "peak resident memory of this process",
    }
    lines = [f"perfbench {name} seed={seed}: closed loop, 1 process, "
             f"{len(specs)} cells x {len(passes)} passes, host time"]
    lines += [_metric_line(m, values[m.name], notes[m.name]) for m in END_TO_END]
    lines.append(_metric_line(ERROR_RATE, failed / len(records),
                              f"{failed} failed / {len(records)} attempted"))
    lines += _speedup_lines(name, passes[0]) + _sampling_lines(passes[0])
    lines += _problem_lines(records)
    return Report(lines, _summary(records, values, END_TO_END))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(name: str, seed: int, seconds: float, tiny: bool = False,
              out_dir: Optional[str] = None) -> Report:
    """The traced run: one untraced pass, then traced passes; per-layer metrics."""
    specs = cells.WORKLOADS[name](seed, tiny)
    untraced = _run_passes(specs, 0)[0]
    tracer = spans.Tracer()
    traced_passes = _run_passes(specs, seconds - sum(r.wall_s for r in untraced), tracer)
    traced = [record for records in traced_passes for record in records]
    records = untraced + traced
    _check_repeats(records, "the untraced run of the cell")

    n = len(traced_passes)

    def calls(layer):
        return tracer.stat(layer).calls / n

    def self_s(layer):
        return tracer.stat(layer).self_s / n

    results = [r.result for r in traced if r.result is not None]
    refs = sum(r.memory_refs for r in results)
    l1_tlb_misses = sum(r.l1_tlb_misses for r in results)
    l2_tlb_misses = sum(r.l2_tlb_misses for r in results)
    walks = sum(r.page_walks for r in results)
    l1_hits = sum(r.data_access_levels.get("L1", 0) for r in results)
    victima = [r.victima_stats for r in results if r.victima_stats]
    probes = sum(v["probes"] for v in victima)
    probe_hits = sum(v["block_hits"] for v in victima)
    pages = sum(r.pages_mapped for r in traced) / n
    prefault_s = self_s("sim.prefault") + self_s("memory.prefault_range")
    skipped = sum(r.sampling["skipped_refs"] for r in results if r.sampling) / n
    untraced_wall = sum(r.wall_s for r in untraced)
    traced_wall = sum(r.wall_s for r in traced_passes[0])

    values = {
        "scenario.build_s": self_s("scenario.build"),
        "memory.prefault_s": prefault_s,
        "memory.pages_mapped": pages,
        "memory.prefault_us_per_page": 1e6 * _ratio(prefault_s, pages),
        "backends.warm_start_s": self_s("backends.warm_start"),
        "workloads.gen_s": self_s("workloads.gen"),
        "workloads.fast_forward_s": self_s("workloads.fast_forward"),
        "workloads.skipped_refs": skipped,
        "mmu.translate_calls": calls("mmu.translate"),
        "mmu.translate_self_s": self_s("mmu.translate"),
        "mmu.l1_tlb_hit_ratio": 1.0 - _ratio(l1_tlb_misses, refs),
        "backends.translate_calls": calls("backends.translate"),
        "backends.translate_self_s": self_s("backends.translate"),
        "backends.no_walk_ratio": _ratio(l2_tlb_misses - walks, l2_tlb_misses),
        "mmu.walk_calls": calls("mmu.walk"),
        "mmu.walk_self_s": self_s("mmu.walk"),
        "virt.nested_walk_calls": calls("virt.nested_walk"),
        "virt.nested_walk_self_s": self_s("virt.nested_walk"),
        "cache.access_calls": calls("cache.access"),
        "cache.access_self_s": self_s("cache.access"),
        "cache.l1_hit_ratio": _ratio(l1_hits, refs),
        "cache.ptw_access_calls": calls("cache.ptw_access"),
        "cache.ptw_access_self_s": self_s("cache.ptw_access"),
        "core.victima_probe_hit_ratio": _ratio(probe_hits, probes),
        "sim.loop_self_s": self_s("sim.run"),
        "sim.trace_overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    bases = {
        "memory.prefault_s": "self time of Simulator.prefault + prefault_range; "
                             "backend warm-start excluded",
        "memory.prefault_us_per_page": f"base: {pages:.0f} pages mapped",
        "mmu.l1_tlb_hit_ratio": f"base: {refs} measured translations",
        "backends.no_walk_ratio": f"base: {l2_tlb_misses} measured L2-TLB misses",
        "cache.l1_hit_ratio": f"base: {refs} measured data refs",
        "core.victima_probe_hit_ratio": f"base: {probes} measured probes",
        "sim.loop_self_s": "run - prefault - generation - translate - access",
        "sim.trace_overhead_ratio": f"traced {traced_wall:.3f} s / untraced "
                                    f"{untraced_wall:.3f} s",
    }
    self_total = tracer.self_seconds()
    wall_total = sum(r.wall_s for r in traced)
    accounted = _ratio(self_total, wall_total)

    lines = [f"perfbench {name} seed={seed} traced: {len(specs)} cells x "
             f"{n} traced passes after 1 untraced pass; per traced pass, host time; "
             "call counts include warm-up, ratios cover the measured window"]
    lines += [_metric_line(m, values[m.name], bases.get(m.name, "")) for m in PER_LAYER]
    lines.append(f"span self times account for {100 * accounted:.2f}% of the "
                 f"traced wall time ({self_total:.3f} of {wall_total:.3f} s)")
    lines += _problem_lines(records)

    digests = {"untraced": [r.digest for r in untraced],
               "traced": [r.digest for r in traced_passes[0]]}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed, "traced_passes": n,
                       "cells": [spec.name for spec in specs], **tracer.to_dict()},
                      handle)
        lines.append(f"spans written to {os.path.relpath(path)}")
    return Report(lines, _summary(records, values, PER_LAYER),
                  digests=digests, accounted_share=accounted)
