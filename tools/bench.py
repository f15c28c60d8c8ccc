#!/usr/bin/env python3
"""Simulation-throughput benchmark: refs/sec over presets × workloads.

Measures how many memory references per wall-clock second the simulator
retires — the metric the hot-path engine optimises — on a small matrix of
system presets × workloads, and writes the numbers to ``BENCH_hotpath.json``
at the repository root so the perf trajectory is tracked in-tree.

Methodology
-----------
Each cell builds a fresh simulator (system construction excluded from the
timing) and times ``Simulator.run()`` end to end — prefault, warm-up and the
measured window all count, because that is the wall-clock cost an experiment
pays per run.  ``refs_per_sec`` is the workload's total reference budget
divided by that wall time; with ``--repeats N`` the best of N runs is kept
(the minimum-noise estimate of the achievable rate).

One special cell rides along: ``gups_sampled`` runs the default preset
under SMARTS sampling (one detailed window in every ``SAMPLED_STRIDE``) over
a 10× larger budget — its rate counts detailed and fast-forwarded references
alike, and the cell records the per-window cycles-per-ref error bars.

Usage
-----
    python tools/bench.py                 # full matrix, writes BENCH_hotpath.json
    python tools/bench.py --quick         # smaller windows (CI smoke)
    python tools/bench.py --quick --check-against BENCH_hotpath.json \
        --tolerance 0.30                  # fail on >30% refs/sec regression

Cells are keyed by ``(system, workload, refs)``: a ``--quick`` run compares
against (and updates) quick cells only, so quick and full numbers coexist in
one baseline file and are never compared across modes (writes merge by
default; ``--replace`` starts the file fresh).  The file also records a
machine-speed calibration score; regression checks rescale the baseline by
the calibration ratio first, so a committed baseline gates correctly on
faster or slower hardware (e.g. CI runners).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api import build_simulator  # noqa: E402
from repro.sim.sampling import SamplingConfig  # noqa: E402

SCHEMA = "repro-bench-hotpath/1"

#: Iterations of the calibration kernel (see :func:`calibration_score`).
CALIBRATION_OPS = 200_000

#: System presets benchmarked: the paper's baseline, the two back-ends with
#: the heaviest per-miss machinery, and the hashed-page-table backend.
SYSTEMS = ("radix", "victima", "pom_tlb", "hash_pt")

#: Benchmark-matrix workloads: friendly name -> registry name.
#: ``gups`` is the RND/GUPS random-access workload — the most
#: translation-hostile stream and therefore the default preset the
#: acceptance target is pinned to.
WORKLOADS = (
    ("gups", "rnd"),
    ("bfs", "bfs"),
    ("xsbench", "xs"),
)

#: The default preset: GUPS on the radix baseline.
DEFAULT_PRESET = ("radix", "gups")

FULL_REFS = 40_000
QUICK_REFS = 8_000

#: The SMARTS-sampled cell: the default preset with a larger reference
#: budget so the fixed prefault/warm-up cost amortises, one detailed window
#: in every ``SAMPLED_STRIDE`` and a short per-window re-warm.  Throughput
#: counts the *whole* modelled budget (detailed + fast-forwarded) per wall
#: second — the metric sampled simulation buys — and the cell records the
#: per-window error bars alongside it.  The budget is always 10x the matrix
#: cells' (quick mode and --refs scale it along).
SAMPLED_REFS = 400_000
SAMPLED_STRIDE = 32
SAMPLED_WINDOW_WARMUP = 256


def calibration_score(repeats: int = 3) -> float:
    """Machine-speed proxy: ops/sec of a fixed pure-Python dict/arith kernel.

    Stored next to the measured cells so that a regression check can compare
    *calibration-normalised* refs/sec: a CI runner that is uniformly 2×
    slower than the machine that produced the baseline scores ~2× lower here
    too, and the normalisation cancels the hardware difference while leaving
    genuine simulator regressions visible.  The kernel deliberately exercises
    the same primitive mix the simulator hot path does (dict probes, integer
    arithmetic, attribute-free loops) and touches none of the repro code.
    """
    def one_pass() -> float:
        table: dict = {}
        acc = 0
        start = time.perf_counter()
        for i in range(CALIBRATION_OPS):
            table[i & 1023] = i
            acc += table.get((i * 7) & 1023, 0)
        return time.perf_counter() - start

    return CALIBRATION_OPS / min(one_pass() for _ in range(repeats))


def _time_run(system: str, workload: str, refs: int,
              sampling: Optional[SamplingConfig] = None,
              warmup_fraction: float = 0.25):
    """Build a fresh simulator, run it and return (wall seconds, result)."""
    sim = build_simulator({"system": system, "workload": workload, "max_refs": refs,
                           "warmup_fraction": warmup_fraction, "sampling": sampling})
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


def _best_rate(system: str, workload: str, refs: int, repeats: int,
               sampling: Optional[SamplingConfig] = None,
               warmup_fraction: float = 0.25):
    """Return (seconds, refs_per_sec, result) for the best of ``repeats``."""
    best = None
    best_result = None
    for _ in range(repeats):
        seconds, result = _time_run(system, workload, refs,
                                    sampling=sampling,
                                    warmup_fraction=warmup_fraction)
        if best is None or seconds < best:
            best, best_result = seconds, result
    return best, refs / best, best_result


def run_matrix(refs: int, repeats: int,
               calibration: float) -> List[Dict[str, object]]:
    """Measure every cell of the benchmark matrix.

    Each cell records the calibration score of the run that measured it:
    merged files can mix cells from different machines (e.g. a full-mode
    rerun on new hardware next to older quick cells), and the regression
    check must rescale every cell by *its own* calibration basis.
    """
    cells: List[Dict[str, object]] = []
    for system in SYSTEMS:
        for name, registry_name in WORKLOADS:
            seconds, rate, _ = _best_rate(system, registry_name, refs, repeats)
            cell: Dict[str, object] = {
                "system": system,
                "workload": name,
                "refs": refs,
                "repeats": repeats,
                "seconds": round(seconds, 4),
                "refs_per_sec": round(rate, 1),
                "calibration_ops_per_sec": round(calibration, 1),
            }
            cells.append(cell)
            print(f"  {system:>8} × {name:<12} {refs:>6} refs: "
                  f"{rate:>10.0f} refs/sec")
    return cells


def run_sampled_cell(refs: int, repeats: int,
                     calibration: float) -> Dict[str, object]:
    """Measure the SMARTS-sampled default-preset cell.

    The cell is keyed ``(radix, gups_sampled, refs)`` so it merges and gates
    like any other; ``refs_per_sec`` divides the whole modelled budget
    (detailed *and* fast-forwarded references) by wall seconds, and the
    ``sampling`` block carries the per-window cycles-per-ref error bars the
    CI perf-smoke job publishes as an artifact.
    """
    system, name = DEFAULT_PRESET
    registry_name = dict(WORKLOADS)[name]
    sampling = SamplingConfig(stride=SAMPLED_STRIDE,
                              warmup_refs=SAMPLED_WINDOW_WARMUP)
    # SMARTS warm-up is fixed-length, not proportional: give the sampled run
    # the same *absolute* global warm-up as the full default-preset cell
    # (0.25 of the matrix budget), instead of 0.25 of its own 10x budget —
    # otherwise the always-detailed warm-up region swallows the speedup.
    warmup_fraction = 0.25 * FULL_REFS / SAMPLED_REFS
    seconds, rate, result = _best_rate(system, registry_name, refs, repeats,
                                       sampling=sampling,
                                       warmup_fraction=warmup_fraction)
    meta = result.sampling
    cell: Dict[str, object] = {
        "system": system,
        "workload": name + "_sampled",
        "refs": refs,
        "repeats": repeats,
        "seconds": round(seconds, 4),
        "refs_per_sec": round(rate, 1),
        "calibration_ops_per_sec": round(calibration, 1),
        "sampling": {
            "global_warmup_fraction": warmup_fraction,
            "stride": meta["stride"],
            "window_refs": meta["window_refs"],
            "window_warmup_refs": meta["window_warmup_refs"],
            "windows": meta["windows"],
            "detailed_refs": meta["detailed_refs"],
            "skipped_refs": meta["skipped_refs"],
            "coverage": round(meta["coverage"], 4),
            "cycles_per_ref_mean": round(meta["cycles_per_ref_mean"], 3),
            "cycles_per_ref_std": round(meta["cycles_per_ref_std"], 3),
            "cycles_per_ref_ci95": round(meta["cycles_per_ref_ci95"], 3),
        },
    }
    print(f"  {system:>8} × {name + '_sampled':<12} {refs:>6} refs: "
          f"{rate:>10.0f} refs/sec  "
          f"(1/{meta['stride']} windows detailed, "
          f"cpr {meta['cycles_per_ref_mean']:.1f} "
          f"± {meta['cycles_per_ref_ci95']:.1f})")
    return cell


def _cell_key(cell: Dict[str, object]) -> Tuple[object, object, object]:
    return (cell["system"], cell["workload"], cell["refs"])


def check_regression(cells: List[Dict[str, object]], baseline_path: str,
                     tolerance: float, calibration: float) -> int:
    """Compare measured cells against a committed baseline file.

    Returns the number of regressing cells.  Cells are compared strictly
    like-for-like — a measured cell gates against the baseline cell with the
    same ``(system, workload, refs)`` key, so quick runs never gate against
    full-mode numbers — and a measured cell with *no* matching baseline key
    is an error, not a silent skip: a baseline that predates a new system or
    workload must be regenerated, otherwise the new cells would never gate.

    Each baseline cell carrying a :func:`calibration_score` is rescaled by
    ``measured_calibration / cell_calibration`` before the tolerance is
    applied, so the check gates on *this machine's* expected throughput
    rather than on the (possibly much faster or slower) machine that
    measured the cell — and merged baselines whose cells come from
    different machines each rescale by their own basis.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_cells = {_cell_key(c): c for c in baseline.get("cells", [])}
    print(f"  calibration here: {calibration:,.0f} ops/sec")
    compared = 0
    regressions = 0
    missing: List[Tuple[object, object, object]] = []
    for cell in cells:
        base = baseline_cells.get(_cell_key(cell))
        if base is None:
            missing.append(_cell_key(cell))
            continue
        compared += 1
        base_calibration = base.get("calibration_ops_per_sec")
        scale = calibration / float(base_calibration) if base_calibration else 1.0
        expected = float(base["refs_per_sec"]) * scale
        floor = expected * (1.0 - tolerance)
        status = "ok"
        if float(cell["refs_per_sec"]) < floor:
            regressions += 1
            status = f"REGRESSION (floor {floor:.0f})"
        print(f"  check {cell['system']:>8} × {cell['workload']:<8}: "
              f"{cell['refs_per_sec']:>10} vs expected {expected:>10.1f}"
              f"  [{status}]")
    if missing:
        keys = ", ".join(f"{system}×{workload}@{refs}"
                         for system, workload, refs in missing)
        raise SystemExit(
            f"{len(missing)} measured cell(s) have no matching "
            f"(system, workload, refs) baseline cell in {baseline_path}: "
            f"{keys} — the check compares like-for-like keys only; "
            f"regenerate the baseline with the same mode (--quick or full) "
            f"so every cell gates")
    if compared == 0:
        raise SystemExit(
            f"no baseline cells in {baseline_path} match this run's "
            f"(system, workload, refs) keys — regenerate the baseline with "
            f"the same mode (--quick or full)")
    return regressions


def write_output(cells: List[Dict[str, object]], path: str, merge: bool) -> None:
    existing: List[Dict[str, object]] = []
    if merge and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle).get("cells", [])
    merged: Dict[Tuple[object, object, object], Dict[str, object]] = {
        _cell_key(c): c for c in existing}
    for cell in cells:
        merged[_cell_key(cell)] = cell
    payload = {
        "schema": SCHEMA,
        "generated_by": "tools/bench.py",
        "python": platform.python_version(),
        "cells": [merged[key] for key in sorted(merged, key=repr)],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path} ({len(merged)} cells)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"small windows ({QUICK_REFS} refs, 1 repeat) for CI smoke")
    parser.add_argument("--refs", type=int, default=None,
                        help=f"references per cell (default {FULL_REFS}, "
                             f"quick {QUICK_REFS})")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N timing (default 2, quick 1)")
    parser.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_hotpath.json"),
                        help="output JSON path (default BENCH_hotpath.json at the repo root)")
    parser.add_argument("--replace", action="store_true",
                        help="replace the output file wholesale; by default cells are "
                             "merged into it so a --quick run never deletes the "
                             "committed full-mode baseline cells")
    parser.add_argument("--no-write", action="store_true",
                        help="measure (and check) only; leave the output file untouched")
    parser.add_argument("--check-against", metavar="PATH", default=None,
                        help="compare against a committed baseline and fail on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional refs/sec drop before failing (default 0.30)")
    args = parser.parse_args(argv)

    refs = args.refs if args.refs is not None else (QUICK_REFS if args.quick else FULL_REFS)
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 2)
    # The sampled cell models a 10x larger budget than the matrix cells
    # (SAMPLED_REFS/FULL_REFS): sampling pays off by covering more program,
    # not by shrinking the detailed work, so its budget scales with --refs.
    sampled_refs = refs * (SAMPLED_REFS // FULL_REFS)

    print(f"hot-path throughput benchmark: {len(SYSTEMS)} presets × "
          f"{len(WORKLOADS)} workloads, {refs} refs, best of {repeats}")
    calibration = calibration_score()
    cells = run_matrix(refs, repeats, calibration)
    cells.append(run_sampled_cell(sampled_refs, repeats, calibration))

    regressions = 0
    if args.check_against:
        regressions = check_regression(cells, args.check_against,
                                       args.tolerance, calibration)

    if not args.no_write:
        write_output(cells, args.output, merge=not args.replace)

    if regressions:
        print(f"FAILED: {regressions} cell(s) regressed by more than "
              f"{args.tolerance:.0%} vs {args.check_against}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
