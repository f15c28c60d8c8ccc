"""Self-test of the benchmark: a tiny-budget pass of every workload.

Each workload runs untraced and traced on a few percent of its reference
budget and footprint.  The test checks that every named metric is printed
with its unit, that no simulation failed, that tracing left every result
digest unchanged, and that span self times account for the traced wall time.
No timing is asserted.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cells  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402


def _printed(report, metric) -> bool:
    return any(line.startswith(f"{metric.name} ") and f" {metric.unit}" in line
               for line in report.lines)


@pytest.mark.parametrize("workload", sorted(cells.WORKLOADS))
def test_tiny_untraced_pass(workload):
    report = harness.end_to_end(workload, cells.DEFAULT_SEED, 0, tiny=True)
    summary = report.summary
    assert summary["correct"] and summary["failed"] == 0, report.lines
    assert summary["attempted"] >= 1
    assert list(summary["metrics"]) == [m.name for m in harness.END_TO_END]
    for metric in harness.END_TO_END + (harness.ERROR_RATE,):
        assert _printed(report, metric), metric
    for metric in harness.END_TO_END:
        assert summary["metrics"][metric.name]["unit"] == metric.unit
        assert summary["metrics"][metric.name]["value"] > 0
    error_line = f"{harness.ERROR_RATE.name} 0 {harness.ERROR_RATE.unit} "
    assert any(line.startswith(error_line) for line in report.lines)


@pytest.mark.parametrize("workload", sorted(cells.WORKLOADS))
def test_tiny_traced_pass(workload, tmp_path):
    report = harness.per_layer(workload, cells.DEFAULT_SEED, 0, tiny=True,
                               out_dir=str(tmp_path))
    summary = report.summary
    assert summary["correct"] and summary["failed"] == 0, report.lines
    assert list(summary["metrics"]) == [m.name for m in harness.PER_LAYER]
    for metric in harness.PER_LAYER:
        assert _printed(report, metric), metric
        assert summary["metrics"][metric.name]["unit"] == metric.unit
    assert report.digests["traced"] == report.digests["untraced"]
    assert abs(report.accounted_share - 1.0) < 0.05
    dumped = json.loads((tmp_path / f"trace-{workload}-seed{cells.DEFAULT_SEED}.json")
                        .read_text())
    assert dumped["raw_spans"] and dumped["layers"]["sim.run"]["calls"]


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(cells.WORKLOADS)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    for key, metrics in (("end_to_end", harness.END_TO_END),
                         ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == \
            [tuple(m) for m in metrics]


def test_rejects_an_unknown_workload(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)  # main() unsets it
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "gups_l1", "--seed", "1", "--seconds", "1"])
    assert exit_info.value.code == 2


def test_paper_defaults_match_experiment_settings(monkeypatch):
    for knob in ("REPRO_EXPERIMENT_REFS", "REPRO_HARDWARE_SCALE", "REPRO_WARMUP_FRACTION"):
        monkeypatch.delenv(knob, raising=False)
    from repro.experiments.runner import ExperimentSettings

    settings = ExperimentSettings()
    assert (settings.max_refs, settings.hardware_scale, settings.warmup_fraction) == (
        cells.PAPER_REFS, cells.PAPER_HARDWARE_SCALE, cells.PAPER_WARMUP_FRACTION)


def test_seed_reaches_the_simulator_only_through_the_spec():
    for build in cells.WORKLOADS.values():
        for spec in build(cells.HELD_OUT_SEED, tiny=True):
            assert spec.seed == cells.HELD_OUT_SEED
            assert "seed" not in spec.workload.to_dict()


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "native_fig",
         "--seed", "42", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
