"""Smoke tests of the refs/sec benchmark harness (``tools/bench.py``).

They spawn the harness seven times and one of them gates on wall-clock
speed, so they stay out of the default test run (the file name does not
match pytest's ``test_*.py`` pattern).  Run them explicitly::

    python -m pytest tools/check_bench_harness.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestBenchHarness:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "tools", "bench.py"),
             "--refs", "300", "--repeats", "1", *args],
            cwd=REPO_ROOT, capture_output=True, text=True)

    def test_matrix_check_and_regression_gate(self, tmp_path):
        out = tmp_path / "bench.json"
        first = self._run("--repeats", "2", "--output", str(out))
        assert first.returncode == 0, first.stdout + first.stderr
        payload = json.loads(out.read_text())
        # 4 presets x 3 workloads, plus the SMARTS-sampled cell.
        assert len(payload["cells"]) == 13
        assert all(cell["calibration_ops_per_sec"] > 0
                   for cell in payload["cells"])
        sampled = [c for c in payload["cells"]
                   if c["workload"] == "gups_sampled"]
        assert len(sampled) == 1
        assert sampled[0]["sampling"]["skipped_refs"] > 0
        assert sampled[0]["sampling"]["cycles_per_ref_mean"] > 0

        # Same machine, same mode: the self-check must pass.  The 300-ref
        # cells finish in milliseconds, so single-shot timing noise (one GC
        # pause) can swing a cell far more than real simulator regressions
        # ever would — damp with best-of-2 and a loose tolerance; the
        # inflated-baseline case below still proves the gate fires.
        ok = self._run("--repeats", "2", "--no-write",
                       "--check-against", str(out), "--tolerance", "0.60")
        assert ok.returncode == 0, ok.stdout + ok.stderr

        # ...and an impossible baseline (10x the measured rate) must fail.
        for cell in payload["cells"]:
            cell["refs_per_sec"] = cell["refs_per_sec"] * 10
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps(payload))
        bad = self._run("--no-write", "--check-against", str(inflated))
        assert bad.returncode == 1
        assert "REGRESSION" in bad.stdout

    def test_writes_merge_by_default(self, tmp_path):
        out = tmp_path / "bench.json"
        assert self._run("--output", str(out)).returncode == 0
        assert self._run("--refs", "200", "--output", str(out)).returncode == 0
        cells = json.loads(out.read_text())["cells"]
        # Both modes' cells coexist: nothing was clobbered.  The sampled
        # cell's budget is 10x the matrix refs, so each mode contributes
        # 12 matrix cells plus one sampled cell at 10x.
        assert {cell["refs"] for cell in cells} == {200, 300, 2000, 3000}
        assert len(cells) == 26

    def test_check_fails_clearly_on_missing_baseline_keys(self, tmp_path):
        out = tmp_path / "bench.json"
        assert self._run("--output", str(out)).returncode == 0
        payload = json.loads(out.read_text())
        # Strip one system's cells: the check must fail loudly instead of
        # silently skipping the unmatched keys (the historical behaviour).
        payload["cells"] = [c for c in payload["cells"]
                            if c["system"] != "hash_pt"]
        pruned = tmp_path / "pruned.json"
        pruned.write_text(json.dumps(payload))
        result = self._run("--no-write", "--check-against", str(pruned))
        assert result.returncode != 0
        assert "no matching" in result.stderr
        assert "hash_pt" in result.stderr
        assert "like-for-like" in result.stderr
