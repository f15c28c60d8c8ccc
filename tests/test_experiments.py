"""Tests for the experiment runners (tiny settings so they stay fast)."""

import pytest

from repro import api
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.ablations import fig26_replacement_ablation
from repro.experiments.motivation import fig04_ptw_latency, fig05_tlb_mpki, fig11_cache_reuse
from repro.experiments.native import fig20_native_speedup, fig21_ptw_reduction
from repro.experiments.overheads import sec7_overheads
from repro.experiments.ptwcp import fig16_decision_region, table2_ptwcp
from repro.experiments.runner import (
    ExperimentSettings,
    FigureResult,
    clear_cache,
    run_matrix,
    scenario_for_run,
)
from repro.experiments.virtualized import fig27_virt_speedup

TINY = ExperimentSettings(max_refs=1_200, hardware_scale=16, warmup_fraction=0.2,
                          seed=3, workloads=("rnd", "bfs"))


@pytest.fixture(autouse=True, scope="module")
def _clean_cache():
    clear_cache()
    yield
    clear_cache()


class TestRunner:
    def test_experiment_cell_is_cached(self):
        first = api.simulate(scenario_for_run("radix", "rnd", TINY))
        second = api.simulate(scenario_for_run("radix", "rnd", TINY))
        assert first is second

    def test_experiment_cell_overrides_change_the_key(self):
        a = api.simulate(scenario_for_run("opt_l3tlb_64k", "rnd", TINY, l3_latency=15))
        b = api.simulate(scenario_for_run("opt_l3tlb_64k", "rnd", TINY, l3_latency=39))
        assert a is not b

    def test_run_matrix_shape(self):
        matrix = run_matrix(("radix", "victima"), TINY)
        assert set(matrix.keys()) == {"rnd", "bfs"}
        assert set(matrix["rnd"].keys()) == {"radix", "victima"}

    def test_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        api.simulate(scenario_for_run("radix", "rnd", TINY))
        assert list(tmp_path.glob("run_*.pkl"))
        clear_cache()
        # Second call must load from disk without error.
        result = api.simulate(scenario_for_run("radix", "rnd", TINY))
        assert result.memory_refs > 0


class TestExperimentRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        expected = {"fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
                    "fig11", "table2", "fig16", "fig20", "fig21", "fig22", "fig23",
                    "fig24", "fig25", "fig26", "fig27", "fig28", "fig29", "sec7"}
        assert expected == set(ALL_EXPERIMENTS.keys())


class TestSelectedExperiments:
    def test_fig04_structure(self):
        result = fig04_ptw_latency(TINY)
        assert isinstance(result, FigureResult)
        assert result.measured["mean PTW latency (cycles)"] > 0
        assert result.to_table()
        assert result.to_markdown().startswith("|")

    def test_fig05_mpki_decreases_with_size(self):
        result = fig05_tlb_mpki(TINY)
        mean_row = result.rows[-1]
        assert mean_row[0] == "MEAN"
        assert mean_row[-1] <= mean_row[1]

    def test_fig11_buckets(self):
        result = fig11_cache_reuse(TINY)
        assert 0 <= result.measured["mean zero-reuse fraction (%)"] <= 100

    def test_fig20_has_gmean_row(self):
        result = fig20_native_speedup(TINY)
        assert result.rows[-1][0] == "GMEAN"
        assert result.measured["Victima GMEAN speedup"] > 0.8

    def test_fig21_rows_per_workload(self):
        result = fig21_ptw_reduction(TINY)
        assert len(result.rows) == len(TINY.workloads) + 1

    def test_fig26_runs(self):
        result = fig26_replacement_ablation(TINY)
        assert "GMEAN benefit of TLB-aware SRRIP (%)" in result.measured

    def test_fig27_virtualized(self):
        result = fig27_virt_speedup(TINY)
        assert result.measured["Victima GMEAN speedup over NP"] > 0.9

    def test_table2_with_synthetic_dataset(self):
        result = table2_ptwcp(TINY, use_simulation=False, epochs=10)
        assert len(result.rows) == 4
        assert result.measured["comparator size (bytes)"] == 24
        assert 0.0 <= result.measured["comparator F1"] <= 1.0

    def test_fig16_region(self):
        result = fig16_decision_region(TINY, use_simulation=False)
        assert len(result.rows) == 8  # frequency values 0..7

    def test_sec7_overheads(self):
        result = sec7_overheads(TINY)
        assert result.measured["area overhead (%)"] < 1.0
        assert result.comparison_rows()
