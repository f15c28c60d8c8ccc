"""The repro.api façade: parity with the raw constructor, caching, CLI wiring."""

from __future__ import annotations

import os

import pytest

from repro import api
from repro.cli import main
from repro.experiments import runner
from repro.scenario import ScenarioSpec, WorkloadSpec
from repro.sim.presets import make_system_config
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads import make_workload

MIX_SCENARIO = {
    "name": "mix-under-test",
    "system": "victima",
    "max_refs": 1800,
    "seed": 7,
    "hardware_scale": 16,
    "warmup_fraction": 0.0,
    "workload": {"kind": "mix", "tenants": [
        {"workload": "bfs", "weight": 2.0},
        {"workload": "rnd", "weight": 1.0},
    ]},
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


class TestParity:
    def test_single_workload_scenario_matches_legacy_path(self):
        """The acceptance criterion: api.simulate == the raw constructor."""
        spec = ScenarioSpec(
            name="parity", system="victima",
            workload=WorkloadSpec(kind="workload", workload="bfs"),
            max_refs=1200, seed=7, hardware_scale=16, warmup_fraction=0.0)
        via_api = api.simulate(spec, use_cache=False)
        workload = make_workload("bfs", max_refs=1200, seed=7)
        system = build_system(make_system_config("victima", hardware_scale=16),
                              huge_page_fraction=workload.huge_page_fraction)
        raw = Simulator(system, [workload], warmup_fraction=0.0).run()
        assert via_api == raw  # full dataclass equality, every field

    def test_build_simulator_accepts_every_reference_form(self):
        spec = ScenarioSpec.from_dict(MIX_SCENARIO)
        for reference in (spec, MIX_SCENARIO):
            simulator = api.build_simulator(reference)
            assert simulator.name == "mix(bfs+rnd@1)"
            assert [w.name for w in simulator.core_workloads] == ["mix(bfs+rnd@1)"]
            assert simulator.system.config.kind == "victima"

    def test_experiment_cell_and_scenario_share_cache_entries(self):
        settings = runner.ExperimentSettings(
            max_refs=600, hardware_scale=16, warmup_fraction=0.0, seed=7,
            workloads=("rnd",))
        from_cell = api.simulate(runner.scenario_for_run("radix", "rnd", settings))
        from_mapping = api.simulate({"name": "another-name", "system": "radix",
                                     "workload": "rnd", "max_refs": 600,
                                     "hardware_scale": 16,
                                     "warmup_fraction": 0.0, "seed": 7})
        assert from_mapping is from_cell  # same in-process cache entry


class TestMixedScenarioEndToEnd:
    def test_mixed_workload_runs_and_reports(self):
        result = api.simulate(MIX_SCENARIO, use_cache=False)
        assert result.workload == "mix(bfs+rnd@1)"
        assert result.system_label == "Victima"
        assert result.memory_refs == 1800
        assert result.cycles > 0
        # Both tenants' structures were pre-faulted into one address space.
        assert result.footprint_bytes > 0

    def test_disk_cache_hit_on_second_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = api.simulate(MIX_SCENARIO)
        cache_files = list(tmp_path.glob("run_*.pkl"))
        assert len(cache_files) == 1
        runner.clear_cache()  # force the disk path

        def boom():  # the second run must not simulate at all
            raise AssertionError("cache miss: simulation re-ran")

        monkeypatch.setattr(Simulator, "run", lambda self: boom())
        second = api.simulate(MIX_SCENARIO)
        assert second == first

    def test_label_participates_in_cache_identity(self):
        settings = runner.ExperimentSettings(
            max_refs=400, hardware_scale=16, warmup_fraction=0.0, seed=7,
            workloads=("rnd",))
        plain = api.simulate(runner.scenario_for_run("radix", "rnd", settings))
        relabeled = api.simulate(runner.scenario_for_run(
            "radix", "rnd", settings, system_label="Radix (tuned)"))
        assert plain.system_label == "Radix"
        assert relabeled.system_label == "Radix (tuned)"


class TestCompare:
    def test_compare_matrix_shape(self):
        settings = runner.ExperimentSettings(
            max_refs=400, hardware_scale=16, warmup_fraction=0.0, seed=7,
            workloads=("rnd",))
        matrix = api.compare(["radix", "victima"], ["rnd"], settings=settings)
        assert set(matrix) == {"rnd"}
        assert set(matrix["rnd"]) == {"radix", "victima"}
        assert matrix["rnd"]["radix"].system_kind == "radix"


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "two_tenant_mix" in out

    def test_run_scenario_builtin_with_overrides(self, capsys):
        code = main(["run", "--scenario", "two_tenant_mix",
                     "--refs", "900", "--hardware-scale", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mix(bfsx2+rndx1)" in out
        assert "l2_tlb_mpki" in out

    def test_run_scenario_file_uses_cache_dir(self, tmp_path, capsys):
        scenario = tmp_path / "small.toml"
        scenario.write_text(
            'system = "radix"\nmax_refs = 600\nhardware_scale = 16\n'
            '[workload]\nworkload = "rnd"\n')
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            runner.clear_cache()
            assert main(["run", "--scenario", str(scenario),
                         "--cache-dir", str(cache_dir)]) == 0
        assert len(list(cache_dir.glob("run_*.pkl"))) == 1
        assert "small" in capsys.readouterr().out

    def test_run_unknown_scenario_errors(self, capsys):
        assert main(["run", "--scenario", "missing.toml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_scenario_with_invalid_knob_errors(self, tmp_path, capsys):
        scenario = tmp_path / "bad.toml"
        scenario.write_text('system = "radix"\nwarmup_fraction = 1.5\n'
                            '[workload]\nworkload = "rnd"\n')
        assert main(["run", "--scenario", str(scenario)]) == 2
        assert "repro: error: warmup_fraction" in capsys.readouterr().err

    def test_scenario_rejects_experiment_flags(self, capsys):
        assert main(["run", "--scenario", "two_tenant_mix",
                     "--jobs", "4"]) == 2
        assert "--jobs" in capsys.readouterr().err
