"""ScenarioSpec: parsing, validation, content hashing and workload building."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.common.toml_compat import _parse_mini_toml, loads_toml
from repro.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    WorkloadSpec,
    _distribute,
    list_scenarios,
    load_scenario,
)
from repro.traces.combinators import MixWorkload, PhasedWorkload

MIX_TOML = """
name = "two-tenant-mix"
system = "victima"
max_refs = 6000
seed = 11
hardware_scale = 8

[system_overrides]
l2_cache_bytes = 1048576

[workload]
kind = "mix"

[[workload.tenants]]
workload = "bfs"
weight = 2.0

[[workload.tenants]]
workload = "rnd"
weight = 1.0
[workload.tenants.params]
table_bytes = 8388608
"""


class TestWorkloadSpec:
    def test_leaf_from_string(self):
        spec = WorkloadSpec.from_dict("bfs")
        assert spec.kind == "workload" and spec.workload == "bfs"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WorkloadSpec.from_dict({"workload": "nope"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload node kind"):
            WorkloadSpec(kind="blend")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload node key"):
            WorkloadSpec.from_dict({"workload": "bfs", "wieght": 2})

    def test_mix_needs_children(self):
        with pytest.raises(ConfigurationError, match="needs children"):
            WorkloadSpec(kind="mix")

    def test_children_alias_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="child aliases"):
            WorkloadSpec.from_dict({
                "kind": "mix",
                "tenants": [{"workload": "bfs"}],
                "phases": [{"workload": "rnd"}],
            })

    def test_kind_inferred_from_child_alias(self):
        spec = WorkloadSpec.from_dict({"tenants": [{"workload": "bfs"},
                                                   {"workload": "rnd"}]})
        assert spec.kind == "mix" and len(spec.children) == 2
        spec = WorkloadSpec.from_dict({"phases": [{"workload": "pr"},
                                                  {"workload": "bfs"}]})
        assert spec.kind == "phased"  # phases must never interleave silently

    def test_bare_children_require_explicit_kind(self):
        with pytest.raises(ConfigurationError, match="needs a 'kind'"):
            WorkloadSpec.from_dict({"children": [{"workload": "bfs"}]})

    def test_round_trip_through_dict(self):
        spec = WorkloadSpec.from_dict({
            "kind": "mix",
            "children": [
                {"workload": "bfs", "weight": 2.0},
                {"workload": "rnd", "params": {"table_bytes": 1024}},
            ],
        })
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_describe(self):
        spec = WorkloadSpec.from_dict({
            "kind": "phased",
            "phases": [{"workload": "pr"}, {"workload": "bfs"}],
        })
        assert spec.describe() == "phased(pr->bfs)"


class TestBuild:
    def test_single_leaf_builds_plain_workload(self):
        spec = ScenarioSpec(workload=WorkloadSpec(kind="workload", workload="bfs"),
                            max_refs=1234, seed=9)
        workload = spec.build_workload()
        assert type(workload).__name__ == "BreadthFirstSearch"
        assert workload.config.max_refs == 1234
        assert workload.config.seed == 9

    def test_mix_budget_distribution(self):
        spec = load_scenario({
            "max_refs": 900,
            "workload": {"kind": "mix", "tenants": [
                {"workload": "bfs", "weight": 2.0},
                {"workload": "rnd", "weight": 1.0}]},
        })
        mixed = spec.build_workload()
        assert isinstance(mixed, MixWorkload)
        assert mixed.config.max_refs == 900
        inner = [tenant.inner.config.max_refs for tenant in mixed.components]
        assert sum(inner) == 900
        assert inner[0] == 600 and inner[1] == 300

    def test_phased_splits_budget_evenly(self):
        spec = load_scenario({
            "max_refs": 1000,
            "workload": {"kind": "phased", "phases": [
                {"workload": "pr"}, {"workload": "bfs"}]},
        })
        ph = spec.build_workload()
        assert isinstance(ph, PhasedWorkload)
        assert [phase.config.max_refs for phase in ph.components] == [500, 500]

    @pytest.mark.parametrize("alias", ["tenants", "phases"])
    def test_under_filled_composition_measures_its_own_stream(self, alias):
        # The components' budgets sum to 600 of the declared 4000, so the
        # stream ends after 600 references.  The budget, and the 25 % warm-up
        # taken from it, must follow the stream, or the run never crosses
        # its warm-up boundary and reports a negative memory_refs.
        spec = load_scenario({
            "system": "victima", "max_refs": 4000, "hardware_scale": 16,
            "workload": {alias: [{"workload": "rnd", "max_refs": 300},
                                 {"workload": "bfs", "max_refs": 300}]},
        })
        workload = spec.build_workload()
        assert workload.config.max_refs == len(list(workload.bounded())) == 600
        result = api.build_simulator(spec).run()
        assert result.memory_refs == 450 == sum(result.data_access_levels.values())

    def test_shard_scales_inner_budget(self):
        spec = load_scenario({
            "max_refs": 100,
            "workload": {"kind": "shard", "shard_index": 1, "shard_count": 4,
                         "children": [{"workload": "rnd"}]},
        })
        sharded = spec.build_workload()
        assert sharded.inner.config.max_refs == 400
        assert len(list(sharded.bounded())) == 100

    def test_replay_node_round_trips_a_recorded_trace(self, tmp_path):
        from repro.traces import record
        from repro.workloads import make_workload

        path = str(tmp_path / "rnd.trace")
        record(make_workload("rnd", max_refs=200, seed=3), path)
        spec = load_scenario({
            "workload": {"kind": "replay", "path": path},
        })
        replayed = spec.build_workload()
        reference = make_workload("rnd", max_refs=200, seed=3)
        assert list(replayed.bounded()) == list(reference.bounded())
        with pytest.raises(ConfigurationError, match="trace file path"):
            WorkloadSpec(kind="replay")

    def test_replay_node_respects_scenario_budget(self, tmp_path):
        from repro.traces import record
        from repro.workloads import make_workload

        path = str(tmp_path / "big.trace")
        record(make_workload("rnd", max_refs=500, seed=3), path)
        spec = load_scenario({
            "max_refs": 120,
            "workload": {"kind": "replay", "path": path},
        })
        assert len(list(spec.build_workload().bounded())) == 120

    def test_nested_mix_rejected(self):
        spec = load_scenario({
            "max_refs": 600,
            "workload": {"kind": "mix", "tenants": [
                {"kind": "mix", "tenants": [{"workload": "bfs"},
                                            {"workload": "rnd"}]},
                {"workload": "xs"},
            ]},
        })
        with pytest.raises(ValueError, match="cannot be tenants"):
            spec.build_workload()

    def test_leaf_with_children_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot have children"):
            load_scenario({
                "workload": {"workload": "pr",
                             "phases": [{"workload": "bfs"}]},
            })

    def test_distribute_conserves_total(self):
        assert sum(_distribute(1000, [3.0, 2.0, 1.0])) == 1000
        assert _distribute(10, [1.0]) == [10]
        with pytest.raises(ConfigurationError):
            _distribute(10, [])


class TestScenarioSpec:
    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario key"):
            ScenarioSpec.from_dict({"sytem": "radix"})

    @pytest.mark.parametrize("max_refs", [0, -5])
    def test_reference_budget_below_one_rejected(self, max_refs):
        with pytest.raises(ConfigurationError, match="max_refs must be >= 1"):
            ScenarioSpec.from_dict({"system": "radix", "max_refs": max_refs})

    @pytest.mark.parametrize("knob,value,message", [
        ("warmup_fraction", 1.5, "warmup_fraction must be in"),
        ("warmup_fraction", 1.0, "warmup_fraction must be in"),
        ("warmup_fraction", -0.1, "warmup_fraction must be in"),
        ("hardware_scale", 0, "hardware_scale must be >= 1"),
        ("hardware_scale", -4, "hardware_scale must be >= 1"),
        ("epoch_instructions", 0, "epoch_instructions must be >= 1"),
        ("epoch_instructions", -10, "epoch_instructions must be >= 1"),
    ])
    def test_run_knob_out_of_range_rejected(self, knob, value, message):
        with pytest.raises(ConfigurationError, match=message):
            ScenarioSpec.from_dict({"system": "radix", knob: value})

    def test_from_toml_text(self):
        spec = ScenarioSpec.from_dict(loads_toml(MIX_TOML))
        assert spec.system == "victima"
        assert spec.system_overrides == (("l2_cache_bytes", 1048576),)
        assert spec.workload.children[1].params == (("table_bytes", 8388608),)
        config = spec.build_system_config()
        assert config.l2_cache.size_bytes <= 1048576

    def test_mini_parser_matches_tomllib(self):
        assert _parse_mini_toml(MIX_TOML) == loads_toml(MIX_TOML)

    def test_from_file_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "mix.toml"
        toml_path.write_text(MIX_TOML)
        from_toml = ScenarioSpec.from_file(str(toml_path))
        json_path = tmp_path / "mix.json"
        json_path.write_text(json.dumps(from_toml.to_dict()))
        from_json = ScenarioSpec.from_file(str(json_path))
        assert from_toml.content_hash() == from_json.content_hash()
        with pytest.raises(ConfigurationError, match="toml or .json"):
            ScenarioSpec.from_file(str(tmp_path / "mix.yaml"))

    def test_file_name_used_when_unnamed(self, tmp_path):
        path = tmp_path / "my_run.toml"
        path.write_text('system = "radix"\n')
        assert ScenarioSpec.from_file(str(path)).name == "my_run"


#: A bad ``system_overrides`` entry on a radix system; its error names the key.
BAD_OVERRIDES = [
    ("l3_latenc", 25),        # misspelled
    ("hardware_scale", 2),    # a top-level field
    ("l3_latency", 25),       # radix has no L3 TLB
]


class TestSystemOverrides:
    """Only ``make_system_config``'s own keywords can be overridden, and
    only where they mean something."""

    @pytest.mark.parametrize("key,value", BAD_OVERRIDES)
    def test_bad_override_raises_naming_the_key(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            load_scenario({"system": "radix",
                           "system_overrides": {key: value}}).build_system_config()

    @pytest.mark.parametrize("key,value", BAD_OVERRIDES)
    def test_cli_reports_a_bad_override(self, key, value, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.toml"
        path.write_text('system = "radix"\nmax_refs = 100\nhardware_scale = 16\n\n'
                        f'[system_overrides]\n{key} = {value}\n')
        assert main(["run", "--scenario", str(path), "--quiet"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_sweep_specs_still_build(self):
        from repro.experiments.ablations import L2_CACHE_SIZES
        from repro.experiments.large_tlbs import L3_TLB_LATENCIES
        from repro.experiments.runner import ExperimentSettings, scenario_for_run

        settings = ExperimentSettings(max_refs=100, hardware_scale=16, workloads=("rnd",))
        for latency in L3_TLB_LATENCIES:  # Figure 8
            config = scenario_for_run("opt_l3tlb_64k", "rnd", settings,
                                      l3_latency=latency).build_system_config()
            assert config.mmu.l3_tlb.latency == latency
        for size in L2_CACHE_SIZES:  # Figure 25
            config = scenario_for_run("victima", "rnd", settings,
                                      l2_cache_bytes=size).build_system_config()
            assert config.kind == "victima"


class TestContentHash:
    def test_name_and_description_excluded(self):
        spec = load_scenario("two_tenant_mix")
        renamed = dataclasses.replace(spec, name="x", description="y")
        assert spec.content_hash() == renamed.content_hash()

    def test_physical_fields_included(self):
        spec = load_scenario("two_tenant_mix")
        for change in ({"seed": 1}, {"max_refs": 1}, {"system": "radix"},
                       {"hardware_scale": 2}, {"warmup_fraction": 0.5},
                       {"label": "other"}):
            assert dataclasses.replace(spec, **change).content_hash() != \
                spec.content_hash(), change

    def test_override_order_irrelevant(self):
        first = ScenarioSpec.from_dict(
            {"system_overrides": {"l3_latency": 25, "l2_cache_bytes": 1 << 20}})
        second = ScenarioSpec.from_dict(
            {"system_overrides": {"l2_cache_bytes": 1 << 20, "l3_latency": 25}})
        assert first.content_hash() == second.content_hash()

    def test_replay_hash_tracks_trace_contents(self, tmp_path):
        from repro.traces import record
        from repro.workloads import make_workload

        path = str(tmp_path / "cap.trace")
        scenario = {"workload": {"kind": "replay", "path": path}}
        record(make_workload("rnd", max_refs=100, seed=1), path)
        first = load_scenario(scenario).content_hash()
        record(make_workload("bfs", max_refs=100, seed=1), path)
        second = load_scenario(scenario).content_hash()
        assert first != second  # re-recorded trace must not reuse stale cache

    def test_value_types_distinguished(self):
        as_int = ScenarioSpec(system_overrides=(("l3_latency", 25),))
        as_float = ScenarioSpec(system_overrides=(("l3_latency", 25.0),))
        as_bool = ScenarioSpec(system_overrides=(("l3_latency", True),))
        as_one = ScenarioSpec(system_overrides=(("l3_latency", 1),))
        hashes = {spec.content_hash()
                  for spec in (as_int, as_float, as_bool, as_one)}
        assert len(hashes) == 4


class TestRegistry:
    def test_builtins_load_and_build(self):
        for name in BUILTIN_SCENARIOS:
            spec = load_scenario(name)
            assert spec.name == name
            workload = spec.build_workload()
            assert workload.config.max_refs == spec.max_refs
            spec.build_system_config().validate()

    def test_list_scenarios_has_descriptions(self):
        listed = list_scenarios()
        assert set(listed) == set(BUILTIN_SCENARIOS)
        assert all(listed.values())

    def test_unknown_reference_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            load_scenario("no_such_scenario")
        with pytest.raises(ConfigurationError):
            load_scenario(42)
