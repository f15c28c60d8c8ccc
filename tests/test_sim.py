"""Unit tests for repro.sim: configuration, presets, the system factory, the simulator."""

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.mmu.mmu import MMU
from repro.sim.config import (
    CacheConfig,
    DramTimingConfig,
    MMUConfig,
    SystemConfig,
    TLBConfig,
    VictimaConfig,
)
from repro.sim.presets import (
    EVALUATED_NATIVE_SYSTEMS,
    EVALUATED_VIRTUAL_SYSTEMS,
    make_system_config,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import build_system
from repro.workloads.registry import make_workload
from tests.conftest import build_tiny_simulator


class TestConfig:
    def test_default_system_is_table3_baseline(self):
        config = SystemConfig()
        assert config.kind == "radix"
        assert config.mmu.l2_tlb.entries == 1536
        assert config.mmu.l2_tlb.latency == 12
        assert config.l2_cache.size_bytes == 2 * 1024 * 1024
        assert config.l2_cache.latency == 16
        config.validate()

    def test_tlb_config_validation(self):
        with pytest.raises(ConfigurationError):
            TLBConfig(entries=10, associativity=4, latency=1).validate()

    def test_cache_config_validation(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, associativity=3, latency=1).validate()

    def test_l3_tlb_system_requires_l3_tlb(self):
        config = SystemConfig(kind="l3_tlb")
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_victima_requires_srrip_family(self):
        for kind in ("victima", "virt_victima"):
            config = SystemConfig(kind=kind)
            config.l2_cache.replacement_policy = "lru"
            with pytest.raises(ConfigurationError):
                config.validate()


class TestPresets:
    @pytest.mark.parametrize("name", EVALUATED_NATIVE_SYSTEMS + EVALUATED_VIRTUAL_SYSTEMS)
    def test_all_evaluated_systems_build(self, name):
        config = make_system_config(name)
        config.validate()

    def test_opt_l2tlb_sizes(self):
        config = make_system_config("opt_l2tlb_64k")
        assert config.mmu.l2_tlb.entries == 64 * 1024
        assert config.mmu.l2_tlb.latency == 12

    def test_real_l2tlb_uses_cacti_latency(self):
        config = make_system_config("real_l2tlb_64k")
        assert config.mmu.l2_tlb.latency == 39

    def test_l3_tlb_latency_override(self):
        config = make_system_config("opt_l3tlb_64k", l3_latency=25)
        assert config.mmu.l3_tlb.latency == 25

    def test_victima_variants(self):
        assert make_system_config("victima_srrip").l2_cache.replacement_policy == "srrip"
        assert make_system_config("victima_no_predictor").victima.use_predictor is False
        assert make_system_config("victima_miss_only").victima.insert_on_eviction is False

    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            make_system_config("warp-drive")

    def test_hardware_scale_shrinks_capacities(self):
        base = make_system_config("radix")
        scaled = make_system_config("radix", hardware_scale=8)
        assert scaled.mmu.l2_tlb.entries < base.mmu.l2_tlb.entries
        assert scaled.l2_cache.size_bytes < base.l2_cache.size_bytes
        assert scaled.mmu.l2_tlb.latency == base.mmu.l2_tlb.latency
        scaled.validate()

    def test_l2_cache_bytes_override(self):
        config = make_system_config("victima", l2_cache_bytes=4 * 1024 * 1024)
        assert config.l2_cache.size_bytes == 4 * 1024 * 1024
        assert config.l2_cache.replacement_policy == "tlb_aware_srrip"


class TestSystemFactory:
    def test_radix_system(self):
        system = build_system(make_system_config("radix", hardware_scale=16))
        assert isinstance(system.cores[0].mmu, MMU)
        assert system.backend.victima is None and system.backend.pom_tlb is None
        assert not system.is_virtualized

    def test_victima_system_wiring(self):
        core = build_system(make_system_config("victima", hardware_scale=16)).cores[0]
        assert core.victima is not None
        assert core.backend.victima is core.victima
        assert core.victima.l2_cache is core.hierarchy.l2
        assert core.l2_cache.policy.name == "tlb_aware_srrip"

    def test_pom_system(self):
        system = build_system(make_system_config("pom_tlb", hardware_scale=16))
        assert system.shared is not None
        assert system.backend.pom_tlb is system.shared

    def test_l3_tlb_system(self):
        system = build_system(make_system_config("opt_l3tlb_64k", hardware_scale=16))
        assert system.backend.l3_tlb is not None

    def test_virtualized_system(self):
        system = build_system(make_system_config("nested_paging", hardware_scale=16))
        assert isinstance(system.cores[0].mmu, MMU)
        assert system.is_virtualized
        assert system.nested_walker is not None
        assert system.page_table is system.shadow_builder.table

    def test_virt_victima_system(self):
        system = build_system(make_system_config("virt_victima", hardware_scale=16))
        assert system.is_virtualized
        assert system.cores[0].victima is not None
        assert system.cores[0].victima.host_page_table is not None

    @pytest.mark.parametrize("num_cores", [1, 2])
    def test_dram_takes_configured_timing(self, num_cores):
        config = make_system_config("radix", hardware_scale=16, num_cores=num_cores)
        config.dram = DramTimingConfig(row_hit_latency=90, row_miss_latency=200,
                                       num_banks=4)
        system = build_system(config)
        dram = system.dram
        assert (dram.row_hit_latency, dram.row_miss_latency, dram.num_banks) == (90, 200, 4)
        for core in system.cores:
            assert core.hierarchy.dram is dram

    def test_huge_page_fraction_propagates(self):
        system = build_system(make_system_config("radix", hardware_scale=16),
                              huge_page_fraction=1.0)
        assert system.memory_manager.huge_page_fraction == 1.0


class TestSimulator:
    def test_radix_run_produces_sane_result(self):
        result = build_tiny_simulator("radix", "rnd", max_refs=500).run()
        assert isinstance(result, SimulationResult)
        assert result.memory_refs == 500
        assert result.instructions > 500
        assert result.cycles > result.instructions * 0.3
        assert result.l2_tlb_misses > 0
        assert result.page_walks > 0
        assert result.l2_tlb_mpki > 5
        assert 0 < result.translation_cycle_fraction < 1

    def test_summary_keys(self):
        result = build_tiny_simulator("radix", "rnd", max_refs=300).run()
        summary = result.summary()
        for key in ("workload", "system", "ipc", "l2_tlb_mpki", "page_walks"):
            assert key in summary

    def test_victima_run_collects_victima_stats(self):
        result = build_tiny_simulator("victima", "rnd", max_refs=800).run()
        assert result.victima_stats is not None
        assert result.victima_stats["probes"] > 0
        assert result.served_by.get("victima_block", 0) >= 0

    def test_pom_run_collects_pom_stats(self):
        result = build_tiny_simulator("pom_tlb", "rnd", max_refs=500).run()
        assert result.pom_tlb_stats is not None
        assert result.pom_tlb_stats["lookups"] > 0

    def test_virtualized_run(self):
        result = build_tiny_simulator("nested_paging", "rnd", max_refs=400).run()
        assert result.host_page_walks > 0
        assert result.nested_stats is not None
        assert result.miss_latency_breakdown.get("host", 0) > 0

    def test_warmup_reduces_measured_instructions(self):
        cold = build_tiny_simulator("radix", "rnd", max_refs=600, warmup_fraction=0.0).run()
        warm = build_tiny_simulator("radix", "rnd", max_refs=600, warmup_fraction=0.5)
        warm_result = warm.run()
        assert warm_result.memory_refs == 300
        assert warm_result.instructions < cold.instructions

    def test_prefault_populates_page_table(self):
        simulator = build_tiny_simulator("radix", "rnd", max_refs=100)
        mapped = simulator.prefault()
        assert mapped > 0
        assert simulator.system.memory_manager.footprint_bytes > 0

    @pytest.mark.parametrize("num_cores", [1, 2])
    def test_prefault_warms_once_through_core_zero(self, num_cores, monkeypatch):
        simulator = api.build_simulator({
            "system": "pom_tlb", "max_refs": 200, "hardware_scale": 16,
            "num_cores": num_cores,
            "workload": {"kind": "mix", "tenants": [{"workload": "bfs"},
                                                    {"workload": "rnd"}]}})
        system = simulator.system
        calls = []
        for core in system.cores:
            warm_start = core.backend.warm_start
            monkeypatch.setattr(
                core.backend, "warm_start",
                lambda table, backend=core.backend, warm=warm_start:
                    calls.append(backend) or warm(table))
        simulator.prefault()
        assert len(calls) == 1
        assert calls[0] is system.backend is system.cores[0].backend

    def test_determinism_across_runs(self):
        first = build_tiny_simulator("radix", "bfs", max_refs=400).run()
        second = build_tiny_simulator("radix", "bfs", max_refs=400).run()
        assert first.cycles == second.cycles
        assert first.l2_tlb_misses == second.l2_tlb_misses

    def test_invalid_warmup_fraction(self):
        system = build_system(make_system_config("radix", hardware_scale=16))
        with pytest.raises(ValueError):
            Simulator(system, [make_workload("rnd", max_refs=100)], warmup_fraction=1.0)

    def test_build_simulator_uses_workload_thp_mix(self):
        simulator = api.build_simulator({"system": "radix", "hardware_scale": 16,
                                         "workload": "dlrm", "max_refs": 10})
        expected = make_workload("dlrm", max_refs=10).default_huge_page_fraction
        assert simulator.system.memory_manager.huge_page_fraction == expected
