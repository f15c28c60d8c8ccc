"""Additional coverage: nested Victima paths, presets sweeps, results."""

import pytest

from repro.cache.block import BlockKind
from repro.common.addresses import PageSize
from repro.sim.presets import make_system_config
from repro.sim.simulator import SimulationResult
from repro.workloads.registry import WORKLOAD_NAMES, workload_catalog
from tests.conftest import build_tiny_simulator
from tests.test_virt import make_virt_stack


class TestNestedVictimaPaths:
    def test_nested_blocks_are_tagged_as_nested(self):
        _, walker, _, victima = make_virt_stack(with_victima=True)
        walker.walk(walker.guest_vmm.page_table, 0x1234_5000)
        nested_blocks = victima.l2_cache.resident_blocks(BlockKind.NESTED_TLB)
        assert nested_blocks, "a host walk should have produced nested TLB blocks"
        assert all(block.kind is BlockKind.NESTED_TLB for block in nested_blocks)

    def test_probe_nested_does_not_match_conventional_blocks(self):
        _, walker, builder, victima = make_virt_stack(with_victima=True)
        walker.walk(walker.guest_vmm.page_table, 0x1234_5000)
        combined = builder.lookup(0x1234_5000)
        assert combined is not None
        victima.on_l2_tlb_miss(combined)  # insert a conventional TLB block
        gva = 0x1234_5000
        found, _ = victima.probe(gva, asid=0)
        assert found is combined
        # Probing the *nested* namespace with the same number must not hit the
        # conventional block.
        nested_found, _ = victima.probe_nested(gva, vmid=0)
        assert nested_found is not combined

    def test_nested_eviction_path_inserts_block(self):
        _, walker, _, victima = make_virt_stack(with_victima=True)
        walker.walk(walker.guest_vmm.page_table, 0x9000_0000)
        # Force nested TLB evictions by walking many distinct guest pages.
        for i in range(1, 40):
            walker.walk(walker.guest_vmm.page_table, 0x9000_0000 + i * 0x20_0000)
        assert victima.stats.nested_insertions > 0

    def test_invalidate_all_removes_nested_blocks_too(self):
        _, walker, _, victima = make_virt_stack(with_victima=True)
        walker.walk(walker.guest_vmm.page_table, 0x1234_5000)
        removed = victima.invalidate_all()
        assert removed >= 1
        assert not victima.resident_tlb_blocks()


class TestPresetSweeps:
    @pytest.mark.parametrize("size_token,entries", [("2k", 2048), ("8k", 8192),
                                                    ("32k", 32768), ("128k", 131072)])
    def test_opt_l2tlb_sweep_sizes(self, size_token, entries):
        config = make_system_config(f"opt_l2tlb_{size_token}")
        assert config.mmu.l2_tlb.entries == entries
        assert config.kind == "large_l2_tlb"

    @pytest.mark.parametrize("size_token,latency", [("2k", 13), ("8k", 21), ("32k", 34)])
    def test_real_l2tlb_sweep_latencies(self, size_token, latency):
        config = make_system_config(f"real_l2tlb_{size_token}")
        assert config.mmu.l2_tlb.latency == latency

    def test_scaled_configs_remain_valid_for_all_systems(self):
        for name in ("radix", "victima", "pom_tlb", "opt_l3tlb_64k", "nested_paging",
                     "virt_victima", "ideal_shadow", "virt_pom_tlb", "opt_l2tlb_64k"):
            for scale in (2, 8, 32):
                make_system_config(name, hardware_scale=scale).validate()

    def test_labels_are_human_readable(self):
        assert make_system_config("opt_l2tlb_64k").label == "Opt. L2 TLB 64K"
        assert make_system_config("virt_victima").label == "Victima (virtualized)"


class TestSimulationResultDerivedMetrics:
    def test_reach_and_reuse_buckets_defaults(self):
        result = SimulationResult(workload="x", system_label="y", system_kind="radix")
        assert result.mean_translation_reach_bytes == 0.0
        assert result.l2_tlb_mpki == 0.0
        assert result.ipc == 0.0
        assert result.tlb_block_reuse_buckets["0"] == 0.0

    def test_mpki_formula(self):
        result = SimulationResult(workload="x", system_label="y", system_kind="radix",
                                  instructions=10_000, l2_tlb_misses=50,
                                  data_l2_misses=100, cycles=20_000)
        assert result.l2_tlb_mpki == 5.0
        assert result.l2_cache_mpki == 10.0
        assert result.ipc == 0.5

    def test_victima_epoch_samples_collected(self):
        simulator = build_tiny_simulator("victima", "rnd", max_refs=1_000)
        simulator.epoch_instructions = 500
        result = simulator.run()
        assert len(result.translation_reach_samples) >= 2
        assert result.mean_translation_reach_bytes >= 0


class TestWorkloadCatalogConsistency:
    def test_catalog_covers_every_registered_workload(self):
        catalog = workload_catalog()
        assert set(catalog) == set(WORKLOAD_NAMES)
        suites = {info.suite for info in catalog.values()}
        assert suites == {"GraphBIG", "XSBench", "GUPS", "DLRM", "GenomicsBench"}

    def test_graphbig_has_seven_kernels(self):
        catalog = workload_catalog()
        graph = [name for name, info in catalog.items() if info.suite == "GraphBIG"]
        assert len(graph) == 7

    def test_dataset_sizes_match_table4(self):
        catalog = workload_catalog()
        assert catalog["xs"].paper_dataset_gb == 9.0
        assert catalog["dlrm"].paper_dataset_gb == 10.3
        assert catalog["gen"].paper_dataset_gb == 33.0


class TestMMUVictimaEvictionPath:
    def test_l2_tlb_evictions_feed_victima(self):
        simulator = build_tiny_simulator("victima", "rnd", max_refs=2_000)
        result = simulator.run()
        core = simulator.system.cores[0]
        victima = core.victima
        # With the tiny scaled L2 TLB there must have been evictions, and the
        # eviction path must have been consulted (insertions or duplicates).
        assert core.mmu.stats.l2_tlb_evictions > 0
        consulted = (victima.stats.insertions_on_eviction
                     + victima.stats.duplicate_blocks_skipped
                     + victima.stats.predictor_rejections)
        assert consulted > 0

    def test_background_walks_do_not_count_as_demand_walks(self):
        simulator = build_tiny_simulator("victima", "rnd", max_refs=2_000)
        result = simulator.run()
        core = simulator.system.cores[0]
        assert result.background_walks == core.victima.stats.background_walks
        assert result.page_walks == core.mmu.stats.page_walks
