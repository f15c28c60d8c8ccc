"""Integration tests: end-to-end behaviours the paper's evaluation relies on.

These use very small simulation windows and an aggressively scaled machine so
they run in seconds, but they exercise the full stack (workload generator ->
MMU -> Victima / baselines -> cache hierarchy -> DRAM) and check the headline
qualitative claims.
"""

import pytest

from repro import api

SCALE = 16
REFS = 3_000


def run(system_name: str, workload: str = "rnd", refs: int = REFS,
        warmup: float = 0.3, **overrides):
    return api.build_simulator({
        "system": system_name, "system_overrides": overrides,
        "hardware_scale": SCALE, "workload": workload, "max_refs": refs,
        "seed": 13, "warmup_fraction": warmup}).run()


@pytest.fixture(scope="module")
def radix_rnd():
    return run("radix")


@pytest.fixture(scope="module")
def victima_rnd():
    return run("victima")


@pytest.fixture(scope="module")
def nested_rnd():
    return run("nested_paging")


@pytest.fixture(scope="module")
def virt_victima_rnd():
    return run("virt_victima")


class TestBaselineCharacterisation:
    def test_workloads_are_tlb_intensive(self, radix_rnd):
        # Table 4's selection criterion: L2 TLB MPKI above 5.
        assert radix_rnd.l2_tlb_mpki > 5

    def test_walk_latency_is_expensive(self, radix_rnd):
        # Walks should cost tens of cycles (PWC-hit upper levels + memory leaf).
        assert radix_rnd.ptw_mean_latency > 30

    def test_l2_data_blocks_show_little_reuse(self, radix_rnd):
        buckets = radix_rnd.l2_data_reuse_buckets
        assert buckets["0"] > 0.5

    def test_translation_is_a_significant_fraction_of_time(self, radix_rnd):
        assert radix_rnd.translation_cycle_fraction > 0.1


class TestVictimaClaims:
    def test_victima_reduces_page_walks(self, radix_rnd, victima_rnd):
        assert victima_rnd.page_walks < radix_rnd.page_walks

    def test_victima_reduces_l2_tlb_miss_latency(self, radix_rnd, victima_rnd):
        assert (victima_rnd.l2_tlb_miss_latency_mean
                < radix_rnd.l2_tlb_miss_latency_mean)

    def test_victima_improves_performance(self, radix_rnd, victima_rnd):
        assert victima_rnd.cycles < radix_rnd.cycles

    def test_victima_blocks_show_high_reuse(self, victima_rnd):
        stats = victima_rnd.victima_stats
        assert stats["block_hits"] > 0
        assert stats["probe_hit_rate"] > 0.2

    def test_victima_provides_translation_reach(self, victima_rnd):
        assert victima_rnd.mean_translation_reach_bytes > 0

    def test_mpki_is_unchanged_by_victima(self, radix_rnd, victima_rnd):
        # Victima does not change the TLB hierarchy itself, only what happens
        # after an L2 TLB miss, so the MPKI must stay the same.
        assert victima_rnd.l2_tlb_mpki == pytest.approx(radix_rnd.l2_tlb_mpki, rel=0.05)


class TestLargeTLBBaselines:
    def test_bigger_tlb_reduces_mpki(self, radix_rnd):
        big = run("opt_l2tlb_64k")
        assert big.l2_tlb_mpki < radix_rnd.l2_tlb_mpki

    def test_realistic_latency_erodes_the_benefit(self):
        optimistic = run("opt_l2tlb_64k")
        realistic = run("real_l2tlb_64k")
        assert realistic.cycles >= optimistic.cycles


class TestVirtualizedClaims:
    def test_nested_paging_is_more_expensive_than_native(self, radix_rnd, nested_rnd):
        assert nested_rnd.l2_tlb_miss_latency_mean > radix_rnd.l2_tlb_miss_latency_mean

    def test_victima_helps_more_in_virtualized_execution(self, radix_rnd, victima_rnd,
                                                         nested_rnd, virt_victima_rnd):
        native_speedup = radix_rnd.cycles / victima_rnd.cycles
        virt_speedup = nested_rnd.cycles / virt_victima_rnd.cycles
        assert virt_speedup > native_speedup

    def test_victima_nearly_eliminates_host_walks(self, nested_rnd, virt_victima_rnd):
        assert virt_victima_rnd.host_page_walks < 0.5 * nested_rnd.host_page_walks

    def test_ideal_shadow_paging_beats_nested_paging(self, nested_rnd):
        shadow = run("ideal_shadow")
        assert shadow.cycles < nested_rnd.cycles
        assert shadow.host_page_walks == 0


def _victima_rnd_simulator():
    return api.build_simulator({"system": "victima", "hardware_scale": SCALE,
                                "workload": "rnd", "max_refs": 1_000, "seed": 13,
                                "warmup_fraction": 0.0})


class TestMaintenanceIntegration:
    def test_full_flush_invalidates_victima_blocks(self):
        simulator = _victima_rnd_simulator()
        simulator.run()
        core = simulator.system.cores[0]
        assert core.victima.resident_tlb_blocks()
        result = core.maintenance.flush_all()
        assert result.cache_blocks_invalidated > 0
        assert not core.victima.resident_tlb_blocks()

    def test_shootdown_after_unmap(self):
        simulator = _victima_rnd_simulator()
        simulator.run()
        core = simulator.system.cores[0]
        entry = next(
            pte for block in core.victima.resident_tlb_blocks()
            for pte in (block.payload or []) if pte is not None)
        vaddr = entry.vpn << entry.page_size.offset_bits
        result = core.maintenance.shootdown_page(vaddr, asid=0)
        assert result.cache_blocks_invalidated >= 1
