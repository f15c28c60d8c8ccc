"""Unit tests for repro.core: PTW-CP (comparator + MLPs), training, Victima controller."""

import numpy as np
import pytest

from repro.cache.block import BlockKind, data_key
from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.replacement import TLBAwareSRRIPPolicy
from repro.common.addresses import PageSize
from repro.common.pressure import PressureMonitor
from repro.core.mlp import MLPClassifier
from repro.core.ptw_cp import BoundingBox, ComparatorPTWCostPredictor
from repro.core.ptw_cp_training import (
    COSTLY_FRACTION,
    FEATURES_NN2,
    PTWCPDataset,
    build_synthetic_dataset,
    decision_region,
    evaluate_predictions,
    label_by_cost,
    make_nn2,
    make_nn5,
    make_nn10,
    train_and_evaluate_models,
)
from repro.core.victima import VictimaController
from repro.experiments.ptwcp import build_dataset_from_simulation
from repro.memory.dram import DramModel
from repro.memory.page_allocator import VirtualMemoryManager
from repro.memory.physical import PhysicalMemory
from repro.mmu.page_walker import PageTableWalker
from repro.mmu.pwc import PageWalkCaches
from repro.mmu.tlb import TLB, TLBEntry
from repro.sim.simulator import Simulator
from tests.conftest import built_entries


# --------------------------------------------------------------------------- #
# Comparator predictor
# --------------------------------------------------------------------------- #
class TestBoundingBox:
    def test_inside(self):
        box = BoundingBox(min_frequency=1, min_cost=1)
        assert box.contains(1, 1)
        assert box.contains(7, 15)

    def test_outside(self):
        box = BoundingBox(min_frequency=1, min_cost=1)
        assert not box.contains(0, 5)
        assert not box.contains(5, 0)

    def test_upper_corner(self):
        box = BoundingBox(min_frequency=1, min_cost=1, max_frequency=4, max_cost=4)
        assert not box.contains(5, 2)


class TestComparatorPredictor:
    def test_predicts_costly_pages(self, page_table):
        predictor = ComparatorPTWCostPredictor()
        pte = page_table.map_page(vpn=0x1, pfn=0x1)
        assert not predictor.predict(pte)
        pte.record_walk(cycles=200, dram_accesses=2, pwc_hits=0)
        assert predictor.predict(pte)

    def test_size_is_24_bytes(self):
        assert ComparatorPTWCostPredictor().size_bytes == 24

    def test_fit_recovers_separable_thresholds(self):
        rng = np.random.default_rng(0)
        frequency = rng.integers(0, 8, 500)
        cost = rng.integers(0, 16, 500)
        labels = ((frequency >= 2) & (cost >= 2)).astype(int)
        features = np.column_stack([frequency, cost])
        predictor = ComparatorPTWCostPredictor.fit(features, labels)
        assert predictor.box.min_frequency == 2
        assert predictor.box.min_cost == 2


# --------------------------------------------------------------------------- #
# MLP and the Table 2 pipeline
# --------------------------------------------------------------------------- #
class TestMLP:
    def test_learns_separable_function(self):
        rng = np.random.default_rng(1)
        x = rng.random((600, 2))
        y = (x[:, 0] + x[:, 1] > 1.0).astype(int)
        model = MLPClassifier([2, 8, 1], seed=1, learning_rate=0.5)
        model.fit(x, y, epochs=80, seed=1)
        accuracy = (model.predict(x) == y).mean()
        assert accuracy > 0.9

    def test_size_bytes_counts_parameters(self):
        model = MLPClassifier([2, 4, 1])
        assert model.num_parameters == 2 * 4 + 4 + 4 * 1 + 1
        assert model.size_bytes == model.num_parameters * 4

    def test_nn2_is_smallest_nn(self):
        assert make_nn2().size_bytes < make_nn10().size_bytes < make_nn5().size_bytes

    def test_invalid_architecture(self):
        with pytest.raises(ValueError):
            MLPClassifier([4])
        with pytest.raises(ValueError):
            MLPClassifier([4, 2])  # output layer must have one unit

    def test_predict_proba_in_range(self):
        model = MLPClassifier([3, 4, 1], seed=0)
        probs = model.predict_proba(np.random.default_rng(0).random((10, 3)))
        assert np.all((probs >= 0) & (probs <= 1))


class TestTrainingPipeline:
    def test_synthetic_dataset_shape_and_balance(self):
        dataset = build_synthetic_dataset(num_pages=1000, seed=3)
        assert len(dataset) == 1000
        assert dataset.features.shape == (1000, 10)
        assert 0.15 <= dataset.positive_fraction <= 0.45

    def test_split_is_deterministic(self):
        dataset = build_synthetic_dataset(num_pages=500, seed=3)
        train_a, test_a = dataset.split(seed=9)
        train_b, test_b = dataset.split(seed=9)
        assert np.array_equal(train_a.features, train_b.features)
        assert len(train_a) + len(test_a) == 500

    def test_label_by_cost_fraction(self):
        costs = np.arange(1000, dtype=float)
        labels = label_by_cost(costs, costly_fraction=0.3)
        assert labels.sum() == pytest.approx(300, abs=2)

    def test_evaluate_predictions_perfect(self):
        labels = np.array([0, 1, 1, 0])
        metrics = evaluate_predictions(labels, labels)
        assert metrics.accuracy == 1.0
        assert metrics.f1_score == 1.0

    def test_evaluate_predictions_all_wrong(self):
        labels = np.array([0, 1, 1, 0])
        metrics = evaluate_predictions(labels, 1 - labels)
        assert metrics.accuracy == 0.0
        assert metrics.f1_score == 0.0

    def test_table2_pipeline_produces_four_models(self):
        dataset = build_synthetic_dataset(num_pages=1200, seed=5)
        rows = train_and_evaluate_models(dataset, epochs=15, seed=5)
        names = [row.name for row in rows]
        assert names == ["NN-10", "NN-5", "NN-2", "Comparator"]
        comparator = rows[-1]
        assert comparator.size_bytes == 24
        assert comparator.metrics.f1_score > 0.5

    def test_decision_region_shape(self):
        predictor = ComparatorPTWCostPredictor(BoundingBox(1, 1))
        grid = decision_region(predictor, max_frequency=7, max_cost=15)
        assert grid.shape == (8, 16)
        assert bool(grid[0, 5]) is False
        assert bool(grid[3, 5]) is True

    def test_simulation_harvest_reads_only_touched_entries(self, monkeypatch):
        # Each run's page table, with its packed leaves counted as the run ends.
        runs = []
        run = Simulator.run

        def run_and_count(simulator):
            result = run(simulator)
            table = simulator.system.page_table
            runs.append((table, table.num_leaf_entries - built_entries(table)))
            return result

        monkeypatch.setattr(Simulator, "run", run_and_count)
        dataset = build_dataset_from_simulation(("rnd", "bfs"), max_refs=3000)
        assert len(runs) == 2 and all(packed > 0 for _, packed in runs)
        assert [table.num_leaf_entries - built_entries(table) for table, _ in runs] == [
            packed for _, packed in runs]
        rows, costs = [], []
        for table, _ in runs:
            for pte in table.all_entries():
                if pte.features.accesses == 0:
                    continue
                rows.append(pte.features.as_vector())
                costs.append(pte.total_ptw_cycles)
        assert np.array_equal(dataset.features, np.asarray(rows, dtype=float))
        assert np.array_equal(dataset.labels,
                              label_by_cost(np.asarray(costs, dtype=float), COSTLY_FRACTION))

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            PTWCPDataset(np.zeros((3, 10)), np.zeros(4))
        with pytest.raises(ValueError):
            PTWCPDataset(np.zeros((3, 9)), np.zeros(3))


# --------------------------------------------------------------------------- #
# Victima controller
# --------------------------------------------------------------------------- #
def make_victima(use_predictor=False, insert_on_eviction=True):
    physical = PhysicalMemory(4 << 30)
    l1d = Cache("L1D", 1024, 4, 4)
    pressure = PressureMonitor()
    l2 = Cache("L2", 64 * 1024, 16, 16, replacement_policy=TLBAwareSRRIPPolicy(pressure))
    hierarchy = CacheHierarchy(l1d, l2, None, DramModel())
    vmm = VirtualMemoryManager(physical, asid=0, huge_page_fraction=0.0)
    walker = PageTableWalker(hierarchy, PageWalkCaches())
    victima = VictimaController(
        l2_cache=l2, page_table=vmm.page_table, walker=walker,
        predictor=ComparatorPTWCostPredictor(), pressure=pressure,
        use_predictor=use_predictor, insert_on_eviction=insert_on_eviction,
        bypass_on_low_locality=False)
    return victima, vmm, walker, l2


class TestVictimaController:
    def test_probe_miss_then_insert_then_hit(self):
        victima, vmm, _, l2 = make_victima()
        vaddr = 0x1234_5000
        pte = vmm.ensure_mapped(vaddr)
        assert victima.probe(vaddr, asid=0)[0] is None
        assert victima.on_l2_tlb_miss(pte)
        found, latency = victima.probe(vaddr, asid=0)
        assert found is pte
        assert latency == l2.latency
        assert victima.stats.block_hits == 1

    def test_block_covers_whole_cluster(self):
        victima, vmm, _, _ = make_victima()
        base = 0x7000_0000
        for i in range(8):
            vmm.ensure_mapped(base + i * 4096)
        victima.on_l2_tlb_miss(vmm.page_table.translate(base))
        # Any page of the 8-page cluster must now be served by the block.
        for i in range(8):
            found, _ = victima.probe(base + i * 4096, asid=0)
            assert found is not None

    def test_duplicate_insertion_skipped(self):
        victima, vmm, _, _ = make_victima()
        pte = vmm.ensure_mapped(0x1000)
        assert victima.on_l2_tlb_miss(pte)
        assert not victima.on_l2_tlb_miss(pte)
        assert victima.stats.duplicate_blocks_skipped >= 1

    def test_predictor_rejects_cheap_pages(self):
        victima, vmm, _, _ = make_victima(use_predictor=True)
        pte = vmm.ensure_mapped(0x1000)
        assert not victima.on_l2_tlb_miss(pte)   # counters are zero => not costly
        assert victima.stats.predictor_rejections == 1
        pte.record_walk(cycles=300, dram_accesses=3, pwc_hits=0)
        assert victima.on_l2_tlb_miss(pte)

    def test_bypass_on_low_locality(self, high_pressure):
        victima, vmm, _, _ = make_victima(use_predictor=True)
        victima.bypass_on_low_locality = True
        victima.pressure = high_pressure
        pte = vmm.ensure_mapped(0x1000)
        assert victima.on_l2_tlb_miss(pte)
        assert victima.stats.predictor_bypasses == 1

    def test_eviction_triggers_background_walk(self):
        victima, vmm, walker, _ = make_victima()
        pte = vmm.ensure_mapped(0x9000_0000)
        entry = TLBEntry(vpn=pte.vpn, asid=0, page_size=pte.page_size, pte=pte)
        assert victima.on_l2_tlb_eviction(entry)
        assert walker.stats.background_walks == 1
        assert victima.stats.insertions_on_eviction == 1
        assert victima.probe(0x9000_0000, asid=0)[0] is pte

    def test_eviction_insertion_can_be_disabled(self):
        victima, vmm, walker, _ = make_victima(insert_on_eviction=False)
        pte = vmm.ensure_mapped(0x9000_0000)
        entry = TLBEntry(vpn=pte.vpn, asid=0, page_size=pte.page_size, pte=pte)
        assert not victima.on_l2_tlb_eviction(entry)
        assert walker.stats.background_walks == 0

    def test_transformation_invalidates_pte_data_block(self):
        victima, vmm, walker, l2 = make_victima()
        vaddr = 0x5000_0000
        pte = vmm.ensure_mapped(vaddr)
        walker.walk(vmm.page_table, vaddr)  # brings the PTE block into the L2
        assert l2.contains(data_key(pte.cluster_block_paddr))
        victima.on_l2_tlb_miss(pte)
        assert not l2.contains(data_key(pte.cluster_block_paddr))
        assert victima.stats.data_blocks_transformed == 1

    def test_translation_reach(self):
        victima, vmm, _, _ = make_victima()
        base = 0x8000_0000
        for i in range(8):
            vmm.ensure_mapped(base + i * 4096)
        victima.on_l2_tlb_miss(vmm.page_table.translate(base))
        assert victima.translation_reach_bytes() == 8 * 4096
        assert victima.translation_reach_bytes(assume_4k=True) == 8 * 4096

    def test_invalidate_page_removes_block(self):
        victima, vmm, _, _ = make_victima()
        pte = vmm.ensure_mapped(0x1000)
        victima.on_l2_tlb_miss(pte)
        assert victima.invalidate_page(0x1000, asid=0) == 1
        assert victima.probe(0x1000, asid=0)[0] is None

    def test_invalidate_asid(self):
        victima, vmm, _, _ = make_victima()
        pte = vmm.ensure_mapped(0x1000)
        victima.on_l2_tlb_miss(pte)
        assert victima.invalidate_asid(asid=0) == 1
        assert victima.invalidate_asid(asid=0) == 0

    def test_invalidate_all(self):
        victima, vmm, _, _ = make_victima()
        for vaddr in (0x1000, 0x2000_0000):
            victima.on_l2_tlb_miss(vmm.ensure_mapped(vaddr))
        assert victima.invalidate_all() == 2

    def test_reuse_distribution_after_eviction(self):
        victima, vmm, _, l2 = make_victima()
        pte = vmm.ensure_mapped(0x1000)
        victima.on_l2_tlb_miss(pte)
        victima.probe(0x1000, asid=0)
        victima.probe(0x1000, asid=0)
        victima.invalidate_all()
        distribution = victima.tlb_block_reuse_distribution()
        assert sum(distribution.values()) == 1
        assert list(distribution.keys()) == [2]

    def test_2m_pages_supported(self):
        victima, _, _, _ = make_victima()
        physical = PhysicalMemory(4 << 30)
        vmm_huge = VirtualMemoryManager(physical, asid=0, huge_page_fraction=1.0)
        victima.page_table = vmm_huge.page_table
        pte = vmm_huge.ensure_mapped(0x4000_0000)
        assert pte.page_size is PageSize.SIZE_2M
        victima.on_l2_tlb_miss(pte)
        found, _ = victima.probe(0x4000_0000 + 12345, asid=0)
        assert found is pte
