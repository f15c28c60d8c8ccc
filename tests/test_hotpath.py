"""Hot-path engine: batched streams, fast-path parity, warm-up bugfixes.

Whole-run behaviour is pinned by goldens: the parity goldens in
``tests/test_backends.py`` and, here, ``tests/data/hotpath_golden.json``.
Its single-core runs are the results the straight-line reference loop
recorded before it was deleted; its two-core runs were re-recorded, one ULP
of ``cycles`` apart, when the two engines became one (see
``tools/gen_parity_golden.py``).
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os

import pytest

from repro import api
from repro.common.pressure import PressureMonitor
from repro.traces.combinators import dilate, mix, phased, remap, shard
from repro.workloads import make_workload
from repro.workloads.base import MemoryRef

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOTPATH_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                                   "hotpath_golden.json")

_GENERATOR_SPEC = importlib.util.spec_from_file_location(
    "gen_parity_golden", os.path.join(REPO_ROOT, "tools", "gen_parity_golden.py"))
_GENERATOR = importlib.util.module_from_spec(_GENERATOR_SPEC)
_GENERATOR_SPEC.loader.exec_module(_GENERATOR)

with open(HOTPATH_GOLDEN_PATH, encoding="utf-8") as _handle:
    _HOTPATH_GOLDEN = json.load(_handle)

TWO_CORE_SCENARIO = _GENERATOR.HOTPATH_TWO_CORE


# --------------------------------------------------------------------------- #
# Batched reference streams
# --------------------------------------------------------------------------- #
class TestBoundedBatches:
    """concat(bounded_batches()) must equal list(bounded()) exactly."""

    def _flat(self, workload, batch_size=128):
        return list(itertools.chain.from_iterable(
            workload.bounded_batches(batch_size)))

    @pytest.mark.parametrize("name", ["rnd", "bfs", "xs", "dlrm"])
    def test_plain_workloads(self, name):
        assert (self._flat(make_workload(name, max_refs=1500))
                == list(make_workload(name, max_refs=1500).bounded()))

    def test_combinators(self):
        def build():
            return {
                "remap": remap(make_workload("bfs", max_refs=900), 2),
                "mix": mix([make_workload("bfs", max_refs=700),
                            make_workload("rnd", max_refs=500)],
                           weights=[2.0, 1.0], seed=9),
                "mix_truncated": mix([make_workload("bfs", max_refs=700),
                                      make_workload("rnd", max_refs=500)],
                                     seed=9, max_refs=400),
                "phased": phased([make_workload("pr", max_refs=500),
                                  make_workload("bfs", max_refs=300)]),
                "phased_truncated": phased([make_workload("pr", max_refs=500),
                                            make_workload("bfs", max_refs=300)],
                                           max_refs=600),
                "dilate": dilate(make_workload("rnd", max_refs=400), 2.5),
                "shard": shard(make_workload("rnd", max_refs=1200), 1, 3),
            }
        streamed = {name: list(w.bounded()) for name, w in build().items()}
        batched = {name: self._flat(w) for name, w in build().items()}
        for name in streamed:
            assert streamed[name] == batched[name], name

    def test_batch_size_is_respected(self):
        workload = make_workload("rnd", max_refs=1000)
        sizes = [len(batch) for batch in workload.bounded_batches(256)]
        assert sum(sizes) == 1000
        assert all(size <= 256 for size in sizes)

    def test_memory_ref_value_semantics(self):
        ref = MemoryRef(ip=1, vaddr=2, is_write=True, instruction_gap=3)
        same = MemoryRef(ip=1, vaddr=2, is_write=True, instruction_gap=3)
        other = MemoryRef(ip=1, vaddr=2, is_write=False, instruction_gap=3)
        assert ref == same and hash(ref) == hash(same)
        assert ref != other
        assert "vaddr=2" in repr(ref)


# --------------------------------------------------------------------------- #
# Fast-path parity
# --------------------------------------------------------------------------- #
#: Every native preset the paper evaluates, plus the hashed-page-table
#: backend: the parity pins below must hold on all of them.
ALL_NATIVE_PRESETS = _GENERATOR.HOTPATH_NATIVE_PRESETS


def _canonical(result_dict: dict) -> str:
    # Round-trip through JSON so int dict keys (histograms) compare equal to
    # the string keys the golden file necessarily stores.
    return json.dumps(json.loads(json.dumps(result_dict)), sort_keys=True)


class TestFastPathParity:
    """The engine is bit-identical to the straight-line reference loop.

    That loop is deleted; ``tests/data/hotpath_golden.json`` holds the full
    results it produced on the single-core runs, which
    ``tools/gen_parity_golden.py`` builds, and the engine's own results on
    the two-core runs.
    """

    def _assert_matches_reference(self, key, multi_core=False):
        sim = api.build_simulator(_GENERATOR.hotpath_scenario(key))
        assert len(sim.core_workloads) == (2 if multi_core else 1)
        result = sim.run()
        assert _canonical(result.to_json_dict()) == _canonical(_HOTPATH_GOLDEN[key]), (
            f"{key}: the engine diverged from the committed hot-path golden")

    def test_golden_file_covers_every_generator_key(self):
        assert sorted(_HOTPATH_GOLDEN) == sorted(_GENERATOR.hotpath_keys())

    @pytest.mark.parametrize("preset,workload", [
        ("victima", "rnd"),
        ("radix", "bfs"),
    ])
    def test_single_core_full_result_equality(self, preset, workload):
        self._assert_matches_reference(f"{preset}/1core/{workload}")

    @pytest.mark.parametrize("preset", ALL_NATIVE_PRESETS)
    def test_every_native_preset_single_core(self, preset):
        self._assert_matches_reference(f"{preset}/1core/seed7")

    def test_two_core_full_result_equality(self):
        self._assert_matches_reference(
            f"{TWO_CORE_SCENARIO['system']}/2core", multi_core=True)

    @pytest.mark.parametrize("preset", ALL_NATIVE_PRESETS)
    def test_every_native_preset_two_core(self, preset):
        self._assert_matches_reference(f"{preset}/2core", multi_core=True)

    def test_virtualized_system_falls_back(self):
        # Virtualized machines once had an MMU class of their own, with no
        # translate_data, and the batched loop fell back to an adapter; they
        # now translate through MMU.translate_data, as native machines do,
        # and must still match the reference loop bit for bit.
        self._assert_matches_reference("nested_paging/1core/rnd")


# --------------------------------------------------------------------------- #
# Warm-up bugfix regressions
# --------------------------------------------------------------------------- #
class TestPressureResetAtWarmupBoundary:
    def test_pressure_monitor_reset_zeroes_rates(self):
        monitor = PressureMonitor(window_instructions=100)
        monitor.record_instructions(250)
        monitor.record_l2_tlb_miss(7)
        monitor.record_l2_cache_miss(7)
        monitor.reset_stats()
        assert monitor.total_l2_tlb_misses == monitor.total_l2_cache_misses == 0
        assert monitor.total_instructions == 0
        assert monitor.l2_tlb_mpki == monitor.l2_cache_mpki == 0.0

    def test_pressure_monitor_reset_stats(self):
        pressure = PressureMonitor(window_instructions=100)
        pressure.record_l2_tlb_miss(9)
        pressure.record_l2_cache_miss(9)
        pressure.record_instructions(500)
        assert pressure.translation_pressure_high
        pressure.reset_stats()
        assert pressure.total_l2_tlb_misses == 0
        assert pressure.total_l2_cache_misses == 0
        assert pressure.total_instructions == 0
        assert not pressure.translation_pressure_high
        assert not pressure.data_locality_low
        # Configuration survives the reset.
        assert pressure.tlb_pressure_threshold == 5.0

    def test_single_core_pressure_counts_measured_window_only(self):
        sim = api.build_simulator({"system": "victima", "workload": "rnd",
                                   "max_refs": 4000})
        result = sim.run()
        pressure = sim.system.cores[0].pressure
        # With the reset at the warm-up boundary, the monitor's totals must
        # equal the measured-window statistics exactly; before the fix they
        # also contained every warm-up instruction and miss.
        assert pressure.total_instructions == result.instructions
        assert pressure.total_l2_cache_misses == result.data_l2_misses
        assert pressure.total_l2_tlb_misses == result.l2_tlb_misses

    def test_multi_core_pressure_counts_measured_window_only(self):
        sim = api.build_simulator(dict(TWO_CORE_SCENARIO))
        result = sim.run()
        for core_result in result.per_core:
            core = sim.system.cores[core_result.core]
            assert core.pressure.total_instructions == core_result.instructions
            assert core.pressure.total_l2_cache_misses == core_result.data_l2_misses


class TestReachSamplesClearedAtMeasureStart:
    def _run(self, warmup_fraction, epoch_instructions=500):
        sim = api.build_simulator({"system": "victima", "workload": "rnd",
                                   "max_refs": 4000})
        sim.warmup_fraction = warmup_fraction
        sim.epoch_instructions = epoch_instructions
        return sim.run()

    def test_no_warmup_epoch_samples_leak(self):
        result = self._run(warmup_fraction=0.5)
        # Every epoch sample now comes from the measured window: at most
        # one sample per completed measured epoch, plus the final snapshot.
        max_measured_samples = result.instructions // 500 + 1
        assert 1 <= len(result.translation_reach_samples) <= max_measured_samples
        assert (len(result.translation_reach_samples_4k)
                == len(result.translation_reach_samples))

    def test_warmup_length_does_not_inflate_series(self):
        short = self._run(warmup_fraction=0.1)
        long = self._run(warmup_fraction=0.6)
        # Before the fix the longer warm-up leaked *more* stale samples into
        # the result; now a longer warm-up means a shorter measured window
        # and therefore no more samples than the shorter warm-up produces.
        assert (len(long.translation_reach_samples)
                <= len(short.translation_reach_samples))
