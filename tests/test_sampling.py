"""SMARTS-style sampled simulation: fast-forward exactness, parity, CI."""

from __future__ import annotations

import itertools

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.scenario import ScenarioSpec
from repro.sim.sampling import (SamplingConfig, sampled_batches,
                                sampling_metadata, window_series_summary)
from repro.sim.simulator import CoreRun
from repro.traces.combinators import IP_STRIDE, mix, remap
from repro.workloads import Workload, WorkloadConfig, make_workload
from repro.workloads.graph import IP_VERTEX


# --------------------------------------------------------------------------- #
# Workload.fast_forward exactness
# --------------------------------------------------------------------------- #
#: The seven GraphBIG kernels, which share GraphWorkload.fast_forward.
GRAPH_KERNELS = ("bc", "bfs", "cc", "gc", "pr", "sssp", "tc")
#: Remapped tenants over analytic inners (rnd, bfs) and a draining one (xs).
REMAPPED = ("remap:rnd", "remap:bfs", "remap:xs")


def _fresh(name, gap=2.0):
    """A new instance of ``name``; ``remap:<inner>`` puts ``inner`` in slot 1."""
    if name.startswith("remap:"):
        return remap(_fresh(name[len("remap:"):], gap), slot=1)
    return make_workload(WorkloadConfig(name=name, max_refs=4000,
                                        mean_instruction_gap=gap))


def _override(workload, stream, count):
    return workload.fast_forward(stream, count)


def _drain(workload, stream, count):
    """The oracle: skip by generating the references and discarding them."""
    return sum(1 for _ in itertools.islice(stream, count))


def _skip_plans(reference):
    """Pull/skip sequences placed on the vertex boundaries of ``reference``.

    A graph kernel's vertex starts with its IP_VERTEX read and holds at
    least five references; a stream without vertex reads is cut into
    16-reference pieces instead.
    """
    starts = [index for index, ref in enumerate(reference)
              if ref.ip % IP_STRIDE == IP_VERTEX]
    starts = starts or list(range(0, len(reference), 16))
    first = next(index for index in starts if index >= 700)
    end = next(index for index in starts if index > first)
    later = next(index for index in starts if index >= first + 600)
    return {
        "from a vertex boundary": [("pull", first), ("skip", 500)],
        "from mid-vertex": [("pull", first + 2), ("skip", 500)],
        "ending inside the current vertex": [("pull", first + 1), ("skip", 2)],
        "ending at the current vertex's end": [("pull", first + 2),
                                               ("skip", end - first - 2)],
        "ending on a later vertex boundary": [("pull", first + 2),
                                              ("skip", later - first - 2)],
        "of zero references": [("pull", first + 2), ("skip", 0)],
        "back to back": [("pull", first + 2), ("skip", 333), ("skip", 457)],
        "before the first pull": [("skip", 800)],
    }


def _run_plan(workload, plan, skip):
    """Every list pulled while following ``plan``, plus a 1500-ref tail."""
    stream = workload.generate()
    pulled = []
    for op, count in plan:
        if op == "skip":
            assert skip(workload, stream, count) == count
        else:
            pulled.append(list(itertools.islice(stream, count)))
    pulled.append(list(itertools.islice(stream, 1500)))
    return pulled


class TestFastForward:
    """Skipping N refs must leave the stream exactly N refs later."""

    @pytest.mark.parametrize("name", ["rnd", "bfs", "xs", "dlrm"])
    def test_resumes_bit_identical_to_draining(self, name):
        # Reference: drain the skipped region by materialising it.
        drained = make_workload(name, max_refs=3000)
        reference = list(itertools.islice(drained.generate(), 3000))

        skipper = make_workload(name, max_refs=3000)
        stream = skipper.generate()
        head = list(itertools.islice(stream, 700))
        skipped = skipper.fast_forward(stream, 800)
        tail = list(itertools.islice(stream, 1500))

        assert skipped == 800
        assert head == reference[:700]
        assert tail == reference[1500:3000]

    @pytest.mark.parametrize("gap", [2.0, 0.0])
    @pytest.mark.parametrize("name", GRAPH_KERNELS + REMAPPED)
    def test_override_matches_the_drain(self, name, gap):
        # gap 0 turns off the per-reference expovariate draws, so only the
        # traversal's vertex picks move the RNG.
        workload = _fresh(name, gap)
        assert type(workload).fast_forward is not Workload.fast_forward
        reference = list(itertools.islice(workload.generate(), 2000))
        for label, plan in _skip_plans(reference).items():
            fast = _run_plan(_fresh(name, gap), plan, _override)
            drained = _run_plan(_fresh(name, gap), plan, _drain)
            assert fast == drained, f"{name}: skip {label} diverged from the drain"

    def test_gups_override_matches_base_class_drain(self):
        # RandomAccess overrides fast_forward analytically; the override must
        # be indistinguishable from the base class's drain-the-iterator path.
        fast = make_workload("rnd", max_refs=4000)
        slow = make_workload("rnd", max_refs=4000)
        fast_stream, slow_stream = fast.generate(), slow.generate()
        assert fast.fast_forward(fast_stream, 1024) == 1024
        # Base-class semantics, forced: drain through islice.
        assert sum(1 for _ in itertools.islice(slow_stream, 1024)) == 1024
        assert (list(itertools.islice(fast_stream, 2000))
                == list(itertools.islice(slow_stream, 2000)))

    def test_base_class_drain_reports_actual_skip(self):
        # The base-class fast_forward drains the iterator, so a stream that
        # ends early reports the references actually skipped.  xs keeps that
        # drain; overrides are exempt, because their contract requires the
        # workload's own live generate() stream.
        workload = make_workload("xs", max_refs=100)
        stream = itertools.islice(workload.generate(), 100)
        assert workload.fast_forward(stream, 250) == 100
        assert next(stream, None) is None


# --------------------------------------------------------------------------- #
# The shared sampler's reference stream
# --------------------------------------------------------------------------- #
SAMPLER_REFS = 6000
SAMPLER_WARMUP_REFS = 1500


def _sampler_workloads():
    """Fresh instances: GUPS and bfs, whose fast_forward replays their
    draws, and a two-tenant mix, which keeps the base-class drain."""
    return {
        "rnd": make_workload("rnd", max_refs=SAMPLER_REFS),
        "bfs": make_workload("bfs", max_refs=SAMPLER_REFS),
        "mix": mix([make_workload("bfs", max_refs=SAMPLER_REFS // 2),
                    make_workload("rnd", max_refs=SAMPLER_REFS // 2)], seed=3),
    }


class TestSampledBatches:
    def test_yielded_lists_are_slices_of_the_bounded_stream(self):
        # A bare run record: nothing is simulated, so only the stream moves.
        references = {name: list(workload.bounded())
                      for name, workload in _sampler_workloads().items()}
        for stride, rewarm in ((1, 0), (4, 128)):
            sampling = SamplingConfig(stride=stride, warmup_refs=rewarm,
                                      window_refs=512)
            for name, workload in _sampler_workloads().items():
                reference = references[name]
                run = CoreRun(None, workload, SAMPLER_WARMUP_REFS)
                yielded = []
                for batch in sampled_batches(run, sampling):
                    start = len(yielded) + run.skipped_refs
                    assert batch == reference[start:start + len(batch)], (
                        name, stride, start)
                    yielded.extend(batch)
                assert len(yielded) + run.skipped_refs == SAMPLER_REFS
                if stride == 1:
                    assert yielded == reference
                else:
                    assert run.skipped_refs > 0, name


# --------------------------------------------------------------------------- #
# SamplingConfig validation and (de)serialisation
# --------------------------------------------------------------------------- #
class TestSamplingConfig:
    def test_defaults_roundtrip(self):
        config = SamplingConfig(stride=8, warmup_refs=64, window_refs=512)
        assert SamplingConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0},
        {"window_refs": 0},
        {"warmup_refs": -1},
        {"warmup_refs": 1024, "window_refs": 1024},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SamplingConfig(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            SamplingConfig.from_dict({"stride": 2, "cadence": 5})

    def test_window_series_summary(self):
        empty = window_series_summary([])
        assert empty == {"mean": 0.0, "std": 0.0, "ci95": 0.0}
        single = window_series_summary([5.0])
        assert single["mean"] == 5.0 and single["ci95"] == 0.0
        series = window_series_summary([1.0, 3.0])
        assert series["mean"] == 2.0
        assert series["std"] == pytest.approx(2.0 ** 0.5)

    def test_metadata_coverage(self):
        meta = sampling_metadata(SamplingConfig(stride=4), [2.0, 2.0],
                                 detailed_refs=300, skipped_refs=700)
        assert meta["coverage"] == pytest.approx(0.3)
        assert "per_core" not in meta
        with_cores = sampling_metadata(SamplingConfig(stride=4), [],
                                       detailed_refs=0, skipped_refs=0,
                                       per_core=[{"core": 0}])
        assert with_cores["per_core"] == [{"core": 0}]


# --------------------------------------------------------------------------- #
# Scenario / simulator threading
# --------------------------------------------------------------------------- #
class TestScenarioThreading:
    def test_spec_roundtrip_and_hash(self):
        plain = ScenarioSpec.from_dict({"system": "radix", "workload": "rnd"})
        sampled = ScenarioSpec.from_dict({
            "system": "radix", "workload": "rnd",
            "sampling": {"stride": 4, "warmup_refs": 32}})
        assert sampled.sampling == SamplingConfig(stride=4, warmup_refs=32)
        assert "sampling" not in plain.to_dict()
        assert sampled.to_dict()["sampling"]["stride"] == 4
        # Sampling is physical: it changes the run cache identity; its
        # absence leaves historical hashes untouched.
        assert plain.content_hash() != sampled.content_hash()
        rebuilt = ScenarioSpec.from_dict(sampled.to_dict())
        assert rebuilt.content_hash() == sampled.content_hash()


# --------------------------------------------------------------------------- #
# Parity and accuracy
# --------------------------------------------------------------------------- #
def _single_core_sim(sampling=None, max_refs=8000):
    sim = api.build_simulator({"system": "radix", "workload": "rnd",
                               "max_refs": max_refs})
    sim.sampling = sampling
    return sim


TWO_CORE_SPEC = {
    "system": "victima",
    "num_cores": 2,
    "max_refs": 12000,
    "hardware_scale": 8,
    "workload": {"tenants": [{"workload": "bfs", "core": 0},
                             {"workload": "rnd", "core": 1}]},
}


class TestSampledParity:
    def test_stride_one_single_core_bit_identical(self):
        full = _single_core_sim().run()
        sampled = _single_core_sim(SamplingConfig(stride=1)).run()
        meta = sampled.sampling
        sampled.sampling = None
        assert sampled == full
        assert meta["skipped_refs"] == 0
        assert meta["coverage"] == 1.0

    def test_stride_one_multi_core_bit_identical(self):
        full = api.simulate(TWO_CORE_SPEC, use_cache=False)
        sampled_spec = dict(TWO_CORE_SPEC, sampling={"stride": 1})
        sampled = api.simulate(sampled_spec, use_cache=False)
        meta = sampled.sampling
        sampled.sampling = None
        assert sampled == full
        assert meta["skipped_refs"] == 0
        assert {entry["core"] for entry in meta["per_core"]} == {0, 1}

    def test_sampled_skips_and_reports_windows(self):
        result = _single_core_sim(
            SamplingConfig(stride=4, warmup_refs=128), max_refs=16000).run()
        meta = result.sampling
        assert meta["skipped_refs"] > 0
        assert meta["windows"] >= 2
        assert 0.0 < meta["coverage"] < 1.0
        assert meta["detailed_refs"] + meta["skipped_refs"] == 16000
        assert len(meta["window_cycles_per_ref"]) == meta["windows"]

    def test_sampled_ci_covers_full_run_on_default_preset(self):
        """Acceptance pin: the sampled estimate brackets the full run.

        GUPS on the radix baseline (the benchmark's default preset): the
        sampled mean cycles-per-ref +/- its 95% confidence half-width must
        cover the full run's measured cycles-per-ref.  Both runs are
        deterministic, so this is an exact regression pin, not a flaky
        statistical test.
        """
        refs = 40_000
        full = _single_core_sim(max_refs=refs).run()
        warmup = int(refs * 0.25)
        full_cpr = full.cycles / (refs - warmup)

        sampled = _single_core_sim(
            SamplingConfig(stride=4, warmup_refs=256), max_refs=refs).run()
        meta = sampled.sampling
        low = meta["cycles_per_ref_mean"] - meta["cycles_per_ref_ci95"]
        high = meta["cycles_per_ref_mean"] + meta["cycles_per_ref_ci95"]
        assert low <= full_cpr <= high, (
            f"full-run cpr {full_cpr:.2f} outside sampled CI "
            f"[{low:.2f}, {high:.2f}]")
        # And sampling actually skipped most of the run while doing it.
        assert meta["coverage"] < 0.5

    def test_multi_core_sampled_estimates_track_full_run(self):
        full = api.simulate(TWO_CORE_SPEC, use_cache=False)
        sampled_spec = dict(TWO_CORE_SPEC,
                            sampling={"stride": 4, "warmup_refs": 128})
        sampled = api.simulate(sampled_spec, use_cache=False)
        per_core_full = {c.core: c for c in full.per_core}
        for entry in sampled.sampling["per_core"]:
            assert entry["skipped_refs"] > 0
            core = per_core_full[entry["core"]]
            full_cpr = core.cycles / core.memory_refs
            # Per-core windows are few at this budget; allow 3 half-widths.
            spread = 3 * entry["cycles_per_ref_ci95"]
            assert abs(entry["cycles_per_ref_mean"] - full_cpr) <= spread
