"""Tests for ``run_many``, the one batch path, and the hardened cache."""

import os
import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import engine as engine_mod
from repro.experiments.engine import RunProgress, resolve_jobs, run_many
from repro.experiments.runner import (
    ExperimentSettings,
    clear_cache,
    run_matrix,
    run_one,
    scenario_for_run,
)

TINY = ExperimentSettings(max_refs=800, hardware_scale=16, warmup_fraction=0.2,
                          seed=5, workloads=("rnd", "bfs"))


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    clear_cache()
    yield
    clear_cache()


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs()

    def test_negative_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)


class TestEngineParity:
    def test_parallel_results_identical_to_serial(self):
        serial = run_matrix(("radix", "victima"), TINY, jobs=1)
        clear_cache()
        parallel = run_matrix(("radix", "victima"), TINY, jobs=2)
        for workload in TINY.workloads:
            for system in ("radix", "victima"):
                assert serial[workload][system] == parallel[workload][system]

    def test_parallel_results_byte_identical(self):
        # Compare the canonical rendering of every field: repr pins values,
        # dict insertion order and numeric types.  Raw pickle bytes are NOT a
        # valid canonical form — pickle memoises strings by object identity,
        # and the worker round-trip replaces interned strings with equal but
        # distinct ones, changing the bytes without changing any value.
        import dataclasses

        specs = [scenario_for_run("radix", "rnd", TINY),
                 scenario_for_run("victima", "rnd", TINY)]
        serial = run_many(specs, jobs=1)
        clear_cache()
        parallel = run_many(specs, jobs=2)
        canon = lambda r: repr(dataclasses.asdict(r)).encode()
        assert [canon(r) for r in serial] == [canon(r) for r in parallel]

    def test_overrides_travel_to_workers(self):
        spec = scenario_for_run("opt_l3tlb_64k", "rnd", TINY, l3_latency=25)
        (parallel,) = run_many([spec], jobs=2)
        clear_cache()
        serial = run_one("opt_l3tlb_64k", "rnd", TINY, l3_latency=25)
        assert parallel == serial


class TestEngineSemantics:
    def test_results_keep_submission_order_and_dedupe(self):
        specs = [scenario_for_run("victima", "rnd", TINY),
                 scenario_for_run("radix", "rnd", TINY),
                 scenario_for_run("victima", "rnd", TINY)]
        results = run_many(specs, jobs=2)
        assert results[0].system_kind == results[2].system_kind
        assert results[0] is results[2]  # deduplicated to one run
        assert results[1].system_kind != results[0].system_kind

    def test_progress_callback_reports_every_run(self):
        events = []
        specs = [scenario_for_run("radix", w, TINY) for w in TINY.workloads]
        run_many(specs, jobs=2, progress=events.append)
        assert [e.completed for e in events] == [1, 2]
        assert all(e.total == 2 for e in events)
        assert all(isinstance(e, RunProgress) for e in events)
        assert all(e.seconds >= 0.0 for e in events)

    def test_progress_reaches_total_with_duplicate_specs(self):
        events = []
        specs = [scenario_for_run("radix", "rnd", TINY),
                 scenario_for_run("victima", "rnd", TINY),
                 scenario_for_run("radix", "rnd", TINY)]
        run_many(specs, jobs=2, progress=events.append)
        assert [e.completed for e in events] == [1, 2, 3]
        assert events[-1].completed == events[-1].total == 3

    def test_pool_serves_warm_in_process_cache(self):
        specs = [scenario_for_run("radix", w, TINY) for w in TINY.workloads]
        run_many(specs, jobs=1)  # warm the in-process cache
        events = []
        run_many(specs, jobs=2, progress=events.append)
        assert all(e.from_cache for e in events)

    def test_env_jobs_runs_the_batch_on_the_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        events = []
        run_many([scenario_for_run("radix", "rnd", TINY),
                  scenario_for_run("victima", "rnd", TINY)], progress=events.append)
        assert len(events) == 2
        assert all(e.format().endswith(", process-pool)") for e in events)

    def test_unset_env_runs_the_batch_in_process(self):
        engine_mod.shutdown_pools()
        events = []
        run_many([scenario_for_run("radix", "rnd", TINY),
                  scenario_for_run("victima", "rnd", TINY)], progress=events.append)
        assert len(events) == 2
        assert all(e.format().endswith(", serial)") for e in events)
        assert not engine_mod._SHARED_POOLS

    def test_in_process_batch_runs_each_spec_once(self, monkeypatch):
        from repro.sim.simulator import Simulator

        built = []
        from_scenario = Simulator.from_scenario

        def counted(scenario):
            built.append(scenario)
            return from_scenario(scenario)

        monkeypatch.setattr(Simulator, "from_scenario", counted)
        specs = [scenario_for_run("victima", "rnd", TINY),
                 scenario_for_run("radix", "rnd", TINY),
                 scenario_for_run("victima", "rnd", TINY)]
        events = []
        results = run_many(specs, jobs=1, progress=events.append)
        assert len(built) == 2
        assert results[0] is results[2]
        hits = [e for e in events if e.from_cache]
        assert len(hits) == 1 and hits[0].spec.system == "victima"
        events.clear()
        run_many(specs, jobs=1, progress=events.append)
        assert len(events) == 3 and all(e.from_cache for e in events)
        assert len(built) == 2

    def test_spawn_failure_falls_back_in_process(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        def cannot_spawn(*args, **kwargs):
            raise OSError("process creation forbidden")

        specs = [scenario_for_run("radix", "rnd", TINY),
                 scenario_for_run("victima", "rnd", TINY)]
        reference = run_many(specs, jobs=1)
        clear_cache()
        engine_mod.shutdown_pools()
        monkeypatch.setattr(ProcessPoolExecutor, "submit", cannot_spawn)
        events = []
        assert run_many(specs, jobs=2, progress=events.append) == reference
        assert len(events) == 2
        assert all(e.format().endswith(", serial)") for e in events)
        assert not engine_mod._SHARED_POOLS

    def test_worker_pool_is_shared_across_invocations(self):
        engine_mod.shutdown_pools()
        specs_a = [scenario_for_run("radix", "rnd", TINY),
                   scenario_for_run("victima", "rnd", TINY)]
        specs_b = [scenario_for_run("radix", "bfs", TINY),
                   scenario_for_run("victima", "bfs", TINY)]
        run_many(specs_a, jobs=2)
        pools_after_first = dict(engine_mod._SHARED_POOLS)
        run_many(specs_b, jobs=2)
        assert len(engine_mod._SHARED_POOLS) == 1
        assert engine_mod._SHARED_POOLS == pools_after_first  # same pool reused
        engine_mod.shutdown_pools()
        assert not engine_mod._SHARED_POOLS


class TestDiskCacheSharing:
    def test_cache_shared_across_backends(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        parallel = run_matrix(("radix",), TINY, jobs=2)
        files = list(tmp_path.glob("run_*.pkl"))
        assert len(files) == len(TINY.workloads)
        # A fresh process (simulated by clearing the in-process cache) must be
        # served from disk without re-simulating.
        clear_cache()

        def _boom(*args, **kwargs):
            raise AssertionError("simulation ran despite a populated disk cache")

        monkeypatch.setattr("repro.sim.simulator.Simulator.from_scenario", _boom)
        serial = run_matrix(("radix",), TINY, jobs=1)
        for workload in TINY.workloads:
            assert serial[workload]["radix"] == parallel[workload]["radix"]

    def test_cache_dir_set_after_pool_creation_reaches_workers(self, tmp_path,
                                                               monkeypatch):
        # Shared pools outlive batches; a cache dir configured *after*
        # the workers were spawned must still be honoured by them.
        engine_mod.shutdown_pools()
        run_many([scenario_for_run("radix", "rnd", TINY),
                  scenario_for_run("radix", "bfs", TINY)],
                 jobs=2)  # spawn the pool with no cache dir configured
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        run_many([scenario_for_run("victima", "rnd", TINY),
                  scenario_for_run("victima", "bfs", TINY)],
                 jobs=2)
        assert len(list(tmp_path.glob("run_*.pkl"))) == 2
        engine_mod.shutdown_pools()

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_matrix(("radix",), TINY, jobs=2)
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reference = run_one("radix", "rnd", TINY)
        (path,) = tmp_path.glob("run_*.pkl")
        path.write_bytes(path.read_bytes()[:20])  # truncated mid-write
        clear_cache()
        result = run_one("radix", "rnd", TINY)
        assert result == reference
        # The corrupt file must have been replaced by a loadable one.
        clear_cache()
        assert run_one("radix", "rnd", TINY) == reference

    def test_garbage_cache_entry_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reference = run_one("radix", "rnd", TINY)
        (path,) = tmp_path.glob("run_*.pkl")
        path.write_bytes(b"not a pickle at all")
        clear_cache()
        assert run_one("radix", "rnd", TINY) == reference

    def test_cache_write_failure_does_not_kill_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def _unpicklable(*args, **kwargs):
            raise pickle.PicklingError("cannot persist this result")

        monkeypatch.setattr("repro.experiments.runner.pickle.dump", _unpicklable)
        result = run_one("radix", "rnd", TINY)  # must still return the result
        assert result.memory_refs > 0
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("run_*.pkl"))

    def test_wrong_payload_type_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reference = run_one("radix", "rnd", TINY)
        (path,) = tmp_path.glob("run_*.pkl")
        path.write_bytes(pickle.dumps({"not": "a result"}))
        clear_cache()
        assert run_one("radix", "rnd", TINY) == reference


class TestSweepCells:
    """Figures 8 and 25 read each cell from their batch, in spec order."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig08_cells_match_their_runs(self, jobs):
        from repro.experiments.large_tlbs import L3_TLB_LATENCIES, fig08_l3tlb

        figure = fig08_l3tlb(TINY, jobs=jobs)
        assert len(figure.rows) == len(TINY.workloads) + 1
        for row, workload in zip(figure.rows, TINY.workloads):
            baseline = run_one("radix", workload, TINY)
            expected = [round(baseline.cycles / run_one(
                "opt_l3tlb_64k", workload, TINY, l3_latency=latency,
                system_label=f"Opt. L3 TLB 64K ({latency} cyc)").cycles, 3)
                for latency in L3_TLB_LATENCIES]
            assert row == [workload] + expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fig25_cells_match_their_runs(self, jobs):
        from repro.analysis.metrics import percent_reduction
        from repro.experiments.ablations import L2_CACHE_SIZES, fig25_cache_size_sweep

        figure = fig25_cache_size_sweep(TINY, jobs=jobs)
        assert len(figure.rows) == len(TINY.workloads) + 1
        for row, workload in zip(figure.rows, TINY.workloads):
            baseline = run_one("radix", workload, TINY)
            expected = [round(percent_reduction(baseline.page_walks, run_one(
                "victima", workload, TINY, l2_cache_bytes=size,
                system_label=f"Victima (L2 {size >> 20}MB)").page_walks), 1)
                for size in L2_CACHE_SIZES]
            assert row == [workload] + expected


class TestExperimentsAcceptJobs:
    def test_figure_functions_take_jobs(self):
        import inspect

        from repro.experiments import ALL_EXPERIMENTS

        with_jobs = [name for name, fn in ALL_EXPERIMENTS.items()
                     if "jobs" in inspect.signature(fn).parameters]
        # Every matrix/sweep experiment is parallelisable; only the
        # predictor-training and analytical-model experiments are exempt.
        assert set(ALL_EXPERIMENTS) - set(with_jobs) == {"table2", "fig16", "sec7"}

    def test_fig20_parallel_equals_serial(self):
        from repro.experiments.native import fig20_native_speedup

        serial = fig20_native_speedup(TINY, jobs=1)
        clear_cache()
        parallel = fig20_native_speedup(TINY, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.measured == parallel.measured
