"""Multi-core runs: single-core parity, placement, scheduling, stats consistency."""

from __future__ import annotations

import heapq
import logging
from collections import deque

import pytest

from repro import api
from repro.common.errors import ConfigurationError
from repro.experiments import runner
from repro.scenario import ScenarioSpec, WorkloadSpec, load_scenario
from repro.sim.config import SystemConfig
from repro.sim.presets import make_system_config
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.traces.combinators import TENANT_STRIDE, mix
from repro.workloads import make_workload

PINNED_SCENARIO = {
    "name": "pinned-under-test",
    "system": "victima",
    "max_refs": 2000,
    "seed": 7,
    "hardware_scale": 16,
    "warmup_fraction": 0.25,
    "num_cores": 2,
    "workload": {"kind": "mix", "tenants": [
        {"workload": "bfs", "core": 0},
        {"workload": "rnd", "core": 1},
    ]},
}


@pytest.fixture(autouse=True)
def _fresh_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


class TestSingleCoreParity:
    """Acceptance: the num_cores=1 path is dataclass-equal to the raw constructor."""

    @pytest.mark.parametrize("preset", ["victima", "radix"])
    def test_full_result_parity(self, preset):
        spec = ScenarioSpec(
            name="parity", system=preset,
            workload=WorkloadSpec(kind="workload", workload="bfs"),
            max_refs=1200, seed=7, hardware_scale=16, warmup_fraction=0.25,
            num_cores=1)
        via_new_engine = api.simulate(spec, use_cache=False)
        workload = make_workload("bfs", max_refs=1200, seed=7)
        system = build_system(make_system_config(preset, hardware_scale=16),
                              huge_page_fraction=workload.huge_page_fraction)
        raw = Simulator(system, [workload], warmup_fraction=0.25).run()
        assert via_new_engine == raw  # full dataclass equality, every field
        assert via_new_engine.num_cores == 1
        assert via_new_engine.per_core is None

    def test_single_core_summary_keys_unchanged(self):
        result = api.simulate({"system": "radix", "workload": "rnd",
                               "max_refs": 400, "hardware_scale": 16,
                               "warmup_fraction": 0.0}, use_cache=False)
        assert "num_cores" not in result.summary()


class TestMultiCoreRun:
    def test_aggregate_equals_sum_of_cores(self):
        result = api.simulate(PINNED_SCENARIO, use_cache=False)
        assert result.num_cores == 2
        assert len(result.per_core) == 2
        assert result.memory_refs == sum(c.memory_refs for c in result.per_core)
        assert result.instructions == sum(c.instructions for c in result.per_core)
        assert result.l2_tlb_misses == sum(c.l2_tlb_misses for c in result.per_core)
        assert result.page_walks == sum(c.page_walks for c in result.per_core)
        assert result.data_l2_misses == sum(c.data_l2_misses for c in result.per_core)
        assert result.translation_cycles == pytest.approx(
            sum(c.translation_cycles for c in result.per_core))
        # Aggregate cycles are the makespan: the slowest core's busy time.
        assert result.cycles == max(c.cycles for c in result.per_core)
        assert result.summary()["num_cores"] == 2

    def test_deterministic_replay(self):
        first = api.simulate(PINNED_SCENARIO, use_cache=False)
        second = api.simulate(PINNED_SCENARIO, use_cache=False)
        assert first == second

    def test_distinct_cores_never_share_private_tlb_entries(self):
        simulator = api.build_simulator(PINNED_SCENARIO)
        assert isinstance(simulator, Simulator)
        assert [w.name for w in simulator.core_workloads] == ["bfs", "rnd@1"]
        simulator.run()

        footprints = []
        for slot, core in enumerate(simulator.system.cores):
            window = (TENANT_STRIDE * (slot + 1), TENANT_STRIDE * (slot + 2))
            tags = set()
            for tlb in (core.mmu.l1_dtlb_4k, core.mmu.l1_dtlb_2m, core.mmu.l2_tlb):
                for entry in tlb.resident_entries():
                    vaddr = entry.vpn << entry.page_size.offset_bits
                    assert window[0] <= vaddr < window[1], (
                        f"core {slot} cached a translation outside its "
                        f"tenant's address slot: {hex(vaddr)}")
                    tags.add((int(entry.page_size), entry.vpn))
            assert tags, "every core should have cached translations"
            footprints.append(tags)
        assert footprints[0].isdisjoint(footprints[1])

    def test_unpinned_tenants_round_robin(self):
        spec = load_scenario({
            "system": "radix", "num_cores": 2, "max_refs": 900,
            "hardware_scale": 16, "warmup_fraction": 0.0,
            "workload": {"tenants": [{"workload": "bfs"}, {"workload": "rnd"},
                                     {"workload": "xs"}]},
        })
        workloads = api.build_simulator(spec).core_workloads
        assert [w.name for w in workloads] == ["mix(bfs+xs@2)", "rnd@1"]

    def test_idle_core_reports_zero(self):
        result = api.simulate({
            "system": "radix", "num_cores": 3, "max_refs": 600,
            "hardware_scale": 16, "warmup_fraction": 0.0,
            "workload": {"tenants": [{"workload": "bfs", "core": 0},
                                     {"workload": "rnd", "core": 2}]},
        }, use_cache=False)
        idle = result.per_core[1]
        assert idle.workload == "idle"
        assert idle.memory_refs == 0 and idle.cycles == 0.0

    def test_simulator_runs_core_zero_and_idles_the_rest(self):
        system = build_system(make_system_config("radix", hardware_scale=16,
                                                 num_cores=2))
        simulator = Simulator(system, [make_workload("rnd", max_refs=100), None])
        assert simulator.name == "cores(rnd|idle)"
        result = simulator.run()
        assert result.num_cores == 2
        assert [core.workload for core in result.per_core] == ["rnd", "idle"]
        assert result.memory_refs == result.per_core[0].memory_refs > 0

    def test_shared_pom_tlb_under_two_cores(self):
        result = api.simulate({
            "system": "pom_tlb", "num_cores": 2, "max_refs": 1200,
            "hardware_scale": 16, "warmup_fraction": 0.0,
            "workload": {"tenants": [{"workload": "bfs"}, {"workload": "rnd"}]},
        }, use_cache=False)
        assert result.pom_tlb_stats is not None
        assert result.pom_tlb_stats["lookups"] > 0


#: References per busy core in the schedule test.  At base CPI 1.0 its
#: clocks tie 23 times; in 4 of them core 2 has just run and must yield.
SCHEDULE_REFS = 6000


def _scheduled_run(base_cpi):
    """Run bfs on core 0 and rnd on core 2 of a three-core radix machine.

    Returns the run's log, one ``[core, gap, translation latency, access
    latency]`` entry per retired reference, in retirement order.
    """
    config = make_system_config("radix", hardware_scale=16, num_cores=3)
    config.base_cpi = base_cpi
    system = build_system(config)
    log = []

    def wrap(core):
        record_instructions = core.pressure.record_instructions
        translate_data = core.mmu.translate_data
        access = core.hierarchy.access

        def logged_instructions(count):
            log.append([core.core_id, count - 1])
            return record_instructions(count)

        def logged_translate(vaddr):
            paddr, latency = translate_data(vaddr)
            log[-1].append(latency)
            return paddr, latency

        def logged_access(paddr, write=False, ip=0):
            result = access(paddr, write=write, ip=ip)
            log[-1].append(result.latency)
            return result

        core.pressure.record_instructions = logged_instructions
        core.mmu.translate_data = logged_translate
        core.hierarchy.access = logged_access

    for core in system.cores:
        wrap(core)
    tenants = mix([make_workload("bfs", max_refs=SCHEDULE_REFS),
                   make_workload("rnd", max_refs=SCHEDULE_REFS)], cores=[0, 2])
    Simulator(system, tenants.per_core_workloads(3)).run()
    return log


def _replay_schedule(log, base_cpi):
    """The core order, and the ties, of a min-(clock, core) heap over ``log``.

    A core's clock adds its gap cycles, translation latency and access
    latency one at a time; a core whose references are used up leaves.
    """
    parts = {}
    for core, *latencies in log:
        parts.setdefault(core, deque()).append(latencies)
    ready = [(0.0, core) for core in parts]
    order, ties = [], 0
    while ready:
        clock, core = heapq.heappop(ready)
        if not parts[core]:
            continue
        ties += bool(ready) and ready[0][0] == clock
        gap, translation, access = parts[core].popleft()
        order.append(core)
        clock += gap * base_cpi
        clock += translation
        clock += access
        heapq.heappush(ready, (clock, core))
    return order, ties


class TestScheduleRule:
    """The engine retires each reference on the core with the smallest
    ``(clock, core id)``, replayed here from the run's own latencies."""

    @pytest.mark.parametrize("base_cpi", [0.35, 1.0])
    def test_cores_retire_in_clock_order(self, base_cpi):
        log = _scheduled_run(base_cpi)
        assert all(len(entry) == 4 for entry in log)
        order, ties = _replay_schedule(log, base_cpi)
        assert [core for core, *_ in log] == order
        assert order.count(0) == order.count(2) == SCHEDULE_REFS
        if base_cpi == 1.0:
            # Integer latencies: clocks tie, and the lower core id must win.
            assert ties >= 20


class TestMixPlacementApi:
    def test_mix_cores_roundtrip(self):
        mixed = mix([make_workload("bfs", max_refs=30),
                     make_workload("rnd", max_refs=30),
                     make_workload("xs", max_refs=30)],
                    cores=[1, None, 1])
        # The unpinned tenant avoids the loaded pinned core.
        assert mixed.core_placement(2) == [1, 0, 1]
        per_core = mixed.per_core_workloads(2)
        assert per_core[0].name == "rnd@1"
        assert per_core[1].name == "mix(bfs+xs@2)"

    def test_unpinned_tenant_avoids_pinned_core(self):
        mixed = mix([make_workload("bfs", max_refs=30),
                     make_workload("rnd", max_refs=30)],
                    cores=[1, None])
        assert mixed.core_placement(2) == [1, 0]
        assert all(w is not None for w in mixed.per_core_workloads(2))

    def test_truncating_mix_cannot_split(self):
        mixed = mix([make_workload("bfs", max_refs=30),
                     make_workload("rnd", max_refs=30)],
                    max_refs=40, cores=[0, 1])
        with pytest.raises(ValueError, match="truncates"):
            mixed.per_core_workloads(2)

    def test_mix_cores_length_mismatch(self):
        with pytest.raises(ValueError, match="one core placement"):
            mix([make_workload("bfs", max_refs=10)], cores=[0, 1])

    def test_pin_out_of_machine_range(self):
        mixed = mix([make_workload("bfs", max_refs=10),
                     make_workload("rnd", max_refs=10)], cores=[0, 5])
        with pytest.raises(ValueError, match="pinned"):
            mixed.per_core_workloads(2)

    def test_placement_preserves_reference_set(self):
        def tenants():
            return [make_workload("bfs", max_refs=40, seed=3),
                    make_workload("rnd", max_refs=40, seed=3)]

        single = mix(tenants(), seed=9)
        split = mix(tenants(), seed=9).per_core_workloads(2)
        single_refs = {(r.vaddr, r.ip) for r in single.bounded()}
        split_refs = {(r.vaddr, r.ip)
                      for w in split for r in w.bounded()}
        assert single_refs == split_refs


class TestValidation:
    def test_num_cores_bounds(self):
        with pytest.raises(ConfigurationError, match="num_cores"):
            SystemConfig(num_cores=0).validate()
        with pytest.raises(ConfigurationError, match="num_cores"):
            SystemConfig(num_cores=99).validate()

    def test_virtualized_multicore_rejected(self):
        config = SystemConfig(kind="nested_paging", num_cores=2)
        with pytest.raises(ConfigurationError, match="native"):
            config.validate()

    @pytest.mark.parametrize("num_cores", [1, 2])
    def test_tlb_aware_llc_rejected(self, num_cores):
        # Translation pressure is tracked per core; no monitor feeds the
        # shared LLC, so a TLB-aware LLC policy would silently act as SRRIP.
        config = make_system_config("victima", hardware_scale=16,
                                    num_cores=num_cores)
        config.l3_cache.replacement_policy = "tlb_aware_srrip"
        with pytest.raises(ConfigurationError, match="per core"):
            build_system(config)

    def test_pin_requires_multicore_scenario(self):
        with pytest.raises(ConfigurationError, match="num_cores > 1"):
            load_scenario({"system": "radix",
                           "workload": {"tenants": [
                               {"workload": "bfs", "core": 0},
                               {"workload": "rnd"}]}})

    def test_multicore_requires_mix(self):
        with pytest.raises(ConfigurationError, match="mix"):
            load_scenario({"system": "radix", "num_cores": 2,
                           "workload": "rnd"})

    def test_pin_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            load_scenario({"system": "radix", "num_cores": 2,
                           "workload": {"tenants": [
                               {"workload": "bfs", "core": 3},
                               {"workload": "rnd"}]}})

    def test_num_cores_not_a_system_override(self):
        with pytest.raises(ConfigurationError, match="top level"):
            ScenarioSpec(system="radix",
                         system_overrides=(("num_cores", 2),))

    def test_simulator_needs_one_slot_per_core(self):
        system = build_system(make_system_config("radix", hardware_scale=16,
                                                 num_cores=2))
        with pytest.raises(ConfigurationError, match="one workload slot per core"):
            Simulator(system, [make_workload("rnd", max_refs=100)])
        with pytest.raises(ConfigurationError, match="every core is idle"):
            Simulator(system, [None, None])

    def test_truncating_multicore_spec_rejected_at_load(self):
        with pytest.raises(ConfigurationError, match="truncating"):
            load_scenario({"system": "radix", "num_cores": 2, "max_refs": 1000,
                           "workload": {"tenants": [
                               {"workload": "bfs", "max_refs": 2000},
                               {"workload": "rnd"}]}})

    def test_build_system_dispatch(self):
        system = build_system(make_system_config("radix", hardware_scale=16,
                                                 num_cores=2))
        assert system.num_cores == 2
        assert system.cores[0].l2_cache is not system.cores[1].l2_cache
        assert system.cores[0].hierarchy.l3 is system.cores[1].hierarchy.l3


class TestCacheIdentity:
    def test_cache_format_is_v5(self):
        # v5: PR 5's warm-up stats bugfixes changed measured results, so
        # pre-fix cache entries must be unreachable.
        assert runner._CACHE_FORMAT_VERSION == 5

    def test_num_cores_changes_content_hash(self):
        base = load_scenario(PINNED_SCENARIO)
        single = ScenarioSpec.from_dict({
            **PINNED_SCENARIO, "num_cores": 1,
            "workload": {"kind": "mix", "tenants": [
                {"workload": "bfs"}, {"workload": "rnd"}]}})
        assert base.content_hash() != single.content_hash()

    def test_pinning_changes_content_hash(self):
        swapped = {**PINNED_SCENARIO,
                   "workload": {"kind": "mix", "tenants": [
                       {"workload": "bfs", "core": 1},
                       {"workload": "rnd", "core": 0}]}}
        assert (load_scenario(PINNED_SCENARIO).content_hash()
                != load_scenario(swapped).content_hash())

    def test_disk_entries_carry_format_version(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        api.simulate({"system": "radix", "workload": "rnd", "max_refs": 400,
                      "hardware_scale": 16, "warmup_fraction": 0.0})
        files = list(tmp_path.glob("run_*.pkl"))
        assert len(files) == 1
        assert files[0].name.startswith("run_v5_")

    def test_stale_generation_entries_warn_once(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "run_0ldgen.pkl").write_bytes(b"stale")
        spec = {"system": "radix", "workload": "rnd", "max_refs": 400,
                "hardware_scale": 16, "warmup_fraction": 0.0}
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            api.simulate(spec)
            runner._RESULT_CACHE.clear()  # force the disk path again
            api.simulate(spec)
        stale_warnings = [r for r in caplog.records if "stale" in r.message]
        assert len(stale_warnings) == 1
        assert "recomputed" in stale_warnings[0].message
