"""The translation-backend registry: parity pins, ResettableStats, hash_pt.

The heart of this file is the **golden parity pin**: every evaluated preset
(single-core and two-core, plus SMARTS-sampled and L1-resident variants) is
re-run on a small deterministic window and the full ``SimulationResult`` is
asserted bit-identical to ``tests/data/backend_parity_golden.json``.  The
scenarios come from ``tools/gen_parity_golden.py``, which generated the file;
the first 16 entries date from the *pre-registry* hard-wired system factory.
If registry dispatch, backend construction order, stats registration, warm-up
resets or an engine refactor perturb any simulated outcome by even one cycle,
these pins catch it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re

import pytest

import repro.backends as backends
from repro import api
from repro.backends import (
    BackendSpec,
    HashedPageTable,
    available_backends,
    get_backend,
    register_backend,
)
from repro.backends import registry
from repro.common.addresses import PageSize
from repro.common.errors import ConfigurationError
from repro.common.stats import ResettableStats, StatsRegistry
from repro.sim.config import SystemConfig
from repro.sim.presets import (EVALUATED_NATIVE_SYSTEMS,
                               EVALUATED_VIRTUAL_SYSTEMS, make_system_config)
from repro.sim.system import build_system

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "backend_parity_golden.json")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_GENERATOR_SPEC = importlib.util.spec_from_file_location(
    "gen_parity_golden", os.path.join(REPO_ROOT, "tools", "gen_parity_golden.py"))
_GENERATOR = importlib.util.module_from_spec(_GENERATOR_SPEC)
_GENERATOR_SPEC.loader.exec_module(_GENERATOR)

MAX_REFS = _GENERATOR.MAX_REFS
HARDWARE_SCALE = _GENERATOR.HARDWARE_SCALE


def _canonical(result_dict: dict) -> str:
    # Round-trip through JSON so int dict keys (histograms) compare equal to
    # the string keys the golden file necessarily stores.
    return json.dumps(json.loads(json.dumps(result_dict)), sort_keys=True)


with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    _GOLDEN = json.load(_handle)

#: Count fields of a multi-core result that are sums of the per-core slices.
_PER_CORE_SUMS = ("memory_refs", "instructions", "l1_tlb_misses",
                  "l2_tlb_misses", "page_walks", "data_l2_misses")


def _negative_numbers(value, path="result"):
    if isinstance(value, dict):
        return [bad for key, item in value.items()
                for bad in _negative_numbers(item, f"{path}.{key}")]
    if isinstance(value, (list, tuple)):
        return [bad for index, item in enumerate(value)
                for bad in _negative_numbers(item, f"{path}[{index}]")]
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value < 0:
        return [path]
    return []


def _invariant_violations(result) -> list:
    """Cross-counter relations every simulation result must satisfy."""
    problems = []
    refs = result.memory_refs
    levels = sum(result.data_access_levels.values())
    if levels != refs:
        problems.append(f"data_access_levels sum to {levels}, memory_refs is {refs}")
    # Virtualized results report an empty served_by (see ROADMAP item 4).
    if not get_backend(result.system_kind).virtualized:
        served = sum(result.served_by.values())
        if served != refs:
            problems.append(f"served_by sums to {served}, memory_refs is {refs}")
    if result.per_core is not None:
        for name in _PER_CORE_SUMS:
            total = sum(getattr(core, name) for core in result.per_core)
            if total != getattr(result, name):
                problems.append(f"per-core {name} sum to {total}, "
                                f"aggregate is {getattr(result, name)}")
        makespan = max(core.cycles for core in result.per_core)
        if result.cycles != makespan:
            problems.append(f"cycles {result.cycles} != per-core maximum {makespan}")
    problems.extend(f"negative: {path}"
                    for path in _negative_numbers(result.to_json_dict()))
    return problems


def _cache_stat_violations(system) -> list:
    """Stat relations every cache of a finished machine must satisfy.

    Checks each core's L1-D and L2 and the shared LLC once: hits and misses
    sum to accesses, the reuse histograms sum to the evictions, and the
    (nested) TLB histograms sum to the TLB-block evictions.
    """
    caches = [cache for core in system.cores
              for cache in (core.hierarchy.l1d, core.hierarchy.l2)]
    if system.llc is not None:
        caches.append(system.llc)
    problems = []
    for cache in caches:
        stats = cache.stats
        histograms = stats.reuse_histogram
        if stats.hits + stats.misses != stats.accesses:
            problems.append(f"{cache.name}: {stats.hits} hits + {stats.misses} "
                            f"misses != {stats.accesses} accesses")
        booked = sum(sum(histogram.values()) for histogram in histograms.values())
        if booked != stats.evictions:
            problems.append(f"{cache.name}: reuse histograms hold {booked}, "
                            f"{stats.evictions} evictions")
        tlb_booked = sum(sum(histograms.get(kind, {}).values())
                         for kind in ("tlb", "nested_tlb"))
        if tlb_booked != stats.tlb_block_evictions:
            problems.append(f"{cache.name}: TLB reuse histograms hold {tlb_booked}, "
                            f"{stats.tlb_block_evictions} TLB-block evictions")
    return problems


class TestGoldenParity:
    """Every golden scenario reproduces its committed result bit-for-bit
    and satisfies the cross-counter and cache-stat invariants."""

    def test_golden_file_covers_every_generator_key(self):
        assert sorted(_GOLDEN) == sorted(_GENERATOR.golden_keys())

    def test_every_evaluated_preset_has_a_golden(self):
        # Every native preset (and hash_pt) on one and two cores, every
        # virtualized preset on one core: the goldens are the only oracle
        # for "same behaviour", so no evaluated system may go unpinned.
        native = EVALUATED_NATIVE_SYSTEMS + ("hash_pt",)
        expected = ([f"{preset}/{cores}core"
                     for preset in native for cores in (1, 2)]
                    + [f"{preset}/1core" for preset in EVALUATED_VIRTUAL_SYSTEMS])
        assert [key for key in expected if key not in _GOLDEN] == []

    @pytest.mark.parametrize("key", sorted(_GOLDEN), ids=lambda k: k)
    def test_preset_is_bit_identical_to_pre_registry_golden(self, key):
        sim = api.build_simulator(_GENERATOR.scenario_for_key(key))
        result = sim.run()
        assert _canonical(result.to_json_dict()) == _canonical(_GOLDEN[key]), (
            f"{key}: simulation result diverged from the committed golden "
            "(tools/gen_parity_golden.py documents regeneration)")
        assert _invariant_violations(result) == []
        assert _cache_stat_violations(sim.system) == []


class TestRegistry:
    def test_every_expected_backend_is_registered(self):
        names = [spec.name for spec in available_backends()]
        assert names == sorted(names), "available_backends() must sort by name"
        for expected in ("radix", "large_l2_tlb", "l3_tlb", "pom_tlb",
                         "victima", "hash_pt", "nested_paging",
                         "ideal_shadow_paging", "virt_pom_tlb", "virt_victima"):
            assert expected in names

    def test_unknown_name_raises_helpful_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("no_such_backend")
        message = str(excinfo.value)
        assert "no_such_backend" in message
        # The error teaches the fix: it lists every registered name.
        for name in ("radix", "victima", "hash_pt"):
            assert name in message

    def test_unknown_preset_name_routes_through_registry(self):
        with pytest.raises(ConfigurationError,
                           match="unknown translation backend"):
            make_system_config("warp_drive")

    def test_factory_builds_the_spec_named_by_kind(self, monkeypatch):
        # A second spec around radix's build hook: the factory must call this
        # spec's hook and name the backend after it.  The registry copy keeps
        # the spec out of every other test.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        radix = get_backend("radix")
        calls = []

        def build(ctx):
            calls.append(ctx.core_id)
            return radix.build(ctx)

        register_backend(BackendSpec(
            name="alias_radix", label="Alias Radix",
            summary="Radix under a second name (test only).", build=build))
        system = build_system(make_system_config("alias_radix", hardware_scale=16))
        assert calls == [0]
        assert system.backend.name == "alias_radix"
        assert system.config.label == "Alias Radix"

    def test_unknown_kind_fails_validation_naming_every_backend(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SystemConfig(kind="no_such_backend").validate()
        message = str(excinfo.value)
        assert "no_such_backend" in message
        for spec in available_backends():
            assert spec.name in message

    @pytest.mark.parametrize("name", [spec.name for spec in available_backends()])
    def test_every_registered_name_builds_its_own_backend(self, name):
        config = make_system_config(name, hardware_scale=16)
        assert config.kind == name
        system = build_system(config)
        assert system.backend.name == name
        assert system.is_virtualized == get_backend(name).virtualized

    def test_backend_names_must_be_lower_case(self, monkeypatch):
        # The preset layer lower-cases every system name, so a name with
        # capitals could never be selected.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        with pytest.raises(ConfigurationError, match="'MyRadix' must be lower-case"):
            register_backend(BackendSpec(
                name="MyRadix", label="My Radix", summary="Test only.",
                build=get_backend("radix").build))
        assert "MyRadix" not in registry._REGISTRY

    def test_backends_describe_one_line(self):
        for spec in available_backends():
            assert spec.summary, f"{spec.name} needs a summary"
            assert "\n" not in spec.summary


class TestResettableStats:
    def test_registry_resets_registered_components(self):
        core = build_system(make_system_config(
            "victima", hardware_scale=HARDWARE_SCALE)).cores[0]
        registry = core.stats_registry
        assert len(registry) > 0
        core.mmu.stats.l1_tlb_hits = 99
        core.walker.stats.walks = 42
        core.victima.stats.probes = 7
        registry.reset_all()
        assert core.mmu.stats.l1_tlb_hits == 0
        assert core.walker.stats.walks == 0
        assert core.victima.stats.probes == 0

    def test_vmm_footprint_counters_survive_reset(self):
        # The VirtualMemoryManager describes the address space, not the
        # measured window, so it must never register.
        system = build_system(make_system_config("radix",
                                                 hardware_scale=HARDWARE_SCALE))
        system.memory_manager.prefault_range(0, 1 << 20)
        before = system.memory_manager.stats.footprint_bytes
        assert before > 0
        system.stats_registry.reset_all()
        assert system.memory_manager.stats.footprint_bytes == before

    def test_registration_is_scoped_to_active_registry(self):
        class Probe(ResettableStats):
            def __init__(self):
                self.stats = type("S", (), {"__init__": lambda s: None})()
                self._register_stats()

        registry = StatsRegistry()
        with registry.activate():
            Probe()
        Probe()  # outside any active registry: constructible, unregistered
        assert len(registry) == 1

    @pytest.mark.parametrize("name, num_cores", [
        ("pom_tlb", 1), ("pom_tlb", 2), ("hash_pt", 1), ("hash_pt", 2),
        ("virt_pom_tlb", 1)])
    def test_multicore_cores_carry_private_registries(self, name, num_cores):
        system = build_system(make_system_config(
            name, hardware_scale=HARDWARE_SCALE, num_cores=num_cores))
        registries = [system.stats_registry] + [core.stats_registry
                                                for core in system.cores]
        assert len({id(registry) for registry in registries}) == num_cores + 1
        # The shared structure is built once, lives in the machine registry,
        # and every core's backend holds that same object.
        shared = system.shared
        built = [component for registry in registries
                 for component in registry.components()
                 if isinstance(component, type(shared))]
        assert len(built) == 1 and built[0] is shared
        assert shared in system.stats_registry.components()
        attribute = "hash_pt" if name == "hash_pt" else "pom_tlb"
        for core in system.cores:
            assert getattr(core.backend, attribute) is shared

    @pytest.mark.parametrize("num_cores", [1, 2])
    @pytest.mark.parametrize("warmup_fraction, resets", [(0.25, 1), (0.0, 0)])
    def test_machine_registry_resets_once_every_core_is_warm(
            self, num_cores, warmup_fraction, resets, monkeypatch):
        sim = api.build_simulator({
            "system": "pom_tlb", "max_refs": 600, "seed": 42,
            "hardware_scale": HARDWARE_SCALE, "num_cores": num_cores,
            "warmup_fraction": warmup_fraction,
            "workload": {"kind": "mix", "tenants": [{"workload": "bfs"},
                                                    {"workload": "rnd"}]}})
        registry = sim.system.stats_registry
        calls = []
        reset_all = registry.reset_all
        monkeypatch.setattr(registry, "reset_all",
                            lambda: calls.append(1) or reset_all())
        sim.run()
        assert len(calls) == resets


class TestBuild:
    """What the system factory builds, where, and what it leaves to look up."""

    def test_virtualized_pom_tlb_is_reserved_after_the_roots(self):
        # The host's root and the shadow table's root take the first two
        # host frames; the POM-TLB's region then starts at the next 2 MB.
        system = build_system(make_system_config("virt_pom_tlb",
                                                 hardware_scale=HARDWARE_SCALE))
        pom = system.backend.pom_tlb
        assert system.host_memory_manager.page_table.root_paddr == 0x0
        assert system.shadow_builder.table.root_paddr == 0x1000
        assert pom.base_paddr == 0x200000
        assert system.physical.reserved_regions == [(0x200000, pom.size_bytes, "pom-tlb")]

    @pytest.mark.parametrize("name", ["radix", "opt_l3tlb_64k", "pom_tlb", "victima",
                                      "hash_pt", "nested_paging", "virt_pom_tlb",
                                      "virt_victima"])
    def test_a_wrapper_put_on_walk_after_the_build_sees_every_walk(self, name):
        # A tracer wraps a walker's ``walk`` on the built instance, so the
        # backends must look it up on every miss.
        sim = api.build_simulator({
            "system": name, "max_refs": 600, "seed": 42,
            "hardware_scale": HARDWARE_SCALE, "warmup_fraction": 0.0,
            "workload": "rnd"})
        system = sim.system
        walker = system.nested_walker or system.cores[0].walker
        seen = []
        walk = walker.walk

        def wrapped(*args, **kwargs):
            seen.append(args)
            return walk(*args, **kwargs)

        walker.walk = wrapped
        sim.run()
        stats = walker.stats
        counted = stats.walks + getattr(stats, "background_walks", 0)
        assert stats.walks > 0 and len(seen) == counted


class TestHashedPageTableBackend:
    def _system(self, **overrides):
        scenario = {"name": "hash-e2e", "system": "hash_pt",
                    "max_refs": MAX_REFS, "seed": 42,
                    "hardware_scale": HARDWARE_SCALE,
                    "warmup_fraction": 0.25, "workload": "rnd"}
        scenario.update(overrides)
        return scenario

    def test_runs_end_to_end_from_scenario(self):
        result = api.build_simulator(self._system()).run()
        assert result.system_kind == "hash_pt"
        assert result.system_label == "Hashed PT"
        assert result.memory_refs > 0
        # Every L2 TLB miss resolves through the hashed probe.
        assert result.miss_latency_breakdown.get("hash_pt", 0) > 0
        assert result.served_by.get("page_walk", 0) > 0

    def test_runs_deterministically(self):
        first = api.build_simulator(self._system()).run()
        second = api.build_simulator(self._system()).run()
        assert _canonical(first.to_json_dict()) == _canonical(second.to_json_dict())

    def test_cli_run_scenario(self, tmp_path, capsys):
        from repro.cli import main

        scenario = tmp_path / "hash.toml"
        scenario.write_text(
            'name = "hash-cli"\n'
            'system = "hash_pt"\n'
            f'max_refs = {MAX_REFS}\n'
            'seed = 42\n'
            f'hardware_scale = {HARDWARE_SCALE}\n'
            'workload = "rnd"\n')
        assert main(["run", "--scenario", str(scenario)]) == 0
        output = capsys.readouterr().out
        assert "Hashed PT" in output

    def test_table_evicts_lru_within_bucket(self):
        from repro.memory.page_table import RadixPageTable

        table = HashedPageTable(_tiny_physical(), entries=64, bucket_slots=4)
        # Fill well beyond capacity to force per-bucket LRU evictions.
        page_table = RadixPageTable(_tiny_physical())
        for vpn in range(256):
            table.insert(page_table.map_page(vpn, pfn=vpn), 0)
        assert table.occupancy() <= table.entries
        assert table.stats.evictions > 0

    def test_invalidation_drops_entries(self):
        from repro.memory.page_table import RadixPageTable

        table = HashedPageTable(_tiny_physical(), entries=64, bucket_slots=4)
        page_table = RadixPageTable(_tiny_physical(), asid=3)
        table.insert(page_table.map_page(1, pfn=1), 3)
        assert table.contains(0x1000, 3)
        assert table.invalidate_page(0x1000, 3) == 1
        assert not table.contains(0x1000, 3)


def _pom_state(pom) -> tuple:
    """Each POM-TLB set's keys in last-touch order, and the counters."""
    return [list(pom_set) for pom_set in pom._sets], pom.stats


class TestPOMTLBWarmStart:
    """The POM-TLB warm start ends as one ``insert`` per ``all_entries()``
    entry would, and builds only the entries it keeps."""

    @pytest.mark.parametrize("system", ["pom_tlb", "virt_pom_tlb"])
    def test_matches_one_insert_per_entry(self, system):
        # bfs at scale 8: a table of about 36k leaves (the shadow table on
        # virt_pom_tlb) against an 8,192-entry POM-TLB, so sets evict.
        spec = {"system": system, "max_refs": 100, "seed": 42, "hardware_scale": 8,
                "workload": "bfs"}
        warm, reference = api.build_simulator(spec), api.build_simulator(spec)
        for simulator in (warm, reference):
            simulator.system.backend.warm_start = lambda page_table: None
            simulator.prefault()
            del simulator.system.backend.warm_start
        table, reference_table = warm.system.page_table, reference.system.page_table
        pom, reference_pom = warm.system.backend.pom_tlb, reference.system.backend.pom_tlb
        leaves = list(table.leaves())
        kinds = {(size, pte is None) for _, size, pte in leaves}
        assert kinds == {(PageSize.SIZE_4K, True), (PageSize.SIZE_4K, False),
                         (PageSize.SIZE_2M, False)}
        assert len(leaves) > 4 * pom.entries
        for _ in range(2):  # the second warm start goes into a full POM-TLB
            packed = {(int(size), vpn) for vpn, size, pte in table.leaves() if pte is None}
            warm.system.backend.warm_start(table)
            for pte in reference_table.all_entries():
                reference_pom.insert(pte, pte.asid)
            assert _pom_state(pom) == _pom_state(reference_pom)
            # Only the entries the POM-TLB keeps were built ...
            kept = {(size, vpn) for pom_set in pom._sets for _, size, vpn in pom_set}
            assert {(int(size), vpn) for vpn, size, pte in table.leaves()
                    if pte is None} == packed - kept
            # ... and each is the page table's own entry.
            for pom_set in pom._sets:
                for (_, size, vpn), pte in pom_set.items():
                    own = (table.entry_4k(vpn) if size == PageSize.SIZE_4K
                           else table.lookup(vpn << 21))
                    assert pte is own
        assert pom.occupancy() == pom.entries
        assert pom.stats.insertions == 2 * len(leaves)
        assert pom.stats.evictions > len(leaves)


class TestBackendsCLIList:
    def _cli_lines(self, capsys):
        from repro.cli import main

        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        return [line.strip() for line in out.splitlines()
                if line.startswith("  ")]

    def test_lists_every_registered_backend(self, capsys):
        lines = self._cli_lines(capsys)
        assert len(lines) == len(available_backends())
        for spec, line in zip(available_backends(), lines):
            assert line.startswith(spec.name)
            assert spec.label in line
            assert spec.summary in line

    def test_readme_table_matches_cli_output(self, capsys):
        """The README's "Available backends" table is pinned to the registry."""
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        rows = re.findall(r"^\| `([a-z0-9_]+)` \| ([^|]+) \| (native|virtualized) \|",
                          readme, flags=re.MULTILINE)
        table = {name: (label.strip(), mode) for name, label, mode in rows}
        specs = available_backends()
        assert set(table) == {spec.name for spec in specs}, (
            "README 'Available backends' table is out of sync with "
            "`repro backends list`")
        for spec in specs:
            label, mode = table[spec.name]
            assert label == spec.label
            assert mode == ("virtualized" if spec.virtualized else "native")


def _tiny_physical():
    from repro.memory.physical import PhysicalMemory

    return PhysicalMemory(64 * 1024 * 1024)

