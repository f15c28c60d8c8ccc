"""The trace-driven simulator loop and its result object.

For every memory reference emitted by a workload the simulator:

1. charges the reference's instruction gap at the core's base CPI,
2. translates the virtual address through the system's MMU (which models the
   full TLB / walk / Victima / POM-TLB latency), and
3. performs the data access through the cache hierarchy at the translated
   physical address.

Translation sits on the critical path before the data access (no memory access
is possible until the physical address is known), so the two latencies add up —
the same first-order model the paper's motivation uses when it attributes ~30 %
of execution cycles to address translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import reuse_buckets
from repro.cache.block import BlockKind
from repro.cache.hierarchy import MemoryLevel
from repro.common.errors import ConfigurationError
from repro.sim.config import SystemConfig
from repro.sim.sampling import SamplingConfig, sampled_batches, sampling_block
from repro.sim.system import System, build_system
from repro.workloads.base import MemoryRef, Workload, WorkloadConfig
from repro.workloads.registry import make_workload


class CoreRun:
    """One core's run through a simulation: its accumulators and sampling state.

    Both engines keep one per simulated :class:`~repro.sim.system.Core`.
    ``refs`` counts *detailed* references and is never reset at the warm-up
    boundary; ``ready_at`` is the core's global-cycle position, which drives
    the multi-core scheduler and is never reset either.
    """

    __slots__ = ("core", "workload", "warmup_refs", "measuring", "refs",
                 "instructions", "cycles", "translation_cycles",
                 "data_l2_misses", "level_counts", "ready_at",
                 "skipped_refs", "window_series")

    def __init__(self, core, workload: Workload, warmup_refs: int):
        self.core = core
        self.workload = workload
        self.warmup_refs = warmup_refs
        self.measuring = warmup_refs == 0
        self.refs = 0
        self.ready_at = 0.0
        # SMARTS sampling bookkeeping (see repro.sim.sampling.sampled_batches).
        self.skipped_refs = 0
        self.window_series: List[float] = []
        self._zero_measured()

    def _zero_measured(self) -> None:
        self.instructions = 0
        self.cycles = 0.0
        self.translation_cycles = 0.0
        self.data_l2_misses = 0
        self.level_counts: Dict[str, int] = {}

    def reset_measured(self) -> None:
        """The core's warm-up boundary: zero measured stats, keep all warm state.

        The system factory gives every core a
        :class:`~repro.common.stats.StatsRegistry` holding its stat-bearing
        components, so the reset is one walk of one list.  The machine's own
        registry (the shared structures) is the engine's to reset, once every
        core is warm.
        """
        self.core.stats_registry.reset_all()
        self._zero_measured()
        self.measuring = True


class ReachSeries:
    """Victima translation reach, sampled every epoch and once at the end.

    Each sample sums the reach of ``victimas``, the run's Victima controllers
    (one per core; none on systems without Victima).  The engines count the
    epoch's instructions themselves and call :meth:`advance` when the count
    reaches :attr:`next_epoch`.
    """

    __slots__ = ("victimas", "epoch_instructions", "next_epoch", "samples",
                 "samples_4k")

    def __init__(self, victimas, epoch_instructions: int):
        self.victimas = [victima for victima in victimas if victima is not None]
        self.epoch_instructions = epoch_instructions
        self.restart()

    def restart(self) -> None:
        """Drop the series: warm-up epochs must not leak into the measured one."""
        self.next_epoch = self.epoch_instructions
        self.samples: List[int] = []
        self.samples_4k: List[int] = []

    def advance(self) -> int:
        """Close the current epoch with a sample; return the next boundary."""
        self.next_epoch += self.epoch_instructions
        self.sample()
        return self.next_epoch

    def sample(self) -> None:
        if self.victimas:
            reach = [victima.translation_reach() for victima in self.victimas]
            self.samples.append(sum(actual for actual, _ in reach))
            self.samples_4k.append(sum(as_4k for _, as_4k in reach))


@dataclass(frozen=True)
class CoreResult:
    """One core's slice of a multi-core :class:`SimulationResult`.

    Count-style fields sum to the aggregate result's fields; ``cycles`` is
    this core's busy time, whose maximum over the cores is the aggregate
    (makespan) cycle count.
    """

    core: int
    workload: str
    instructions: int = 0
    cycles: float = 0.0
    memory_refs: int = 0
    translation_cycles: float = 0.0
    l1_tlb_misses: int = 0
    l2_tlb_misses: int = 0
    page_walks: int = 0
    data_l2_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l2_tlb_mpki(self) -> float:
        return 1000.0 * self.l2_tlb_misses / self.instructions if self.instructions else 0.0


@dataclass
class SimulationResult:
    """Everything an experiment needs from one simulation run."""

    workload: str
    system_label: str
    system_kind: str
    instructions: int = 0
    cycles: float = 0.0
    memory_refs: int = 0

    # Translation-side metrics
    l1_tlb_misses: int = 0
    l2_tlb_misses: int = 0
    page_walks: int = 0
    host_page_walks: int = 0
    background_walks: int = 0
    ptw_mean_latency: float = 0.0
    ptw_latency_histogram: Dict[int, int] = field(default_factory=dict)
    l2_tlb_miss_latency_mean: float = 0.0
    miss_latency_breakdown: Dict[str, int] = field(default_factory=dict)
    served_by: Dict[str, int] = field(default_factory=dict)
    translation_cycles: float = 0.0

    # Cache-side metrics
    data_l2_misses: int = 0
    data_access_levels: Dict[str, int] = field(default_factory=dict)
    l2_data_reuse_histogram: Dict[int, int] = field(default_factory=dict)

    # Victima metrics
    victima_stats: Optional[Dict[str, float]] = None
    tlb_block_reuse_histogram: Dict[int, int] = field(default_factory=dict)
    translation_reach_samples: List[int] = field(default_factory=list)
    translation_reach_samples_4k: List[int] = field(default_factory=list)

    # POM-TLB metrics
    pom_tlb_stats: Optional[Dict[str, float]] = None

    # Virtualization metrics
    nested_stats: Optional[Dict[str, float]] = None

    # Memory-management metrics
    footprint_bytes: int = 0
    pages_4k: int = 0
    pages_2m: int = 0

    # Multi-core runs (num_cores > 1): per-core breakdown of the aggregate.
    num_cores: int = 1
    per_core: Optional[Tuple[CoreResult, ...]] = None

    # SMARTS-sampled runs: stride/window parameters, coverage and the
    # per-window cycles-per-ref error bars (see repro.sim.sampling).  Excluded
    # from equality so a stride-1 sampled run compares bit-identical to the
    # full run it reproduces (pinned by tests/test_sampling.py).
    sampling: Optional[Dict[str, object]] = field(default=None, compare=False)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def l2_tlb_mpki(self) -> float:
        return 1000.0 * self.l2_tlb_misses / self.instructions if self.instructions else 0.0

    @property
    def l2_cache_mpki(self) -> float:
        return 1000.0 * self.data_l2_misses / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def translation_cycle_fraction(self) -> float:
        return self.translation_cycles / self.cycles if self.cycles else 0.0

    @property
    def mean_translation_reach_bytes(self) -> float:
        samples = self.translation_reach_samples
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def mean_translation_reach_bytes_4k(self) -> float:
        samples = self.translation_reach_samples_4k
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def l2_data_reuse_buckets(self) -> Dict[str, float]:
        return reuse_buckets(self.l2_data_reuse_histogram)

    @property
    def tlb_block_reuse_buckets(self) -> Dict[str, float]:
        return reuse_buckets(self.tlb_block_reuse_histogram)

    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-serialisable deep copy of every field (nested dataclasses
        included).

        Histogram keys become strings under ``json.dumps``; as long as both
        sides of a comparison round-trip through JSON the representation is
        canonical, which is what the backend parity pins
        (``tests/test_backends.py``) rely on.  The ``sampling`` block is
        omitted for non-sampled runs so their serialised form (and the
        committed golden files pinned to it) is unchanged.
        """
        from dataclasses import asdict

        data = asdict(self)
        if data.get("sampling") is None:
            data.pop("sampling", None)
        return data

    def summary(self) -> Dict[str, object]:
        """A flat dictionary of headline metrics (used in reports and examples).

        Single-core runs keep their historic key set; multi-core runs add a
        ``num_cores`` entry (the per-core breakdown stays in :attr:`per_core`).
        """
        summary: Dict[str, object] = {
            "workload": self.workload,
            "system": self.system_label,
        }
        if self.num_cores > 1:
            summary["num_cores"] = self.num_cores
        summary.update({
            "instructions": self.instructions,
            "cycles": round(self.cycles, 1),
            "ipc": round(self.ipc, 4),
            "l2_tlb_mpki": round(self.l2_tlb_mpki, 2),
            "page_walks": self.page_walks,
            "host_page_walks": self.host_page_walks,
            "ptw_mean_latency": round(self.ptw_mean_latency, 1),
            "l2_tlb_miss_latency_mean": round(self.l2_tlb_miss_latency_mean, 1),
            "translation_cycle_fraction": round(self.translation_cycle_fraction, 3),
            "footprint_mb": round(self.footprint_bytes / (1 << 20), 1),
        })
        return summary


class Simulator:
    """Runs one workload on core 0 of a :class:`~repro.sim.system.System`.

    Single-core scenarios build a one-core machine for it; on a larger
    machine the other cores stay idle.

    ``warmup_fraction`` of the workload's references are simulated first with
    full functional effect (TLBs, caches, Victima blocks and the POM-TLB warm
    up) but without contributing to the measured statistics — the standard
    warm-up methodology that stands in for the paper's much longer
    500M-instruction regions of interest.
    """

    def __init__(self, system: System, workload: Workload,
                 epoch_instructions: int = 10_000, warmup_fraction: float = 0.25,
                 sampling: Optional[SamplingConfig] = None):
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.system = system
        self.workload = workload
        self.epoch_instructions = epoch_instructions
        self.warmup_fraction = warmup_fraction
        #: Opt-in SMARTS sampling (see :mod:`repro.sim.sampling`).  ``None``
        #: (the default) simulates every reference.
        self.sampling = sampling

    @classmethod
    def from_configs(cls, system_config: SystemConfig, workload_config: WorkloadConfig,
                     epoch_instructions: int = 10_000,
                     warmup_fraction: float = 0.25) -> "Simulator":
        """Build the workload, then the system (using the workload's THP mix)."""
        if system_config.num_cores > 1:
            raise ConfigurationError(
                "Simulator.from_configs is single-core; multi-core machines "
                "take one workload per core — use a num_cores > 1 scenario "
                "(Simulator.from_scenario) or repro.sim.multicore directly")
        workload = make_workload(workload_config)
        system = build_system(system_config, huge_page_fraction=workload.huge_page_fraction)
        return cls(system, workload, epoch_instructions=epoch_instructions,
                   warmup_fraction=warmup_fraction)

    @classmethod
    def from_scenario(cls, scenario):
        """Build a simulator from a declarative scenario.

        ``scenario`` is anything :func:`repro.scenario.load_scenario` accepts
        (a :class:`~repro.scenario.ScenarioSpec`, a mapping, a TOML/JSON path
        or a built-in name).  For a single-workload spec this constructs the
        exact simulator :meth:`from_configs` would, so both routes produce
        identical results; composed workload trees (mixes, phases, replays)
        are materialised through :mod:`repro.traces`.

        A spec with ``num_cores > 1`` returns a
        :class:`~repro.sim.multicore.MultiCoreSimulator` instead (the two
        classes share the ``run() -> SimulationResult`` interface, and the
        run record, sampler and result assembly behind it).
        """
        from repro.scenario import load_scenario

        spec = load_scenario(scenario)
        if spec.num_cores > 1:
            from repro.sim.multicore import MultiCoreSimulator

            return MultiCoreSimulator.from_scenario(spec)
        workload = spec.build_workload()
        system = build_system(spec.build_system_config(),
                              huge_page_fraction=workload.huge_page_fraction)
        return cls(system, workload, epoch_instructions=spec.epoch_instructions,
                   warmup_fraction=spec.warmup_fraction,
                   sampling=spec.sampling)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def prefault(self) -> int:
        """Prefault the workload's regions (see :func:`prefault`).

        :meth:`run` calls it through ``self``, so a caller can time set-up by
        replacing it on the instance.
        """
        return prefault(self.system, [self.workload])

    def run(self) -> SimulationResult:
        """Simulate the workload and return the measured result.

        Reference lists come from
        :meth:`~repro.workloads.base.Workload.bounded_batches` or, for a
        sampled run, from :func:`~repro.sim.sampling.sampled_batches`, which
        resumes only after the previous list has been simulated.  A sampled
        run at ``stride=1`` is bit-identical to the full run.
        """
        self.prefault()
        core = self.system.cores[0]
        run = CoreRun(core, self.workload,
                      int(self.workload.config.max_refs * self.warmup_fraction))
        reach = ReachSeries([core.victima], self.epoch_instructions)
        if self.sampling is None:
            batches = self.workload.bounded_batches()
        else:
            batches = sampled_batches(run, self.sampling)
        translate_data = core.mmu.translate_data
        process_batch = self._process_batch
        for batch in batches:
            process_batch(run, reach, translate_data, batch)
        return collect_result(self.system, [run], self.workload.name, reach,
                              self.sampling)

    def _process_batch(self, run: CoreRun, reach: ReachSeries, translate_data,
                       batch: List[MemoryRef]) -> None:
        """Simulate one list of references, updating ``run`` in place.

        This is *the* single-core per-reference loop, with the callees bound
        to locals.  The multi-core scheduler keeps its own body, because it
        sums a reference's cycles before adding them to the core's clock,
        and that order rounds differently.
        """
        system = self.system
        core = run.core
        instructions = run.instructions
        cycles = run.cycles
        translation_cycles = run.translation_cycles
        refs = run.refs
        data_l2_misses = run.data_l2_misses
        level_counts = run.level_counts
        measuring = run.measuring
        warmup_refs = run.warmup_refs
        next_epoch = reach.next_epoch
        advance_epoch = reach.advance
        base_cpi = system.config.base_cpi
        hierarchy_access = core.hierarchy.access
        record_instructions = core.pressure.record_instructions
        record_l2_cache_miss = core.pressure.record_l2_cache_miss
        level_l3 = MemoryLevel.L3
        level_dram = MemoryLevel.DRAM

        for ref in batch:
            if not measuring and refs >= warmup_refs:
                # The only running core is warm: so are the shared structures.
                run.reset_measured()
                system.stats_registry.reset_all()
                reach.restart()
                instructions = 0
                cycles = 0.0
                translation_cycles = 0.0
                data_l2_misses = 0
                level_counts = run.level_counts
                next_epoch = reach.next_epoch
                measuring = True

            gap = ref.instruction_gap
            instructions += gap + 1
            record_instructions(gap + 1)
            cycles += gap * base_cpi

            paddr, translation_latency = translate_data(ref.vaddr)
            cycles += translation_latency
            translation_cycles += translation_latency

            access = hierarchy_access(paddr, write=ref.is_write, ip=ref.ip)
            cycles += access.latency
            refs += 1
            level = access.level
            name = level._value_  # the level's name, without Enum.value's call
            level_counts[name] = level_counts.get(name, 0) + 1
            if level is level_l3 or level is level_dram:
                data_l2_misses += 1
                record_l2_cache_miss()

            if instructions >= next_epoch:
                next_epoch = advance_epoch()

        run.instructions = instructions
        run.cycles = cycles
        run.translation_cycles = translation_cycles
        run.refs = refs
        run.data_l2_misses = data_l2_misses


def prefault(system, workloads: Sequence[Workload]) -> int:
    """Populate the page table(s) for every data region of ``workloads``.

    The paper's workloads allocate and initialise their datasets before the
    measured region of interest, so the measured window starts with a fully
    populated page table (and hence with dense 8-entry PTE clusters for
    Victima to transform).  Serves both engines; the cores of a multi-core
    machine share one address space.  Returns the number of pages covered
    by the regions, whether mapped here or already present.
    """
    regions = [region for workload in workloads
               for region in workload.memory_regions()]
    mapped = 0
    for base, size in regions:
        mapped += system.memory_manager.prefault_range(base, size)
    if system.is_virtualized:
        # Back every guest-physical page with a host frame and install the
        # combined (shadow) mapping, mirroring a VM whose guest memory is
        # resident before the region of interest.
        walker = system.nested_walker
        walker.host_vmm.prefault_range(0, walker.guest_vmm.physical.allocated_bytes)
        for base, size in regions:
            walker.install_shadow_range(base, size)
    # Backends that accumulate translations over a process lifetime (the
    # POM-TLB, the hashed page table) start warm: over the billions of
    # instructions preceding the region of interest they hold (essentially)
    # the whole working set.  A shared structure is warmed once, through
    # core 0's backend.
    system.backend.warm_start(system.page_table)
    return mapped


# --------------------------------------------------------------------------- #
# Result assembly
# --------------------------------------------------------------------------- #
#: Per-core count fields whose machine-wide value is their sum over the cores.
_SUMMED_FIELDS = ("instructions", "memory_refs", "translation_cycles",
                  "l1_tlb_misses", "l2_tlb_misses", "page_walks",
                  "data_l2_misses")

#: Victima controller counters, summed over the cores' controllers.
_VICTIMA_COUNTS = ("probes", "block_hits", "insertions_on_miss",
                   "insertions_on_eviction", "predictor_rejections",
                   "predictor_bypasses", "background_walks",
                   "data_blocks_transformed", "nested_probes",
                   "nested_block_hits", "nested_insertions")


def collect_result(system, runs: Sequence[CoreRun], name: str,
                   reach: ReachSeries,
                   sampling: Optional[SamplingConfig] = None) -> SimulationResult:
    """Assemble a finished run's result: one :class:`CoreResult` per core, summed.

    Serves both engines.  Idle cores (no run) contribute empty slices.
    Counts sum over the cores, ``cycles`` is the per-core maximum (the
    makespan), and ``per_core`` is kept only when ``num_cores > 1``.  The
    final reach sample is taken here, so short runs still report reach.
    """
    reach.sample()
    config = system.config
    virtualized = system.is_virtualized
    per_core: List[CoreResult] = []
    level_counts: Dict[str, int] = {}
    breakdown: Dict[str, int] = {}
    served_by: Dict[str, int] = {}
    ptw_histogram: Dict[int, int] = {}
    reuse_histogram: Dict[int, int] = {}
    miss_latency = walk_latency = walks = background_walks = 0
    for core_id, core in enumerate(system.cores):
        run = next((run for run in runs if run.core is core), None)
        if run is None:
            per_core.append(CoreResult(core=core_id, workload="idle"))
            continue
        stats = core.mmu.stats
        walker = core.walker.stats
        per_core.append(CoreResult(
            core=core_id,
            workload=run.workload.name,
            instructions=run.instructions,
            cycles=run.cycles,
            memory_refs=run.refs - run.warmup_refs,
            translation_cycles=run.translation_cycles,
            l1_tlb_misses=stats.translations - stats.l1_tlb_hits,
            l2_tlb_misses=stats.l2_tlb_misses,
            page_walks=stats.guest_page_walks if virtualized else stats.page_walks,
            data_l2_misses=run.data_l2_misses,
        ))
        _merge(level_counts, run.level_counts)
        _merge(breakdown, stats.miss_latency_breakdown)
        # Virtualized MMUs do not attribute translations to a source.
        _merge(served_by, getattr(stats, "served_by", {}))
        _merge(ptw_histogram, walker.latency_histogram)
        _merge(reuse_histogram, core.l2_cache.stats.reuse_distribution(BlockKind.DATA))
        miss_latency += stats.total_miss_latency
        walk_latency += walker.total_latency
        walks += walker.walks
        background_walks += walker.background_walks

    result = SimulationResult(
        workload=name,
        system_label=config.label,
        system_kind=config.kind,
        cycles=max(core.cycles for core in per_core),
        background_walks=background_walks,
        ptw_mean_latency=walk_latency / walks if walks else 0.0,
        ptw_latency_histogram=ptw_histogram,
        miss_latency_breakdown=breakdown,
        served_by=served_by,
        data_access_levels=level_counts,
        l2_data_reuse_histogram=reuse_histogram,
        translation_reach_samples=reach.samples,
        translation_reach_samples_4k=reach.samples_4k,
        num_cores=config.num_cores,
        per_core=tuple(per_core) if config.num_cores > 1 else None,
        **{field: sum(getattr(core, field) for core in per_core)
           for field in _SUMMED_FIELDS},
    )
    result.l2_tlb_miss_latency_mean = (
        miss_latency / result.l2_tlb_misses if result.l2_tlb_misses else 0.0)

    if reach.victimas:
        totals: Dict[str, float] = dict.fromkeys(_VICTIMA_COUNTS, 0)
        block_reuse: Dict[int, int] = {}
        for victima in reach.victimas:
            for key in totals:
                totals[key] += getattr(victima.stats, key)
            # Combine the reuse of evicted TLB blocks with a final snapshot of
            # the still-resident ones: in short windows with the TLB-aware
            # policy most TLB blocks are never evicted at all.
            _merge(block_reuse, victima.tlb_block_reuse_distribution())
            for block in victima.resident_tlb_blocks():
                block_reuse[block.reuse_count] = block_reuse.get(block.reuse_count, 0) + 1
        totals["probe_hit_rate"] = (
            totals["block_hits"] / totals["probes"] if totals["probes"] else 0.0)
        result.victima_stats = totals
        result.tlb_block_reuse_histogram = block_reuse

    if system.backend.pom_tlb is not None:
        pom = system.backend.pom_tlb.stats
        result.pom_tlb_stats = {
            "lookups": pom.lookups,
            "hits": pom.hits,
            "hit_rate": pom.hit_rate,
            "mean_lookup_latency": pom.mean_lookup_latency,
        }

    if virtualized:
        nested = system.nested_walker.stats
        result.host_page_walks = system.cores[0].mmu.stats.host_page_walks
        result.nested_stats = {
            "nested_tlb_hits": nested.nested_tlb_hits,
            "nested_tlb_misses": nested.nested_tlb_misses,
            "nested_block_hits": nested.nested_block_hits,
            "mean_nested_walk_latency": nested.mean_latency,
            "total_guest_latency": nested.total_guest_latency,
            "total_host_latency": nested.total_host_latency,
        }
        result.ptw_mean_latency = nested.mean_latency
        result.ptw_latency_histogram = {}

    vm_stats = system.memory_manager.stats
    result.footprint_bytes = vm_stats.footprint_bytes
    result.pages_4k = vm_stats.pages_4k
    result.pages_2m = vm_stats.pages_2m
    if sampling is not None:
        result.sampling = sampling_block(sampling, runs,
                                         per_core=config.num_cores > 1)
    return result


def _merge(target: Dict, source: Dict) -> None:
    for key, value in source.items():
        target[key] = target.get(key, 0) + value
