"""The trace-driven simulation engine and its result object.

For every memory reference a core retires, the simulator:

1. charges the reference's instruction gap at the core's base CPI,
2. translates the virtual address through the system's MMU (which models the
   full TLB / walk / Victima / POM-TLB latency), and
3. performs the data access through the cache hierarchy at the translated
   physical address.

Translation sits on the critical path before the data access (no memory access
is possible until the physical address is known), so the two latencies add up —
the same first-order model the paper's motivation uses when it attributes ~30 %
of execution cycles to address translation.

One engine, :class:`Simulator`, runs every machine.  Each core owns a private
reference stream (one tenant, or an interleave of tenants, placed there by
:meth:`~repro.traces.combinators.MixWorkload.per_core_workloads`) and a
private slice of the :class:`~repro.sim.system.System` (TLBs, PWCs, walker,
L1/L2 caches, Victima controller), while all cores contend in its shared LLC,
DRAM, page table and POM-TLB.  Scheduling is deterministic: the *ready core*,
whose clock is lowest with ties broken by core id, retires its next reference
to completion.  Each reference advances its core's clock by the modelled
latency, so cores interleave in global-cycle order: a core stalled on DRAM
falls behind while a core hitting in its private caches runs ahead.  On one
core the schedule is a plain loop over the workload's references.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import reuse_buckets
from repro.cache.block import BlockKind
from repro.cache.hierarchy import MemoryLevel
from repro.common.errors import ConfigurationError
from repro.sim.sampling import SamplingConfig, sampled_batches, sampling_block
from repro.sim.system import System
from repro.workloads.base import Workload


class CoreRun:
    """One core's run through a simulation: its accumulators and sampling state.

    The engine keeps one per running :class:`~repro.sim.system.Core`.
    ``refs`` counts *detailed* references and is never reset at the warm-up
    boundary; ``ready_at`` is the core's clock, its global-cycle position,
    which orders the cores and is never reset either.
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
    (one per core; none on systems without Victima).  The engine counts the
    epoch's instructions itself and calls :meth:`advance` when the count
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
    """Runs one workload per core on a :class:`~repro.sim.system.System`.

    ``core_workloads`` holds one slot per core; a ``None`` slot idles its
    core.  ``warmup_fraction`` of each core's references are simulated first
    with full functional effect (TLBs, caches, Victima blocks and the POM-TLB
    warm up) but without contributing to the measured statistics — the
    standard warm-up methodology that stands in for the paper's much longer
    500M-instruction regions of interest.  A core's private statistics are
    zeroed when it crosses its own boundary, and the shared structures'
    (LLC, DRAM, POM-TLB) when the last running core crosses.

    :func:`repro.api.build_simulator` builds one from a scenario; a hand-built
    machine runs as ``Simulator(build_system(config, huge_page_fraction=...), [w])``.
    """

    def __init__(self, system: System,
                 core_workloads: Sequence[Optional[Workload]],
                 epoch_instructions: int = 10_000, warmup_fraction: float = 0.25,
                 name: Optional[str] = None,
                 sampling: Optional[SamplingConfig] = None):
        if len(core_workloads) != system.num_cores:
            raise ConfigurationError(
                f"need exactly one workload slot per core: got "
                f"{len(core_workloads)} for {system.num_cores} cores")
        if all(workload is None for workload in core_workloads):
            raise ConfigurationError("every core is idle; nothing to simulate")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.system = system
        self.core_workloads = list(core_workloads)
        self.epoch_instructions = epoch_instructions
        self.warmup_fraction = warmup_fraction
        if name is None:
            names = [workload.name if workload is not None else "idle"
                     for workload in core_workloads]
            name = names[0] if len(names) == 1 else "cores(" + "|".join(names) + ")"
        #: The workload name the result reports.
        self.name = name
        #: Opt-in SMARTS sampling (see :mod:`repro.sim.sampling`), applied
        #: per core.  ``None`` (the default) simulates every reference.
        self.sampling = sampling

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def prefault(self) -> int:
        """Populate the page table(s) for every data region of the workloads.

        The paper's workloads allocate and initialise their datasets before
        the measured region of interest, so the measured window starts with a
        fully populated page table (and hence with dense 8-entry PTE clusters
        for Victima to transform).  The cores share one address space.
        Returns the number of pages covered by the regions, whether mapped
        here or already present.  :meth:`run` calls it through ``self``, so a
        caller can time set-up by replacing it on the instance.
        """
        system = self.system
        regions = [region for workload in self.core_workloads if workload is not None
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

    def run(self) -> SimulationResult:
        """Simulate every core's workload and return the measured result.

        Ready cores wait in a heap keyed by ``(clock, index)``.  The popped
        core retires references, with its accumulators in locals, while its
        key stays below the smallest waiting one; on one core the heap is
        empty and this is a plain loop.  A waiting core's key does not move,
        so the schedule is the one a heap pick per reference gives.  Each
        reference adds its gap cycles, translation latency and access latency
        one at a time to both the core's measured ``cycles`` and its clock.

        A core's references come in lists from
        :meth:`~repro.workloads.base.Workload.bounded_batches` or, for a
        sampled run, from :func:`~repro.sim.sampling.sampled_batches`.  The
        sampler reads the core's run record and a skip moves its clock, so
        the record is written back before each pull and the clock reloaded
        after it; the pulled list's first reference retires before the next
        clock comparison.  A sampled run at ``stride=1`` is bit-identical to
        the full run.
        """
        system = self.system
        self.prefault()
        runs = [CoreRun(core, workload,
                        int(workload.config.max_refs * self.warmup_fraction))
                for core, workload in zip(system.cores, self.core_workloads)
                if workload is not None]
        # Cores that start measuring (warm-up 0) count as already warm; the
        # shared-stat reset only fires when a *boundary crossing* completes
        # the set, so a run with no warm-up anywhere never resets anything.
        cores_warm = sum(1 for run in runs if run.measuring)
        # Victima reach is sampled every epoch of instructions summed over
        # the cores, plus a final snapshot after the loop.
        reach = ReachSeries([run.core.victima for run in runs], self.epoch_instructions)
        next_epoch = reach.next_epoch
        total_instructions = 0

        sampling = self.sampling
        pulls = [run.workload.bounded_batches() if sampling is None
                 else sampled_batches(run, sampling) for run in runs]
        pending = [iter(()) for _ in runs]
        # Bound here rather than at build time, so wrappers that a caller puts
        # on the instances after the build are the ones called.
        hooks = [(run.core.mmu.translate_data, run.core.hierarchy.access,
                  run.core.pressure.record_instructions,
                  run.core.pressure.record_l2_cache_miss) for run in runs]
        base_cpi = system.config.base_cpi
        level_l3 = MemoryLevel.L3
        level_dram = MemoryLevel.DRAM
        ready = [(run.ready_at, index) for index, run in enumerate(runs)]
        heapq.heapify(ready)
        while ready:
            _, index = heapq.heappop(ready)
            run = runs[index]
            (translate_data, hierarchy_access, record_instructions,
             record_l2_cache_miss) = hooks[index]
            if ready:
                # Yield once the clock passes the smallest waiting key; a
                # clock tie goes to the lower index.
                limit, waiting = ready[0]
                yield_on_tie = index > waiting
            else:
                limit, yield_on_tie = math.inf, False
            clock = run.ready_at
            instructions = run.instructions
            cycles = run.cycles
            translation_cycles = run.translation_cycles
            refs = run.refs
            data_l2_misses = run.data_l2_misses
            level_counts = run.level_counts
            measuring = run.measuring
            warmup_refs = run.warmup_refs
            batch = pending[index]
            while True:
                for ref in batch:
                    if not measuring and refs >= warmup_refs:
                        run.reset_measured()
                        instructions = 0
                        cycles = 0.0
                        translation_cycles = 0.0
                        data_l2_misses = 0
                        level_counts = run.level_counts
                        measuring = True
                        cores_warm += 1
                        if cores_warm == len(runs):
                            # Every running core is warm: so are the shared
                            # structures.  Warm-up epochs must not leak into
                            # the reach series.
                            system.stats_registry.reset_all()
                            reach.restart()
                            total_instructions = 0
                            next_epoch = reach.next_epoch

                    gap = ref.instruction_gap
                    count = gap + 1
                    instructions += count
                    total_instructions += count
                    record_instructions(count)
                    latency = gap * base_cpi
                    cycles += latency
                    clock += latency

                    paddr, latency = translate_data(ref.vaddr)
                    cycles += latency
                    clock += latency
                    translation_cycles += latency

                    access = hierarchy_access(paddr, write=ref.is_write, ip=ref.ip)
                    latency = access.latency
                    cycles += latency
                    clock += latency
                    refs += 1
                    level = access.level
                    name = level._value_  # the level's name, without Enum.value's call
                    level_counts[name] = level_counts.get(name, 0) + 1
                    if level is level_l3 or level is level_dram:
                        data_l2_misses += 1
                        record_l2_cache_miss()

                    if total_instructions >= next_epoch:
                        next_epoch = reach.advance()
                    if clock >= limit and (clock > limit or yield_on_tie):
                        break
                else:
                    batch = None  # the list is used up
                # Settle the record: the sampler reads it on the next pull.
                run.instructions = instructions
                run.cycles = cycles
                run.translation_cycles = translation_cycles
                run.refs = refs
                run.data_l2_misses = data_l2_misses
                run.ready_at = clock
                if batch is not None:
                    # Past the smallest waiting key: wait on the heap.
                    pending[index] = batch
                    heapq.heappush(ready, (clock, index))
                    break
                batch = next(pulls[index], None)
                if batch is None:
                    break  # the core's stream is done; it leaves the heap
                clock = run.ready_at  # a skipped window moves it
                batch = iter(batch)
        return collect_result(system, runs, self.name, reach, sampling)


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

    Idle cores (no run) contribute empty slices.
    Counts sum over the cores, ``cycles`` is the per-core maximum (the
    makespan), and ``per_core`` is kept only when ``num_cores > 1``.  The
    final reach sample is taken here, so short runs still report reach.
    """
    reach.sample()
    config = system.config
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
            l1_tlb_misses=stats.l2_tlb_hits + stats.l2_tlb_misses,
            l2_tlb_misses=stats.l2_tlb_misses,
            page_walks=stats.page_walks,
            data_l2_misses=run.data_l2_misses,
        ))
        _merge(level_counts, run.level_counts)
        _merge(breakdown, stats.miss_latency_breakdown)
        _merge(served_by, stats.served_by)
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

    if system.is_virtualized:
        # The goldens pin an empty ``served_by`` on virtualized results;
        # ROADMAP item 4's re-baseline deletes this line.
        result.served_by = {}
        nested = system.nested_walker.stats
        result.host_page_walks = nested.total_host_walks
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
