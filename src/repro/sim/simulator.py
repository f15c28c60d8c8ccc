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

from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import reuse_buckets
from repro.cache.block import BlockKind
from repro.cache.hierarchy import MemoryLevel
from repro.common.errors import ConfigurationError
from repro.sim.config import SimulationConfig, SystemConfig
from repro.sim.sampling import SamplingConfig, sampling_metadata
from repro.sim.system import MultiCoreSystem, System, build_system
from repro.workloads.base import MemoryRef, Workload, WorkloadConfig
from repro.workloads.registry import make_workload


class _LoopState:
    """Mutable accumulator state shared by the fast-path loop variants.

    One instance lives for a whole run; ``Simulator._process_batch`` reads
    and writes it between batches.  ``refs`` counts *detailed* references
    only and is never reset at the warm-up boundary — exactly like the
    historical local variable it replaces.
    """

    __slots__ = ("instructions", "cycles", "translation_cycles", "refs",
                 "data_l2_misses", "level_counts", "reach_samples",
                 "reach_samples_4k", "next_epoch", "measuring", "warmup_refs")

    def __init__(self, warmup_refs: int, next_epoch: int, measuring: bool):
        self.instructions = 0
        self.cycles = 0.0
        self.translation_cycles = 0.0
        self.refs = 0
        self.data_l2_misses = 0
        self.level_counts: Dict[str, int] = {}
        self.reach_samples: List[int] = []
        self.reach_samples_4k: List[int] = []
        self.next_epoch = next_epoch
        self.measuring = measuring
        self.warmup_refs = warmup_refs


class _RunContext:
    """Per-run constants and callees for the fast-path loop variants."""

    __slots__ = ("simulator", "base_cpi", "epoch_instructions", "translate_data",
                 "hierarchy_access", "record_instructions",
                 "record_l2_cache_miss", "victima")

    def __init__(self, simulator, base_cpi, epoch_instructions, translate_data,
                 hierarchy_access, record_instructions, record_l2_cache_miss,
                 victima):
        self.simulator = simulator
        self.base_cpi = base_cpi
        self.epoch_instructions = epoch_instructions
        self.translate_data = translate_data
        self.hierarchy_access = hierarchy_access
        self.record_instructions = record_instructions
        self.record_l2_cache_miss = record_l2_cache_miss
        self.victima = victima

    def reset_measured(self, state: "_LoopState") -> None:
        """The warm-up boundary: zero measured stats, keep all warm state."""
        self.simulator._reset_measured_stats()
        state.instructions = 0
        state.cycles = 0.0
        state.translation_cycles = 0.0
        state.data_l2_misses = 0
        state.level_counts = {}
        # Warm-up epochs must not leak into the measured reach series.
        state.reach_samples = []
        state.reach_samples_4k = []
        state.next_epoch = self.epoch_instructions
        state.measuring = True


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
    # full fast path it reproduces (pinned by tests/test_sampling.py).
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
    """Runs one workload on one system.

    ``warmup_fraction`` of the workload's references are simulated first with
    full functional effect (TLBs, caches, Victima blocks and the POM-TLB warm
    up) but without contributing to the measured statistics — the standard
    warm-up methodology that stands in for the paper's much longer
    500M-instruction regions of interest.
    """

    def __init__(self, system: System, workload: Workload,
                 epoch_instructions: int = 10_000, warmup_fraction: float = 0.25,
                 fast_path: bool = True,
                 sampling: Optional[SamplingConfig] = None):
        if isinstance(system, MultiCoreSystem):
            raise ConfigurationError(
                "this Simulator is single-core; a MultiCoreSystem "
                "(num_cores > 1) runs on repro.sim.multicore.MultiCoreSimulator")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.system = system
        self.workload = workload
        self.epoch_instructions = epoch_instructions
        self.warmup_fraction = warmup_fraction
        #: When True (the default) ``run()`` uses the batched-stream loop with
        #: the L1-TLB-hit translation fast path; when False it runs the
        #: straight-line reference loop.  Both produce bit-identical
        #: :class:`SimulationResult`\ s (pinned by ``tests/test_hotpath.py``);
        #: the reference loop exists exactly so that parity stays testable.
        self.fast_path = fast_path
        #: Opt-in SMARTS sampling (see :mod:`repro.sim.sampling`); requires
        #: the fast path.  ``None`` (the default) simulates every reference.
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
        classes share the ``run() -> SimulationResult`` interface); the
        ``num_cores == 1`` path below is untouched by the multi-core engine,
        which keeps it bit-identical to the classic simulator.
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
                   sampling=getattr(spec, "sampling", None))

    @classmethod
    def from_simulation_config(cls, config: SimulationConfig,
                               workload_config: WorkloadConfig) -> "Simulator":
        if config.max_refs is not None:
            # Never mutate the caller's config: the same WorkloadConfig may be
            # shared across several runs (e.g. a sweep over SimulationConfigs).
            workload_config = replace(workload_config,
                                      max_refs=config.max_refs,
                                      params=dict(workload_config.params))
        return cls.from_configs(config.system, workload_config,
                                epoch_instructions=config.epoch_instructions)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def prefault(self) -> int:
        """Populate the page table(s) for every workload data region.

        The paper's workloads allocate and initialise their datasets before
        the measured region of interest, so the measured window starts with a
        fully populated page table (and hence with dense 8-entry PTE clusters
        for Victima to transform).  Returns the number of pages mapped.
        """
        mapped = 0
        for base, size in self.workload.memory_regions():
            mapped += self.system.memory_manager.prefault_range(base, size)
        if self.system.is_virtualized and self.system.nested_walker is not None:
            # Back every guest-physical page with a host frame and install the
            # combined (shadow) mapping, mirroring a VM whose guest memory is
            # resident before the region of interest.
            walker = self.system.nested_walker
            walker.host_vmm.prefault_range(0, walker.guest_vmm.physical.allocated_bytes)
            for base, size in self.workload.memory_regions():
                vaddr = base
                end = base + size
                while vaddr < end:
                    combined = walker.install_shadow_mapping(vaddr)
                    vaddr = (combined.vpn + 1) << combined.page_size.offset_bits
        # Backends that accumulate translations over a process lifetime (the
        # POM-TLB, the hashed page table) start warm: over the billions of
        # instructions preceding the region of interest they hold
        # (essentially) the whole working set.
        self.system.backend.warm_start(self.system.page_table)
        return mapped

    def run(self) -> SimulationResult:
        """Simulate the workload and return the measured result.

        Dispatches to the batched fast-path loop (:meth:`_run_fast`, the
        default), its SMARTS-sampled variant (:meth:`_run_sampled`, when a
        :class:`SamplingConfig` is set) or the straight-line reference loop
        (:meth:`_run_reference`).  The fast and reference loops are
        bit-identical by construction and by test, as are the sampled loop at
        ``stride=1`` and the fast loop.
        """
        if self.sampling is not None:
            if not self.fast_path:
                raise ConfigurationError(
                    "sampled simulation requires the fast path "
                    "(fast_path=True); the reference loop has no sampling mode")
            return self._run_sampled()
        if self.fast_path:
            return self._run_fast()
        return self._run_reference()

    def _setup_fast_run(self) -> Tuple["_RunContext", "_LoopState"]:
        """Prefault, then build the shared context/state for a fast-path run."""
        system = self.system
        mmu = system.mmu
        self.prefault()

        translate_data = getattr(mmu, "translate_data", None)
        if translate_data is None:
            # Virtualized MMUs have no fast path; adapt the generic flow.
            def translate_data(vaddr, _translate=mmu.translate):
                result = _translate(vaddr, is_instruction=False)
                return result.paddr, result.latency

        ctx = _RunContext(
            simulator=self,
            base_cpi=system.config.base_cpi,
            epoch_instructions=self.epoch_instructions,
            translate_data=translate_data,
            hierarchy_access=system.hierarchy.access,
            record_instructions=system.pressure.record_instructions,
            record_l2_cache_miss=system.pressure.record_l2_cache_miss,
            victima=system.victima,
        )
        total_refs = self.workload.config.max_refs
        warmup_refs = int(total_refs * self.warmup_fraction)
        state = _LoopState(warmup_refs=warmup_refs,
                           next_epoch=self.epoch_instructions,
                           measuring=warmup_refs == 0)
        return ctx, state

    def _process_batch(self, ctx: "_RunContext", state: "_LoopState",
                       batch: List[MemoryRef]) -> None:
        """Simulate one list of references, updating ``state`` in place.

        This is *the* per-reference hot loop: it mirrors
        :meth:`_run_reference` statement for statement (same float
        accumulation order, same reset point) with the callees bound to
        locals, exactly as the pre-refactor ``_run_fast`` body did.  Parity
        is pinned by ``tests/test_hotpath.py`` across every native preset.
        """
        instructions = state.instructions
        cycles = state.cycles
        translation_cycles = state.translation_cycles
        refs = state.refs
        data_l2_misses = state.data_l2_misses
        level_counts = state.level_counts
        reach_samples = state.reach_samples
        reach_samples_4k = state.reach_samples_4k
        next_epoch = state.next_epoch
        measuring = state.measuring
        warmup_refs = state.warmup_refs
        epoch_instructions = ctx.epoch_instructions
        base_cpi = ctx.base_cpi
        translate_data = ctx.translate_data
        hierarchy_access = ctx.hierarchy_access
        record_instructions = ctx.record_instructions
        record_l2_cache_miss = ctx.record_l2_cache_miss
        victima = ctx.victima
        level_l3 = MemoryLevel.L3
        level_dram = MemoryLevel.DRAM

        for ref in batch:
            if not measuring and refs >= warmup_refs:
                ctx.reset_measured(state)
                instructions = 0
                cycles = 0.0
                translation_cycles = 0.0
                data_l2_misses = 0
                level_counts = state.level_counts
                reach_samples = state.reach_samples
                reach_samples_4k = state.reach_samples_4k
                next_epoch = state.next_epoch
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
            value = level.value
            level_counts[value] = level_counts.get(value, 0) + 1
            if level is level_l3 or level is level_dram:
                data_l2_misses += 1
                record_l2_cache_miss()

            if instructions >= next_epoch:
                next_epoch += epoch_instructions
                if victima is not None:
                    reach_samples.append(victima.translation_reach_bytes())
                    reach_samples_4k.append(
                        victima.translation_reach_bytes(assume_4k=True))

        state.instructions = instructions
        state.cycles = cycles
        state.translation_cycles = translation_cycles
        state.refs = refs
        state.data_l2_misses = data_l2_misses
        state.next_epoch = next_epoch
        state.measuring = measuring

    def _finish_fast_run(self, ctx: "_RunContext",
                         state: "_LoopState") -> SimulationResult:
        # Always take a final sample so short runs still report reach.
        if ctx.victima is not None:
            state.reach_samples.append(ctx.victima.translation_reach_bytes())
            state.reach_samples_4k.append(
                ctx.victima.translation_reach_bytes(assume_4k=True))
        warmup_refs = state.warmup_refs
        measured_refs = state.refs - warmup_refs if warmup_refs else state.refs
        return self._collect(state.instructions, state.cycles,
                             state.translation_cycles, measured_refs,
                             state.data_l2_misses, state.level_counts,
                             state.reach_samples, state.reach_samples_4k)

    def _run_fast(self) -> SimulationResult:
        """Batched hot-path loop: chunked reference lists + ``translate_data``.

        References arrive as pre-built lists from
        :meth:`~repro.workloads.base.Workload.bounded_batches`; each batch
        goes through :meth:`_process_batch`.  Bit-identical to
        :meth:`_run_reference` by test.
        """
        ctx, state = self._setup_fast_run()
        process_batch = self._process_batch
        for batch in self.workload.bounded_batches():
            process_batch(ctx, state, batch)
        return self._finish_fast_run(ctx, state)

    def _run_sampled(self) -> SimulationResult:
        """SMARTS-sampled fast-path loop (see :mod:`repro.sim.sampling`).

        The global warm-up region is fully detailed and cut at the boundary
        so the measured-stats reset fires at the first reference of window 0;
        after it, one window in every ``stride`` is simulated in detail
        (optionally re-warmed by ``warmup_refs`` unmeasured references) and
        the rest are skipped through ``Workload.fast_forward``.  With
        ``stride=1`` nothing is ever skipped and the run is bit-identical to
        :meth:`_run_fast` (pinned by ``tests/test_sampling.py``).
        """
        sampling = self.sampling
        ctx, state = self._setup_fast_run()
        workload = self.workload
        stream = workload.generate()
        total_refs = workload.config.max_refs
        warmup_refs = state.warmup_refs
        batch_size = Workload.BATCH_SIZE

        produced = 0
        dry = False
        while produced < warmup_refs and not dry:
            want = min(batch_size, warmup_refs - produced)
            batch = list(islice(stream, want))
            produced += len(batch)
            if batch:
                self._process_batch(ctx, state, batch)
            dry = len(batch) < want

        window_series: List[float] = []
        skipped_refs = 0
        stride = sampling.stride
        window_refs = sampling.window_refs
        window_warmup = sampling.warmup_refs
        window = 0
        while not dry and produced < total_refs:
            want = min(window_refs, total_refs - produced)
            if window % stride == 0:
                head = min(window_warmup, want)
                if head:
                    batch = list(islice(stream, head))
                    produced += len(batch)
                    if batch:
                        self._process_batch(ctx, state, batch)
                    dry = len(batch) < head
                body = want - head
                if body and not dry:
                    batch = list(islice(stream, body))
                    produced += len(batch)
                    if batch:
                        start_refs = state.refs
                        # The warm-up reset fires inside window 0's first
                        # measured reference; its cycle baseline is 0.
                        start_cycles = state.cycles if state.measuring else 0.0
                        self._process_batch(ctx, state, batch)
                        measured = state.refs - start_refs
                        if measured:
                            window_series.append(
                                (state.cycles - start_cycles) / measured)
                    dry = len(batch) < body
            else:
                got = workload.fast_forward(stream, want)
                produced += got
                skipped_refs += got
                dry = got < want
            window += 1

        result = self._finish_fast_run(ctx, state)
        result.sampling = sampling_metadata(sampling, window_series,
                                            detailed_refs=state.refs,
                                            skipped_refs=skipped_refs)
        return result

    def _run_reference(self) -> SimulationResult:
        """The straight-line per-reference loop (the pre-fast-path engine)."""
        system = self.system
        mmu = system.mmu
        hierarchy = system.hierarchy
        pressure = system.pressure
        base_cpi = system.config.base_cpi
        self.prefault()

        total_refs = self.workload.config.max_refs
        warmup_refs = int(total_refs * self.warmup_fraction)

        instructions = 0
        cycles = 0.0
        translation_cycles = 0.0
        refs = 0
        data_l2_misses = 0
        level_counts: Dict[str, int] = {}
        reach_samples: List[int] = []
        reach_samples_4k: List[int] = []
        next_epoch = self.epoch_instructions
        measuring = warmup_refs == 0

        for ref in self.workload.bounded():
            if not measuring and refs >= warmup_refs:
                self._reset_measured_stats()
                instructions = 0
                cycles = 0.0
                translation_cycles = 0.0
                data_l2_misses = 0
                level_counts = {}
                # Warm-up epochs must not leak into the measured reach series.
                reach_samples = []
                reach_samples_4k = []
                next_epoch = self.epoch_instructions
                measuring = True

            instructions += ref.instruction_gap + 1
            pressure.record_instructions(ref.instruction_gap + 1)
            cycles += ref.instruction_gap * base_cpi

            translation = mmu.translate(ref.vaddr, is_instruction=False)
            cycles += translation.latency
            translation_cycles += translation.latency

            access = hierarchy.access(translation.paddr, write=ref.is_write, ip=ref.ip)
            cycles += access.latency
            refs += 1
            level_counts[access.level.value] = level_counts.get(access.level.value, 0) + 1
            if access.level in (MemoryLevel.L3, MemoryLevel.DRAM):
                data_l2_misses += 1
                pressure.record_l2_cache_miss()

            if instructions >= next_epoch:
                next_epoch += self.epoch_instructions
                if system.victima is not None:
                    reach_samples.append(system.victima.translation_reach_bytes())
                    reach_samples_4k.append(
                        system.victima.translation_reach_bytes(assume_4k=True))

        # Always take a final sample so short runs still report reach.
        if system.victima is not None:
            reach_samples.append(system.victima.translation_reach_bytes())
            reach_samples_4k.append(system.victima.translation_reach_bytes(assume_4k=True))

        measured_refs = refs - warmup_refs if warmup_refs else refs
        return self._collect(instructions, cycles, translation_cycles, measured_refs,
                             data_l2_misses, level_counts, reach_samples,
                             reach_samples_4k)

    def _reset_measured_stats(self) -> None:
        """Zero the statistics accumulated during warm-up, keeping all state.

        :func:`repro.sim.system.build_system` attaches a
        :class:`~repro.common.stats.StatsRegistry` holding every stat-bearing
        component registered at construction, so the boundary is one walk of
        one list.
        """
        self.system.stats_registry.reset_all()

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _collect(self, instructions, cycles, translation_cycles, refs,
                 data_l2_misses, level_counts, reach_samples,
                 reach_samples_4k) -> SimulationResult:
        system = self.system
        result = SimulationResult(
            workload=self.workload.name,
            system_label=system.config.label,
            system_kind=system.config.kind.value,
            instructions=instructions,
            cycles=cycles,
            memory_refs=refs,
            translation_cycles=translation_cycles,
            data_l2_misses=data_l2_misses,
            data_access_levels=level_counts,
        )

        mmu_stats = system.mmu.stats
        walker_stats = system.walker.stats
        result.l2_tlb_misses = mmu_stats.l2_tlb_misses
        result.l1_tlb_misses = (mmu_stats.translations - mmu_stats.l1_tlb_hits
                                if hasattr(mmu_stats, "translations") else 0)
        result.miss_latency_breakdown = dict(mmu_stats.miss_latency_breakdown)
        result.l2_tlb_miss_latency_mean = mmu_stats.mean_miss_latency
        result.served_by = dict(getattr(mmu_stats, "served_by", {}))

        if system.is_virtualized:
            result.page_walks = mmu_stats.guest_page_walks
            result.host_page_walks = mmu_stats.host_page_walks
            if system.nested_walker is not None:
                nested = system.nested_walker.stats
                result.nested_stats = {
                    "nested_tlb_hits": nested.nested_tlb_hits,
                    "nested_tlb_misses": nested.nested_tlb_misses,
                    "nested_block_hits": nested.nested_block_hits,
                    "mean_nested_walk_latency": nested.mean_latency,
                    "total_guest_latency": nested.total_guest_latency,
                    "total_host_latency": nested.total_host_latency,
                }
            result.ptw_mean_latency = (system.nested_walker.stats.mean_latency
                                       if system.nested_walker is not None else 0.0)
        else:
            result.page_walks = mmu_stats.page_walks
            result.ptw_mean_latency = walker_stats.mean_latency
            result.ptw_latency_histogram = dict(walker_stats.latency_histogram)
        result.background_walks = walker_stats.background_walks

        l2_stats = system.l2_cache.stats
        result.l2_data_reuse_histogram = l2_stats.reuse_distribution(BlockKind.DATA)

        if system.victima is not None:
            victima = system.victima
            result.victima_stats = {
                "probes": victima.stats.probes,
                "block_hits": victima.stats.block_hits,
                "probe_hit_rate": victima.stats.probe_hit_rate,
                "insertions_on_miss": victima.stats.insertions_on_miss,
                "insertions_on_eviction": victima.stats.insertions_on_eviction,
                "predictor_rejections": victima.stats.predictor_rejections,
                "predictor_bypasses": victima.stats.predictor_bypasses,
                "background_walks": victima.stats.background_walks,
                "data_blocks_transformed": victima.stats.data_blocks_transformed,
                "nested_probes": victima.stats.nested_probes,
                "nested_block_hits": victima.stats.nested_block_hits,
                "nested_insertions": victima.stats.nested_insertions,
            }
            # Combine the reuse of evicted TLB blocks with a final snapshot of
            # the still-resident ones: in short windows with the TLB-aware
            # policy most TLB blocks are never evicted at all.
            histogram = victima.tlb_block_reuse_distribution()
            for block in victima.resident_tlb_blocks():
                histogram[block.reuse_count] = histogram.get(block.reuse_count, 0) + 1
            result.tlb_block_reuse_histogram = histogram
            result.translation_reach_samples = reach_samples
            result.translation_reach_samples_4k = reach_samples_4k

        if system.pom_tlb is not None:
            pom = system.pom_tlb.stats
            result.pom_tlb_stats = {
                "lookups": pom.lookups,
                "hits": pom.hits,
                "hit_rate": pom.hit_rate,
                "mean_lookup_latency": pom.mean_lookup_latency,
            }

        vm_stats = system.memory_manager.stats
        result.footprint_bytes = vm_stats.footprint_bytes
        result.pages_4k = vm_stats.pages_4k
        result.pages_2m = vm_stats.pages_2m
        return result
