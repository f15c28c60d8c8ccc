"""The multi-core simulation engine.

A :class:`MultiCoreSimulator` steps ``num_cores`` cores against a single
global cycle clock.  Each core owns a private reference stream (one tenant —
or an interleave of tenants — placed there by the scenario layer, see
:meth:`repro.traces.combinators.MixWorkload.per_core_workloads`) and a private
slice of the machine (TLBs, PWCs, walker, L1/L2 caches, Victima controller),
while all cores contend in the shared LLC, DRAM, page table and POM-TLB of
the :class:`~repro.sim.system.MultiCoreSystem`.

Scheduling is deterministic: at every step the *ready core* — the core whose
accumulated cycle count is lowest, ties broken by core id — executes its next
memory reference to completion (instruction gap at the base CPI, then the
translation, then the data access).  Because each reference advances its
core's clock by the modelled latency, cores interleave in global-cycle order,
so a core stalled on DRAM naturally falls behind while a core hitting in its
private caches runs ahead — the same first-order contention model the paper's
multi-core evaluation relies on, with no randomness anywhere in the schedule.

The single-core path does not go through this module at all:
``num_cores == 1`` scenarios build the classic
:class:`~repro.sim.simulator.Simulator`, whose results stay bit-identical to
the pre-multi-core tree (pinned by ``tests/test_multicore.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cache.block import BlockKind
from repro.cache.hierarchy import MemoryLevel
from repro.common.errors import ConfigurationError
from repro.sim.sampling import (SamplingConfig, sampling_metadata,
                                window_series_summary)
from repro.sim.simulator import CoreResult, SimulationResult
from repro.sim.system import Core, MultiCoreSystem, build_system
from repro.workloads.base import MemoryRef, Workload


@dataclass
class _CoreRun:
    """Mutable per-core bookkeeping for one simulation run."""

    core: Core
    workload: Workload
    stream: Iterator[MemoryRef]
    warmup_refs: int
    #: Global-cycle position of the core; never reset (drives the scheduler).
    ready_at: float = 0.0
    measuring: bool = False
    # Measured accumulators (zeroed at the core's warm-up boundary).
    instructions: int = 0
    cycles: float = 0.0
    translation_cycles: float = 0.0
    refs: int = 0
    data_l2_misses: int = 0
    level_counts: Dict[str, int] = field(default_factory=dict)
    exhausted: bool = False
    # SMARTS sampling bookkeeping (populated only when sampling is enabled).
    skipped_refs: int = 0
    window_series: List[float] = field(default_factory=list)

    @property
    def core_id(self) -> int:
        return self.core.core_id


class MultiCoreSimulator:
    """Runs one workload per core on a :class:`MultiCoreSystem`.

    ``core_workloads`` holds one entry per core; ``None`` entries idle their
    core.  Warm-up follows the single-core methodology per core: the first
    ``warmup_fraction`` of each core's references run with full functional
    effect, the core's private statistics are zeroed when it crosses its own
    boundary, and the shared structures' statistics (LLC, DRAM, POM-TLB) are
    zeroed when the last core crosses.
    """

    def __init__(self, system: MultiCoreSystem,
                 core_workloads: Sequence[Optional[Workload]],
                 epoch_instructions: int = 10_000,
                 warmup_fraction: float = 0.25,
                 name: Optional[str] = None,
                 fast_path: bool = True,
                 sampling: Optional[SamplingConfig] = None):
        if not isinstance(system, MultiCoreSystem):
            raise ConfigurationError(
                "MultiCoreSimulator needs a MultiCoreSystem (num_cores > 1); "
                "single-core systems run on repro.sim.simulator.Simulator")
        if len(core_workloads) != system.num_cores:
            raise ConfigurationError(
                f"need exactly one workload slot per core: got "
                f"{len(core_workloads)} for {system.num_cores} cores")
        if not any(workload is not None for workload in core_workloads):
            raise ConfigurationError("every core is idle; nothing to simulate")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.system = system
        self.core_workloads = list(core_workloads)
        self.epoch_instructions = epoch_instructions
        self.warmup_fraction = warmup_fraction
        self.name = name or "cores(" + "|".join(
            (w.name if w is not None else "idle") for w in core_workloads) + ")"
        #: When True (the default) cores pull chunked reference batches and
        #: translate through the L1-hit fast path; when False each core runs
        #: the straight-line reference flow.  Results are bit-identical
        #: either way (pinned by ``tests/test_hotpath.py``) — only the
        #: scheduler decides execution order, and it is unchanged.
        self.fast_path = fast_path
        #: Opt-in SMARTS sampling (see :mod:`repro.sim.sampling`), applied
        #: per core: each core samples its own post-warm-up windows, and a
        #: skipped window advances the core's global-cycle clock by its
        #: measured mean cycles-per-reference so the deterministic scheduler
        #: keeps interleaving cores in (estimated) cycle order.
        self.sampling = sampling

    @classmethod
    def from_scenario(cls, scenario) -> "MultiCoreSimulator":
        """Build from a declarative scenario with ``num_cores > 1``.

        The scenario's top-level ``mix`` tenants are placed on cores
        (explicit ``core`` pins first, then least-loaded cores for the rest); tenant
        address-space slots and reference budgets are identical to the
        single-core interleaving of the same spec.
        """
        from repro.scenario import load_scenario

        spec = load_scenario(scenario)
        if spec.num_cores <= 1:
            raise ConfigurationError(
                "MultiCoreSimulator.from_scenario needs num_cores > 1; "
                "use Simulator.from_scenario for single-core specs")
        core_workloads = spec.build_core_workloads()
        # The root mix is rebuilt for its metadata only (display name,
        # huge-page mix over all tenants); its generators are never pulled.
        root = spec.build_workload()
        system = build_system(spec.build_system_config(),
                              huge_page_fraction=root.huge_page_fraction)
        return cls(system, core_workloads,
                   epoch_instructions=spec.epoch_instructions,
                   warmup_fraction=spec.warmup_fraction,
                   name=root.name,
                   sampling=getattr(spec, "sampling", None))

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def prefault(self) -> int:
        """Populate the shared page table for every core's data regions."""
        mapped = 0
        for workload in self.core_workloads:
            if workload is None:
                continue
            for base, size in workload.memory_regions():
                mapped += self.system.memory_manager.prefault_range(base, size)
        shared = self.system.shared_backend
        if shared is not None:
            # As in the single-core engine, the shared backend structure (the
            # POM-TLB or the hashed page table) starts warm: it has
            # accumulated every translation walked before the region of
            # interest.  Warm it exactly once through the shared structure —
            # per-core ports only route lookups.
            for pte in self.system.page_table.all_entries():
                shared.insert(pte, pte.asid)
        return mapped

    def run(self) -> SimulationResult:
        system = self.system
        base_cpi = system.config.base_cpi
        if self.sampling is not None and not self.fast_path:
            raise ConfigurationError(
                "sampled simulation requires the fast path (fast_path=True); "
                "the reference loop has no sampling mode")
        self.prefault()

        runs: List[_CoreRun] = []
        for core, workload in zip(system.cores, self.core_workloads):
            if workload is None:
                continue
            total = workload.config.max_refs
            warmup = int(total * self.warmup_fraction)
            if self.fast_path:
                # Same references in the same order as bounded(), delivered
                # as chunked lists and flattened at C level.
                stream = chain.from_iterable(workload.bounded_batches())
            else:
                stream = iter(workload.bounded())
            run = _CoreRun(core=core, workload=workload,
                           stream=stream,
                           warmup_refs=warmup, measuring=warmup == 0)
            if self.sampling is not None:
                # The sampler needs the run's live cycle/ref accumulators to
                # time window boundaries and skips, so it is attached after
                # the run object exists.
                run.stream = self._core_sampler(run, workload.generate(),
                                                self.sampling)
            runs.append(run)
        # Cores that start measuring (warmup 0) count as already warm; the
        # shared-stat reset only fires when a *boundary crossing* completes
        # the set, so a run with no warm-up anywhere never resets anything.
        cores_warm = sum(1 for run in runs if run.measuring)

        # Victima translation reach is sampled every epoch of *aggregate*
        # instruction progress (the multi-core analogue of the single-core
        # per-epoch series), plus a final snapshot after the loop.
        victimas = [run.core.victima for run in runs
                    if run.core.victima is not None]
        reach_samples: List[int] = []
        reach_samples_4k: List[int] = []
        total_instructions = 0
        next_epoch = self.epoch_instructions

        # Multi-core machines are native-only (validated by SystemConfig), so
        # every core MMU has the fast path; the getattr is pure defence.
        use_fast_translate = self.fast_path and all(
            getattr(run.core.mmu, "translate_data", None) is not None
            for run in runs)

        pending = list(runs)
        while pending:
            run = min(pending, key=lambda r: (r.ready_at, r.core_id))
            ref = next(run.stream, None)
            if ref is None:
                run.exhausted = True
                pending.remove(run)
                continue

            if not run.measuring and run.refs >= run.warmup_refs:
                self._reset_core_stats(run)
                run.measuring = True
                cores_warm += 1
                if cores_warm == len(runs):
                    self._reset_shared_stats()
                    # Mirror the single-core warm-up fix: drop the reach
                    # samples taken before every core was warm and restart
                    # the aggregate epoch cadence at the boundary.
                    reach_samples = []
                    reach_samples_4k = []
                    total_instructions = 0
                    next_epoch = self.epoch_instructions

            core = run.core
            gap = ref.instruction_gap
            run.instructions += gap + 1
            core.pressure.record_instructions(gap + 1)
            system.shared_pressure.record_instructions(gap + 1)
            delta = gap * base_cpi

            if use_fast_translate:
                paddr, translation_latency = core.mmu.translate_data(ref.vaddr)
            else:
                translation = core.mmu.translate(ref.vaddr, is_instruction=False)
                paddr = translation.paddr
                translation_latency = translation.latency
            delta += translation_latency
            run.translation_cycles += translation_latency

            access = core.hierarchy.access(paddr, write=ref.is_write,
                                           ip=ref.ip)
            delta += access.latency
            run.refs += 1
            run.level_counts[access.level.value] = (
                run.level_counts.get(access.level.value, 0) + 1)
            if access.level in (MemoryLevel.L3, MemoryLevel.DRAM):
                run.data_l2_misses += 1
                core.pressure.record_l2_cache_miss()
                system.shared_pressure.record_l2_cache_miss()

            run.cycles += delta
            run.ready_at += delta

            total_instructions += gap + 1
            if total_instructions >= next_epoch:
                next_epoch += self.epoch_instructions
                if victimas:
                    reach_samples.append(sum(
                        v.translation_reach_bytes() for v in victimas))
                    reach_samples_4k.append(sum(
                        v.translation_reach_bytes(assume_4k=True) for v in victimas))

        # Always take a final sample so short runs still report reach.
        if victimas:
            reach_samples.append(sum(
                v.translation_reach_bytes() for v in victimas))
            reach_samples_4k.append(sum(
                v.translation_reach_bytes(assume_4k=True) for v in victimas))

        result = self._collect(runs, reach_samples, reach_samples_4k)
        if self.sampling is not None:
            per_core_meta = []
            combined: List[float] = []
            for run in runs:
                summary = window_series_summary(run.window_series)
                per_core_meta.append({
                    "core": run.core_id,
                    "workload": run.workload.name,
                    "windows": len(run.window_series),
                    "detailed_refs": run.refs,
                    "skipped_refs": run.skipped_refs,
                    "cycles_per_ref_mean": summary["mean"],
                    "cycles_per_ref_std": summary["std"],
                    "cycles_per_ref_ci95": summary["ci95"],
                })
                combined.extend(run.window_series)
            result.sampling = sampling_metadata(
                self.sampling, combined,
                detailed_refs=sum(run.refs for run in runs),
                skipped_refs=sum(run.skipped_refs for run in runs),
                per_core=per_core_meta)
        return result

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _core_sampler(self, run: _CoreRun, stream: Iterator[MemoryRef],
                      sampling: SamplingConfig) -> Iterator[MemoryRef]:
        """Yield one core's detailed references, skipping sampled-out windows.

        The semantics mirror the single-core ``Simulator._run_sampled`` per
        core: the core's global warm-up region is always detailed, then one
        window in every ``stride`` is detailed (its first ``warmup_refs``
        references re-warm state but stay out of the error-bar series) and
        the rest are skipped through ``Workload.fast_forward``.

        The generator's boundary code runs *between* references — inside the
        scheduler's ``next()`` call, after the previous reference's cycles
        have landed in ``run`` — so window cycle deltas and skip-time
        estimates read consistent accumulators.  A skipped window advances
        ``run.ready_at`` by the core's measured mean cycles-per-reference,
        keeping the deterministic cycle-ordered interleave honest without
        simulating the window.  With ``stride=1`` nothing is skipped and the
        yielded stream (and therefore the schedule) is bit-identical to the
        full run (pinned by ``tests/test_sampling.py``).
        """
        workload = run.workload
        total = workload.config.max_refs
        produced = 0
        while produced < run.warmup_refs:
            ref = next(stream, None)
            if ref is None:
                return
            produced += 1
            yield ref
        stride = sampling.stride
        window_refs = sampling.window_refs
        window_warmup = sampling.warmup_refs
        window = 0
        while produced < total:
            want = min(window_refs, total - produced)
            if window % stride == 0:
                head = min(window_warmup, want)
                for _ in range(head):
                    ref = next(stream, None)
                    if ref is None:
                        return
                    produced += 1
                    yield ref
                body = want - head
                if body:
                    start_refs = run.refs
                    # The warm-up reset fires when the scheduler executes
                    # window 0's first measured reference; its baseline is 0.
                    start_cycles = run.cycles if run.measuring else 0.0
                    got = 0
                    for _ in range(body):
                        ref = next(stream, None)
                        if ref is None:
                            break
                        produced += 1
                        got += 1
                        yield ref
                    measured = run.refs - start_refs
                    if measured:
                        run.window_series.append(
                            (run.cycles - start_cycles) / measured)
                    if got < body:
                        return
            else:
                got = workload.fast_forward(stream, want)
                produced += got
                run.skipped_refs += got
                measured_refs = max(1, run.refs - run.warmup_refs)
                run.ready_at += got * (run.cycles / measured_refs)
                if got < want:
                    return
            window += 1

    # ------------------------------------------------------------------ #
    # Warm-up resets
    # ------------------------------------------------------------------ #
    def _reset_core_stats(self, run: _CoreRun) -> None:
        """Zero one core's measured statistics at its warm-up boundary.

        :func:`repro.sim.system.build_multicore_system` gives every core its
        own :class:`~repro.common.stats.StatsRegistry`.
        """
        run.core.stats_registry.reset_all()
        run.instructions = 0
        run.cycles = 0.0
        run.translation_cycles = 0.0
        run.data_l2_misses = 0
        run.level_counts = {}

    def _reset_shared_stats(self) -> None:
        """Zero shared-structure statistics once every core is warm."""
        self.system.stats_registry.reset_all()

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _collect(self, runs: List[_CoreRun],
                 reach_samples: List[int],
                 reach_samples_4k: List[int]) -> SimulationResult:
        system = self.system
        config = system.config

        per_core: List[CoreResult] = []
        by_core = {run.core_id: run for run in runs}
        for core in system.cores:
            run = by_core.get(core.core_id)
            if run is None:
                per_core.append(CoreResult(core=core.core_id, workload="idle"))
                continue
            stats = core.mmu.stats
            measured_refs = (run.refs - run.warmup_refs if run.warmup_refs
                             else run.refs)
            per_core.append(CoreResult(
                core=core.core_id,
                workload=run.workload.name,
                instructions=run.instructions,
                cycles=run.cycles,
                memory_refs=measured_refs,
                translation_cycles=run.translation_cycles,
                l1_tlb_misses=stats.translations - stats.l1_tlb_hits,
                l2_tlb_misses=stats.l2_tlb_misses,
                page_walks=stats.page_walks,
                data_l2_misses=run.data_l2_misses,
            ))

        result = SimulationResult(
            workload=self.name,
            system_label=config.label,
            system_kind=config.kind.value,
            instructions=sum(core.instructions for core in per_core),
            cycles=max((core.cycles for core in per_core), default=0.0),
            memory_refs=sum(core.memory_refs for core in per_core),
            translation_cycles=sum(core.translation_cycles for core in per_core),
            data_l2_misses=sum(core.data_l2_misses for core in per_core),
            num_cores=config.num_cores,
            per_core=tuple(per_core),
        )
        result.l1_tlb_misses = sum(core.l1_tlb_misses for core in per_core)
        result.l2_tlb_misses = sum(core.l2_tlb_misses for core in per_core)
        result.page_walks = sum(core.page_walks for core in per_core)

        level_counts: Dict[str, int] = {}
        breakdown: Dict[str, int] = {}
        served_by: Dict[str, int] = {}
        ptw_histogram: Dict[int, int] = {}
        reuse_histogram: Dict[int, int] = {}
        total_miss_latency = 0
        walk_latency = 0
        walks = 0
        background_walks = 0
        for run in runs:
            core = run.core
            _merge(level_counts, run.level_counts)
            _merge(breakdown, core.mmu.stats.miss_latency_breakdown)
            _merge(served_by, core.mmu.stats.served_by)
            _merge(ptw_histogram, core.walker.stats.latency_histogram)
            _merge(reuse_histogram,
                   core.l2_cache.stats.reuse_distribution(BlockKind.DATA))
            total_miss_latency += core.mmu.stats.total_miss_latency
            walk_latency += core.walker.stats.total_latency
            walks += core.walker.stats.walks
            background_walks += core.walker.stats.background_walks
        result.data_access_levels = level_counts
        result.miss_latency_breakdown = breakdown
        result.served_by = served_by
        result.ptw_latency_histogram = ptw_histogram
        result.l2_data_reuse_histogram = reuse_histogram
        result.l2_tlb_miss_latency_mean = (
            total_miss_latency / result.l2_tlb_misses if result.l2_tlb_misses else 0.0)
        result.ptw_mean_latency = walk_latency / walks if walks else 0.0
        result.background_walks = background_walks

        victimas = [run.core.victima for run in runs
                    if run.core.victima is not None]
        if victimas:
            totals: Dict[str, float] = {
                "probes": 0, "block_hits": 0, "insertions_on_miss": 0,
                "insertions_on_eviction": 0, "predictor_rejections": 0,
                "predictor_bypasses": 0, "background_walks": 0,
                "data_blocks_transformed": 0, "nested_probes": 0,
                "nested_block_hits": 0, "nested_insertions": 0,
            }
            block_reuse: Dict[int, int] = {}
            for victima in victimas:
                for key in totals:
                    totals[key] += getattr(victima.stats, key)
                _merge(block_reuse, victima.tlb_block_reuse_distribution())
                for block in victima.resident_tlb_blocks():
                    block_reuse[block.reuse_count] = (
                        block_reuse.get(block.reuse_count, 0) + 1)
            totals["probe_hit_rate"] = (
                totals["block_hits"] / totals["probes"] if totals["probes"] else 0.0)
            result.victima_stats = totals
            result.tlb_block_reuse_histogram = block_reuse
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


def _merge(target: Dict, source: Dict) -> None:
    for key, value in source.items():
        target[key] = target.get(key, 0) + value
