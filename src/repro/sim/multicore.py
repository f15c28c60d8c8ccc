"""The multi-core simulation engine.

A :class:`MultiCoreSimulator` steps ``num_cores`` cores against a single
global cycle clock.  Each core owns a private reference stream (one tenant —
or an interleave of tenants — placed there by the scenario layer, see
:meth:`repro.traces.combinators.MixWorkload.per_core_workloads`) and a private
slice of the machine (TLBs, PWCs, walker, L1/L2 caches, Victima controller),
while all cores contend in the shared LLC, DRAM, page table and POM-TLB of
the :class:`~repro.sim.system.System`.

Scheduling is deterministic: at every step the *ready core* — the core whose
accumulated cycle count is lowest, ties broken by core id — executes its next
memory reference to completion (instruction gap at the base CPI, then the
translation, then the data access).  Because each reference advances its
core's clock by the modelled latency, cores interleave in global-cycle order,
so a core stalled on DRAM naturally falls behind while a core hitting in its
private caches runs ahead — the same first-order contention model the paper's
multi-core evaluation relies on, with no randomness anywhere in the schedule.

``num_cores == 1`` scenarios build the single-core
:class:`~repro.sim.simulator.Simulator`, which runs on the same
:class:`~repro.sim.system.System` (a machine with one
:class:`~repro.sim.system.Core`) and shares everything around the
per-reference step with this engine: one
:class:`~repro.sim.simulator.CoreRun` record per core, the SMARTS sampler
(:func:`~repro.sim.sampling.sampled_batches`), the Victima reach series and
the per-core-then-sum result assembly
(:func:`~repro.sim.simulator.collect_result`), and the prefault
(:func:`~repro.sim.simulator.prefault`) and the warm-up resets of the
cores' and the machine's statistics.  Only the per-reference bodies differ:
this scheduler sums a reference's cycles before adding them to the core's
clock, and that order rounds differently from the single-core loop's, so
merging the two would move results.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Iterator, Optional, Sequence

from repro.cache.hierarchy import MemoryLevel
from repro.common.errors import ConfigurationError
from repro.sim.sampling import SamplingConfig, sampled_batches
from repro.sim.simulator import (CoreRun, ReachSeries, SimulationResult,
                                 collect_result, prefault)
from repro.sim.system import System, build_system
from repro.workloads.base import MemoryRef, Workload


class MultiCoreSimulator:
    """Runs one workload per core on a multi-core :class:`System`.

    ``core_workloads`` holds one entry per core; ``None`` entries idle their
    core.  Warm-up follows the single-core methodology per core: the first
    ``warmup_fraction`` of each core's references run with full functional
    effect, the core's private statistics are zeroed when it crosses its own
    boundary, and the shared structures' statistics (LLC, DRAM, POM-TLB) are
    zeroed when the last core crosses.
    """

    def __init__(self, system: System,
                 core_workloads: Sequence[Optional[Workload]],
                 epoch_instructions: int = 10_000,
                 warmup_fraction: float = 0.25,
                 name: Optional[str] = None,
                 sampling: Optional[SamplingConfig] = None):
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
                   sampling=spec.sampling)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def prefault(self) -> int:
        """Prefault every core's regions in the shared address space (see
        :func:`~repro.sim.simulator.prefault`); :meth:`run` calls it through
        ``self``."""
        return prefault(self.system, [workload for workload in self.core_workloads
                                      if workload is not None])

    def run(self) -> SimulationResult:
        system = self.system
        base_cpi = system.config.base_cpi
        self.prefault()

        runs = [CoreRun(core, workload,
                        int(workload.config.max_refs * self.warmup_fraction))
                for core, workload in zip(system.cores, self.core_workloads)
                if workload is not None]
        # Cores that start measuring (warmup 0) count as already warm; the
        # shared-stat reset only fires when a *boundary crossing* completes
        # the set, so a run with no warm-up anywhere never resets anything.
        cores_warm = sum(1 for run in runs if run.measuring)

        # Victima translation reach is sampled every epoch of *aggregate*
        # instruction progress (the multi-core analogue of the single-core
        # per-epoch series), plus a final snapshot after the loop.
        reach = ReachSeries([run.core.victima for run in runs],
                            self.epoch_instructions)
        total_instructions = 0
        next_epoch = reach.next_epoch

        # Ready cores wait in a heap keyed by (ready_at, index into runs), so
        # ready-time ties go to the lowest core id.  Only the running core's
        # own sampler and this body move a core's ready_at, so every other
        # core's key stays current while it waits.
        streams = [self._stream(run) for run in runs]
        ready = [(run.ready_at, index) for index, run in enumerate(runs)]
        heapq.heapify(ready)
        level_l3 = MemoryLevel.L3
        level_dram = MemoryLevel.DRAM
        while ready:
            index = ready[0][1]
            run = runs[index]
            ref = next(streams[index], None)
            if ref is None:
                heapq.heappop(ready)
                continue

            if not run.measuring and run.refs >= run.warmup_refs:
                run.reset_measured()
                cores_warm += 1
                if cores_warm == len(runs):
                    # Shared structures (LLC, DRAM, POM-TLB) start measuring
                    # once every core is warm.  Mirror the single-core
                    # warm-up fix: drop the reach samples taken before and
                    # restart the aggregate epoch cadence at the boundary.
                    system.stats_registry.reset_all()
                    reach.restart()
                    total_instructions = 0
                    next_epoch = reach.next_epoch

            core = run.core
            gap = ref.instruction_gap
            run.instructions += gap + 1
            core.pressure.record_instructions(gap + 1)
            delta = gap * base_cpi

            paddr, translation_latency = core.mmu.translate_data(ref.vaddr)
            delta += translation_latency
            run.translation_cycles += translation_latency

            access = core.hierarchy.access(paddr, write=ref.is_write,
                                           ip=ref.ip)
            delta += access.latency
            run.refs += 1
            level = access.level
            name = level._value_  # the level's name, without Enum.value's call
            run.level_counts[name] = run.level_counts.get(name, 0) + 1
            if level is level_l3 or level is level_dram:
                run.data_l2_misses += 1
                core.pressure.record_l2_cache_miss()

            run.cycles += delta
            run.ready_at += delta
            heapq.heapreplace(ready, (run.ready_at, index))

            total_instructions += gap + 1
            if total_instructions >= next_epoch:
                next_epoch = reach.advance()

        return collect_result(system, runs, self.name, reach, self.sampling)

    def _stream(self, run: CoreRun) -> Iterator[MemoryRef]:
        """One core's reference stream, sampled or full.

        Batches are flattened at C level; the same references arrive in the
        same order as :meth:`~repro.workloads.base.Workload.bounded`.
        """
        if self.sampling is not None:
            return chain.from_iterable(sampled_batches(run, self.sampling))
        return chain.from_iterable(run.workload.bounded_batches())
