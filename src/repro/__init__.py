"""Victima reproduction library.

This package reproduces *Victima: Drastically Increasing Address Translation
Reach by Leveraging Underutilized Cache Resources* (MICRO 2023) as a
trace-driven functional + analytical-timing simulator written in pure Python.

The public API is organised by subsystem:

``repro.memory``
    Physical memory, DRAM timing, the four-level radix page table and the
    demand-paging / transparent-huge-page virtual memory manager.
``repro.cache``
    Set-associative caches, replacement policies (LRU, SRRIP and the paper's
    TLB-aware SRRIP), prefetchers and the three-level cache hierarchy.
``repro.mmu``
    TLBs, page-walk caches, the hardware page-table walker and the MMU that
    every core, native or virtualized, translates through.
``repro.core``
    Victima itself: TLB blocks inside the L2 cache, the PTW cost predictor
    (comparator and neural-network reference models) and the controller that
    inserts / probes TLB blocks.
``repro.virt``
    Nested paging's two-dimensional walker, the nested TLB and the shadow
    (combined gVA→hPA) page table that ideal shadow paging walks.
``repro.baselines``
    The POM-TLB (a large software-managed TLB in memory).  The large
    hardware TLB baselines are presets (:mod:`repro.sim.presets`).
``repro.workloads``
    Synthetic data-intensive workload generators (GraphBIG-like, GUPS, XSBench,
    DLRM, GenomicsBench).
``repro.traces``
    Trace combinators over memory-reference streams — multi-tenant mixes,
    sequential phases, remap/shard/dilate — plus binary record/replay.
``repro.scenario``
    Declarative, hashable :class:`~repro.scenario.ScenarioSpec` run
    descriptions, loadable from TOML/JSON.
``repro.api``
    The public façade: :func:`~repro.api.simulate`,
    :func:`~repro.api.compare` and :func:`~repro.api.build_simulator`, the
    one builder of a simulator from a scenario — every experiment, example
    and CLI command runs through it.
``repro.sim``
    Simulation configuration, the system factory, the one engine (a
    ready-core scheduler that runs every machine, one core or many) and its
    results.
``repro.analysis``
    CACTI-style TLB latency/area scaling, McPAT-style overheads and metrics.
``repro.experiments``
    One runner per paper table/figure, with memoised results.

Quick start::

    from repro import quickstart
    result = quickstart()
    print(result.summary())
"""

from repro.sim.config import (
    CacheConfig,
    MMUConfig,
    SystemConfig,
    TLBConfig,
    VictimaConfig,
)
from repro.api import compare, simulate
from repro.scenario import ScenarioSpec, WorkloadSpec, load_scenario
from repro.sim.simulator import CoreResult, SimulationResult, Simulator
from repro.sim.system import System, build_system
from repro.workloads.registry import WORKLOAD_NAMES, make_workload

__version__ = "1.6.0"

__all__ = [
    "ScenarioSpec",
    "WorkloadSpec",
    "load_scenario",
    "simulate",
    "compare",
    "CacheConfig",
    "MMUConfig",
    "SystemConfig",
    "TLBConfig",
    "VictimaConfig",
    "SimulationResult",
    "CoreResult",
    "Simulator",
    "System",
    "build_system",
    "WORKLOAD_NAMES",
    "make_workload",
    "quickstart",
    "__version__",
]


def quickstart(workload: str = "rnd", system: str = "victima", max_refs: int = 20_000):
    """Run a small end-to-end simulation and return its :class:`SimulationResult`.

    Parameters
    ----------
    workload:
        Name of a workload from :data:`repro.workloads.registry.WORKLOAD_NAMES`.
    system:
        Name of an evaluated system (``radix``, ``victima``, ``pom_tlb``,
        ``opt_l2tlb_64k``, ``opt_l2tlb_128k``, ``opt_l3tlb_64k``,
        ``nested_paging``, ``virt_victima``, ...).
    max_refs:
        Number of memory references to simulate.
    """
    spec = ScenarioSpec(
        name=f"quickstart-{system}-{workload}", system=system,
        workload=WorkloadSpec(kind="workload", workload=workload),
        max_refs=max_refs)
    return simulate(spec, use_cache=False)
