"""The public entry point for running simulations.

Everything in this repository — the experiment modules, the ``repro`` CLI,
the examples — ultimately runs simulations through these functions:

:func:`build_simulator`
    The one builder: materialise a scenario into a ready-to-run
    :class:`~repro.sim.simulator.Simulator` without running it.

:func:`simulate`
    Run one :class:`~repro.scenario.ScenarioSpec` (or anything
    :func:`~repro.scenario.load_scenario` accepts: a TOML/JSON file path, a
    built-in scenario name, or a plain dict) and return its
    :class:`~repro.sim.simulator.SimulationResult`.  Results are memoised
    in-process and, when ``REPRO_CACHE_DIR`` is set, on disk, keyed by the
    scenario's :meth:`~repro.scenario.ScenarioSpec.content_hash`.

:func:`compare`
    Run a ``systems × workloads`` matrix as one
    :func:`~repro.experiments.engine.run_many` batch and return
    ``{workload: {system: result}}``.

Scenarios with ``num_cores > 1`` run on the same engine, one workload per
core: the same :func:`simulate` call returns a result carrying per-core
statistics in :attr:`~repro.sim.simulator.SimulationResult.per_core`.

The examples below are doctests (checked by ``python -m doctest src/repro/api.py``
and ``tests/test_docstrings.py``), so they double as executable documentation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.scenario import ScenarioSpec, list_scenarios, load_scenario
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.system import build_system

__all__ = [
    "ScenarioSpec",
    "build_simulator",
    "compare",
    "list_scenarios",
    "load_scenario",
    "simulate",
]


def build_simulator(scenario) -> Simulator:
    """Materialise a scenario into a ready-to-run simulator (without running it).

    Useful when the caller wants the assembled :class:`~repro.sim.system.System`
    (e.g. to inspect TLB geometry) before — or instead of — running it.
    ``scenario`` is anything :func:`~repro.scenario.load_scenario` accepts.
    Returns a :class:`~repro.sim.simulator.Simulator` holding one workload
    slot per core of the spec's machine; ``run()`` returns the
    :class:`~repro.sim.simulator.SimulationResult`.

    The workload is built first and sets the machine's huge-page mix.  With
    ``num_cores > 1`` the top-level mix's tenants are placed on cores
    (``core`` pins first, then the least-loaded core) by
    :meth:`~repro.traces.combinators.MixWorkload.per_core_workloads`, with
    the address-space slots and budgets of the single-core interleaving;
    the mix names the result, and its own stream is never pulled.

    >>> from repro import api
    >>> sim = api.build_simulator("two_tenant_mix")     # built-in scenario
    >>> sim.system.config.label
    'Victima'
    >>> sim.name
    'mix(bfs+rnd@1)'
    """
    spec = load_scenario(scenario)
    workload = spec.build_workload()
    system = build_system(spec.build_system_config(),
                          huge_page_fraction=workload.huge_page_fraction)
    core_workloads = (workload.per_core_workloads(spec.num_cores)
                      if spec.num_cores > 1 else [workload])
    return Simulator(system, core_workloads, epoch_instructions=spec.epoch_instructions,
                     warmup_fraction=spec.warmup_fraction, name=workload.name,
                     sampling=spec.sampling)


def simulate(scenario, *, use_cache: bool = True) -> SimulationResult:
    """Run one scenario end-to-end and return its result.

    Parameters
    ----------
    scenario:
        A :class:`~repro.scenario.ScenarioSpec`, a mapping, a path to a
        ``.toml``/``.json`` scenario file, or a built-in scenario name.
    use_cache:
        When true (the default), a result whose scenario hash is already in
        the in-process cache — or in the ``REPRO_CACHE_DIR`` disk cache — is
        returned without simulating, and fresh results are stored back.

    >>> from repro import api
    >>> result = api.simulate({"system": "radix", "workload": "rnd",
    ...                        "max_refs": 400, "hardware_scale": 16,
    ...                        "warmup_fraction": 0.0})
    >>> result.system_label
    'Radix'
    >>> result.memory_refs
    400
    >>> result.cycles > 0
    True

    A multi-core scenario pins mix tenants to cores and reports both the
    aggregate and the per-core breakdown:

    >>> mc = api.simulate({"system": "radix", "num_cores": 2,
    ...                    "max_refs": 400, "hardware_scale": 16,
    ...                    "warmup_fraction": 0.0,
    ...                    "workload": {"tenants": [
    ...                        {"workload": "bfs", "core": 0},
    ...                        {"workload": "rnd", "core": 1}]}})
    >>> mc.num_cores
    2
    >>> [core.workload for core in mc.per_core]
    ['bfs', 'rnd@1']
    >>> mc.memory_refs == sum(core.memory_refs for core in mc.per_core)
    True
    """
    spec = load_scenario(scenario)
    if not use_cache:
        return build_simulator(spec).run()
    from repro.experiments import runner

    return runner.cached_simulation(spec.content_hash(),
                                    lambda: build_simulator(spec).run())


def compare(systems: Sequence[str], workloads: Optional[Iterable[str]] = None,
            settings=None, jobs=None, progress=None,
            **system_overrides) -> Dict[str, Dict[str, SimulationResult]]:
    """Run every ``(workload, system)`` pair; returns ``{workload: {system: result}}``.

    A façade over :func:`repro.experiments.runner.run_matrix`: ``systems`` are
    preset names (see :func:`repro.sim.presets.make_system_config`),
    ``workloads`` defaults to the settings' workload tuple (all 11 evaluated
    workloads unless ``REPRO_WORKLOADS`` narrows them), ``jobs`` is the
    number of worker processes the batch runs on (1: in-process), and
    ``system_overrides`` are forwarded to the preset factory (e.g.
    ``l3_latency=25``).

    >>> from repro import api
    >>> from repro.experiments.runner import ExperimentSettings
    >>> tiny = ExperimentSettings(max_refs=300, hardware_scale=16,
    ...                           warmup_fraction=0.0, workloads=("rnd",))
    >>> matrix = api.compare(["radix", "victima"], settings=tiny)
    >>> sorted(matrix["rnd"])
    ['radix', 'victima']
    >>> matrix["rnd"]["victima"].system_kind
    'victima'
    """
    from repro.experiments.runner import run_matrix

    return run_matrix(systems, settings=settings, workloads=workloads,
                      jobs=jobs, progress=progress, **system_overrides)
