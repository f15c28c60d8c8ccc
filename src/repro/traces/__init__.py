"""First-class operations over workload memory-reference streams.

Every evaluated run ultimately consumes an iterator of
:class:`~repro.workloads.base.MemoryRef`.  This package makes those streams
*composable*: combinators take one or more :class:`~repro.workloads.base.Workload`
generators and return a new ``Workload`` whose stream is derived from theirs —
interleaved multi-tenant mixes, sequential phases, address-space remaps,
sharded slices, time-dilated variants — plus a compact binary trace format so
any stream can be captured once and replayed deterministically.

The combinators are the substrate of the declarative
:class:`~repro.scenario.ScenarioSpec` workload tree, but they are plain
functions and can be used directly::

    from repro.traces import mix
    from repro.workloads import make_workload

    tenants = [make_workload("bfs", max_refs=10_000),
               make_workload("rnd", max_refs=10_000)]
    mixed = mix(tenants, weights=[2.0, 1.0], seed=7)

On a multi-core machine the same mix places its tenants on cores instead of
interleaving them into one stream: ``mix(tenants, cores=[0, 1])`` records the
placement and :meth:`~repro.traces.combinators.MixWorkload.per_core_workloads`
splits the (slot-remapped) tenants into one stream per core for the
simulator (:func:`repro.api.build_simulator`).
"""

from repro.traces.combinators import (
    ComposedWorkload,
    MixWorkload,
    PhasedWorkload,
    dilate,
    mix,
    phased,
    remap,
    shard,
)
from repro.traces.tracefile import TraceReplayWorkload, record, replay

__all__ = [
    "ComposedWorkload",
    "MixWorkload",
    "PhasedWorkload",
    "TraceReplayWorkload",
    "dilate",
    "mix",
    "phased",
    "record",
    "remap",
    "replay",
    "shard",
]
