"""Combinators that build new workloads out of existing ones.

All combinators return :class:`~repro.workloads.base.Workload` subclasses, so
anything that consumes a workload — :class:`~repro.sim.simulator.Simulator`,
:func:`repro.api.simulate`, :func:`repro.traces.record` — accepts a composed
stream exactly like a primitive generator.  Composition is lazy: no reference
is materialised until the simulator pulls it.

Address-space isolation
-----------------------
:func:`mix` models multiple tenants sharing one machine.  Each component is
remapped into its own *slot*: a disjoint ``TENANT_STRIDE``-sized window of the
virtual address space (and a disjoint instruction-pointer range so prefetcher
training never aliases across tenants).  The remapped streams interleave on
one MMU and one cache hierarchy, producing the shared-L2/L3 and
TLB-block-capacity pressure that single-workload runs cannot express.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.workloads.base import MemoryRef, Workload, WorkloadConfig

#: Virtual-address window reserved per mix tenant.  Equal to ``REGION_BASE``,
#: so slot *i* shifts a workload's canonical layout up by *i* windows.
TENANT_STRIDE = Workload.REGION_BASE

#: Instruction-pointer window reserved per tenant (keeps prefetcher state
#: per-tenant; synthetic IPs are tiny compared to this stride).
IP_STRIDE = 1 << 60

#: Slots beyond this would push addresses past the 48-bit virtual address
#: space covered by the four-level radix page table.
MAX_SLOTS = 14


class ComposedWorkload(Workload):
    """Base class for workloads derived from other workloads.

    Subclasses own a synthetic :class:`~repro.workloads.base.WorkloadConfig`
    (name, total ``max_refs``, scheduling seed) and delegate address-space
    metadata (regions, huge-page mix) to their components.
    """

    name = "composed"

    def __init__(self, config: WorkloadConfig, components: Sequence[Workload]):
        super().__init__(config)
        if not components:
            raise ValueError("a composed workload needs at least one component")
        seen_ids = set()
        for component in components:
            if id(component) in seen_ids:
                raise ValueError(
                    "the same workload instance was passed twice; components "
                    "hold generator state and cannot be shared — build a "
                    "second instance instead")
            seen_ids.add(id(component))
        self.components: Tuple[Workload, ...] = tuple(components)
        self.name = config.name

    def memory_regions(self) -> List[Tuple[int, int]]:
        regions: List[Tuple[int, int]] = []
        seen = set()
        for component in self.components:
            for region in component.memory_regions():
                if region not in seen:
                    seen.add(region)
                    regions.append(region)
        return regions

    @property
    def huge_page_fraction(self) -> float:
        if self.config.huge_page_fraction is not None:
            return self.config.huge_page_fraction
        fractions = [component.huge_page_fraction for component in self.components]
        return sum(fractions) / len(fractions)


class RemappedWorkload(ComposedWorkload):
    """A workload shifted into a disjoint tenant slot of the address space."""

    def __init__(self, inner: Workload, slot: int):
        if not 0 <= slot <= MAX_SLOTS:
            raise ValueError(f"tenant slot must be in [0, {MAX_SLOTS}], got {slot}")
        config = WorkloadConfig(
            name=inner.name if slot == 0 else f"{inner.name}@{slot}",
            max_refs=inner.config.max_refs,
            seed=inner.config.seed,
            huge_page_fraction=inner.config.huge_page_fraction,
            mean_instruction_gap=inner.config.mean_instruction_gap,
            footprint_scale=inner.config.footprint_scale,
        )
        super().__init__(config, [inner])
        self.inner = inner
        self.slot = slot
        self.vaddr_offset = slot * TENANT_STRIDE
        self.ip_offset = slot * IP_STRIDE

    def memory_regions(self) -> List[Tuple[int, int]]:
        return [(base + self.vaddr_offset, size)
                for base, size in self.inner.memory_regions()]

    @property
    def huge_page_fraction(self) -> float:
        return self.inner.huge_page_fraction

    def generate(self) -> Iterator[MemoryRef]:
        """The inner stream shifted into this slot.

        The inner's live stream is kept on the object, so
        :meth:`fast_forward` can hand a skip to the inner workload.
        """
        vshift, ipshift = self.vaddr_offset, self.ip_offset
        self._inner_stream = inner = self.inner.generate()
        return (MemoryRef(ref.ip + ipshift, ref.vaddr + vshift,
                          ref.is_write, ref.instruction_gap)
                for ref in inner)

    def fast_forward(self, stream: Iterator[MemoryRef], count: int) -> int:
        """Skip ``count`` references of the inner workload's live stream.

        The shifted stream holds no reference between pulls, so skipping the
        inner stream skips this one by the same count.  That is exact
        whether the inner workload replays its draws or drains.
        """
        return self.inner.fast_forward(self._inner_stream, count)


class MixWorkload(ComposedWorkload):
    """Weighted deterministic interleaving of remapped tenant workloads.

    Each scheduling step draws one tenant (probability proportional to its
    weight) from the mix's own seeded RNG and emits that tenant's next
    reference; exhausted tenants leave the rotation.  The schedule depends
    only on ``(weights, seed)``, so a mix replays bit-identically.

    ``cores`` optionally records a *core placement* (one entry per tenant,
    ``None`` = balanced default).  Placement does not change this single
    interleaved stream at all — it is consumed by the multi-core simulator,
    which calls :meth:`per_core_workloads` to split the tenants into one
    stream per core instead of drawing from the global interleave.
    """

    def __init__(self, config: WorkloadConfig, components: Sequence[Workload],
                 weights: Sequence[float],
                 cores: Optional[Sequence[Optional[int]]] = None):
        super().__init__(config, components)
        if len(weights) != len(components):
            raise ValueError("need exactly one weight per component")
        if any(w <= 0 for w in weights):
            raise ValueError("mix weights must be positive")
        self.weights: Tuple[float, ...] = tuple(float(w) for w in weights)
        if cores is not None:
            if len(cores) != len(components):
                raise ValueError("need exactly one core placement per component")
            for core in cores:
                if core is not None and (not isinstance(core, int) or core < 0):
                    raise ValueError(
                        f"core placements must be non-negative ints or None, got {core!r}")
        self.cores: Optional[Tuple[Optional[int], ...]] = (
            tuple(cores) if cores is not None else None)

    # ------------------------------------------------------------------ #
    # Multi-core placement
    # ------------------------------------------------------------------ #
    def core_placement(self, num_cores: int) -> List[int]:
        """Resolve the per-tenant core assignment for a ``num_cores`` machine.

        Explicit pins are honoured first; unpinned tenants then go, in tenant
        order, to the least-loaded core (ties broken by lowest core id) —
        which degenerates to ``index % num_cores`` round-robin when nothing
        is pinned, and never stacks an unpinned tenant onto a pinned core
        while another core idles.  Raises ``ValueError`` when a pinned core
        is outside ``[0, num_cores)``.

        >>> from repro.workloads import make_workload
        >>> mixed = mix([make_workload("bfs", max_refs=10),
        ...              make_workload("rnd", max_refs=10)], cores=[1, None])
        >>> mixed.core_placement(2)      # rnd avoids the pinned core 1
        [1, 0]
        """
        pins = self.cores if self.cores is not None else (None,) * len(self.components)
        load = [0] * num_cores
        for index, pin in enumerate(pins):
            if pin is None:
                continue
            if not 0 <= pin < num_cores:
                raise ValueError(
                    f"tenant {index} ({self.components[index].name!r}) is pinned "
                    f"to core {pin}, but the machine has {num_cores} cores")
            load[pin] += 1
        placement: List[int] = []
        for pin in pins:
            if pin is None:
                pin = min(range(num_cores), key=lambda c: (load[c], c))
                load[pin] += 1
            placement.append(pin)
        return placement

    def per_core_workloads(self, num_cores: int) -> List[Optional[Workload]]:
        """Split the tenants into one workload stream per core.

        Each tenant keeps its remapped (slot-isolated) address space and its
        own reference budget.  A core that hosts several tenants interleaves
        them with this mix's seed and their relative weights; a core that
        hosts none gets ``None`` (it idles).  The union of the returned
        streams is exactly the set of references the single interleaved
        stream would emit — only the global scheduling order differs, which
        is the point: on a multi-core machine that order is decided by the
        simulator's cycle-driven scheduler, not by one RNG.

        That equivalence requires the mix's own ``max_refs`` not to truncate
        the tenants (a truncated interleave drops refs chosen by the
        scheduling RNG, which has no faithful per-core split), so a
        truncating mix is rejected; budget the tenants directly instead.
        The scenario layer always satisfies this: it distributes the
        scenario's ``max_refs`` into tenant budgets that sum exactly to it.
        """
        total = sum(c.config.max_refs for c in self.components)
        if self.config.max_refs < total:
            raise ValueError(
                f"this mix truncates its tenants (max_refs={self.config.max_refs} "
                f"< combined tenant budget {total}) and cannot be split per "
                "core faithfully — set the tenants' own max_refs instead")
        placement = self.core_placement(num_cores)
        groups: Dict[int, List[int]] = {}
        for index, core in enumerate(placement):
            groups.setdefault(core, []).append(index)
        per_core: List[Optional[Workload]] = []
        for core in range(num_cores):
            members = groups.get(core, [])
            if not members:
                per_core.append(None)
            elif len(members) == 1:
                per_core.append(self.components[members[0]])
            else:
                tenants = [self.components[i] for i in members]
                config = WorkloadConfig(
                    name="mix(" + "+".join(t.name for t in tenants) + ")",
                    max_refs=sum(t.config.max_refs for t in tenants),
                    seed=self.config.seed,
                    huge_page_fraction=self.config.huge_page_fraction,
                )
                per_core.append(MixWorkload(config, tenants,
                                            [self.weights[i] for i in members]))
        return per_core

    def generate(self) -> Iterator[MemoryRef]:
        streams = [component.bounded() for component in self.components]
        weights = list(self.weights)
        rng = self.rng
        while streams:
            if len(streams) == 1:
                yield from streams[0]
                return
            index = rng.choices(range(len(streams)), weights=weights)[0]
            try:
                yield next(streams[index])
            except StopIteration:
                del streams[index]
                del weights[index]


class PhasedWorkload(ComposedWorkload):
    """Sequential phases: each component runs to exhaustion, then the next.

    Phases are *not* remapped — they model one process whose behaviour
    changes over time, re-touching (and re-pressuring) the same address
    space with a different access pattern.
    """

    def generate(self) -> Iterator[MemoryRef]:
        for component in self.components:
            yield from component.bounded()


class DilatedWorkload(ComposedWorkload):
    """Scales the instruction gap between references by a constant factor.

    ``gap_scale > 1`` spreads the same reference stream over more
    instructions (lower memory intensity, lower MPKI at equal miss counts);
    ``gap_scale < 1`` concentrates it.
    """

    def __init__(self, inner: Workload, gap_scale: float):
        if gap_scale <= 0:
            raise ValueError("gap_scale must be positive")
        config = WorkloadConfig(
            name=f"dilate({inner.name},x{gap_scale:g})",
            max_refs=inner.config.max_refs,
            seed=inner.config.seed,
            huge_page_fraction=inner.config.huge_page_fraction,
            footprint_scale=inner.config.footprint_scale,
        )
        super().__init__(config, [inner])
        self.inner = inner
        self.gap_scale = float(gap_scale)

    @property
    def huge_page_fraction(self) -> float:
        return self.inner.huge_page_fraction

    def generate(self) -> Iterator[MemoryRef]:
        scale = self.gap_scale
        for ref in self.inner.generate():
            gap = max(1, round(ref.instruction_gap * scale))
            yield MemoryRef(ip=ref.ip, vaddr=ref.vaddr, is_write=ref.is_write,
                            instruction_gap=gap)


class ShardedWorkload(ComposedWorkload):
    """Every ``count``-th reference of the inner stream, starting at ``index``.

    Models splitting one trace across ``count`` instances (the slice an
    individual core would replay).  The shard still touches the full shared
    data structures, so its regions are the inner workload's regions.
    """

    def __init__(self, inner: Workload, index: int, count: int):
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= index < count:
            raise ValueError("shard index must be in [0, count)")
        config = WorkloadConfig(
            name=f"shard({inner.name},{index}/{count})",
            max_refs=max(1, inner.config.max_refs // count),
            seed=inner.config.seed,
            huge_page_fraction=inner.config.huge_page_fraction,
            footprint_scale=inner.config.footprint_scale,
        )
        super().__init__(config, [inner])
        self.inner = inner
        self.index = index
        self.count = count

    @property
    def huge_page_fraction(self) -> float:
        return self.inner.huge_page_fraction

    def generate(self) -> Iterator[MemoryRef]:
        sliced = itertools.islice(self.inner.bounded(), self.index, None, self.count)
        yield from sliced


# --------------------------------------------------------------------------- #
# Functional entry points
# --------------------------------------------------------------------------- #
def remap(workload: Workload, slot: int) -> RemappedWorkload:
    """Shift ``workload`` into tenant ``slot`` (a disjoint address window).

    >>> from repro.workloads import make_workload
    >>> inner = make_workload("rnd", max_refs=4)
    >>> shifted = remap(make_workload("rnd", max_refs=4), slot=2)
    >>> base, size = inner.memory_regions()[0]
    >>> shifted.memory_regions()[0] == (base + 2 * TENANT_STRIDE, size)
    True
    """
    return RemappedWorkload(workload, slot)


def mix(workloads: Sequence[Workload], weights: Optional[Sequence[float]] = None,
        seed: int = 0, max_refs: Optional[int] = None,
        huge_page_fraction: Optional[float] = None,
        cores: Optional[Sequence[Optional[int]]] = None) -> MixWorkload:
    """Interleave several workloads as co-running tenants.

    Each workload is remapped into its own address-space slot (component
    *i* → slot *i*), then the streams are interleaved by weighted random
    scheduling driven by ``seed``.  ``max_refs`` bounds the total mixed
    stream; it defaults to the sum of the component budgets, so every
    component is fully drained, and is clamped to that sum, since the
    stream ends there.

    ``cores`` optionally pins tenant *i* to a core (one entry per tenant;
    ``None`` entries go to the least-loaded core).  Placement is metadata for the
    multi-core simulator — see :meth:`MixWorkload.per_core_workloads` — and
    leaves the single interleaved stream unchanged.

    >>> from repro.workloads import make_workload
    >>> mixed = mix([make_workload("bfs", max_refs=30),
    ...              make_workload("rnd", max_refs=30)],
    ...             weights=[2.0, 1.0], seed=7, cores=[0, 1])
    >>> mixed.name
    'mix(bfs+rnd@1)'
    >>> len(list(mixed.bounded()))
    60
    >>> [w.name for w in mixed.per_core_workloads(num_cores=2)]
    ['bfs', 'rnd@1']
    """
    if not workloads:
        raise ValueError("mix() needs at least one workload")
    if len(workloads) > MAX_SLOTS + 1:
        raise ValueError(f"mix() supports at most {MAX_SLOTS + 1} tenants")
    if len({id(workload) for workload in workloads}) != len(workloads):
        raise ValueError(
            "the same workload instance was passed twice; components hold "
            "generator state and cannot be shared — build a second instance")
    for workload in workloads:
        for base, size in workload.memory_regions():
            if not (TENANT_STRIDE <= base and base + size <= 2 * TENANT_STRIDE):
                raise ValueError(
                    f"workload {workload.name!r} already spans addresses outside "
                    "the canonical slot-0 window, so remapping it into a tenant "
                    "slot would overlap its siblings — nested mixes and "
                    "pre-remapped workloads cannot be tenants of another mix")
    if weights is None:
        weights = [1.0] * len(workloads)
    tenants = [remap(workload, slot) for slot, workload in enumerate(workloads)]
    total = sum(workload.config.max_refs for workload in workloads)
    config = WorkloadConfig(
        name="mix(" + "+".join(t.name for t in tenants) + ")",
        max_refs=min(max_refs, total) if max_refs is not None else total,
        seed=seed,
        huge_page_fraction=huge_page_fraction,
    )
    return MixWorkload(config, tenants, weights, cores=cores)


def phased(workloads: Sequence[Workload], max_refs: Optional[int] = None,
           huge_page_fraction: Optional[float] = None) -> PhasedWorkload:
    """Concatenate workloads as sequential phases of one process.

    ``max_refs`` bounds the concatenated stream; it defaults to, and is
    clamped to, the sum of the phase budgets.

    >>> from repro.workloads import make_workload
    >>> p = phased([make_workload("pr", max_refs=20),
    ...             make_workload("bfs", max_refs=10)])
    >>> p.name
    'phased(pr->bfs)'
    >>> len(list(p.bounded()))
    30
    """
    if not workloads:
        raise ValueError("phased() needs at least one workload")
    total = sum(workload.config.max_refs for workload in workloads)
    config = WorkloadConfig(
        name="phased(" + "->".join(w.name for w in workloads) + ")",
        max_refs=min(max_refs, total) if max_refs is not None else total,
        seed=workloads[0].config.seed,
        huge_page_fraction=huge_page_fraction,
    )
    return PhasedWorkload(config, workloads)


def dilate(workload: Workload, gap_scale: float) -> DilatedWorkload:
    """Scale the non-memory instruction gap between references.

    >>> from repro.workloads import make_workload
    >>> slow = dilate(make_workload("rnd", max_refs=5), gap_scale=3.0)
    >>> slow.name
    'dilate(rnd,x3)'
    >>> refs = list(slow.bounded())
    >>> all(ref.instruction_gap >= 1 for ref in refs)
    True
    """
    return DilatedWorkload(workload, gap_scale)


def shard(workload: Workload, index: int, count: int) -> ShardedWorkload:
    """Take shard ``index`` of ``count`` round-robin slices of the stream.

    >>> from repro.workloads import make_workload
    >>> piece = shard(make_workload("rnd", max_refs=40), index=1, count=4)
    >>> len(list(piece.bounded()))
    10
    """
    return ShardedWorkload(workload, index, count)
