"""Workload abstractions: memory references, configuration and the base class."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple


class MemoryRef:
    """One data memory reference emitted by a workload.

    ``instruction_gap`` is the number of non-memory instructions retired since
    the previous memory reference; the simulator charges them at the base CPI.
    ``ip`` is a synthetic instruction pointer identifying the access site,
    which the IP-stride prefetcher uses for training.

    Implemented as a hand-rolled ``__slots__`` class rather than a dataclass:
    tens of thousands of these are created per simulated window, and slotted
    attribute access plus a plain ``__init__`` is measurably faster on the
    hot path (frozen-dataclass construction goes through
    ``object.__setattr__``).  Value semantics (equality, hashing, repr) match
    the previous frozen dataclass, so recorded traces still compare equal.
    """

    __slots__ = ("ip", "vaddr", "is_write", "instruction_gap")

    def __init__(self, ip: int, vaddr: int, is_write: bool = False,
                 instruction_gap: int = 2):
        self.ip = ip
        self.vaddr = vaddr
        self.is_write = is_write
        self.instruction_gap = instruction_gap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryRef):
            return NotImplemented
        return (self.ip == other.ip and self.vaddr == other.vaddr
                and self.is_write == other.is_write
                and self.instruction_gap == other.instruction_gap)

    def __hash__(self) -> int:
        return hash((self.ip, self.vaddr, self.is_write, self.instruction_gap))

    def __repr__(self) -> str:
        return (f"MemoryRef(ip={self.ip}, vaddr={self.vaddr}, "
                f"is_write={self.is_write}, instruction_gap={self.instruction_gap})")


@dataclass
class WorkloadConfig:
    """Parameters shared by every workload generator."""

    name: str
    max_refs: int = 50_000
    seed: int = 42
    #: Fraction of 2 MB-aligned regions backed by transparent huge pages.
    #: ``None`` means "use the workload's characteristic default".
    huge_page_fraction: Optional[float] = None
    #: Mean number of non-memory instructions between two memory references.
    mean_instruction_gap: float = 2.0
    #: Data-structure footprint scale factor (1.0 = the default sizes below).
    footprint_scale: float = 1.0
    #: Generator-specific parameters (documented by each workload).
    params: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Base class: deterministic pseudo-random memory reference generator."""

    #: Registry name, e.g. ``"bfs"``; set by subclasses.
    name = "base"
    #: Default huge-page fraction, matching the THP mix of the original workload.
    default_huge_page_fraction = 0.3

    #: Virtual base addresses for the major data structures, spread far apart
    #: so different structures never share pages.
    REGION_BASE = 0x1000_0000_0000
    REGION_STRIDE = 0x0100_0000_0000

    def __init__(self, config: WorkloadConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self._next_region = 0
        self._regions: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------ #
    # Address-space layout helpers
    # ------------------------------------------------------------------ #
    def region(self, size_bytes: int) -> int:
        """Reserve a virtual region for a data structure; returns its base."""
        base = self.REGION_BASE + self._next_region * self.REGION_STRIDE
        if size_bytes > self.REGION_STRIDE:
            raise ValueError("data structure larger than the per-region stride")
        self._next_region += 1
        self._regions.append((base, size_bytes))
        return base

    def memory_regions(self) -> List[Tuple[int, int]]:
        """Return every reserved ``(base, size)`` data-structure region.

        The simulator pre-faults these before the measured window begins: the
        paper's workloads allocate and initialise their (multi-gigabyte)
        datasets before the 500M-instruction region of interest, so their page
        tables are fully populated when measurement starts.
        """
        return list(self._regions)

    def scaled(self, size: int) -> int:
        """Scale a default structure size by the config's footprint factor."""
        return max(1, int(size * self.config.footprint_scale))

    # ------------------------------------------------------------------ #
    # Reference emission helpers
    # ------------------------------------------------------------------ #
    def gap(self) -> int:
        """Sample the instruction gap before the next memory reference."""
        mean = self.config.mean_instruction_gap
        return max(1, int(self.rng.expovariate(1.0 / mean)) + 1) if mean > 0 else 1

    def ref(self, ip: int, vaddr: int, write: bool = False) -> MemoryRef:
        return MemoryRef(ip=ip, vaddr=vaddr, is_write=write, instruction_gap=self.gap())

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def generate(self) -> Iterator[MemoryRef]:
        """Yield up to ``config.max_refs`` memory references."""
        raise NotImplementedError

    @property
    def huge_page_fraction(self) -> float:
        if self.config.huge_page_fraction is not None:
            return self.config.huge_page_fraction
        return self.default_huge_page_fraction

    def bounded(self) -> Iterator[MemoryRef]:
        """``generate()`` truncated to the configured number of references.

        A budget of zero or less yields nothing.
        """
        yield from islice(self.generate(), max(0, self.config.max_refs))

    #: Chunk size used by :meth:`bounded_batches`; large enough to amortise
    #: the per-chunk generator resumption, small enough to keep batches cheap.
    BATCH_SIZE = 1024

    def bounded_batches(self, batch_size: Optional[int] = None) -> Iterator[List[MemoryRef]]:
        """The :meth:`bounded` stream delivered as chunked lists.

        This is the hot-path form the simulator consumes: pulling a list of
        ~:attr:`BATCH_SIZE` references per generator resumption replaces one
        Python-level generator hop per reference with a C-level list fill,
        without changing the references or their order in any way —
        ``concat(bounded_batches()) == list(bounded())`` exactly (pinned by
        tests).  Every list but the last holds ``batch_size`` references.
        """
        if batch_size is None:
            batch_size = self.BATCH_SIZE
        stream = islice(self.generate(), max(0, self.config.max_refs))
        while True:
            batch = list(islice(stream, batch_size))
            if batch:
                yield batch
            if len(batch) < batch_size:
                return

    def fast_forward(self, stream: Iterator[MemoryRef], count: int) -> int:
        """Skip up to ``count`` references from the *active* ``stream``.

        ``stream`` must be the live iterator this workload is currently being
        consumed through (its own ``generate()`` for plain workloads); after
        the call, pulling from ``stream`` resumes exactly ``count`` references
        later than it would have, as if the skipped references had been
        generated and discarded.  Returns the number actually skipped, which
        is smaller than ``count`` only when the stream ends early.

        The base implementation drains the iterator, which is already faster
        than detailed simulation but still pays per-ref generation cost.  It
        stays the path for every workload without an override: XSBench,
        DLRM, genomics, trace replay and the mix, phased, dilate and shard
        combinators.  The overrides are the lever that makes SMARTS-style
        sampled simulation fast:

        * ``RandomAccess.fast_forward`` (GUPS) replays the RNG draws of the
          skipped references without building them;
        * ``GraphWorkload.fast_forward`` (the seven GraphBIG kernels) does
          the same a whole vertex at a time and builds only the vertex the
          skip ends inside;
        * ``RemappedWorkload.fast_forward`` (each tenant of a multi-core run)
          forwards the skip to its inner workload's own live stream.

        Their rule: generator state lives on the object, never in generator
        locals, so an override can move the position of a suspended stream
        without reading ``stream``.  Overrides must be *exactly* equivalent
        to draining: the same ``random.Random`` methods run in the same
        order, and ``tests/test_sampling.py`` pins resumed streams
        bit-identical to drained ones.
        """
        return sum(1 for _ in islice(stream, count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, max_refs={self.config.max_refs})"


def mix_hash(*values: int) -> int:
    """A small deterministic integer hash used for structural randomness.

    Workloads use it where a *stable* pseudo-random value is needed (e.g. the
    neighbour list of a vertex) so that repeated visits to the same vertex see
    the same neighbours, giving realistic reuse.
    """
    h = 0x9E3779B97F4A7C15
    for value in values:
        h ^= (value + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 27
    return h & 0x7FFFFFFFFFFFFFFF
