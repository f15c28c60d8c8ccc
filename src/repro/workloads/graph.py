"""GraphBIG-like graph analytics workloads (BC, BFS, CC, GC, PR, SSSP, TC).

All seven kernels operate on an implicit CSR graph:

* a **vertex property array** (per-vertex state: rank, component id, colour,
  distance, ...),
* an **offset array** (one entry per vertex), and
* an **edge array** (the concatenated neighbour lists).

The kernels differ in *which* vertices they process and in how much work they
do per vertex, which yields the different locality profiles the paper's
workloads exhibit:

* PR and CC sweep all vertices each iteration (streaming over the vertex and
  offset arrays) but make an irregular access per neighbour.
* BFS, SSSP and BC process a frontier of essentially random vertices.
* GC processes vertices in a shuffled order and re-reads neighbour colours.
* TC intersects two neighbour lists per edge, doubling the irregular accesses.

The graph is never materialised: degrees and neighbour ids are deterministic
hash functions of the vertex id, so the same vertex always has the same
neighbourhood (real reuse) without storing gigabytes.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator, List

from repro.workloads.base import MemoryRef, Workload, WorkloadConfig, mix_hash

#: Bytes per vertex property entry (e.g. a rank plus a scratch field).
VERTEX_BYTES = 16
#: Bytes per offset array entry.
OFFSET_BYTES = 8
#: Bytes per edge array entry (destination vertex id).
EDGE_BYTES = 8

#: Synthetic instruction pointers for the access sites.
IP_VERTEX = 0x400100
IP_OFFSET = 0x400110
IP_EDGE = 0x400120
IP_NEIGHBOR = 0x400130
IP_NEIGHBOR2 = 0x400140
IP_UPDATE = 0x400150


class GraphWorkload(Workload):
    """Base class for the seven GraphBIG-like kernels."""

    name = "graph"
    #: How the kernel picks the next vertex to process: "stream", "frontier"
    #: or "shuffled".
    traversal = "stream"
    #: Neighbour accesses per processed vertex are capped at this value.
    max_neighbors = 24
    #: Whether the kernel also reads a second neighbour list (TC).
    second_hop = False
    #: Whether the kernel writes the property of visited neighbours.
    writes_neighbors = True
    default_huge_page_fraction = 0.35

    def __init__(self, config: WorkloadConfig):
        super().__init__(config)
        params = config.params
        self.num_vertices = int(params.get("num_vertices", self.scaled(1_500_000)))
        self.mean_degree = int(params.get("mean_degree", 16))
        self.vertex_base = self.region(self.num_vertices * VERTEX_BYTES)
        self.offset_base = self.region(self.num_vertices * OFFSET_BYTES)
        self.edge_base = self.region(self.num_vertices * self.mean_degree * EDGE_BYTES)

    # ------------------------------------------------------------------ #
    # Implicit graph structure
    # ------------------------------------------------------------------ #
    def degree(self, vertex: int) -> int:
        rng_value = mix_hash(vertex, 0xDE6) % 10_000
        # Re-create a heavy-tailed degree deterministically from the hash.
        u = (rng_value + 1) / 10_001
        degree = int(self.mean_degree * 0.5 / u ** 0.7)
        return max(1, min(degree, self.max_neighbors * 4))

    def neighbor(self, vertex: int, index: int) -> int:
        return mix_hash(vertex, index, 0xAB) % self.num_vertices

    def edge_offset(self, vertex: int) -> int:
        # A stable pseudo-offset into the edge array; consecutive edges of the
        # same vertex are contiguous (spatial locality within a neighbour list).
        return (mix_hash(vertex, 0xED9E) % (self.num_vertices * self.mean_degree // 2)) * EDGE_BYTES

    # ------------------------------------------------------------------ #
    # Vertex selection per traversal style
    # ------------------------------------------------------------------ #
    def _next_vertex(self, step: int) -> int:
        if self.traversal == "stream":
            return step % self.num_vertices
        if self.traversal == "shuffled":
            return mix_hash(step, 0x5107) % self.num_vertices
        # Frontier-style: random vertices with a mild bias towards a hot set,
        # mimicking the frontier re-expansion of BFS/SSSP/BC.
        if self.rng.random() < 0.2:
            return mix_hash(step // 64, 0xF07) % max(self.num_vertices // 50, 1)
        return self.rng.randrange(self.num_vertices)

    # ------------------------------------------------------------------ #
    # Reference stream
    # ------------------------------------------------------------------ #
    def generate(self) -> Iterator[MemoryRef]:
        """The endless reference stream, built one processed vertex at a time.

        The stream's position lives on the object, not in generator locals:
        ``_step`` counts the vertices picked so far and ``_rest`` iterates
        over the current vertex's references not yet emitted.  That is what
        lets :meth:`fast_forward` move a live stream.
        """
        self._step = 0
        self._rest: Iterator[MemoryRef] = iter(())
        return chain.from_iterable(self._vertex_runs())

    def _vertex_runs(self) -> Iterator[Iterator[MemoryRef]]:
        while True:
            rest = self._rest
            yield rest
            # A skip that ended inside a vertex replaced the drained iterator
            # with the rest of that vertex, which must be emitted first.
            if self._rest is rest:
                self._rest = iter(self._vertex_refs(self._pick_vertex()))

    def _pick_vertex(self) -> int:
        vertex = self._next_vertex(self._step)
        self._step += 1
        return vertex

    def _visited_degree(self, vertex: int) -> int:
        return min(self.degree(vertex), self.max_neighbors)

    def _refs_per_vertex(self, degree: int) -> int:
        # Vertex and offset reads, the per-neighbour reads, the vertex write.
        return 3 + degree * (3 if self.second_hop else 2)

    def _vertex_refs(self, vertex: int) -> List[MemoryRef]:
        """One processed vertex's references, in emission order.

        Reads the vertex and its offset, then per neighbour the edge entry and
        the neighbour's property (plus, for TC, a second-hop property), and
        finally writes the vertex.  Their gaps are drawn up front, one per
        reference in that order, which is the order :meth:`Workload.gap`
        would draw them in; the hashes in between draw nothing.
        """
        degree = self._visited_degree(vertex)
        gap = iter(self._gaps(self._refs_per_vertex(degree))).__next__
        vertex_base, neighbor = self.vertex_base, self.neighbor
        vertex_addr = vertex_base + vertex * VERTEX_BYTES
        offset_addr = self.offset_base + vertex * OFFSET_BYTES
        refs = [MemoryRef(IP_VERTEX, vertex_addr, False, gap()),
                MemoryRef(IP_OFFSET, offset_addr, False, gap())]
        append = refs.append
        edge_start = self.edge_base + self.edge_offset(vertex)
        writes, second_hop = self.writes_neighbors, self.second_hop
        for i in range(degree):
            append(MemoryRef(IP_EDGE, edge_start + i * EDGE_BYTES, False, gap()))
            hop = neighbor(vertex, i)
            append(MemoryRef(IP_NEIGHBOR, vertex_base + hop * VERTEX_BYTES, writes, gap()))
            if second_hop:
                second = neighbor(hop, i % 4)
                append(MemoryRef(IP_NEIGHBOR2, vertex_base + second * VERTEX_BYTES,
                                 False, gap()))
        append(MemoryRef(IP_UPDATE, vertex_addr, True, gap()))
        return refs

    def _gaps(self, count: int) -> List[int]:
        """``count`` successive :meth:`Workload.gap` values.

        An exponential draw is never negative, so ``gap()``'s ``max(1, ...)``
        never binds and is left out here.
        """
        mean = self.config.mean_instruction_gap
        if mean > 0:
            expovariate, lambd = self.rng.expovariate, 1.0 / mean
            return [int(expovariate(lambd)) + 1 for _ in range(count)]
        return [1] * count

    def fast_forward(self, stream: Iterator[MemoryRef], count: int) -> int:
        """Advance the live stream ``count`` references without building them.

        Replays the RNG draws of the skipped references in their order: for
        each whole vertex, the traversal's vertex pick, then one
        ``expovariate`` per reference (the draw :meth:`Workload.gap` makes).
        The neighbour and edge hashes draw nothing and are not computed, and
        no :class:`MemoryRef` is built.  Only the vertex the skip ends inside
        is materialised; the rest of it becomes ``_rest``.  ``stream`` is not
        read, because the position lives on the object (see
        :meth:`generate`); the stream never ends, so all ``count`` are
        skipped.
        """
        left = count - len(list(islice(self._rest, count)))
        expovariate = self.rng.expovariate
        mean = self.config.mean_instruction_gap
        lambd = 1.0 / mean if mean > 0 else None
        while left:
            vertex = self._pick_vertex()
            refs = self._refs_per_vertex(self._visited_degree(vertex))
            if refs > left:
                self._rest = iter(self._vertex_refs(vertex)[left:])
                break
            left -= refs
            if lambd is not None:
                for _ in range(refs):
                    expovariate(lambd)  # the draw gap() would have made
        return count


class BetweennessCentrality(GraphWorkload):
    """BC: frontier-driven traversal with per-neighbour dependency updates."""

    name = "bc"
    traversal = "frontier"
    max_neighbors = 20


class BreadthFirstSearch(GraphWorkload):
    """BFS: frontier-driven traversal, light per-vertex work."""

    name = "bfs"
    traversal = "frontier"
    max_neighbors = 12
    writes_neighbors = True


class ConnectedComponents(GraphWorkload):
    """CC: label propagation, streaming over all vertices each iteration."""

    name = "cc"
    traversal = "stream"
    max_neighbors = 16


class GraphColoring(GraphWorkload):
    """GC: shuffled vertex order, reads neighbour colours before writing its own."""

    name = "gc"
    traversal = "shuffled"
    max_neighbors = 16
    writes_neighbors = False


class PageRank(GraphWorkload):
    """PR: streaming vertex sweep with irregular rank gathers from neighbours."""

    name = "pr"
    traversal = "stream"
    max_neighbors = 20
    writes_neighbors = False


class ShortestPath(GraphWorkload):
    """SSSP: frontier-driven relaxations (GraphBIG's shortest-path kernel)."""

    name = "sssp"
    traversal = "frontier"
    max_neighbors = 16


class TriangleCounting(GraphWorkload):
    """TC: per-edge neighbour-list intersection — two irregular streams."""

    name = "tc"
    traversal = "shuffled"
    max_neighbors = 10
    second_hop = True
    writes_neighbors = False
