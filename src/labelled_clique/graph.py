"""Graphs as edge lists with bitset rows on demand, and edge labellings.

A graph holds its sorted edge list and degrees; its rows, bit ``w`` of row
``v`` set iff ``{v, w}`` is an edge, are built when first read.  Bitsets
are plain Python ints, so every set operation in the search (intersection,
and-with-complement) runs word-at-a-time in C.  Label sets are also plain
int masks over label indices, with cost = ``mask.bit_count()``; at most 64
labels are supported so a label set always fits one machine word in a
fixed-width port.

Vertices are 0-based internally; file formats and reports are 1-based.
All containers here are immutable after construction; forked workers
read their own copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

MAX_LABELS = 64

# Starts of the greedy clique that sets the peel's k.  The vertices of a
# large clique have high degree in a sparse graph, so the top 32 find it in
# a few milliseconds on 7,000 vertices.
_GREEDY_STARTS = 32


class GraphError(ValueError):
    """Raised when a graph or labelling cannot be constructed as specified."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def label_indices(mask: int) -> list[int]:
    """Label indices present in a label-set mask, ascending."""
    return list(iter_bits(mask))


class Graph:
    """Undirected loop-free graph: degrees, edges (u, v) with u < v, and one
    adjacency bitset per vertex.  :func:`build_graph` gives the edges and
    :func:`permute_by_degree` the rows, both trusted here; either is built
    from the other on first use."""

    __slots__ = ("n", "degrees", "_rows", "_edges")

    def __init__(self, n: int, adjacency: list[int] | None, degrees: list[int],
                 edges: list[tuple[int, int]] | None = None):
        self.n, self._rows, self.degrees, self._edges = n, adjacency, degrees, edges

    @property
    def adjacency(self) -> list[int]:
        if self._rows is None:
            rows = self._rows = [0] * self.n
            for u, v in self._edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return self._rows

    def adjacent(self, v: int, w: int) -> bool:
        return (self.adjacency[v] >> w) & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending: the canonical order of
        label allocation, whatever order the edges were supplied in."""
        if self._edges is None:
            self._edges = [(u, w) for u, row in enumerate(self._rows)
                           for w in iter_bits((row >> (u + 1)) << (u + 1))]
        return self._edges

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a :class:`Graph` from an edge list.  Duplicate edges
    collapse to one; loops and out-of-range endpoints are rejected."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    # dict.fromkeys keeps the input's order, so sorted input sorts in linear time.
    canonical = sorted(dict.fromkeys((u, v) if u < v else (v, u) for u, v in edges))
    degrees = [0] * n
    for u, v in canonical:
        if not 0 <= u < v < n:
            raise GraphError(f"loop edge at vertex {u}" if u == v
                             else f"edge ({u}, {v}) out of range for {n} vertices")
        degrees[u] += 1
        degrees[v] += 1
    return Graph(n, None, degrees, canonical)


class LabelledGraph:
    """A graph plus one label index per edge.

    ``label_bits[v]`` maps each neighbour ``w`` of ``v`` to the single-bit
    mask ``1 << label(v, w)``; the search unions these masks directly.
    """

    __slots__ = ("graph", "num_labels", "label_bits")

    def __init__(self, graph: Graph, num_labels: int, label_bits: list[dict[int, int]]):
        self.graph, self.num_labels, self.label_bits = graph, num_labels, label_bits

    def label_of(self, u: int, v: int) -> int:
        """Label index of edge (u, v); raises GraphError for a non-edge."""
        mask = self.label_bits[u].get(v)
        if mask is None:
            raise GraphError(f"no edge ({u}, {v})")
        return mask.bit_length() - 1

    def edge_label_map(self) -> dict[tuple[int, int], int]:
        """Mapping (u, v) with u < v -> label index, for IO and reports."""
        return {(u, v): self.label_of(u, v) for u, v in self.graph.edges()}

    def __repr__(self) -> str:
        return f"LabelledGraph({self.graph!r}, num_labels={self.num_labels})"


def build_labelled(
    graph: Graph, num_labels: int, assignments: Mapping[tuple[int, int], int]
) -> LabelledGraph:
    """Attach labels to a graph.

    ``assignments`` must cover exactly the edges of ``graph`` (keys may be
    in either vertex order) with label indices in ``[0, num_labels)``.
    """
    if not 1 <= num_labels <= MAX_LABELS:
        raise GraphError(f"num_labels must be in [1, {MAX_LABELS}], got {num_labels}")
    normalised: dict[tuple[int, int], int] = {}
    for (u, v), label in assignments.items():
        if not graph.adjacent(u, v):
            raise GraphError(f"label assigned to non-edge ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in normalised and normalised[key] != label:
            raise GraphError(f"conflicting labels for edge {key}")
        if not 0 <= label < num_labels:
            raise GraphError(f"label {label} for edge {key} out of range [0, {num_labels})")
        normalised[key] = label
    # Every key is a distinct edge of the graph, so equal counts mean every
    # edge is covered.
    if len(normalised) != graph.edge_count():
        u, v = next(edge for edge in graph.edges() if edge not in normalised)
        raise GraphError(f"edge ({u}, {v}) has no label")
    label_bits: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for (u, v), label in normalised.items():
        label_bits[u][v] = label_bits[v][u] = 1 << label
    return LabelledGraph(graph, num_labels, label_bits)


def label_adjacency(lg: LabelledGraph) -> list[list[int]]:
    """One adjacency per label, numbered top-down: vertex ``v`` is
    ``n - 1 - v`` here, both as a row index and as a bit, so
    ``rows[k][n - 1 - v]`` is the bitset of the neighbours of ``v`` joined
    to it by an edge labelled ``k``.

    The label-subset sub-searches colour these rows highest vertex first
    (``colouring.colour_top_down_into``) and map their witnesses back."""
    top = lg.graph.n - 1
    rows = [[0] * lg.graph.n for _ in range(lg.num_labels)]
    for v, labels in enumerate(lg.label_bits):
        for w, bit in labels.items():
            rows[bit.bit_length() - 1][top - v] |= 1 << (top - w)
    return rows


@dataclass(frozen=True)
class Permutation:
    """Vertex renumbering: ``forward[new] = old`` and ``inverse[old] = new``.

    ``inverse[old]`` is None for a vertex left out of the renumbered graph.
    """

    forward: tuple[int, ...]
    inverse: tuple[int | None, ...]

    def to_original(self, vertices: Iterable[int]) -> list[int]:
        return [self.forward[v] for v in vertices]


def permute_by_degree(
    lg: LabelledGraph, kept: set[int] | None = None
) -> tuple[LabelledGraph, Permutation]:
    """Renumber vertices into non-increasing degree order.

    Ties break by ascending original index, so the permutation is a stable
    sort and reproducible.  Edge labels are carried through.  With ``kept``
    (a vertex set) the result is the subgraph those vertices induce,
    ordered by their degrees in it.  The returned :class:`Permutation`
    maps solutions back to the original numbering.
    """
    g, neighbours = lg.graph, lg.label_bits
    if kept is None:
        vertices, degree = range(g.n), g.degrees
    else:
        vertices = kept
        degree = {v: len(kept.intersection(neighbours[v])) for v in kept}
    forward = sorted(vertices, key=lambda v: (-degree[v], v))
    inverse: list[int | None] = [None] * g.n
    for new, old in enumerate(forward):
        inverse[old] = new
    n = len(forward)
    adjacency = [0] * n
    label_bits: list[dict[int, int]] = [{} for _ in range(n)]
    for new, old in enumerate(forward):
        row = 0
        labels = label_bits[new]
        for w, mask in neighbours[old].items():
            w = inverse[w]
            if w is not None:
                row |= 1 << w
                labels[w] = mask
        adjacency[new] = row
    degrees = [degree[old] for old in forward]
    permuted = LabelledGraph(Graph(n, adjacency, degrees), lg.num_labels, label_bits)
    return permuted, Permutation(tuple(forward), tuple(inverse))


def greedy_clique_size(lg: LabelledGraph, budget: int) -> int:
    """Size of the largest clique within ``budget`` labels grown greedily
    from each of the ``_GREEDY_STARTS`` highest-degree vertices.

    Each start repeatedly adds the highest-degree common neighbour, lowest
    index first among equal degrees, that keeps the clique within budget,
    so the result is a feasible size: a lower bound on the optimum.
    """
    g, neighbours = lg.graph, lg.label_bits
    degree = g.degrees.__getitem__
    best = min(g.n, 1)
    for v in sorted(range(g.n), key=degree, reverse=True)[:_GREEDY_STARTS]:
        clique, labels, cands = [v], 0, set(neighbours[v])
        while cands:
            for w in sorted(sorted(cands), key=degree, reverse=True):
                row = neighbours[w]
                grown = labels
                for u in clique:
                    grown |= row[u]
                if grown.bit_count() <= budget:
                    break
                # Label sets only grow, so w can never join this clique.
                cands.discard(w)
            else:
                break
            clique.append(w)
            labels = grown
            cands = cands.intersection(neighbours[w])
        best = max(best, len(clique))
    return best


def core(lg: LabelledGraph, k: int) -> set[int]:
    """The k-core: the largest vertex set in which every vertex has at
    least ``k`` neighbours.

    Vertices of degree below ``k`` are peeled one at a time, each lowering
    its neighbours' degrees and peeling those that fall below ``k``: the
    O(m) peel of Batagelj and Zaversnik (2003), for this one ``k`` rather
    than every vertex's core number.
    """
    neighbours, degree = lg.label_bits, list(lg.graph.degrees)
    peeled = [v for v, d in enumerate(degree) if d < k]
    for v in peeled:
        for w in neighbours[v]:
            degree[w] -= 1
            if degree[w] == k - 1:  # only once, and never for a peeled vertex
                peeled.append(w)
    return {v for v, d in enumerate(degree) if d >= k}


def reduce_to_core(lg: LabelledGraph, budget: int) -> set[int] | None:
    """The vertices a search within ``budget`` needs, as a set, or None
    when it needs all of them.

    A greedy feasible clique of size s0 shows that every optimal clique,
    and every clique the cost pass compares with one, has at least s0
    vertices.  Each vertex of such a clique has s0 - 1 neighbours inside
    it, so all of them lie in the (s0 - 1)-core.  The peel runs only when
    some vertex has fewer neighbours than that.
    """
    k = greedy_clique_size(lg, budget) - 1
    if k <= min(lg.graph.degrees, default=0):
        return None
    return core(lg, k)


def clique_cost(lg: LabelledGraph, clique: Iterable[int]) -> tuple[int, int]:
    """Label-set mask and cost (distinct label count) of a clique.

    Validates that the vertices are pairwise adjacent; the empty set and
    singletons cost 0.
    """
    vertices = sorted(set(clique))
    labels = 0
    for i, u in enumerate(vertices):
        row = lg.label_bits[u]
        for v in vertices[i + 1 :]:
            mask = row.get(v)
            if mask is None:
                raise GraphError(f"vertices {u} and {v} are not adjacent")
            labels |= mask
    return labels, labels.bit_count()
