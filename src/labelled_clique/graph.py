"""Bitset-encoded graphs and edge labellings.

A graph is one adjacency bitset per vertex: bit ``w`` of row ``v`` is set
iff ``{v, w}`` is an edge.  Bitsets are plain Python ints, so every set
operation in the search (intersection, and-with-complement) runs word-at-a-
time in C.  Label sets are also plain int masks over label indices, with
cost = ``mask.bit_count()``; at most 64 labels are supported so a label set
always fits one machine word in a fixed-width port.

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
    """Undirected loop-free graph with one adjacency bitset per vertex.

    Build instances through :func:`build_graph`; rows are trusted here.
    """

    __slots__ = ("n", "adjacency", "degrees")

    def __init__(self, n: int, adjacency: list[int], degrees: list[int]):
        self.n = n
        self.adjacency = adjacency
        self.degrees = degrees

    def adjacent(self, v: int, w: int) -> bool:
        return (self.adjacency[v] >> w) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending in (u, v).

        This is the canonical edge order used for deterministic label
        allocation; it depends only on the adjacency, never on the order
        edges were supplied in.
        """
        for u in range(self.n):
            row = self.adjacency[u] >> (u + 1)
            w = u + 1
            while row:
                bit = row & -row
                yield u, w + bit.bit_length() - 1
                row ^= bit

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a :class:`Graph` from an edge list.

    Duplicate edges collapse to one; loops and out-of-range endpoints are
    rejected.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adjacency = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    degrees = [row.bit_count() for row in adjacency]
    return Graph(n, adjacency, degrees)


class LabelledGraph:
    """A graph plus one label index per edge.

    ``label_bits[v]`` maps each neighbour ``w`` of ``v`` to the single-bit
    mask ``1 << label(v, w)``; the search unions these masks directly.
    """

    __slots__ = ("graph", "num_labels", "label_bits")

    def __init__(self, graph: Graph, num_labels: int, label_bits: list[dict[int, int]]):
        self.graph = graph
        self.num_labels = num_labels
        self.label_bits = label_bits

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
            raise GraphError(
                f"label {label} for edge {key} out of range [0, {num_labels})"
            )
        normalised[key] = label
    # Every key is a distinct edge of the graph, so equal counts mean every
    # edge is covered.
    if len(normalised) != graph.edge_count():
        u, v = next(edge for edge in graph.edges() if edge not in normalised)
        raise GraphError(f"edge ({u}, {v}) has no label")
    return attach_labels(
        graph, num_labels, ((u, v, label) for (u, v), label in normalised.items())
    )


def attach_labels(
    graph: Graph, num_labels: int, labelled_edges: Iterable[tuple[int, int, int]]
) -> LabelledGraph:
    """Attach ``(u, v, label)`` triples to a graph without checking them.

    The caller guarantees one triple per edge of ``graph`` with a label in
    ``[0, num_labels)``; :func:`build_labelled` is the checked entry point
    for labels from outside the program.
    """
    label_bits: list[dict[int, int]] = [{} for _ in range(graph.n)]
    for u, v, label in labelled_edges:
        mask = 1 << label
        label_bits[u][v] = mask
        label_bits[v][u] = mask
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
    lg: LabelledGraph, kept: int | None = None
) -> tuple[LabelledGraph, Permutation]:
    """Renumber vertices into non-increasing degree order.

    Ties break by ascending original index, so the permutation is a stable
    sort and reproducible.  Edge labels are carried through.  With ``kept``
    (a vertex bitset) the result is the subgraph those vertices induce,
    ordered by their degrees in it.  The returned :class:`Permutation`
    maps solutions back to the original numbering.
    """
    g = lg.graph
    if kept is None:
        vertices, degree = range(g.n), g.degrees
    else:
        vertices = list(iter_bits(kept))
        degree = {v: (g.adjacency[v] & kept).bit_count() for v in vertices}
    forward = sorted(vertices, key=lambda v: (-degree[v], v))
    inverse: list[int | None] = [None] * g.n
    for new, old in enumerate(forward):
        inverse[old] = new
    n = len(forward)
    adjacency = [0] * n
    degrees = [0] * n
    label_bits: list[dict[int, int]] = [{} for _ in range(n)]
    for new, old in enumerate(forward):
        row = 0
        labels = label_bits[new]
        for w, mask in lg.label_bits[old].items():
            w = inverse[w]
            if w is not None:
                row |= 1 << w
                labels[w] = mask
        adjacency[new] = row
        degrees[new] = degree[old]
    permuted = LabelledGraph(Graph(n, adjacency, degrees), lg.num_labels, label_bits)
    return permuted, Permutation(tuple(forward), tuple(inverse))


def greedy_clique_size(lg: LabelledGraph, budget: int) -> int:
    """Size of the largest clique within ``budget`` labels grown greedily
    from each of the ``_GREEDY_STARTS`` highest-degree vertices.

    Each start repeatedly adds the highest-degree common neighbour that
    keeps the clique within budget, so the result is a feasible size: a
    lower bound on the optimum.
    """
    g = lg.graph
    degree = g.degrees.__getitem__
    best = min(g.n, 1)
    for v in sorted(range(g.n), key=degree, reverse=True)[:_GREEDY_STARTS]:
        clique, labels, cands = [v], 0, g.adjacency[v]
        while cands:
            for w in sorted(iter_bits(cands), key=degree, reverse=True):
                row = lg.label_bits[w]
                grown = labels
                for u in clique:
                    grown |= row[u]
                if grown.bit_count() <= budget:
                    break
                # Label sets only grow, so w can never join this clique.
                cands ^= 1 << w
            else:
                break
            clique.append(w)
            labels = grown
            cands &= g.adjacency[w]
        best = max(best, len(clique))
    return best


def core(g: Graph, k: int) -> int:
    """Bitset of the k-core: the largest vertex set in which every vertex
    has at least ``k`` neighbours.

    Vertices of degree below ``k`` go in one pass over the degrees; each
    round then drops the vertices left with fewer than ``k`` surviving
    neighbours and rechecks only the neighbours of those it dropped.  Only
    this one ``k`` is peeled, not every vertex's core number.
    """
    # The degree prefilter, built as one binary literal: OR-ing thousands
    # of single bits into a long int would copy it once per vertex.
    alive = int("".join("1" if d >= k else "0" for d in reversed(g.degrees)) or "0", 2)
    check = [v for v, d in enumerate(g.degrees) if d >= k]
    while check:
        touched = 0
        for v in check:
            row = g.adjacency[v]
            if (row & alive).bit_count() < k:
                alive ^= 1 << v
                touched |= row
        check = list(iter_bits(touched & alive))
    return alive


def reduce_to_core(lg: LabelledGraph, budget: int) -> int | None:
    """The vertices a search within ``budget`` needs, as a bitset, or None
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
    return core(lg.graph, k)


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
