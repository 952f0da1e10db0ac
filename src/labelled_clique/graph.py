"""Graphs as sorted edge lists, and edge labels on demand.

A graph holds its sorted edge list and degrees only: an edge is found by
bisecting the list, the edges among a vertex set by slicing it.  Bitsets
are plain Python ints, so every set operation in the search (intersection,
and-with-complement) runs word-at-a-time in C.  Label sets are also plain
int masks over label indices, with cost = ``mask.bit_count()``; at most 64
labels are supported so a label set always fits one machine word in a
fixed-width port.

:func:`permute_by_degree` renumbers a graph into one adjacency per label,
numbered top-down and filled in one pass over its edges: all that both
searches read.

:func:`reduce_to_core` keeps the vertices a solve needs: the core of a
greedy clique's size and, on a graph too sparse for cheap rows, only the
vertices of that core's edges that lie in enough triangles.

Vertices are 0-based internally; file formats and reports are 1-based.
All containers here are immutable after construction; forked workers
read their own copies.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .colouring import colour_top_down_into, mirrored_tables

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
    """Undirected loop-free graph: degrees, and edges (u, v) with u < v in
    ascending order.  :func:`build_graph` gives both, trusted here."""

    __slots__ = ("n", "degrees", "_edges")

    def __init__(self, n: int, degrees: list[int], edges: list[tuple[int, int]]):
        self.n, self.degrees, self._edges = n, degrees, edges

    def adjacent(self, v: int, w: int) -> bool:
        return _position(self._edges, (v, w) if v < w else (w, v)) is not None

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending: the canonical order of
        label allocation, whatever order the edges were supplied in."""
        return self._edges

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _position(edges: list[tuple[int, int]], pair: tuple[int, int]) -> int | None:
    """The index of ``pair`` in the sorted ``edges``, or None if absent."""
    return i if edges[(i := bisect_left(edges, pair)):i + 1] == [pair] else None


def _among(edges: list[tuple[int, int]], vertices: set[int]) -> list[int]:
    """The indices in the sorted ``edges`` of the edges among ``vertices``.
    Edge (u, v) lies in u's slice of the list, which starts at (u,) and
    ends before (u + 1,)."""
    return [i for u in vertices
            for i in range(bisect_left(edges, (u,)), bisect_left(edges, (u + 1,)))
            if edges[i][1] in vertices]


def cheap_rows(n: int, degree_sum: int) -> bool:
    """True when a row's n/64 machine words are no more than the average
    degree 2m/n of a graph of ``n`` vertices, i.e. n * n <= 64 * degree
    sum: then bitset rows cost about what the edge list does."""
    return n * n <= 64 * degree_sum


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a :class:`Graph` from an edge list.  Duplicate edges
    collapse to one; loops and out-of-range endpoints are rejected.  A list
    already in the graph's order, tuples (u, v) with 0 <= u < v < n strictly
    ascending, becomes the graph's edge list as it is, with one pass to
    check it and count degrees."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    if type(edges) is list:
        degrees = _canonical_degrees(n, edges)
        if degrees is not None:
            return Graph(n, degrees, edges)
    # dict.fromkeys keeps the input's order, so sorted input sorts in linear time.
    canonical = sorted(dict.fromkeys((u, v) if u < v else (v, u) for u, v in edges))
    degrees = [0] * n
    for u, v in canonical:
        if not 0 <= u < v < n:
            raise GraphError(f"loop edge at vertex {u}" if u == v
                             else f"edge ({u}, {v}) out of range for {n} vertices")
        degrees[u] += 1
        degrees[v] += 1
    return Graph(n, degrees, canonical)


def _canonical_degrees(n: int, edges: list) -> list[int] | None:
    """The degrees of ``edges`` if they are tuples (u, v) with
    0 <= u < v < n, strictly ascending; None for any other list."""
    degrees = [0] * n
    last = (-1, n)  # below (u, v) iff u >= 0, given v < n
    try:
        for edge in edges:
            u, v = edge
            if not (last < edge and u < v < n):
                return None
            degrees[u] += 1
            degrees[v] += 1
            last = edge
    except (TypeError, ValueError):  # not a tuple, not a pair, or not ints
        return None
    return degrees


class LabelledGraph:
    """A graph plus one label index per edge.

    ``labels_at(indices)`` labels the edges at those positions of
    ``graph.edges()``, so a solve labels only the edges it reads, and
    ``labels()`` labels every edge, once, and keeps the list: once it is
    built, every lookup reads it.
    """

    __slots__ = ("graph", "num_labels", "labels_at", "_labels")

    def __init__(self, graph: Graph, num_labels: int,
                 labels_at: Callable[[Sequence[int]], list[int]]):
        self.graph, self.num_labels, self.labels_at = graph, num_labels, labels_at
        self._labels = None

    def labels(self) -> list[int]:
        """The label of every edge, aligned with ``graph.edges()``."""
        if self._labels is None:
            self._labels = self.labels_at(range(self.graph.edge_count()))
        return self._labels

    def _labels_of(self, at: Sequence[int]) -> Iterable[int]:
        """The labels of the edges at positions ``at`` of ``graph.edges()``."""
        return self.labels_at(at) if self._labels is None else map(self._labels.__getitem__, at)

    def rows_among(self, vertices: set[int]) -> dict[int, dict[int, int]]:
        """Each vertex of ``vertices`` mapped to a dict from each neighbour ``w``
        among them to the mask ``1 << label``, labelling only those edges."""
        edges, rows = self.graph.edges(), defaultdict(dict)
        at = _among(edges, vertices)
        for (u, v), label in zip(map(edges.__getitem__, at), self._labels_of(at)):
            rows[u][v] = rows[v][u] = 1 << label
        return rows

    def masks(self, pairs: list[tuple[int, int]]) -> list[int | None]:
        """Label masks of the pairs (u, v) with u < v, None for a non-edge;
        only the pairs that are edges are labelled."""
        edges = self.graph.edges()
        found = [_position(edges, pair) for pair in pairs]
        labels = iter(self._labels_of([i for i in found if i is not None]))
        return [None if i is None else 1 << next(labels) for i in found]

    def label_of(self, u: int, v: int) -> int:
        """Label index of edge (u, v); raises GraphError for a non-edge."""
        [mask] = self.masks([(u, v) if u < v else (v, u)])
        if mask is None:
            raise GraphError(f"no edge ({u}, {v})")
        return mask.bit_length() - 1

    def edge_label_map(self) -> dict[tuple[int, int], int]:
        """Mapping (u, v) with u < v -> label index, for IO and reports."""
        return dict(zip(self.graph.edges(), self.labels()))

    def __repr__(self) -> str:
        return f"LabelledGraph({self.graph!r}, num_labels={self.num_labels})"


def build_labelled(
    graph: Graph, num_labels: int, assignments: Mapping[tuple[int, int], int]
) -> LabelledGraph:
    """Attach labels to a graph.

    ``assignments`` must cover exactly the edges of ``graph`` (keys may be
    in either vertex order) with label indices in ``[0, num_labels)``.
    """
    index = {edge: i for i, edge in enumerate(graph.edges())}
    labels: list[int | None] = [None] * len(index)
    for (u, v), label in assignments.items():
        key = (u, v) if u < v else (v, u)
        i = index.get(key)
        if i is None:
            raise GraphError(f"label assigned to non-edge ({u}, {v})")
        if labels[i] not in (None, label):
            raise GraphError(f"conflicting labels for edge {key}")
        if not 0 <= label < num_labels:
            raise GraphError(f"label {label} for edge {key} out of range [0, {num_labels})")
        labels[i] = label
    if None in labels:
        u, v = graph.edges()[labels.index(None)]
        raise GraphError(f"edge ({u}, {v}) has no label")
    return from_label_list(graph, num_labels, labels)


def from_label_list(graph: Graph, num_labels: int, labels: list[int]) -> LabelledGraph:
    """Attach ``labels``, one index in ``[0, num_labels)`` per edge of
    ``graph.edges()``, trusted here; only ``num_labels`` is checked."""
    if not 1 <= num_labels <= MAX_LABELS:
        raise GraphError(f"num_labels must be in [1, {MAX_LABELS}], got {num_labels}")
    return LabelledGraph(graph, num_labels, labels_at=lambda indices: [labels[i] for i in indices])


class Permutation(NamedTuple):
    """Vertex renumbering: ``forward[new] = old``."""

    forward: tuple[int, ...]

    def to_original(self, vertices: Iterable[int]) -> list[int]:
        return [self.forward[v] for v in vertices]


def permute_by_degree(
    lg: LabelledGraph, kept: set[int] | None = None
) -> tuple[list[list[int]], Permutation]:
    """Renumber vertices into non-increasing degree order, as one adjacency
    per label.

    Ties break by ascending original index, so the permutation is a stable
    sort and reproducible.  With ``kept`` (a vertex set) the result is the
    subgraph those vertices induce, ordered by their degrees in it; only its
    edges are labelled.  The returned :class:`Permutation` maps solutions
    back to the original numbering.

    The rows are numbered top-down: vertex ``new`` of the permutation is
    ``n - 1 - new`` here, both as a row index and as a bit, so
    ``rows[k][n - 1 - new]`` is the bitset of its neighbours joined to it
    by an edge labelled ``k``.  They are filled in one pass over the kept
    edges, and are all that both searches of a solve read.  A subgraph's
    edges are sliced out of the edge list and labelled in one call.
    """
    g = lg.graph
    if kept is None:
        vertices, degree = range(g.n), g.degrees
        edges, labels = g.edges(), lg.labels()
    else:
        at = _among(g.edges(), kept)
        edges, labels = list(map(g.edges().__getitem__, at)), lg._labels_of(at)
        vertices, degree = kept, Counter(v for edge in edges for v in edge)
    forward = sorted(vertices, key=lambda v: (-degree[v], v))
    n = len(forward)
    row_of, bit = [0] * g.n, [0] * g.n
    for new, old in enumerate(forward):
        row_of[old] = t = n - 1 - new
        bit[old] = 1 << t
    by_label = [[0] * n for _ in range(lg.num_labels)]
    for (u, v), label in zip(edges, labels):
        rows = by_label[label]
        rows[row_of[u]] |= bit[v]
        rows[row_of[v]] |= bit[u]
    return by_label, Permutation(tuple(forward))


def greedy_clique_size(lg: LabelledGraph, budget: int) -> int:
    """Size of the largest clique within ``budget`` labels grown greedily
    from each of the ``_GREEDY_STARTS`` highest-degree vertices.

    Each start repeatedly adds the highest-degree common neighbour, lowest
    index first among equal degrees, that keeps the clique within budget,
    so the result is a feasible size: a lower bound on the optimum.  Only
    the edges among the starts and their neighbours are labelled.
    """
    from heapq import nlargest  # here, so that importing the package does not load it

    g = lg.graph
    degree = g.degrees.__getitem__
    best = min(g.n, 1)
    starts = nlargest(_GREEDY_STARTS, range(g.n), key=degree)
    first = set(starts)
    neighbours = lg.rows_among(
        first.union([v if u in first else u for u, v in g.edges() if u in first or v in first]))
    for v in starts:
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


def _core_rows(lg: LabelledGraph, k: int) -> dict[int, list[int]]:
    """Each vertex of the k-core, mapped to a list of its neighbours in the
    k-core.

    On the edges among the vertices of degree ``k`` or more, vertices of
    degree below ``k`` are peeled one at a time, each lowering its
    neighbours' counts of live neighbours and peeling those that fall
    below ``k``: the O(m) peel of Batagelj and Zaversnik (2003), for this
    one ``k`` only.  Nothing leaves a row during the peel, so a hub costs
    its degree; a survivor that lost a neighbour has its row filtered
    once at the end.
    """
    rows: list[list[int] | None] = [[] if d >= k else None for d in lg.graph.degrees]
    for u, v in lg.graph.edges():
        if rows[u] is not None and rows[v] is not None:
            rows[u].append(v)
            rows[v].append(u)
    live = [0 if row is None else len(row) for row in rows]
    peeled = [v for v, d in enumerate(live) if d < k and rows[v] is not None]
    for v in peeled:
        for w in rows[v]:
            live[w] -= 1
            if live[w] == k - 1:  # only once, and never for a peeled vertex
                peeled.append(w)
    core_rows: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        if live[v] >= k:
            if live[v] < len(row):
                row = rows[v] = [w for w in row if live[w] >= k]
            core_rows[v] = row
    return core_rows


def core(lg: LabelledGraph, k: int) -> set[int]:
    """The k-core: the largest vertex set in which every vertex has at
    least ``k`` neighbours."""
    return set(_core_rows(lg, k))


def truss(lg: LabelledGraph, k: int) -> set[int]:
    """The vertices with an edge in the (k + 1)-truss of the k-core
    (Cohen 2008): the largest set of edges among the k-core's vertices
    in which every edge lies in at least ``k - 1`` triangles of the set.

    Every edge of a (k + 1)-clique lies in k - 1 of the clique's own
    triangles, so such a clique keeps all its vertices here.  One sweep
    first drops every edge in no triangle, which takes no triangle with
    it; a sparse graph has few triangles, so few edges are left.  The
    sweep holds one vertex's neighbours as a set at a time and tests each
    edge once, from its end with the longer row, against the other end's
    list, so a hub costs its degree and not its degree squared.  Then
    every edge in too few triangles goes at once, and after that only the
    edges at a vertex that lost one can have lost a triangle.
    """
    rows = _core_rows(lg, k)
    if k < 2:
        return set(rows)
    strong: dict[int, set[int]] = defaultdict(set)
    for v, row in rows.items():
        mine, d = set(row), len(row)
        for w in row:
            other = rows[w]
            e = len(other)
            if (e < d or e == d and w < v) and not mine.isdisjoint(other):
                strong[v].add(w)
                strong[w].add(v)
    touched = set(strong)
    while touched:
        weak = [(v, w) for v in touched for w in strong[v] if len(strong[v] & strong[w]) < k - 1]
        touched = set()
        for v, w in weak:
            strong[v].discard(w)
            strong[w].discard(v)
            touched.update((v, w))
    return {v for v, row in strong.items() if row}


def _colours(g: Graph) -> int:
    """Colours of :func:`colouring.colour_order`'s colouring of ``g``."""
    bounds = [0] * g.n
    colour_top_down_into(mirrored_tables(g.n, g.edges()), (1 << g.n) - 1, [0] * g.n, bounds, 0)
    return bounds[-1]


def reduce_to_core(lg: LabelledGraph, budget: int) -> set[int] | None:
    """The vertices a search within ``budget`` needs, as a set, or None
    when it needs all of them.

    A greedy feasible clique of size s0 shows that every optimal clique,
    and every clique the cost pass compares with one, has at least s0
    vertices.  Each vertex of such a clique has s0 - 1 neighbours inside
    it, so all of them lie in the (s0 - 1)-core, and each of its edges
    lies in s0 - 2 triangles inside it, so all of them also lie in the
    vertices :func:`truss` keeps.  The peel runs only when some vertex has
    fewer than s0 - 1 neighbours.  On a graph whose rows :func:`cheap_rows`
    allows it keeps the core: counting triangles there costs O(m d), and
    on G(n, p) graphs (n 100-200, p 0.3-0.6) plus one pendant vertex the
    truss kept the core's vertices and made the solve 2-3 times slower.

    A clique takes one colour per vertex, so when a colouring of the whole
    graph needs at most its minimum degree + 1 colours, s0 - 1 is at most
    that degree and no greedy is needed.  The colouring is tried first on
    a graph whose rows :func:`cheap_rows` allows and has no isolated vertex.
    """
    g = lg.graph
    low, cheap = min(g.degrees, default=0), cheap_rows(g.n, sum(g.degrees))
    if low and cheap and _colours(g) <= low + 1:
        return None
    k = greedy_clique_size(lg, budget) - 1
    if k <= low:
        return None
    return core(lg, k) if cheap else truss(lg, k)


def clique_cost(lg: LabelledGraph, clique: Iterable[int]) -> tuple[int, int]:
    """Label-set mask and cost (distinct label count) of a clique.

    Validates that the vertices are pairwise adjacent; the empty set and
    singletons cost 0.  Only the clique's own edges are labelled.
    """
    vertices = sorted(set(clique))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    labels = 0
    for (u, v), mask in zip(pairs, lg.masks(pairs)):
        if mask is None:
            raise GraphError(f"vertices {u} and {v} are not adjacent")
        labels |= mask
    return labels, labels.bit_count()
