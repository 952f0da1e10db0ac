"""Shared fixtures: bundled example graphs and seeded random instances."""

import random
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from labelled_clique import (
    Graph,
    Incumbent,
    LabelledGraph,
    SearchStats,
    Solution,
    build_graph,
    fixture_path,
    parse_dimacs,
    parse_labels,
    permute_by_degree,
    random_labels,
    splitmix_next,
)
from labelled_clique.graph import reduce_to_core
from labelled_clique.colouring import colour_top_down_into
from labelled_clique.sequential import (_NODES, _expand, _label_dicts, _root_branches, _run_in_order,
                                        _search, _search_graph)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from gen_keller4 import keller4_edges  # noqa: E402


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Seeded G(n, p) graph; reproducible across runs via splitmix64."""
    threshold = int(density * (1 << 64))
    state = seed
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            value, state = splitmix_next(state)
            if value < threshold:
                edges.append((u, v))
    return build_graph(n, edges)


def planted_sparse_graph(n: int, ratio: float, seed: int,
                         isolated: bool = False) -> tuple[Graph, list[tuple[int, int]]]:
    """Seeded sparse graph on ``n`` vertices: ``ratio * n`` random pairs
    and 1-3 planted cliques of 3-7 vertices.  With ``isolated``, the last
    vertices form one more clique, as large as the largest planted one and
    joined to nothing else.  Returns the graph and that clique's edges."""
    rng = random.Random(seed)
    sizes = [rng.randint(3, 7) for _ in range(rng.randint(1, 3))]
    rest = n - max(sizes) if isolated else n
    edges = {tuple(sorted(rng.sample(range(rest), 2))) for _ in range(round(ratio * n))}
    for size in sizes:
        edges.update(combinations(sorted(rng.sample(range(rest), size)), 2))
    alone = list(combinations(range(rest, n), 2))
    return build_graph(n, [*edges, *alone]), alone


def bitset_rows(g: Graph) -> list[int]:
    """Each vertex's adjacency bitset, bit ``w`` of row ``v`` set iff
    ``{v, w}`` is an edge, built from ``g.edges()``: the tests' own rows."""
    rows = [0] * g.n
    for u, v in g.edges():
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def random_instance(n: int, density: float, num_labels: int, seed: int) -> LabelledGraph:
    g = random_graph(n, density, seed)
    return random_labels(g, num_labels, seed + 1_000_003)


def collaboration_scale_graph(n=7000, extra_edges=12000, seed=42):
    """Sparse random graph at Erdos-collaboration scale with a planted
    8-clique so the search has something to find."""
    state = seed
    edges = set()
    while len(edges) < extra_edges:
        a, state = splitmix_next(state)
        b, state = splitmix_next(state)
        u, v = a % n, b % n
        if u != v:
            edges.add((min(u, v), max(u, v)))
    for i in range(8):
        for j in range(i + 1, 8):
            edges.add((i, j))
    return build_graph(n, sorted(edges))


def traced(call):
    """``call()``, and the bytes it allocated and kept and its allocation
    peak, both counted from the call's start (``tracemalloc``)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - start, peak - start


class RecordingIncumbent(Incumbent):
    """An :class:`Incumbent` that lists each (clique, size, cost) it installs."""

    __slots__ = ("improvements",)

    def __init__(self, clique=(), labels=0):
        super().__init__(clique, labels)
        self.improvements = []

    def replace(self, clique, labels, size, cost):
        installed = super().replace(clique, labels, size, cost)
        if installed:
            self.improvements.append((list(clique), size, cost))
        return installed


def paper_state(by_label: list[list[int]], first_pass: bool, budget: int) -> tuple:
    """The state of one pass of the paper's search over the per-label rows
    ``by_label`` that ``permute_by_degree`` returns, numbered top-down
    (vertex v of the permutation is n - 1 - v), as ``solve`` hands it to a
    pass.  The one place the tests build a paper's-search pass."""
    return first_pass, _search_graph(by_label), _label_dicts(by_label), budget


def paper_search(by_label: list[list[int]], first_pass: bool, inc: Incumbent,
                 budget: int) -> tuple:
    """The context of one pass of the paper's search, for ``_expand``."""
    return _search(paper_state(by_label, first_pass, budget), inc)


def expand_root(search: tuple, cands: int) -> None:
    """One bare node of the paper's search over ``cands``, with an empty
    clique: colour it at k_min = the incumbent's size into the context's
    level-0 scratch pair, count that colouring, and enter ``_expand`` with
    it if it wrote a vertex, as ``_expand`` enters a child."""
    inc, tables, scratch = search[1], search[3], search[-1]
    order, bounds = scratch[0]
    search[_NODES][0] += 1
    m = colour_top_down_into(tables, cands, order, bounds, inc.size)
    if m:
        _expand(search, [], cands, 0, order, bounds, m)


def paper_solve(lg: LabelledGraph, budget: int) -> Solution:
    """The paper's search, one pass in the solution order, run as ``solve``
    runs it (root branches through ``_run_in_order``, plus one node for the
    root colouring) on the graph ``solve`` searches (peeled, then
    permuted), never through label subsets.

    The reference for the label-subset search and for the parallel solver's
    node accounting; the witness is in original numbering.
    """
    by_label, perm = permute_by_degree(lg, reduce_to_core(lg, budget))
    inc = Incumbent()
    n = len(perm.forward)
    state = paper_state(by_label, True, budget)
    nodes, _, _ = _run_in_order(_root_branches(state[1]), state, inc)
    stats = SearchStats(1 + nodes, vertices_searched=n)
    witness = sorted(perm.to_original(n - 1 - v for v in inc.clique))
    return Solution(witness, inc.size, inc.labels, inc.cost, stats)


def keller4_graph() -> Graph:
    """keller4 (171 vertices, 9435 edges), from the generator script."""
    return build_graph(*keller4_edges())


@pytest.fixture(scope="session")
def fig1() -> LabelledGraph:
    graph = parse_dimacs(fixture_path("fig1.clq").read_text())
    return parse_labels(fixture_path("fig1.lab").read_text(), graph)


@pytest.fixture(scope="session")
def fig2() -> Graph:
    return parse_dimacs(fixture_path("fig2.clq").read_text())


@pytest.fixture(scope="session")
def keller4() -> Graph:
    return keller4_graph()
