import random
import time
from itertools import combinations

import networkx as nx
import pytest

from labelled_clique import (
    GraphError,
    build_graph,
    build_labelled,
    clique_cost,
    label_indices,
    permute_by_degree,
    random_labels,
    solve,
)
import labelled_clique.graph as graph_mod
from labelled_clique.graph import (cheap_rows, core, greedy_clique_size, iter_bits,
                                   reduce_to_core, truss)

from conftest import (bitset_rows, collaboration_scale_graph, planted_sparse_graph,
                      random_graph, random_instance, traced)


def triangle_labelled(num_labels=1, labels=(0, 0, 0)):
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    return build_labelled(g, num_labels, {(0, 1): labels[0], (1, 2): labels[1], (0, 2): labels[2]})


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.degrees == [2, 2, 2]
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_build_edgeless():
    g = build_graph(4, [])
    assert g.degrees == [0, 0, 0, 0]
    assert g.edge_count() == 0


def test_build_fig1_degrees(fig1):
    assert fig1.graph.degrees == [4, 4, 4, 6, 6, 3, 3]
    assert fig1.graph.edge_count() == 15


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(-1, 1)])
    with pytest.raises(GraphError, match="vertex count must be non-negative, got -1"):
        build_graph(-1, [])


def test_build_rejects_loops():
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])


def test_build_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1
    assert g.degrees == [1, 1, 0]


def test_adjacency_symmetric_and_loop_free():
    lg = random_instance(14, 0.5, 3, seed=7)
    g = lg.graph
    rows = bitset_rows(g)
    for v in range(g.n):
        assert not g.adjacent(v, v)
        for w in range(g.n):
            assert g.adjacent(v, w) == g.adjacent(w, v) == (rows[v] >> w & 1 == 1)
        assert g.degrees[v] == rows[v].bit_count()


def test_build_labelled_triangle():
    lg = triangle_labelled()
    assert lg.num_labels == 1
    assert lg.label_of(0, 1) == 0


def test_build_labelled_fig1(fig1):
    assert fig1.num_labels == 4
    assert fig1.label_of(0, 1) == 0  # edge 1-2 carries the first label
    assert fig1.label_of(0, 2) == 3  # edge 1-3 carries the fourth


def test_build_labelled_requires_total_assignment():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(GraphError, match="no label"):
        build_labelled(g, 1, {(0, 1): 0, (1, 2): 0})


def test_build_labelled_rejects_bad_labels():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        build_labelled(g, 2, {(0, 1): 2})
    with pytest.raises(GraphError):
        build_labelled(g, 65, {(0, 1): 0})
    with pytest.raises(GraphError, match="non-edge"):
        build_labelled(build_graph(3, [(0, 1)]), 1, {(0, 1): 0, (1, 2): 0})
    with pytest.raises(GraphError, match=r"conflicting labels for edge \(0, 1\)"):
        build_labelled(g, 2, {(0, 1): 0, (1, 0): 1})
    # The same label from both ends is one assignment.
    assert build_labelled(g, 2, {(0, 1): 1, (1, 0): 1}).labels() == [1]


def permuted_degrees(by_label):
    """Degrees in permutation order, from the union of the top-down
    per-label rows: vertex ``new`` is row ``n - 1 - new``."""
    return [row.bit_count() for row in reversed(list(map(sum, zip(*by_label))))]


def assert_rows_follow_labels(lg, by_label, perm):
    """Every bit of the per-label rows, checked against ``lg`` through
    ``perm``: bit ``n - 1 - b`` of ``rows[k][n - 1 - a]`` is set exactly
    when ``{forward[a], forward[b]}`` is an edge labelled ``k``, so no
    non-edge and no edge leaving the renumbered vertices appears."""
    n = len(perm.forward)
    assert len(by_label) == lg.num_labels and all(len(rows) == n for rows in by_label)
    for k, rows in enumerate(by_label):
        for a, u in enumerate(perm.forward):
            assert rows[n - 1 - a] == sum(
                1 << (n - 1 - b) for b, v in enumerate(perm.forward)
                if lg.graph.adjacent(u, v) and lg.label_of(u, v) == k)


def test_permute_fig1_order(fig1):
    by_label, perm = permute_by_degree(fig1)
    assert [v + 1 for v in perm.forward] == [4, 5, 1, 2, 3, 6, 7]
    assert permuted_degrees(by_label) == [6, 6, 4, 4, 4, 3, 3]


def test_permute_identity_when_sorted():
    g = build_graph(3, [(0, 1), (0, 2)])  # degrees 2,1,1 already non-increasing
    lg = build_labelled(g, 1, {(0, 1): 0, (0, 2): 0})
    _, perm = permute_by_degree(lg)
    assert perm.forward == (0, 1, 2)


def test_permute_all_ties_is_identity():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 4-cycle, all degree 2
    lg = build_labelled(g, 1, dict.fromkeys(g.edges(), 0))
    _, perm = permute_by_degree(lg)
    assert perm.forward == (0, 1, 2, 3)


def test_permute_properties():
    for seed in range(5):
        lg = random_instance(12, 0.4, 3, seed=seed)
        by_label, perm = permute_by_degree(lg)
        degs = permuted_degrees(by_label)
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))
        assert sorted(perm.forward) == list(range(lg.graph.n))
        assert_rows_follow_labels(lg, by_label, perm)


def test_permute_kept_vertices_builds_induced_subgraph():
    leaving = 0
    for seed in range(5):
        lg = random_instance(12, 0.4, 3, seed=seed)
        kept = set(iter_bits(0b101101110101 >> seed))
        by_label, perm = permute_by_degree(lg, kept)
        assert sorted(perm.forward) == sorted(kept)
        degs = permuted_degrees(by_label)
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))
        induced = [(u, v) for u, v in lg.graph.edges() if u in kept and v in kept]
        assert sum(degs) == 2 * len(induced)
        assert_rows_follow_labels(lg, by_label, perm)
        leaving += sum((u in kept) != (v in kept) for u, v in lg.graph.edges())
    assert leaving > 0


def test_whole_permutation_fills_the_rows_the_kept_one_builds():
    # A whole graph is renumbered from its edge list and labels() straight
    # into per-label rows; keeping every vertex slices the edge list and
    # labels what it finds instead.  Both must give the same rows and
    # permutation.
    for n, density, num_labels in ((3, 1.0, 1), (12, 0.4, 3), (30, 0.7, 5), (65, 0.6, 64)):
        lg = random_instance(n, density, num_labels, seed=n)
        whole = permute_by_degree(lg)
        assert whole == permute_by_degree(lg, set(range(n)))


def test_core_matches_networkx_and_is_stable():
    # Sparse graphs, and dense ones plus a pendant vertex, whose peel
    # takes vertices out of rows of about 75 neighbours: near k = 60 it
    # drops a few, and a little above it cascades until nothing is left.
    cases = [(random_graph(40, 0.05 + 0.05 * seed, seed), range(8)) for seed in range(6)]
    for seed in range(3):
        dense = random_graph(150, 0.5, seed)
        cases.append((build_graph(151, [*dense.edges(), (0, 150)]), [10, 40, *range(55, 66), 70]))
    for seed, (g, ks) in enumerate(cases):
        rows = bitset_rows(g)
        reference = nx.Graph(list(g.edges()))
        reference.add_nodes_from(range(g.n))
        for k in ks:
            alive = core(random_labels(g, 1, seed), k)
            assert alive == set(nx.k_core(reference, k))
            mask = sum(1 << v for v in alive)
            for v in alive:
                assert (rows[v] & mask).bit_count() >= k
            # Peeling the core's own subgraph again removes nothing.
            again = build_graph(g.n, [(u, v) for u, v in g.edges() if u in alive and v in alive])
            assert core(random_labels(again, 1, seed), k) == alive


def test_truss_matches_networkx():
    # The vertices with an edge in the (k + 1)-truss of the k-core, whose
    # every edge lies in k - 1 triangles or more.
    shrank = 0
    for seed in range(200):
        rng = random.Random(seed)
        g, _ = planted_sparse_graph(rng.randint(150, 300), rng.uniform(0.5, 0.75), seed)
        assert not cheap_rows(g.n, sum(g.degrees))
        reference = nx.Graph(list(g.edges()))
        reference.add_nodes_from(range(g.n))
        for k in range(2, 6):
            kept = truss(random_labels(g, 1, seed), k)
            edged = nx.k_truss(nx.k_core(reference, k), k + 1)
            assert kept == {v for v, d in edged.degree if d}
            shrank += kept < core(random_labels(g, 1, seed), k)
    assert shrank > 100


def test_truss_holds_one_set_of_neighbours_at_a_time():
    # Criterion 8's graph at k = 2: a set of neighbours for each of its
    # thousands of vertices of degree 2 or more peaked at 2.80 MB; lists,
    # and one set at a time in the triangle sweep, peak at 1.29 MB.
    lg = random_labels(collaboration_scale_graph(), 4, seed=0)
    kept, _, peak = traced(lambda: truss(lg, 2))
    assert kept >= set(range(8))
    assert peak < 1_800_000


def test_peel_and_truss_cost_a_hub_its_degree():
    # A hub joined to both ends of 20,000 leaf pairs (a windmill of
    # triangles) and to 20,000 spokes, each with a pendant leaf of its own,
    # ordered so that the spokes leave the hub's row from its end.  At
    # k = 2 the spokes go, and every triangle edge has the hub at one end:
    # testing it from the leaf's side against the hub's whole row, or
    # deleting each spoke from that row, costs the hub's degree squared
    # (17 s for both), where counting the peel down and testing each edge
    # from its longer row take about 0.2 s.
    pairs, spokes = 20_000, 20_000
    hub, first_spoke = 2 * pairs, 2 * pairs + 1
    n = first_spoke + 2 * spokes
    edges = [(u, hub) for u in range(2 * pairs)]
    edges += [(2 * i, 2 * i + 1) for i in range(pairs)]
    edges += [(v, hub) for v in range(first_spoke, first_spoke + spokes)]
    edges += [(first_spoke + i, n - 1 - i) for i in range(spokes)]
    lg = random_labels(build_graph(n, sorted((min(e), max(e)) for e in edges)), 3, seed=0)
    start = time.perf_counter()
    kept = truss(lg, 2)
    assert time.perf_counter() - start < 2.0
    assert kept == set(range(hub + 1))


def test_peel_with_cheap_rows_runs_no_triangle_step(monkeypatch):
    # K12 plus a vertex joined to two of its vertices: the greedy finds the
    # 12-clique and the 11-core drops the extra vertex, with no triangle
    # counted.
    def refuse(*_):
        raise AssertionError("a graph with cheap rows should keep its plain core")

    g = build_graph(13, [*combinations(range(12), 2), (0, 12), (1, 12)])
    assert cheap_rows(g.n, sum(g.degrees))
    monkeypatch.setattr(graph_mod, "truss", refuse)
    assert reduce_to_core(random_labels(g, 1, 0), 1) == set(range(12))


def test_greedy_clique_size_is_feasible_lower_bound():
    for seed in range(8):
        lg = random_instance(12, 0.6, 4, seed=seed)
        for budget in range(1, 5):
            size = greedy_clique_size(lg, budget)
            assert 2 <= size <= solve(lg, budget).size


def greedy_on_rows(lg, budget):
    """``greedy_clique_size`` as it ran on adjacency rows before it read the
    label maps: the reference for its choices and tie-breaks."""
    g, label = lg.graph, lg.edge_label_map()
    rows = bitset_rows(g)
    degree = g.degrees.__getitem__
    best = min(g.n, 1)
    for v in sorted(range(g.n), key=degree, reverse=True)[:32]:
        clique, labels, cands = [v], 0, rows[v]
        while cands:
            for w in sorted(iter_bits(cands), key=degree, reverse=True):
                grown = labels
                for u in clique:
                    grown |= 1 << label[min(u, w), max(u, w)]
                if grown.bit_count() <= budget:
                    break
                cands ^= 1 << w
            else:
                break
            clique.append(w)
            labels = grown
            cands &= rows[w]
        best = max(best, len(clique))
    return best


def test_greedy_clique_size_keeps_the_row_greedy_tie_breaks():
    # A set's iteration order is not ascending, so a greedy that took the
    # candidates of equal degree in set order would pick other vertices.
    for seed in range(60):
        lg = random_instance(12 + seed % 25, 0.2 + 0.1 * (seed % 3), 2 + seed % 4, seed)
        for budget in range(1, lg.num_labels + 1):
            assert greedy_clique_size(lg, budget) == greedy_on_rows(lg, budget)


def test_greedy_clique_size_labels_only_its_starts_and_their_neighbours():
    # On graphs whose 32 starts and their neighbours leave vertices out, the
    # greedy labels only the edges among those, yet reads every common
    # neighbour a start's clique can grow by.
    for seed in range(12):
        g = random_graph(300, 0.02, seed)
        for num_labels in (2, 5):
            for budget in range(1, num_labels + 1):
                lg = random_labels(g, num_labels, seed)
                size = greedy_clique_size(lg, budget)
                assert size == greedy_on_rows(lg, budget)


def test_clique_cost_fig1(fig1):
    labels, cost = clique_cost(fig1, [3, 4, 5, 6])  # {4,5,6,7}
    assert cost == 2
    assert label_indices(labels) == [1, 2]
    labels, cost = clique_cost(fig1, [0, 1, 2, 3, 4])  # {1,2,3,4,5}
    assert cost == 4
    assert label_indices(labels) == [0, 1, 2, 3]


def test_clique_cost_singleton_and_empty(fig1):
    assert clique_cost(fig1, [2]) == (0, 0)
    assert clique_cost(fig1, []) == (0, 0)


def test_clique_cost_rejects_non_clique(fig1):
    with pytest.raises(GraphError, match="not adjacent"):
        clique_cost(fig1, [0, 5])  # vertices 1 and 6


def test_clique_cost_order_invariant(fig1):
    assert clique_cost(fig1, [6, 4, 3, 5]) == clique_cost(fig1, [3, 4, 5, 6])


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert label_indices(0b110) == [1, 2]
