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
from labelled_clique.graph import core, greedy_clique_size, iter_bits

from conftest import random_graph, random_instance


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
    for v in range(g.n):
        assert not g.adjacent(v, v)
        for w in range(g.n):
            assert g.adjacent(v, w) == g.adjacent(w, v)
        assert g.degrees[v] == g.adjacency[v].bit_count()


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


def test_permute_fig1_order(fig1):
    permuted, perm = permute_by_degree(fig1)
    assert [v + 1 for v in perm.forward] == [4, 5, 1, 2, 3, 6, 7]
    assert permuted.graph.degrees == [6, 6, 4, 4, 4, 3, 3]


def test_permute_identity_when_sorted():
    g = build_graph(3, [(0, 1), (0, 2)])  # degrees 2,1,1 already non-increasing
    lg = build_labelled(g, 1, {(0, 1): 0, (0, 2): 0})
    _, perm = permute_by_degree(lg)
    assert perm.forward == (0, 1, 2)
    assert perm.inverse == (0, 1, 2)


def test_permute_all_ties_is_identity():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 4-cycle, all degree 2
    lg = build_labelled(g, 1, dict.fromkeys(g.edges(), 0))
    _, perm = permute_by_degree(lg)
    assert perm.forward == (0, 1, 2, 3)


def test_permute_properties():
    for seed in range(5):
        lg = random_instance(12, 0.4, 3, seed=seed)
        permuted, perm = permute_by_degree(lg)
        degs = permuted.graph.degrees
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))
        for v in range(lg.graph.n):
            assert perm.inverse[perm.forward[v]] == v
            assert perm.forward[perm.inverse[v]] == v
        # labels carried through the renumbering
        for u, v in lg.graph.edges():
            pu, pv = perm.inverse[u], perm.inverse[v]
            assert permuted.label_of(pu, pv) == lg.label_of(u, v)


def test_permute_kept_vertices_builds_induced_subgraph():
    for seed in range(5):
        lg = random_instance(12, 0.4, 3, seed=seed)
        kept = set(iter_bits(0b101101110101 >> seed))
        permuted, perm = permute_by_degree(lg, kept)
        assert sorted(perm.forward) == sorted(kept)
        assert [perm.inverse[v] is None for v in range(12)] == [v not in kept for v in range(12)]
        degs = permuted.graph.degrees
        assert degs == [row.bit_count() for row in permuted.graph.adjacency]
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))
        induced = [(u, v) for u, v in lg.graph.edges() if u in kept and v in kept]
        assert permuted.graph.edge_count() == len(induced)
        for u, v in induced:
            pu, pv = perm.inverse[u], perm.inverse[v]
            assert permuted.label_of(pu, pv) == lg.label_of(u, v)


def test_core_matches_networkx_and_is_stable():
    for seed in range(6):
        g = random_graph(40, 0.05 + 0.05 * seed, seed)
        reference = nx.Graph(list(g.edges()))
        reference.add_nodes_from(range(g.n))
        for k in range(8):
            alive = core(random_labels(g, 1, seed), k)
            assert alive == set(nx.k_core(reference, k))
            mask = sum(1 << v for v in alive)
            for v in alive:
                assert (g.adjacency[v] & mask).bit_count() >= k
            # Peeling the core's own subgraph again removes nothing.
            again = build_graph(g.n, [(u, v) for u, v in g.edges() if u in alive and v in alive])
            assert core(random_labels(again, 1, seed), k) == alive


def test_greedy_clique_size_is_feasible_lower_bound():
    for seed in range(8):
        lg = random_instance(12, 0.6, 4, seed=seed)
        for budget in range(1, 5):
            size = greedy_clique_size(lg, budget)
            assert 2 <= size <= solve(lg, budget).size


def greedy_on_rows(lg, budget):
    """``greedy_clique_size`` as it ran on adjacency rows before it read the
    label maps: the reference for its choices and tie-breaks."""
    g = lg.graph
    degree = g.degrees.__getitem__
    best = min(g.n, 1)
    for v in sorted(range(g.n), key=degree, reverse=True)[:32]:
        clique, labels, cands = [v], 0, g.adjacency[v]
        while cands:
            for w in sorted(iter_bits(cands), key=degree, reverse=True):
                grown = labels
                for u in clique:
                    grown |= lg.label_bits[w][u]
                if grown.bit_count() <= budget:
                    break
                cands ^= 1 << w
            else:
                break
            clique.append(w)
            labels = grown
            cands &= g.adjacency[w]
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
                assert lg._bits is None
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
