import sys

import networkx as nx
import pytest

from labelled_clique import (
    Incumbent,
    build_graph,
    build_labelled,
    clique_cost,
    is_better,
    oracle_solve,
    permute_by_degree,
    random_labels,
    solve,
    solve_parallel,
)
from labelled_clique.sequential import WithinLabels, _expand

from conftest import random_instance


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def unlabelled_max_clique(g):
    nxg = to_networkx(g)
    return max((len(c) for c in nx.find_cliques(nxg)), default=0)


def two_triangles():
    """Disjoint triangles: one cheap (single label), one using three labels.

    With the stable degree order the expensive triangle is branched first,
    so the size pass settles on cost 3 and only the cost pass can find the
    equally sized cost-1 triangle.
    """
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    labels = {(0, 1): 0, (1, 2): 0, (0, 2): 0, (3, 4): 1, (4, 5): 0, (3, 5): 2}
    return build_labelled(g, 4, labels)


def test_is_better_examples():
    assert is_better((4, 2), (4, 3))
    assert is_better((5, 4), (4, 2))
    assert not is_better((4, 2), (4, 2))
    assert not is_better((4, 3), (4, 2))
    assert not is_better((3, 0), (4, 2))


def test_expand_fig1_first_pass(fig1):
    permuted, _ = permute_by_degree(fig1)
    adjacency, label_bits = permuted.graph.adjacency, permuted.label_bits
    within = WithinLabels(label_bits)
    inc = Incumbent()
    nodes1, nodes2 = [0], [0]
    _expand(True, [], (1 << 7) - 1, 0, inc, adjacency, label_bits, within, 3, nodes1, [], 0)
    # The size pass settles on a maximum feasible clique; with this branch
    # order that is {1,2,3,5} at cost 3 (hand-traced), and the cost pass is
    # what brings the cost down to 2.
    assert inc.size == 4
    assert inc.cost == 3
    assert nodes1[0] > 0
    assert nodes2[0] == 0
    _expand(False, [], (1 << 7) - 1, 0, inc, adjacency, label_bits, within, 3, nodes2, [], 0)
    assert (inc.size, inc.cost) == (4, 2)


def test_expand_second_pass_admits_equal_sizes():
    # Pass 1 prunes branches that can only tie the incumbent size; pass 2
    # explores them and finds the cheaper triangle.
    permuted, _ = permute_by_degree(two_triangles())
    adjacency, label_bits = permuted.graph.adjacency, permuted.label_bits
    within = WithinLabels(label_bits)
    inc = Incumbent()
    nodes2 = [0]
    every = (1 << 6) - 1
    _expand(True, [], every, 0, inc, adjacency, label_bits, within, 3, [0], [], 0)
    assert (inc.size, inc.cost) == (3, 3)
    _expand(False, [], every, 0, inc, adjacency, label_bits, within, 3, nodes2, [], 0)
    assert (inc.size, inc.cost) == (3, 1)
    assert nodes2[0] > 0


def test_solve_two_triangles_end_to_end():
    solution = solve(two_triangles(), 3)
    assert (solution.size, solution.cost) == (3, 1)
    assert solution.clique == [0, 1, 2]
    assert solution.stats.nodes_pass2 > 0


def test_solve_fig1_budgets(fig1):
    s3 = solve(fig1, 3)
    assert (s3.size, s3.cost) == (4, 2)
    labels, cost = clique_cost(fig1, s3.clique)
    assert cost == s3.cost <= 3 and labels == s3.labels
    assert (solve(fig1, 4).size, solve(fig1, 4).cost) == (5, 4)
    assert (solve(fig1, 2).size, solve(fig1, 2).cost) == (4, 2)


def test_solve_empty_graph():
    lg = build_labelled(build_graph(0, []), 1, {})
    solution = solve(lg, 5)
    assert (solution.size, solution.cost) == (0, 0)
    assert solution.clique == []


def test_solve_rejects_bad_budget(fig1):
    with pytest.raises(ValueError):
        solve(fig1, 0)
    with pytest.raises(ValueError):
        solve(fig1, -2)


def test_singleton_result_on_edgeless_graph():
    g = build_graph(5, [])
    lg = build_labelled(g, 2, {})
    solution = solve(lg, 1)
    assert (solution.size, solution.cost) == (1, 0)
    assert len(solution.clique) == 1


def test_witness_always_valid_and_feasible():
    for seed in range(6):
        lg = random_instance(13, 0.5, 4, seed=seed)
        for budget in (1, 2, 4):
            solution = solve(lg, budget)
            labels, cost = clique_cost(lg, solution.clique)
            assert len(solution.clique) == solution.size
            assert labels == solution.labels
            assert cost == solution.cost <= budget


def test_matches_oracle():
    for seed in range(12):
        lg = random_instance(10, 0.55, 3, seed=100 + seed)
        for budget in (1, 2, 3):
            solution = solve(lg, budget)
            size, cost, _ = oracle_solve(lg, budget)
            assert (solution.size, solution.cost) == (size, cost)


def test_budget_monotone_size():
    for seed in range(4):
        lg = random_instance(11, 0.6, 4, seed=200 + seed)
        sizes = [solve(lg, b).size for b in range(1, 6)]
        assert all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1))


def test_unlabelled_ceiling_and_equality_at_full_budget():
    for seed in range(4):
        lg = random_instance(11, 0.5, 3, seed=300 + seed)
        ceiling = unlabelled_max_clique(lg.graph)
        for budget in (1, 2, 3):
            assert solve(lg, budget).size <= ceiling
        full = solve(lg, lg.num_labels)
        assert full.size == ceiling
        # at full budget the cost is the cheapest over all maximum cliques
        nxg = to_networkx(lg.graph)
        best_cost = min(
            clique_cost(lg, c)[1]
            for c in nx.enumerate_all_cliques(nxg)
            if len(c) == ceiling
        )
        assert full.cost == best_cost


def test_label_bijection_invariance():
    lg = random_instance(11, 0.5, 4, seed=400)
    relabel = {0: 2, 1: 3, 2: 1, 3: 0}
    remapped = {
        pair: relabel[label] for pair, label in lg.edge_label_map().items()
    }
    lg2 = build_labelled(lg.graph, 4, remapped)
    for budget in (1, 2, 3, 4):
        a = solve(lg, budget)
        b = solve(lg2, budget)
        assert (a.size, a.cost) == (b.size, b.cost)


def test_deterministic_node_counts():
    lg = random_instance(12, 0.5, 3, seed=500)
    runs = [solve(lg, 2) for _ in range(3)]
    assert len({(r.stats.nodes_pass1, r.stats.nodes_pass2) for r in runs}) == 1
    assert len({tuple(r.clique) for r in runs}) == 1


def test_fig1_node_counts_frozen(fig1):
    # The stable degree sort and lowest-bit colouring fully determine the
    # branch order, so these counts cannot move unless the search changes.
    # Candidates that would add a label at the limit are not coloured, so
    # both passes search fewer nodes than the paper's unfiltered 5 and 11.
    solution = solve(fig1, 3)
    assert solution.stats.nodes_pass1 == 4
    assert solution.stats.nodes_pass2 == 8


def test_keller4_budget_one_node_count_frozen(keller4):
    # With budget 1 a single edge already reaches the limit, so every node
    # below depth 1 is filtered: 11,415 size-pass nodes without the filter.
    solution = solve(random_labels(keller4, 4, seed=0), 1)
    assert (solution.size, solution.cost) == (5, 1)
    assert solution.stats.nodes_pass1 == 4571
    assert solution.stats.nodes_pass2 == 0


def test_pass_two_never_grows_and_never_costs_more():
    for seed in range(6):
        lg = random_instance(12, 0.55, 4, seed=600 + seed)
        permuted, _ = permute_by_degree(lg)
        adjacency, label_bits = permuted.graph.adjacency, permuted.label_bits
        within = WithinLabels(label_bits)
        every = (1 << 12) - 1
        inc = Incumbent()
        _expand(True, [], every, 0, inc, adjacency, label_bits, within, 2, [0], [], 0)
        pass1 = (inc.size, inc.cost)
        _expand(False, [], every, 0, inc, adjacency, label_bits, within, 2, [0], [], 0)
        assert inc.size == pass1[0]
        assert inc.cost <= pass1[1]


@pytest.fixture
def recursion_limit():
    """Start from the interpreter's default limit and restore the old one."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


def test_sparse_solve_leaves_recursion_limit_alone(recursion_limit):
    # Search depth is bounded by the maximum degree, not by n, so a sparse
    # 7,000-vertex graph (a path plus a planted 8-clique) needs no more
    # than the default limit, and neither solver may raise it.
    n = 7000
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += [(u, v) for u in range(8) for v in range(u + 2, 8)]
    lg = random_labels(build_graph(n, edges), 3, seed=1)
    for run in (solve, lambda lg, b: solve_parallel(lg, b, workers=2)):
        solution = run(lg, 3)
        assert (solution.size, solution.cost) == (8, 3)
        assert sys.getrecursionlimit() == 1000


def test_recursion_limit_covers_max_degree(recursion_limit):
    star = build_graph(1500, [(0, v) for v in range(1, 1500)])
    solution = solve(random_labels(star, 2, seed=3), 1)
    assert solution.size == 2
    assert sys.getrecursionlimit() >= 1499 + 2
