"""Boundary shapes: complete graphs, label extremes, tiny and disconnected inputs."""

import pytest

from labelled_clique import (
    build_graph,
    build_labelled,
    clique_cost,
    oracle_solve,
    random_labels,
    solve,
    solve_parallel,
)

from conftest import random_instance


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_complete_graph_label_budgets():
    # On complete graphs the clique part is trivial and everything rides on
    # the label filtering.
    g = complete_graph(8)
    lg = random_labels(g, 6, seed=13)
    for budget in range(1, 7):
        got = solve(lg, budget)
        size, cost, _ = oracle_solve(lg, budget)
        assert (got.size, got.cost) == (size, cost)
        par = solve_parallel(lg, budget, workers=4)
        assert (par.size, par.cost) == (size, cost)


def test_complete_graph_single_label():
    g = complete_graph(9)
    lg = build_labelled(g, 1, dict.fromkeys(g.edges(), 0))
    solution = solve(lg, 1)
    assert (solution.size, solution.cost) == (9, 1)


def test_budget_above_label_count_is_unconstrained():
    lg = random_instance(12, 0.6, 3, seed=88)
    at_full = solve(lg, 3)
    beyond = solve(lg, 10)
    assert (beyond.size, beyond.cost) == (at_full.size, at_full.cost)


def test_sixty_four_labels_boundary():
    g = complete_graph(12)
    lg = random_labels(g, 64, seed=3)
    solution = solve(lg, 64)
    assert solution.size == 12
    assert solution.cost == solution.labels.bit_count() <= 64
    tight = solve(lg, 2)
    size, cost, _ = oracle_solve(lg, 2)
    assert (tight.size, tight.cost) == (size, cost)


def test_sixty_four_labels_keep_the_papers_search():
    # C(64, 2) = 2,016 subsets dwarf the complete graph's degree of 11.  At
    # budget 64 the size pass has one subset, all labels (a plain clique
    # search), and the cost pass would need sum C(64, c) below the cost.
    lg = random_labels(complete_graph(12), 64, seed=3)
    tight = solve(lg, 2)
    assert (tight.stats.subsets_pass1, tight.stats.subsets_pass2) == (0, 0)
    loose = solve(lg, 64)
    assert (loose.stats.subsets_pass1, loose.stats.subsets_pass2) == (1, 0)
    assert loose.stats.nodes_pass2 > 0


def test_disconnected_components():
    # a triangle, an edge, and two isolated vertices
    g = build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4)])
    lg = build_labelled(g, 3, {(0, 1): 0, (1, 2): 1, (0, 2): 2, (3, 4): 0})
    assert (solve(lg, 3).size, solve(lg, 3).cost) == (3, 3)
    # budget 2 cannot afford the triangle; the edge costs 1
    assert (solve(lg, 2).size, solve(lg, 2).cost) == (2, 1)
    assert (solve(lg, 1).size, solve(lg, 1).cost) == (2, 1)


def test_single_vertex_graph():
    lg = build_labelled(build_graph(1, []), 1, {})
    for solver in (solve, lambda g, b: solve_parallel(g, b, workers=3)):
        solution = solver(lg, 1)
        assert (solution.size, solution.cost) == (1, 0)
        assert solution.clique == [0]


def test_two_vertices_many_workers():
    lg = build_labelled(build_graph(2, [(0, 1)]), 2, {(0, 1): 1})
    solution = solve_parallel(lg, 1, workers=8)
    assert (solution.size, solution.cost) == (2, 1)
    assert solution.clique == [0, 1]


def test_star_graph_has_no_triangle():
    g = build_graph(6, [(0, v) for v in range(1, 6)])
    lg = random_labels(g, 4, seed=5)
    solution = solve(lg, 4)
    assert solution.size == 2
    labels, cost = clique_cost(lg, solution.clique)
    assert cost == solution.cost == 1


@pytest.mark.parametrize("density", [0.1, 0.9])
def test_density_extremes_match_oracle(density):
    for seed in range(3):
        lg = random_instance(10, density, 3, seed=7000 + seed)
        for budget in (1, 2, 3):
            got = solve(lg, budget)
            size, cost, _ = oracle_solve(lg, budget)
            assert (got.size, got.cost) == (size, cost)
