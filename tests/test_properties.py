"""Property-based differential tests: both solvers against the oracle.

Every budget of every drawn instance must give the oracle's (size, cost),
and every witness must re-check as a feasible clique of that size and cost.
Examples are derandomised so the suite stays deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from labelled_clique import (
    Incumbent,
    build_graph,
    build_labelled,
    clique_cost,
    oracle_solve,
    permute_by_degree,
    solve,
    solve_parallel,
)
from labelled_clique.sequential import WithinLabels, _expand

from conftest import random_instance


@st.composite
def labelled_graphs(draw, max_n=12, max_labels=5):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, keep in zip(pairs, present) if keep]
    num_labels = draw(st.integers(1, max_labels))
    labels = draw(
        st.lists(st.integers(0, num_labels - 1), min_size=len(edges), max_size=len(edges))
    )
    return build_labelled(build_graph(n, edges), num_labels, dict(zip(edges, labels)))


def assert_solvers_agree(lg, budget):
    size, cost, _ = oracle_solve(lg, budget)
    for solution in (solve(lg, budget), solve_parallel(lg, budget, workers=2)):
        assert (solution.size, solution.cost) == (size, cost)
        assert len(set(solution.clique)) == solution.size
        assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)
        assert solution.cost <= budget


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(labelled_graphs())
def test_solvers_match_oracle_at_every_budget(lg):
    for budget in range(1, lg.num_labels + 1):
        assert_solvers_agree(lg, budget)


class _RecordingIncumbent(Incumbent):
    __slots__ = ("improvements",)

    def __init__(self):
        super().__init__()
        self.improvements = []

    def replace(self, clique, labels, size, cost):
        self.improvements.append(list(clique))
        super().replace(clique, labels, size, cost)


def pass_two_drops_below_parent(lg, budget):
    """True when a pass-2 improvement costs no more than the node it was
    found under, so the new limit (its cost - 1) falls below that node's
    cost while the node still has branches to try."""
    permuted, _ = permute_by_degree(lg)
    adjacency, label_bits = permuted.graph.adjacency, permuted.label_bits
    within = WithinLabels(label_bits)
    every = (1 << permuted.graph.n) - 1
    inc = _RecordingIncumbent()
    _expand(True, [], every, 0, inc, adjacency, label_bits, within, budget, [0], [], 0)
    inc.improvements.clear()
    if inc.cost > 1:
        _expand(False, [], every, 0, inc, adjacency, label_bits, within, budget, [0], [], 0)
    return any(
        len(clique) >= 3
        and clique_cost(permuted, clique[:-1])[1] == clique_cost(permuted, clique)[1]
        for clique in inc.improvements
    )


def test_solvers_agree_when_pass_two_lowers_limit_mid_subtree():
    cases = [(12, 0.6, 4, 0, 3), (12, 0.6, 4, 1, 2), (11, 0.7, 5, 6, 5), (12, 0.5, 3, 6, 2)]
    for n, density, num_labels, seed, budget in cases:
        lg = random_instance(n, density, num_labels, seed)
        assert pass_two_drops_below_parent(lg, budget)
        assert_solvers_agree(lg, budget)
