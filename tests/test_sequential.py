import sys
from itertools import combinations

import networkx as nx
import pytest

from labelled_clique import (
    ColourResult,
    Incumbent,
    InstanceSpec,
    Permutation,
    SearchStats,
    Solution,
    Subproblem,
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
import labelled_clique.graph as graph_mod
import labelled_clique.sequential as seq_mod
from labelled_clique.graph import LabelledGraph
from labelled_clique.sequential import _NODES, _root_branches, _run_in_order, _within

from conftest import (RecordingIncumbent, expand_root, paper_search, paper_solve, paper_state,
                      random_graph, random_instance)


def test_records_keep_their_fields_defaults_and_equality():
    assert SearchStats(1, 2, 0.5, 2, 7, 3, 4, [5, 6]) == SearchStats(
        nodes_pass1=1, nodes_pass2=2, elapsed=0.5, workers=2, vertices_searched=7,
        subsets_pass1=3, subsets_pass2=4, worker_nodes=[5, 6])
    assert SearchStats() == SearchStats(0, 0, 0.0, 1, 0, 0, 0, [])
    assert Solution([1], 1, 0, 0) == Solution([1], 1, 0, 0, SearchStats())
    assert Solution([1], 1, 0, 0) != Solution([2], 1, 0, 0)
    assert Permutation((1, 0)).to_original([0]) == [1]
    assert Subproblem((3,), 6, 2).cands == 6
    assert ColourResult([0], [1]) == ColourResult(order=[0], bounds=[1])
    spec = InstanceSpec("g.clq", num_labels=4, budget=2)
    assert spec == InstanceSpec("g.clq", 4, 0, None, 2) != InstanceSpec("g.clq", 4, 1, None, 2)
    assert repr(spec) == ("InstanceSpec(graph_path='g.clq', num_labels=4, seed=0, "
                          "label_file=None, budget=2, budget_pct=None)")


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
    by_label, _ = permute_by_degree(fig1)
    inc = RecordingIncumbent()
    search = paper_search(by_label, True, inc, 3)
    expand_root(search, (1 << 7) - 1)
    # The one pass first reaches a maximum feasible clique, with this branch
    # order {1,2,3,5} at cost 3 (hand-traced), and then brings the cost down
    # to 2 in a branch that can only tie its size.
    assert [(size, cost) for _, size, cost in inc.improvements][-2:] == [(4, 3), (4, 2)]
    assert search[_NODES][0] > 0
    # It is complete: a cost pass from its incumbent finds nothing cheaper.
    found = len(inc.improvements)
    expand_root(paper_search(by_label, False, inc, 3), (1 << 7) - 1)
    assert (inc.size, inc.cost, len(inc.improvements)) == (4, 2, found)


def test_expand_second_pass_admits_equal_sizes():
    # The pass explores the branches that can only tie the incumbent's
    # size, at one label below its cost: after the dearer triangle it finds
    # the cheaper one.
    by_label, _ = permute_by_degree(two_triangles())
    inc = RecordingIncumbent()
    search = paper_search(by_label, True, inc, 3)
    expand_root(search, (1 << 6) - 1)
    assert [(size, cost) for _, size, cost in inc.improvements][-2:] == [(3, 3), (3, 1)]
    assert search[_NODES][0] > 0


def test_expand_reports_a_node_its_bound_cuts_off():
    # Two disjoint triangles need three colours.  Against a size-4
    # incumbent, every root branch's bound is at most 3, below its size, so
    # the first one is dead and the pass enters no node.
    by_label, _ = permute_by_degree(two_triangles())
    inc = Incumbent([2, 3, 4, 5], 0b111)
    state = paper_state(by_label, True, 3)
    assert _run_in_order(_root_branches(state[1]), state, inc) == (0, [], [])
    assert (inc.size, inc.cost, inc.clique) == (4, 3, [2, 3, 4, 5])
    # A root branch that its bound does not cut off is searched.
    lone, _ = permute_by_degree(build_labelled(build_graph(1, []), 1, {}))
    state, inc = paper_state(lone, True, 1), Incumbent()
    assert _run_in_order(_root_branches(state[1]), state, inc) == (0, [], [])
    assert (inc.size, inc.clique) == (1, [0])


def test_at_limit_filter_keeps_the_neighbours_the_labels_join():
    # The filter of (v, grown), in the search's top-down ids, holds exactly
    # the neighbours w of v whose edge {v, w} has its label in grown, found
    # by brute force on the unpermuted graph through the permutation, of a
    # whole graph and of a kept subset.  Several vertices keep the
    # candidates every one of them keeps.
    for seed in range(6):
        lg = random_instance(14, 0.5, 4, seed=700 + seed)
        for kept in (None, set(range(3, 14))):
            by_label, perm = permute_by_degree(lg, kept)
            top = len(perm.forward) - 1
            for grown in range(1 << 4):
                masks = []
                for v in range(top + 1):
                    old = perm.forward[top - v]
                    masks.append(_within(by_label, grown, [v]))
                    assert masks[-1] == sum(
                        1 << (top - perm.forward.index(w)) for w in perm.forward
                        if lg.graph.adjacent(old, w) and grown >> lg.label_of(old, w) & 1)
                assert _within(by_label, grown, [0, 1, 2]) == masks[0] & masks[1] & masks[2]


def test_solve_two_triangles_end_to_end():
    solution = solve(two_triangles(), 3)
    assert (solution.size, solution.cost) == (3, 1)
    assert solution.clique == [0, 1, 2]
    # One pass of the paper's search finds the cheaper triangle; no cost
    # pass follows it.
    stats = solution.stats
    assert (stats.subsets_pass1, stats.nodes_pass2) == (0, 0) and stats.nodes_pass1 > 0


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
    # fig1's average degree (30/7) admits C(4, 3) = 4 label subsets, so pass
    # 1 searches four subgraphs (a root node each), and pass 2 the four
    # single labels, none of which holds a 4-clique.  The paper's search
    # with the at-limit filter took 4 and 8 nodes (5 and 11 unfiltered).
    solution = solve(fig1, 3)
    assert (solution.stats.subsets_pass1, solution.stats.subsets_pass2) == (4, 4)
    assert solution.stats.nodes_pass1 == 7
    assert solution.stats.nodes_pass2 == 4


def test_keller4_budget_one_node_count_frozen(keller4):
    # With budget 1 the size pass is four plain clique searches, one per
    # single-label subgraph.  The paper's search took 4,571 nodes with the
    # at-limit filter and 11,415 without it.
    solution = solve(random_labels(keller4, 4, seed=0), 1)
    assert (solution.size, solution.cost) == (5, 1)
    assert solution.stats.subsets_pass1 == 4
    assert solution.stats.nodes_pass1 == 398
    assert solution.stats.nodes_pass2 == 0


def test_paper_search_at_the_cost_limit_frozen():
    # Sixteen labels leave every budget here to the paper's search, in one
    # pass, and its at-limit filter runs, below which no branch adds a
    # label.  Each node below such a branch still runs the label union and
    # ANDs its filter over the whole clique, so these pins hold the search
    # to one tree and witness.
    lg = random_instance(30, 0.7, 16, seed=0)
    pins = {
        3: (4, 2, [0, 10, 11, 25], 277, 0),
        5: (5, 4, [6, 13, 18, 22, 25], 702, 0),
        6: (6, 6, [6, 13, 18, 21, 22, 25], 795, 0),
        7: (6, 6, [6, 13, 18, 21, 22, 25], 909, 0),
        8: (7, 8, [4, 7, 8, 11, 15, 20, 25], 793, 0),
    }
    for budget, pin in pins.items():
        solution = solve(lg, budget)
        stats = solution.stats
        assert (stats.subsets_pass1, stats.subsets_pass2) == (0, 0)
        assert (solution.size, solution.cost, solution.clique,
                stats.nodes_pass1, stats.nodes_pass2) == pin


def test_paper_search_at_the_proven_size_frozen():
    # K = 8, b = 6 on 49 vertices: pass 1 searches the C(8, 6) = 28 label
    # subsets, but pass 2's level of C(8, 5) = 56 exceeds the average
    # degree, so it runs the paper's search at the size pass 1 proved.
    # Each of its branches can only tie that size, so each filters against
    # one label below the incumbent's cost, never against the budget.
    lg = random_labels(random_graph(49, 0.8, 20004), 8, 4)
    solution = solve(lg, 6)
    stats = solution.stats
    assert (solution.size, solution.cost) == (11, 6)
    assert (stats.subsets_pass1, stats.subsets_pass2) == (28, 0)
    assert (stats.nodes_pass1, stats.nodes_pass2) == (336, 6176)


def test_subset_rule_needs_rows_no_wider_than_the_average_degree():
    # A circulant graph (v joined to v +- 1 and v +- 2) is 4-regular and
    # the peel keeps all of it.  Its C(2, 1) = 2 subsets never exceed the
    # degree, so only the row width n/64 decides: 256 vertices fit in four
    # words, 257 do not.
    for n, subsets in ((256, 2), (257, 0)):
        edges = [(v, (v + step) % n) for v in range(n) for step in (1, 2)]
        solution = solve(random_labels(build_graph(n, edges), 2, seed=n), 1)
        assert solution.stats.vertices_searched == n
        assert (solution.size, solution.cost) == (3, 1)
        assert solution.stats.subsets_pass1 == subsets


def test_pass_two_never_grows_and_never_costs_more():
    for seed in range(6):
        lg = random_instance(12, 0.55, 4, seed=600 + seed)
        by_label, _ = permute_by_degree(lg)
        every = (1 << 12) - 1
        inc = Incumbent()
        expand_root(paper_search(by_label, True, inc, 2), every)
        pass1 = (inc.size, inc.cost)
        expand_root(paper_search(by_label, False, inc, 2), every)
        assert inc.size == pass1[0]
        assert inc.cost <= pass1[1]


def staircase() -> LabelledGraph:
    """Three disjoint 8-cliques over 4 labels, whose edges use the labels
    {0, 1, 2}, {2, 3} and {0, 1, 2, 3}, each label of a set in turn.

    Pass 1 (budget 4, one subset) settles on the cost-4 clique, which its
    branch order reaches first.  Pass 2's level of 3-label subsets finds
    the cost-3 clique in T = {0, 1, 2}, which holds no other; the level of
    2-label subsets finds the cost-2 one; the single labels hold none.
    """
    edges, labels = [], {}
    for block, label_set in enumerate(((0, 1, 2), (2, 3), (0, 1, 2, 3))):
        for j, edge in enumerate(combinations(range(8 * block, 8 * block + 8), 2)):
            edges.append(edge)
            labels[edge] = label_set[j % len(label_set)]
    return build_labelled(build_graph(24, edges), 4, labels)


def test_pass_two_descends_level_by_level(monkeypatch):
    lg = staircase()
    levels = []
    pass_subsets = seq_mod._pass_subsets

    def recording(shape, first_pass, budget, cost, dead):
        units = pass_subsets(shape, first_pass, budget, cost, dead)
        levels.append((first_pass, cost, len(units)))
        return units

    monkeypatch.setattr(seq_mod, "_pass_subsets", recording)
    solution = solve(lg, 4)
    assert (solution.size, solution.cost) == oracle_solve(lg, 4)[:2] == (8, 2)
    assert levels == [(True, 0, 1), (False, 4, 4), (False, 3, 6), (False, 2, 0)]
    # 1 subset until the first cost-3 fill, all 6 of the next level; every
    # single label lies in a pair the level before refuted.
    assert solution.stats.subsets_pass2 == 1 + 6
    parallel = solve_parallel(lg, 4, workers=2)
    assert (parallel.size, parallel.cost) == (8, 2)
    assert clique_cost(lg, parallel.clique) == (parallel.labels, 2)


def test_a_level_lists_only_subsets_inside_no_dead_mask(fig1):
    # fig1 has 4 labels and admits its C(4, 3) = C(4, 1) = 4 subsets.  A
    # subset that only overlaps a dead mask may still hold the clique.
    pass_subsets = seq_mod._pass_subsets
    shape = (fig1.num_labels, fig1.graph.n, sum(fig1.graph.degrees))
    assert pass_subsets(shape, False, 3, 4, []) == [0b0111, 0b1011, 0b1101, 0b1110]
    assert pass_subsets(shape, False, 3, 4, [0b0111]) == [0b1011, 0b1101, 0b1110]
    assert pass_subsets(shape, False, 3, 2, [0b0011, 0b0110]) == [0b1000]
    assert pass_subsets(shape, False, 3, 2, [0b1111]) == []
    assert pass_subsets(shape, False, 3, 3, []) is None  # C(4, 2) = 6 > 30/7


def test_keller4_pass_two_skips_the_refuted_subsets(keller4, monkeypatch):
    # K=8, b=6, label seed 0: pass 1's first 7 of 28 six-label subsets end
    # below the size of 10, which pass 1 reaches in the 8th.  Pass 2's
    # level of C(8, 5) = 56 five-label subsets lists only the 25 that lie in
    # none of them; with the dead list ignored it searches all 56 and finds
    # the same solution.
    lg = random_labels(keller4, 8, 0)
    skipping = solve(lg, 6)
    pass_subsets = seq_mod._pass_subsets
    monkeypatch.setattr(seq_mod, "_pass_subsets",
                        lambda shape, first_pass, budget, cost, dead:
                        pass_subsets(shape, first_pass, budget, cost, []))
    every = solve(lg, 6)
    assert (skipping.size, skipping.cost) == (every.size, every.cost) == (10, 6)
    assert (skipping.clique, skipping.labels) == (every.clique, every.labels)
    assert skipping.stats.nodes_pass1 == every.stats.nodes_pass1
    assert (skipping.stats.subsets_pass1, skipping.stats.subsets_pass2) == (28, 25)
    assert (every.stats.subsets_pass1, every.stats.subsets_pass2) == (28, 56)
    assert skipping.stats.nodes_pass2 < every.stats.nodes_pass2


def test_dense_graph_the_colouring_cannot_clear_still_peels(monkeypatch):
    # K12 plus a vertex joined to two, or to ten, of its vertices: rows are
    # cheap and no vertex is isolated, but the colouring needs 12 colours,
    # more than the minimum degree + 1 (3, or 11 at the boundary), so the
    # greedy runs and, with every label in budget, its 12-clique peels the
    # thirteenth vertex.
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    greedy, calls = graph_mod.greedy_clique_size, []
    monkeypatch.setattr(graph_mod, "greedy_clique_size",
                        lambda lg, budget: calls.append(budget) or greedy(lg, budget))
    for joined in (2, 10):
        graph = build_graph(13, edges + [(v, 12) for v in range(joined)])
        for num_labels in (1, 3):
            lg = random_labels(graph, num_labels, seed=5)
            solution = solve(lg, num_labels)
            assert solution.stats.vertices_searched == 12
            assert (solution.size, solution.cost) == (12, oracle_solve(lg, num_labels)[1])
            assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)
    assert calls == [1, 3, 1, 3]
    # K12 alone needs 12 colours, exactly its minimum degree + 1: no greedy.
    assert solve(random_labels(build_graph(12, edges), 3, seed=5), 3).size == 12
    assert calls == [1, 3, 1, 3]


def test_label_subset_search_reads_no_label_bits(monkeypatch):
    # A sub-search needs no label union: G_T's edges carry only T's
    # labels, so no branch can exceed the budget, and the witness takes
    # its labels from T's per-label rows.  The label dicts the union reads
    # are built only for a solve that runs the paper's search, once.
    lg = random_instance(30, 0.7, 4, seed=2026)
    paper = paper_solve(lg, 3)
    label_dicts, built = seq_mod._label_dicts, []
    monkeypatch.setattr(seq_mod, "_label_dicts",
                        lambda by_label: built.append(len(by_label)) or label_dicts(by_label))
    solution = solve(lg, 3)
    assert (solution.size, solution.cost) == (paper.size, paper.cost)
    assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)
    stats = solution.stats
    assert (stats.subsets_pass1, stats.subsets_pass2) == (4, 6)
    assert stats.nodes_pass1 > stats.subsets_pass1 and stats.nodes_pass2 > stats.subsets_pass2
    assert built == []
    lg = random_instance(24, 0.6, 16, seed=2024)
    paper, solution = paper_solve(lg, 3), solve(lg, 3)
    stats = solution.stats
    assert (stats.subsets_pass1, stats.subsets_pass2, stats.nodes_pass2) == (0, 0, 0)
    assert (solution.size, solution.cost) == (paper.size, paper.cost)
    assert built == [16]


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
