"""Property-based tests: both solvers against the oracle, the label-subset
search against the paper's, k_min colourings against whole ones, solves
after the triangle peel against solves of the whole graph, the edge
lookups of a labelled graph against its edge label map, and the parsers
against arbitrary text.

Every budget of every drawn instance must give the oracle's (size, cost),
and every witness must re-check as a feasible clique of that size and cost.
Text fed to the parsers may raise only their own errors, a label file
written for a labelling must parse back to it, and the bulk DIMACS read must
agree with the line parser.  Examples are derandomised so the suite stays
deterministic.
"""

import warnings
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pytest import MonkeyPatch, raises

from labelled_clique import (
    GraphError,
    ParseError,
    build_graph,
    build_labelled,
    clique_cost,
    oracle_solve,
    parse_dimacs,
    parse_labels,
    permute_by_degree,
    random_labels,
    solve,
    solve_parallel,
    write_labels,
)
import labelled_clique.graph as graph_mod
import labelled_clique.graph_io as graph_io
import labelled_clique.sequential as seq_mod
from labelled_clique.graph import MAX_LABELS
from labelled_clique.graph_io import MAX_VERTICES
from labelled_clique.oracle import MAX_ORACLE_VERTICES
from labelled_clique.sequential import _expand

from conftest import (RecordingIncumbent, paper_search, paper_solve, planted_sparse_graph,
                      random_instance)


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


@st.composite
def peelable_graphs(draw, max_n=14, max_labels=5):
    """A planted clique on vertices 0..c-1, pendant paths hanging off it and
    sparse noise edges: low-degree vertices that the core peel can drop."""
    c = draw(st.integers(3, 6))
    n = draw(st.integers(c + 1, max_n))
    edges = {(u, v) for u in range(c) for v in range(u + 1, c)}
    for v in range(c, n):
        # Start a new path at a clique vertex, or extend the last one.
        edges.add((draw(st.integers(0, c - 1)) if draw(st.booleans()) else v - 1, v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    edges = sorted(edges)
    num_labels = draw(st.integers(1, max_labels))
    labels = draw(
        st.lists(st.integers(0, num_labels - 1), min_size=len(edges), max_size=len(edges))
    )
    return build_labelled(build_graph(n, edges), num_labels, dict(zip(edges, labels)))


def assert_solvers_agree(lg, budget):
    """Both solvers give the oracle's (size, cost) with witnesses that
    re-check on ``lg``, and run no pass after a pass 1 of the paper's
    search; returns how many vertices each searched."""
    size, cost, _ = oracle_solve(lg, budget)
    searched = []
    for solution in (solve(lg, budget), solve_parallel(lg, budget, workers=2)):
        assert (solution.size, solution.cost) == (size, cost)
        assert len(set(solution.clique)) == solution.size
        assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)
        assert solution.cost <= budget
        stats = solution.stats
        if stats.subsets_pass1 == 0:
            assert stats.nodes_pass2 == stats.subsets_pass2 == 0
        searched.append(stats.vertices_searched)
    return searched


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(labelled_graphs())
def test_solvers_match_oracle_at_every_budget(lg):
    for budget in range(1, lg.num_labels + 1):
        assert_solvers_agree(lg, budget)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(peelable_graphs())
def test_solvers_match_oracle_on_peeled_graphs(lg):
    peeled = False
    for budget in range(1, lg.num_labels + 1):
        searched = assert_solvers_agree(lg, budget)
        assert searched[0] == searched[1]
        peeled |= searched[0] < lg.graph.n
    # Count only graphs that the peel reduced at some budget.
    assume(peeled)


@st.composite
def sparse_seeded_instances(draw):
    """(graph, label count, label seed) on 40-120 vertices: a planted clique
    on vertices 0..c-1, paths hanging off earlier vertices and sparse noise
    edges.  More vertices than the greedy has starts, so its starts and
    their neighbours, and the core, can leave edges unlabelled."""
    c = draw(st.integers(3, 7))
    n = draw(st.integers(40, 120))
    edges = {(u, v) for u in range(c) for v in range(u + 1, c)}
    for v in range(c, n):
        edges.add((draw(st.integers(0, v - 1)) if draw(st.booleans()) else v - 1, v))
    noise = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 4))
    edges.update((min(u, v), max(u, v)) for u, v in noise if u != v)
    return build_graph(n, edges), draw(st.integers(1, 6)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(sparse_seeded_instances())
def test_labels_on_demand_solve_like_a_checked_labelling(instance):
    # The same labels given as a checked list must give the same solves as
    # labels computed on demand, and a non-edge must raise in both.
    g, num_labels, seed = instance
    full = build_labelled(g, num_labels, random_labels(g, num_labels, seed).edge_label_map())
    non_edges = [(u, v) for u in range(3) for v in range(u + 1, g.n) if not g.adjacent(u, v)][:5]
    for lg in (random_labels(g, num_labels, seed), full,
               build_labelled(g, num_labels, full.edge_label_map())):
        for u, v in non_edges:
            for call in (lambda: lg.label_of(v, u), lambda: clique_cost(lg, [u, v])):
                with raises(GraphError):
                    call()
    peeled = False
    for budget in range(1, num_labels + 1):
        want = solve(full, budget)
        stats = want.stats
        counts = (stats.nodes_pass1, stats.nodes_pass2, stats.subsets_pass1, stats.subsets_pass2)
        for run in (solve, lambda lg, b: solve_parallel(lg, b, workers=2)):
            lg = random_labels(g, num_labels, seed)
            got = run(lg, budget)
            assert (got.size, got.cost) == (want.size, want.cost)
            assert got.stats.vertices_searched == stats.vertices_searched
            assert got.stats.subsets_pass1 == stats.subsets_pass1
            assert clique_cost(lg, got.clique) == (got.labels, got.cost)
            if run is solve:  # forked workers' node counts and witness follow scheduling
                assert (got.clique, got.labels) == (want.clique, want.labels)
                assert (got.stats.nodes_pass1, got.stats.nodes_pass2,
                        got.stats.subsets_pass1, got.stats.subsets_pass2) == counts
        peeled |= stats.vertices_searched < g.n
    # Count only graphs that the peel reduced at some budget.
    assume(peeled)


@st.composite
def sparse_planted_instances(draw):
    """(labelled graph, budget) on 150-400 vertices: about n to 2.5 n random
    edges, 1-3 planted cliques of 3-7 vertices and an isolated clique as
    large as the largest planted one.  When the greedy finds a clique of
    that size, the isolated clique's edges lie in exactly k - 1 triangles;
    half the time all of them are labelled 0, which makes it the optimum."""
    n, num_labels, seed = draw(st.integers(150, 400)), draw(st.integers(2, 6)), draw(st.integers())
    g, isolated = planted_sparse_graph(n, draw(st.floats(1, 2.5)), seed, isolated=True)
    labels = random_labels(g, num_labels, seed).edge_label_map()
    if draw(st.booleans()):
        labels.update(dict.fromkeys(isolated, 0))
    lg = build_labelled(build_graph(n, sorted(labels)), num_labels, labels)
    return lg, draw(st.integers(1, num_labels))


def test_triangle_peel_changes_no_solve():
    # Both solvers on the peeled graph against solve on the whole graph:
    # the same (size, cost), and witnesses that re-check.
    truss = graph_mod.truss
    shrank = []

    def counting(lg, k):
        kept = truss(lg, k)
        shrank[-1] |= kept < graph_mod.core(lg, k)
        return kept

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(sparse_planted_instances())
    def check(instance):
        lg, budget = instance
        with MonkeyPatch.context() as patch:
            patch.setattr(seq_mod, "reduce_to_core", lambda *_: None)
            want = solve(lg, budget)
        shrank.append(False)
        with MonkeyPatch.context() as patch:
            patch.setattr(graph_mod, "truss", counting)
            for got in (solve(lg, budget), solve_parallel(lg, budget, workers=2)):
                assert (got.size, got.cost) == (want.size, want.cost)
                assert clique_cost(lg, got.clique) == (got.labels, got.cost)
        assert clique_cost(lg, want.clique) == (want.labels, want.cost)

    check()
    assert sum(shrank) >= 10


def test_subset_search_matches_papers_search_on_dense_graphs():
    # Beyond the oracle's reach (n up to 40), where the average degree is
    # high enough for most solves to search label subsets.
    took_subsets = []

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(10, 40), st.sampled_from([0.6, 0.75, 0.9]), st.integers(2, 5),
           st.integers(0, 2**32))
    def check(n, density, num_labels, seed):
        lg = random_instance(n, density, num_labels, seed)
        passes = [0, 0]
        for budget in range(1, num_labels + 1):
            got = solve(lg, budget)
            want = paper_solve(lg, budget)
            assert (got.size, got.cost) == (want.size, want.cost)
            assert len(set(got.clique)) == got.size
            assert clique_cost(lg, got.clique) == (got.labels, got.cost)
            assert got.cost <= budget
            passes[0] += got.stats.subsets_pass1 > 0
            passes[1] += got.stats.subsets_pass2 > 0
        took_subsets.append(passes)

    check()
    assert sum(p1 > 0 for p1, _ in took_subsets) > 0.8 * len(took_subsets)
    assert any(p2 > 0 for _, p2 in took_subsets)


def test_dense_graphs_solve_alike_with_and_without_the_greedy():
    # On a dense graph with no isolated vertex a whole-graph colouring may
    # rule out the peel before the greedy runs.  Either way solve must give
    # the oracle's (size, cost), or the paper's search beyond the oracle's
    # 25 vertices, with a witness that re-checks, and solve_parallel must
    # agree on (size, cost).
    greedy = graph_mod.greedy_clique_size
    ran = []

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(12, 40), st.sampled_from([0.6, 0.7, 0.8]), st.integers(2, 5),
           st.integers(0, 2**32), st.data())
    def check(n, density, num_labels, seed, data):
        lg = random_instance(n, density, num_labels, seed)
        assume(min(lg.graph.degrees) >= 1)
        budget = data.draw(st.integers(1, num_labels))
        calls = []
        with MonkeyPatch.context() as patch:
            patch.setattr(graph_mod, "greedy_clique_size", lambda *a: calls.append(a) or greedy(*a))
            got = solve(lg, budget)
        if n <= MAX_ORACLE_VERTICES:
            want = oracle_solve(lg, budget)[:2]
        else:
            want = (paper := paper_solve(lg, budget)).size, paper.cost
        assert (got.size, got.cost) == want
        assert len(set(got.clique)) == got.size
        assert clique_cost(lg, got.clique) == (got.labels, got.cost)
        parallel = solve_parallel(lg, budget, workers=2)
        assert (parallel.size, parallel.cost) == want
        assert clique_cost(lg, parallel.clique) == (parallel.labels, parallel.cost)
        ran.append(bool(calls))

    check()
    assert ran.count(False) > 10 and ran.count(True) > 10


def test_k_min_changes_no_solve():
    # The kernel that leaves out the vertices below k_min must give the
    # same witness, (size, cost), node counts and subset counts as the
    # kernel forced to colour every vertex, over passes that search label
    # subsets and passes that run the paper's search: both call it.
    kernel = seq_mod.colour_top_down_into

    def whole(rows, cands, order, bounds, kmin):
        return kernel(rows, cands, order, bounds, 0)

    passes = set()

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(st.integers(6, 32), st.sampled_from([0.4, 0.7, 0.9]), st.sampled_from([2, 3, 4, 12]),
           st.integers(0, 2**32))
    def check(n, density, num_labels, seed):
        lg = random_instance(n, density, num_labels, seed)
        for budget in range(1, min(num_labels, 4) + 1):
            got = solve(lg, budget)
            with MonkeyPatch.context() as patch:
                patch.setattr(seq_mod, "colour_top_down_into", whole)
                want = solve(lg, budget)
            assert (got.clique, got.size, got.labels, got.cost) == (
                want.clique, want.size, want.labels, want.cost)
            assert got.stats.subsets_pass1 == want.stats.subsets_pass1
            assert got.stats.subsets_pass2 == want.stats.subsets_pass2
            assert (got.stats.nodes_pass1, got.stats.nodes_pass2) == (
                want.stats.nodes_pass1, want.stats.nodes_pass2)
            passes.add((1, got.stats.subsets_pass1 > 0))
            if got.stats.nodes_pass2:
                passes.add((2, got.stats.subsets_pass2 > 0))

    check()
    assert passes == {(1, True), (1, False), (2, True), (2, False)}


def holds_clique(lg, labels: int, size: int) -> bool:
    """True when some ``size`` vertices of ``lg`` are pairwise joined by
    edges whose labels lie in the mask ``labels``: brute force."""
    edges = {pair for pair, label in lg.edge_label_map().items() if labels >> label & 1}
    return any(all(pair in edges for pair in combinations(vertices, 2))
               for vertices in combinations(range(lg.graph.n), size))


def planted_instance(n, density, num_labels, seed, size, labels):
    """:func:`random_instance` with a ``size``-clique planted on vertices
    0..size-1, whose edges take the first ``labels`` labels in turn: a
    cheap clique that pass 2 has to find among dearer ones."""
    edge_labels = random_instance(n, density, num_labels, seed).edge_label_map()
    for j, edge in enumerate(combinations(range(size), 2)):
        edge_labels[edge] = j % labels
    return build_labelled(build_graph(n, sorted(edge_labels)), num_labels, edge_labels)


def test_pass_two_skips_only_refuted_subsets():
    # A level lists no T inside the mask of a sub-search that ended below
    # the pass-1 size s.  Both solvers must still match the oracle, and no
    # T that a level left out may hold a clique of size s.
    pass_subsets = seq_mod._pass_subsets
    skipped_levels = []

    def listing(shape, first_pass, budget, cost, dead):
        units = pass_subsets(shape, first_pass, budget, cost, dead)
        if units is not None and not first_pass:
            skipped_levels.append(set(pass_subsets(shape, first_pass, budget, cost, []))
                                  - set(units))
        return units

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(9, 13), st.sampled_from([0.5, 0.65, 0.8]), st.integers(3, 5),
           st.integers(0, 2**32), st.integers(4, 7), st.integers(1, 3))
    def check(n, density, num_labels, seed, size, labels):
        lg = planted_instance(n, density, num_labels, seed, size, labels)
        levels = 0
        for budget in range(2, num_labels + 1):
            skipped_levels.clear()
            with MonkeyPatch.context() as patch:
                patch.setattr(seq_mod, "_pass_subsets", listing)
                got = solve(lg, budget)
            assert_solvers_agree(lg, budget)
            for skipped in skipped_levels:
                skips.append(len(skipped))
                assert not any(holds_clique(lg, mask, got.size) for mask in skipped)
            levels += len(skipped_levels)
        assume(levels > 0)

    skips = []
    check()
    assert sum(skips) > 0


@st.composite
def seeded_labellings(draw):
    graph = draw(labelled_graphs()).graph
    return random_labels(graph, draw(st.integers(1, MAX_LABELS)), draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.one_of(seeded_labellings(), labelled_graphs(max_labels=MAX_LABELS)))
def test_label_file_round_trip(lg):
    back = parse_labels(write_labels(lg), lg.graph)
    assert back.num_labels == lg.num_labels
    assert back.edge_label_map() == lg.edge_label_map()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.one_of(seeded_labellings(), labelled_graphs(max_labels=MAX_LABELS)), st.booleans(),
       st.data())
def test_edge_lookups_follow_the_edge_label_map(lg, cached, data):
    # rows_among, masks and adjacent find edges in the sorted edge list,
    # with labels() built or not.  rows_among must give exactly the edges
    # among its vertex set, both ways round, as masks 1 << label, and label
    # only those edges, or none once labels() is built; masks must be None
    # exactly on the non-edges; adjacent must be symmetric.
    g = lg.graph
    want = dict(zip(g.edges(), lg.labels_at(range(g.edge_count()))))  # what edge_label_map gives
    if cached:
        lg.labels()
    labels_at, asked = lg.labels_at, []
    lg.labels_at = lambda at: asked.extend(at) or labels_at(at)
    picks = data.draw(st.lists(st.lists(st.booleans(), min_size=g.n, max_size=g.n), max_size=4))
    for vertices in [set(range(g.n)), *({v for v in range(g.n) if pick[v]} for pick in picks)]:
        asked.clear()
        rows = lg.rows_among(vertices)
        among = [i for i, (u, v) in enumerate(g.edges()) if u in vertices and v in vertices]
        assert {(u, v, mask) for u, row in rows.items() for v, mask in row.items()} == {
            (u, v, 1 << want[edge]) for edge in map(g.edges().__getitem__, among)
            for u, v in (edge, edge[::-1])}
        assert sorted(asked) == ([] if cached else among)
    assert lg.edge_label_map() == want
    pairs = data.draw(st.permutations([(u, v) for u in range(g.n) for v in range(u + 1, g.n)]))
    assert lg.masks(pairs) == [1 << want[pair] if pair in want else None for pair in pairs]
    for u in range(g.n):
        for v in range(g.n):
            assert g.adjacent(u, v) == g.adjacent(v, u) == ((min(u, v), max(u, v)) in want)


def limit_drops_below_parent(lg, budget):
    """True when the paper's search installs a clique that ties the
    incumbent's size and costs no more than the node it was found under,
    so the new limit (its cost - 1) falls below that node's cost while the
    node still has branches to try."""
    by_label, perm = permute_by_degree(lg)
    inc = RecordingIncumbent()
    _expand(paper_search(by_label, True, inc, budget), [], (1 << lg.graph.n) - 1, 0)
    # The search numbers the permuted graph top-down, vertex v as n - 1 - v.
    top = lg.graph.n - 1
    sizes = [0] + [size for _, size, _ in inc.improvements]
    return any(
        size == before and size >= 3
        and clique_cost(lg, perm.to_original(top - v for v in clique[:-1]))[1] == cost
        for before, (clique, size, cost) in zip(sizes, inc.improvements)
    )


def test_solvers_agree_when_pass_two_lowers_limit_mid_subtree():
    cases = [(12, 0.6, 4, 0, 3), (12, 0.6, 4, 1, 2), (11, 0.7, 5, 6, 5), (12, 0.5, 3, 6, 2)]
    for n, density, num_labels, seed, budget in cases:
        lg = random_instance(n, density, num_labels, seed)
        assert limit_drops_below_parent(lg, budget)
        assert_solvers_agree(lg, budget)


# Lines one field or one value away from valid, and arbitrary text.
_small = st.integers(-1, 9)
_near = st.one_of(
    st.builds("p edge {} {}".format, _small, _small),
    st.builds("e {} {}".format, _small, _small),
    st.builds("l {} {} {}".format, _small, _small, st.integers(-1, 70)),
    st.sampled_from(["", "c note", "p edge", "p edge 3", "p col 3 2", "p edge x 1",
                     "e 1", "e 1 2 3", "e x 2", "l 1 2", "l 1 2 x", "l 1 2 3 4"]),
)
_noise = st.text(max_size=16)


def _spoil(data, lines):
    """Insert up to two near-valid or arbitrary lines into ``lines``."""
    for extra in data.draw(st.lists(st.one_of(_near, _noise), max_size=2)):
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 8), st.integers(0, 30),
       st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=12), st.data())
def test_parsers_raise_only_their_own_errors(n, declared, pairs, data):
    lines = [f"p edge {n} {declared}"]
    lines += [f"e {u} {v}" for u, v in pairs if u != v and max(u, v) <= n]
    graph = build_graph(3, [(0, 1), (1, 2)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph = parse_dimacs(_spoil(data, lines))
        except (ParseError, GraphError):
            pass
    # A declared edge count that disagrees with the edges read stays a warning.
    assert all("unique edges found" in str(w.message) for w in caught)
    # Label every edge of the graph, or all but the last, so that the
    # checks after the line loop run too.
    edges = list(graph.edges())
    labels = data.draw(st.lists(st.integers(0, 70), min_size=len(edges), max_size=len(edges)))
    own = [f"l {u + 1} {v + 1} {k}" for (u, v), k in zip(edges, labels)]
    own = own[: len(own) - data.draw(st.integers(0, 1))]
    try:
        parse_labels(_spoil(data, own), graph)
    except (ParseError, GraphError):
        pass


# Edge lines that the line parser rejects or reads differently from a bare
# ``e u v`` line, or that only look bare; ``{u}`` and ``{v}`` are in range.
_BENT_LINES = {
    "bent": ["e {u} x", "x {u} {v}", "e {u}", "e {u} {v} {v}", "e{u} {v} {u}", "ee {u} {v}",
             "e 0 {v}", "e {u} {big}", "e -{u} {v}", "e {u} {u}", "p edge 3 3", "c {u} {v}",
             "", "  e {u} {v}", "e +{u} {v}", "e 0{u} {v}", "e {u}_0 {v}", "e {u} \u0663"],
    # Line breaks inside a line, and whitespace that breaks none.
    "broken": ["e {u}\n{v}", "e {u}\r{v}", "e {u}\x0b{v}", "e {u}\x1e{v}", "e {u}\x85{v}",
               "e {u}\u2028{v}", "e {u}\x1f{v}", "e\u3000{u} {v}"],
}


@st.composite
def dimacs_texts(draw):
    """DIMACS text, mostly with a body of bare ``e u v`` lines that the bulk
    read takes, else with one line bent, broken or moved above the header."""
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    seps, ends = st.sampled_from([" ", " ", "\t", "  ", " \t "]), st.sampled_from(["", " ", "\t"])
    lines = [f"e{draw(seps)}{u}{draw(seps)}{v}{draw(ends)}"
             for u, v in draw(st.lists(pairs, max_size=12))]
    head = draw(st.lists(st.sampled_from(["c header", "", "c e 1 2"]), max_size=2))
    header = draw(st.sampled_from(
        [f"p edge {n} {len(lines)}", f"p edge {n} {len(lines)}", f"p edge {n} {len(lines) + 1}",
         "p edge 0 0", f"p edge {MAX_VERTICES + 1} 0"]))
    kind = draw(st.sampled_from(["bare", "bare", "bent", "broken", "before"]))
    if kind in _BENT_LINES:
        u, v = draw(pairs)
        bent = draw(st.sampled_from(_BENT_LINES[kind])).format(u=u, v=v, big=n + 1)
        lines.insert(draw(st.integers(0, len(lines))), bent)
    elif kind == "before" and lines:
        head.append(lines.pop())
    text = draw(st.sampled_from(["\n", "\n", "\r\n"])).join([*head, header, *lines])
    return text + draw(st.sampled_from(["\n", ""]))


def _parse_outcome(text):
    """``parse_dimacs``'s graph as (n, edges, degrees), or its ParseError's
    message, with the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph = parse_dimacs(text)
            outcome = (graph.n, list(graph.edges()), graph.degrees)
        except ParseError as exc:
            outcome = str(exc)
    return outcome, [str(w.message) for w in caught]


def _line_parser_only(text):
    raise ValueError("bulk read off")


def test_bulk_read_matches_the_line_parser():
    taken = []
    bulk = graph_io._read_in_bulk

    def spy(text):
        result = bulk(text)
        taken.append(text)
        return result

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(dimacs_texts())
    def check(text):
        with MonkeyPatch.context() as mp:
            mp.setattr(graph_io, "_read_in_bulk", spy)
            fast = _parse_outcome(text)
            mp.setattr(graph_io, "_read_in_bulk", _line_parser_only)
            assert fast == _parse_outcome(text)

    check()
    # The bulk read took a good share of the texts, tabs and comments included.
    assert len(taken) >= 50 and any("\t" in text for text in taken)
    assert any(text.startswith("c") for text in taken)
