"""Acceptance gate: one test per criterion, exact tolerances, no deferred knobs.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion red.
"""

import hashlib
import time
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from labelled_clique import (
    build_graph,
    build_labelled,
    clique_cost,
    colour_order,
    incumbent_key,
    is_better,
    parse_dimacs,
    parse_labels,
    random_labels,
    resolve_budget,
    solve,
    solve_parallel,
    splitmix_next,
    write_dimacs,
    write_labels,
)
import labelled_clique.graph as graph_mod
import labelled_clique.graph_io as graph_io
import labelled_clique.sequential as seq_mod
from labelled_clique.cli import EXIT_OK, main
from labelled_clique.oracle import oracle_solve

from conftest import collaboration_scale_graph, random_graph, random_instance


def criterion3_grid():
    """(n, density, num_labels, graph_seed, label_seed) for the oracle sweep.

    7 sizes x 3 densities x 4 label counts x 2 samples = 168 labelled
    graphs; solving every budget in [1, num_labels] gives 630 runs.
    """
    for n in range(6, 13):
        for density_pct in (20, 50, 80):
            for num_labels in (2, 3, 4, 6):
                for sample in (0, 1):
                    graph_seed = n * 10_000 + density_pct * 100 + sample
                    yield n, density_pct / 100, num_labels, graph_seed, graph_seed + 777


def test_criterion_1_fig1_golden(fig1):
    best = None
    for _ in range(3):
        s3 = solve(fig1, 3)
        best = s3.stats.elapsed if best is None else min(best, s3.stats.elapsed)
    assert (s3.size, s3.cost) == (4, 2)
    labels, cost = clique_cost(fig1, s3.clique)
    assert labels == s3.labels and cost == s3.cost <= 3
    s4 = solve(fig1, 4)
    assert (s4.size, s4.cost) == (5, 4)
    assert best < 0.001, f"fig1 solve took {best * 1e3:.3f} ms"
    print(f"ACCEPTANCE 1: PASS (fig1 budgets 3/4 exact, {best * 1e6:.0f} us)")


def test_criterion_2_fig2_colouring_golden(fig2):
    result = colour_order(fig2, (1 << fig2.n) - 1)
    assert [v + 1 for v in result.order] == [1, 3, 2, 4, 8, 5, 7, 6]
    assert result.bounds == [1, 1, 2, 2, 2, 3, 3, 4]
    print("ACCEPTANCE 2: PASS (fig2 order and bounds exact)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    runs = 0
    for n, density, num_labels, graph_seed, label_seed in criterion3_grid():
        graph = random_graph(n, density, graph_seed)
        lg = random_labels(graph, num_labels, label_seed)
        for budget in range(1, num_labels + 1):
            got = solve(lg, budget)
            size, cost, _ = oracle_solve(lg, budget)
            assert (got.size, got.cost) == (size, cost), (
                f"mismatch on n={n} d={density} K={num_labels} "
                f"seeds=({graph_seed},{label_seed}) b={budget}"
            )
            runs += 1
    elapsed = time.perf_counter() - start
    assert runs >= 500
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: PASS ({runs} runs match the oracle, {elapsed:.1f}s)")


def test_criterion_4_parallel_equivalence():
    instances = []
    for sample in range(18):
        lg = random_instance(40, 0.5, 6, seed=4_000 + sample)
        for budget in (2, 3, 4):
            instances.append((lg, budget))
    assert len(instances) >= 50
    expected = {}
    for index, (lg, budget) in enumerate(instances):
        seq = solve(lg, budget)
        expected[index] = (seq.size, seq.cost)
    for repeat in range(5):
        for index, (lg, budget) in enumerate(instances):
            for workers in (2, 4):
                par = solve_parallel(lg, budget, workers=workers)
                assert (par.size, par.cost) == expected[index], (
                    f"instance {index} workers={workers} repeat={repeat}"
                )
                labels, cost = clique_cost(lg, par.clique)
                assert labels == par.labels and cost == par.cost <= budget
    print(f"ACCEPTANCE 4: PASS ({len(instances)} instances x 2 worker counts x 5 repeats)")


def test_criterion_5_property_suite():
    # bounds non-decreasing over 1,000 colouring calls
    calls = 0
    state = 9
    for seed in range(100):
        g = random_graph(13, 0.2 + 0.06 * (seed % 10), seed=5_000 + seed)
        for _ in range(10):
            value, state = splitmix_next(state)
            cands = value & ((1 << g.n) - 1)
            result = colour_order(g, cands)
            bounds = result.bounds
            assert all(bounds[i] <= bounds[i + 1] for i in range(len(bounds) - 1))
            calls += 1
    assert calls == 1000

    # budget monotonicity of size
    for seed in range(6):
        lg = random_instance(12, 0.55, 5, seed=5_500 + seed)
        sizes = [solve(lg, b).size for b in range(1, 7)]
        assert all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1))

    # ceiling by the unlabelled maximum clique, equality at full budget
    for seed in range(6):
        lg = random_instance(12, 0.5, 4, seed=5_600 + seed)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(lg.graph.n))
        nxg.add_edges_from(lg.graph.edges())
        ceiling = max(len(c) for c in nx.find_cliques(nxg))
        for budget in range(1, lg.num_labels + 1):
            assert solve(lg, budget).size <= ceiling
        assert solve(lg, lg.num_labels).size == ceiling

    # label-bijection invariance of (size, cost)
    for seed in range(4):
        lg = random_instance(11, 0.5, 4, seed=5_700 + seed)
        bijection = {0: 3, 1: 0, 2: 2, 3: 1}
        relabelled = build_labelled(
            lg.graph, 4,
            {pair: bijection[label] for pair, label in lg.edge_label_map().items()},
        )
        for budget in (1, 2, 3, 4):
            a, b = solve(lg, budget), solve(relabelled, budget)
            assert (a.size, a.cost) == (b.size, b.cost)

    # sequential determinism, node counts included
    for seed in range(4):
        lg = random_instance(12, 0.5, 3, seed=5_800 + seed)
        runs = [solve(lg, 2) for _ in range(3)]
        baseline = runs[0]
        for run in runs[1:]:
            assert run.clique == baseline.clique
            assert (run.stats.nodes_pass1, run.stats.nodes_pass2) == (
                baseline.stats.nodes_pass1,
                baseline.stats.nodes_pass2,
            )
    print("ACCEPTANCE 5: PASS (colouring, monotonicity, ceiling, bijection, determinism)")


def test_criterion_6_key_order_isomorphism():
    values = np.arange(101, dtype=np.uint64)
    sizes = np.repeat(values, 101)
    costs = np.tile(values, 101)
    keys = (sizes << np.uint64(32)) | (np.uint64(0xFFFFFFFF) ^ costs)
    # the vectorised key must agree with the scalar implementation everywhere
    scalar = np.fromiter(
        (incumbent_key(int(s), int(c)) for s, c in zip(sizes, costs)),
        dtype=np.uint64,
        count=len(sizes),
    )
    assert np.array_equal(keys, scalar)
    # exhaustive comparison of all (101^2)^2 ordered pairs, in row chunks
    for lo in range(0, len(keys), 512):
        hi = min(lo + 512, len(keys))
        key_gt = keys[lo:hi, None] > keys[None, :]
        better = (sizes[lo:hi, None] > sizes[None, :]) | (
            (sizes[lo:hi, None] == sizes[None, :]) & (costs[lo:hi, None] < costs[None, :])
        )
        assert np.array_equal(key_gt, better)
    # and the scalar pair (incumbent_key, is_better) agrees on a dense sample
    sample = [(s, c) for s in range(0, 101, 7) for c in range(0, 101, 7)]
    for a in sample:
        for b in sample:
            assert (incumbent_key(*a) > incumbent_key(*b)) == is_better(a, b)
    print("ACCEPTANCE 6: PASS (key order == solution order on [0,100]^2, exhaustive)")


def test_criterion_7_keller4_performance_smoke(keller4):
    worst_seq = 0.0
    reports = []
    for num_labels in (4, 8):
        for pct in (25, 50, 75):
            budget = resolve_budget(num_labels, budget_pct=pct)
            for seed in range(5):
                lg = random_labels(keller4, num_labels, seed)
                seq = solve(lg, budget)
                par = solve_parallel(lg, budget, workers=4)
                assert (par.size, par.cost) == (seq.size, seq.cost)
                # Minimum degree 102 is far above any clique found: no peel.
                assert seq.stats.vertices_searched == par.stats.vertices_searched == 171
                ratio = par.stats.elapsed / seq.stats.elapsed
                worst_seq = max(worst_seq, seq.stats.elapsed)
                reports.append(
                    f"  keller4 K={num_labels} pct={pct} seed={seed}: "
                    f"size={seq.size} cost={seq.cost} "
                    f"t_seq={seq.stats.elapsed:.2f}s t_par={par.stats.elapsed:.2f}s "
                    f"ratio={ratio:.2f}"
                )
                assert seq.stats.elapsed < 60.0, (
                    f"sequential keller4 run took {seq.stats.elapsed:.1f}s "
                    f"(K={num_labels}, pct={pct}, seed={seed})"
                )
    print("ACCEPTANCE 7 report (parallel/sequential ratios are informational):")
    for line in reports:
        print(line)
    print(f"ACCEPTANCE 7: PASS (30 keller4 runs, worst sequential {worst_seq:.2f}s < 60s)")


def test_criterion_8_large_sparse_graphs():
    graph = collaboration_scale_graph()
    assert graph.n == 7000
    assert 11_000 <= graph.edge_count() <= 13_000
    worst = 0.0
    searched = []
    for num_labels in (3, 4, 5):
        for budget in (2, 3, 4):
            lg = random_labels(graph, num_labels, seed=num_labels * 31 + budget)
            solution = solve(lg, budget)
            searched.append(solution.stats.vertices_searched)
            labels, cost = clique_cost(lg, solution.clique)
            assert labels == solution.labels and cost == solution.cost <= budget
            worst = max(worst, solution.stats.elapsed)
            assert solution.stats.elapsed < 5.0, (
                f"large sparse run took {solution.stats.elapsed:.2f}s "
                f"(K={num_labels}, b={budget})"
            )
    # The peel keeps the planted 8-clique alone, even when the greedy clique
    # has 4 vertices and the 3-core 2,610: only the clique's edges lie in
    # two triangles or more.
    assert searched == [8] * 9
    print(f"ACCEPTANCE 8: PASS (9 runs on 7000-vertex sparse graph, worst {worst:.2f}s < 5s)")


def test_criterion_8_ingest_builds_no_unpermuted_rows(monkeypatch):
    # The benchmark's path: DIMACS text, seeded labels, both solvers and the
    # witness check.  The header goes through the line parser, the 12,028
    # edge lines through the bulk read, and the search only through the
    # rows of the peeled, renumbered graph.  The greedy clique has 4
    # vertices, and the edges in two triangles or more are the planted
    # 8-clique's, so the search covers its 8 vertices.  C(5, 2) = 10 label
    # subsets exceed their average degree of 7, so it is one pass of the
    # paper's search, which no pass 2 follows.
    heads = []
    parse_lines = graph_io._parse_lines
    monkeypatch.setattr(graph_io, "_parse_lines", lambda text: heads.append(text) or parse_lines(text))
    graph = parse_dimacs(write_dimacs(collaboration_scale_graph()))
    assert heads == ["p edge 7000 12028\n"]
    lg = random_labels(graph, 5, seed=5 * 31 + 2)
    sequential = solve(lg, 2)
    assert (sequential.clique, sequential.labels, sequential.stats.nodes_pass1) == (
        [1, 2, 4, 6], 0b101, 22)
    # Forked workers' node counts and witness follow scheduling.
    for solution in (sequential, solve_parallel(lg, 2, workers=2)):
        stats = solution.stats
        assert (solution.size, solution.cost) == (4, 2)
        assert set(solution.clique) < set(range(8))  # inside the planted 8-clique
        assert (stats.nodes_pass2, stats.subsets_pass1, stats.subsets_pass2) == (0, 0, 0)
        assert stats.vertices_searched == 8
        assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)


def test_criterion_8_verify_builds_no_rows(tmp_path, monkeypatch, capsys):
    # verify checks the witness's pairs once, on the edge list, so a
    # 5-vertex witness on 7,000 vertices builds no bitset row.
    path = tmp_path / "collab.clq"
    path.write_text(write_dimacs(collaboration_scale_graph()))
    parse, graphs = graph_io.parse_dimacs, []
    monkeypatch.setattr(graph_io, "parse_dimacs",
                        lambda text: graphs.append(parse(text)) or graphs[-1])
    code = main(["verify", str(path), "--labels", "5", "--seed", "157", "--budget", "5",
                 "--witness", "1", "2", "3", "4", "5"])
    assert code == EXIT_OK and "size: 5" in capsys.readouterr().out
    [graph] = graphs
    assert graph.n == 7000


def test_criterion_8_peeled_cell_labels_only_what_it_reads():
    # K=4, b=4: the greedy clique is the planted 8-clique, so the peel keeps
    # its 8 vertices.  The greedy labels the edges among its starts and
    # their neighbours, the permutation and the witness check the 28 edges
    # of the clique; the unpermuted label rows are never built.
    graph = parse_dimacs(write_dimacs(collaboration_scale_graph()))
    lg = random_labels(graph, 4, seed=4 * 31 + 4)
    labels_at, counts = lg.labels_at, []
    lg.labels_at = lambda at: counts.append(len(at)) or labels_at(at)
    solution = solve(lg, 4)
    assert solution.stats.vertices_searched == 8
    assert (solution.clique, solution.size) == (list(range(8)), 8)
    assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)
    assert sum(counts) < 1000


def test_keller4_solve_labels_each_edge_once(keller4):
    # The greedy's starts and their neighbours take in every vertex of
    # keller4, so the label rows are built once, in edge order, and serve
    # the greedy, the permutation and the witness check.
    lg = random_labels(keller4, 4, seed=0)
    labels_at, seen = lg.labels_at, []
    lg.labels_at = lambda at: seen.extend(at) or labels_at(at)
    solution = solve(lg, 3)
    assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)
    assert seen == list(range(keller4.edge_count()))


def label_digest(lg) -> str:
    """Digest of every edge's label, in edge order."""
    return hashlib.sha256(bytes(lg.edge_label_map().values())).hexdigest()[:16]


def test_label_digests_are_pinned(keller4):
    # The labels of criterion 8's nine cells and of the keller4 benchmark
    # pools, frozen from the one-edge-at-a-time splitmix64 labeller.
    graph = collaboration_scale_graph()
    assert {(k, b): label_digest(random_labels(graph, k, seed=k * 31 + b))
            for k in (3, 4, 5) for b in (2, 3, 4)} == {
        (3, 2): "2ca3395c79742963", (3, 3): "b2d407962144e88d", (3, 4): "6c98036b96d7be81",
        (4, 2): "e38645eae5012f1d", (4, 3): "5270d6d70b405410", (4, 4): "09544173eb8ef81e",
        (5, 2): "c8b52167f4e432d5", (5, 3): "e8986e4db1e294cd", (5, 4): "f1db11d7670f15ca"}
    assert {(k, seed): label_digest(random_labels(keller4, k, seed))
            for k in (4, 8) for seed in range(5)} == {
        (4, 0): "29902160ecc324ef", (4, 1): "b580cdadcaf773ee", (4, 2): "ec9245283d496639",
        (4, 3): "c8e092747b46311d", (4, 4): "5ecedf3b432fd965", (8, 0): "f4b2017a833eaf91",
        (8, 1): "4eff495fe617c1ea", (8, 2): "beeb69a790167c2c", (8, 3): "c411b2ed2b3cf401",
        (8, 4): "abb80d2bf8e0e2f4"}
    assert label_digest(random_labels(keller4, 64, 2**64 + 7)) == "e15c03c839f0cb36"


def test_keller4_cells_skip_the_greedy_and_build_no_label_dicts(keller4, monkeypatch):
    # keller4 colours greedily with 37 colours and its minimum degree is
    # 102, so no clique has more than 103 vertices and the peel would keep
    # every vertex: neither the greedy nor the core runs.  Every pass of
    # these cells searches label subsets, which read the per-label rows
    # that the permutation fills, so the per-vertex label dicts of the
    # paper's search are never built.
    # The node counts are those of the solver that ran the greedy first.
    def refuse(*_):
        raise AssertionError("the colouring should have ruled out a peel")

    monkeypatch.setattr(graph_mod, "greedy_clique_size", refuse)
    monkeypatch.setattr(graph_mod, "core", refuse)
    permute, permuted = seq_mod.permute_by_degree, []
    monkeypatch.setattr(seq_mod, "permute_by_degree",
                        lambda lg, kept=None: permuted.append(permute(lg, kept)) or permuted[-1])
    label_dicts, built = seq_mod._label_dicts, []
    monkeypatch.setattr(seq_mod, "_label_dicts",
                        lambda by_label: built.append(len(by_label)) or label_dicts(by_label))
    cells = {(4, 1): (398, 0), (4, 2): (3081, 255), (8, 2): (2842, 460), (8, 4): (35967, 12202)}
    for (num_labels, budget), nodes in cells.items():
        lg = random_labels(keller4, num_labels, seed=0)
        solution = solve(lg, budget)
        assert (solution.stats.nodes_pass1, solution.stats.nodes_pass2) == nodes
        assert solution.stats.vertices_searched == keller4.n
        assert clique_cost(lg, solution.clique) == (solution.labels, solution.cost)
    parallel = solve_parallel(random_labels(keller4, 8, seed=0), 2, workers=2)
    assert (parallel.size, parallel.cost, parallel.stats.subsets_pass1) == (5, 2, 28)
    assert len(permuted) == 5 and built == []


def test_criterion_8_label_file_checks_use_the_edge_list():
    # parse_labels and build_labelled find each labelled edge in the sorted
    # edge list, so reading a label file builds no rows of the graph.
    graph = collaboration_scale_graph()
    lg = random_labels(graph, 5, seed=5 * 31 + 2)
    back = parse_labels(write_labels(lg), graph)
    assert back.edge_label_map() == lg.edge_label_map()
    assert back.num_labels == 5


def test_subset_rule_follows_average_degree(keller4, monkeypatch):
    # A pass searches the label subsets' subgraphs only when there are no
    # more subsets than the average degree: 2 * 9,435 / 171 = 110.4 on
    # keller4.  K=8, b=4: C(8, 4) = 70 subsets, then pass 2's one level,
    # the C(8, 3) = 56 subsets one label below the pass-1 cost of 4, none of
    # which holds a 7-clique.
    both = solve(random_labels(keller4, 8, 0), 4)
    assert (both.size, both.cost) == (7, 4)
    assert (both.stats.subsets_pass1, both.stats.subsets_pass2) == (70, 56)
    # K=8, b=6: C(8, 6) = 28 subsets, then pass 2's level of C(8, 5) = 56,
    # of which the 25 that lie in no pass-1 subset refuted below the size
    # of 10 are searched.
    levels = solve(random_labels(keller4, 8, 0), 6)
    assert (levels.size, levels.cost) == (10, 6)
    assert (levels.stats.subsets_pass1, levels.stats.subsets_pass2) == (28, 25)
    assert levels.stats.nodes_pass2 == 14334
    # K=16, b=2: C(16, 2) = 120 subsets exceed the average degree, so the
    # paper's search runs, in one pass that no pass 2 follows.  The node
    # counts pin its tree, whose at-limit filter runs at 17,909 of its
    # branches here; 619 of its 6,395 _expand calls lie below such a
    # branch, where every candidate adds no label.
    first = solve(random_labels(keller4, 16, 0), 2)
    assert (first.size, first.cost) == (5, 2)
    assert (first.stats.subsets_pass1, first.stats.subsets_pass2) == (0, 0)
    assert (first.stats.nodes_pass1, first.stats.nodes_pass2) == (6260, 0)
    # 1,000 disjoint copies of K4 at K=5, b=2: every vertex already has
    # degree s0 - 1 = 3, so no peel runs and all 4,000 vertices are
    # searched; their average degree (3) is below both C(5, 2) = 10 and the
    # 63 machine words of a row.  Its one pass walks the root branches
    # lazily and stops at the first one the bound prunes, so it draws fewer
    # than the 4,000 a full list would hold.
    drawn = []
    root_branches = seq_mod._root_branches

    def counting(lg):
        for unit in root_branches(lg):
            drawn.append(unit)
            yield unit

    monkeypatch.setattr(seq_mod, "_root_branches", counting)
    copies = build_graph(4000, [(v + i, v + j) for v in range(0, 4000, 4)
                                for i, j in combinations(range(4), 2)])
    sparse = solve(random_labels(copies, 5, seed=5 * 31 + 2), 2)
    assert (sparse.size, sparse.cost) == (4, 2)
    assert sparse.stats.vertices_searched == 4000
    assert (sparse.stats.subsets_pass1, sparse.stats.subsets_pass2) == (0, 0)
    assert sparse.stats.nodes_pass1 > 0 and sparse.stats.nodes_pass2 == 0
    assert 0 < len(drawn) < sparse.stats.vertices_searched


def test_criterion_9_cli_contract(tmp_path, capsys):
    # every solve witness is accepted by verify, across the criterion-3 grid
    graph_files = {}
    checked = 0
    for n, density, num_labels, graph_seed, label_seed in criterion3_grid():
        key = (n, density, graph_seed)
        if key not in graph_files:
            path = tmp_path / f"g{n}_{int(density * 100)}_{graph_seed}.clq"
            path.write_text(write_dimacs(random_graph(n, density, graph_seed)))
            graph_files[key] = str(path)
        path = graph_files[key]
        for budget in range(1, num_labels + 1):
            code = main([
                "solve", path, "--labels", str(num_labels), "--seed", str(label_seed),
                "--budget", str(budget), "--threads", "1",
            ])
            out = capsys.readouterr().out
            assert code == EXIT_OK
            witness = next(
                line.split(":", 1)[1].split()
                for line in out.splitlines()
                if line.startswith("witness:")
            )
            code = main([
                "verify", path, "--labels", str(num_labels), "--seed", str(label_seed),
                "--budget", str(budget), "--witness", *witness,
            ])
            capsys.readouterr()
            assert code == EXIT_OK
            checked += 1
    assert checked >= 500

    # bench size/cost columns are bit-reproducible under a fixed base seed
    bench_graph = tmp_path / "bench.clq"
    bench_graph.write_text(write_dimacs(random_graph(14, 0.5, seed=60)))
    outputs = []
    for _ in range(2):
        code = main([
            "bench", str(bench_graph), "--labels", "4", "6", "--budget-pct", "25", "50", "75",
            "--samples", "5", "--seed", "17", "--threads", "2",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        outputs.append([line.split()[:6] for line in out.splitlines()[1:]])
    assert outputs[0] == outputs[1]
    print(f"ACCEPTANCE 9: PASS ({checked} solve witnesses verified; bench columns reproducible)")
