#!/usr/bin/env python3
"""Solve the same instances with two checkouts and report every difference.

Each checkout is a directory holding ``src/labelled_clique``.  Each side
runs in a fresh interpreter with only its own ``src`` on the path, solves
every instance below with ``solve`` and with ``solve_parallel(workers=2)``,
and prints one JSON line per instance.  This process then compares them:

- the graph each side's ``parse_dimacs`` reads (vertex count, degrees and
  edge list) and every edge's ``random_labels`` label must be equal;
- ``solve``: witness, size, cost, label mask, ``nodes_pass1``,
  ``nodes_pass2``, ``subsets_pass1``, ``subsets_pass2`` and
  ``vertices_searched`` must be equal;
- ``solve_parallel``: (size, cost) must be equal, and each side re-checks
  its witness (a clique, its labels and cost as reported, within budget,
  of the reported size), as it does ``solve``'s;
- each side also checks its own ``solve_parallel`` counts: its
  ``subsets_pass1`` must equal its ``solve``'s, since no pass-1 subset is
  dead, and its ``worker_nodes`` plus one root colouring for each pass it
  split at the root (each call of ``parallel.split_root``) must add up to
  its node total.

Per family it prints the solves, those whose pass 1 ran the paper's
search, and both sides' nodes over those; each mismatch line says what
the old side's pass 1 searched.

The instance families: criterion 3's oracle grid at every budget; keller4
at K = 4, 8 and 16 over budgets that decompose and that run the paper's
search; seeded sparse graphs with planted cliques; dense G(n, p) graphs
with K = 8-20, most of whose budgets run the paper's search; and G(n, p)
graphs of 100-200 vertices plus one pendant vertex, whose minimum degree
of 1 rules out the colouring test, so the peel runs on cheap rows.

Usage: python scripts/differential.py OLD_CHECKOUT NEW_CHECKOUT
Exits 1 on any mismatch or failed re-check, 2 on bad arguments, 0 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gen_keller4 import keller4_edges  # noqa: E402

STATS_FIELDS = ("nodes_pass1", "nodes_pass2", "subsets_pass1", "subsets_pass2",
                "vertices_searched")
SOLVE_FIELDS = ("ingest", "clique", "size", "cost", "labels", *STATS_FIELDS)


def instances():
    """(family, graph spec, K, label seed, budget), in a fixed order."""
    for n in range(6, 13):  # criterion 3's grid
        for pct in (20, 50, 80):
            for num_labels in (2, 3, 4, 6):
                for sample in (0, 1):
                    seed = n * 10_000 + pct * 100 + sample
                    for budget in range(1, num_labels + 1):
                        yield "grid", ("gnp", n, pct, seed), num_labels, seed + 777, budget
    for num_labels, budgets, label_seeds in ((4, (1, 2, 3, 4), (0, 1)),
                                             (8, (2, 4, 6), (0, 1)),
                                             (16, (2, 4, 8, 12), (0,))):
        for label_seed in label_seeds:
            for budget in budgets:
                yield "keller4", ("keller4",), num_labels, label_seed, budget
    for sample in range(80):
        rng = random.Random(sample)
        n, num_labels = rng.choice((200, 500, 1000, 2000)), rng.randint(3, 5)
        for budget in range(1, num_labels + 1):
            yield "planted", ("planted", n, sample), num_labels, sample + 31, budget
    for sample in range(40):
        rng = random.Random(10_000 + sample)
        n, pct, num_labels = rng.randint(30, 50), rng.randint(50, 85), rng.choice((8, 12, 16, 20))
        for budget in sorted({max(1, num_labels * q // 4) for q in (1, 2, 3)}):
            yield "dense", ("gnp", n, pct, 20_000 + sample), num_labels, sample, budget
    for sample in range(40):
        rng = random.Random(30_000 + sample)
        n, pct, num_labels = rng.randint(100, 200), rng.randint(30, 60), rng.randint(3, 5)
        for budget in range(1, num_labels + 1):
            yield "peel", ("peel", n, pct, 40_000 + sample), num_labels, sample, budget


def build(spec, lc):
    """The graph a spec names, read by the side's own ``parse_dimacs`` from
    DIMACS text that lists the edges in the order the family draws them:
    ascending for keller4 and G(n, p) (the pendant edge last), set order
    for the planted graphs."""
    kind, *args = spec
    if kind == "keller4":
        n, edges = keller4_edges()
    elif kind in ("gnp", "peel"):  # the tests' random_graph: splitmix64 draws, pair by pair
        n, pct, state = args
        threshold = int(pct / 100 * (1 << 64))
        edges = []
        for u, v in combinations(range(n), 2):
            value, state = lc.splitmix_next(state)
            if value < threshold:
                edges.append((u, v))
        if kind == "peel":  # vertex n, joined to vertex 0 alone
            n += 1
            edges.append((0, n - 1))
    else:  # about 1.5 n random pairs and one to three planted cliques
        n, seed = args
        rng = random.Random(seed)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n // 2)}
        for _ in range(rng.randint(1, 3)):
            edges.update(combinations(sorted(rng.sample(range(n), rng.randint(3, 8))), 2))
    return lc.parse_dimacs(f"p edge {n} {len(edges)}\n"
                           + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges))


def checked(lc, lg, solution, budget: int) -> bool:
    """Whether the witness is a clique of the reported size, labels and
    cost, within budget."""
    try:
        labels, cost = lc.clique_cost(lg, solution.clique)
    except lc.GraphError:
        return False
    return ((labels, cost) == (solution.labels, solution.cost) and cost <= budget
            and len(set(solution.clique)) == solution.size)


def counted_parallel(par, seq, splits: int) -> bool:
    """Whether a ``solve_parallel`` result's counts are consistent: pass 1
    ran as many subsets as ``solve``'s, and its workers' nodes plus the
    root colourings of the ``splits`` passes it split at the root add up to
    the nodes of both passes."""
    stats = par.stats
    return (stats.subsets_pass1 == seq.stats.subsets_pass1
            and sum(stats.worker_nodes) + splits == stats.nodes_pass1 + stats.nodes_pass2)


def run_side(root: str) -> None:
    """Solve every instance with the checkout at ``root``; one JSON line each."""
    import labelled_clique as lc
    import labelled_clique.parallel as parallel

    source = Path(lc.__file__).resolve()
    if Path(root).resolve() not in source.parents:
        raise SystemExit(f"imported {source}, not the checkout at {root}")
    splits, split_root = [], parallel.split_root

    def counting_split_root(graph):
        splits.append(1)
        return split_root(graph)

    parallel.split_root = counting_split_root
    built = graph = None
    for family, spec, num_labels, label_seed, budget in instances():
        if spec != built:  # the instances of one graph are listed together
            built, graph = spec, build(spec, lc)
        lg = lc.random_labels(graph, num_labels, label_seed)
        seq = lc.solve(lg, budget)
        splits.clear()
        par = lc.solve_parallel(lg, budget, workers=2)
        row = {name: getattr(seq.stats, name) for name in STATS_FIELDS}
        # Labelled apart from lg, so that lg's solves label only what they read.
        read = (graph.n, graph.degrees, graph.edges(),
                lc.random_labels(graph, num_labels, label_seed).labels())
        row["ingest"] = hashlib.sha256(repr(read).encode()).hexdigest()
        row.update(clique=seq.clique, size=seq.size, cost=seq.cost, labels=seq.labels,
                   solve_ok=checked(lc, lg, seq, budget),
                   parallel=[par.size, par.cost], parallel_ok=checked(lc, lg, par, budget),
                   counts_ok=counted_parallel(par, seq, len(splits)))
        print(json.dumps([family, spec, num_labels, label_seed, budget, row]), flush=True)


def side(root: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    out = subprocess.run([sys.executable, __file__, "--side", root], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--side":
        run_side(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[-1], file=sys.stderr)
        return 2
    old, new = side(argv[0]), side(argv[1])
    if len(old) != len(new):
        print(f"MISMATCH: {len(old)} instances against {len(new)}")
        return 1
    solves, paper, problems = Counter(), Counter(), []
    paper_nodes = {"old": Counter(), "new": Counter()}
    for (family, spec, k, seed, budget, a), (*_, b) in zip(old, new):
        name = f"{family} {spec} K={k} seed={seed} b={budget}"
        solves[family] += 1
        ran_paper = a["subsets_pass1"] == 0
        if ran_paper:
            paper[family] += 1
            for label, row in (("old", a), ("new", b)):
                paper_nodes[label][family] += row["nodes_pass1"] + row["nodes_pass2"]
        differing = [field for field in (*SOLVE_FIELDS, "parallel") if a[field] != b[field]]
        if differing:
            searched = "paper's search" if ran_paper else "label subsets"
            problems.append(f"MISMATCH {name} (pass 1: {searched}): {', '.join(differing)}")
        for label, row in (("old", a), ("new", b)):
            for run in ("solve", "parallel"):
                if not row[f"{run}_ok"]:
                    problems.append(f"RECHECK FAILED {name}: {label} {run} witness")
            if not row["counts_ok"]:
                problems.append(f"COUNTS FAILED {name}: {label} solve_parallel subsets_pass1"
                                " or worker_nodes")
    for family in solves:
        print(f"{family}: {solves[family]} solves, {paper[family]} whose pass 1 ran the "
              f"paper's search, in {paper_nodes['old'][family]:,} nodes against "
              f"{paper_nodes['new'][family]:,}")
    print(f"total: {sum(solves.values())} solve and {sum(solves.values())} "
          f"solve_parallel(workers=2) calls per side, {len(problems)} problems")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
