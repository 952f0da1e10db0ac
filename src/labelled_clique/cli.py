"""Command line front end: solve one instance, verify a witness, run benchmarks.

Reports are line-oriented ``key: value`` pairs with a stable key set, plus
an opt-in JSON mirror, so runs stay easy to script.  Exit codes: 0 success,
1 bad arguments, 2 input parse error, 3 internal validation failure (a
solver witness failed its re-check), 4 verify rejected the witness.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .graph import GraphError, LabelledGraph, label_indices
from .graph_io import InstanceSpec, ParseError
from .parallel import solve_parallel
from .sequential import Solution, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_BAD_WITNESS = 4


class RunReport(NamedTuple):
    """Everything one solve run reports, witness re-validated before emission;
    ``--json`` prints its fields in order."""

    instance: str
    n: int
    m: int
    num_labels: int
    budget: int
    threads: int
    seed: int | None
    label_file: str | None
    size: int
    cost: int
    witness: list[int]
    witness_labels: list[int]
    vertices_searched: int
    nodes_pass1: int
    nodes_pass2: int
    subsets_pass1: int
    subsets_pass2: int
    worker_nodes: list[int]
    elapsed_s: float

    def lines(self) -> list[str]:
        return [
            f"instance: {self.instance}",
            f"n: {self.n}",
            f"m: {self.m}",
            f"num_labels: {self.num_labels}",
            f"budget: {self.budget}",
            f"threads: {self.threads}",
            f"seed: {'-' if self.seed is None else self.seed}",
            f"label_file: {self.label_file or '-'}",
            f"size: {self.size}",
            f"cost: {self.cost}",
            "witness: " + " ".join(str(v) for v in self.witness),
            "witness_labels: " + " ".join(str(k) for k in self.witness_labels),
            f"vertices_searched: {self.vertices_searched}",
            f"nodes_pass1: {self.nodes_pass1}",
            f"nodes_pass2: {self.nodes_pass2}",
            f"subsets_pass1: {self.subsets_pass1}",
            f"subsets_pass2: {self.subsets_pass2}",
            "worker_nodes: " + (" ".join(str(k) for k in self.worker_nodes) or "-"),
            f"elapsed_s: {self.elapsed_s:.6f}",
        ]


def _witness_labels(lg: LabelledGraph, clique: list[int]) -> tuple[int, str | None]:
    """The label mask of the edges among ``clique``'s distinct vertices, in
    one pass over its pairs, and None; or 0 and a message naming, 1-based,
    the first pair that is not an edge."""
    vertices = sorted(clique)
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    labels = 0
    for (u, v), mask in zip(pairs, lg.masks(pairs)):
        if mask is None:
            return 0, f"vertices {u + 1} and {v + 1} are not adjacent"
        labels |= mask
    return labels, None


def _check_witness(lg: LabelledGraph, budget: int, solution: Solution) -> str | None:
    """Re-validate a solver result against the original graph; None when sound."""
    clique = solution.clique
    if len(set(clique)) != len(clique) or len(clique) != solution.size:
        return "witness size mismatch"
    labels, problem = _witness_labels(lg, clique)
    if problem is not None:
        return problem
    cost = labels.bit_count()
    if labels != solution.labels or cost != solution.cost:
        return "witness labels do not match reported labels"
    if cost > budget:
        return f"witness cost {cost} exceeds budget {budget}"
    return None


def _instance_spec(args: argparse.Namespace) -> InstanceSpec:
    return InstanceSpec(
        graph_path=Path(args.graph),
        num_labels=args.labels,
        seed=args.seed,
        label_file=Path(args.label_file) if args.label_file else None,
        budget=args.budget,
        budget_pct=args.budget_pct,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _instance_spec(args)
    lg, budget = spec.load()
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    solution = solve_parallel(lg, budget, workers=args.threads)
    problem = _check_witness(lg, budget, solution)
    if problem is not None:
        print(f"internal validation failure: {problem}", file=sys.stderr)
        return EXIT_INTERNAL
    report = RunReport(
        instance=Path(args.graph).stem,
        n=lg.graph.n,
        m=lg.graph.edge_count(),
        num_labels=lg.num_labels,
        budget=budget,
        threads=args.threads,
        seed=None if args.label_file else spec.seed,
        label_file=args.label_file,
        size=solution.size,
        cost=solution.cost,
        witness=[v + 1 for v in solution.clique],
        witness_labels=[k + 1 for k in label_indices(solution.labels)],
        vertices_searched=solution.stats.vertices_searched,
        nodes_pass1=solution.stats.nodes_pass1,
        nodes_pass2=solution.stats.nodes_pass2,
        subsets_pass1=solution.stats.subsets_pass1,
        subsets_pass2=solution.stats.subsets_pass2,
        worker_nodes=solution.stats.worker_nodes,
        elapsed_s=solution.stats.elapsed,
    )
    for line in report.lines():
        print(line)
    if args.json:
        print(json.dumps(report._asdict()))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    lg, budget = _instance_spec(args).load()
    n = lg.graph.n
    witness = args.witness
    seen = set()
    for v in witness:
        if not 1 <= v <= n:
            print(f"vertex {v} out of range 1..{n}")
            return EXIT_BAD_WITNESS
        if v in seen:
            print(f"vertex {v} listed twice")
            return EXIT_BAD_WITNESS
        seen.add(v)
    labels, problem = _witness_labels(lg, [v - 1 for v in witness])
    if problem is not None:
        print(problem)
        return EXIT_BAD_WITNESS
    cost = labels.bit_count()
    print(f"size: {len(witness)}")
    print(f"cost: {cost}")
    print("labels: " + " ".join(str(k + 1) for k in label_indices(labels)))
    if cost > budget:
        print(f"cost {cost} exceeds budget {budget}")
        return EXIT_BAD_WITNESS
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    """Seeded benchmark rows: per-sample labels, sequential and parallel runs.

    Sample ``i`` uses seed ``base + i``.  Solve times cover permutation and
    forking the workers but not file reading or label generation; the
    size/cost columns are bit-reproducible for a fixed base seed.
    """
    label_file = Path(args.label_file) if args.label_file else None
    rows = [InstanceSpec(Path(path), count, args.seed, label_file, budget_pct=pct)
            for path in args.graphs for count in args.labels or [None] for pct in args.budget_pct]
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    print("instance labels pct budget size cost t_seq t_par")
    for spec in rows:
        sum_size = sum_cost = 0
        sum_seq = sum_par = 0.0
        for lg, budget in spec.samples(args.samples):
            seq = solve(lg, budget)
            par = solve_parallel(lg, budget, workers=args.threads)
            for solution in (seq, par):
                problem = _check_witness(lg, budget, solution)
                if problem is not None:
                    print(f"internal validation failure: {problem}", file=sys.stderr)
                    return EXIT_INTERNAL
            sum_size += seq.size
            sum_cost += seq.cost
            sum_seq += seq.stats.elapsed
            sum_par += par.stats.elapsed
        k = args.samples
        print(
            f"{spec.graph_path.stem} {lg.num_labels} {spec.budget_pct} {budget} "
            f"{sum_size / k:.2f} {sum_cost / k:.2f} "
            f"{sum_seq / k:.4f} {sum_par / k:.4f}"
        )
    return EXIT_OK


def _add_label_args(sub: argparse.ArgumentParser, many: bool = False) -> None:
    if many:
        sub.add_argument("--labels", type=int, nargs="+",
                         help="label-set sizes for random allocation")
    else:
        sub.add_argument("--labels", type=int, help="label-set size for random allocation")
    sub.add_argument("--seed", type=int, default=None, help="random label seed (default 0)")
    sub.add_argument("--label-file", help="read labels from a file instead")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelled-clique",
        description="Maximum labelled clique solver (largest feasible clique, "
                    "cheapest among the largest)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve_p = subs.add_parser("solve", help="solve one instance and report the witness")
    solve_p.add_argument("graph", help="DIMACS graph file")
    _add_label_args(solve_p)
    solve_p.add_argument("--budget", type=int, help="label budget")
    solve_p.add_argument("--budget-pct", type=int, help="budget as %% of labels (25/50/75)")
    solve_p.add_argument("--threads", type=int, default=1,
                         help="searching processes over the search's work units, this "
                              "one included (default: 1, which forks none)")
    solve_p.add_argument("--json", action="store_true", help="also print a JSON object")
    solve_p.set_defaults(func=_cmd_solve)

    verify_p = subs.add_parser("verify", help="check a claimed witness")
    verify_p.add_argument("graph", help="DIMACS graph file")
    _add_label_args(verify_p)
    verify_p.add_argument("--budget", type=int, help="label budget")
    verify_p.add_argument("--budget-pct", type=int, help="budget as %% of labels (25/50/75)")
    verify_p.add_argument("--witness", type=int, nargs="+", required=True,
                          help="claimed clique, 1-based vertices")
    verify_p.set_defaults(func=_cmd_verify)

    bench_p = subs.add_parser("bench", help="seeded benchmark over label sizes and budgets")
    bench_p.add_argument("graphs", nargs="+", help="DIMACS graph files")
    _add_label_args(bench_p, many=True)
    bench_p.add_argument("--budget-pct", type=int, nargs="+", default=[25, 50, 75],
                         help="budget percentages (default: 25 50 75)")
    bench_p.add_argument("--samples", type=int, default=100, help="samples per row (default 100)")
    bench_p.add_argument("--threads", type=int, default=1,
                         help="searching processes for the parallel column, this one "
                              "included (default: 1)")
    bench_p.set_defaults(func=_cmd_bench)
    bench_p.set_defaults(seed=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ParseError, GraphError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
