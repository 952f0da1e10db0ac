#!/usr/bin/env python3
"""Benchmark of the labelled-clique solver's full path.

Each solve runs parse_dimacs -> random_labels -> solve (or solve_parallel,
which permutes by degree and runs pass 1 and pass 2) -> clique_cost
witness check, on in-memory DIMACS text, back to back in one process.

    python3 perfbench/run.py --workload keller4-tight --seed 1 --seconds 36 --trace 0

``--trace 0`` times whole passes over the workload's instances (at least
two, as many as fit in ``--seconds``) and reports the end-to-end metrics.
``--trace 1`` reports the per-layer metrics from one round (one instance
per cell), solved once with spans around each stage and once under
cProfile; spans, counts and profile totals are written to
``perfbench/out/`` at the end.
Both print every metric as ``name value unit`` and end with one JSON line.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import instances as bench
from layers import MODULES, WAIT, Tracer, no_span

TAIL_LADDER = (99, 95, 90, 75)
MIN_PASSES = 2
IMPORT_REPEATS = 6  # before and again after the timed solves
OUT = bench.HERE / "out"


@dataclass
class Record:
    """Outcome of one full-path solve."""

    inst: bench.Instance
    seconds: float
    nodes: tuple[int, int] | None
    error: str | None
    parallel: bool


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def import_seconds(count: int) -> list[float]:
    """Times of ``import labelled_clique``, each in a fresh interpreter."""
    src = str(bench.ROOT / "src")
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import labelled_clique; print(time.perf_counter() - t, labelled_clique.__file__)"
    )
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=60
        ).stdout.split()
        if not out[1].startswith(src):
            raise SystemExit(f"perfbench: fresh interpreter imported {out[1]}")
        samples.append(float(out[0]))
    return samples


def full_path(lc, inst: bench.Instance, workers: int, span):
    with span("solve"):
        with span("graph_io.parse_dimacs"):
            graph = lc.parse_dimacs(inst.text)
        with span("graph_io.random_labels"):
            lg = lc.random_labels(graph, inst.num_labels, inst.label_seed)
        if workers:
            with span("parallel.solve_parallel"):
                solution = lc.solve_parallel(lg, inst.budget, workers=workers)
        else:
            with span("sequential.solve"):
                solution = lc.solve(lg, inst.budget)
        with span("graph.clique_cost"):
            labels, cost = lc.clique_cost(lg, solution.clique)
    return solution, labels, cost


def check(inst, solution, labels, cost, expected) -> str | None:
    """Why a solve is wrong, or None: its witness must re-check on the
    unpermuted graph and its (size, cost) must equal the recorded answer."""
    if len(set(solution.clique)) != solution.size:
        return f"witness has {len(set(solution.clique))} vertices, size says {solution.size}"
    if (labels, cost) != (solution.labels, solution.cost) or cost > inst.budget:
        return f"witness re-check gives cost {cost}, solver says {solution.cost}"
    if (solution.size, solution.cost) != tuple(expected):
        return f"(size, cost) = {(solution.size, solution.cost)}, recorded {tuple(expected)}"
    return None


def solve_pool(lc, pool, answers, workers: int, span=no_span) -> list[Record]:
    records = []
    for inst in pool:
        nodes = None
        start = perf_counter()
        try:
            solution, labels, cost = full_path(lc, inst, workers, span)
            seconds = perf_counter() - start
            nodes = (solution.stats.nodes_pass1, solution.stats.nodes_pass2)
            want = answers.get(inst.key)
            error = "no recorded answer" if want is None else check(
                inst, solution, labels, cost, (want["size"], want["cost"])
            )
        except Exception:  # a solve that raises is counted as failed, not fatal
            seconds = perf_counter() - start
            error = traceback.format_exc(limit=3)
        if error is not None:
            print(f"# FAILED {inst.key}: {error}", file=sys.stderr)
        records.append(Record(inst, seconds, nodes, error, workers > 0))
    return records


def preflight(lc, seed: int, workers: int) -> list[str]:
    """Untimed check of solve (and solve_parallel when the workload uses it)
    against the exhaustive oracle on small seeded G(n, p) instances."""
    errors = []
    for inst in bench.gnp_instances(seed):
        lg = lc.random_labels(lc.parse_dimacs(inst.text), inst.num_labels, inst.label_seed)
        size, cost, _ = lc.oracle_solve(lg, inst.budget)
        for w in (0, workers) if workers else (0,):
            try:
                solution, labels, cost_seen = full_path(lc, inst, w, no_span)
                error = check(inst, solution, labels, cost_seen, (size, cost))
            except Exception as exc:  # reported as a failed check, like a timed solve
                error = repr(exc)
            if error is not None:
                errors.append(f"{inst.key} workers={w}: {error}")
    return errors


def tail(times: list[float]) -> tuple[int, float]:
    """Highest percentile with at least ten values beyond it; p50 when no
    percentile above the median has ten (fewer than 20 values)."""
    for q in TAIL_LADDER:
        if len(times) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return 50, statistics.median(times)


def end_to_end(records: list[Record], wall: float, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics; percentiles are over each instance's mean time.

    Each instance is timed once per pass, in mirrored order, so its mean
    spans the whole run and a slow or fast stretch of the machine moves
    every instance alike instead of deciding which ones land in the middle.
    """
    per_instance: dict[str, list[float]] = {}
    for r in records:
        per_instance.setdefault(r.inst.key, []).append(r.seconds)
    times = [statistics.fmean(t) for t in per_instance.values()]
    q, tail_s = tail(times)
    verified = sum(r.error is None for r in records)
    metrics = {
        "solves_per_s": (verified / wall, "1/s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"solve_s.tail": f"p{q} of {len(times)} instances",
             "failed_frac": f"{(len(records) - verified) / len(records)}"}
    return metrics, notes


def timed_run(lc, pool, answers, workers: int, seconds: float):
    """Whole passes over the pool, every other one in reverse order: the
    largest even number of passes that fits in ``seconds``, at least two.

    Only whole passes are timed, so every run measures the same multiset of
    instances and the percentiles do not shift with where a run stopped.
    An even count keeps every instance's passes mirrored about the middle
    of the run.
    """
    records: list[Record] = []
    passes, target = 0, MIN_PASSES
    start = perf_counter()
    while passes < target:
        records += solve_pool(lc, pool if passes % 2 == 0 else pool[::-1], answers, workers)
        passes += 1
        if passes == 1:
            target = max(MIN_PASSES, 2 * int(seconds / (2 * (perf_counter() - start))))
    return records, perf_counter() - start, passes


def per_layer(lc, pool, answers, workers: int):
    """The traced round (one instance per cell) untraced with stage spans,
    then again under the profiler.

    Returns the layer metrics, the untraced records, every record checked
    and the trace data to write out.
    """
    subset = bench.traced_subset(pool)
    untraced = Tracer(profile=False)
    with untraced.installed():
        records = solve_pool(lc, subset, answers, workers, untraced.span)
    sequential, seq_records = untraced, records
    if workers:  # the same instances through solve(), for speedup and inflation
        sequential = Tracer(profile=False)
        with sequential.installed():
            seq_records = solve_pool(lc, subset, answers, 0, sequential.span)
    traced = Tracer(profile=True)
    with traced.installed(), traced.profiled("main"):
        traced_records = solve_pool(lc, subset, answers, workers, traced.span)

    n = len(records)
    nodes = [r.nodes for r in seq_records if r.nodes is not None]
    seq_nodes = sum(a + b for a, b in nodes)
    seq_search = sequential.seconds("sequential.solve")
    self_s, calls = traced.module_self()
    busy = sum(v for k, v in self_s.items() if k != WAIT)
    worker_s, _ = traced.module_self(kinds=("worker",))
    untraced_s = {r.inst.key: r.seconds for r in records}
    metrics = {
        "graph_io.parse_s": (untraced.seconds("graph_io.parse_dimacs") / n, "s"),
        "graph_io.label_s": (untraced.seconds("graph_io.random_labels") / n, "s"),
        "graph.permute_s": (untraced.seconds("graph.permute_by_degree") / n, "s"),
        "graph.check_s": (untraced.seconds("graph.clique_cost") / n, "s"),
        **{f"{m}.self_frac": (self_s.get(m, 0.0) / busy, "frac") for m in MODULES},
        "colouring.self_s": (self_s.get("colouring", 0.0) / len(subset), "s"),
        "colouring.calls": (calls.get("colouring", 0) / len(subset), "count"),
        "sequential.nodes_pass1": (statistics.fmean(a for a, _ in nodes), "count"),
        "sequential.nodes_pass2": (statistics.fmean(b for _, b in nodes), "count"),
        "sequential.nodes_per_s": (seq_nodes / seq_search, "1/s"),
        "parallel.speedup": (
            seq_search / untraced.seconds("parallel.solve_parallel") if workers else 0.0, "x"),
        "parallel.node_inflation": (
            sum(sum(r.nodes) for r in records if r.nodes) / seq_nodes if workers else 0.0, "x"),
        "parallel.subproblems": (traced.counts["parallel.subproblems"] / len(subset), "count"),
        "parallel.steals": (traced.counts["parallel.steals"] / len(subset), "count"),
        "parallel.wait_frac": (worker_s.get(WAIT, 0.0) / sum(worker_s.values())
                               if worker_s else 0.0, "frac"),
        "trace.overhead_frac": (
            sum(r.seconds for r in traced_records)
            / sum(untraced_s[r.inst.key] for r in traced_records) - 1, "frac"),
    }
    dump = {
        "module_self_s": self_s,
        "module_calls": calls,
        "counts": dict(traced.counts),
        "spans": {"untraced": untraced.spans, "traced": traced.spans,
                  **({"sequential": sequential.spans} if workers else {})},
    }
    all_records = records + (seq_records if workers else []) + traced_records
    return metrics, records, all_records, dump


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    env = environment()
    lc = bench.import_program()
    answers = bench.load_answers()
    workers = bench.PARALLEL_WORKERS if args.workload == bench.PARALLEL_WORKLOAD else 0
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={env['python']} nproc={env['nproc']} "
          f"loadavg={' '.join(f'{x:.2f}' for x in env['loadavg'])}")

    pool, digests = bench.workload_instances(args.workload, args.seed)
    problems = [f"graph {name} digest {d} differs from recorded {answers['graphs'].get(name)}"
                for name, d in digests.items() if answers["graphs"].get(name) != d]
    problems += preflight(lc, args.seed, workers)
    # The first import writes bytecode caches and is not counted.
    import_samples = import_seconds(IMPORT_REPEATS + 1)[1:]

    if args.trace:
        metrics, untraced, records, dump = per_layer(lc, pool, answers["solves"], workers)
        setup_s = statistics.median(import_samples + import_seconds(IMPORT_REPEATS))
        e2e, notes = end_to_end(untraced, sum(r.seconds for r in untraced), setup_s)
        report = {**e2e, **metrics}
    else:
        records, wall, passes = timed_run(lc, pool, answers["solves"], workers, args.seconds)
        setup_s = statistics.median(import_samples + import_seconds(IMPORT_REPEATS))
        e2e, notes = end_to_end(records, wall, setup_s)
        report = metrics = e2e
        print(f"# {len(records)} solves in {wall:.2f} s ({passes} x {len(pool)} instances)")

    # Sequential node counts must repeat exactly within the run; agreement
    # with the recorded counts is reported, since a faster search may change it.
    seen: dict[str, tuple[int, int]] = {}
    for r in records:
        if r.nodes is None or r.parallel:
            continue
        if seen.setdefault(r.inst.key, r.nodes) != r.nodes:
            problems.append(f"{r.inst.key}: node counts {r.nodes} and {seen[r.inst.key]} differ")
    recorded = answers["solves"]
    matching = sum(
        (recorded[k]["nodes_pass1"], recorded[k]["nodes_pass2"]) == v for k, v in seen.items()
    )
    print(f"# sequential node counts equal to the recorded ones: {matching}/{len(seen)}")

    failed = sum(r.error is not None for r in records)
    print(f"# preflight and checks: {'ok' if not problems else '; '.join(problems)}")
    for name, (value, unit) in report.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value} {unit}{note}")
    print(f"failed_frac {notes['failed_frac']} frac")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        path.write_text(json.dumps({"env": env, "args": vars(args), "metrics": report, **dump}))
        print(f"# trace written to {path.relative_to(bench.ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
