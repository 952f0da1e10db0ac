#!/usr/bin/env python3
"""Run the benchmark twice over ten seeds and summarise each end-to-end metric.

Runs ``run.py --trace 0`` once per seed 1-10 on every workload in
BENCHMARK.json (one process at a time), then does the whole set again.
For each set it reports each metric's median, quartiles and spread
(quartile distance over the median, as ``statistics.quantiles(values, n=4)``
gives the quartiles), and for the second set how much worse its median is
than the first's, each next to the metric's bound.  With ``--write`` the
summary goes to perfbench/baseline.json.  The committed baseline came from

    python3 perfbench/baseline.py --write
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

import instances as bench
from run import environment

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    start = perf_counter()
    out = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=900,
    ).stdout
    return json.loads(out.splitlines()[-1]), perf_counter() - start


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def measure_set(workload: str, bounds: dict) -> dict:
    values: dict[str, list[float]] = {name: [] for name in bounds}
    walls = []
    for seed in SEEDS:
        result, wall = run_once(workload, seed, SPEC["run_seconds"])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        walls.append(wall)
    stats = {name: summarise(v) for name, v in values.items()}
    print(f"{workload}: longest run {max(walls):.1f} s")
    for name, s in stats.items():
        flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- spread"
        print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  spread {s['spread']:.4f}  bound {bounds[name]}{flag}", flush=True)
        print("    " + " ".join(f"{v:.5g}" for v in values[name]))
    return {"metrics": stats, "values": values, "run_wall_s": walls}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    workloads = [w["name"] for w in SPEC["workloads"]]
    summary = {"env": environment(), "seeds": [SEEDS.start, SEEDS.stop - 1],
               "run_seconds": SPEC["run_seconds"], "sets": [], "median_worsening": {}}
    for number in range(1, SETS + 1):
        print(f"set {number}")
        summary["sets"].append({w: measure_set(w, bounds) for w in workloads})
    first, second = summary["sets"][0], summary["sets"][-1]
    print("median of the last set against the first (worse by, share of the first)")
    for w in workloads:
        shift = {name: worsening(first[w]["metrics"][name]["median"],
                                 second[w]["metrics"][name]["median"], better[name])
                 for name in bounds}
        summary["median_worsening"][w] = shift
        print(f"  {w}: " + "  ".join(
            f"{name} {s:+.4f}{' <-- bound' if s > bounds[name] else ''}"
            for name, s in shift.items()))
    if args.write:
        path = bench.HERE / "baseline.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
