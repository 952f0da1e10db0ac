#!/usr/bin/env python3
"""Record the answers every benchmark solve is checked against.

Solves every pool instance of every workload once with ``solve`` and writes
its (size, cost) and sequential node counts, plus a digest of each graph's
DIMACS text, to perfbench/answers.json.  Each solve takes the benchmark's
full path and passes its witness check, with the (size, cost) it is held
to given by ``solve_parallel``, before it is written.  Run it only when a workload's definition changes:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

import instances as bench
from layers import no_span
from run import check, full_path


def main() -> int:
    lc = bench.import_program()
    graphs = {"keller4": bench.keller4_text()}
    graphs.update({f"sparse7k/g{gs}": bench.sparse_text(gs) for gs in bench.SPARSE_GRAPH_SEEDS})
    pool = {}
    for workload in bench.KELLER_CELLS:
        pool.update((inst.key, inst) for inst in bench.keller_pool(workload, graphs["keller4"]))
    for gs in bench.SPARSE_GRAPH_SEEDS:
        pool.update((i.key, i) for i in bench.sparse_pool(gs, graphs[f"sparse7k/g{gs}"]))

    solves = {}
    for key, inst in sorted(pool.items()):
        solution, labels, cost = full_path(lc, inst, 0, no_span)
        other, *_ = full_path(lc, inst, bench.PARALLEL_WORKERS, no_span)
        error = check(inst, solution, labels, cost, (other.size, other.cost))
        if error is not None:
            raise SystemExit(f"{key}: {error}")
        solves[key] = {
            "size": solution.size,
            "cost": solution.cost,
            "nodes_pass1": solution.stats.nodes_pass1,
            "nodes_pass2": solution.stats.nodes_pass2,
        }
        print(key, solves[key], flush=True)
    answers = {
        "graphs": {name: bench.text_digest(text) for name, text in sorted(graphs.items())},
        "solves": solves,
    }
    bench.ANSWERS.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {bench.ANSWERS} ({len(solves)} solves)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
