"""Seeded instances for the solver benchmark.

Each workload solves a pool of labelled instances whose answers were
recorded when the workload was defined (``answers.json``, written by
``record.py``).  The keller4 pools are fixed label-seed sets: label seeds
move a keller4 solve by up to 2x (K=8, b=4 ranges 2.1-4.2 s), so a run
that drew its own label seeds would mostly measure which ones it drew.
The workload seed orders the solves, picks the sparse graphs from their
recorded pool and draws the small G(n, p) preflight instances.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANSWERS = HERE / "answers.json"

KELLER_CELLS = {
    # workload: (label counts x budget percentages, label seeds of the pool)
    "keller4-tight": ([(4, 25), (4, 50), (8, 25), (8, 50)], range(1)),
    "keller4-loose": ([(4, 75), (8, 75)], range(5)),
    "keller4-threads2": ([(8, 50), (8, 75)], range(2)),
}
SPARSE_WORKLOAD = "sparse-7k"
SPARSE_GRAPH_SEEDS = range(42, 66)  # 42 is acceptance criterion 8's graph
SPARSE_GRAPHS_PER_RUN = 8
SPARSE_CELLS = [(k, b) for k in (3, 4, 5) for b in (2, 3, 4)]
WORKLOADS = [*KELLER_CELLS, SPARSE_WORKLOAD]
PARALLEL_WORKLOAD = "keller4-threads2"
PARALLEL_WORKERS = 2


def import_program():
    """Import ``labelled_clique`` from this checkout's ``src/``.

    Refuses to fall back on an installed copy, so a directory holding only
    the benchmark fails instead of measuring some other build.
    """
    package = ROOT / "src" / "labelled_clique"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no {package} in this checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    import labelled_clique

    if Path(labelled_clique.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported {labelled_clique.__file__}, not {package}")
    return labelled_clique


@dataclass(frozen=True)
class Instance:
    """One timed solve: DIMACS text plus the label count, label seed and budget."""

    key: str
    cell: str
    text: str
    num_labels: int
    label_seed: int
    budget: int


def dimacs_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def keller4_text() -> str:
    from gen_keller4 import keller4_edges

    n, edges = keller4_edges()
    return dimacs_text(n, edges)


def sparse_text(seed: int, n: int = 7000, extra_edges: int = 12000, planted: int = 8) -> str:
    """Acceptance criterion 8's construction: ``extra_edges`` distinct random
    edges drawn from a splitmix64 stream, plus a planted ``planted``-clique
    on vertices 0..planted-1.  Seed 42 gives that test's graph."""
    from labelled_clique import splitmix_next

    state = seed
    edges = set()
    while len(edges) < extra_edges:
        a, state = splitmix_next(state)
        b, state = splitmix_next(state)
        u, v = a % n, b % n
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges.update((i, j) for i in range(planted) for j in range(i + 1, planted))
    return dimacs_text(n, sorted(edges))


def keller_pool(workload: str, text: str) -> list[Instance]:
    from labelled_clique import resolve_budget

    cells, label_seeds = KELLER_CELLS[workload]
    pool = []
    for num_labels, pct in cells:
        budget = resolve_budget(num_labels, budget_pct=pct)
        cell = f"K{num_labels}/b{budget}"
        pool.extend(
            Instance(f"keller4/{cell}/ls{seed}", cell, text, num_labels, seed, budget)
            for seed in label_seeds
        )
    return pool


def sparse_pool(graph_seed: int, text: str) -> list[Instance]:
    # Label seeds follow criterion 8, so graph seed 42 reproduces its nine solves.
    return [
        Instance(f"sparse7k/g{graph_seed}/K{k}/b{b}", f"K{k}/b{b}", text, k, k * 31 + b, b)
        for k, b in SPARSE_CELLS
    ]


def workload_instances(workload: str, seed: int) -> tuple[list[Instance], dict[str, str]]:
    """The run's instances in seeded order, plus the digest of each graph text.

    The digests are checked against the recorded ones, so a changed
    generator cannot silently change what the recorded answers describe.
    """
    rng = random.Random(seed)
    if workload == SPARSE_WORKLOAD:
        graph_seeds = sorted(rng.sample(SPARSE_GRAPH_SEEDS, SPARSE_GRAPHS_PER_RUN))
        texts = {f"sparse7k/g{gs}": sparse_text(gs) for gs in graph_seeds}
        pool = [inst for gs in graph_seeds for inst in sparse_pool(gs, texts[f"sparse7k/g{gs}"])]
    else:
        texts = {"keller4": keller4_text()}
        pool = keller_pool(workload, texts["keller4"])
    rng.shuffle(pool)
    return pool, {name: text_digest(text) for name, text in texts.items()}


def traced_subset(pool: list[Instance]) -> list[Instance]:
    """One instance per cell (the first in run order): the traced round."""
    seen: dict[str, Instance] = {}
    for inst in pool:
        seen.setdefault(inst.cell, inst)
    return list(seen.values())


def gnp_instances(seed: int, count: int = 16) -> list[Instance]:
    """Small seeded G(n, p) instances (n <= 16) for the oracle preflight."""
    rng = random.Random(f"gnp-{seed}")
    instances = []
    for i in range(count):
        n = rng.randint(4, 16)
        p = rng.choice((0.3, 0.5, 0.8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        num_labels = rng.randint(1, 6)
        budget = rng.randint(1, num_labels)
        text = dimacs_text(n, edges)
        instances.append(
            Instance(f"gnp/{i}", f"n{n}", text, num_labels, rng.randrange(1 << 32), budget)
        )
    return instances


def load_answers() -> dict:
    return json.loads(ANSWERS.read_text())
