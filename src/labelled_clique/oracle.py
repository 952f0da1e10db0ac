"""Exhaustive reference solver for validating the branch and bound.

Enumerates every clique of a small labelled graph and keeps the best
feasible one under the (size up, cost down) order, breaking remaining ties
by lexicographically smallest vertex set so golden files are reproducible.
Two enumeration strategies cross-check each other: subset enumeration over
all 2^n vertex sets up to n = 20, and recursive clique extension above.
"""

from __future__ import annotations

from .graph import LabelledGraph
from .sequential import is_better

MAX_ORACLE_VERTICES = 25
_SUBSET_LIMIT = 20


def _rows(lg: LabelledGraph) -> tuple[list[int], list[dict[int, int]]]:
    """Adjacency bitsets and label dicts (neighbour -> ``1 << label``), read
    straight from ``graph.edges()`` and ``labels()`` on purpose: the reference
    shares none of the solvers' edge lookups (``rows_among``, ``masks``)."""
    adjacency, label_rows = [0] * lg.graph.n, [{} for _ in range(lg.graph.n)]
    for (u, v), label in zip(lg.graph.edges(), lg.labels()):
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
        label_rows[u][v] = label_rows[v][u] = 1 << label
    return adjacency, label_rows


def _clique_labels(label_rows: list[dict[int, int]], vertices: list[int]) -> int:
    labels = 0
    for i, u in enumerate(vertices):
        row = label_rows[u]
        for v in vertices[i + 1 :]:
            labels |= row[v]
    return labels


class _Best:
    __slots__ = ("size", "cost", "witness")

    def __init__(self) -> None:
        self.size = 0
        self.cost = 0
        self.witness: tuple[int, ...] = ()

    def offer(self, vertices: tuple[int, ...], cost: int) -> None:
        size = len(vertices)
        if is_better((size, cost), (self.size, self.cost)) or (
            size == self.size and cost == self.cost and vertices < self.witness
        ):
            self.size = size
            self.cost = cost
            self.witness = vertices


def _solve_by_subsets(lg: LabelledGraph, budget: int) -> tuple[int, int, list[int]]:
    adjacency, label_rows = _rows(lg)
    best = _Best()
    for mask in range(1, 1 << len(adjacency)):
        rest = mask
        vertices = []
        ok = True
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            if mask & ~adjacency[v] & ~bit:
                ok = False
                break
            vertices.append(v)
            rest ^= bit
        if not ok:
            continue
        labels = _clique_labels(label_rows, vertices)
        cost = labels.bit_count()
        if cost <= budget:
            best.offer(tuple(vertices), cost)
    return best.size, best.cost, list(best.witness)


def _solve_by_extension(lg: LabelledGraph, budget: int) -> tuple[int, int, list[int]]:
    adjacency, label_rows = _rows(lg)
    best = _Best()

    def extend(clique: list[int], labels: int, cands: int) -> None:
        if clique:
            cost = labels.bit_count()
            if cost > budget:
                # Labels only accumulate along an extension chain, so no
                # superset of an over-budget clique is feasible either.
                return
            best.offer(tuple(clique), cost)
        while cands:
            bit = cands & -cands
            v = bit.bit_length() - 1
            cands ^= bit
            row = label_rows[v]
            grown = labels
            for w in clique:
                grown |= row[w]
            clique.append(v)
            extend(clique, grown, cands & adjacency[v])
            clique.pop()

    extend([], 0, (1 << len(adjacency)) - 1)
    return best.size, best.cost, list(best.witness)


def oracle_solve(lg: LabelledGraph, budget: int) -> tuple[int, int, list[int]]:
    """(size, cost, witness) of the optimum, by exhaustive enumeration.

    Guarded to at most 25 vertices; only meant to validate the real solvers
    on small instances.
    """
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    n = lg.graph.n
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle refuses n={n} > {MAX_ORACLE_VERTICES} vertices")
    if n <= _SUBSET_LIMIT:
        return _solve_by_subsets(lg, budget)
    return _solve_by_extension(lg, budget)
