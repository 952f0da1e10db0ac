"""Sequential two-pass branch and bound for the maximum labelled clique.

Pass 1 maximises clique size, filtering label sets against the budget.
Pass 2 keeps the pass-1 incumbent, fixes its size, and minimises the number
of distinct labels by filtering against (incumbent cost - 1), which shrinks
as cheaper solutions are found.  The bound at each node comes from a fresh
greedy colouring of the candidate set, consumed right to left.

Label sets only grow as vertices join the clique, so once a node's cost
equals the pass's limit no vertex joined to the clique by a new label can
extend it feasibly.  Such vertices are dropped from the candidates before
they are coloured, and below that node the label union is skipped, since
every remaining candidate adds no label.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

from .colouring import colour_order_into
from .graph import Graph, LabelledGraph, permute_by_degree

_STACK_HEADROOM = 200

# A keller4 solve looks up about 20,000 distinct (vertex, labels) keys,
# which held 3 MB once all were kept.  A closed subtree keeps one label set,
# so most lookups repeat recent keys and a small cache that is emptied when
# full still answers about 78% of them.
_WITHIN_CACHE_ENTRIES = 4096


def is_better(candidate: tuple[int, int], best: tuple[int, int]) -> bool:
    """Strict solution order: larger size wins, equal size won by lower cost."""
    size, cost = candidate
    best_size, best_cost = best
    return size > best_size or (size == best_size and cost < best_cost)


class Incumbent:
    """Best feasible clique found so far, in permuted vertex numbering."""

    __slots__ = ("clique", "labels", "size", "cost")

    def __init__(self, clique: list[int] | tuple[int, ...] = (), labels: int = 0):
        self.clique = list(clique)
        self.labels = labels
        self.size = len(self.clique)
        self.cost = labels.bit_count()

    def replace(self, clique: list[int], labels: int, size: int, cost: int) -> None:
        self.clique = list(clique)
        self.labels = labels
        self.size = size
        self.cost = cost

    def __repr__(self) -> str:
        return f"Incumbent(size={self.size}, cost={self.cost}, clique={self.clique})"


class WithinLabels(dict):
    """Per-solve cache: ``self[v, labels]`` is the bitset of the neighbours
    of ``v`` joined to it by an edge whose label is in ``labels``.

    A miss ORs together ``v``'s per-label neighbour masks, which are built
    from ``label_bits`` the first time ``v`` is looked up, so a sparse
    graph whose search never reaches its label limit builds none.  The
    cache is emptied when it reaches ``_WITHIN_CACHE_ENTRIES``.
    """

    __slots__ = ("label_bits", "rows")

    def __init__(self, label_bits: list[dict[int, int]]):
        super().__init__()
        self.label_bits = label_bits
        self.rows: dict[int, tuple[tuple[int, int], ...]] = {}

    def __missing__(self, key: tuple[int, int]) -> int:
        v, labels = key
        rows = self.rows.get(v)
        if rows is None:
            by_label: dict[int, int] = {}
            for w, bit in self.label_bits[v].items():
                by_label[bit] = by_label.get(bit, 0) | (1 << w)
            rows = self.rows[v] = tuple(by_label.items())
        mask = 0
        for bit, row in rows:
            if labels & bit:
                mask |= row
        if len(self) >= _WITHIN_CACHE_ENTRIES:
            self.clear()
        self[key] = mask
        return mask


@dataclass
class SearchStats:
    """Recursion-call counters and wall time for one solve."""

    nodes_pass1: int = 0
    nodes_pass2: int = 0
    elapsed: float = 0.0
    workers: int = 1


@dataclass
class Solution:
    """A maximum feasible clique in original vertex numbering."""

    clique: list[int]
    size: int
    labels: int
    cost: int
    stats: SearchStats = field(default_factory=SearchStats)


def _expand(first_pass, clique, cands, labels, inc, adjacency, label_bits, within,
            budget, nodes, scratch, depth, closed=False, order=None, bounds=None, m=0):
    """One branch-and-bound node: colour, then branch right to left.

    ``clique`` is used like a stack (append/pop), never a bitset, so the
    label union only ever scans the current clique.  ``inc`` is updated in
    place; it may be any object exposing size/cost reads and a
    ``replace(clique, labels, size, cost)`` that keeps only improvements.

    A branch whose cost reaches the pass's limit keeps only the candidates
    that ``within`` (a :class:`WithinLabels`) joins to every clique vertex
    by labels it already has; its subtree is searched ``closed``: no
    candidate there adds a label, so the union is skipped and each branch
    filters by its own vertex alone.  The limit only falls, so the cost
    check still runs: pass 2 may lower it below a closed node's cost.

    A caller that has already coloured the node passes ``order``, ``bounds``
    and ``m`` instead; that entry is not counted as a node, since the
    colouring was counted where it was made.  The parallel solver enters
    this way with a one-entry colouring per claimed branch.  Returns True
    when the colour bound cut the node off.
    """
    if depth == len(scratch):
        n = len(adjacency)
        scratch.append(([0] * n, [0] * n))
    if order is None:
        nodes[0] += 1
        order, bounds = scratch[depth]
        m = colour_order_into(adjacency, cands, order, bounds)
    csize = len(clique)
    for i in range(m - 1, -1, -1):
        reach = csize + bounds[i]
        inc_size = inc.size
        # bounds never decreases with i, so every remaining branch
        # would prune too: abandon the whole node.
        if reach < inc_size or (first_pass and reach == inc_size):
            return True
        v = order[i]
        grown = labels
        if not closed:
            row = label_bits[v]
            for w in clique:
                grown |= row[w]
        clique.append(v)
        cost = grown.bit_count()
        limit = budget if first_pass else inc.cost - 1
        if cost <= limit:
            size = csize + 1
            if size > inc.size or (size == inc.size and cost < inc.cost):
                inc.replace(clique, grown, size, cost)
            remaining = cands & adjacency[v]
            at_limit = cost == limit
            if remaining and at_limit:
                if closed:
                    remaining &= within[v, grown]
                else:
                    for w in clique:
                        remaining &= within[w, grown]
            if remaining:
                _expand(first_pass, clique, remaining, grown, inc, adjacency,
                        label_bits, within, budget, nodes, scratch, depth + 1,
                        at_limit)
        clique.pop()
        cands &= ~(1 << v)
    return False


def _pass_two_needed(inc: Incumbent) -> bool:
    # A clique of size >= 2 has cost >= 1 and singletons cost 0, so when the
    # incumbent cost is already <= 1 no cheaper equal-size clique can exist.
    return inc.cost > 1


def _fit_recursion_limit(graph: Graph) -> None:
    """Raise the interpreter's recursion limit only if the search could hit it.

    ``_expand`` recurses once per clique vertex, so a search is at most
    omega + 1 <= max degree + 2 frames deep; ``_STACK_HEADROOM`` leaves room
    for the caller's own frames.
    """
    needed = max(graph.degrees, default=0) + 2 + _STACK_HEADROOM
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


def solve(lg: LabelledGraph, budget: int) -> Solution:
    """Find a maximum feasible clique, cheapest among the maximum ones.

    The graph is permuted into non-increasing degree order, searched twice
    (size pass, then cost pass, keeping the incumbent in between), and the
    witness is mapped back to original numbering.
    """
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    start = perf_counter()
    permuted, perm = permute_by_degree(lg)
    _fit_recursion_limit(permuted.graph)
    n = permuted.graph.n
    adjacency = permuted.graph.adjacency
    label_bits = permuted.label_bits
    every_vertex = (1 << n) - 1
    within = WithinLabels(label_bits)
    inc = Incumbent()
    scratch: list[tuple[list[int], list[int]]] = []
    nodes1 = [0]
    _expand(True, [], every_vertex, 0, inc, adjacency, label_bits, within, budget,
            nodes1, scratch, 0)
    nodes2 = [0]
    if _pass_two_needed(inc):
        _expand(False, [], every_vertex, 0, inc, adjacency, label_bits, within, budget,
                nodes2, scratch, 0)
    elapsed = perf_counter() - start
    stats = SearchStats(nodes1[0], nodes2[0], elapsed, workers=1)
    witness = sorted(perm.to_original(inc.clique))
    return Solution(witness, inc.size, inc.labels, inc.cost, stats)
