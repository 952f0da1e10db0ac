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

A pass may instead search the subgraphs G_T that keep only the edges
labelled in T, with no label union: every feasible clique lies in some G_T
with |T| = min(budget, K), and trying the smallest T first finds the
cheapest clique of a size.  :func:`_few` decides from the graph's size and
average degree whether the subsets are worth it.

A pass runs its work units in sequential order: the label subsets, or the
root's branches (:class:`Subproblem`) when it runs the paper's search.
:func:`_solve` is the pass loop of both solvers: :func:`solve` runs each
pass's units in this process and stops at the first dead one, and
``parallel.solve_parallel`` hands the same units to forked workers.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, zip_longest
from math import comb
from operator import or_
from time import perf_counter

from .colouring import colour_order, colour_order_into
from .graph import (Graph, LabelledGraph, clique_cost, label_adjacency, permute_by_degree,
                    reduce_to_core)

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


_KEY_BITS = 32
_COST_MASK = (1 << _KEY_BITS) - 1


def incumbent_key(size: int, cost: int) -> int:
    """Encode (size, cost) as one unsigned key that sorts like the solution order.

    High 32 bits hold the size, low 32 bits the bitwise complement of the
    cost, so ``key(a) > key(b)`` exactly when ``a`` is the better solution.
    """
    if not 0 <= size <= _COST_MASK:
        raise ValueError(f"size out of range: {size}")
    if not 0 <= cost <= _COST_MASK:
        raise ValueError(f"cost out of range: {cost}")
    return (size << _KEY_BITS) | (_COST_MASK ^ cost)


class Incumbent:
    """Best feasible clique found so far, in permuted vertex numbering,
    keyed by :func:`incumbent_key`.

    ``replace`` installs a better candidate, witness and all; ``lift`` only
    raises the key and the (size, cost) that pruning reads, to a key another
    worker published, so the witness is always this search's own best.
    """

    __slots__ = ("clique", "labels", "size", "cost", "key")

    def __init__(self, clique: list[int] | tuple[int, ...] = (), labels: int = 0):
        self.clique = list(clique)
        self.labels = labels
        self.size = len(self.clique)
        self.cost = labels.bit_count()
        self.key = incumbent_key(self.size, self.cost)

    def replace(self, clique: list[int], labels: int, size: int, cost: int) -> bool:
        """Install the candidate iff it beats the stored key; returns success."""
        key = incumbent_key(size, cost)
        if key <= self.key:
            return False
        self.key = key
        self.clique = list(clique)
        self.labels = labels
        self.size = size
        self.cost = cost
        return True

    def lift(self, key: int) -> None:
        """Prune against ``key`` from now on, if it is the better one."""
        if key > self.key:
            self.key = key
            self.size = key >> _KEY_BITS
            self.cost = _COST_MASK ^ (key & _COST_MASK)

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
    """Recursion-call counters and wall time for one solve, the number of
    vertices left to search after the core peel, the label-subset
    sub-searches each pass ran (0 when it ran the paper's search), and the
    nodes each forked worker searched over both passes (empty in ``solve``)."""

    nodes_pass1: int = 0
    nodes_pass2: int = 0
    elapsed: float = 0.0
    workers: int = 1
    vertices_searched: int = 0
    subsets_pass1: int = 0
    subsets_pass2: int = 0
    worker_nodes: list[int] = field(default_factory=list)


@dataclass
class Solution:
    """A maximum feasible clique in original vertex numbering."""

    clique: list[int]
    size: int
    labels: int
    cost: int
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class Subproblem:
    """One root branch: its vertex as a one-vertex ``prefix``, the root's
    candidates that remain beside it (``cands``), and its colour ``bound``
    in the root colouring."""

    prefix: tuple[int, ...]
    cands: int
    bound: int


_NODES = 6


def _search(first_pass, inc, adjacency, label_bits, within, budget):
    """The search context of one pass, as the tuple :func:`_expand` takes.

    It holds the pass's constants, then the counters ``[nodes, subsets]``
    (at index ``_NODES``): the nodes searched and the label-subset
    sub-searches run.  Last come the scratch buffers: one ``(order,
    bounds)`` pair per clique size, grown on demand, so a context serves
    one search at a time.
    """
    return (first_pass, inc, adjacency, label_bits, within, budget, [0, 0], [])


def _expand(search, clique, cands, labels, closed=False, order=None, bounds=None, m=0):
    """One branch-and-bound node: colour, then branch right to left.

    ``search`` is the pass's context from :func:`_search`.  ``clique`` is
    used like a stack (append/pop), never a bitset, so the label union only
    ever scans the current clique, and its length picks the node's scratch
    buffers.  The :class:`Incumbent` is updated in place.

    A branch whose cost reaches the pass's limit keeps only the candidates
    that ``within`` (a :class:`WithinLabels`) joins to every clique vertex
    by labels it already has; its subtree is searched ``closed``: no
    candidate there adds a label, so the union is skipped and each branch
    filters by its own vertex alone.  The limit only falls, so the cost
    check still runs: pass 2 may lower it below a closed node's cost.

    A caller that has already coloured the node passes ``order``, ``bounds``
    and ``m`` instead; that entry is not counted as a node, since the
    colouring was counted where it was made.  Every root branch enters
    this way, as a one-entry colouring of the root (:func:`_run_unit`).
    Returns True when the colour bound cut the node off.
    """
    first_pass, inc, adjacency, label_bits, within, budget, nodes, scratch = search
    csize = len(clique)
    if order is None:
        nodes[0] += 1
        while csize >= len(scratch):
            n = len(adjacency)
            scratch.append(([0] * n, [0] * n))
        order, bounds = scratch[csize]
        m = colour_order_into(adjacency, cands, order, bounds)
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
                _expand(search, clique, remaining, grown, at_limit)
        clique.pop()
        cands &= ~(1 << v)
    return False


def _fit_recursion_limit(graph: Graph) -> None:
    """Raise the interpreter's recursion limit only if the search could hit it.

    ``_expand`` recurses once per clique vertex, so a search is at most
    omega + 1 <= max degree + 2 frames deep; ``_STACK_HEADROOM`` leaves room
    for the caller's own frames.
    """
    needed = max(graph.degrees, default=0) + 2 + _STACK_HEADROOM
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


def _few(count: int, graph: Graph) -> bool:
    """True when ``count`` label-subset sub-searches are worth their setup.

    Each builds and colours n rows of n bits.  That pays when the subsets
    are no more than the average degree d = 2m/n, and when a row's n/64
    machine words are no more than d as well: on a sparse graph of
    thousands of vertices, building the rows outweighs the whole search.
    """
    degree_sum = sum(graph.degrees)
    return count * graph.n <= degree_sum and graph.n * graph.n <= 64 * degree_sum


def _search_subset(inc, lg: LabelledGraph, by_label, labels: tuple[int, ...]) -> int:
    """Search G_T closed for T = ``labels``; returns the nodes it took.

    G_T's rows are the OR of ``by_label``'s rows for T.  Its limit is
    |T| + 1, which no cost in G_T reaches, so no branch filters through
    ``within``.  A witness found here is recorded with T as its labels, which
    can overstate them, so its own label set replaces T afterwards.
    """
    rows = by_label[labels[0]]
    for k in labels[1:]:
        rows = list(map(or_, rows, by_label[k]))
    mask = sum(1 << k for k in labels)
    search = _search(True, inc, rows, lg.label_bits, None, len(labels) + 1)
    _expand(search, [], (1 << lg.graph.n) - 1, mask, True)
    if inc.labels == mask:
        labels, cost = clique_cost(lg, inc.clique)
        inc.replace(inc.clique, labels, inc.size, cost)
    return search[_NODES][0]


def _pass_subsets(lg: LabelledGraph, first_pass: bool, budget: int,
                  cost: int) -> list[tuple[int, ...]] | None:
    """The label subsets a pass searches, in order: every T with |T| =
    min(budget, K) in pass 1, T of size 1 ... cost - 1 in pass 2.  None when
    :func:`_few` leaves the pass to the paper's search."""
    sizes = [min(budget, lg.num_labels)] if first_pass else range(1, cost)
    if not _few(sum(comb(lg.num_labels, c) for c in sizes), lg.graph):
        return None
    return [t for c in sizes for t in combinations(range(lg.num_labels), c)]


def _root_branches(lg: LabelledGraph) -> Iterator[Subproblem]:
    """The root's branches, in sequential branch order, drawn lazily: a
    pass that stops at a pruned branch builds none of the rest.

    The branch order is the same in both passes, so the branches do not
    depend on which pass is running.
    """
    cands = (1 << lg.graph.n) - 1
    result = colour_order(lg.graph, cands)
    for i in range(len(result.order) - 1, -1, -1):
        v = result.order[i]
        yield Subproblem((v,), cands & lg.graph.adjacency[v], result.bounds[i])
        cands &= ~(1 << v)


def _run_unit(search, lg: LabelledGraph, by_label, unit) -> bool:
    """Run one work unit of a pass against ``search``'s incumbent, adding
    its nodes, and its sub-search if it ran one, to ``search``'s counters.

    Returns False when this unit and every later unit of the pass are
    dead.  A root branch enters :func:`_expand` as a one-entry colouring of
    the root, which the pass counted; it is dead when its colour bound
    cannot beat the incumbent, as root bounds never increase along the
    pass and the incumbent only improves.  Pass 2 asks whether G_T holds a
    clique of the incumbent's size, and T is dead unless |T| < inc.cost: a
    cheaper clique lies in a smaller T, a unit of its own, and later T only
    grow while the cost only falls.  The probe is one vertex short at cost
    0, so only a clique of the full size replaces it.
    """
    if isinstance(unit, Subproblem):
        return not _expand(search, [], unit.cands, 0, False, unit.prefix, (unit.bound,), 1)
    first_pass, inc, counts = search[0], search[1], search[_NODES]
    if first_pass:
        counts[0] += _search_subset(inc, lg, by_label, unit)
    elif len(unit) < inc.cost:
        probe = Incumbent(range(inc.size - 1))
        counts[0] += _search_subset(probe, lg, by_label, unit)
        inc.replace(probe.clique, probe.labels, probe.size, probe.cost)
    else:
        return False
    counts[1] += 1
    return True


def _run_in_order(units, state, inc: Incumbent) -> tuple[int, int, list[int]]:
    """Run a pass's units in this process, in order, against ``inc``, up to
    the first dead one; returns the nodes and subsets searched, and no
    per-worker nodes, since no worker was forked."""
    first_pass, lg, by_label, within, budget = state
    search = _search(first_pass, inc, lg.graph.adjacency, lg.label_bits, within, budget)
    for unit in units:
        if not _run_unit(search, lg, by_label, unit):
            break
    return (*search[_NODES], [])


def _solve(lg: LabelledGraph, budget: int, roots, run_pass) -> Solution:
    """The two passes of both solvers, each over its work units.

    A pass's units are its label subsets when :func:`_pass_subsets` lists
    them, else the root branches ``roots(graph)`` lists after colouring the
    root.  ``run_pass(units, state, inc)`` runs them against ``inc`` and
    returns the nodes and subsets they searched and each forked worker's
    nodes.
    """
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    start = perf_counter()
    permuted, perm = permute_by_degree(lg, reduce_to_core(lg, budget))
    _fit_recursion_limit(permuted.graph)
    within = WithinLabels(permuted.label_bits)
    inc = Incumbent()
    by_label = None
    nodes, subsets, worker_nodes = [0, 0], [0, 0], []
    for index, first_pass in enumerate((True, False)):
        # A clique of size >= 2 has cost >= 1 and singletons cost 0, so when
        # the incumbent cost is already <= 1 no cheaper equal-size clique exists.
        if not first_pass and inc.cost <= 1:
            break
        units = _pass_subsets(permuted, first_pass, budget, inc.cost)
        if units is None:
            units = roots(permuted)
            nodes[index] = 1  # the root colouring
        else:
            by_label = by_label or label_adjacency(permuted)
        state = (first_pass, permuted, by_label, within, budget)
        searched, subsets[index], per_worker = run_pass(units, state, inc)
        nodes[index] += searched
        worker_nodes = [a + b for a, b in zip_longest(worker_nodes, per_worker, fillvalue=0)]
    elapsed = perf_counter() - start
    stats = SearchStats(*nodes, elapsed, len(worker_nodes) or 1,
                        vertices_searched=permuted.graph.n, subsets_pass1=subsets[0],
                        subsets_pass2=subsets[1], worker_nodes=worker_nodes)
    witness = sorted(perm.to_original(inc.clique))
    return Solution(witness, inc.size, inc.labels, inc.cost, stats)


def solve(lg: LabelledGraph, budget: int) -> Solution:
    """Find a maximum feasible clique, cheapest among the maximum ones.

    The graph is peeled to the core that holds every clique as large as a
    greedy one, permuted into non-increasing degree order, searched twice
    (size pass, then cost pass, keeping the incumbent in between), and the
    witness is mapped back to original numbering.  Each pass searches the
    label subsets' subgraphs when they are few, and the whole graph
    otherwise, one root branch at a time, all in this process.
    """
    return _solve(lg, budget, _root_branches, _run_in_order)
