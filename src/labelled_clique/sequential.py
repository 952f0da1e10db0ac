"""Sequential branch and bound for the maximum labelled clique.

The paper's search is one pass in the solution order (:func:`is_better`).
A branch that can beat the incumbent's size filters label sets against the
budget, one that can only tie it against (incumbent cost - 1), which
shrinks as cheaper solutions are found.  Both searches enter a node with
the greedy colouring of its candidates and branch right to left; each
child is coloured where it branches, at k_min, counted in the pass's node
counter, and entered only if its colouring wrote a vertex.

Label sets only grow as vertices join the clique, so a node whose cost
equals its branch's limit drops from its candidates, before colouring
them, every vertex joined to the clique by a new label.

A pass may instead search the subgraphs G_T that keep only the edges
labelled in T, with no label union: every feasible clique lies in some G_T
with |T| = min(budget, K).  Such a pass 1 maximises size, and pass 2 asks
level by level whether a G_T with |T| one below the incumbent's cost holds
a clique of its size.  Each G_T gets a plain maximum-clique search,
:func:`_max_clique`, and a level skips every T inside one whose search
ended below the pass-1 size.  :func:`_few` decides from the graph's size
and average degree whether the subsets of a pass or a level are worth it.

A pass runs its work units in sequential order: the label subsets, or the
root's branches (:class:`Subproblem`) when it runs the paper's search.
Both searches read one numbering, the top-down one of the per-label rows
that :func:`graph.permute_by_degree` fills, and colour with
:func:`colouring.colour_top_down_into`.  The paper's search colours their
union and also reads per-vertex label dicts in the same ids, which a
solve builds when a pass runs it.  :func:`_solve` is the pass loop
of both solvers, and maps the witness back to the original numbering
once, at the end.  Both run units through :func:`_run_in_order`, which
stops at the first dead one: :func:`solve` a pass's units, and each forked
worker of ``parallel.solve_parallel`` the units it claims.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from itertools import combinations, zip_longest
from math import comb
from operator import or_
from time import perf_counter
from typing import NamedTuple

from .colouring import colour_top_down_into
from .graph import LabelledGraph, cheap_rows, iter_bits, permute_by_degree, reduce_to_core

_STACK_HEADROOM = 200


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


class SearchStats(NamedTuple):
    """Node counters and wall time for one solve, the vertices left to
    search after the peel, the label-subset sub-searches each pass ran
    (0 for the paper's search; pass 2's summed over its levels, leaving out
    the subsets skipped as refuted), and the nodes each worker searched
    over all passes, the parent counting as the first worker of every
    pass; no pass 2 follows a pass 1 of the paper's search.  The records
    here are named tuples, which import without ``dataclasses``; their
    defaults are shared, and nothing changes them."""

    nodes_pass1: int = 0
    nodes_pass2: int = 0
    elapsed: float = 0.0
    workers: int = 1
    vertices_searched: int = 0
    subsets_pass1: int = 0
    subsets_pass2: int = 0
    worker_nodes: list[int] = []


class Solution(NamedTuple):
    """A maximum feasible clique in original vertex numbering."""

    clique: list[int]
    size: int
    labels: int
    cost: int
    stats: SearchStats = SearchStats()


class Subproblem(NamedTuple):
    """One root branch: its ``vertex``, the root's candidates that remain
    beside it (``cands``), and its colour ``bound`` in the root colouring."""

    vertex: int
    cands: int
    bound: int


_NODES = 7


def _search_graph(by_label: list[list[int]]):
    """The rows every search of a solve reads, from the per-label rows
    ``by_label`` that :func:`graph.permute_by_degree` fills, numbered
    top-down like them: those rows, their union, and the union's
    ``(below, bit)`` tables for :func:`colour_top_down_into`, ``below[v]``
    holding the non-neighbours under ``v`` and ``bit[v]`` being ``1 << v``."""
    # Each edge has one label, so the rows' sum is their union.
    rows = list(map(sum, zip(*by_label)))
    bit = [1 << v for v in range(len(rows))]
    return by_label, rows, ([(b - 1) & ~row for b, row in zip(bit, rows)], bit)


def _label_dicts(by_label: list[list[int]]) -> list[dict[int, int]]:
    """``dicts[v][w]``, the mask ``1 << label`` of the edge {v, w}, in the
    numbering of the per-label rows ``by_label``: what the label union reads."""
    dicts: list[dict[int, int]] = [{} for _ in by_label[0]]
    for k, rows in enumerate(by_label):
        for labels, row in zip(dicts, rows):
            labels.update(dict.fromkeys(iter_bits(row), 1 << k))
    return dicts


def _within(by_label: list[list[int]], labels: int, vertices) -> int:
    """The at-limit filter: the bitset of the vertices joined to every one
    of ``vertices`` by edges whose labels lie in the mask ``labels``, each
    vertex's mask being the OR of its per-label rows for those labels."""
    chosen = [by_label[k] for k in iter_bits(labels)]
    mask = -1
    for v in vertices:
        mask &= sum([rows[v] for rows in chosen])  # one label per edge: the sum is the OR
    return mask


def _search(state, inc):
    """The search context of one pass, as the tuple :func:`_expand` takes,
    from the pass's ``state`` (pass flag, :func:`_search_graph`, label
    dicts or None, budget) and its incumbent.

    It holds the pass's constants, then the counters ``[nodes, outcomes]``
    (at index ``_NODES``): the colourings both searches make, and the label
    mask of T and the final incumbent size of each label-subset sub-search
    run.  Last come the scratch buffers: one ``(order, bounds)`` pair per
    clique size, level 0 for a G_T root and the rest grown on demand, so a
    context serves one search at a time.
    """
    first_pass, (by_label, rows, tables), label_bits, budget = state
    n = len(rows)
    return (first_pass, inc, rows, tables, label_bits, by_label, budget, [0, []],
            [([0] * n, [0] * n)])


def _expand(search, clique, cands, labels, order, bounds, m):
    """One node of the paper's search, entered with its colouring: the
    first ``m`` entries of ``order`` and their colour ``bounds``, taken
    right to left.

    ``search`` is the pass's context from :func:`_search`.  ``clique`` is
    used like a stack (append/pop), never a bitset, so the label union only
    ever scans the current clique, and its length picks the children's
    scratch buffers.  The :class:`Incumbent` is updated in place.

    A branch whose reach (clique size plus colour bound) is below the
    incumbent's size ends the node, as the bounds only fall to the left.
    Its cost limit is the budget if it can beat that size and the size is
    not yet proven (``first_pass``), else one below the incumbent's cost.
    A branch whose cost reaches its limit keeps only the candidates that
    :func:`_within` joins to every clique vertex by labels it already has.

    Each child is coloured here at k_min, the lowest colour whose branch
    can reach the incumbent's size: ``colour_top_down_into`` writes no
    vertex below it, as such a vertex would be pruned and the incumbent
    only improves.
    """
    first_pass, inc, rows, tables, label_bits, by_label, budget, nodes, scratch = search
    csize = len(clique)
    size = csize + 1
    if size == len(scratch):
        scratch.append(([0] * len(rows), [0] * len(rows)))
    child_order, child_bounds = scratch[size]
    bit = tables[1]
    for i in range(m - 1, -1, -1):
        reach = csize + bounds[i]
        inc_size = inc.size
        if reach < inc_size:
            return
        v = order[i]
        grown = labels
        row = label_bits[v]
        for w in clique:
            grown |= row[w]
        clique.append(v)
        cost = grown.bit_count()
        limit = budget if first_pass and reach > inc_size else inc.cost - 1
        if cost <= limit:
            if size > inc.size or (size == inc.size and cost < inc.cost):
                inc.replace(clique, grown, size, cost)
            remaining = cands & rows[v]
            if remaining and cost == limit:
                remaining &= _within(by_label, grown, clique)
            if remaining:
                nodes[0] += 1
                k = colour_top_down_into(tables, remaining, child_order, child_bounds,
                                         inc.size - size)
                if k:
                    _expand(search, clique, remaining, grown, child_order, child_bounds, k)
        clique.pop()
        cands ^= bit[v]


def _fit_recursion_limit(max_degree: int) -> None:
    """Raise the interpreter's recursion limit only if the search could hit it.

    ``_expand`` recurses once per clique vertex, so a search is at most
    omega + 1 <= max degree + 2 frames deep; ``_STACK_HEADROOM`` leaves room
    for the caller's own frames.
    """
    needed = max_degree + 2 + _STACK_HEADROOM
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


def _few(count: int, n: int, degree_sum: int) -> bool:
    """True when ``count`` label-subset sub-searches are worth their setup
    on a graph of ``n`` vertices whose degrees sum to ``degree_sum``.

    Each builds and colours n rows of n bits.  That pays when the subsets
    are no more than the average degree d = 2m/n, and when
    :func:`graph.cheap_rows` allows the rows: on a sparse graph of
    thousands of vertices, building them outweighs the whole search.
    """
    return count * n <= degree_sum and cheap_rows(n, degree_sum)


def _search_subset(search, labels: int, key: int) -> int:
    """Search G_T for the T whose label mask is ``labels``, pruning against
    ``key``, and install a clique that beats it in the pass's incumbent;
    returns the final size of its own incumbent, an upper bound on the
    clique number of G_T.

    ``search`` is the pass's context from :func:`_search`.  G_T's rows are
    the OR of T's per-label rows, and ``below[v]`` keeps the non-neighbours
    under ``v``, for :func:`colour_top_down_into`.  G_T's root is coloured
    into the context's level-0 scratch pair and counted like every node.
    The witness goes to the incumbent with its own label set: the labels of
    T whose rows join one of its vertices to another.
    """
    _, inc, _, (_, bit), _, by_label, _, nodes, scratch = search
    rows = None
    for k, row in enumerate(by_label):
        if labels >> k & 1:
            rows = row if rows is None else list(map(or_, rows, row))
    tables = ([(b - 1) & ~row for b, row in zip(bit, rows)], bit)
    found = Incumbent()
    found.lift(key)
    every = (1 << len(bit)) - 1
    order, bounds = scratch[0]
    nodes[0] += 1
    m = colour_top_down_into(tables, every, order, bounds, found.size + 1)
    if m:
        _max_clique((found, rows, tables, nodes, scratch), [], every, order, bounds, m)
    if found.clique:
        members = sum(map(bit.__getitem__, found.clique))
        clique_labels = sum(1 << k for k, row in enumerate(by_label)
                            if labels >> k & 1 and any(row[v] & members for v in found.clique))
        inc.replace(found.clique, clique_labels, len(found.clique), clique_labels.bit_count())
    return found.size


def _max_clique(search, clique, cands, order, bounds, m) -> None:
    """One node of a G_T search, entered with its colouring like
    :func:`_expand`, over ``search`` = (``found``, G_T's rows, their
    tables, the pass's node counter, its scratch buffers).  ``found``
    rises on size alone.  Each child is coloured and counted here at k_min
    and entered only if its colouring wrote a vertex."""
    found, rows, tables, nodes, scratch = search
    csize = len(clique)
    if csize + 1 == len(scratch):
        scratch.append(([0] * len(rows), [0] * len(rows)))
    child_order, child_bounds = scratch[csize + 1]
    bit = tables[1]
    for i in range(m - 1, -1, -1):
        if csize + bounds[i] <= found.size:
            break
        v = order[i]
        clique.append(v)
        if csize >= found.size:
            found.replace(clique, 0, csize + 1, 0)
        remaining = cands & rows[v]
        if remaining:
            nodes[0] += 1
            k = colour_top_down_into(tables, remaining, child_order, child_bounds,
                                     found.size - csize)
            if k:
                _max_clique(search, clique, remaining, child_order, child_bounds, k)
        clique.pop()
        cands ^= bit[v]


def _pass_subsets(shape: tuple[int, int, int], first_pass: bool, budget: int, cost: int,
                  dead: list[int]) -> list[int] | None:
    """The label masks of the subsets T a pass searches, in order: every T
    with |T| = min(budget, K) in pass 1, or with |T| = ``cost`` - 1 in a
    pass-2 level, but none inside a ``dead`` mask.  None when :func:`_few`,
    counting them all, leaves them to the paper's search.  ``shape`` is
    the searched graph's (K, n, degree sum)."""
    num_labels, n, degree_sum = shape
    size = min(budget, num_labels) if first_pass else cost - 1
    if not _few(comb(num_labels, size), n, degree_sum):
        return None
    masks = (sum(1 << k for k in labels) for labels in combinations(range(num_labels), size))
    return [mask for mask in masks if all(mask & ~other for other in dead)]


def _root_branches(graph) -> Iterator[Subproblem]:
    """The root's branches over the solve's :func:`_search_graph`, in
    sequential branch order, drawn lazily: a pass that stops at a pruned
    branch builds none of the rest."""
    _, rows, tables = graph
    n = len(rows)
    cands = (1 << n) - 1
    order, bounds = [0] * n, [0] * n
    colour_top_down_into(tables, cands, order, bounds, 0)
    for i in range(n - 1, -1, -1):
        v = order[i]
        yield Subproblem(v, cands & rows[v], bounds[i])
        cands ^= tables[1][v]


def _run_unit(search, unit) -> bool:
    """Run one work unit of a pass against ``search``'s incumbent, adding
    its nodes, and its sub-search's label mask and final size if it ran
    one, to ``search``'s counters.

    Returns False when this unit and every later unit of the pass are
    dead.  A root branch is dead when its colour bound falls below the
    incumbent's size (one equal to it may tie it more cheaply), as root
    bounds never increase along the pass and the incumbent only improves;
    else it enters :func:`_expand` as a one-entry colouring of the root,
    which the pass counted.  A pass-2 level asks whether G_T holds a
    clique of the incumbent's size, and T is dead unless |T| < inc.cost:
    once one T lowers the cost, a cheaper clique lies in a smaller T, which
    the next level lists.  The probe prunes against a clique one
    vertex short at cost 0, so only a clique of the full size beats it.
    """
    first_pass, inc = search[:2]
    if isinstance(unit, Subproblem):
        if unit.bound < inc.size:
            return False
        _expand(search, [], unit.cands, 0, (unit.vertex,), (unit.bound,), 1)
        return True
    if first_pass:
        key = inc.key
    elif unit.bit_count() < inc.cost:
        key = incumbent_key(inc.size - 1, 0)
    else:
        return False
    search[_NODES][1].append((unit, _search_subset(search, unit, key)))
    return True


def _run_in_order(units, state, inc: Incumbent) -> tuple[int, list, list[int]]:
    """Run ``units``, a pass's or those a forked worker claims, in order
    against ``inc`` up to the first dead one; returns the nodes searched,
    the sub-searches' outcomes, and no per-worker nodes."""
    search = _search(state, inc)
    for unit in units:
        if not _run_unit(search, unit):
            break
    return (*search[_NODES], [])


def _solve(lg: LabelledGraph, budget: int, roots, run_pass) -> Solution:
    """The passes of both solvers, each over its units: the paper's search
    alone, or pass 1 over label subsets, then pass 2 by levels.

    The search reads only the per-label rows of the peeled graph that
    :func:`graph.permute_by_degree` fills, through the solve's
    :func:`_search_graph`, whose union rows' bit counts, taken once, give
    the degrees.  A pass's units are its label subsets when
    :func:`_pass_subsets` lists them, else the root branches
    ``roots(graph)`` lists after colouring the root; the label dicts of
    the paper's search are built then, once per solve.
    ``run_pass(units, state, inc)`` runs them against ``inc`` and returns
    the nodes they searched, the outcomes of their sub-searches and each
    forked worker's nodes.

    A sub-search that ends below the pass-1 size s, which pass 2 keeps,
    refutes an s-clique in its G_T and in every G_T inside it, so no later
    level lists those T; a level left empty ends pass 2.
    """
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    start = perf_counter()
    by_label, perm = permute_by_degree(lg, reduce_to_core(lg, budget))
    graph, label_bits = _search_graph(by_label), None
    degrees = list(map(int.bit_count, graph[1]))
    n = len(degrees)
    _fit_recursion_limit(max(degrees, default=0))
    shape = len(by_label), n, sum(degrees)
    inc, dead = Incumbent(), []
    nodes, subsets, worker_nodes = [0, 0], [0, 0], []
    first_pass, index, cost = True, 0, 0
    # A level follows only a level that lowered the cost below ``cost``, as
    # every smaller T lies in a T it searched; no pass follows the paper's
    # search, which is complete.  Singletons cost 0, so stop at cost <= 1.
    while first_pass or 1 < inc.cost < cost:
        units = _pass_subsets(shape, first_pass, budget, inc.cost, dead)
        cost = (budget + 1 if first_pass else inc.cost) if units else 0
        if units is None:
            units = roots(graph)
            nodes[index] += 1  # the root colouring
            if label_bits is None:
                label_bits = _label_dicts(by_label)
        state = (first_pass, graph, label_bits, budget)
        searched, outcomes, per_worker = run_pass(units, state, inc)
        nodes[index] += searched
        subsets[index] += len(outcomes)
        dead += [mask for mask, size in outcomes if size < inc.size]
        worker_nodes = [a + b for a, b in zip_longest(worker_nodes, per_worker, fillvalue=0)]
        first_pass, index = False, 1
    elapsed = perf_counter() - start
    stats = SearchStats(*nodes, elapsed, len(worker_nodes) or 1,
                        vertices_searched=n, subsets_pass1=subsets[0],
                        subsets_pass2=subsets[1], worker_nodes=worker_nodes)
    witness = sorted(perm.to_original(n - 1 - v for v in inc.clique))
    return Solution(witness, inc.size, inc.labels, inc.cost, stats)


def solve(lg: LabelledGraph, budget: int) -> Solution:
    """Find a maximum feasible clique, cheapest among the maximum ones.

    The graph is peeled to the vertices that can hold a clique as large as
    a greedy one, unless a colouring shows that the peel keeps every vertex
    (:func:`graph.reduce_to_core`), permuted into non-increasing degree
    order and searched, all in this process, and the witness is mapped back
    to original numbering.  The search is a size pass over the label
    subsets' subgraphs and a cost pass, when they are few, else one pass of
    the paper's search, one root branch at a time.
    """
    return _solve(lg, budget, _root_branches, _run_in_order)
