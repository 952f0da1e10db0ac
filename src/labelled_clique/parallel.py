"""Parallel branch and bound: depth-1 subproblem queue with distance-2 stealing.

The search tree is split immediately below the root: one subproblem per
root branch, queued in sequential branch order.  A worker colours its
depth-1 subproblem's candidates into a cursor and claims the branches one
at a time; when the queue runs dry an idle worker resplits the unstarted
branches of the in-flight cursor latest in sequential order, republishing
them as depth-2 subproblems.  Owner-claimed and stolen branches are the
same depth-2 subproblem, and every subproblem enters the sequential
``_expand`` as a one-entry colouring, so the branch step itself (bound,
label union, feasibility, incumbent update, recursion) is written once.
Workers share a single monotone incumbent encoded in one 64-bit key (high
bits size, low bits complemented cost) so a candidate can be compared and
the witness installed in one indivisible step.

Left-to-right dependencies between subtrees are deliberately ignored, so
node counts vary from run to run; the final (size, cost) always matches the
sequential solver, both being optimal.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter

from .colouring import colour_order, colour_order_into
from .graph import LabelledGraph, permute_by_degree
from .sequential import (SearchStats, Solution, WithinLabels, _expand, _fit_recursion_limit,
                         _pass_two_needed)

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


class SharedIncumbent:
    """Monotone best-so-far shared by all workers.

    Improvements are filtered twice: callers pre-check against racily read
    ``size``/``cost`` (stale reads only cost pruning power, never
    correctness), and the locked update re-validates against the key so the
    key and witness always change together and only ever increase.
    """

    __slots__ = ("_lock", "key", "size", "cost", "clique", "labels")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.key = incumbent_key(0, 0)
        self.size = 0
        self.cost = 0
        self.clique: list[int] = []
        self.labels = 0

    def replace(self, clique: list[int], labels: int, size: int, cost: int) -> bool:
        """Install the candidate iff it beats the stored key; returns success."""
        key = incumbent_key(size, cost)
        with self._lock:
            if key > self.key:
                self.key = key
                self.size = size
                self.cost = cost
                self.clique = list(clique)
                self.labels = labels
                return True
            return False

    def snapshot(self) -> tuple[list[int], int, int, int]:
        """Consistent (clique, labels, size, cost) view."""
        with self._lock:
            return list(self.clique), self.labels, self.size, self.cost


@dataclass(frozen=True)
class Subproblem:
    """A search-tree prefix of one or two fixed vertices.

    ``cands`` already excludes non-neighbours of the last prefix vertex, and
    ``labels_before`` is the label set of the prefix without that vertex, so
    replaying the prefix from the root reproduces the sequential state.
    ``bound`` is the colour bound of this branch in its parent's colouring.
    """

    position: tuple[int, ...]
    prefix: tuple[int, ...]
    cands: int
    labels_before: int
    bound: int


def split_root(lg: LabelledGraph) -> list[Subproblem]:
    """One subproblem per root branch, in sequential branch order.

    The branch order (and therefore the queue order) is the same in both
    passes, so the split does not depend on which pass is running.
    """
    n = lg.graph.n
    cands = (1 << n) - 1
    result = colour_order(lg.graph, cands)
    subproblems = []
    position = 0
    for i in range(len(result.order) - 1, -1, -1):
        v = result.order[i]
        subproblems.append(
            Subproblem(
                position=(position,),
                prefix=(v,),
                cands=cands & lg.graph.adjacency[v],
                labels_before=0,
                bound=result.bounds[i],
            )
        )
        cands &= ~(1 << v)
        position += 1
    return subproblems


class _Cursor:
    """Unstarted branches of an in-flight depth-1 subproblem.

    ``next_i`` walks the colouring right to left; the owner claims one
    branch at a time and a thief may claim all the rest.  ``top`` is the
    first branch's index, so branch ``i`` is number ``top - i`` in
    sequential order.  Mutated only under the pass lock.
    """

    __slots__ = ("position", "vertex", "labels", "order", "bounds", "cands", "next_i", "top")

    def __init__(self, position, vertex, labels, order, bounds, cands, next_i):
        self.position = position
        self.vertex = vertex
        self.labels = labels
        self.order = order
        self.bounds = bounds
        self.cands = cands
        self.next_i = next_i
        self.top = next_i


def _branch(cursor: _Cursor, i: int, cands: int, adjacency: list[int]) -> Subproblem:
    """Branch ``i`` of a cursor as a depth-2 subproblem; ``cands`` are the
    cursor's candidates before that branch is removed from them."""
    w = cursor.order[i]
    return Subproblem(
        position=cursor.position + (cursor.top - i,),
        prefix=(cursor.vertex, w),
        cands=cands & adjacency[w],
        labels_before=cursor.labels,
        bound=cursor.bounds[i],
    )


def steal_from(cursors: dict[tuple[int, ...], _Cursor], adjacency: list[int]) -> list[Subproblem]:
    """Claim every unstarted branch of the stealable cursor latest in
    sequential order, as depth-2 subproblems.  Caller holds the pass lock.

    Returns an empty list when nothing is stealable.  Claimed branches are
    removed from the cursor, so no branch can run twice, and every branch is
    either kept by the owner or returned here, so none is lost.
    """
    for position in sorted(cursors, reverse=True):
        cursor = cursors[position]
        if cursor.next_i < 0:
            continue
        stolen = []
        cands = cursor.cands
        for i in range(cursor.next_i, -1, -1):
            stolen.append(_branch(cursor, i, cands, adjacency))
            cands &= ~(1 << cursor.order[i])
        cursor.next_i = -1
        return stolen
    return []


class _PassState:
    """Queue, stealable cursors and termination accounting for one pass."""

    __slots__ = ("cond", "queue", "outstanding", "cursors", "abort", "errors",
                 "adjacency", "label_bits", "within", "budget", "incumbent",
                 "first_pass", "node_totals")

    def __init__(self, permuted, within, budget, incumbent, first_pass):
        self.cond = threading.Condition()
        self.queue: deque[Subproblem] = deque()
        self.outstanding = 0
        self.cursors: dict[tuple[int, ...], _Cursor] = {}
        self.abort = False
        self.errors: list[BaseException] = []
        self.adjacency = permuted.graph.adjacency
        self.label_bits = permuted.label_bits
        self.within = within
        self.budget = budget
        self.incumbent = incumbent
        self.first_pass = first_pass
        self.node_totals: list[int] = []


def _step(state: _PassState, sp: Subproblem, cands: int, ws_nodes, ws_scratch) -> bool:
    """The branch step of ``sp``'s last vertex, as a one-entry colouring of
    its parent node; True when the colour bound cut it off.  It enters
    not ``closed``, which is always exact: the parent is a single vertex
    (cost 0), so only a limit of 0 would make it closed, and then every
    branch fails the cost check."""
    return _expand(state.first_pass, list(sp.prefix[:-1]), cands, sp.labels_before,
                   state.incumbent, state.adjacency, state.label_bits, state.within,
                   state.budget, ws_nodes, ws_scratch, 0, False, sp.prefix[-1:],
                   (sp.bound,), 1)


def _process(state: _PassState, sp: Subproblem, ws_nodes, ws_scratch) -> None:
    """Run one queued subproblem to completion (depth 1 or stolen depth 2)."""
    if len(sp.prefix) == 2:
        # Stolen depth-2 work: plain recursion, no further resplitting.
        _step(state, sp, sp.cands, ws_nodes, ws_scratch)
        return
    # Depth-1 work: the branch step alone (no candidates, so no recursion;
    # a single vertex is always within the filter, so only the bound can
    # stop it), then its children through a stealable cursor.
    if _step(state, sp, 0, ws_nodes, ws_scratch) or not sp.cands:
        return
    ws_nodes[0] += 1
    order, bounds = ws_scratch[0]
    m = colour_order_into(state.adjacency, sp.cands, order, bounds)
    cursor = _Cursor(sp.position, sp.prefix[0], 0, order, bounds, sp.cands, m - 1)
    with state.cond:
        state.cursors[sp.position] = cursor
        state.cond.notify_all()
    try:
        while True:
            with state.cond:
                i = cursor.next_i
                if i < 0:
                    break
                cursor.next_i = i - 1
                cands_now = cursor.cands
                cursor.cands = cands_now & ~(1 << cursor.order[i])
            claim = _branch(cursor, i, cands_now, state.adjacency)
            if _step(state, claim, claim.cands, ws_nodes, ws_scratch):
                # The bound prunes every remaining branch too (bounds is
                # non-decreasing), so drain the cursor.
                with state.cond:
                    cursor.next_i = -1
                break
    finally:
        with state.cond:
            del state.cursors[sp.position]


def _worker(state: _PassState) -> None:
    nodes = [0]
    scratch: list[tuple[list[int], list[int]]] = []
    try:
        while True:
            with state.cond:
                while True:
                    if state.abort:
                        return
                    if state.queue:
                        item = state.queue.popleft()
                        break
                    stolen = steal_from(state.cursors, state.adjacency)
                    if stolen:
                        state.queue.extend(stolen)
                        state.outstanding += len(stolen)
                        state.cond.notify_all()
                        continue
                    if state.outstanding == 0:
                        return
                    state.cond.wait()
            _process(state, item, nodes, scratch)
            with state.cond:
                state.outstanding -= 1
                if state.outstanding == 0:
                    state.cond.notify_all()
    except BaseException as exc:  # propagate to the caller, never hang the pass
        with state.cond:
            state.errors.append(exc)
            state.abort = True
            state.cond.notify_all()
    finally:
        state.node_totals.append(nodes[0])


def _run_pass(permuted, within, budget, incumbent, first_pass, workers) -> int:
    state = _PassState(permuted, within, budget, incumbent, first_pass)
    subproblems = split_root(permuted)
    state.queue.extend(subproblems)
    state.outstanding = len(subproblems)
    threads = [threading.Thread(target=_worker, args=(state,)) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if state.errors:
        raise state.errors[0]
    # The root split's colouring mirrors the sequential root node.
    return 1 + sum(state.node_totals)


def solve_parallel(
    lg: LabelledGraph,
    budget: int,
    workers: int | None = None,
) -> Solution:
    """Two-pass parallel search; (size, cost) always equals the sequential result.

    ``workers`` defaults to the hardware concurrency.  A full barrier sits
    between the passes because the cost pass filters against the final
    size-pass incumbent.
    """
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    start = perf_counter()
    permuted, perm = permute_by_degree(lg)
    _fit_recursion_limit(permuted.graph)
    within = WithinLabels(permuted.label_bits)
    incumbent = SharedIncumbent()
    nodes1 = _run_pass(permuted, within, budget, incumbent, True, workers)
    nodes2 = 0
    if _pass_two_needed(incumbent):
        nodes2 = _run_pass(permuted, within, budget, incumbent, False, workers)
    clique, labels, size, cost = incumbent.snapshot()
    elapsed = perf_counter() - start
    stats = SearchStats(nodes1, nodes2, elapsed, workers=workers)
    witness = sorted(perm.to_original(clique))
    return Solution(witness, size, labels, cost, stats)
