"""Parallel branch and bound: forked workers over ``solve``'s own work units.

A pass hands out, in sequential order, the label subsets of
:func:`sequential._pass_subsets` or, when it runs the paper's search, the
root branches of :func:`split_root`; early root branches hold most of the
work.  Each ``os.fork`` child claims the next unit from a shared counter,
lifts its bound to the best 64-bit ``incumbent_key`` any child has
published, runs the unit and publishes its improvements.  Its witness stays
its own and comes back through a pipe with its node count; the parent keeps
the best one and forks pass 2 from it.

Node counts vary with scheduling; (size, cost) always equals the
sequential result, both being optimal.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from time import perf_counter

from .colouring import colour_order
from .graph import LabelledGraph, label_adjacency, permute_by_degree, reduce_to_core
from .sequential import (_NODES, SearchStats, Solution, WithinLabels, _expand,
                         _fit_recursion_limit, _pass_subsets, _pass_two_needed, _run_subset,
                         _search, solve)

_KEY_BITS = 32
_COST_MASK = (1 << _KEY_BITS) - 1
_SHARED = struct.Struct("QQ")  # next unit index, best published key


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
    """One worker's incumbent, keyed by :func:`incumbent_key`.

    ``replace`` installs a better candidate, witness and all; ``lift`` only
    raises the key and the (size, cost) that pruning reads, to a key another
    worker published, so the witness is always this worker's own best.
    """

    __slots__ = ("key", "size", "cost", "clique", "labels")

    def __init__(self) -> None:
        self.key = incumbent_key(0, 0)
        self.size = 0
        self.cost = 0
        self.clique: list[int] = []
        self.labels = 0

    def replace(self, clique: list[int], labels: int, size: int, cost: int) -> bool:
        """Install the candidate iff it beats the stored key; returns success."""
        key = incumbent_key(size, cost)
        if key <= self.key:
            return False
        self.key = key
        self.size = size
        self.cost = cost
        self.clique = list(clique)
        self.labels = labels
        return True

    def lift(self, key: int) -> None:
        """Prune against ``key`` from now on, if it is the better one."""
        if key > self.key:
            self.key = key
            self.size = key >> _KEY_BITS
            self.cost = _COST_MASK ^ (key & _COST_MASK)

    def snapshot(self) -> tuple[list[int], int, int, int]:
        """(clique, labels, size, cost): the witness and the bound, which
        differ only after ``lift``."""
        return list(self.clique), self.labels, self.size, self.cost


@dataclass(frozen=True)
class Subproblem:
    """One root branch: its vertex as a one-vertex ``prefix``, the root's
    candidates that remain beside it (``cands``), and its colour ``bound``
    in the root colouring."""

    prefix: tuple[int, ...]
    cands: int
    bound: int


def split_root(lg: LabelledGraph) -> list[Subproblem]:
    """One subproblem per root branch, in sequential branch order.

    The branch order is the same in both passes, so the split does not
    depend on which pass is running.
    """
    n = lg.graph.n
    cands = (1 << n) - 1
    result = colour_order(lg.graph, cands)
    subproblems = []
    for i in range(len(result.order) - 1, -1, -1):
        v = result.order[i]
        subproblems.append(Subproblem((v,), cands & lg.graph.adjacency[v], result.bounds[i]))
        cands &= ~(1 << v)
    return subproblems


def steal_from(*_) -> list[Subproblem]:
    """Always ``[]``, as workers never split a unit; the benchmark's layer
    trace still counts steals through this name."""
    return []


class _Shared:
    """A pass's next unit index and best published key, in memory shared
    with the children; a one-byte token in a pipe serialises each access."""

    __slots__ = ("memory", "token")

    def __init__(self, key: int):
        import mmap

        self.memory = mmap.mmap(-1, _SHARED.size)
        _SHARED.pack_into(self.memory, 0, 0, key)
        self.token = os.pipe()
        os.write(self.token[1], b".")

    def update(self, step: int, key: int = 0) -> tuple[int, int]:
        """Add ``step`` to the unit index and publish ``key``; returns the
        index and the best key from before."""
        os.read(self.token[0], 1)
        try:
            index, best = _SHARED.unpack_from(self.memory)
            _SHARED.pack_into(self.memory, 0, index + step, max(best, key))
        finally:
            os.write(self.token[1], b".")
        return index, best

    def close(self) -> None:
        self.memory.close()
        for fd in self.token:
            os.close(fd)


def _worker(state) -> None:
    """The loop each child runs until the pass's units run out.

    It appends to ``state``'s last item, a list, the child's own best
    witness (clique, labels), its nodes and the label subsets it searched;
    the benchmark's layer trace wraps this function and drops its return
    value.  A root branch enters ``_expand`` as a one-entry colouring of the
    root, which the parent counted.
    """
    shared, units, first_pass, lg, by_label, within, budget, out = state
    inc = SharedIncumbent()
    search = _search(first_pass, inc, lg.graph.adjacency, lg.label_bits, within, budget)
    every = (1 << lg.graph.n) - 1
    searched = 0
    while True:
        index, key = shared.update(1)
        if index >= len(units):
            out.append((inc.clique, inc.labels, search[_NODES][0], searched))
            return
        inc.lift(key)
        unit = units[index]
        if isinstance(unit, Subproblem):
            _expand(search, [], unit.cands, 0, False, unit.prefix, (unit.bound,), 1)
        else:
            nodes = _run_subset(inc, first_pass, lg, by_label, every, unit)
            if nodes is not None:
                search[_NODES][0] += nodes
                searched += 1
        if inc.key > key:
            shared.update(0, inc.key)


def _child(write: int, state) -> None:
    """Run ``_worker`` in a forked child and send its result, or the
    exception it raised, through ``write``.  Never returns."""
    try:
        import pickle

        try:
            _worker(state)
            data = pickle.dumps((True, state[-1][0]))
        except BaseException as exc:  # the parent re-raises it
            data = pickle.dumps((False, exc))
        with open(write, "wb") as stream:
            stream.write(data)
    finally:
        os._exit(0)


def _run_pass(children: int, state, key: int) -> list[tuple[list[int], int, int, int]]:
    """Fork ``children`` workers over a pass whose bound starts at ``key``;
    returns each one's :func:`_worker` result.  Every child has been
    reaped when this returns or raises."""
    import pickle
    import signal

    shared = _Shared(key)
    pids: list[int] = []
    reads: list[int] = []
    try:
        for _ in range(children):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write, (shared, *state, []))
            finally:
                os.close(write)
            pids.append(pid)
        results = []
        for read in reads:
            with open(read, "rb", closefd=False) as stream:
                data = stream.read()
            if not data:
                raise RuntimeError("a worker exited without a result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            results.append(result)
        return results
    finally:
        # A child that has finished is a zombie until it is waited for, so
        # the kill cannot reach a recycled pid.
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in reads:
            os.close(read)
        shared.close()


def solve_parallel(
    lg: LabelledGraph,
    budget: int,
    workers: int | None = None,
) -> Solution:
    """Two-pass parallel search; (size, cost) always equals the sequential result.

    ``workers`` defaults to the CPUs this process may run on; one worker,
    or no ``os.fork``, runs :func:`sequential.solve`.  No pass forks more
    children than it has units, and every child is reaped before this
    returns or raises.  Pass 2 forks from pass 1's merged incumbent.
    """
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or not hasattr(os, "fork"):
        return solve(lg, budget)
    start = perf_counter()
    permuted, perm = permute_by_degree(lg, reduce_to_core(lg, budget))
    _fit_recursion_limit(permuted.graph)
    within = WithinLabels(permuted.label_bits)
    best = SharedIncumbent()
    by_label = None
    nodes, subsets, worker_nodes = [0, 0], [0, 0], []
    for index, first_pass in enumerate((True, False)):
        if not (first_pass or _pass_two_needed(best)):
            break
        units = _pass_subsets(permuted, first_pass, budget, best.cost)
        if units is None:
            units = split_root(permuted)
            nodes[index] = 1  # the root colouring split_root made
        else:
            by_label = by_label or label_adjacency(permuted)
        state = (units, first_pass, permuted, by_label, within, budget)
        results = _run_pass(min(workers, len(units)), state, best.key)
        worker_nodes += [0] * (len(results) - len(worker_nodes))
        for slot, (clique, labels, count, searched) in enumerate(results):
            best.replace(clique, labels, len(clique), labels.bit_count())
            nodes[index] += count
            subsets[index] += searched
            worker_nodes[slot] += count
    clique, labels, size, cost = best.snapshot()
    elapsed = perf_counter() - start
    stats = SearchStats(*nodes, elapsed, len(worker_nodes), vertices_searched=permuted.graph.n,
                        subsets_pass1=subsets[0], subsets_pass2=subsets[1],
                        worker_nodes=worker_nodes)
    return Solution(sorted(perm.to_original(clique)), size, labels, cost, stats)
