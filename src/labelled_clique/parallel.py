"""Parallel branch and bound: forked workers over ``solve``'s own work units.

:func:`solve_parallel` runs the pass loop of :func:`sequential.solve`;
only how a pass's units run differs.  They are handed out in sequential
order: the label subsets of :func:`sequential._pass_subsets` or, when a
pass runs the paper's search, the root branches of :func:`split_root`;
early root branches hold most of the work.  The parent forks one child per
worker after the first and is that first worker itself, as in lazy task
creation, where the spawning thread works too.  Each worker claims the
next unit from a shared counter, lifts its bound to the best 64-bit
``incumbent_key`` any worker has published, runs the unit and publishes
its improvements; a dead unit ends the pass for every worker.  A child's
witness stays its own and comes back through a pipe with its node count
and the outcomes of its sub-searches; the parent keeps the best witness,
its own included, forks pass 2 from it, and skips the subsets the
outcomes refute.

Node counts vary with scheduling; (size, cost) always equals the
sequential result, both being optimal.
"""

from __future__ import annotations

import os
import struct
from functools import partial

# permute_by_degree is unused here, but perfbench/layers.py wraps it by name.
from .graph import LabelledGraph, permute_by_degree  # noqa: F401
from .sequential import (_NODES, Incumbent, Solution, Subproblem, _root_branches, _run_unit,
                         _search, _solve, solve)

_SHARED = struct.Struct("QQ")  # next unit index, best published key


def split_root(graph) -> list[Subproblem]:
    """One subproblem per root branch of a solve's
    :func:`sequential._search_graph`, in sequential branch order: every
    branch that :func:`sequential._root_branches` draws, listed so that
    workers can claim them by index."""
    return list(_root_branches(graph))


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


def _claim(state) -> tuple:
    """The loop each worker of a pass runs until its units run out, from
    ``state``, (shared counter, units, *pass state); returns its own best
    witness (clique, labels), its nodes and its sub-searches' outcomes.

    A dead unit moves the shared index past the end, since every later
    unit is dead too, so no worker claims another.
    """
    shared, units, *pass_state = state
    inc = Incumbent()
    search = _search(pass_state, inc)
    while True:
        index, key = shared.update(1)
        if index >= len(units):
            return (inc.clique, inc.labels, *search[_NODES])
        inc.lift(key)
        if not _run_unit(search, units[index]):
            shared.update(len(units))
        if inc.key > key:
            shared.update(0, inc.key)


def _worker(state) -> None:
    """A forked child's :func:`_claim`, whose result it appends to
    ``state``'s last item, a list.  The benchmark's layer trace wraps this
    function in a profiler and drops its return value; the parent calls
    :func:`_claim` directly, so that no profiler nests in its own."""
    state[-1].append(_claim(state[:-1]))


def _child(write: int, state, index: int) -> None:
    """Run ``_worker`` in a forked child and send its result, or the
    exception it raised, through ``write``.  Never returns.

    The ``index``-th worker of a pass first moves onto the ``index``-th CPU
    of its mask, modulo their count: left to the scheduler, the children of
    a pass forked from one process can share a CPU.  The parent is worker
    0 and stays where it is."""
    try:
        import pickle

        if hasattr(os, "sched_setaffinity"):
            try:
                cpus = sorted(os.sched_getaffinity(0))
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            except OSError:
                pass
        try:
            _worker(state)
            data = pickle.dumps((True, state[-1][0]))
        except BaseException as exc:  # the parent re-raises it
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:  # say what it was, if it cannot cross the pipe
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as stream:
            stream.write(data)
    finally:
        os._exit(0)


def _run_pass(workers: int, units, state, best: Incumbent) -> tuple[int, list, list[int]]:
    """Run a pass's ``units`` in up to ``workers`` workers from ``best``'s
    key: this process and a forked child for each worker after the first,
    no more workers than units.  Merges their witnesses into ``best``, this
    process's first, and returns the nodes they searched, their
    sub-searches' outcomes and each worker's nodes.  Every child has been
    reaped when this returns or raises."""
    import pickle
    import signal

    shared = _Shared(best.key)
    pids: list[int] = []
    reads: list[int] = []
    try:
        for index in range(1, min(workers, len(units))):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(write, (shared, units, *state, []), index)
            finally:
                os.close(write)
            pids.append(pid)
        results = [_claim((shared, units, *state))]
        for read in reads:
            with open(read, "rb", closefd=False) as stream:
                data = stream.read()
            if not data:
                raise RuntimeError("a worker exited without a result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            results.append(result)
        outcomes, per_worker = [], []
        for clique, labels, count, searched in results:
            best.replace(clique, labels, len(clique), labels.bit_count())
            outcomes += searched
            per_worker.append(count)
        return sum(per_worker), outcomes, per_worker
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

    ``workers`` defaults to the CPUs this process may run on, and counts
    this process as the first; one worker, or no ``os.fork``, runs
    :func:`sequential.solve`.  No pass runs more workers than it has units,
    and every child is reaped before this returns or raises.  Pass 2 forks
    from pass 1's merged incumbent.
    """
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or not hasattr(os, "fork"):
        return solve(lg, budget)
    return _solve(lg, budget, split_root, partial(_run_pass, workers))
