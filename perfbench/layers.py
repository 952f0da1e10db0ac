"""Per-layer tracing from outside the program.

Spans come from the harness's own calls and from wrappers installed on
module attributes for the length of a run; self time per module comes from
cProfile, worker threads included.  Nothing here edits the program: every
wrapper is removed again when the run ends, and spans, counts and profile
data stay in memory until the run writes them out.
"""

from __future__ import annotations

import cProfile
import itertools
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

MODULES = ("graph_io", "graph", "colouring", "sequential", "parallel")
WAIT = "wait"  # time blocked in threading primitives: joins and idle workers


def no_span(name: str):
    return nullcontext()


class Tracer:
    """Spans with parent links, counters, and profiles of every traced thread.

    A span is (id, parent, solve, name, start, end): ``solve`` is the id of
    the top-level span of the solve it belongs to.  Spans are recorded only
    in the main thread; worker threads contribute counts and profiles.
    """

    def __init__(self, profile: bool):
        self.profile = profile
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.profiles: list[tuple[str, cProfile.Profile]] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        solve = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, solve, name, start, end))

    def seconds(self, name: str) -> float:
        return sum(end - start for *_, span_name, start, end in self.spans if span_name == name)

    @contextmanager
    def profiled(self, kind: str):
        """Profile the calling thread for the length of the block."""
        if not self.profile:
            yield
            return
        prof = cProfile.Profile()
        prof.enable()
        try:
            yield
        finally:
            prof.disable()
            self.profiles.append((kind, prof))

    def _spanned(self, name: str, fn):
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    def _counted(self, fn, count):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(result)
            return result

        return counted

    def _count_subproblems(self, subproblems) -> None:
        self.counts["parallel.subproblems"] += len(subproblems)

    def _count_steal(self, stolen) -> None:
        if stolen:
            self.counts["parallel.subproblems"] += len(stolen)
            self.counts["parallel.steals"] += 1

    def _profiled_worker(self, worker):
        def profiled_worker(state):
            with self.profiled("worker"):
                worker(state)

        return profiled_worker

    @contextmanager
    def installed(self):
        """Install the wrappers on the program's module attributes.

        Always: a span around ``permute_by_degree`` as ``solve`` and
        ``solve_parallel`` call it.  When profiling: counters on
        ``parallel.split_root`` and ``parallel.steal_from`` (the latter runs
        under the pass lock each time a worker finds the queue empty, so it
        gets a count, not a span) and a profiler in each worker thread.
        """
        from labelled_clique import parallel, sequential

        saved = []

        def install(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        permute = self._spanned("graph.permute_by_degree", sequential.permute_by_degree)
        install(sequential, "permute_by_degree", permute)
        install(parallel, "permute_by_degree", permute)
        if self.profile:
            split_root = self._spanned("parallel.split_root", parallel.split_root)
            install(parallel, "split_root", self._counted(split_root, self._count_subproblems))
            install(parallel, "steal_from", self._counted(parallel.steal_from, self._count_steal))
            install(parallel, "_worker", self._profiled_worker(parallel._worker))
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def module_self(self, kinds=("main", "worker")) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per module over the profiles of ``kinds``.

        A built-in function's time goes to the module that called it (so
        ``int.bit_length`` inside the colouring loop counts as colouring).
        Time in ``threading`` is waiting and goes to ``wait``; the benchmark
        and the rest of the standard library go to ``other``.
        """
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for kind, prof in self.profiles:
            if kind not in kinds:
                continue
            prof.create_stats()
            for (path, _, _), (_, ncalls, tottime, _, callers) in prof.stats.items():
                if path == "~":
                    attributed = 0.0
                    for (caller_path, _, _), edge in callers.items():
                        seconds[_module_of(caller_path)] += edge[2]
                        attributed += edge[2]
                    seconds["other"] += max(0.0, tottime - attributed)
                else:
                    module = _module_of(path)
                    seconds[module] += tottime
                    calls[module] += ncalls
        return dict(seconds), dict(calls)


def _module_of(path: str) -> str:
    p = Path(path)
    if p.parent.name == "labelled_clique":
        return p.stem
    if p.name == "threading.py":
        return WAIT
    return "other"
