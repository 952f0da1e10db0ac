import gc
import importlib.util
import os
import signal
import time
from collections import Counter
from pathlib import Path

import pytest

from labelled_clique import (
    Incumbent,
    build_graph,
    build_labelled,
    clique_cost,
    colour_order,
    incumbent_key,
    is_better,
    permute_by_degree,
    solve,
    solve_parallel,
    split_root,
)
import labelled_clique.colouring as colouring_mod
import labelled_clique.parallel as par_mod
import labelled_clique.sequential as seq_mod
from labelled_clique.colouring import colour_top_down_into
from labelled_clique.graph import reduce_to_core

from conftest import paper_solve, paper_state, random_instance


def test_incumbent_key_examples():
    assert incumbent_key(4, 2) == 0x00000004_FFFFFFFD
    assert incumbent_key(0, 0) == 0x00000000_FFFFFFFF
    assert incumbent_key(5, 4) > incumbent_key(4, 2) > incumbent_key(4, 3) > incumbent_key(3, 0)


def test_incumbent_key_range_checks():
    with pytest.raises(ValueError):
        incumbent_key(-1, 0)
    with pytest.raises(ValueError):
        incumbent_key(0, 1 << 32)


def test_incumbent_key_orders_like_is_better():
    pairs = [(s, c) for s in range(0, 12) for c in range(0, 12)]
    for a in pairs:
        for b in pairs:
            assert (incumbent_key(*a) > incumbent_key(*b)) == is_better(a, b)


def held(inc):
    """(clique, labels, size, cost): the witness and the bound, which
    differ only after ``lift``."""
    return list(inc.clique), inc.labels, inc.size, inc.cost


def test_try_improve_examples():
    inc = Incumbent()
    assert inc.replace([7, 8, 9, 10], 0b111, 4, 3)  # (4, 3) over empty
    assert inc.replace([1, 2, 3, 4], 0b011, 4, 2)  # (4, 2) improves (4, 3)
    assert (inc.size, inc.cost) == (4, 2)
    snap_before = held(inc)
    assert not inc.replace([5], 0, 1, 0)  # (1, 0) cannot unseat (4, 2)
    assert held(inc) == snap_before


def test_try_improve_keeps_witness_and_key_consistent():
    inc = Incumbent()
    inc.replace([3, 4], 0b1, 2, 1)
    clique, labels, size, cost = held(inc)
    assert size == len(clique) == 2
    assert cost == labels.bit_count() == 1
    assert inc.key == incumbent_key(size, cost)


def test_lift_raises_the_bound_but_keeps_the_witness():
    inc = Incumbent()
    inc.replace([1, 2, 3], 0b11, 3, 2)
    inc.lift(incumbent_key(4, 3))  # another worker's (4, 3)
    assert (inc.size, inc.cost) == (4, 3)
    assert held(inc) == ([1, 2, 3], 0b11, 4, 3)
    inc.lift(incumbent_key(2, 0))  # never lowers the bound
    assert (inc.size, inc.cost) == (4, 3)
    assert not inc.replace([5, 6, 7], 0b1, 3, 1)
    assert inc.replace([4, 5, 6, 7], 0b1, 4, 1)
    assert held(inc) == ([4, 5, 6, 7], 0b1, 4, 1)


def test_key_sequence_monotone_under_mixed_offers():
    inc = Incumbent()
    keys = [inc.key]
    for size, labels in [(1, 0), (3, 0b101), (2, 0), (3, 0b1), (4, 0b1111), (3, 0)]:
        inc.replace(list(range(size)), labels, size, labels.bit_count())
        keys.append(inc.key)
    assert all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))


def test_split_root_fig1(fig1):
    # The search numbers the permuted graph top-down, vertex v as 6 - v.
    by_label, perm = permute_by_degree(fig1)
    _, rows, tables = graph = seq_mod._search_graph(by_label)
    subs = split_root(graph)
    assert len(subs) == 7
    order, bounds = [0] * 7, [0] * 7
    colour_top_down_into(tables, (1 << 7) - 1, order, bounds, 0)
    # queue order is the sequential branch order: right to left over the
    # root colouring, the mirror image of the bottom-up one
    assert [sp.vertex for sp in subs] == list(reversed(order))
    assert [sp.bound for sp in subs] == list(reversed(bounds))
    new = perm.forward.index
    permuted = build_graph(7, [(new(u), new(v)) for u, v in fig1.graph.edges()])
    result = colour_order(permuted, (1 << 7) - 1)
    assert [6 - v for v in order] == result.order and bounds == result.bounds
    # candidates replay the sequential loop: earlier-branched vertices are
    # gone, and the rest intersect the branch vertex's neighbourhood
    remaining = (1 << 7) - 1
    for sp in subs:
        v = sp.vertex
        assert rows[v] == sum(1 << (6 - w) for w in range(7) if permuted.adjacent(6 - v, w))
        assert sp.cands == remaining & rows[v]
        remaining &= ~(1 << v)


def test_split_root_empty_graph():
    lg = build_labelled(build_graph(0, []), 1, {})
    assert split_root(seq_mod._search_graph(permute_by_degree(lg)[0])) == []


def test_parallel_fig1(fig1):
    solution = solve_parallel(fig1, 3, workers=4)
    assert (solution.size, solution.cost) == (4, 2)
    labels, cost = clique_cost(fig1, solution.clique)
    assert labels == solution.labels and cost == solution.cost
    assert solution.stats.workers == 4


def test_single_worker_matches_sequential():
    for seed in range(5):
        lg = random_instance(15, 0.5, 3, seed=900 + seed)
        for budget in (1, 2, 3):
            seq = solve(lg, budget)
            par = solve_parallel(lg, budget, workers=1)
            assert (par.size, par.cost) == (seq.size, seq.cost)


def test_many_workers_match_sequential():
    for seed in range(6):
        lg = random_instance(22, 0.5, 4, seed=50 + seed)
        for budget in (2, 3):
            seq = solve(lg, budget)
            for workers in (2, 4):
                par = solve_parallel(lg, budget, workers=workers)
                assert (par.size, par.cost) == (seq.size, seq.cost)
                labels, cost = clique_cost(lg, par.clique)
                assert cost == par.cost <= budget and labels == par.labels


def record_nodes(monkeypatch) -> list[int]:
    """Patch the colouring kernel both searches call to record each node's
    candidate set, numbered top-down, colour it whole (k_min = 0) and lift every colour bound to n, so no node is cut
    off by its bound and the explored tree no longer depends on when the
    incumbent improves.  :func:`recorded_solve` checks that a solve
    recorded every node it counted."""
    records: list[int] = []

    def recording(kernel):
        def recorded(rows, cands, order, bounds, kmin):
            records.append(cands)
            m = kernel(rows, cands, order, bounds, 0)
            bounds[:m] = [len(order)] * m
            return m

        return recorded

    patched = recording(colouring_mod.colour_top_down_into)
    for module in (colouring_mod, seq_mod):
        monkeypatch.setattr(module, "colour_top_down_into", patched)
    return records


def recorded_solve(records: list[int], run):
    """Run one in-process solve with :func:`record_nodes` installed.

    Each node the solve counts is one colouring, so a kernel that a search
    calls past the patched names would leave nodes unrecorded, and a test
    built on the records would check nothing."""
    records.clear()
    solution = run()
    counted = solution.stats.nodes_pass1 + solution.stats.nodes_pass2
    assert len(records) == counted > 0, "a search coloured nodes past the recording kernels"
    return solution


def first_pass_nodes(records: list[int], run) -> tuple[Counter, object]:
    """Multiset of the size-pass node records of one solve, and the solve."""
    solution = recorded_solve(records, run)
    return Counter(records[: solution.stats.nodes_pass1]), solution


def drive_worker(state):
    """Run ``_worker`` in this process as the only worker of a pass from
    :func:`paper_state` over its root branches; returns its result
    (witness, labels, nodes and sub-search outcomes) and the unit index and
    best key it left shared."""
    shared = par_mod._Shared(incumbent_key(0, 0))
    try:
        out = []
        par_mod._worker((shared, par_mod.split_root(state[1]), *state, out))
        shared_state = shared.update(0)
    finally:
        shared.close()
    return out[0], shared_state


def test_replay_accounting_prefixes_match_sequential(monkeypatch):
    # With no bound pruning the size pass explores a fixed tree, so the
    # nodes the unit runner colours over split_root's branches must be
    # exactly the nodes the paper's sequential search colours, at every
    # depth, each exactly once.  Workers split the units between them, so
    # one in-process runner that claims them all stands for any number.
    records = record_nodes(monkeypatch)
    lg = random_instance(20, 0.5, 3, seed=1234)
    seq_nodes, seq = first_pass_nodes(records, lambda: paper_solve(lg, 2))
    assert sum(seq_nodes.values()) > 1
    by_label, _ = permute_by_degree(lg, reduce_to_core(lg, 2))
    state = paper_state(by_label, True, 2)
    records.clear()
    (clique, labels, nodes, outcomes), _ = drive_worker(state)
    assert Counter(records) == seq_nodes  # no node twice, none lost, none invented
    assert outcomes == []  # root branches run no sub-search
    assert 1 + nodes == seq.stats.nodes_pass1  # the root colouring is split_root's
    assert len(clique) == seq.size
    # solve walks the same root branches, one unit at a time, when a pass
    # has too many label subsets to decompose.
    lg = random_instance(24, 0.6, 16, seed=2024)
    paper_nodes, paper = first_pass_nodes(records, lambda: paper_solve(lg, 2))
    solve_nodes, solved = first_pass_nodes(records, lambda: solve(lg, 2))
    assert solved.stats.subsets_pass1 == 0
    assert solve_nodes == paper_nodes
    assert solved.stats.nodes_pass1 == paper.stats.nodes_pass1


def test_worker_drains_the_pass_at_a_dead_unit(monkeypatch):
    # Root bounds never increase along the pass and the bound only rises,
    # so the first branch the bound prunes ends the pass for every worker.
    lg = random_instance(24, 0.6, 16, seed=2024)
    by_label, _ = permute_by_degree(lg, reduce_to_core(lg, 2))
    state = paper_state(by_label, True, 2)
    ran = []
    run_unit = seq_mod._run_unit

    def counting(search, unit):
        ran.append(unit)
        return run_unit(search, unit)

    monkeypatch.setattr(seq_mod, "_run_unit", counting)
    (clique, labels, nodes, _), (index, key) = drive_worker(state)
    assert len(ran) < len(split_root(state[1])) <= index
    seq = solve(lg, 2)
    assert (len(clique), labels.bit_count()) == (seq.size, seq.cost)
    assert key == incumbent_key(seq.size, seq.cost)  # its claims published its best
    assert 1 + nodes == seq.stats.nodes_pass1


def test_each_unit_runs_once_with_more_workers_than_cores(monkeypatch):
    # With every colour bound lifted the size pass's tree is fixed, so a
    # unit that a lost counter update let two workers claim, or that none
    # ran, would move the node count.  One instance hands out label
    # subsets, the other (16 labels, too many subsets) root branches.
    records = record_nodes(monkeypatch)
    workers = 3 * len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 6
    for num_labels, subsets in ((3, True), (16, False)):
        lg = random_instance(24, 0.6, num_labels, seed=2024)
        seq = recorded_solve(records, lambda: solve(lg, 2))
        assert (seq.stats.subsets_pass1 > 0) == subsets
        for _ in range(3):
            par = solve_parallel(lg, 2, workers=workers)
            assert par.stats.nodes_pass1 == seq.stats.nodes_pass1
            assert par.stats.subsets_pass1 == seq.stats.subsets_pass1


def test_benchmark_layer_trace_still_hooks_in(fig1):
    # perfbench/layers.py wraps program attributes by name; one that goes
    # missing makes every traced benchmark run fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer(profile=True)
    runs = (lambda: solve(fig1, 3),
            lambda: solve_parallel(random_instance(24, 0.6, 16, seed=2024), 2, workers=2))
    with tracer.installed():
        for run in runs:
            with tracer.span("solve"):
                run()
    solves = [sid for sid, _, _, name, _, _ in tracer.spans if name == "solve"]
    permutes = [solve for _, _, solve, name, _, _ in tracer.spans
                if name == "graph.permute_by_degree"]
    assert sorted(permutes) == sorted(solves) and len(solves) == 2
    assert tracer.counts["parallel.subproblems"] > 0


def test_solves_leave_no_reference_cycles(fig1):
    # A cycle would keep a solve's permuted graph, label cache and scratch
    # buffers alive until a full collection runs, raising peak memory.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for run in (lambda: solve(fig1, 3), lambda: solve_parallel(fig1, 3, workers=2)):
            gc.collect()
            run()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_parallel_rejects_bad_arguments(fig1):
    with pytest.raises(ValueError):
        solve_parallel(fig1, 0, workers=2)
    with pytest.raises(ValueError):
        solve_parallel(fig1, 3, workers=0)


def test_parallel_empty_graph():
    lg = build_labelled(build_graph(0, []), 1, {})
    solution = solve_parallel(lg, 1, workers=3)
    assert (solution.size, solution.cost) == (0, 0)


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_workers_are_reaped_after_a_solve(fig1):
    solution = solve_parallel(fig1, 3, workers=2)
    assert (solution.size, solution.cost) == (4, 2)
    assert no_children_left()


def test_worker_exception_is_reraised(fig1, monkeypatch):
    def failing(state):
        raise ValueError("worker failed")

    monkeypatch.setattr(par_mod, "_worker", failing)
    with pytest.raises(ValueError, match="worker failed"):
        solve_parallel(fig1, 3, workers=2)
    assert no_children_left()


def test_unpicklable_worker_exception_keeps_its_message(fig1, monkeypatch):
    # An exception holding a lambda cannot be pickled; the worker sends a
    # RuntimeError that names it instead of exiting without a result.
    class Unpicklable(ValueError):
        def __init__(self, message):
            super().__init__(message)
            self.callback = lambda: None

    def failing(state):
        raise Unpicklable("worker failed")

    forks = count_forks(monkeypatch)
    monkeypatch.setattr(par_mod, "_worker", failing)
    with pytest.raises(RuntimeError, match="^Unpicklable: worker failed$"):
        solve_parallel(fig1, 3, workers=2)
    assert len(forks) == 1
    assert no_children_left()


def test_keyboard_interrupt_kills_the_workers(fig1, monkeypatch):
    # The workers hang, so the interrupt lands while they run; fork does
    # not pass the timer on, so only the parent is interrupted.
    def hanging(state):
        time.sleep(60)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(par_mod, "_worker", hanging)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            solve_parallel(fig1, 3, workers=2)
        assert time.perf_counter() - started < 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert no_children_left()


def untimed(solution):
    """The solution with its wall time zeroed, to compare two solves."""
    return solution._replace(stats=solution.stats._replace(elapsed=0.0))


def test_no_fork_runs_solve(fig1, monkeypatch):
    monkeypatch.delattr(os, "fork")
    for budget in (1, 2, 3, 4):
        assert untimed(solve_parallel(fig1, budget, workers=2)) == untimed(solve(fig1, budget))


def count_forks(monkeypatch) -> list[int]:
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def test_no_more_children_than_units(fig1, monkeypatch):
    # fig1 at budget 3 has four label subsets in each pass: four workers,
    # the parent and three children.
    forks = count_forks(monkeypatch)
    solution = solve_parallel(fig1, 3, workers=8)
    assert (solution.stats.subsets_pass1, solution.stats.subsets_pass2) == (4, 4)
    assert len(forks) == 6
    assert solution.stats.workers == len(solution.stats.worker_nodes) == 4


def test_one_unit_pass_forks_nothing(fig1, monkeypatch):
    # At budget 4 = K pass 1 has the one subset C(4, 4), which runs in the
    # parent; pass 2's level of C(4, 3) = 4 subsets forks one child, the
    # parent being its first worker.
    forks = count_forks(monkeypatch)
    per_pass = []
    run_pass = par_mod._run_pass

    def counting(workers, units, state, best):
        before = len(forks)
        result = run_pass(workers, units, state, best)
        per_pass.append((state[0], len(units), len(forks) - before))
        return result

    monkeypatch.setattr(par_mod, "_run_pass", counting)
    solution = solve_parallel(fig1, 4, workers=2)
    assert (solution.size, solution.cost) == (5, 4)
    assert per_pass == [(True, 1, 0), (False, 4, 1)]


def test_parent_claim_failure_leaves_no_child(monkeypatch):
    # An exception in the parent's own claim loop, with its children
    # forked and running, propagates once every child has been reaped.
    parent = os.getpid()
    forks = count_forks(monkeypatch)
    lg = random_instance(24, 0.6, 16, seed=2024)
    by_label, _ = permute_by_degree(lg, reduce_to_core(lg, 2))
    state = paper_state(by_label, True, 2)
    units = split_root(state[1])
    assert len(units) >= 4
    claim = par_mod._claim

    def failing(state):
        if os.getpid() == parent:
            raise RuntimeError("the parent's claim loop failed")
        return claim(state)

    monkeypatch.setattr(par_mod, "_claim", failing)
    with pytest.raises(RuntimeError, match="the parent's claim loop failed"):
        par_mod._run_pass(4, units, state, Incumbent())
    assert len(forks) == 3
    assert no_children_left()


def test_default_workers_follow_affinity(fig1, monkeypatch):
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert untimed(solve_parallel(fig1, 3)) == untimed(solve(fig1, 3))
    assert not forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert solve_parallel(fig1, 3).stats.workers == 2
    assert len(forks) == 2


def test_parent_runs_units_of_a_forked_pass(monkeypatch):
    # The parent is each pass's first worker.  A child's _run_unit calls
    # stay in the child, so the calls recorded here are the parent's; the
    # children run theirs slowly, so the parent claims units while they run.
    forks = count_forks(monkeypatch)
    parent, ran = os.getpid(), []
    run_unit = seq_mod._run_unit

    def recording(search, unit):
        if os.getpid() == parent:
            ran.append(unit)
        else:
            time.sleep(0.01)
        return run_unit(search, unit)

    monkeypatch.setattr(seq_mod, "_run_unit", recording)
    lg = random_instance(24, 0.6, 16, seed=2024)
    seq, par = solve(lg, 2), solve_parallel(lg, 2, workers=2)
    assert (par.size, par.cost) == (seq.size, seq.cost)
    assert forks and par.stats.subsets_pass1 == 0
    assert any(isinstance(unit, seq_mod.Subproblem) for unit in ran)
    assert par.stats.worker_nodes[0] > 0
    assert no_children_left()


def test_worker_nodes_add_up():
    lg = random_instance(30, 0.6, 5, seed=314)
    for budget in (1, 2, 3):
        par = solve_parallel(lg, budget, workers=2)
        stats = par.stats
        assert len(stats.worker_nodes) == stats.workers == 2
        # The parent colours the root of each pass it splits at the root.
        roots = (stats.subsets_pass1 == 0) + (stats.subsets_pass2 == 0 and stats.nodes_pass2 > 0)
        assert sum(stats.worker_nodes) + roots == stats.nodes_pass1 + stats.nodes_pass2
