import dataclasses
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
from labelled_clique.graph import reduce_to_core
from labelled_clique.sequential import WithinLabels

from conftest import paper_solve, random_instance


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
    permuted, _ = permute_by_degree(fig1)
    subs = split_root(permuted)
    assert len(subs) == 7
    result = colour_order(permuted.graph, (1 << 7) - 1)
    # queue order is the sequential branch order: right to left over the
    # root colouring
    assert [sp.prefix[0] for sp in subs] == list(reversed(result.order))
    assert [sp.bound for sp in subs] == list(reversed(result.bounds))
    # candidates replay the sequential loop: earlier-branched vertices are
    # gone, and the rest intersect the branch vertex's neighbourhood
    remaining = (1 << 7) - 1
    for sp in subs:
        v = sp.prefix[0]
        assert sp.cands == remaining & permuted.graph.adjacency[v]
        remaining &= ~(1 << v)


def test_split_root_empty_graph():
    lg = build_labelled(build_graph(0, []), 1, {})
    assert split_root(lg) == []


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
    """Patch every colouring the search calls to record each node's
    candidate set and lift every colour bound to n, so no node is cut off
    by its bound and the explored tree no longer depends on when the
    incumbent improves."""
    records: list[int] = []
    original = colouring_mod.colour_order_into

    def recording(adjacency, cands, order, bounds):
        records.append(cands)
        m = original(adjacency, cands, order, bounds)
        bounds[:m] = [len(adjacency)] * m
        return m

    for module in (colouring_mod, seq_mod):
        monkeypatch.setattr(module, "colour_order_into", recording)
    return records


def first_pass_nodes(records: list[int], run) -> tuple[Counter, object]:
    """Multiset of the size-pass node records of one solve, and the solve."""
    records.clear()
    solution = run()
    return Counter(records[: solution.stats.nodes_pass1]), solution


def drive_worker(units, lg, budget):
    """Run ``_worker`` in this process as the only worker of a size pass
    over ``units``; returns its result and the unit index it left shared."""
    shared = par_mod._Shared(incumbent_key(0, 0))
    try:
        out = []
        par_mod._worker((shared, units, True, lg, None, WithinLabels(lg.label_bits), budget, out))
        index, _ = shared.update(0)
    finally:
        shared.close()
    return out[0], index


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
    permuted, _ = permute_by_degree(lg, reduce_to_core(lg, 2))
    records.clear()
    (clique, labels, nodes, _), _ = drive_worker(par_mod.split_root(permuted), permuted, 2)
    assert Counter(records) == seq_nodes  # no node twice, none lost, none invented
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
    permuted, _ = permute_by_degree(lg, reduce_to_core(lg, 2))
    units = split_root(permuted)
    ran = []
    run_unit = par_mod._run_unit

    def counting(search, lg, by_label, unit):
        ran.append(unit)
        return run_unit(search, lg, by_label, unit)

    monkeypatch.setattr(par_mod, "_run_unit", counting)
    (clique, labels, nodes, _), index = drive_worker(units, permuted, 2)
    assert len(ran) < len(units) <= index
    seq = solve(lg, 2)
    assert (len(clique), labels.bit_count()) == (seq.size, seq.cost)
    assert 1 + nodes == seq.stats.nodes_pass1


def test_each_unit_runs_once_with_more_workers_than_cores(monkeypatch):
    # With every colour bound lifted the size pass's tree is fixed, so a
    # unit that a lost counter update let two workers claim, or that none
    # ran, would move the node count.  One instance hands out label
    # subsets, the other (16 labels, too many subsets) root branches.
    record_nodes(monkeypatch)
    workers = 3 * len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 6
    for num_labels, subsets in ((3, True), (16, False)):
        lg = random_instance(24, 0.6, num_labels, seed=2024)
        seq = solve(lg, 2)
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
    return dataclasses.replace(solution, stats=dataclasses.replace(solution.stats, elapsed=0.0))


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
    # fig1 at budget 3 has four label subsets in each pass.
    forks = count_forks(monkeypatch)
    solution = solve_parallel(fig1, 3, workers=8)
    assert (solution.stats.subsets_pass1, solution.stats.subsets_pass2) == (4, 4)
    assert len(forks) == 8
    assert solution.stats.workers == len(solution.stats.worker_nodes) == 4


def test_default_workers_follow_affinity(fig1, monkeypatch):
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert untimed(solve_parallel(fig1, 3)) == untimed(solve(fig1, 3))
    assert not forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert solve_parallel(fig1, 3).stats.workers == 2
    assert len(forks) == 4


def test_worker_nodes_add_up():
    lg = random_instance(30, 0.6, 5, seed=314)
    for budget in (1, 2, 3):
        par = solve_parallel(lg, budget, workers=2)
        stats = par.stats
        assert len(stats.worker_nodes) == stats.workers == 2
        # The parent colours the root of each pass it splits at the root.
        roots = (stats.subsets_pass1 == 0) + (stats.subsets_pass2 == 0 and stats.nodes_pass2 > 0)
        assert sum(stats.worker_nodes) + roots == stats.nodes_pass1 + stats.nodes_pass2
