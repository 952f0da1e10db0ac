import gc
import sys
import threading
from collections import Counter

import pytest

from labelled_clique import (
    SharedIncumbent,
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
from labelled_clique.parallel import _Cursor, steal_from
from labelled_clique.sequential import _NODES

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


def test_try_improve_examples():
    inc = SharedIncumbent()
    assert inc.replace([7, 8, 9, 10], 0b111, 4, 3)  # (4, 3) over empty
    assert inc.replace([1, 2, 3, 4], 0b011, 4, 2)  # (4, 2) improves (4, 3)
    assert (inc.size, inc.cost) == (4, 2)
    snap_before = inc.snapshot()
    assert not inc.replace([5], 0, 1, 0)  # (1, 0) cannot unseat (4, 2)
    assert inc.snapshot() == snap_before


def test_try_improve_keeps_witness_and_key_consistent():
    inc = SharedIncumbent()
    inc.replace([3, 4], 0b1, 2, 1)
    clique, labels, size, cost = inc.snapshot()
    assert size == len(clique) == 2
    assert cost == labels.bit_count() == 1
    assert inc.key == incumbent_key(size, cost)


def test_try_improve_concurrent_race():
    # Two equal-size candidates racing: the cheaper one must win no matter
    # what order the threads run in.
    for _ in range(20):
        inc = SharedIncumbent()
        start = threading.Barrier(2)

        def offer(labels):
            start.wait()
            for _ in range(50):
                inc.replace([1, 2, 3, 4, 5], labels, 5, labels.bit_count())

        t1 = threading.Thread(target=offer, args=(0b111,))  # (5, 3)
        t2 = threading.Thread(target=offer, args=(0b011,))  # (5, 2)
        t1.start(), t2.start()
        t1.join(), t2.join()
        assert (inc.size, inc.cost) == (5, 2)


def test_key_sequence_monotone_under_mixed_offers():
    inc = SharedIncumbent()
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
    assert [sp.position for sp in subs] == [(k,) for k in range(7)]
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


def test_steal_from_claims_all_remaining_branches():
    adjacency = [0b0110, 0b1101, 0b0011, 0b0010]
    cursor = _Cursor((3,), 0, [2, 3, 1], [1, 1, 2], 0b1110, 2)
    cursors = {(3,): cursor}
    stolen = steal_from(cursors, adjacency)
    # branches i=2,1,0 in sequential order: vertices 1, 3, 2
    assert [sp.prefix for sp in stolen] == [(0, 1), (0, 3), (0, 2)]
    assert [sp.bound for sp in stolen] == [2, 1, 1]
    assert [sp.position for sp in stolen] == [(3, 0), (3, 1), (3, 2)]
    # candidate sets thread through removals exactly like the owner loop
    assert stolen[0].cands == 0b1110 & adjacency[1]
    assert stolen[1].cands == (0b1110 & ~0b10) & adjacency[3]
    assert stolen[2].cands == (0b1110 & ~0b1010) & adjacency[2]
    # the cursor is drained: nothing can run twice
    assert cursor.next_i == -1
    assert steal_from(cursors, adjacency) == []


def test_steal_from_prefers_latest_position():
    adjacency = [0, 0, 0]
    early = _Cursor((0,), 1, [0], [1], 0b1, 0)
    late = _Cursor((5,), 2, [0], [1], 0b1, 0)
    stolen = steal_from({(0,): early, (5,): late}, adjacency)
    assert stolen[0].prefix[0] == 2
    assert late.next_i == -1 and early.next_i == 0


def test_steal_from_skips_drained_cursors():
    adjacency = [0, 0]
    drained = _Cursor((4,), 0, [1], [1], 0b10, -1)
    fresh = _Cursor((1,), 1, [0], [1], 0b1, 0)
    stolen = steal_from({(4,): drained, (1,): fresh}, adjacency)
    assert stolen and stolen[0].prefix[0] == 1


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

    for module in (colouring_mod, seq_mod, par_mod):
        monkeypatch.setattr(module, "colour_order_into", recording)
    return records


def first_pass_nodes(records: list[int], run) -> tuple[Counter, object]:
    """Multiset of the size-pass node records of one solve, and the solve."""
    records.clear()
    solution = run()
    return Counter(records[: solution.stats.nodes_pass1]), solution


def test_replay_accounting_prefixes_match_sequential(monkeypatch):
    # With no bound pruning the size pass explores a fixed tree, so the
    # nodes coloured by all workers together must be exactly the nodes the
    # paper's sequential search colours, at every depth, each exactly once.
    records = record_nodes(monkeypatch)
    lg = random_instance(20, 0.5, 3, seed=1234)
    seq_nodes, _ = first_pass_nodes(records, lambda: paper_solve(lg, 2))
    assert sum(seq_nodes.values()) > 1
    for workers in (2, 4):
        par_nodes, _ = first_pass_nodes(
            records, lambda: solve_parallel(lg, 2, workers=workers))
        assert par_nodes == seq_nodes  # no node twice, none lost, none invented


def test_replay_accounting_with_real_steals(monkeypatch):
    # A dense instance whose first root branches dominate the work, plus a
    # tiny GIL switch interval, makes idle workers actually resplit live
    # cursors; the explored nodes must still match sequential exactly.
    steals = [0]
    original_steal = par_mod.steal_from

    def counting_steal(cursors, adjacency):
        taken = original_steal(cursors, adjacency)
        if taken:
            steals[0] += 1
        return taken

    monkeypatch.setattr(par_mod, "steal_from", counting_steal)
    records = record_nodes(monkeypatch)

    def check(lg, workers):
        seq_nodes, seq = first_pass_nodes(records, lambda: paper_solve(lg, 2))
        par_nodes, par = first_pass_nodes(
            records, lambda: solve_parallel(lg, 2, workers=workers))
        assert (par.size, par.cost) == (seq.size, seq.cost)
        assert par_nodes == seq_nodes

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        lg = random_instance(28, 0.75, 3, seed=77)
        for attempt in range(5):
            check(lg, 4)
            if steals[0]:
                break
        assert steals[0], "no steal was exercised in five attempts"

        # A worker whose first item is stolen has run no node yet, so it
        # starts with no scratch buffers.  Force one: with more workers
        # than root branches, some workers never get a root branch, and
        # every other worker is held at its first owner claim (cursor
        # published, branches left unstarted) or its first stolen item
        # until one of those has run stolen work before any node.
        cold = threading.Event()
        owning = threading.local()
        original_process = par_mod._process
        original_step = par_mod._step

        def watching_process(state, search, sp):
            if len(sp.prefix) == 2:
                if search[_NODES][0]:
                    cold.wait(timeout=10)
                else:
                    cold.set()
            owning.depth_one = len(sp.prefix) == 1
            try:
                original_process(state, search, sp)
            finally:
                owning.depth_one = False

        def holding_step(search, sp, cands):
            if len(sp.prefix) == 2 and owning.depth_one:
                cold.wait(timeout=10)
            return original_step(search, sp, cands)

        monkeypatch.setattr(par_mod, "_process", watching_process)
        monkeypatch.setattr(par_mod, "_step", holding_step)
        check(random_instance(12, 0.9, 3, seed=5), 16)
        assert cold.is_set(), "no worker started on stolen work"
    finally:
        sys.setswitchinterval(previous_interval)


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
