import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelled_clique import build_graph, colour_order
from labelled_clique.colouring import colour_top_down_into, mirrored_tables
from labelled_clique.graph import _colours, iter_bits

from conftest import bitset_rows, random_graph


def brute_max_clique(g, cands_mask):
    """Largest clique size within a candidate bitset, by subset enumeration."""
    best = 0
    vertices = list(iter_bits(cands_mask))
    n = len(vertices)
    for mask in range(1 << n):
        chosen = [vertices[i] for i in range(n) if mask >> i & 1]
        if all(
            g.adjacent(u, v) for i, u in enumerate(chosen) for v in chosen[i + 1 :]
        ):
            best = max(best, len(chosen))
    return best


def test_fig2_golden(fig2):
    result = colour_order(fig2, (1 << fig2.n) - 1)
    assert [v + 1 for v in result.order] == [1, 3, 2, 4, 8, 5, 7, 6]
    assert result.bounds == [1, 1, 2, 2, 2, 3, 3, 4]


def test_empty_candidates(fig2):
    result = colour_order(fig2, 0)
    assert result.order == []
    assert result.bounds == []


def test_independent_vertices_share_one_colour():
    g = build_graph(6, [(0, 1)])
    result = colour_order(g, 0b111100)  # 2, 3, 4, 5 pairwise non-adjacent
    assert result.order == [2, 3, 4, 5]
    assert result.bounds == [1, 1, 1, 1]


def test_clique_needs_distinct_colours():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    result = colour_order(g, 0b111)
    assert result.order == [0, 1, 2]
    assert result.bounds == [1, 2, 3]


@pytest.mark.parametrize("seed", range(8))
def test_colouring_properties(seed):
    g = random_graph(11, 0.45, seed=seed)
    cands = ((seed * 2654435761) | 1) & ((1 << g.n) - 1)
    result = colour_order(g, cands)
    # order is exactly the candidate set
    assert sorted(result.order) == list(iter_bits(cands))
    bounds = result.bounds
    assert all(bounds[i] <= bounds[i + 1] for i in range(len(bounds) - 1))
    if bounds:
        assert bounds[0] >= 1
        assert bounds[-1] <= len(result.order)
    # each colour class is an independent set
    for colour in set(bounds):
        members = [v for v, c in zip(result.order, bounds) if c == colour]
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                assert not g.adjacent(u, v)
    # the final bound caps the maximum clique among the candidates
    assert not bounds or bounds[-1] >= brute_max_clique(g, cands)


def test_deterministic(fig2):
    cands = (1 << fig2.n) - 1
    first = colour_order(fig2, cands)
    second = colour_order(fig2, cands)
    assert first.order == second.order
    assert first.bounds == second.bounds


def reference_colouring(g, cands):
    """Greedy sequential colouring from its definition, lowest vertex first:
    colour 1, 2, ... in turn takes each uncoloured candidate, in ascending
    order, that has no neighbour among the vertices it already took.
    Returns the order and each vertex's colour."""
    order, bounds = [], []
    uncoloured = list(iter_bits(cands))
    colour = 0
    while uncoloured:
        colour += 1
        members = []
        for v in uncoloured:
            if not any(g.adjacent(v, w) for w in members):
                members.append(v)
        order += members
        bounds += [colour] * len(members)
        uncoloured = [v for v in uncoloured if v not in members]
    return order, bounds


def kernel_outputs(rows, n, cands, kmin):
    """The ``order`` and ``bounds`` prefixes one kernel call writes."""
    order, bounds = [0] * n, [0] * n
    m = colour_top_down_into(rows, cands, order, bounds, kmin)
    return order[:m], bounds[:m]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 70), st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 2**32),
       st.integers(0, 2**70))
@example(0, 0.5, 1, 0)
@example(1, 0.5, 1, 1)
@example(63, 0.5, 2, 2**70 - 1)
@example(64, 0.5, 3, 2**70 - 1)
@example(65, 0.5, 4, 2**70 - 1)
@example(65, 0.9, 5, 2**64 | 1)
def test_top_down_kernel_mirrors_the_bottom_up_one(n, density, seed, cands):
    # Rows numbered v -> n - 1 - v, as permute_by_degree numbers its
    # per-label rows, coloured highest vertex first, must give the mirror
    # image of the reference's lowest-first order and the same bounds, and
    # so must colour_order, which numbers them so itself; the peel's test
    # must count the reference's colours.  With k_min, the kernel must
    # write exactly the suffix of its k_min = 0 output whose bounds reach
    # k_min, for every k_min up to colours + 1.
    g = random_graph(n, density, seed)
    cands &= (1 << n) - 1
    top, adjacency = n - 1, bitset_rows(g)
    rows = [sum(1 << (top - w) for w in iter_bits(adjacency[top - v])) for v in range(n)]
    below = [((1 << v) - 1) & ~row for v, row in enumerate(rows)]
    bit = [1 << v for v in range(n)]
    assert mirrored_tables(n, g.edges()) == (below, bit)
    mirrored = sum(1 << (top - v) for v in iter_bits(cands))
    order, bounds = reference_colouring(g, cands)
    assert len(order) == cands.bit_count()
    assert colour_order(g, cands) == (order, bounds)
    if n:
        assert _colours(g) == max(reference_colouring(g, (1 << n) - 1)[1])
    for kmin in range(max(bounds, default=0) + 2):
        keep = [i for i, bound in enumerate(bounds) if bound >= kmin]
        assert keep == list(range(len(bounds) - len(keep), len(bounds)))
        assert kernel_outputs((below, bit), n, mirrored, kmin) == (
            [top - order[i] for i in keep], [bounds[i] for i in keep])
