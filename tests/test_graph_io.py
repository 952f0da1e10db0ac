import time
import warnings
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelled_clique import (
    GraphError,
    InstanceSpec,
    ParseError,
    build_graph,
    build_labelled,
    fixture_path,
    parse_dimacs,
    parse_labels,
    random_labels,
    resolve_budget,
    solve,
    splitmix_next,
    write_dimacs,
    write_labels,
)
import labelled_clique.graph_io as graph_io
from labelled_clique.graph_io import MAX_VERTICES, _parse_lines

from conftest import bitset_rows, random_graph, traced

# First outputs of the pinned splitmix64 stream, frozen from two independent
# implementations (Python big-int and C uint64) of the three-step formula.
SPLITMIX_SEED0_FIRST = 0x09AAB36CFDA2D1B3
SPLITMIX_SEED1_FIRST = 0x5F4C1DAC282D656F
SPLITMIX_SEED2_FIRST = 0x9A9F5E0655F6A5B3


def test_parse_minimal():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
    assert g.n == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_ignores_comments_and_blank_lines():
    g = parse_dimacs("c hello\nc another\n\np edge 2 1\nc mid\ne 1 2\n")
    assert g.n == 2
    assert g.edge_count() == 1


def test_parse_collapses_duplicates_with_warning():
    with pytest.warns(UserWarning, match="declares 2 edges but 1"):
        g = parse_dimacs("p edge 3 2\ne 1 2\ne 1 2")
    assert g.edge_count() == 1
    # The declared edge count sizes nothing, so an absurd one costs nothing.
    start = time.perf_counter()
    with pytest.warns(UserWarning, match="unique edges found"):
        g = parse_dimacs(f"p edge 3 {10**30}\ne 1 2\ne 2 3")
    assert time.perf_counter() - start < 1.0
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="missing problem line"):
        parse_dimacs("c nothing else\n")
    with pytest.raises(ParseError, match="line 2: duplicate problem"):
        parse_dimacs("p edge 2 0\np edge 2 0")
    with pytest.raises(ParseError, match="line 1: edge before problem"):
        parse_dimacs("e 1 2\np edge 2 1")
    with pytest.raises(ParseError, match="line 2: vertex out of range"):
        parse_dimacs("p edge 3 1\ne 1 4")
    with pytest.raises(ParseError, match="line 2: loop"):
        parse_dimacs("p edge 3 1\ne 2 2")
    with pytest.raises(ParseError, match="line 2: unrecognised"):
        parse_dimacs("p edge 3 1\nx 1 2")
    with pytest.raises(ParseError, match="line 1: expected 'p edge"):
        parse_dimacs("p col 3 1\ne 1 2")
    with pytest.raises(ParseError, match="line 2: non-integer"):
        parse_dimacs("p edge 3 1\ne 1 two")
    for header in ("p edge x 1", "p edge 3 1.5"):
        with pytest.raises(ParseError, match="^line 2: non-integer size in problem line$"):
            parse_dimacs(f"c sizes\n{header}\ne 1 2")
    for header in ("p edge -3 1", "p edge 3 -1"):
        with pytest.raises(ParseError, match="^line 1: negative size in problem line$"):
            parse_dimacs(f"{header}\ne 1 2")


def test_parse_rejects_vertex_count_above_cap():
    # One over the cap: without the guard this would allocate only an 8 MB
    # degree list, so the test stays cheap whether or not the guard holds.
    with pytest.raises(ParseError, match=f"line 2: {MAX_VERTICES + 1} vertices exceeds"):
        parse_dimacs(f"c header only\np edge {MAX_VERTICES + 1} 0\n")


def test_dimacs_round_trip():
    for seed in range(4):
        g = random_graph(13, 0.4, seed=seed)
        parsed = parse_dimacs(write_dimacs(g, comment="round trip"))
        assert parsed.n == g.n
        assert list(parsed.edges()) == list(g.edges())


def test_splitmix_first_values():
    value, state = splitmix_next(0)
    assert value == SPLITMIX_SEED0_FIRST
    assert state == 0x9E3779B97F4B7C15
    assert splitmix_next(1)[0] == SPLITMIX_SEED1_FIRST
    assert splitmix_next(2)[0] == SPLITMIX_SEED2_FIRST
    assert SPLITMIX_SEED1_FIRST != SPLITMIX_SEED2_FIRST


def test_splitmix_is_pure():
    run1 = []
    run2 = []
    for out in (run1, run2):
        state = 42
        for _ in range(10):
            value, state = splitmix_next(state)
            out.append(value)
    assert run1 == run2


def test_random_labels_single_label_is_zero():
    g = random_graph(8, 0.5, seed=3)
    lg = random_labels(g, 1, seed=99)
    assert all(lg.label_of(u, v) == 0 for u, v in g.edges())


def test_random_labels_deterministic():
    g = random_graph(9, 0.5, seed=4)
    a = random_labels(g, 4, seed=7)
    b = random_labels(g, 4, seed=7)
    assert a.edge_label_map() == b.edge_label_map()
    c = random_labels(g, 4, seed=8)
    assert a.edge_label_map() != c.edge_label_map()


def test_random_labels_triangle_frozen_values():
    # first three stream values mod 4, for seed 0
    expected = []
    state = 0
    for _ in range(3):
        value, state = splitmix_next(state)
        expected.append(value % 4)
    assert expected == [3, 1, 2]
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    lg = random_labels(g, 4, seed=0)
    # canonical edge order (0,1), (0,2), (1,2)
    assert [lg.label_of(0, 1), lg.label_of(0, 2), lg.label_of(1, 2)] == expected


def test_random_labels_independent_of_input_edge_order():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)]
    g1 = build_graph(4, edges)
    g2 = build_graph(4, list(reversed(edges)))
    assert random_labels(g1, 3, 5).edge_label_map() == random_labels(g2, 3, 5).edge_label_map()


def test_random_labels_follow_splitmix_next_in_edge_order():
    # random_labels inlines the generator; this pins it to splitmix_next,
    # one value per edge in ascending (u, v) order.
    for graph_seed in range(3):
        state, pairs = graph_seed, []
        while len({(min(u, v), max(u, v)) for u, v in pairs}) < 300:
            a, state = splitmix_next(state)
            b, state = splitmix_next(state)
            if a % 40 != b % 40:
                pairs.append((a % 40, b % 40))
        g = build_graph(40, pairs)  # duplicates and both orders included
        canonical = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        assert g.edges() == canonical and len(pairs) > 300
        for num_labels, seed in ((1, 0), (3, 7), (5, 2**64 - 1), (13, 2**64 + 5), (64, 12345)):
            expected, state = {}, seed
            for edge in canonical:
                value, state = splitmix_next(state)
                expected[edge] = value % num_labels
            assert random_labels(g, num_labels, seed).edge_label_map() == expected


def splitmix_stream(seed: int, count: int) -> list[int]:
    """The first ``count`` values of ``splitmix_next`` from ``seed``."""
    values, state = [], seed
    for _ in range(count):
        value, state = splitmix_next(state)
        values.append(value)
    return values


def test_random_labels_label_any_edges_from_their_indices():
    # Edge i takes value i of the stream whichever edges are asked for, in
    # any order and with repeats.
    g = random_graph(40, 0.3, seed=9)
    m = g.edge_count()
    for num_labels, seed in ((1, 0), (7, 2**64 - 1), (64, 2**64 + 3)):
        stream = [value % num_labels for value in splitmix_stream(seed, m)]
        lg = random_labels(g, num_labels, seed)
        for at in ([], [m - 1, 0, 5, 5], list(range(m))[::-3], range(m)):
            assert lg.labels_at(at) == [stream[i] for i in at]


_LONG = list(range(2999, -1, -1)) + list(range(0, 3000, 7))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.just(0), st.integers(1, 1000), st.integers(2**64, 2**66)),
       st.integers(1, 64), st.lists(st.integers(0, 300), max_size=40))
@example(0, 1, [])
@example(2**64 + 1, 64, _LONG)
@example(17, 5, [3] * 9 + [0, 300, 1, 299])
def test_packed_labels_step_like_splitmix_next(seed, num_labels, at):
    # The lanes of the packed kernel never mix: every index, in any order,
    # repeated or not, gets the value splitmix_next gives at its step.
    stream = splitmix_stream(seed, max(at, default=-1) + 1)
    labels = random_labels(build_graph(2, [(0, 1)]), num_labels, seed).labels_at(at)
    assert labels == [stream[i] % num_labels for i in at]


def test_packed_labels_keep_the_top_lane_bits():
    # Indices up to 2**64 - 1 fill a lane's low word: the product with the
    # increment then reaches the lane's top bit and still carries nowhere.
    mask = (1 << 64) - 1
    at = [mask, mask - 1, 2**63, 1, mask]
    for seed in (0, mask, 2**64 + 9):
        # splitmix_next from the state after i steps gives step i + 1's value.
        want = [splitmix_next((seed + i * graph_io._SPLITMIX_GAMMA) & mask)[0] % 64 for i in at]
        assert random_labels(build_graph(2, [(0, 1)]), 64, seed).labels_at(at) == want


_SPELLINGS = {
    "plain": "{}".format,
    "zero": "0{}".format,
    "plus": "+{}".format,
    "arabic": lambda k: "".join(chr(0x660 + int(d)) for d in str(k)),  # Arabic-Indic digits
    "underscore": lambda k: f"{k // 10}_{k % 10}" if k >= 10 else str(k),
}


@st.composite
def spelled_bodies(draw):
    """DIMACS text whose ``e u v`` lines spell each vertex in one of the ways
    ``int`` reads, with reversed, duplicate, loop and out-of-range edges."""
    n = draw(st.integers(1, 14))
    vertex = st.one_of(st.integers(1, n), st.integers(1, n), st.integers(0, n + 2))
    spell = st.sampled_from(sorted(_SPELLINGS))
    lines = [f"e {_SPELLINGS[draw(spell)](u)} {_SPELLINGS[draw(spell)](v)}"
             for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=14))]
    return f"p edge {n} {len(lines)}\n" + "\n".join(lines) + "\n"


@st.composite
def canonical_bodies(draw):
    """DIMACS text of edges in the order ``write_dimacs`` writes them, with
    at most one line reversed, repeated, looped or out of range."""
    n = draw(st.integers(2, 14))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=24)))
    defect = draw(st.sampled_from(["none", "reversed", "duplicate", "loop", "low", "high"]))
    if edges and defect != "none":
        i = draw(st.integers(0, len(edges) - 1))
        u, v = edges[i]
        edges[i:i + 1] = {"reversed": [(v, u)], "duplicate": [(u, v), (u, v)], "loop": [(u, u)],
                          "low": [(0, v)], "high": [(u, n + 1)]}[defect]
    lines = [f"e {u} {v}" for u, v in edges]
    return f"p edge {n} {len(lines)}\n" + "\n".join(lines) + "\n"


_LATER_CHUNK = "p edge 9 9\n" + "".join(f"e {u} {u + 1}\n" for u in range(1, 8))


def test_bulk_read_matches_the_line_parser_token_for_token(monkeypatch):
    # parse_dimacs converts each distinct token of a bare body once; its
    # graph, or its error, is the line parser's with build_graph's
    # dedupe-and-sort path after it.  The body is read in chunks of two or
    # three lines here, so most bodies span several chunks.
    monkeypatch.setattr(graph_io, "_CHUNK", 12)
    outcomes, taken, bulk = [], [], graph_io._read_in_bulk

    def spy(text):
        result = bulk(text)
        taken.append(text)
        return result

    monkeypatch.setattr(graph_io, "_read_in_bulk", spy)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.one_of(spelled_bodies(), canonical_bodies()))
    @example("p edge 12 4\ne 01 +3\ne 1_0 \u0663\ne 3 1\ne 10 12\n")
    @example(_LATER_CHUNK + "e 8 x\n")  # a bad line in the fourth chunk
    @example(_LATER_CHUNK + "e 8 9 9\n")
    @example(_LATER_CHUNK + "e 8\ne 1 9\n")
    @example(_LATER_CHUNK + "e 8 9\nx 1 9\n")
    @example(_LATER_CHUNK + "e 9 8\n")
    @example(_LATER_CHUNK + "e 7 8\n")
    @example(_LATER_CHUNK + "e 8 8\n")
    @example(_LATER_CHUNK + "e 8 10\n")
    def check(text):
        try:
            n, _, edges = _parse_lines(text)
            graph = build_graph(n, iter(edges))  # an iterator takes the sorting path
            want = (graph.edges(), graph.degrees)
        except ParseError as exc:
            want = str(exc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                graph = parse_dimacs(text)
                got = (graph.edges(), graph.degrees)
            except ParseError as exc:
                got = str(exc)
        assert got == want
        outcomes.append((text, isinstance(want, str)))

    check()
    with pytest.raises(ParseError, match="^line 9: non-integer vertex$"):
        parse_dimacs(_LATER_CHUNK + "e 8 x\n")
    graphs = [text for text, failed in outcomes if not failed and "\ne" in text]
    assert len(graphs) >= 50 and len(outcomes) - len(graphs) >= 50
    assert sum(text.count("\n") > 4 for text in graphs) >= 50
    # The bulk read, not its fallback, took every body that makes a graph,
    # spelling vertices every way.
    assert taken == graphs
    assert all(any(mark in text for text in taken) for mark in ("+", "_", " 0", "\u0661"))


def test_parse_holds_one_chunk_of_tokens_at_a_time():
    # 100,128 lines of write_dimacs's order: with every token of the body
    # held at once, the parse peaked 9.0 MB above the graph it kept.
    text = write_dimacs(build_graph(448, combinations(range(448), 2)))
    graph, kept, peak = traced(lambda: parse_dimacs(text))
    assert graph.edge_count() == 100_128
    assert peak - kept < 3_000_000


def test_numbered_lines_follow_splitlines(monkeypatch):
    # Chunks of about four characters, so that most line breaks, "\r\n"
    # included, fall near a chunk's end.
    monkeypatch.setattr(graph_io, "_CHUNK", 4)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.text(alphabet="ab \n\r\x0b\x1c\u2028", max_size=40))
    @example("a\r\nb\n\n\r")
    def check(text):
        want = list(enumerate(text.splitlines(), start=1))
        assert list(graph_io._numbered_lines(text)) == want

    check()


def test_parse_labels_holds_one_label_list():
    # 100,128 label lines: a set of every edge, a dict of the assignments
    # and build_labelled's index of the edges peaked at 28 MB; the labels
    # kept take 0.8 MB.
    g = build_graph(448, combinations(range(448), 2))
    lg = random_labels(g, 64, seed=3)
    text = write_labels(lg)
    parsed, _, peak = traced(lambda: parse_labels(text, g))
    assert parsed.labels() == lg.labels()
    assert peak < 3_000_000


def test_parsed_labels_are_the_list_parse_labels_filled():
    # A copy of 100,128 labels would take 0.8 MB; the first labels() call
    # returns the parsed list itself.
    g = build_graph(448, combinations(range(448), 2))
    lg = random_labels(g, 64, seed=3)
    parsed = parse_labels(write_labels(lg), g)
    labels, _, peak = traced(parsed.labels)
    assert peak < 10_000
    assert labels == list(lg.edge_label_map().values())


def test_labels_mix_a_block_of_lanes_at_a_time():
    # Mixing all 100,000 lanes in one int peaked at 8.5 MB; the labels kept
    # take 0.8 MB.
    lg = random_labels(build_graph(2, [(0, 1)]), 64, seed=5)
    labels, _, peak = traced(lambda: lg.labels_at(range(100_000)))
    assert len(labels) == 100_000
    assert peak < 3_000_000


def test_every_graph_lists_its_edges_sorted_and_unique():
    g = random_graph(30, 0.3, seed=5)
    reversed_text = f"p edge 30 {g.edge_count()}\n" + "".join(
        f"e {v + 1} {u + 1}\n" for u, v in g.edges())
    graphs = [
        build_graph(30, [(v, u) for u, v in reversed(g.edges())] + g.edges()),
        build_graph(30, [list(edge) for edge in g.edges()]),  # not tuples: the sorting path
        parse_dimacs(write_dimacs(g)),
        parse_dimacs(write_dimacs(g).replace("\n", "\r\n")),  # the line parser
        parse_dimacs(reversed_text),
    ]
    for graph in graphs:
        edges = list(graph.edges())
        assert edges == sorted(set(edges)) and all(u < v for u, v in edges)
        assert graph.degrees == [row.bit_count() for row in bitset_rows(graph)]
    assert all(graph.edges() == g.edges() for graph in graphs)


def test_random_labels_in_range():
    g = random_graph(10, 0.6, seed=6)
    lg = random_labels(g, 5, seed=11)
    assert all(0 <= lg.label_of(u, v) < 5 for u, v in g.edges())
    with pytest.raises(ValueError):
        random_labels(g, 0, seed=1)
    with pytest.raises(ValueError):
        random_labels(g, 65, seed=1)


def test_random_labels_pass_build_labelled_checks():
    # random_labels attaches its labels unchecked; the checked builder must
    # accept them and build identical rows.
    g = random_graph(12, 0.5, seed=8)
    lg = random_labels(g, 6, seed=3)
    assert build_labelled(g, 6, lg.edge_label_map()).edge_label_map() == lg.edge_label_map()


def test_parse_labels_fig1(fig1):
    assert fig1.num_labels == 4
    assert fig1.label_of(3, 4) == 1  # edge 4-5 carries the second label


def test_parse_labels_round_trip(fig1):
    edgeless = build_labelled(build_graph(3, []), 1, {})
    # No edge of fig1 gets a label above 55 in this 64-label labelling.
    sparse_use = random_labels(fig1.graph, 64, seed=1)
    for lg in (fig1, edgeless, sparse_use):
        text = write_labels(lg, comment="round trip")
        again = parse_labels(text, lg.graph)
        assert again.edge_label_map() == lg.edge_label_map()
        assert again.num_labels == lg.num_labels
    assert sparse_use.num_labels == 64
    # An edgeless graph's label file has no label line at all.
    solution = solve(parse_labels(write_labels(edgeless), edgeless.graph), 1)
    assert (solution.size, solution.cost) == (1, 0)


def test_parse_labels_errors():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ParseError, match="edge 1 3 has no label"):
        parse_labels("l 1 2 1\nl 2 3 1", g)
    with pytest.raises(ParseError, match="edge 1 2 has no label"):
        parse_labels("\n", g)
    with pytest.raises(ParseError, match="no edge 1 3"):
        parse_labels("l 1 3 1", build_graph(3, [(0, 1)]))
    with pytest.raises(ParseError, match="label must be >= 1"):
        parse_labels("l 1 2 0", g)
    with pytest.raises(ParseError, match="labelled twice"):
        parse_labels("l 1 2 1\nl 2 1 2", g)
    with pytest.raises(ParseError, match="expected 'l u v k'"):
        parse_labels("l 1 2", g)
    with pytest.raises(ParseError, match="vertex out of range"):
        parse_labels("l 1 9 1", g)
    # A label count line must hold every label used and lie in [1, 64].
    full = "l 1 2 1\nl 2 3 3\nl 1 3 2\n"
    assert parse_labels("c labels 5\n" + full, g).num_labels == 5
    assert parse_labels("c labels were drawn at random\n" + full, g).num_labels == 3
    with pytest.raises(ParseError, match="line 2: label count 2 is below label 3"):
        parse_labels("l 1 2 1\nc labels 2\nl 2 3 3\nl 1 3 2", g)
    for count in (0, 65):
        with pytest.raises(ParseError, match=f"line 1: label count must be in .*got {count}"):
            parse_labels(f"c labels {count}\n" + full, g)
    with pytest.raises(ParseError, match="line 1: non-integer label count"):
        parse_labels("c labels x\n" + full, g)
    with pytest.raises(ParseError, match="line 5: duplicate label count"):
        parse_labels("c labels 4\n" + full + "c labels 4", g)
    # Without a count line the largest label is the count, at most 64.
    with pytest.raises(GraphError, match="num_labels must be in .*got 65"):
        parse_labels("l 1 2 1\nl 2 3 65\nl 1 3 2", g)
    # Errors name the first bad line, after a chunk boundary too.
    padded = "c " + "x" * graph_io._CHUNK + "\n" + full
    with pytest.raises(ParseError, match="^line 4: edge 3 2 labelled twice$"):
        parse_labels(padded.replace("l 1 3 2", "l 3 2 1"), g)


def test_resolve_budget():
    assert resolve_budget(8, budget_pct=50) == 4
    assert resolve_budget(6, budget_pct=25) == 2  # 1.5 rounds half away from zero
    assert resolve_budget(4, budget_pct=75) == 3
    assert resolve_budget(1, budget_pct=25) == 1  # floored at 1
    assert resolve_budget(10, budget=3) == 3


def test_resolve_budget_errors():
    with pytest.raises(ValueError):
        resolve_budget(4)
    with pytest.raises(ValueError):
        resolve_budget(4, budget=2, budget_pct=50)
    with pytest.raises(ValueError):
        resolve_budget(4, budget=0)
    with pytest.raises(ValueError):
        resolve_budget(4, budget_pct=60)


def test_instance_spec_validation(tmp_path):
    graph_file = tmp_path / "g.clq"
    graph_file.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    with pytest.raises(ValueError, match="label source"):
        InstanceSpec(graph_path=graph_file, budget=1)
    with pytest.raises(ValueError, match="label source"):
        InstanceSpec(graph_path=graph_file, num_labels=2, label_file=graph_file, budget=1)
    with pytest.raises(ValueError, match="budget"):
        InstanceSpec(graph_path=graph_file, num_labels=2)
    spec = InstanceSpec(graph_path=graph_file, num_labels=2, budget_pct=50)
    assert spec.seed == 0
    lg, budget = spec.load()
    assert lg.num_labels == 2
    assert budget == 1


def test_instance_spec_label_file(fig1, tmp_path):
    spec = InstanceSpec(
        graph_path=fixture_path("fig1.clq"),
        label_file=fixture_path("fig1.lab"),
        budget=3,
    )
    lg, budget = spec.load()
    assert budget == 3
    assert lg.edge_label_map() == fig1.edge_label_map()


def test_fixture_paths_exist():
    for name in ("fig1.clq", "fig1.lab", "fig2.clq"):
        assert fixture_path(name).exists()
