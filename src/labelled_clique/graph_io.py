"""DIMACS ingestion, label files, and deterministic random label allocation.

Formats (all 1-based, ``c`` comment lines allowed):

* DIMACS clique: one ``p edge n m`` header then ``e u v`` lines.  The
  declared edge count is advisory; duplicates collapse with a warning on
  mismatch.
* Label file: ``l u v k`` assigns label ``k >= 1`` to edge (u, v); every
  edge needs exactly one line.  A ``c labels K`` line gives the label
  count, which labels no edge uses can make larger than the largest ``k``;
  without it the count is the largest ``k``.  Other ``c`` lines are
  comments.

Random labels use a fixed splitmix64 stream over the ascending edge order,
so (graph, label count, seed) gives one labelling in any implementation.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path

from .graph import MAX_LABELS, Graph, LabelledGraph, build_graph, build_labelled

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4B7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB

# Largest vertex count a DIMACS header may declare.  The graph allocates one
# row per vertex as soon as the edges are read, so the header alone must
# not be able to demand gigabytes; the largest DIMACS clique benchmarks have
# about 4,000 vertices.
MAX_VERTICES = 1 << 20


class ParseError(ValueError):
    """Input text rejected; the message carries the 1-based line number."""


def splitmix_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 generator: returns (value, new state).

    The state is a plain 64-bit unsigned int; the whole sequence is a pure
    function of the seed.
    """
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & _MASK64
    return z ^ (z >> 31), state


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS clique format into a :class:`Graph`.

    Duplicate edges are collapsed; a declared edge count that disagrees with
    the unique edge count emits a warning rather than an error.  The
    declared count sizes nothing, so any value is safe; memory grows only
    with the vertex count and the edge lines actually read.  A header
    declaring more than :data:`MAX_VERTICES` vertices is rejected.  Text the
    bulk read refuses goes through the line parser, which numbers errors.
    """
    try:
        declared, graph = _read_in_bulk(text)
    except ValueError:
        n, declared, edges = _parse_lines(text)
        graph = build_graph(n, edges)
    if graph.edge_count() != declared:
        warnings.warn(f"problem line declares {declared} edges but {graph.edge_count()} unique"
                      " edges found", stacklevel=2)
    return graph


def _read_in_bulk(text: str) -> tuple[int, Graph]:
    """The declared edge count and graph of a text whose lines from the
    first ``e`` line on are all bare ``e u v``; ValueError for other text.
    Newline is the body's only line break and each line starts with ``e``,
    which starts no token ``int`` takes, so ``e u v`` triples are lines."""
    cut = text.find("\ne") + 1
    body = text[cut:]
    lines = body.count("\ne") + 1
    tokens = body.split()
    if (not cut or body.count("\n") - body.endswith("\n") != lines - 1
            or len(tokens) != 3 * lines or tokens[::3].count("e") != lines
            or any(c in body for c in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")):
        raise ValueError("not a body of bare 'e u v' lines")
    n, declared, edges = _parse_lines(text[:cut])
    us, vs = (list(map((-1).__add__, map(int, tokens[i::3]))) for i in (1, 2))
    del body, tokens  # free the token strings, the read's peak memory, before building
    return declared, build_graph(n, chain(edges, zip(us, vs)))


def _parse_lines(text: str) -> tuple[int, int, list[tuple[int, int]]]:
    """The vertex count, declared edge count and 0-based edges, line by line."""
    n: int | None = None
    declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge n m'")
            try:
                n = int(tokens[2])
                declared = int(tokens[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer size in problem line") from None
            if n < 0 or declared < 0:
                raise ParseError(f"line {lineno}: negative size in problem line")
            if n > MAX_VERTICES:
                raise ParseError(
                    f"line {lineno}: {n} vertices exceeds the limit of {MAX_VERTICES}"
                )
        elif tokens[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            try:
                u = int(tokens[1])
                v = int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex out of range 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: loop edge at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unrecognised line {tokens[0]!r}")
    if n is None:
        raise ParseError("missing problem line")
    return n, declared, edges


def write_dimacs(g: Graph, comment: str | None = None) -> str:
    """Render a graph back to DIMACS text (round-trips with parse_dimacs)."""
    lines = []
    if comment:
        lines.extend(f"c {part}" for part in comment.splitlines())
    lines.append(f"p edge {g.n} {g.edge_count()}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _label_count(lineno: int, token: str) -> tuple[int, int]:
    """(line number, label count) of a ``c labels K`` line."""
    try:
        count = int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer label count") from None
    if not 1 <= count <= MAX_LABELS:
        raise ParseError(f"line {lineno}: label count must be in [1, {MAX_LABELS}], got {count}")
    return lineno, count


def parse_labels(text: str, g: Graph) -> LabelledGraph:
    """Parse ``l u v k`` lines into a labelling of ``g``.

    Every edge of ``g`` must receive exactly one label.  The label count is
    the ``K`` of a ``c labels K`` line, which must lie in [1, 64] and be at
    least the largest ``k`` seen; without that line it is the largest ``k``,
    or 1 for an edgeless graph, since a labelling needs at least one label.
    """
    edges = set(g.edges())
    assignments: dict[tuple[int, int], int] = {}
    max_label = 0
    count: tuple[int, int] | None = None  # (line number, declared label count)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if line[0] == "c":
            if len(tokens) == 3 and tokens[:2] == ["c", "labels"]:
                if count is not None:
                    raise ParseError(f"line {lineno}: duplicate label count line")
                count = _label_count(lineno, tokens[2])
            continue
        if tokens[0] != "l" or len(tokens) != 4:
            raise ParseError(f"line {lineno}: expected 'l u v k'")
        try:
            u, v, k = int(tokens[1]), int(tokens[2]), int(tokens[3])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field") from None
        if not (1 <= u <= g.n and 1 <= v <= g.n):
            raise ParseError(f"line {lineno}: vertex out of range 1..{g.n}")
        if k < 1:
            raise ParseError(f"line {lineno}: label must be >= 1, got {k}")
        key = (min(u, v) - 1, max(u, v) - 1)
        if key not in edges:
            raise ParseError(f"line {lineno}: no edge {u} {v} in the graph")
        if key in assignments:
            raise ParseError(f"line {lineno}: edge {u} {v} labelled twice")
        assignments[key] = k - 1
        max_label = max(max_label, k)
    for u, v in g.edges():
        if (u, v) not in assignments:
            raise ParseError(f"edge {u + 1} {v + 1} has no label line")
    if count is None:
        return build_labelled(g, max(max_label, 1), assignments)
    lineno, num_labels = count
    if num_labels < max_label:
        raise ParseError(f"line {lineno}: label count {num_labels} is below label {max_label}")
    return build_labelled(g, num_labels, assignments)


def write_labels(lg: LabelledGraph, comment: str | None = None) -> str:
    """Render a labelling to label-file text (round-trips with parse_labels,
    label count included)."""
    lines = []
    if comment:
        lines.extend(f"c {part}" for part in comment.splitlines())
    lines.append(f"c labels {lg.num_labels}")
    lines.extend(
        f"l {u + 1} {v + 1} {label + 1}" for (u, v), label in sorted(lg.edge_label_map().items())
    )
    return "\n".join(lines) + "\n"


def random_labels(g: Graph, num_labels: int, seed: int) -> LabelledGraph:
    """Allocate one random label per edge, reproducibly from the seed.

    Edges consume one splitmix64 value each in canonical order, so the
    labelling depends only on (graph, num_labels, seed).  The state of
    :func:`splitmix_next` after ``i + 1`` steps is ``seed + (i + 1) * gamma``
    (Steele, Lea and Flood, 2014), so edge ``i`` is labelled when first read.
    """
    if not 1 <= num_labels <= MAX_LABELS:
        raise ValueError(f"num_labels must be in [1, {MAX_LABELS}], got {num_labels}")
    gamma, mul1, mul2, mask = _SPLITMIX_GAMMA, _SPLITMIX_MUL1, _SPLITMIX_MUL2, _MASK64
    start = (seed & mask) + gamma

    def labels_at(at: Sequence[int]) -> list[int]:
        return [(z ^ (z >> 31)) % num_labels for i in at
                for z in [(start + i * gamma) & mask]
                for z in [((z ^ (z >> 30)) * mul1) & mask]
                for z in [((z ^ (z >> 27)) * mul2) & mask]]

    return LabelledGraph(g, num_labels, labels_at=labels_at)


def resolve_budget(num_labels: int, budget: int | None = None, budget_pct: int | None = None) -> int:
    """Resolve an explicit budget or a percentage of the label count.

    Percentages (25, 50 or 75) round half away from zero with a floor of 1.
    """
    if (budget is None) == (budget_pct is None):
        raise ValueError("exactly one of budget and budget_pct is required")
    if budget is not None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        return budget
    if budget_pct not in (25, 50, 75):
        raise ValueError(f"budget percentage must be 25, 50 or 75, got {budget_pct}")
    return max(1, (budget_pct * num_labels + 50) // 100)


@dataclass
class InstanceSpec:
    """A solvable instance: graph path, one label source, one budget form."""

    graph_path: Path
    num_labels: int | None = None
    seed: int | None = None
    label_file: Path | None = None
    budget: int | None = None
    budget_pct: int | None = None

    def __post_init__(self) -> None:
        seeded = self.num_labels is not None
        if seeded == (self.label_file is not None):
            raise ValueError("exactly one label source: --labels/--seed or --label-file")
        if seeded and self.seed is None:
            self.seed = 0
        if (self.budget is None) == (self.budget_pct is None):
            raise ValueError("exactly one of budget and budget_pct is required")

    def load(self) -> tuple[LabelledGraph, int]:
        """Read the graph, attach labels, and resolve the budget."""
        return next(self.samples(1))

    def samples(self, count: int) -> Iterator[tuple[LabelledGraph, int]]:
        """``count`` labellings of the graph, read once, with their budgets:
        the label file's each time, or random ones from seed, seed + 1, ..."""
        graph = parse_dimacs(Path(self.graph_path).read_text())
        fixed = self.label_file and parse_labels(Path(self.label_file).read_text(), graph)
        for sample in range(count):
            lg = fixed or random_labels(graph, self.num_labels, self.seed + sample)
            yield lg, resolve_budget(lg.num_labels, self.budget, self.budget_pct)


def fixture_path(name: str) -> Path:
    """Path of a bundled example file (fig1.clq, fig1.lab, fig2.clq)."""
    return Path(str(resources.files("labelled_clique") / "data" / name))
