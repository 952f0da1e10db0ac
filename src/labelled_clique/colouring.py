"""Greedy sequential colouring: branching order plus a non-decreasing bound.

One kernel, :func:`colour_top_down_into`, colours for every caller.  It
takes the highest set bit, which ``bit_length`` finds without allocating,
removes it through a table of ``1 << v`` and keeps only the vertices a
precomputed ``below`` row leaves colourable.  Both searches number their
rows top-down for it: the paper's search and the label-subset
sub-searches.  :func:`colour_order` and the peel's colouring test,
``graph._colours``, number a graph's vertices top-down the same way
through :func:`mirrored_tables`, so that their colourings take the lowest
original vertex first.

The ``bounds`` entry for a vertex records how many colours were in use
when it was coloured, so the first ``i`` vertices of ``order`` are always
colourable with ``bounds[i-1]`` colours, which caps any clique among them
at that size.  The kernel writes only the vertices coloured ``kmin`` or
above: the search passes the lowest colour whose branch can beat its
incumbent, so a vertex below it could never be branched on (Konc and
Janezic's k_min).  What it writes is the suffix of the full colouring
whose bounds reach ``kmin``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:
    from .graph import Graph


class ColourResult(NamedTuple):
    """Vertices in colouring order with the per-prefix colour count."""

    order: list[int]
    bounds: list[int]


def colour_top_down_into(
    rows: tuple[list[int], list[int]], cands: int, order: list[int], bounds: list[int], kmin: int
) -> int:
    """Greedy-colour the ``cands`` bitset into caller-provided buffers,
    highest vertex first.

    ``rows`` is the pair ``(below, bit)``: ``below[v]`` is the bitset of
    ``v``'s non-neighbours numbered below ``v``, and ``bit[v]`` is ``1 <<
    v``.  Only vertices coloured ``kmin`` or above are written; the classes
    below are still built, as they decide the later ones.  Returns the
    number of vertices written.  Buffers must hold at least
    ``cands.bit_count()`` entries, so a caller can reuse one pair per
    recursion depth and keep the hot path allocation-free.
    """
    below, bit = rows
    bit_length = int.bit_length
    m = 0
    colour = 0
    uncoloured = cands
    while uncoloured and colour + 1 < kmin:
        colour += 1
        colourable = uncoloured
        while colourable:
            v = bit_length(colourable) - 1
            uncoloured ^= bit[v]
            colourable &= below[v]
    while uncoloured:
        colour += 1
        colourable = uncoloured
        while colourable:
            v = bit_length(colourable) - 1
            order[m] = v
            bounds[m] = colour
            m += 1
            uncoloured ^= bit[v]
            colourable &= below[v]
    return m


def mirrored_tables(n: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """:func:`colour_top_down_into`'s ``(below, bit)`` tables for the graph
    on ``n`` vertices with these edges (u, v), u < v, with vertex v
    numbered n - 1 - v: then the highest vertex first is the lowest
    original vertex first.  Vertex u's neighbours below it in that
    numbering are its higher original neighbours."""
    top = n - 1
    bit = [1 << v for v in range(n)]
    higher = [0] * n
    for u, v in edges:
        higher[top - u] |= bit[top - v]
    return [(b - 1) & ~row for b, row in zip(bit, higher)], bit


def colour_order(g: Graph, cands: int) -> ColourResult:
    """Colour the vertices in the ``cands`` bitset of ``g``, lowest vertex
    first."""
    n = g.n
    size = cands.bit_count()
    order = [0] * size
    bounds = [0] * size
    mirrored = sum(1 << (n - 1 - v) for v in range(n) if cands >> v & 1)
    colour_top_down_into(mirrored_tables(n, g.edges()), mirrored, order, bounds, 0)
    return ColourResult([n - 1 - v for v in order], bounds)
