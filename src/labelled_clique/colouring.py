"""Greedy sequential colouring: branching order plus a non-decreasing bound.

There are two kernels with the same colouring, numbered both ways.
:func:`colour_top_down_into` takes the highest set bit, which
``bit_length`` finds without allocating, removes it through a table of
``1 << v`` and keeps only the vertices a precomputed ``below`` row leaves
colourable.  Both searches number their rows top-down for it: the paper's
search and the label-subset sub-searches.  :func:`colour_order_into`
builds colour classes lowest-vertex-first: it repeatedly takes the lowest
set bit of the still-colourable set, gives it the current colour, and
knocks out its neighbours with one and-with-complement.  It now serves
only :func:`colour_order` and the peel's colouring test,
``graph._colours``; its colourings are the mirror images of the top-down
ones.

The ``bounds`` entry for a vertex records how many colours were in use
when it was coloured, so the first ``i`` vertices of ``order`` are always
colourable with ``bounds[i-1]`` colours, which caps any clique among them
at that size.  Both kernels write only the vertices coloured ``kmin`` or
above: the search passes the lowest colour whose branch can beat its
incumbent, so a vertex below it could never be branched on (Konc and
Janezic's k_min).  What they write is the suffix of the full colouring
whose bounds reach ``kmin``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .graph import Graph


class ColourResult(NamedTuple):
    """Vertices in colouring order with the per-prefix colour count."""

    order: list[int]
    bounds: list[int]


def colour_order_into(
    adjacency: list[int], cands: int, order: list[int], bounds: list[int], kmin: int
) -> int:
    """Greedy-colour the ``cands`` bitset into caller-provided buffers.

    Only vertices coloured ``kmin`` or above are written; the classes below
    are still built, as they decide the later ones.  Returns the number of
    vertices written.  Buffers must hold at least ``cands.bit_count()``
    entries, so a caller can reuse one pair per recursion depth and keep
    the hot path allocation-free, as the searches do with
    :func:`colour_top_down_into`.
    """
    m = 0
    colour = 0
    uncoloured = cands
    while uncoloured and colour + 1 < kmin:
        colour += 1
        colourable = uncoloured
        while colourable:
            bit = colourable & -colourable
            uncoloured ^= bit
            colourable = (colourable ^ bit) & ~adjacency[bit.bit_length() - 1]
    while uncoloured:
        colour += 1
        colourable = uncoloured
        while colourable:
            bit = colourable & -colourable
            v = bit.bit_length() - 1
            order[m] = v
            bounds[m] = colour
            m += 1
            uncoloured ^= bit
            colourable = (colourable ^ bit) & ~adjacency[v]
    return m


def colour_top_down_into(
    rows: tuple[list[int], list[int]], cands: int, order: list[int], bounds: list[int], kmin: int
) -> int:
    """:func:`colour_order_into`, highest vertex first.

    ``rows`` is the pair ``(below, bit)``: ``below[v]`` is the bitset of
    ``v``'s non-neighbours numbered below ``v``, and ``bit[v]`` is ``1 <<
    v``.  On rows numbered ``v -> n - 1 - v`` this writes the mirror image
    of :func:`colour_order_into`'s order, with the same bounds.
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


def colour_order(g: Graph, cands: int) -> ColourResult:
    """Colour the vertices in the ``cands`` bitset of ``g``."""
    size = cands.bit_count()
    order = [0] * size
    bounds = [0] * size
    colour_order_into(g.adjacency, cands, order, bounds, 0)
    return ColourResult(order, bounds)
