"""Independent feasibility checkers.

Every solution object produced by the algorithms is re-verified by the
functions here; nothing trusts a producer's self-report.  The checkers
deliberately use only first-principles definitions, not the solver code
paths: per-vertex tests on the adjacency masks (no vertex outside a cover
has a neighbour outside it, no vertex has a neighbour in its own colour
class), degree counts inside a vertex mask and BFS.

One rule holds for every checker that takes vertex ids: a certificate
that names an id outside 0..n-1 is rejected, never read.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .graphs import Graph, bits, connected


def _vertex_mask(g: Graph, ids: Iterable[int]) -> Optional[int]:
    """Mask of ``ids``, or None when some id is no vertex of g."""
    n = g.n
    mask = 0
    for v in ids:
        if not 0 <= v < n:
            return None
        mask |= 1 << v
    return mask


def _covers(g: Graph, cover: int) -> bool:
    """No vertex outside the mask ``cover`` has a neighbour outside it."""
    outside = g.full_mask & ~cover
    rest = outside
    while rest:
        low = rest & -rest
        if g.adj_bits[low.bit_length() - 1] & outside:
            return False
        rest ^= low
    return True


def is_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    """Every edge has an end in ``cover``."""
    c = _vertex_mask(g, cover)
    return c is not None and _covers(g, c)


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    m = _vertex_mask(g, s)
    return m is not None and not any(g.adj_bits[v] & m for v in bits(m))


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    m = _vertex_mask(g, s)
    return m is not None and all((g.adj_bits[v] | 1 << v) & m == m for v in bits(m))


def is_connected_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    """Cover all edges and induce a connected subgraph; the empty cover
    passes on edgeless graphs only, as the empty set counts as connected."""
    c = _vertex_mask(g, cover)
    return c is not None and _covers(g, c) and connected(g.adj_bits, c)


def is_proper_coloring(g: Graph, colors: Sequence[int]) -> bool:
    """No edge is monochromatic: one mask per colour class, and no
    vertex has a neighbour inside its own class."""
    if len(colors) != g.n or any(c < 1 for c in colors):
        return False
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(row & classes[c] for row, c in zip(g.adj_bits, colors))


# -- small induced patterns, tested on a vertex mask --------------------

class Pattern(NamedTuple):
    """A named induced pattern.  ``test(g, mask)`` decides whether the
    mask induces it, and is the definition.  ``edges(k)`` is the edge
    count of every k-vertex mask that induces it, or None when no
    k-vertex mask does, so a scan over many masks can skip those whose
    counts differ: the test would reject them."""

    test: Callable[[Graph, int], bool]
    edges: Callable[[int], Optional[int]]


def _degrees(degrees: tuple[int, ...]) -> Pattern:
    """The mask induces the graph with this sorted degree sequence.  On
    the 2..5 vertices used here the sequence fixes the graph: on 2 or 3
    vertices the edge count does; on 4, P4 differs from the other 3-edge
    graphs (K3+K1, the claw) and C4 is the only 2-regular graph; on 5,
    C5 is the only 2-regular graph."""
    size, want = len(degrees), list(degrees)
    edges = sum(degrees) // 2

    def test(g: Graph, mask: int) -> bool:
        adj = g.adj_bits
        return mask.bit_count() == size and sorted(
            [(adj[v] & mask).bit_count() for v in bits(mask)]) == want

    return Pattern(test, lambda k: edges if k == size else None)


def _cycle(lengths: range) -> Pattern:
    """The mask induces a cycle with a length in ``lengths``: every
    degree is 2 (checked with an early exit) and G[mask] is connected.
    A cycle has as many edges as vertices."""

    def test(g: Graph, mask: int) -> bool:
        if mask.bit_count() not in lengths:
            return False
        adj = g.adj_bits
        for v in bits(mask):
            if (adj[v] & mask).bit_count() != 2:
                return False
        return connected(g.adj_bits, mask)

    return Pattern(test, lambda k: k if k in lengths else None)


_PATTERNS = {
    "K2": _degrees((1, 1)),
    "P3": _degrees((1, 1, 2)),
    "co-P3": _degrees((0, 1, 1)),
    "triangle": _degrees((2, 2, 2)),
    "K3bar": _degrees((0, 0, 0)),
    "P4": _degrees((1, 1, 2, 2)),
    "P3+K1": _degrees((0, 1, 1, 2)),
    "2K2": _degrees((1, 1, 1, 1)),
    "C4": _degrees((2, 2, 2, 2)),
    "C5": _degrees((2, 2, 2, 2, 2)),
    "cycle": _cycle(range(3, sys.maxsize)),
    "odd-cycle": _cycle(range(3, sys.maxsize, 2)),
    "hole": _cycle(range(4, sys.maxsize)),
}
_hole = _PATTERNS["hole"]
# a hole of the complement: its k-set spans the k(k-1)/2 - k non-edges of a hole
_PATTERNS["co-hole"] = Pattern(lambda g, mask: _hole.test(g.complement(), mask),
                               lambda k: k * (k - 3) // 2 if _hole.edges(k) else None)


def _packs(g: Graph, parts: Iterable[Iterable[int]], test: Callable) -> bool:
    """The parts are pairwise disjoint and each passes ``test``."""
    seen = 0
    for part in parts:
        m = _vertex_mask(g, part)
        if m is None or m & seen or not test(g, m):
            return False
        seen |= m
    return True


def is_triangle_packing(g: Graph, triangles: Iterable[Iterable[int]]) -> bool:
    return _packs(g, triangles, _PATTERNS["triangle"].test)


def is_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    return _packs(g, edges, _PATTERNS["K2"].test)


def induces_pattern(g: Graph, s: Iterable[int], pattern: str) -> bool:
    """Does ``s`` induce the named pattern in ``g``?"""
    p = _PATTERNS.get(pattern)
    if p is None:
        raise ValueError(f"unknown pattern {pattern!r}")
    m = _vertex_mask(g, s)
    return m is not None and p.test(g, m)
