"""Independent feasibility checkers.

Every solution object produced by the algorithms is re-verified by the
functions here; nothing trusts a producer's self-report.  The checkers
deliberately use only first-principles definitions, not the solver code
paths: per-vertex tests on the adjacency masks (no vertex outside a cover
has a neighbour outside it, no vertex has a neighbour in its own colour
class), pair tests and BFS.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, mask_of


def is_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    """Every edge has an end in ``cover``: no vertex outside it has a
    neighbour outside it.  Ids of ``cover`` at or above n are ignored."""
    outside = g.full_mask & ~mask_of(cover)
    rest = outside
    while rest:
        low = rest & -rest
        if g.adj_bits[low.bit_length() - 1] & outside:
            return False
        rest ^= low
    return True


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    vs = sorted(set(s))
    return not any(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    vs = sorted(set(s))
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def is_connected_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    """Cover all edges and induce a connected subgraph.

    An empty cover is accepted only for edgeless graphs, matching the
    convention that the empty set is connected.
    """
    cs = set(cover)
    return is_vertex_cover(g, cs) and g.induces_connected(cs)


def is_proper_coloring(g: Graph, colors: Sequence[int]) -> bool:
    """No edge is monochromatic: one mask per colour class, and no
    vertex has a neighbour inside its own class."""
    if len(colors) != g.n or any(c < 1 for c in colors):
        return False
    classes: dict[int, int] = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << v
    return not any(row & classes[c] for row, c in zip(g.adj_bits, colors))


def is_triangle(g: Graph, t: Iterable[int]) -> bool:
    ts = set(t)
    return len(ts) == 3 and is_clique(g, ts)


def is_triangle_packing(g: Graph, triangles: Iterable[Iterable[int]]) -> bool:
    seen: set[int] = set()
    for t in triangles:
        ts = set(t)
        if not is_triangle(g, ts) or ts & seen:
            return False
        seen |= ts
    return True


def is_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    seen: set[int] = set()
    for u, v in edges:
        if u == v or not g.has_edge(u, v) or u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


# -- small induced-pattern recognition ---------------------------------
#
# A vertex set of size 3..5 induces exactly one graph, so the fixed
# pattern names can be decided from edge count / degree sequence alone.

def _induced_profile(g: Graph, s: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    vs = sorted(s)
    deg = {v: 0 for v in vs}
    m = 0
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if g.has_edge(u, v):
                m += 1
                deg[u] += 1
                deg[v] += 1
    return m, tuple(sorted(deg.values()))


def induces_pattern(g: Graph, s: Iterable[int], pattern: str) -> bool:
    """Does ``s`` induce the named fixed pattern in ``g``?"""
    vs = sorted(set(s))
    k = len(vs)
    m, degs = _induced_profile(g, vs)
    if pattern == "K2":
        return k == 2 and m == 1
    if pattern == "P3":
        return k == 3 and m == 2
    if pattern == "co-P3":
        return k == 3 and m == 1
    if pattern == "triangle":
        return k == 3 and m == 3
    if pattern == "K3bar":
        return k == 3 and m == 0
    if pattern == "P4":
        return k == 4 and m == 3 and degs == (1, 1, 2, 2)
    if pattern == "P3+K1":
        return k == 4 and m == 2 and degs == (0, 1, 1, 2)
    if pattern == "2K2":
        return k == 4 and m == 2 and degs == (1, 1, 1, 1)
    if pattern == "C4":
        return k == 4 and m == 4 and degs == (2, 2, 2, 2)
    if pattern == "C5":
        return k == 5 and m == 5 and degs == (2,) * 5 and g.induces_connected(vs)
    if pattern == "cycle":
        return k >= 3 and m == k and degs == (2,) * k and g.induces_connected(vs)
    if pattern == "odd-cycle":
        return k % 2 == 1 and induces_pattern(g, vs, "cycle")
    if pattern == "hole":
        return k >= 4 and induces_pattern(g, vs, "cycle")
    if pattern == "co-hole":
        return induces_pattern(g.complement(), vs, "hole")
    raise ValueError(f"unknown pattern {pattern!r}")
