"""Tiny graph constructors shared by the tests."""

from __future__ import annotations

from epa.graphs import Graph


def adjacent(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj_bits[u] >> v & 1)


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def threshold_cograph(n: int) -> Graph:
    """Odd vertices dominate every earlier vertex; cotree depth is about n."""
    return Graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    es = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, es)
