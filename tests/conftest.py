"""Shared corpus helpers: seeded graphs and definitional brute-force checks."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from epa.certify import induces_pattern
from epa.graphs import Graph, bits, mask_of
from epa.generator import (
    GENERATOR_CLASSES,
    GeneratorSpec,
    SplitMix64,
    generate,
    random_connected_graph,
    random_graph,
    random_weights,
)
from small_graphs import adjacent

DENSITIES = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))


def corpus(count: int, n_lo: int, n_hi: int, seed0: int = 0):
    """Deterministic mixed-density random graphs, sizes cycling n_lo..n_hi."""
    out = []
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        d = DENSITIES[i % len(DENSITIES)]
        out.append(random_graph(n, d, seed0 + i))
    return out


def connected_corpus(count: int, n_lo: int, n_hi: int, seed0: int = 0):
    out = []
    for i in range(count):
        n = max(1, n_lo + i % (n_hi - n_lo + 1))
        d = DENSITIES[i % len(DENSITIES)]
        out.append(random_connected_graph(n, d, seed0 + i))
    return out


MASK_DENSITIES = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


def masked_corpus():
    """(graph, vertex mask) pairs for the checks that a routine under a
    mask answers what it answers on the induced subgraph: random graphs
    (n 0..21 at densities 1/5, 1/2 and 4/5) and planted draws of every
    generator class (n = 10, 20 and 40, k = n/10), each under the empty
    mask, the full mask and three random masks; a planted draw also under
    the mask of its unplanted vertices."""
    graphs = [(random_graph(n, d, 3300 + 3 * n + j), frozenset())
              for n in range(22) for j, d in enumerate(MASK_DENSITIES)]
    graphs += [generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), 3400 + n))
               for cls in GENERATOR_CLASSES for n in (10, 20, 40)]
    rng = SplitMix64(3500)
    for g, planted in graphs:
        masks = [0, g.full_mask] + [mask_of(v for v in range(g.n) if rng.chance(Fraction(p, 4)))
                                    for p in (1, 2, 3)]
        if planted:
            masks.append(g.full_mask & ~mask_of(planted))
        for within in masks:
            yield g, within


def deep_cograph(depth: int, seed: int, p4: bool = False) -> Graph:
    """A graph built from the inside out in ``depth`` levels, its ids
    shuffled.

    The innermost part is one vertex, or with ``p4`` the path 0-1-2-3.
    Each level joins the graph so far to, or unites it with, one new
    vertex, a threshold module of 2-4 new vertices, or both, so a level
    may peel a universal or isolated vertex beside a non-trivial module.
    Every P4 of the result lies in the innermost part, since a P4 is
    connected and co-connected: a cograph without ``p4``, and with it a
    graph whose only P4 sits ``depth`` levels down.
    """
    rng = SplitMix64(seed)
    rows = [0b10, 0b101, 0b1010, 0b100] if p4 else [0]
    for _ in range(depth):
        join = rng.below(2)
        shape = rng.below(3)          # 0: a vertex, 1: a module, 2: both
        sizes = ([] if shape == 1 else [1]) + ([2 + rng.below(3)] if shape else [])
        for size in sizes:
            start = len(rows)
            for v in range(start, start + size):
                # earlier groups when joined, and the module so far when v dominates it
                nb = (1 << start) - 1 if join else 0
                if rng.below(2):
                    nb |= (1 << v) - (1 << start)
                rows.append(nb)
                for u in bits(nb):
                    rows[u] |= 1 << v
    order = list(range(len(rows)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    return Graph(len(rows), [(order[u], order[v]) for u, row in enumerate(rows) for v in bits(row) if u < v])


def cliques(g: Graph, sizes):
    """Every clique of ``g`` with a size in ``sizes``, size by size, each
    size in lexicographic order."""
    for size in sizes:
        for z in combinations(range(g.n), size):
            if all(adjacent(g, u, v) for u, v in combinations(z, 2)):
                yield frozenset(z)


def weights_for(g: Graph, seed: int, unit: bool):
    from epa.graphs import unit_weights

    return unit_weights(g.n) if unit else random_weights(g.n, seed)


# -- definitional class membership (independent of the recognizers) ----


def _components(g: Graph) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def brute_member(g: Graph, cls: str) -> bool:
    """Membership straight from the definitions, by exhaustion."""
    if cls == "edgeless":
        return g.m == 0
    if cls == "forest":
        return g.m == g.n - len(_components(g))
    if cls == "bipartite":
        for mask in range(1 << g.n):
            if all((mask >> u & 1) != (mask >> v & 1) for u, v in g.edges()):
                return True
        return g.n == 0
    if cls == "cluster":
        return all(
            adjacent(g, u, v)
            for comp in _components(g)
            for u in comp
            for v in comp
            if u < v
        )
    if cls == "cocluster":
        return brute_member(g.complement(), "cluster")
    if cls == "cograph":
        return not any(induces_pattern(g, c, "P4") for c in combinations(range(g.n), 4))
    if cls == "split":
        for mask in range(1 << g.n):
            cl = [v for v in range(g.n) if mask >> v & 1]
            ind = [v for v in range(g.n) if not mask >> v & 1]
            if all(adjacent(g, u, v) for i, u in enumerate(cl) for v in cl[i + 1 :]) and not any(
                adjacent(g, u, v) for i, u in enumerate(ind) for v in ind[i + 1 :]
            ):
                return True
        return False
    if cls == "chordal":
        return not any(
            induces_pattern(g, c, "hole")
            for k in range(4, g.n + 1)
            for c in combinations(range(g.n), k)
        )
    if cls == "cochordal":
        return brute_member(g.complement(), "chordal")
    if cls == "triangle-free":
        return not any(induces_pattern(g, c, "triangle") for c in combinations(range(g.n), 3))
    if cls == "co-triangle-free":
        return not any(induces_pattern(g, c, "K3bar") for c in combinations(range(g.n), 3))
    if cls == "p3k1-free":
        return not any(induces_pattern(g, c, "P3+K1") for c in combinations(range(g.n), 4))
    raise ValueError(cls)
