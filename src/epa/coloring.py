"""Coloring algorithms whose color counts degrade additively with the
distance to a tractable class.

None of the algorithms receives a modulator; the guarantees (tested
against brute-force oracles) are

* class-oracle greedy: at most c + k colors, k the smallest modulator to
  the oracle's class,
* reverse degeneracy greedy: at most chi(G-M) + |M| for every chordal
  modulator M,
* maximal-independent-set greedy: at most chi(G-M) + |M| for cograph M
  and 2*chi(G-M) + |M| - 1 for cochordal M,
* the two-phase routine: at most chi(G-M) + |M| for (P3+K1)-free M.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .graphs import Graph, bits, first_triangle, mask_of
from .recognize import two_coloring
from .solvers import max_matching


@dataclass(frozen=True)
class ColoringSol:
    colors: tuple[int, ...]          # 1-based, contiguous 1..colors_used
    colors_used: int
    algorithm: str


def _normalized(colors: Sequence[int], algorithm: str) -> ColoringSol:
    remap: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in remap:
            remap[c] = len(remap) + 1
        out.append(remap[c])
    return ColoringSol(tuple(out), len(remap), algorithm)


@dataclass(frozen=True)
class ClassColoringOracle:
    """A c-coloring attempt for some graph class.

    On members of the class the attempt must be a valid coloring with at
    most ``budget`` colors; on other graphs it may return anything (the
    caller always validates)."""

    name: str
    budget: int
    attempt: Callable[[Graph], tuple[int, ...]]


def bipartite_oracle() -> ClassColoringOracle:
    def attempt(g: Graph) -> tuple[int, ...]:
        colors = two_coloring(g)
        return () if colors is None else tuple(colors)

    return ClassColoringOracle("bipartite", 2, attempt)


def degeneracy_oracle(budget: int = 6) -> ClassColoringOracle:
    """Greedy coloring along the reverse degeneracy order, clamped to the
    budget.  Valid on graphs of degeneracy < budget (so in particular on
    planar graphs with budget 6); a weaker stand-in for an exact planar
    4-coloring."""

    def attempt(g: Graph) -> tuple[int, ...]:
        raw = _degeneracy_greedy(g)
        return tuple((c - 1) % budget + 1 for c in raw)

    return ClassColoringOracle(f"degeneracy<{budget}", budget, attempt)


def _proper_within(g: Graph, colors: Sequence[int], c: int) -> bool:
    """Is ``colors`` a proper coloring of g with colors 1..c?  One mask
    per colour class; no vertex has a neighbour inside its own class."""
    if len(colors) != g.n or not all(1 <= x <= c for x in colors):
        return False
    classes = [0] * (c + 1)
    for v, x in enumerate(colors):
        classes[x] |= 1 << v
    return not any(row & classes[x] for row, x in zip(g.adj_bits, colors))


def color_with_class_oracle(g: Graph, oracle: ClassColoringOracle) -> ColoringSol:
    """Color with at most c + k colors, k the least modulator to the
    oracle's class.

    Vertices are processed in id order.  Each new vertex first tries, for
    every c-subset S of the palette in lexicographic order, to recolor
    the S-colored prefix plus itself through the class oracle (remapped
    into S); only if all attempts fail a fresh color opens.
    """
    n = g.n
    c = oracle.budget
    colors = [0] * n
    opened = 0
    for i in range(n):
        # ``combinations`` yields each subset sorted: colour x maps to subset[x - 1]
        for subset in combinations(range(1, opened + 1), c):
            chosen = [v for v in range(i) if colors[v] in subset] + [i]
            sub, old = g.induced_subgraph(chosen)
            attempt = oracle.attempt(sub)
            if _proper_within(sub, attempt, c):
                for v, x in zip(old, attempt):
                    colors[v] = subset[x - 1]
                break
        else:
            opened += 1
            colors[i] = opened
    return _normalized(colors, f"col-oracle[{oracle.name}]")


# ---------------------------------------------------------------------


def _degeneracy_greedy(g: Graph) -> list[int]:
    """Each vertex, in reverse degeneracy order, takes the first colour
    whose class mask holds none of its neighbours.  At most ``degen`` of
    them come before it, so ``degen + 1`` classes suffice."""
    order, degen = g.degeneracy_order()
    adj = g.adj_bits
    colors = [0] * g.n
    classes = [0] * (degen + 1)
    for v in reversed(order):
        c = 0
        while adj[v] & classes[c]:
            c += 1
        classes[c] |= 1 << v
        colors[v] = c + 1
    return colors


def color_degeneracy(g: Graph) -> ColoringSol:
    """Greedy along the reverse min-degree removal order: at most
    degeneracy + 1 colors, hence at most chi(G-M) + |M| for every chordal
    modulator M."""
    return _normalized(_degeneracy_greedy(g), "col-degeneracy")


def _greedy_mis(g: Graph, mask: int, chosen: int = 0) -> int:
    """Lexicographically greedy extension of the independent set
    ``chosen`` to a maximal independent set inside ``mask``: the lowest
    free vertex is chosen, and its closed neighbourhood stops being free,
    one row read per chosen vertex."""
    adj = g.adj_bits
    free = mask & ~chosen
    for v in bits(chosen):
        free &= ~adj[v]
    while free:
        low = free & -free
        chosen |= low
        free &= ~(adj[low.bit_length() - 1] | low)
    return chosen


def color_greedy_mis(g: Graph) -> ColoringSol:
    """One color per greedily extracted maximal independent set."""
    colors = [0] * g.n
    remaining = g.full_mask
    used = 0
    while remaining:
        ind = _greedy_mis(g, remaining)
        used += 1
        for v in bits(ind):
            colors[v] = used
        remaining &= ~ind
    return _normalized(colors, "col-greedy-mis")


def color_p3k1free(g: Graph) -> ColoringSol:
    """Two phases: big maximal independent sets first, then pairs from a
    maximum matching in the complement.

    Phase one repeatedly finds an independent triple, grows it to a
    maximal independent set, and spends one color on it.  Once no triple
    remains, color classes have size at most two, and matched complement
    pairs plus singletons are optimal on that remainder.
    """
    colors = [0] * g.n
    co = g.complement()
    remaining = g.full_mask
    used = 0
    # an independent triple of g is a triangle of its complement
    while (triple := first_triangle(co.adj_bits, remaining)) is not None:
        ind = _greedy_mis(g, remaining, mask_of(triple))
        used += 1
        for v in bits(ind):
            colors[v] = used
        remaining &= ~ind
    for u, v in sorted(max_matching(co, remaining)):
        used += 1
        colors[u] = colors[v] = used
    for v in bits(remaining):
        if not colors[v]:
            used += 1
            colors[v] = used
    return _normalized(colors, "col-p3k1free")
