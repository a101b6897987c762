"""Triangle packing with additive guarantees.

A maximal packing loses at most one triangle per vertex of a cluster
modulator; a 3-maximal packing (no swap of at most two packed triangles
for strictly more) is optimal on coclusters, hence loses at most the
cocluster modulator size in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .graphs import Graph, bits, first_triangle, mask_of


@dataclass(frozen=True)
class TrianglePackingSol:
    triangles: tuple[frozenset[int], ...]
    algorithm: str

    @property
    def size(self) -> int:
        return len(self.triangles)


def _triangles_within(g: Graph, pool: int) -> Iterator[tuple[int, int, int]]:
    for u in bits(pool):
        for v in bits(g.adj_bits[u] & pool & ~((1 << (u + 1)) - 1)):
            for w in bits(g.adj_bits[u] & g.adj_bits[v] & pool & ~((1 << (v + 1)) - 1)):
                yield u, v, w


def _extend(adj: Sequence[int], free: int, packed: list[tuple[int, int, int]]) -> list:
    """Append to ``packed`` the lexicographically first triangle among the
    ``free`` vertices, until none survives, and return it.  A free vertex
    below the last triangle's first vertex lies on no free triangle, so
    each search resumes there."""
    a = 0
    while (tri := first_triangle(adj, free >> a << a)) is not None:
        packed.append(tri)
        free &= ~mask_of(tri)
        a = tri[0]
    return packed


def tp_maximal(g: Graph) -> TrianglePackingSol:
    """Greedy maximal packing: the lexicographically first triangle among
    free vertices, until none survives."""
    packed = _extend(g.adj_bits, g.full_mask, [])
    return TrianglePackingSol(tuple(map(frozenset, packed)), "tp-maximal")


def _disjoint_sets(g: Graph, pool: int, want: int) -> Optional[list[tuple[int, int, int]]]:
    """``want`` pairwise disjoint triangles inside ``pool``, if they exist."""
    if pool.bit_count() < 3 * want:
        return None
    tris = list(_triangles_within(g, pool))
    masks = [mask_of(t) for t in tris]

    def rec(start: int, used: int, acc: list[tuple[int, int, int]]) -> Optional[list]:
        if len(acc) == want:
            return acc
        for i in range(start, len(tris)):
            tm = masks[i]
            if tm & used:
                continue
            got = rec(i + 1, used | tm, acc + [tris[i]])
            if got is not None:
                return got
        return None

    return rec(0, 0, [])


def tp_3maximal(g: Graph) -> TrianglePackingSol:
    """Improve a maximal packing by swaps that remove at most two packed
    triangles and insert strictly more, re-extended to a maximal packing
    after each swap, until none applies.

    Incoming triangles only ever use vertices freed by the removal plus
    currently free ones, which is enough: any improving swap's new
    triangles live there.
    """
    adj, full = g.adj_bits, g.full_mask
    packed = _extend(adj, full, [])
    while True:
        free = full & ~mask_of(v for t in packed for v in t)
        swaps = (out for drop in (1, 2) for out in combinations(range(len(packed)), drop))
        for out in swaps:
            got = _disjoint_sets(g, free | mask_of(v for i in out for v in packed[i]), len(out) + 1)
            if got is not None:
                break
        else:
            return TrianglePackingSol(tuple(map(frozenset, packed)), "tp-3maximal")
        packed = [t for i, t in enumerate(packed) if i not in out] + got
        packed = _extend(adj, full & ~mask_of(v for t in packed for v in t), packed)
