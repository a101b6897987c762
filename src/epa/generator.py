"""Seeded instance generation with planted modulators.

All randomness flows through a splitmix64 stream so instances are
bit-for-bit reproducible from the spec alone (the scheme is documented
in the README).  A generated graph consists of a base-class graph on
``n`` vertices plus ``k`` planted modulator vertices attached with the
given density, with all labels shuffled afterwards; deleting the planted
set provably lands in the base class, and the recognizer re-checks that
at generation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graphs import Graph, Weights, bits, first_triangle, full_join
from .recognize import recognize

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The standard splitmix64 stream (documented constants above)."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _M64
        z = ((z ^ (z >> 27)) * _MIX2) & _M64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform in [0, n) by the multiply-shift reduction."""
        return (self.next64() * n) >> 64

    def chance(self, p: Fraction) -> bool:
        """True with probability p (exact up to 2^-64)."""
        return self.next64() * p.denominator < p.numerator * (1 << 64)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class GeneratorSpec:
    base: str
    n: int
    k: int
    density: Fraction
    seed: int


class GenerationError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# base-class constructions


def _partition(rng: SplitMix64, n: int, parts_hint: int) -> list[list[int]]:
    parts = max(1, parts_hint)
    assign = [rng.below(parts) for _ in range(n)]
    groups = [[v for v in range(n) if assign[v] == p] for p in range(parts)]
    return [grp for grp in groups if grp]


def _base_cluster(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    groups = _partition(rng, n, 1 + rng.below(max(1, n)))
    es = []
    for grp in groups:
        es.extend((grp[i], grp[j]) for i in range(len(grp)) for j in range(i + 1, len(grp)))
    return es


def _base_cocluster(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    groups = _partition(rng, n, 1 + rng.below(max(1, n)))
    es = []
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            es.extend((u, v) if u < v else (v, u) for u in groups[a] for v in groups[b])
    return es


def _base_forest(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    es = []
    for v in range(1, n):
        if rng.chance(Fraction(7, 8)):
            es.append((rng.below(v), v))
    return es


def _base_bipartite(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    side = [rng.chance(Fraction(1, 2)) for _ in range(n)]
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.chance(density)
    ]


def _base_split(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    clique = [rng.chance(Fraction(1, 2)) for _ in range(n)]
    es = []
    for u in range(n):
        for v in range(u + 1, n):
            if clique[u] and clique[v]:
                es.append((u, v))
            elif (clique[u] or clique[v]) and rng.chance(density):
                es.append((u, v))
    return es


def _base_cograph(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    es: list[tuple[int, int]] = []

    def build(vs: list[int], join: bool) -> None:
        if len(vs) <= 1:
            return
        parts = 2 + rng.below(min(3, len(vs) - 1))
        assign = [rng.below(parts) for _ in vs]
        groups = [[v for v, a in zip(vs, assign) if a == p] for p in range(parts)]
        groups = [grp for grp in groups if grp]
        if len(groups) == 1:
            half = len(vs) // 2
            groups = [vs[:half], vs[half:]]
        if join:
            for a in range(len(groups)):
                for b in range(a + 1, len(groups)):
                    es.extend(
                        (u, v) if u < v else (v, u) for u in groups[a] for v in groups[b]
                    )
        for grp in groups:
            build(grp, not join)

    build(list(range(n)), rng.chance(Fraction(1, 2)))
    return es


def _base_chordal(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    # each vertex attaches to a clique among earlier ones, so reverse id
    # order is a perfect elimination ordering
    g_adj: list[set[int]] = [set() for _ in range(n)]
    es = []
    for v in range(1, n):
        if not rng.chance(Fraction(15, 16)):
            continue
        u = rng.below(v)
        clique = {u}
        while rng.chance(density):
            common = [x for x in range(v) if x not in clique and all(x in g_adj[c] for c in clique)]
            if not common:
                break
            clique.add(common[rng.below(len(common))])
        for c in clique:
            es.append((c, v))
            g_adj[c].add(v)
            g_adj[v].add(c)
    return es


def _base_cochordal(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    inner = Graph(n, _base_chordal(rng, n, density))
    return list(inner.complement().edges())


def _base_triangle_free(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    g = Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(density)],
    )
    # Delete the last edge of the lexicographically first triangle until
    # none is left.  Deleting edges makes no triangle, so the search
    # resumes at the first vertex of the last triangle.
    adj = list(g.adj_bits)
    within = g.full_mask
    while (tri := first_triangle(adj, within)) is not None:
        a, b, c = tri
        adj[b] &= ~(1 << c)
        adj[c] &= ~(1 << b)
        within = within >> a << a
    return [(u, v) for u in range(n) for v in bits(adj[u] >> (u + 1) << (u + 1))]


def _base_p3k1_free(rng: SplitMix64, n: int, density: Fraction) -> list[tuple[int, int]]:
    # full join of a cocluster with a complement-of-triangle-free part
    n1 = rng.below(n + 1)
    left = Graph(n1, _base_cocluster(rng, n1, density))
    tf = Graph(n - n1, _base_triangle_free(rng, n - n1, density))
    right = tf.complement()
    return list(full_join(left, right).edges())


_BASES: dict[str, Callable[[SplitMix64, int, Fraction], list[tuple[int, int]]]] = {
    "edgeless": lambda rng, n, d: [],
    "cluster": _base_cluster,
    "cocluster": _base_cocluster,
    "forest": _base_forest,
    "bipartite": _base_bipartite,
    "split": _base_split,
    "cograph": _base_cograph,
    "chordal": _base_chordal,
    "cochordal": _base_cochordal,
    "p3k1-free": _base_p3k1_free,
    "triangle-free": _base_triangle_free,
}

GENERATOR_CLASSES = tuple(_BASES)


def generate(spec: GeneratorSpec) -> tuple[Graph, frozenset[int]]:
    """Instance with a planted modulator of size <= k to the base class."""
    if spec.base not in _BASES:
        raise GenerationError(f"unsupported base class {spec.base!r}")
    if spec.n < 0 or spec.k < 0:
        raise GenerationError("sizes must be nonnegative")
    if not 0 <= spec.density <= 1:
        raise GenerationError("density must lie in [0, 1]")
    rng = SplitMix64(spec.seed)
    base_edges = _BASES[spec.base](rng, spec.n, spec.density)
    total = spec.n + spec.k
    edges = list(base_edges)
    for p in range(spec.n, total):
        for u in range(p):
            if rng.chance(spec.density):
                edges.append((u, p))
    perm = list(range(total))
    rng.shuffle(perm)
    g = Graph(total, [(perm[u], perm[v]) for u, v in edges])
    planted = frozenset(perm[p] for p in range(spec.n, total))
    rest = [v for v in range(total) if v not in planted]
    sub, _ = g.induced_subgraph(rest)
    verdict = recognize(sub, spec.base)
    if not verdict.member:
        raise GenerationError(
            f"construction bug: deleting the planted set does not yield {spec.base}"
        )
    return g, planted


# ---------------------------------------------------------------------
# plain random corpora (used by tests and the bench harness)


def random_graph(n: int, density: Fraction, seed: int) -> Graph:
    rng = SplitMix64(seed)
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.chance(density)],
    )


def random_connected_graph(n: int, density: Fraction, seed: int) -> Graph:
    rng = SplitMix64(seed)
    es = {(rng.below(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.chance(density) and (u, v) not in es:
                es.add((u, v))
    return Graph(n, sorted(es))


def random_weights(n: int, seed: int, zero_share: Fraction = Fraction(1, 10)) -> Weights:
    """Random small rationals, occasionally zero (exercises zero-weight paths)."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(n):
        if rng.chance(zero_share):
            out.append(Fraction(0))
        else:
            out.append(Fraction(1 + rng.below(12), 1 + rng.below(6)))
    return tuple(out)


# ---------------------------------------------------------------------
# the cochordal tightness family


def chained_triangle_complement(gadgets: int) -> Graph:
    """Complement of a chain of triangles, labeled adversarially.

    The base picture: triangles (x_i, y_i, z_i) for i = 1..g linked by
    edges y_i - x_{i+1}.  Its complement is cochordal with chromatic
    number g, yet the ascending-id greedy MIS coloring spends one color
    per chain pair {y_i, x_{i+1}}, then {x_1, z_1}, {y_g, z_g} and a
    singleton per remaining z_i: exactly 2g - 1 colors.
    """
    if gadgets < 2:
        raise ValueError("family needs at least two gadgets")
    g = gadgets
    x = {}
    y = {}
    z = {}
    for i in range(1, g):
        y[i] = 2 * (i - 1)
        x[i + 1] = 2 * (i - 1) + 1
    x[1] = 2 * g - 2
    z[1] = 2 * g - 1
    y[g] = 2 * g
    z[g] = 2 * g + 1
    for i in range(2, g):
        z[i] = 2 * g + i
    edges = []
    for i in range(1, g + 1):
        edges += [(x[i], y[i]), (y[i], z[i]), (x[i], z[i])]
    for i in range(1, g):
        edges.append((y[i], x[i + 1]))
    pictured = Graph(3 * g, [(min(u, v), max(u, v)) for u, v in edges])
    return pictured.complement()
