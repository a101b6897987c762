"""Seeded instance generation with planted modulators.

All randomness flows through a splitmix64 stream so instances are
bit-for-bit reproducible from the spec alone (the scheme is documented
in the README).  A generated graph consists of a base-class graph on
``n`` vertices plus ``k`` planted modulator vertices attached with the
given density, with all labels shuffled afterwards; deleting the planted
set provably lands in the base class, and the recognizer re-checks that
at generation time on the final graph, under the mask of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable

from .graphs import Graph, Weights, _columns, _neighbours, bits, complement_rows, mask_of
from .instances import MAX_VERTICES
from .recognize import recognize

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FOREST_EDGE = Fraction(7, 8)
_CHORDAL_EDGE = Fraction(15, 16)

# ``chances`` runs up to _WIDTH draws at once, draw i in lane i (bits
# 128i..128i+127) of one integer; lane i of _ONES, _LANES and _STEPS holds
# 1, 2^64 - 1 and i + 1, and _BIT126 reads bit 126 from a lane's top byte.
_WIDTH = 1024
_ONES = int.from_bytes(bytes([1] + [0] * 15) * _WIDTH, "little")
_LANES = _ONES * _M64
_STEPS = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, _WIDTH + 1)),
                        "little")
_BIT126 = bytes(b >> 6 & 1 for b in range(256))
# the results of ``chances`` as binary digits, for ``int(..., 2)``
_DRAW_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class SplitMix64:
    """The standard splitmix64 stream (documented constants above).

    ``chances`` computes a run of ``chance`` draws lane-packed, one big
    integer operation per step of ``next64`` for up to _WIDTH draws, and
    gives the same results and the same state as the single draws."""

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

    def chances(self, count: int, p: Fraction) -> bytes:
        """The next ``count`` results of ``chance(p)``, as bytes 0 and 1.

        Each lane's value stays below 2^128: states and xor-shifts are
        masked back to 64 bits (a shift brings down the next lane's low
        bits), and products of two 64-bit values fit.  With q < 2^62,
        lane i of (2^126 - 1 + p 2^64) - output q lies in [0, 2^127) and
        has bit 126 set exactly when output q < p 2^64."""
        q = p.denominator
        if q >= 1 << 62:
            return bytes([self.chance(p) for _ in range(count)])
        out = []
        test = (1 << 126) - 1 + (p.numerator << 64)
        for start in range(0, count, _WIDTH):
            width = min(_WIDTH, count - start)
            low = (1 << 128 * width) - 1
            ones, lanes = _ONES & low, _LANES & low
            z = (self.state * ones + _GAMMA * (_STEPS & low)) & lanes
            self.state = (self.state + width * _GAMMA) & _M64
            z = (z ^ z >> 30) & lanes
            z = (z * _MIX1) & lanes
            z = (z ^ z >> 27) & lanes
            z = (z * _MIX2) & lanes
            z = (z ^ z >> 31) & lanes
            out.append((test * ones - z * q).to_bytes(16 * width, "little")[15::16])
        return b"".join(out).translate(_BIT126)

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
# base-class constructions: each returns the adjacency masks of its
# graph on vertices 0..n-1


def _group_masks(rng: SplitMix64, n: int) -> list[int]:
    """Each vertex's group, as a mask, in a random partition of range(n)."""
    parts = 1 + rng.below(max(1, n))
    assign = [rng.below(parts) for _ in range(n)]
    masks = [0] * parts
    for v, a in enumerate(assign):
        masks[a] |= 1 << v
    return [masks[a] for a in assign]


def _base_cluster(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    return [m ^ (1 << v) for v, m in enumerate(_group_masks(rng, n))]


def _base_forest(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    rows = [0] * n
    for v in range(1, n):
        if rng.chance(_FOREST_EDGE):
            u = rng.below(v)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def _draw_pairs(rng: SplitMix64, rows: list[int], others: list[int],
                density: Fraction) -> list[int]:
    """``rows`` plus the edge uv for each v > u in ``others[u]`` with the
    given chance, one draw per pair in lexicographic order, all drawn in
    one run."""
    draws = rng.chances(sum((other >> (u + 1)).bit_count() for u, other in enumerate(others)),
                        density)
    start = 0
    for u, other in enumerate(others):
        vs = _neighbours(other >> (u + 1) << (u + 1), len(rows))
        for v in compress(vs, draws[start:start + len(vs)]):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        start += len(vs)
    return rows


def _base_bipartite(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    side = rng.chances(n, Fraction(1, 2))
    right = mask_of(compress(range(n), side))
    left = ((1 << n) - 1) ^ right
    return _draw_pairs(rng, [0] * n, [left if s else right for s in side], density)


def _base_split(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    # clique pairs are edges and independent pairs are not, without a draw
    in_clique = rng.chances(n, Fraction(1, 2))
    clique = mask_of(compress(range(n), in_clique))
    rest = ((1 << n) - 1) ^ clique
    rows = [clique ^ (1 << v) if c else 0 for v, c in enumerate(in_clique)]
    return _draw_pairs(rng, rows, [rest if c else clique for c in in_clique], density)


def _base_cograph(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    rows = [0] * n

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
            whole = mask_of(vs)
            for grp in groups:
                others = whole ^ mask_of(grp)
                for v in grp:
                    rows[v] |= others
        for grp in groups:
            build(grp, not join)

    build(list(range(n)), rng.chance(Fraction(1, 2)))
    return rows


def _base_chordal(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    # each vertex attaches to a clique among earlier ones, so reverse id
    # order is a perfect elimination ordering
    rows = [0] * n
    for v in range(1, n):
        if not rng.chance(_CHORDAL_EDGE):
            continue
        clique = 1 << rng.below(v)
        common = rows[clique.bit_length() - 1]  # earlier, adjacent to all of clique
        while rng.chance(density) and common:
            x = _nth_bit(common, rng.below(common.bit_count()))
            clique |= 1 << x
            common &= rows[x]
        for c in bits(clique):
            rows[c] |= 1 << v
        rows[v] = clique
    return rows


def _nth_bit(mask: int, i: int) -> int:
    """Index of the set bit of ``mask`` with i set bits below it.  The
    window [lo, lo + width) holding it is halved by popcounts until it is
    the lowest set bit from lo up."""
    lo, width = 0, mask.bit_length()
    while i:
        half = width >> 1
        count = (mask >> lo & ((1 << half) - 1)).bit_count()
        if i < count:
            width = half
        else:
            i -= count
            lo += half
            width -= half
    rest = mask >> lo
    return lo + (rest & -rest).bit_length() - 1


def _base_triangle_free(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    rows = _draw_pairs(rng, [0] * n, [(1 << n) - 1] * n, density)
    # Delete the last edge of the lexicographically first triangle until
    # none is left.  Deleting edges makes no triangle, so the search never
    # goes back: the triangles (a, b, c) of a pair a < b are the common
    # neighbours c > b, and deleting their edges bc ends them all at once
    # while leaving every other pair's triangles as they were.
    for a in range(n):
        above_a = rows[a] >> (a + 1) << (a + 1)
        for b in bits(above_a):
            common = above_a & rows[b] >> (b + 1) << (b + 1)
            if common:
                rows[b] &= ~common
                for c in bits(common):
                    rows[c] &= ~(1 << b)
    return rows


def _base_p3k1_free(rng: SplitMix64, n: int, density: Fraction) -> list[int]:
    # full join of a cocluster with a complement-of-triangle-free part
    n1 = rng.below(n + 1)
    left = complement_rows(_base_cluster(rng, n1, density))
    right = complement_rows(_base_triangle_free(rng, n - n1, density))
    left_all = (1 << n1) - 1
    right_all = ((1 << n) - 1) ^ left_all
    return [r | right_all for r in left] + [r << n1 | left_all for r in right]


_BASES: dict[str, Callable[[SplitMix64, int, Fraction], list[int]]] = {
    "edgeless": lambda rng, n, d: [0] * n,
    "cluster": _base_cluster,
    "cocluster": lambda rng, n, d: complement_rows(_base_cluster(rng, n, d)),
    "forest": _base_forest,
    "bipartite": _base_bipartite,
    "split": _base_split,
    "cograph": _base_cograph,
    "chordal": _base_chordal,
    "cochordal": lambda rng, n, d: complement_rows(_base_chordal(rng, n, d)),
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
    total = spec.n + spec.k
    if total > MAX_VERTICES:
        raise GenerationError(f"vertex count {total} above the limit {MAX_VERTICES}")
    rng = SplitMix64(spec.seed)
    rows = _BASES[spec.base](rng, spec.n, spec.density)
    # Planted vertex p draws its edges to every u < p, after those of the
    # planted vertices before it: its row is its draws read as one binary
    # number (0 for no draws, at p = 0), and the other half of each edge,
    # bit p of row u, is column u of the planted rows, shifted past the
    # base.
    draws = rng.chances(spec.k * (spec.n + total - 1) // 2, spec.density)
    planted_rows = []
    start = 0
    for p in range(spec.n, total):
        planted_rows.append(int(draws[start:start + p][::-1].translate(_DRAW_DIGITS) or b"0", 2))
        start += p
    rows += planted_rows
    if planted_rows:
        for u, column in enumerate(_columns(planted_rows, total, range(total))):
            rows[u] |= column << spec.n
    perm = list(range(total))
    rng.shuffle(perm)
    # vertex u of the construction gets the label perm[u]
    g = Graph._from_masks(rows).relabeled(sorted(range(total), key=perm.__getitem__))
    planted = frozenset(perm[p] for p in range(spec.n, total))
    if not recognize(g, spec.base, g.full_mask & ~mask_of(planted)).member:
        raise GenerationError(
            f"construction bug: deleting the planted set does not yield {spec.base}"
        )
    return g, planted


# ---------------------------------------------------------------------
# plain random corpora (used by tests; the benchmark harness draws
# only random_weights)


def random_graph(n: int, density: Fraction, seed: int) -> Graph:
    return Graph._from_masks(_draw_pairs(SplitMix64(seed), [0] * n, [(1 << n) - 1] * n, density))


def random_connected_graph(n: int, density: Fraction, seed: int) -> Graph:
    rng = SplitMix64(seed)
    rows = [0] * n
    for v in range(1, n):
        u = rng.below(v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._from_masks(_draw_pairs(rng, rows, [(1 << n) - 1] * n, density))


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
    # the ids of x_i, y_i and z_i at index i - 1
    x = [2 * g - 2, *range(1, 2 * g - 2, 2)]
    y = [*range(0, 2 * g - 2, 2), 2 * g]
    z = [2 * g - 1, *range(2 * g + 2, 3 * g), 2 * g + 1]
    edges = [e for i in range(g) for e in ((x[i], y[i]), (y[i], z[i]), (x[i], z[i]))]
    edges += [(y[i], x[i + 1]) for i in range(g - 1)]
    pictured = Graph(3 * g, edges)
    return pictured.complement()
