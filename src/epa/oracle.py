"""Exponential-time exact solvers used as ground truth.

These are deliberately independent of the polynomial algorithms they
certify: plain subset enumeration, backtracking and branch-and-bound on
bitmask graphs.  Every solver refuses inputs above its budget instead of
stalling, and enumeration order is fixed so that certificates are
reproducible (subsets are scanned ascending by size and then in
lexicographic vertex order, or by ascending subset rank where noted).

Vertex covers and modulators are hitting sets of obstruction masks.  One
superset table, a 2^n-bit integer closed upward in n shift-or steps,
tells whether a candidate meets every obstruction in one lookup.  The
obstructions of a class are the masks that ``certify``'s pattern tests
accept; a mask meets only the tests of the patterns whose vertex count
and edge count it has, read from a table of one byte per mask.  The
module imports only ``graphs`` and ``certify``, never recognizer or
solver code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, islice
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .certify import _PATTERNS
from .graphs import Graph, Weights, bits, connected, mask_of, unit_weights


class BudgetExceeded(RuntimeError):
    """Input too large for an exact oracle."""


@dataclass(frozen=True)
class OracleBudget:
    vc: int = 12
    cvc: int = 12
    tp: int = 12
    coloring: int = 11
    modulator: int = 10
    lp: int = 10
    max_steps: int = 50_000_000


DEFAULT_BUDGET = OracleBudget()


def _require(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise BudgetExceeded(f"{what} oracle limited to n <= {limit}, got n = {n}")


def _scaled_int_weights(w: Sequence[Fraction]) -> tuple[list[int], int]:
    scale = lcm(*(f.denominator for f in w)) if w else 1
    return [int(f * scale) for f in w], scale


def _subset_weights(wi: Sequence[int]) -> list[int]:
    """Total weight of every vertex mask, indexed by the mask: the masks
    with highest vertex v are those below it plus v's weight."""
    tab = [0]
    for x in wi:
        tab += [t + x for t in tab]
    return tab


# ---------------------------------------------------------------------
# hitting sets: vertex covers and modulators


_HITS = bytes.maketrans(b"01", b"\x01\x00")
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"


def _hitting_flags(n: int, sets: Iterable[int]) -> bytes:
    """One byte per vertex mask S, indexed by S: 1 when S meets every
    mask in ``sets``.

    Bit m of ``table`` is set when the mask m contains one of ``sets``,
    by the superset closure over the subset lattice (the zeta transform;
    Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007), one shift-or
    per vertex.  S meets every set exactly when its complement contains
    none, that is when bit full ^ S is clear, and the size-wide binary
    digits of ``table`` give bit full ^ S at index S.  No 2^n-bit integer
    is divided, as CPython divides in quadratic time."""
    size = 1 << n
    marks = bytearray(size // 8 + 1)
    for s in sets:
        marks[s >> 3] |= 1 << (s & 7)
    table = int.from_bytes(marks, "little")
    for v in range(n):
        step = 1 << v
        # the masks without v: runs of ``step`` ones, ``step`` apart
        without = (1 << step) - 1
        width = 2 * step
        while width < size:
            without |= without << width
            width *= 2
        table |= (table & without) << step
    return format(table, f"0{size}b").encode().translate(_HITS)


def _first_hitting_set(
    n: int, sets: Sequence[int], accept: Optional[Callable] = None
) -> tuple[int, frozenset[int]]:
    """Smallest vertex set meeting every mask in ``sets`` (and passing
    ``accept``), lexicographically first among those of its size.

    No set smaller than the least hitting mask meets every mask, so the
    scan by size starts there (past n when none hits, as when ``sets``
    holds the empty mask)."""
    hits = _hitting_flags(n, sets)
    popcounts = b"\x00"  # of every mask, indexed by the mask
    for _ in range(n):
        popcounts += popcounts.translate(_PLUS_ONE)
    powers = [1 << v for v in range(n)]
    for k in range(min(compress(popcounts, hits), default=n + 1), n + 1):
        # the masks of the k-sets, in lexicographic order of the sets
        for mask in filter(hits.__getitem__, map(sum, combinations(powers, k))):
            combo = tuple(bits(mask))
            if accept is None or accept(combo):
                return k, frozenset(combo)
    raise AssertionError("unreachable: V meets every set")


def _min_weight_hitting_set(sets: Sequence[int], w: Weights) -> tuple[Fraction, frozenset[int]]:
    """Lightest vertex set meeting every mask in ``sets``, the first of
    least weight in ascending mask order."""
    wi, scale = _scaled_int_weights(w)
    wtab = _subset_weights(wi)
    hits = _hitting_flags(len(wi), sets)
    weights = list(compress(wtab, hits))  # of the hitting masks, ascending
    first = weights.index(min(weights))
    best = next(islice(compress(range(len(wtab)), hits), first, None))
    return Fraction(wtab[best], scale), frozenset(bits(best))


def exact_min_wvc(
    g: Graph, w: Optional[Weights] = None, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[Fraction, frozenset[int]]:
    """Minimum-weight vertex cover by scanning all subsets ascending by rank."""
    _require(g.n, budget.vc, "vertex cover")
    if w is None:
        w = unit_weights(g.n)
    return _min_weight_hitting_set(obstruction_masks(g, "edgeless"), w)


def exact_min_vc(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> tuple[int, frozenset[int]]:
    """Minimum cardinality vertex cover (size-ascending enumeration)."""
    _require(g.n, budget.vc, "vertex cover")
    return _first_hitting_set(g.n, obstruction_masks(g, "edgeless"))


def exact_min_cvc(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> tuple[int, frozenset[int]]:
    """Minimum connected vertex cover of a connected graph."""
    _require(g.n, budget.cvc, "connected vertex cover")
    if not g.is_connected():
        raise ValueError("connected vertex cover oracle needs a connected graph")
    return _first_hitting_set(g.n, obstruction_masks(g, "edgeless"),
                              lambda combo: connected(g.adj_bits, mask_of(combo)))


# ---------------------------------------------------------------------
# coloring


def exact_chromatic(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> tuple[int, tuple[int, ...]]:
    """Chromatic number with a witnessing coloring, by iterative deepening."""
    _require(g.n, budget.coloring, "chromatic number")
    n = g.n
    if n == 0:
        return 0, ()
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    steps = 0

    def attempt(k: int) -> Optional[list[int]]:
        nonlocal steps
        colors = [0] * n
        used_mask = [0] * k  # vertices per color, as masks

        def bt(i: int, used: int) -> bool:
            nonlocal steps
            if i == n:
                return True
            steps += 1
            if steps > budget.max_steps:
                raise BudgetExceeded("chromatic oracle exceeded its step budget")
            v = order[i]
            limit = min(k, used + 1)
            for c in range(limit):
                if used_mask[c] & g.adj_bits[v]:
                    continue
                used_mask[c] |= 1 << v
                colors[v] = c + 1
                if bt(i + 1, max(used, c + 1)):
                    return True
                used_mask[c] &= ~(1 << v)
            return False

        return colors if bt(0, 0) else None

    for k in range(1, n + 1):
        got = attempt(k)
        if got is not None:
            return k, tuple(got)
    raise AssertionError("unreachable: n colors always suffice")


# ---------------------------------------------------------------------
# packings: triangle packing and matching


def _max_packing(n: int, sets: Sequence[int], size: int) -> list[int]:
    """The first largest family of pairwise disjoint masks of ``sets``,
    each of ``size`` vertices, by branch and bound: branch on the lowest
    free vertex that lies on a set inside the free mask, taking its sets
    in the order of ``sets``, then leaving the vertex out."""
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for s in sets:
        for v in bits(s):
            by_vertex[v].append(s)
    best: list[int] = []
    cur: list[int] = []

    def rec(free: int) -> None:
        if len(cur) + free.bit_count() // size <= len(best):
            return
        v = next((u for u in bits(free) if any(s & ~free == 0 for s in by_vertex[u])), -1)
        if v == -1:
            if len(cur) > len(best):
                best[:] = cur
            return
        for s in by_vertex[v]:
            if s & ~free == 0:
                cur.append(s)
                rec(free & ~s)
                cur.pop()
        rec(free & ~(1 << v))

    rec((1 << n) - 1)
    return best


def exact_max_tp(
    g: Graph, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[int, tuple[frozenset[int], ...]]:
    """Maximum triangle packing by branch and bound over vertex choices,
    the triangles listed in lexicographic (u, v, t) order."""
    _require(g.n, budget.tp, "triangle packing")
    adj = g.adj_bits
    triangles = [1 << u | 1 << v | 1 << t for u in range(g.n)
                 for v in bits(adj[u] >> (u + 1) << (u + 1))
                 for t in bits(adj[u] & adj[v] >> (v + 1) << (v + 1))]
    best = _max_packing(g.n, triangles, 3)
    return len(best), tuple(frozenset(bits(m)) for m in best)


def exact_max_matching_size(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Maximum matching cardinality: the largest packing of edges."""
    _require(g.n, budget.vc, "matching")
    return len(_max_packing(g.n, obstruction_masks(g, "edgeless"), 2))


# ---------------------------------------------------------------------
# modulators


# Minimal forbidden induced subgraphs of each class: deleting a set S
# lands in the class iff S meets every vertex set inducing one of them.
_OBSTRUCTIONS = {
    "cluster": ("P3",),
    "cograph": ("P4",),
    "p3k1-free": ("P3+K1",),
    "triangle-free": ("triangle",),
    "split": ("2K2", "C4", "C5"),
    "forest": ("cycle",),
    "bipartite": ("odd-cycle",),
    "chordal": ("hole",),
}

# A co-class is its base class on the complement: the same vertex sets.
_COMPLEMENTS = {"cocluster": "cluster", "co-triangle-free": "triangle-free",
                "cochordal": "chordal"}


# A byte holds the edge count of at most 23 vertices: C(23, 2) = 253.
_BYTE_LANE_N = 23


def _induced_edge_counts(g: Graph) -> bytes:
    """Edge count of G[mask] for every vertex mask, one byte indexed by
    the mask, for n <= _BYTE_LANE_N.

    The table is built lane-packed in one integer, byte lane i holding
    mask i: the masks with highest vertex v are those below it plus v's
    edges into the lower part.  Those edge counts, |N(v) & low| over the
    masks low below v, double over the vertices u < v, adding 1 to the
    new upper half's lanes when u is a neighbour."""
    ones = [1]  # ones[u]: 2^u lanes of 1
    for u in range(g.n - 2):
        ones.append(ones[u] | ones[u] << (8 << u))
    counts = 0
    for v, row in enumerate(g.adj_bits):
        into = 0
        for u in range(v):
            into |= (into + ones[u] if row >> u & 1 else into) << (8 << u)
        counts |= (counts + into) << (8 << v)
    return counts.to_bytes(1 << g.n, "little")


def obstruction_masks(g: Graph, cls: str) -> list[int]:
    """Vertex sets of all minimal induced obstructions for ``cls``.

    Each mask goes to the tests of ``certify``'s pattern table whose
    vertex and edge counts, by that table, it has: the test is the
    definition, the counts only skip masks it would reject."""
    if cls == "edgeless":
        return [1 << u | 1 << v for u, row in enumerate(g.adj_bits)
                for v in bits(row >> (u + 1) << (u + 1))]
    if cls in _COMPLEMENTS:
        return obstruction_masks(g.complement(), _COMPLEMENTS[cls])
    if cls not in _OBSTRUCTIONS:
        raise ValueError(f"no modulator oracle for class {cls!r}")
    if g.n > _BYTE_LANE_N:
        raise BudgetExceeded(f"obstruction scan limited to n <= {_BYTE_LANE_N} "
                             f"(one byte per edge count), got n = {g.n}")
    tests: dict[tuple[int, int], list[Callable]] = {}  # by (vertex count, edge count)
    for name in _OBSTRUCTIONS[cls]:
        p = _PATTERNS[name]
        for k in range(g.n + 1):
            if (e := p.edges(k)) is not None:
                tests.setdefault((k, e), []).append(p.test)
    edges = _induced_edge_counts(g)
    # the edge count is checked in one C-level pass, then the pair of counts
    flags = bytes(map({e for _, e in tests}.__contains__, range(256)))
    # a vertex set induces at most one of a class's patterns
    return [mask for mask in compress(range(len(edges)), edges.translate(flags))
            for test in tests.get((mask.bit_count(), edges[mask]), ()) if test(g, mask)]


def exact_min_modulator(
    g: Graph,
    cls: str,
    w: Optional[Weights] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
):
    """Minimum (weight) vertex set whose deletion lands in ``cls``.

    Unweighted: enumerated ascending by size, then lexicographically.
    Weighted: full subset scan ascending by rank, keeping the first
    strict improvement.  Returns (size-or-weight, set).
    """
    _require(g.n, budget.modulator, "modulator")
    obs = obstruction_masks(g, cls)
    if w is None:
        return _first_hitting_set(g.n, obs)
    return _min_weight_hitting_set(obs, w)


# ---------------------------------------------------------------------
# LP relaxation


def exact_lp_vc(
    g: Graph, w: Optional[Weights] = None, budget: OracleBudget = DEFAULT_BUDGET
) -> Fraction:
    """Optimum of the vertex cover LP, by enumerating independent sets.

    Some optimum is half-integral.  Its zero set Z is independent, every
    neighbour of Z must be at 1 and every other vertex can sit at 1/2, so
    twice the optimum is the least w(V - Z) + w(N(Z)) over independent Z.
    """
    _require(g.n, budget.lp, "LP")
    if w is None:
        w = unit_weights(g.n)
    wi, scale = _scaled_int_weights(w)
    wtab = _subset_weights(wi)
    full = g.full_mask
    nbrs = [0] * len(wtab)  # N(Z), from N(Z minus its lowest vertex)
    best = wtab[full]
    for z in range(1, len(wtab)):
        low = z & -z
        nz = nbrs[z ^ low] | g.adj_bits[low.bit_length() - 1]
        nbrs[z] = nz
        if not nz & z:
            best = min(best, wtab[full ^ z] + wtab[nz])
    return Fraction(best, 2 * scale)
