"""Vertex cover algorithms with additive guarantees.

Every routine returns a :class:`VertexCoverSol`, a cover and the name of
its algorithm.  The cover is feasible by construction; callers recompute
its weight from it, and :mod:`epa.certify` re-checks it.

The cluster, cocluster, cograph and chordal rows run one local-ratio
loop, :func:`_local_ratio` (Bar-Yehuda and Even, 1985), on an induced
pattern every such modulator hits (P3, co-P3, P4, triangle); a vertex at
weight 0 leaves, lowest first, with its alive neighbourhood.
:func:`vc_local_ratio_ffree` solves the rest exactly on its cotree and
re-adds, last first, each leaver with an uncovered edge; :func:`vc_chordal`
covers every leaver and hands the rest to :func:`vc_fvs`.  A P4 step
first builds the cotree of the alive vertices, or meets a P4 doing so.
A cluster's cotree joins each clique's vertices in id order, and a join
keeps its first heaviest child: the vertex ``wvc_cluster`` leaves out.
Every rest is solved on its mask in G's ids; no row builds a graph below G.

The split row's budgeted 2-approximation (:func:`vc_budgeted_2approx`)
runs the unit-weight greedy matching (``solvers.matching_cover``) once
per deletion set D, on the vertex mask M - D, without building a graph.
The runs share prefixes.  A step of the run on M - P takes the lowest
free vertex and matches it to its lowest free neighbour.  Until that run
first touches a vertex d (takes it as the low vertex or as its mate),
the only difference on M - (P ∪ {d}) is that d is not free, and d is
neither of the two vertices chosen, so both runs take the same steps.
Each run records its state (free mask, cover mask) before every step,
and the run on P ∪ {d} resumes from its parent's state at the step that
touches d.  Only the runs of sets smaller than the budget record.

The search is a branch and bound.  A candidate ranks (|D| + |cover|,
|D|), and it must rank strictly below the best so far to replace it.
``vc_split`` seeds the best with the recursion's cover, ranked ahead of
every candidate of the same size, since ties go to the recursion.  The
cover of a run only grows, so a run stops before the first step at which
its rank reaches the best, and its candidate is dropped.  A recording
run appends that stop state to its trail.  A child D ∪ {d} that resumes
at a state whose cover already reaches its own limit stops at once: it
has one more member than the run that recorded the state, and at least
that cover.  Its larger sets still resume at the earlier states it
inherits, which stay valid.  When those larger sets are the last level
(|D| + 1 = c), every vertex still free in the stop state is dropped from
the next members to try, because each of them would resume there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .graphs import Graph, Weights, bits, mask_covers, mask_of
from .recognize import Cotree, build_cotree, find_induced
from .solvers import (
    cotree_independent_set,
    fvs_2approx,
    lp_half_integral_vc,
    matching_cover,
    wvc_forest,
)


@dataclass(frozen=True)
class VertexCoverSol:
    cover: frozenset[int]
    algorithm: str

    @property
    def size(self) -> int:
        return len(self.cover)


# ---------------------------------------------------------------------
# local ratio over a forbidden pattern


def _local_ratio(
    g: Graph, w: Weights, kind: str
) -> tuple[list, int, list[tuple[int, int]], Optional[Cotree]]:
    """Local ratio on the induced ``kind`` patterns (module docstring): the
    residual weights, the ``kind``-free alive mask, the leavers in order,
    each with its alive neighbour mask when it left, and for P4 the
    cotree of the alive vertices (None for the other kinds).  A P4 step
    that gets a P4 back instead of a cotree reduces the first P4 that
    ``find_induced`` meets, as every other kind does."""
    wp = list(w)
    alive = g.full_mask
    # Alive zero-weight vertices; only a reduced pattern can add to it.
    zero = mask_of(v for v in range(g.n) if wp[v] == 0)
    left: list[tuple[int, int]] = []
    while True:
        while zero:
            low = zero & -zero
            v = low.bit_length() - 1
            left.append((v, g.adj_bits[v] & alive))
            alive ^= low
            zero ^= low
        if kind == "P4":
            tree = build_cotree(g, alive)
            if isinstance(tree, Cotree):
                return wp, alive, left, tree
        pattern = find_induced(g, kind, within=alive)
        if pattern is None:
            return wp, alive, left, None
        lam = min(wp[v] for v in pattern)
        for v in pattern:
            wp[v] -= lam
            if wp[v] == 0:
                zero |= 1 << v


def vc_local_ratio_ffree(g: Graph, w: Weights, family: str) -> VertexCoverSol:
    """Cover of weight at most OPT plus 2 times the lightest modulator to
    the class free of ``family`` ('P3', 'co-P3' or 'P4').

    Local ratio on the family's patterns, the family-free rest solved
    exactly, then each zero-weight leaver re-added, last first, only if
    an edge to a vertex that was alive when it left is still uncovered.
    """
    if family not in ("P3", "co-P3", "P4"):
        raise ValueError(f"unsupported forbidden family {family!r}")
    wp, alive, left, tree = _local_ratio(g, w, family)
    if tree is None:
        tree = build_cotree(g, alive)
    cover = alive & ~cotree_independent_set(tree, wp)
    for v, nbrs in reversed(left):
        if nbrs & ~cover:
            cover |= 1 << v
    return VertexCoverSol(frozenset(bits(cover)), f"vc-ffree[{family}]")


def vc_chordal(g: Graph, w: Optional[Weights] = None) -> VertexCoverSol:
    """Cover of weight at most (3/2) OPT_WVC + OPT_ChVD.

    Local ratio on triangles, every leaver in the cover; chordal subgraphs
    of the triangle-free rest are forests, so vc_fvs covers it.
    """
    wp, alive, left, _ = _local_ratio(g, [1] * g.n if w is None else w, "triangle")
    return VertexCoverSol(vc_fvs(g, wp, alive).cover.union(v for v, _ in left), "vc-chordal")


# ---------------------------------------------------------------------
# feedback-vertex-set parameterized cover


def vc_fvs(g: Graph, w: Optional[Weights] = None, within: Optional[int] = None) -> VertexCoverSol:
    """Cover of G[within] (default: G) of weight at most OPT_WVC + OPT_FVS.

    Pipeline: half-integral LP persistency keeps V1 and discards V0; a
    2-approximate feedback vertex set of the half part joins the cover;
    the remaining forest is solved exactly.
    """
    w = [1] * g.n if w is None else w
    lp = lp_half_integral_vc(g, w, within)
    half = mask_of(lp.v_half)
    fvs = fvs_2approx(g, w, half)
    return VertexCoverSol(lp.v1 | fvs | wvc_forest(g, w, half & ~mask_of(fvs)), "vc-fvs")


# ---------------------------------------------------------------------
# split-modulator parameterized cover (unweighted)


def two_maximal_clique(g: Graph, within: Optional[int] = None) -> frozenset[int]:
    """A clique not improvable by swapping out fewer vertices than are
    swapped in, with at most two incoming.  Seeded greedily from the
    highest-degree vertex; each improvement grows the clique, so at most
    n rounds happen."""
    mask = g.full_mask if within is None else within
    if mask == 0:
        return frozenset()
    seed = max(bits(mask), key=lambda v: ((g.adj_bits[v] & mask).bit_count(), -v))
    return frozenset(bits(_improve_to_2maximal(g.adj_bits, 1 << seed, mask)))


def _improve_to_2maximal(adj: Sequence[int], clique: int, mask: int) -> int:
    """Grow the clique mask ``clique`` inside ``mask`` of the adjacency
    masks ``adj`` into a 2-maximal clique mask: add the lowest common
    neighbour while there is one, then swap the first vertex that one
    out, two in allows, and grow again.  A member's swap candidates AND
    a running prefix with a stored suffix."""
    while True:
        common = mask & ~clique
        for v in bits(clique):
            common &= adj[v]
        while common:
            low = common & -common
            clique |= low
            common &= adj[low.bit_length() - 1]
        members = list(bits(clique))
        # after[i]: the vertices outside the clique adjacent to members[i:]
        after = list(accumulate(reversed(members), lambda m, v: m & adj[v], initial=mask & ~clique))
        after.reverse()
        before = after[-1]
        for i, u in enumerate(members):
            cand = before & after[i + 1]
            before &= adj[u]
            for x in bits(cand):
                ys = cand & adj[x] & ~((1 << (x + 1)) - 1)
                if ys:
                    break
            else:
                continue
            clique ^= (1 << u) | (1 << x) | (ys & -ys)
            break
        else:
            return clique


def vc_budgeted_2approx(
    g: Graph, c: int, within: Optional[int] = None, below: Optional[int] = None
) -> Optional[VertexCoverSol]:
    """Unweighted cover of G[within] (default: all of G) of size at most
    max(OPT, 2*OPT - c): try every deletion set D of size up to ``c``
    before 2-approximating the rest, and keep the smallest D joined with
    its cover.  Ties go to the smaller D, then to the lexicographically
    first.  With ``below`` given, that cover is returned only when it has
    fewer than ``below`` vertices, and None otherwise.  Each run resumes
    from its parent's and stops once it cannot win (see the module
    docstring); sizes are compared as popcounts and only the winner
    becomes a set."""
    mask = g.full_mask if within is None else within
    adj = g.adj_bits
    # Candidates rank by (size, |D|); one must rank below ``best`` to win.
    # Unbounded, best starts above every cover of G[mask].
    best = (mask.bit_count() + 1 if below is None else below, -1)
    best_bits: Optional[int] = None
    trail: Optional[list] = [] if c > 0 else None
    cover = matching_cover(adj, mask, 0, trail, best[0])
    if cover.bit_count() < best[0]:
        best = (cover.bit_count(), 0)
        best_bits = cover
    # Depth-first over the deletion sets in lexicographic order.  A frame
    # holds a set D, the trail of the run on M - D, and the vertices
    # still to try as the next (larger) member.
    stack = [(0, trail, mask)] if c > 0 else []
    while stack:
        dset, trail, todo = stack.pop()
        if not todo:
            continue
        low = todo & -todo
        todo ^= low
        stack.append((dset, trail, todo))
        d = low.bit_length() - 1
        # Resume at the last recorded state with d still free: the step
        # at which the parent's run touches d.
        lo, hi = 0, len(trail)
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if trail[mid][0] >> d & 1:
                lo = mid
            else:
                hi = mid
        free, cover = trail[lo]
        dset |= low
        k = len(stack)
        # The run ranks (k + |cover|, k), and its cover only grows.
        limit = best[0] - k + (k < best[1])
        if k < c:
            if cover.bit_count() >= limit:
                sub = trail[: lo + 1]
            else:
                sub = trail[:lo]
                cover = matching_cover(adj, free & ~dset, cover, sub, limit)
            if k + 1 == c and sub and sub[-1][1].bit_count() >= limit:
                # The run stopped; a last-level set resuming at its final
                # state would rank behind it, so those members are not tried.
                todo &= ~sub[-1][0]
            stack.append((dset, sub, todo))
        elif cover.bit_count() < limit:
            cover = matching_cover(adj, free & ~dset, cover, None, limit)
        if cover.bit_count() < limit:
            best = (k + cover.bit_count(), k)
            best_bits = cover | dset
    if best_bits is None:
        return None
    return VertexCoverSol(frozenset(bits(best_bits)), f"vc-budgeted[{c}]")


def vc_split(g: Graph) -> VertexCoverSol:
    """Unweighted cover of size at most OPT_VC + OPT_SVD.

    Recursion on G - Z for a 2-maximal clique Z: when the rest is nearly
    edgeless the near-clique solution is optimal; otherwise the better of
    the recursive call and the budgeted 2-approximation (c = 2), each
    joined with Z.  Ties go to the recursion branch.  The recursion runs
    as a loop: it descends, keeping each level's Z and rest, then folds
    the answers back up from the bottom, where the budgeted search is
    asked only for a cover smaller than the recursion's.
    """
    alive = g.full_mask
    levels: list[tuple[frozenset[int], int]] = []
    while True:
        if mask_covers(g.adj_bits, 0, alive):
            cover: frozenset[int] = frozenset()
            break
        z = two_maximal_clique(g, within=alive)
        rest = alive & ~mask_of(z)
        small = _cover_of_size_le1(g, rest)
        if small is not None:
            cover = z | small
            for v in sorted(z):
                cand = (z - {v}) | small
                if mask_covers(g.adj_bits, mask_of(cand), alive):
                    cover = cand
                    break
            break
        levels.append((z, rest))
        alive = rest
    for z, rest in reversed(levels):
        budgeted = vc_budgeted_2approx(g, 2, within=rest, below=len(cover))
        if budgeted is not None:
            cover = budgeted.cover
        cover |= z
    return VertexCoverSol(cover, "vc-split")


def _cover_of_size_le1(g: Graph, mask: int) -> Optional[frozenset[int]]:
    """A vertex cover of G[mask] of size at most 1, if one exists."""
    if mask_covers(g.adj_bits, 0, mask):
        return frozenset()
    for v in bits(mask):
        if mask_covers(g.adj_bits, 1 << v, mask):
            return frozenset((v,))
    return None

