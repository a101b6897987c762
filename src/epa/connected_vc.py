"""Connected vertex cover with a split-graph additive guarantee.

Every graph here is a pair (adj, within) of adjacency masks and a
vertex mask, with the rows outside ``within`` empty.  The clique
contraction G<Y> is ``graphs.contraction_rows``, in the same id space:
Y becomes one vertex after every kept one, with a pendant leaf that
forces it into any connected cover.  The driver (:func:`cvc_split`)
descends through clique contractions G<Z>, each level the rows of the
one above, and lifts a cover of G<Z> back as ``cover & within | Z``,
which drops the contracted vertex and its leaf.  Once G<Z> has a
connected cover of at most 3 vertices, the exact tail
:func:`cvc_small_after_contraction` solves G from the contractions
G<Z - u>, one per clique vertex.  The optimum of G<Z> that the driver's
test finds is a floor for every G<Z - u>, so the tail starts each
search there and stops at the first u whose optimum reaches it.

:func:`cvc_budgeted` runs Savage's DFS on G<Y> for every connected set
Y of size c+1.  ``solvers.savage_mask`` walks G's rows with Y as one
virtual vertex in the place that ``contraction_rows`` gives it, so no
rows are built per Y.

``cvc_split`` folds first: at each level it lifts the recursion's cover,
cand1 = lift(cover) ∪ Z, and only then asks the budgeted search for a
cover of G<Z> below |cand1| - |Z| + 2.  Lifting drops the contracted
vertex, which every connected cover of G<Z> holds, and the leaf when the
cover holds it.  So a cover of |cand1| - |Z| + 2 vertices or more lifts
to at least |cand1| - |Z| and loses the tie to the recursion.  The
bounded search returns the first smallest candidate whenever it is below
the bound, so the final comparison sees what the unbounded search would
have given it.

:func:`connected_subsets` takes a ``cut`` test: a set S for which it
holds is neither yielded nor grown, and the walk's order is otherwise
unchanged.  ``cvc_budgeted`` cuts the walk over Y at a partial set S
when |S| + |M_S| reaches the bound or the best size found so far, with
M_S a greedy maximal matching of G - S.  Every candidate of the branch
is a vertex cover of G that holds some Y ⊇ S, so it has at least
|Y| + ν(G - Y) ≥ |S| + |M_S| vertices: each vertex of Y - S breaks at
most one edge of M_S.  Nothing in a cut branch can be strictly smaller,
so the first smallest candidate is the same.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from .graphs import Graph, bits, connected, contraction_rows, first_triangle, mask_covers, mask_of
from .solvers import matching_cover, savage_mask
from .vertex_cover import VertexCoverSol, _improve_to_2maximal


# ---------------------------------------------------------------------
# connected subset enumeration


def connected_subsets(
    adj: Sequence[int], within: int, k: int, cut: Optional[Callable[[int, int], bool]] = None
) -> Iterator[int]:
    """All vertex masks of connected induced subgraphs on exactly ``k``
    vertices of the graph with adjacency masks ``adj`` on the vertex mask
    ``within``, each exactly once, in a fixed order.  Each row of a
    vertex in ``within`` must lie inside ``within``; other rows are not
    read.  A nonempty set S with ``cut(S, |S|)`` true is neither
    yielded nor grown, so no set that the walk grows from S is yielded
    either.

    ESU-style expansion: grow from every anchor vertex using only higher
    ids, extending with exclusive new neighbors so no set repeats.  The
    stack holds one frame per set on the path: the set, the extensions
    not yet tried and the set's closed neighbourhood.  The first frame
    holds the empty set, whose one extension is the anchor, so the
    anchor passes the same cut and size test as every other set.  The
    order depends only on the relative order of the ids.
    """
    if k == 0:
        yield 0
        return
    for v in bits(within):
        above = within & ~((2 << v) - 1)
        stack = [(0, 1 << v, 0)]
        while stack:
            sub, ext, closed = stack[-1]
            if not ext:
                stack.pop()
                continue
            wbit = ext & -ext
            ext ^= wbit
            stack[-1] = (sub, ext, closed)
            grown = sub | wbit
            size = len(stack)
            if cut is not None and cut(grown, size):
                continue
            if size == k:
                yield grown
            else:
                nbrs = adj[wbit.bit_length() - 1]
                stack.append((grown, ext | (nbrs & above & ~closed & ~sub), closed | nbrs))


def _brute_min_cvc(adj: Sequence[int], within: int, limit: int, start: int = 1) -> Optional[int]:
    """Minimum connected vertex cover of the graph of
    :func:`connected_subsets`, as a vertex mask, if its size is at most
    ``limit``; every row outside ``within`` must be empty.  Sizes below
    ``start`` are not searched: the caller knows that no cover has so few
    vertices (an edgeless graph still gets the empty one)."""
    # Sorted with the empty rows outside ``within``, the first n degrees
    # are those of the n vertices.
    degrees = sorted(map(int.bit_count, adj), reverse=True)
    if not degrees or not degrees[0]:
        return 0
    n = within.bit_count()
    # A cover of size k holds every vertex of degree above k (else it
    # holds all of that vertex's neighbors), so sizes with more than k
    # such vertices are skipped.
    for k in range(start, min(limit, n) + 1):
        if k < n and degrees[k] > k:
            continue
        for sub in connected_subsets(adj, within, k):
            if mask_covers(adj, sub, within):
                return sub
    return None


# ---------------------------------------------------------------------
# budgeted connected cover


def cvc_budgeted(
    adj: Sequence[int], within: int, c: int, below: Optional[int] = None
) -> Optional[VertexCoverSol]:
    """Connected cover of the graph (adj, within) of size at most
    max(OPT_CVC, OPT_CVC + OPT_VC - c).

    Small connected sets that already cover everything are returned as
    is; otherwise, for every connected set Y of size c+1, Savage's cover
    of the contraction G<Y> is lifted by swapping the contracted vertex
    for Y, and the first smallest is kept.  With ``below`` given, that
    cover is returned only when it has fewer than ``below`` vertices,
    and None otherwise; the walk over Y skips every branch that cannot
    beat the best so far (see the module docstring).
    """
    if not connected(adj, within):
        raise ValueError("budgeted connected cover needs a connected graph")
    n = within.bit_count()
    if below is None:
        below = n + 1
    # A small cover has at most min(c, n-1) vertices, fewer than any
    # lifted candidate, which contains Y.
    small = _brute_min_cvc(adj, within, min(c, below - 1))
    if small is not None:
        if small.bit_count() < below:
            return VertexCoverSol(frozenset(bits(small)), f"cvc-budgeted[{c}]")
        return None
    best: Optional[int] = None

    def cut(sub: int, size: int) -> bool:
        # True when sub plus a greedy maximal matching of G - sub
        # already needs ``below`` vertices (see the module docstring).
        limit = 2 * (below - size)
        return matching_cover(adj, within & ~sub, 0, None, limit).bit_count() >= limit

    for y in connected_subsets(adj, within, min(c + 1, n), cut):
        cand = savage_mask(adj, within, y)
        if cand.bit_count() < below:
            best, below = cand, cand.bit_count()
    if best is None:
        return None
    return VertexCoverSol(frozenset(bits(best)), f"cvc-budgeted[{c}]")


# ---------------------------------------------------------------------
# exact solver for instances whose contraction has a tiny optimum


def cvc_small_after_contraction(
    adj: Sequence[int], within: int, z: int, c: int, opt_contracted: Optional[int] = None
) -> VertexCoverSol:
    """Exact minimum connected vertex cover of the graph (adj, within),
    given a clique mask ``z`` whose contraction G<z> has a connected
    cover of size at most ``c``.

    For each u in z, in id order, the optimum of G<z - u> (G itself when
    z = {u}) is lifted and joined with z - u; the first smallest wins.
    No candidate z + lift(G<z>) is needed: merging u into the contracted
    vertex maps a connected cover of G<z - u> onto one of G<z> that is no
    larger, and splitting it back adds u, so OPT(G<z - u>) is OPT(G<z>)
    or OPT(G<z>) + 1.  Both optima hold the contracted vertex and not its
    leaf, so u's candidate is no larger than z + lift(G<z>):
    |z| + OPT(G<z - u>) - 2 <= |z| + OPT(G<z>) - 1.  Coming last, only a
    strictly smaller one would have replaced the best.

    For |z| >= 2 the merge above makes OPT(G<z>) a floor: every search
    starts at that size, and the loop stops at the first u whose optimum
    reaches it, as a later u cannot be strictly smaller.  The caller may
    pass OPT(G<z>) as ``opt_contracted``; otherwise it is searched for
    here.  Later contractions are only searched below the best so far, as
    ties go to the first u: ``_brute_min_cvc`` scans sizes in ascending
    order, so a lower limit finds the same set or none.  Raises when the
    first search (up to c + 1) fails, which by the bound disproves the
    premise, and with the same message when OPT(G<z>) is above c + 1, as
    the floor then puts every G<z - u> past that limit.
    """
    if not connected(adj, within):
        raise ValueError("needs a connected graph")
    # each member of z is a vertex of the graph adjacent to every other
    # member; z is tested against within before any row is read
    if z <= 0 or z & ~within or any(z & ~adj[u] & ~(1 << u) for u in bits(z)):
        raise ValueError("z must be a nonempty clique")
    limit = c + 1
    floor = 1
    if z.bit_count() > 1:
        if opt_contracted is None:
            found = _brute_min_cvc(*contraction_rows(adj, z, within), limit)
            if found is None:
                raise ValueError("contraction optimum exceeds the stated budget")
            opt_contracted = found.bit_count()
        floor = opt_contracted
    best: Optional[int] = None
    for u in bits(z):
        rest = z ^ 1 << u
        rows, verts = contraction_rows(adj, rest, within) if rest else (adj, within)
        inner = _brute_min_cvc(rows, verts, limit, floor)
        if inner is not None:
            # lifting drops the contracted vertex and the leaf
            best = rest | inner & within
            if inner.bit_count() == floor:
                break
            limit = inner.bit_count() - 1
        elif best is None:
            raise ValueError("contraction optimum exceeds the stated budget")
    return VertexCoverSol(frozenset(bits(best)), "cvc-exact-small")


# ---------------------------------------------------------------------
# the split-modulator driver


def _contraction_clique(adj: Sequence[int], within: int) -> int:
    """A 2-maximal clique mask that guarantees recursion progress.

    When a triangle exists the clique is grown from the first one (size
    >= 3, so contraction shrinks the graph).  In triangle-free graphs
    every edge is 2-maximal; the first edge with both endpoints of degree
    >= 2 strictly decreases the number of such vertices, and when none
    exists the graph is a star whose contraction the caller solves
    exactly.
    """
    tri = first_triangle(adj, within)
    if tri is not None:
        return _improve_to_2maximal(adj, mask_of(tri), within)
    # the first edge inside ``twos`` is at its first vertex with a
    # neighbour there; the first edge of a star is at its lowest vertex
    twos = mask_of(u for u in bits(within) if adj[u].bit_count() >= 2)
    u = next((u for u in bits(twos) if adj[u] & twos), (within & -within).bit_length() - 1)
    nbrs = adj[u] & twos or adj[u]
    return 1 << u | nbrs & -nbrs


def cvc_split(g: Graph) -> VertexCoverSol:
    """Connected vertex cover of size at most OPT_CVC + OPT_SVD.

    Recursion on the contraction G<Z> of a clique Z: when G<Z> has a
    connected cover of size at most 3, the exact tail solves the graph
    that was contracted; otherwise the better of the recursive cover and
    the budgeted cover (c = 4) of G<Z>, each lifted and joined with Z.
    Ties go to the recursion branch.  The recursion runs as a loop: it
    descends through the contractions, then folds the answers back up.
    """
    if not g.is_connected():
        raise ValueError("split-parameterized connected cover needs a connected graph")
    adj, within = g.adj_bits, g.full_mask
    # per level: the vertex mask of the graph contracted, its clique and
    # the rows and vertex mask of the contraction
    levels: list[tuple[int, int, Sequence[int], int]] = []
    cover = 0
    while within.bit_count() > 1:
        z = _contraction_clique(adj, within)
        rows, verts = contraction_rows(adj, z, within)
        small = _brute_min_cvc(rows, verts, 3)
        if small is not None:
            cover = mask_of(cvc_small_after_contraction(adj, within, z, 3, small.bit_count()).cover)
            break
        levels.append((within, z, rows, verts))
        adj, within = rows, verts
    for within, z, rows, verts in reversed(levels):
        cover = cover & within | z
        # A cover of G<Z> loses at most two vertices, the contracted one
        # and its leaf, when it is lifted; ties go to the recursion.
        budgeted = cvc_budgeted(rows, verts, 4, below=cover.bit_count() - z.bit_count() + 2)
        if budgeted is not None:
            cover = min(cover, mask_of(budgeted.cover) & within | z, key=int.bit_count)
    return VertexCoverSol(frozenset(bits(cover)), "cvc-split")
