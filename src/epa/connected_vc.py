"""Connected vertex cover with a split-graph additive guarantee.

The driver (:func:`cvc_split`) recurses on clique contractions G<Z> (the
clique collapses to one vertex that gains a pendant leaf, forcing it into
any connected cover).  A cover of the contraction lifts back through the
surviving ids that ``Graph.contract_with_pendant`` returns, with the
contracted vertex swapped for the whole clique.  Once G<Z> has a
connected cover of at most 3 vertices, :func:`cvc_small_after_contraction`
solves G exactly from the contractions G<Z - u>, one per clique vertex.

Neither that tail nor the driver's test for it builds a contraction.
They walk ``graphs.contraction_rows``, the rows of G<Y> in G's own id
space, with the contracted vertex at bit n and its leaf at bit n + 1.
``contract_with_pendant`` relabels those rows by the order-preserving
map, so the walk over connected subsets, which depends only on the
order of the ids, visits the same sets in the same order and the first
smallest cover is the same.  ``cvc_split`` builds G<Z> only to descend
a level.  The optimum of G<Z> that its test finds is a floor for every
G<Z - u>, so the tail starts each search there and stops at the first u
whose optimum reaches it.

:func:`cvc_budgeted` runs Savage's DFS on G<Y> for every connected set Y
of size c+1 without building G<Y>.  ``solvers.savage_mask`` walks G's
adjacency masks and treats Y as one virtual vertex.  That vertex comes
after every kept vertex and is followed by its pendant leaf, which is
where ``contract_with_pendant`` puts it, so the DFS visits vertices in
the same order.  Its cover test runs on G itself, which is equivalent
because Y is connected.

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

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import Graph, bits, contraction_rows, mask_covers, mask_of
from .recognize import find_induced
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


def cvc_budgeted(g: Graph, c: int, below: Optional[int] = None) -> Optional[VertexCoverSol]:
    """Connected cover of size at most max(OPT_CVC, OPT_CVC + OPT_VC - c).

    Small connected sets that already cover everything are returned as
    is; otherwise, for every connected set Y of size c+1, Savage's cover
    of the contraction G<Y> is lifted by swapping the contracted vertex
    for Y, and the first smallest is kept.  The contraction is never
    built: the DFS treats Y as one virtual vertex (see
    ``solvers.savage_mask``).  With ``below`` given, that cover is
    returned only when it has fewer than ``below`` vertices, and None
    otherwise; the walk over Y skips every branch that cannot beat the
    best so far (see the module docstring).
    """
    if not g.is_connected():
        raise ValueError("budgeted connected cover needs a connected graph")
    if below is None:
        below = g.n + 1
    # A small cover has at most min(c, n-1) vertices, fewer than any
    # lifted candidate, which contains Y.
    adj, full = g.adj_bits, g.full_mask
    small = _brute_min_cvc(adj, full, min(c, below - 1))
    if small is not None:
        if small.bit_count() < below:
            return VertexCoverSol(frozenset(bits(small)), f"cvc-budgeted[{c}]")
        return None
    k = min(c + 1, g.n)
    best: Optional[int] = None

    def cut(sub: int, size: int) -> bool:
        # True when sub plus a greedy maximal matching of G - sub
        # already needs ``below`` vertices (see the module docstring).
        limit = 2 * (below - size)
        return matching_cover(adj, full & ~sub, 0, None, limit).bit_count() >= limit

    for y in connected_subsets(adj, full, k, cut):
        cand = savage_mask(g, y)
        if cand.bit_count() < below:
            best, below = cand, cand.bit_count()
    if best is None:
        return None
    return VertexCoverSol(frozenset(bits(best)), f"cvc-budgeted[{c}]")


# ---------------------------------------------------------------------
# exact solver for instances whose contraction has a tiny optimum


def _lift(cover: Iterable[int], kept: Sequence[int]) -> frozenset[int]:
    """Old ids of the surviving vertices in a cover of a contraction; the
    contracted vertex and its leaf, ids len(kept) and up, are dropped."""
    return frozenset(kept[v] for v in cover if v < len(kept))


def cvc_small_after_contraction(
    g: Graph, z: frozenset[int], c: int, opt_contracted: Optional[int] = None
) -> VertexCoverSol:
    """Exact minimum connected vertex cover, given a clique ``z`` whose
    contraction G<z> has a connected cover of size at most ``c``.

    For each u in z, in id order, the optimum of G<z - u> (G itself when
    z = {u}) is lifted and joined with z - u; the first smallest wins.
    No candidate z + lift(G<z>) is needed: merging u into the contracted
    vertex maps a connected cover of G<z - u> onto one of G<z> that is no
    larger, and splitting it back adds u, so OPT(G<z - u>) is OPT(G<z>)
    or OPT(G<z>) + 1.  Both optima hold the contracted vertex and not its
    leaf, so u's candidate is no larger than z + lift(G<z>):
    |z| + OPT(G<z - u>) - 2 <= |z| + OPT(G<z>) - 1.  Coming last, only a
    strictly smaller one would have replaced the best.

    The contractions are never built: each search walks the rows of
    G<z - u> in G's id space (see ``graphs.contraction_rows``), which
    visit the same sets in the same order as the built graph.  For
    |z| >= 2 the merge above makes OPT(G<z>) a floor: every search starts
    at that size, and the loop stops at the first u whose optimum
    reaches it, as a later u cannot be strictly smaller.  The caller may
    pass OPT(G<z>) as ``opt_contracted``; otherwise it is searched for
    here.  Later contractions are only searched below the best so far, as
    ties go to the first u: ``_brute_min_cvc`` scans sizes in ascending
    order, so a lower limit finds the same set or none.  Raises when the
    first search (up to c + 1) fails, which by the bound disproves the
    premise, and with the same message when OPT(G<z>) is above c + 1, as
    the floor then puts every G<z - u> past that limit.
    """
    if not g.is_connected():
        raise ValueError("needs a connected graph")
    zm = mask_of(z)
    adj = g.adj_bits
    # each member of z is a vertex of g adjacent to every other member
    if not zm or zm >> g.n or any(zm & ~adj[u] & ~(1 << u) for u in z):
        raise ValueError("z must be a nonempty clique")
    limit = c + 1
    floor = 1
    if len(z) > 1:
        if opt_contracted is None:
            found = _brute_min_cvc(*contraction_rows(adj, zm), limit)
            if found is None:
                raise ValueError("contraction optimum exceeds the stated budget")
            opt_contracted = found.bit_count()
        floor = opt_contracted
    full = g.full_mask
    best: Optional[int] = None
    for u in bits(zm):
        rest = zm ^ 1 << u
        rows, within = contraction_rows(adj, rest) if rest else (adj, full)
        inner = _brute_min_cvc(rows, within, limit, floor)
        if inner is not None:
            # lifting drops the contracted vertex and the leaf
            best = rest | inner & full
            if inner.bit_count() == floor:
                break
            limit = inner.bit_count() - 1
        elif best is None:
            raise ValueError("contraction optimum exceeds the stated budget")
    return VertexCoverSol(frozenset(bits(best)), "cvc-exact-small")


# ---------------------------------------------------------------------
# the split-modulator driver


def _contraction_clique(g: Graph) -> frozenset[int]:
    """A 2-maximal clique that guarantees recursion progress.

    When a triangle exists the clique is grown from one (size >= 3, so
    contraction shrinks the graph).  In triangle-free graphs every edge
    is 2-maximal; an edge with both endpoints of degree >= 2 strictly
    decreases the number of such vertices, and when none exists the graph
    is a star whose contraction the caller solves exactly.
    """
    tri = find_induced(g, "triangle")
    if tri is not None:
        return _improve_to_2maximal(g, mask_of(tri), g.full_mask)
    for u, v in g.edges():
        if g.degree(u) >= 2 and g.degree(v) >= 2:
            return frozenset((u, v))
    return frozenset(next(g.edges()))


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
    h = g
    # per level: the contraction, its surviving ids and the clique
    levels: list[tuple[Graph, tuple[int, ...], frozenset[int]]] = []
    cover: frozenset[int] = frozenset()
    while h.n > 1:
        z = _contraction_clique(h)
        small = _brute_min_cvc(*contraction_rows(h.adj_bits, mask_of(z)), 3)
        if small is not None:
            cover = cvc_small_after_contraction(h, z, 3, small.bit_count()).cover
            break
        contracted, kept = h.contract_with_pendant(z)
        levels.append((contracted, kept, z))
        h = contracted
    for contracted, kept, z in reversed(levels):
        cand1 = _lift(cover, kept) | z
        # A cover of G<Z> loses at most two vertices, the contracted one
        # and its leaf, when it is lifted.
        budgeted = cvc_budgeted(contracted, 4, below=len(cand1) - len(z) + 2)
        cover = cand1
        if budgeted is not None:
            cand2 = _lift(budgeted.cover, kept) | z
            cover = cand1 if len(cand1) <= len(cand2) else cand2
    return VertexCoverSol(cover, "cvc-split")
