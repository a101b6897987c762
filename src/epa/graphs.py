"""Immutable simple undirected graphs with dense integer vertex ids.

Vertices are always 0..n-1.  Adjacency is kept as integer bitmasks
(``adj_bits``), the one form that every other module of the package
reads; a graph question has one mask-level helper here (``connected``,
``mask_covers``, ``component_mask``).  Sorted neighbour tuples
(``adj``) are built from the masks on first use, only for callers
outside the package.  All graph values are immutable.

Outside input is validated exactly once, where it enters: ``Graph(n,
edges)`` checks every edge (range, self-loop, duplicate, the last by a
bit already set in the mask), and ``instances.parse_instance`` checks
every ``e`` line the same way before it hands over finished masks.
Derived graphs (complement, induced subgraph, relabeling, contraction)
are new objects (the induced subgraph and the contraction come with a
map back to the parent's ids); they are built straight from the
parent's adjacency masks, which are correct by construction, so they
skip validation, as do the generator's graphs, built as masks.

Masks are listed and remapped in C where it pays: ``_digits`` gives a
row's binary digits for ``itertools.compress`` (dense rows, by
``_dense_row``), and ``_columns`` transposes a list of rows through one
binary string of all their digits.  The transposition sets the other
half of every edge at once: the parser's dense edge block and the
generator's planted rows use it, and ``Graph.relabeled`` reads every new
row as a column of the kept rows; a sparse matrix, by ``_transposes``,
keeps the bit loop.

The clique contraction G<Y> is :func:`contraction_rows`: rows in G's
own id space, where Y and its pendant leaf take the next two ids, so a
contraction of the rows is again such rows and ``connected_vc``
descends without building a graph.  ``Graph.contract_with_pendant``
renumbers them as a graph of their own; the tests compare against it.

Vertex weights are tuples of nonnegative ``Fraction`` values, in which
``reports``, ``certify`` and ``oracle`` value covers.  The solvers get
ints in the same ratios from ``reports.run_algorithm``; as they only add,
subtract, compare and scale weights, ints make the choices Fractions do.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from typing import Iterable, Iterator, Optional, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _dense_row(mask: int, n: int) -> bool:
    """True when ``mask``, a row of an n-vertex graph, has n/8 + 6 set
    bits or more: from about there on its bits are listed faster in one
    C pass over ``_digits(mask)`` than one by one (timed at n = 8-1000)."""
    return mask.bit_count() * 8 >= n + 48


def _digits(mask: int) -> bytes:
    """The binary digits of ``mask``, lowest first, as bytes 0 and 1: the
    selectors of ``itertools.compress`` for its set bits."""
    return format(mask, "b")[::-1].encode().translate(_DIGIT_BYTES)


def _transposes(ones: int, rows: int, width: int, cols: int) -> bool:
    """True when reading ``cols`` columns of a bit matrix of ``rows``
    rows of ``width`` bits by ``_columns`` costs less than setting its
    ``ones`` set bits one at a time.  A bit costs the bit loop about 300
    units of 0.9 ns; the transposition costs one unit per digit of its
    string, two more per digit it slices and 400 per column (timed on
    relabels at n = 10-2000 with k/n = 0.1-1, and on 1-40 planted rows
    at n = 8-400).  Sparse matrices stay on the bit loop: the string of a
    2**16-vertex path's relabel would hold 2**32 digits."""
    return ones * 300 >= rows * (width + 2 * cols) + 400 * cols


def _columns(rows: Sequence[int], width: int, cols: Iterable[int]) -> Iterator[int]:
    """Column c of the bit matrix ``rows`` (each row below 2**width), as
    the mask of the rows with bit c set, for each c of ``cols`` in turn.

    One binary string holds every digit: "0b1" (the sentinel 1 keeps the
    leading zeros), then each row, last row first, highest digit first,
    in a field of ``step`` digits (whole bytes), so column c is every
    step-th digit from 2 + step - c on.  Built from the rows' bytes, it
    is the only copy of the digits (a join of each row's binary form
    would hold them twice); the string is built before the first column
    is read, so the caller may change ``rows`` while it reads columns."""
    if not rows:
        return (0 for _ in cols)
    size = (width + 7) // 8
    step = 8 * size
    digits = bin(int.from_bytes(
        b"".join([b"\x01", *map(int.to_bytes, reversed(rows), repeat(size), repeat("big"))]),
        "big"))
    return (int(digits[2 + step - c::step], 2) for c in cols)


def _neighbours(mask: int, n: int) -> tuple[int, ...]:
    """Set bit positions of ``mask`` (a row of an n-vertex graph) in
    ascending order."""
    if _dense_row(mask, n):
        return tuple(list(compress(range(n), _digits(mask))))
    return tuple(list(bits(mask)))


def mask_covers(adj_bits: Sequence[int], cover: int, within: int) -> bool:
    """True when the vertex mask ``cover`` covers every edge inside the
    vertex mask ``within`` of the adjacency masks ``adj_bits``."""
    uncovered = within & ~cover
    rest = uncovered
    while rest:
        low = rest & -rest
        if adj_bits[low.bit_length() - 1] & uncovered:
            return False
        rest ^= low
    return True


def first_triangle(adj_bits: Sequence[int], within: int) -> Optional[tuple[int, int, int]]:
    """Lexicographically first triangle u < v < w of the adjacency masks
    ``adj_bits`` inside the vertex mask ``within``, or None."""
    for u in bits(within):
        nu = adj_bits[u] & within >> (u + 1) << (u + 1)
        for v in bits(nu):
            ws = nu & adj_bits[v] >> (v + 1) << (v + 1)
            if ws:
                return u, v, (ws & -ws).bit_length() - 1
    return None


def component_mask(adj_bits: Sequence[int], start: int, within: int) -> int:
    """Mask of the connected component of ``start`` inside the vertex
    mask ``within`` of the adjacency masks ``adj_bits``."""
    comp = 1 << start
    frontier = comp
    while frontier:
        # OR the frontier's rows, then cut to new vertices once per level
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj_bits[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def connected(adj_bits: Sequence[int], within: int) -> bool:
    """True when the graph on the vertex mask ``within`` of the adjacency
    masks ``adj_bits`` is connected; the empty mask counts as connected."""
    start = (within & -within).bit_length() - 1
    return not within or component_mask(adj_bits, start, within) == within


def contraction_rows(adj_bits: Sequence[int], y: int, within: int) -> tuple[list[int], int]:
    """Rows of the contraction G<y> of the graph on the vertex mask
    ``within``, in the same id space, and its vertex mask.  The kept
    vertices keep their ids; the nonempty mask ``y`` becomes one vertex,
    bit n = len(adj_bits), with a pendant leaf at bit n + 1.  The rows of
    ``y`` are emptied and the rows outside ``within``, which must be
    empty, stay so.  No parallel edges arise: the contracted vertex is
    adjacent to the outside neighbourhood of ``y``."""
    n = len(adj_bits)
    vert, leaf = 1 << n, 2 << n
    kept = within & ~y
    rows = [row & kept | vert if row & y else row & kept for row in adj_bits]
    outside = 0
    for u in bits(y):
        outside |= adj_bits[u]
        rows[u] = 0
    rows += [outside & kept | leaf, vert]
    return rows, kept | vert | leaf


class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("n", "m", "adj_bits", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        self.n = n
        self.m = m
        self.adj_bits = tuple(rows)
        self._adj = None

    @classmethod
    def _from_masks(cls, adj_bits: Sequence[int]) -> "Graph":
        """Graph with the given symmetric, loop-free adjacency masks,
        unchecked: only for masks derived from a valid graph or already
        validated."""
        g = cls.__new__(cls)
        g.n = len(adj_bits)
        g.adj_bits = tuple(adj_bits)
        g.m = sum(map(int.bit_count, g.adj_bits)) // 2
        g._adj = None
        return g

    # A property, not ``__getattr__``: a class that defines __getattr__
    # loses CPython's fast path for every attribute, adj_bits included.
    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples, built from ``adj_bits`` on first use."""
        adj = self._adj
        if adj is None:
            # tuple() of a list is sized exactly; built from generators
            # these tuples were slower and raised peak RSS measurably.
            n = self.n
            adj = self._adj = tuple([_neighbours(b, n) for b in self.adj_bits])
        return adj

    # -- basic queries ------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.adj_bits):
            for v in bits(row >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj_bits == other.adj_bits

    def __hash__(self) -> int:
        return hash(self.adj_bits)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs -----------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask
        return Graph._from_masks([full & ~b & ~(1 << u) for u, b in enumerate(self.adj_bits)])

    def _check_ids(self, ids: Sequence[int]) -> None:
        """Raise unless the sorted ids all lie in 0..n-1."""
        if ids and not (0 <= ids[0] and ids[-1] < self.n):
            raise ValueError(f"vertex set out of range for n={self.n}")

    def induced_subgraph(self, s: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced by ``s``; returns (graph, old-ids-by-new-id)."""
        old = tuple(sorted(set(s)))
        self._check_ids(old)
        if len(old) == self.n:
            return self, old          # the whole graph; graphs are immutable
        return self.relabeled(old), old

    def relabeled(self, old: Sequence[int]) -> "Graph":
        """Subgraph induced by the distinct ids ``old`` (in 0..n-1, any
        order), with new id i standing for ``old[i]``; unchecked.

        The kept rows, taken in the new order, are a k x n bit matrix, and
        new row i is its column ``old[i]``, since the adjacency is
        symmetric: one transposition (:func:`_columns`) reads them all
        from one string of k * n digits.  A sparse graph, by
        :func:`_transposes`, is remapped bit by bit instead."""
        n = self.n
        k = len(old)
        keep = mask_of(old)
        adj_bits = self.adj_bits
        kept = [adj_bits[u] & keep for u in old]
        if not _transposes(sum(map(int.bit_count, kept)), k, n, k):
            index = dict(zip(old, range(k)))
            rows = []
            for row in kept:
                b = 0
                for v in bits(row):
                    b |= 1 << index[v]
                rows.append(b)
            return Graph._from_masks(rows)
        return Graph._from_masks(list(_columns(kept, n, old)))

    def contract_with_pendant(self, y: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Contract ``y`` to one vertex and append a fresh pendant leaf;
        returns (graph, old-ids-by-new-id of the surviving vertices).

        The rows of :func:`contraction_rows`, numbered by the
        order-preserving map: the surviving vertices keep their relative
        order and occupy ids 0..n-|y|-1; the contracted vertex and the
        leaf take the next two ids, len(kept) and len(kept) + 1.
        """
        ys = sorted(set(y))
        if not ys:
            raise ValueError("cannot contract an empty vertex set")
        self._check_ids(ys)
        rows, within = contraction_rows(self.adj_bits, mask_of(ys), self.full_mask)
        order = tuple(bits(within))
        return Graph._from_masks(rows).relabeled(order), order[:-2]

    # -- structural primitives ----------------------------------------

    def degeneracy_order(self) -> tuple[tuple[int, ...], int]:
        """Min-degree removal order and the degeneracy value.

        Repeatedly removes a minimum-degree vertex (lowest id on ties);
        the returned value is the largest residual degree seen, which
        equals max over subgraphs of the minimum degree.  One mask per
        residual degree holds the live vertices of that degree; the
        next vertex is the lowest one of the lowest non-empty mask, and
        a removal moves each live neighbour one mask down, so the next
        minimum is no lower than the degree just removed, less one.
        """
        adj_bits = self.adj_bits
        deg = [row.bit_count() for row in adj_bits]
        by_deg = [0] * self.n
        for v, d in enumerate(deg):
            by_deg[d] |= 1 << v
        alive = self.full_mask
        order: list[int] = []
        degen = d = 0
        while alive:
            d = max(d - 1, 0)
            while not by_deg[d]:
                d += 1
            low = by_deg[d] & -by_deg[d]
            by_deg[d] ^= low
            v = low.bit_length() - 1
            degen = max(degen, d)
            order.append(v)
            alive ^= low
            for u in bits(adj_bits[v] & alive):
                du = deg[u]
                deg[u] = du - 1
                by_deg[du] ^= 1 << u
                by_deg[du - 1] |= 1 << u
        return tuple(order), degen

    def component_masks(self, within: int) -> list[int]:
        """Masks of the connected components of G[within], by lowest vertex."""
        comps = []
        left = within
        while left:
            comp = component_mask(self.adj_bits, (left & -left).bit_length() - 1, within)
            comps.append(comp)
            left &= ~comp
        return comps

    def is_connected(self) -> bool:
        return connected(self.adj_bits, self.full_mask)


# -- weights ----------------------------------------------------------

Weights = tuple[Fraction, ...]


def as_weights(values: Sequence, n: int) -> Weights:
    """Normalize to exact nonnegative rationals of length ``n``."""
    w = tuple(Fraction(x) for x in values)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    return w


def unit_weights(n: int) -> Weights:
    return (Fraction(1),) * n


def total(w: Sequence[Fraction], vertices: Iterable[int]) -> Fraction:
    return sum((w[v] for v in vertices), Fraction(0))
