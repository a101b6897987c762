"""Graph-class membership tests with witnesses.

``recognize`` reads one table, ``_CLASSES``.  A class maps to a builder
of a member's structure (bipartition, components, perfect elimination
ordering, split partition, cotree), or None, and to its forbidden
induced subgraphs in search order; the first that :func:`find_induced`,
the one obstruction search, finds is the witness.  A co-class maps to
its base class, recognized on the complement, and its witness's name.
``recognize``, ``two_coloring``, ``find_induced`` and ``build_cotree``
answer for G[within] in G's ids, ``within`` an optional vertex mask
(default: all of G).  Every builder and walk reads the adjacency masks
under a vertex mask, and ``tests/test_golden.py::test_recognize_golden``
pins every verdict, witness and structure.  Witnesses are meant to be
re-validated by :mod:`epa.certify`; nothing downstream trusts the producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from .graphs import Graph, bits, first_triangle, mask_of

class NotInClassError(ValueError):
    """Raised when an exact solver is handed a graph outside its class."""

    def __init__(self, cls: str, witness: frozenset[int]):
        super().__init__(f"graph is not in class {cls!r}; witness {sorted(witness)}")
        self.cls = cls
        self.witness = witness


@dataclass(frozen=True)
class Recognition:
    cls: str
    member: bool
    witness: Optional[frozenset[int]] = None
    witness_kind: Optional[str] = None
    structure: object = None


@dataclass(frozen=True)
class Cotree:
    """Rooted union/join tree whose leaves are the graph's vertices."""

    kind: str                      # 'leaf' | 'union' | 'join'
    vertex: Optional[int] = None
    children: tuple["Cotree", ...] = field(default=())

    # Both walks below use explicit stacks; the generated dataclass
    # methods recurse, and a cotree can be about n deep.

    def _preorder(self) -> list[tuple[str, Optional[int], int]]:
        """(kind, vertex, child count) of every node in preorder, which
        fixes the tree."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append((node.kind, node.vertex, len(node.children)))
            stack.extend(reversed(node.children))
        return out

    def fold(self, combine: Callable[[str, Optional[int], list], Any]) -> Any:
        """The root's ``combine(kind, vertex, results)``, called at every
        node after its children, left to right, with their results in
        order."""
        stack: list[tuple[Cotree, list]] = [(self, [])]
        while True:
            node, results = stack[-1]
            if len(results) < len(node.children):
                stack.append((node.children[len(results)], []))
                continue
            stack.pop()
            result = combine(node.kind, node.vertex, results)
            if not stack:
                return result
            stack[-1][1].append(result)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cotree):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        """The dataclass repr, written from the preorder list: a node's
        text opens when it is reached and closes after its last child's,
        so no text is copied per level."""
        pieces = []
        open_nodes: list[list] = []  # [children left to close, closing text]
        for kind, vertex, count in self._preorder():
            pieces.append(f"Cotree(kind={kind!r}, vertex={vertex!r}, children=(")
            open_nodes.append([count, ",))" if count == 1 else "))"])
            while open_nodes and not open_nodes[-1][0]:
                pieces.append(open_nodes.pop()[1])
                if open_nodes:
                    open_nodes[-1][0] -= 1
                    if open_nodes[-1][0]:
                        pieces.append(", ")
        return "".join(pieces)

    def leaves(self) -> list[int]:
        return [vertex for kind, vertex, _ in self._preorder() if kind == "leaf"]

    def evaluate(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Vertices and edges of the graph the cotree denotes."""
        vs: list[int] = []
        es: list[tuple[int, int]] = []

        def run(kind: str, vertex: Optional[int], runs: list[tuple[int, int]]) -> tuple[int, int]:
            # a subtree's leaves are the contiguous run vs[start:end]
            if kind == "leaf":
                vs.append(vertex)
                return len(vs) - 1, len(vs)
            if kind == "join":
                parts = [vs[a:b] for a, b in runs]
                for i, a in enumerate(parts):
                    for b in parts[i + 1 :]:
                        es.extend((u, v) if u < v else (v, u) for u in a for v in b)
            return (runs[0][0] if runs else len(vs)), len(vs)

        self.fold(run)
        return vs, es


# ---------------------------------------------------------------------
# induced-pattern search


def find_induced(g: Graph, pattern: str, within: Optional[int] = None) -> Optional[frozenset[int]]:
    """First induced occurrence of ``pattern`` (deterministic scan order).

    ``within`` optionally restricts the search to a vertex mask.  Returns
    ``None`` exactly when the (restricted) graph is pattern-free.
    """
    find = _FINDERS.get(pattern)
    if find is None:
        raise ValueError(f"unsupported pattern {pattern!r}")
    found = find(g, g.full_mask if within is None else within)
    return None if found is None else frozenset(found)


# The searches below walk their masks with inline low-bit loops rather
# than ``bits()``: at n in the hundreds the generator's per-item cost was
# half of ``_find_p4``'s time.  A local-ratio loop ends with one search
# that finds nothing, and that search cost the most, so P3, co-P3 and
# P3+K1 first decide pattern-freeness with ``_cliques_within``, in one
# mask step per vertex, and walk only when a pattern exists.


def _cliques_within(adj: Sequence[int], mask: int, co: bool) -> bool:
    """True when G[mask], or its complement when ``co`` is set, is a
    disjoint union of cliques.

    The class of the lowest vertex u left is N[u], or with ``co`` the
    non-neighbours of u plus u itself, within the vertices left.  Every
    member of the class must have that same class; then it is dropped.
    """
    rest = mask
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        part = rest & ~adj[u] if co else rest & adj[u] | low
        members = part ^ low
        while members:
            bit = members & -members
            members ^= bit
            v = bit.bit_length() - 1
            if (rest & ~adj[v] if co else rest & adj[v] | bit) != part:
                return False
        rest ^= part
    return True


def _find_p3(g: Graph, mask: int) -> Optional[frozenset[int]]:
    # center vertex with two nonadjacent neighbors
    adj = g.adj_bits
    if _cliques_within(adj, mask, False):
        return None
    centers = mask
    while centers:
        low = centers & -centers
        centers ^= low
        b = low.bit_length() - 1
        nb = adj[b] & mask
        ends = nb
        while ends:
            bit_a = ends & -ends
            ends ^= bit_a
            a = bit_a.bit_length() - 1
            cands = nb & ~adj[a] & ~bit_a
            if cands:
                c = (cands & -cands).bit_length() - 1
                return frozenset((a, b, c))
    return None


def _find_co_p3(g: Graph, mask: int) -> Optional[frozenset[int]]:
    # an edge uv (u < v) plus a vertex seeing neither endpoint
    adj = g.adj_bits
    if _cliques_within(adj, mask, True):
        return None
    rest = mask
    while rest:
        bit_u = rest & -rest
        rest ^= bit_u          # now the vertices of mask above u
        u = bit_u.bit_length() - 1
        later = adj[u] & rest
        while later:
            bit_v = later & -later
            later ^= bit_v
            v = bit_v.bit_length() - 1
            far = mask & ~(adj[u] | adj[v]) & ~bit_u & ~bit_v
            if far:
                w = (far & -far).bit_length() - 1
                return frozenset((u, v, w))
    return None


def _find_p4(g: Graph, mask: int) -> Optional[frozenset[int]]:
    # a middle edge bc (b < c) with a on b's side and d on c's.  A pair
    # with c < b is the pair (c, b) with a and d swapped, which anchor c
    # already tried, so c walks only the neighbours above b.
    adj = g.adj_bits
    rest_b = mask
    while rest_b:
        bit_b = rest_b & -rest_b
        rest_b ^= bit_b
        b = bit_b.bit_length() - 1
        rest_c = adj[b] & rest_b
        while rest_c:
            bit_c = rest_c & -rest_c
            rest_c ^= bit_c
            c = bit_c.bit_length() - 1
            side_a = adj[b] & ~adj[c] & ~bit_c & mask
            side_d = adj[c] & ~adj[b] & ~bit_b & mask
            if not side_a or not side_d:
                continue
            while side_a:
                bit_a = side_a & -side_a
                side_a ^= bit_a
                a = bit_a.bit_length() - 1
                ds = side_d & ~adj[a] & ~bit_a
                if ds:
                    d = (ds & -ds).bit_length() - 1
                    return frozenset((a, b, c, d))
    return None


def _find_p3k1(g: Graph, mask: int) -> Optional[frozenset[int]]:
    # G is (P3+K1)-free exactly when the non-neighbours of every vertex
    # induce a cluster graph.
    adj = g.adj_bits
    if all(_cliques_within(adj, mask & ~adj[d] & ~(1 << d), False) for d in bits(mask)):
        return None
    for b in bits(mask):
        nb = adj[b] & mask
        for a in bits(nb):
            for c in bits(nb & ~adj[a] & ~(1 << a)):
                closed = adj[a] | adj[b] | adj[c] | (1 << a) | (1 << b) | (1 << c)
                rest = mask & ~closed
                if rest:
                    d = (rest & -rest).bit_length() - 1
                    return frozenset((a, b, c, d))
    return None


def _find_k2(g: Graph, mask: int) -> Optional[tuple[int, int]]:
    # the lowest vertex with a neighbour has only higher ones
    for u in bits(mask):
        nb = g.adj_bits[u] & mask
        if nb:
            return u, (nb & -nb).bit_length() - 1
    return None


# ---------------------------------------------------------------------
# cycles, holes and the split obstructions


def _find_cycle(g: Graph, mask: int, odd_only: bool) -> Optional[list[int]]:
    """Some chordless cycle of G[mask] (odd if requested), or None.

    Breadth first from the lowest vertex of each component, rows in
    ascending order: the first edge from u back to a vertex no deeper
    (not u's parent; with ``odd_only``, on u's level) closes a cycle
    through the tree, then shrunk along its chords.  A search that
    closes none has seen every such edge of its component.
    """
    adj = g.adj_bits
    left = mask
    while left:
        s = (left & -left).bit_length() - 1
        parent = {s: -1}
        seen = level = upper = 1 << s     # upper: the levels down to u's
        frontier = [s]
        while frontier:
            deeper = []
            for u in frontier:
                row = adj[u] & mask
                # odd: u's own level; else any level down to u's but u's
                # parent (the root, whose parent is -1, has none above it)
                p = parent[u]
                back = row & (level if odd_only else upper & ~(1 << p) if p >= 0 else 0)
                if back:
                    chain_u = _chain(parent, u)
                    chain_v = _chain(parent, (back & -back).bit_length() - 1)
                    pos = {x: i for i, x in enumerate(chain_u)}
                    j = next(i for i, x in enumerate(chain_v) if x in pos)
                    cyc = chain_u[: pos[chain_v[j]] + 1] + list(reversed(chain_v[:j]))
                    return _shrink_to_chordless(g, cyc, keep_odd=odd_only)
                new = row & ~seen
                seen |= new
                for v in bits(new):
                    parent[v] = u
                    deeper.append(v)
            level = seen & ~upper
            upper = seen
            frontier = deeper
        left &= ~seen
    return None


def _chain(parent: dict[int, int], v: int) -> list[int]:
    # v and its ancestors up to the root, whose parent is -1
    out = [v]
    while parent[out[-1]] != -1:
        out.append(parent[out[-1]])
    return out


def _shrink_to_chordless(g: Graph, cycle: list[int], keep_odd: bool) -> list[int]:
    """Shrink a simple cycle along chords; optionally preserve odd length."""
    adj = g.adj_bits
    while True:
        k = len(cycle)
        rest = mask_of(cycle[2:])      # positions i + 2 .. k - 1
        for i in range(k - 2):
            row = adj[cycle[i]] & (rest & ~(1 << cycle[-1]) if i == 0 else rest)
            if row:
                j = next(j for j in range(i + 2, k) if row >> cycle[j] & 1)
                break
            rest ^= 1 << cycle[i + 2]
        else:
            return cycle
        arc1 = cycle[i : j + 1]                       # i..j plus chord
        arc2 = cycle[j:] + cycle[: i + 1]             # j..i plus chord
        if keep_odd:
            cycle = arc1 if len(arc1) % 2 == 1 else arc2
        else:
            cycle = arc1 if len(arc1) <= len(arc2) else arc2


def _find_hole(g: Graph, mask: int) -> Optional[list[int]]:
    """An induced cycle of length >= 4 in G[mask], or None (G[mask] is
    chordal): a vertex v, two non-adjacent neighbours x < y, and a
    shortest x-y path that avoids v's other neighbours."""
    adj = g.adj_bits
    for v in bits(mask):
        nb = adj[v] & mask
        away = mask & ~adj[v] & ~(1 << v)
        for x in bits(nb):
            for y in bits(nb & ~adj[x] & ~((2 << x) - 1)):
                path = _shortest_path(g, x, y, away | (1 << x) | (1 << y))
                if path is not None:
                    return [v] + path
    return None


def _shortest_path(g: Graph, s: int, t: int, allowed: int) -> Optional[list[int]]:
    """The first shortest s-t path inside ``allowed`` found breadth first,
    each row in ascending order, or None."""
    adj = g.adj_bits
    parent = {s: -1}
    seen = 1 << s
    queue = [s]
    for u in queue:
        new = adj[u] & allowed & ~seen
        seen |= new
        for v in bits(new):
            parent[v] = u
            queue.append(v)
        if seen >> t & 1:
            return _chain(parent, t)[::-1]
    return None


def _find_2k2(g: Graph, mask: int) -> Optional[tuple[int, int, int, int]]:
    """The first edge ab (a < b, lexicographic order) whose common
    non-neighbourhood F spans an edge, and the first edge cd of G[F],
    which comes after ab: an earlier one would have paired with ab."""
    adj = g.adj_bits
    for a in bits(mask):
        far = mask & ~adj[a] & ~(1 << a)
        for b in bits(adj[a] & mask & ~((2 << a) - 1)):
            side = far & ~adj[b]
            for c in bits(side):
                ds = adj[c] & side
                if ds:
                    return a, b, c, (ds & -ds).bit_length() - 1
    return None


def _find_c4(g: Graph, mask: int) -> Optional[tuple[int, int, int, int]]:
    # non-adjacent u < v with two non-adjacent common neighbours a < b
    adj = g.adj_bits
    for u in bits(mask):
        for v in bits(mask & ~adj[u] & ~((2 << u) - 1)):
            common = adj[u] & adj[v] & mask
            for a in bits(common):
                rest = common & ~adj[a] & ~((2 << a) - 1)
                if rest:
                    return u, v, a, (rest & -rest).bit_length() - 1
    return None


def _find_c5(g: Graph, mask: int) -> Optional[tuple[int, int, int, int, int]]:
    # an induced path a-b-c-d closed by a neighbour e of a and d seeing neither b nor c
    adj = g.adj_bits
    for a in bits(mask):
        for b in bits(adj[a] & mask):
            for c in bits(adj[b] & mask & ~adj[a] & ~(1 << a)):
                seen_ab = adj[a] | adj[b] | (1 << a) | (1 << b)
                for d in bits(adj[c] & mask & ~seen_ab):
                    es = adj[d] & adj[a] & mask & ~adj[b] & ~adj[c] & ~(1 << b) & ~(1 << c)
                    if es:
                        return a, b, c, d, (es & -es).bit_length() - 1
    return None


# Every kind ``find_induced`` searches: (g, vertex mask) -> vertices or None.
_FINDERS = {
    "K2": _find_k2,
    "P3": _find_p3,
    "co-P3": _find_co_p3,
    "P4": _find_p4,
    "triangle": lambda g, mask: first_triangle(g.adj_bits, mask),
    "P3+K1": _find_p3k1,
    "cycle": lambda g, mask: _find_cycle(g, mask, False),
    "odd-cycle": lambda g, mask: _find_cycle(g, mask, True),
    "hole": _find_hole,
    "2K2": _find_2k2,
    "C4": _find_c4,
    "C5": _find_c5,
}


# ---------------------------------------------------------------------
# cotree construction


def build_cotree(g: Graph, within: Optional[int] = None):
    """Cotree of G[within] (default: all of G), its leaves G's ids, or,
    on failure, the frozenset of an induced P4.

    Complement-connectivity decomposition: at each level either the
    graph or its complement splits; if neither does (on two or more
    vertices) an induced P4 exists and is returned as the failure value.
    Parts are expanded depth first, in order, with an explicit stack,
    since the cotree can be about n deep.

    Only the root walks both ways.  Below it the kinds alternate: a part
    of a union is connected, so it is a join or prime, and a part of a
    join is co-connected, so it is a union or prime.  Such a part needs
    one walk, of its complement or of itself; when that walk finds one
    part, the part is prime and its P4 is the failure value.

    Most parts need no walk.  Once the root splits, its vertices are
    bucketed by their degree in G[root].  A part P carries ``drop``, the
    number of vertices its join ancestors cut off: a union part loses no
    neighbour, and a join part loses its siblings, each adjacent to every
    vertex of it, so a vertex's degree in G[P] is its root degree less
    ``drop``.  In a join part, U, the vertices of root degree
    |P| - 1 + drop, are universal in G[P].  If R = P - U is empty, or
    holds a vertex isolated in G[R] (root degree drop + |U|: it sees all
    of U), then G[R] is disconnected (R is not one vertex, which would be
    universal), so its complement is connected, and the parts are U's
    singletons and R by lowest vertex, as the walk lists them.  A union
    part mirrors this: I, the vertices of root degree drop, are isolated
    in G[P], and if R = P - I is empty or holds a vertex universal in
    G[R] (root degree |R| - 1 + drop), G[R] is connected.  Every other
    part walks.  So each vertex peeled costs O(1) mask operations, and a
    threshold cograph walks only at its root.
    """
    mask = g.full_mask if within is None else within
    if not mask:
        return Cotree("union", children=())
    adj = g.adj_bits
    by_deg: list[int] = []        # root degree -> mask of those vertices
    drop = 0
    # frames: (kind, part masks, subtrees of the parts built so far, the
    # parts' drop, before each part's own size is taken off under a join)
    frames: list[tuple[str, list[int], list[Cotree], int]] = []
    while True:
        if mask & (mask - 1):
            if frames:
                kind = "join" if frames[-1][0] == "union" else "union"
                parts = _peeled_parts(g, by_deg, mask, drop, kind)
            else:
                kind, parts = "union", g.component_masks(mask)
                if len(parts) == 1:
                    kind, parts = "join", _co_components(adj, mask)
            if len(parts) == 1:
                return _find_p4(g, mask)
            if not frames:
                by_deg = [0] * mask.bit_count()
                for v in bits(mask):
                    by_deg[(adj[v] & mask).bit_count()] |= 1 << v
            frames.append((kind, parts, [], drop + mask.bit_count() if kind == "join" else drop))
            node = None
        else:
            node = Cotree("leaf", vertex=mask.bit_length() - 1)
        # attach the finished subtree, closing every frame it completes,
        # and go down to the next part
        while frames:
            kind, parts, kids, cut = frames[-1]
            if node is not None:
                kids.append(node)
            if len(kids) < len(parts):
                mask = parts[len(kids)]
                drop = cut - mask.bit_count() if kind == "join" else cut
                break
            frames.pop()
            node = Cotree(kind, children=tuple(kids))
        else:
            return node


def _peeled_parts(g: Graph, by_deg: list[int], mask: int, drop: int, kind: str) -> list[int]:
    """Parts of a cotree part below the root that can only be a ``kind``
    node or prime, as :func:`build_cotree` argues: the universal (join)
    or isolated (union) vertices as singletons beside the rest, by lowest
    vertex, when the root's degree buckets show the rest is one part;
    else the parts the walk finds."""
    size = mask.bit_count()
    if kind == "join":
        peel = by_deg[size - 1 + drop] & mask
        rest = mask ^ peel
        if rest and not by_deg[drop + peel.bit_count()] & rest:
            return _co_components(g.adj_bits, mask)
    else:
        peel = by_deg[drop] & mask
        rest = mask ^ peel
        if rest and not by_deg[drop + rest.bit_count() - 1] & rest:
            return g.component_masks(mask)
    parts = [1 << v for v in bits(peel)]
    if rest:
        parts.insert((peel & ((rest & -rest) - 1)).bit_count(), rest)
    return parts


def _co_components(adj: Sequence[int], mask: int) -> list[int]:
    """Masks of the components of the complement of G[mask], by lowest
    vertex, walked on the rows: the complement neighbours of a frontier
    are the vertices of ``mask`` outside the AND of the frontier's rows."""
    parts = []
    left = mask
    while left:
        part = frontier = left & -left
        while frontier:
            common = mask
            while frontier:
                bit = frontier & -frontier
                common &= adj[bit.bit_length() - 1]
                frontier ^= bit
            frontier = mask & ~common & ~part
            part |= frontier
        parts.append(part)
        left &= ~part
    return parts


# ---------------------------------------------------------------------
# recognition: the structures of members and the class table


def mcs_order(g: Graph, mask: int) -> tuple[int, ...]:
    """Maximum-cardinality-search order of G[mask]; reversed, a candidate PEO.

    Each step picks the lowest unpicked vertex with the most picked
    neighbours; ``buckets[w]`` masks the unpicked ones with w of them.
    """
    adj = g.adj_bits
    unpicked = mask
    buckets = [unpicked] + [0] * mask.bit_count()
    top = 0
    order = []
    for _ in range(mask.bit_count()):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        unpicked ^= low
        v = low.bit_length() - 1
        order.append(v)
        nb = adj[v] & unpicked
        w = top
        while nb:
            moving = buckets[w] & nb
            buckets[w] ^= moving
            buckets[w + 1] |= moving
            nb ^= moving
            w -= 1
        if buckets[top + 1]:
            top += 1
    return tuple(reversed(order))


def is_perfect_elimination(g: Graph, peo: tuple[int, ...]) -> bool:
    """True when the neighbours of each vertex that come after it in
    ``peo`` (an ordering of some vertices, read in G[peo]) form a clique."""
    adj = g.adj_bits
    rest = mask_of(peo)
    for v in peo:
        rest ^= 1 << v
        later = adj[v] & rest
        for u in bits(later):
            if later & ~adj[u] & ~(1 << u):
                return False
    return True


def _try_split_partition(g: Graph, mask: int) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Hammer-Simeone degree test on G[mask]; returns (clique, independent set)."""
    adj = g.adj_bits
    by_deg = sorted(bits(mask), key=lambda v: (-(adj[v] & mask).bit_count(), v))
    degs = [(adj[v] & mask).bit_count() for v in by_deg]
    m_idx = max((i + 1 for i, d in enumerate(degs) if d >= i), default=0)
    lhs = sum(degs[:m_idx])
    rhs = m_idx * (m_idx - 1) + sum(degs[m_idx:])
    if lhs != rhs:
        return None
    return frozenset(by_deg[:m_idx]), frozenset(by_deg[m_idx:])


def two_coloring(g: Graph, within: Optional[int] = None) -> Optional[list[int]]:
    """Colors 1 and 2 of G[within] (default: all of G; 0 outside it) by
    breadth-first search from each lowest unreached vertex, or None when
    an edge joins two equal colors (G[within] is not bipartite).  The
    search runs a level at a time: a vertex's color is the parity of its
    level, and an edge inside a level is a conflict."""
    adj = g.adj_bits
    colors = [0] * g.n
    left = mask = g.full_mask if within is None else within
    while left:
        level = seen = left & -left
        color = 1
        while level:
            reach = 0
            for v in bits(level):
                reach |= adj[v]
                colors[v] = color
            reach &= mask
            if reach & level:
                return None
            level = reach & ~seen
            seen |= level
            color = 3 - color
        left &= ~seen
    return colors


def _sides(g: Graph, mask: int) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    colors = two_coloring(g, mask)
    return None if colors is None else tuple(
        frozenset(v for v in bits(mask) if colors[v] == c) for c in (1, 2))


def _clusters(g: Graph, mask: int) -> Optional[tuple[frozenset[int], ...]]:
    if not _cliques_within(g.adj_bits, mask, False):
        return None
    return tuple(frozenset(bits(comp)) for comp in g.component_masks(mask))


def _peo(g: Graph, mask: int) -> Optional[tuple[int, ...]]:
    peo = mcs_order(g, mask)
    return peo if is_perfect_elimination(g, peo) else None


# class -> (structure builder or None, witness kinds in search order);
# co-class -> (base class, the base witness's kind on the complement).
# ``build_cotree`` returns the P4 it met instead of None.
_CLASSES: dict[str, tuple] = {
    "edgeless": (None, ("K2",)),
    "forest": (None, ("cycle",)),
    "bipartite": (_sides, ("odd-cycle",)),
    "cluster": (_clusters, ("P3",)),
    "cocluster": ("cluster", "co-P3"),
    "cograph": (build_cotree, ("P4",)),
    "split": (_try_split_partition, ("2K2", "C4", "C5")),
    "chordal": (_peo, ("hole",)),
    "cochordal": ("chordal", "co-hole"),
    "triangle-free": (None, ("triangle",)),
    "co-triangle-free": ("triangle-free", "K3bar"),
    "p3k1-free": (None, ("P3+K1",)),
}

CLASSES = tuple(_CLASSES)


def recognize(g: Graph, cls: str, within: Optional[int] = None) -> Recognition:
    """Class membership of G[within] (default: all of G) plus a
    validating witness, both in G's ids.

    Verdicts agree with exhaustive forbidden-subgraph search (this is
    property-tested at small sizes).
    """
    entry = _CLASSES.get(cls)
    if entry is None:
        raise ValueError(f"unsupported class {cls!r}")
    mask = g.full_mask if within is None else within
    build, kinds = entry
    if isinstance(build, str):
        inner = recognize(g.complement(), build, mask)
        return replace(inner, cls=cls, witness_kind=None if inner.member else kinds)
    structure = None if build is None else build(g, mask)
    if isinstance(structure, frozenset):
        return Recognition(cls, False, structure, kinds[0])
    if structure is None:
        for kind in kinds:
            witness = find_induced(g, kind, mask)
            if witness is not None:
                return Recognition(cls, False, witness, kind)
        if build is not None:
            raise AssertionError(f"{cls} builder found no structure and no witness")
    return Recognition(cls, True, structure=structure)
