"""Graph-class membership tests with witnesses.

``recognize`` reads one table, ``_CLASSES``.  A class maps to a builder
of a member's structure (bipartition, components, perfect elimination
ordering, split partition, cotree), or None, and to its forbidden
induced subgraphs in search order; the first that :func:`find_induced`,
the one obstruction search, finds is the witness.  A co-class maps to
its base class, recognized on the complement, and its witness's name.
Every walk reads the adjacency masks under a vertex mask, and
``tests/test_golden.py::test_recognize_golden`` pins every verdict,
witness and structure.  Witnesses are meant to be re-validated by
:mod:`epa.certify`; nothing downstream trusts the producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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

    # ``==``, ``hash`` and ``repr`` walk the tree with explicit stacks; the
    # generated dataclass methods recurse, and a cotree can be about n deep.

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cotree):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        """The dataclass repr, written out in preorder."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"Cotree(kind={item.kind!r}, vertex={item.vertex!r}, children=(")
            kids = item.children
            stack.append(",))" if len(kids) == 1 else "))")
            for i in reversed(range(len(kids))):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
        return "".join(out)

    def leaves(self) -> list[int]:
        return [vertex for kind, vertex, _ in self._preorder() if kind == "leaf"]

    def evaluate(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Vertices and edges of the graph the cotree denotes."""
        vs: list[int] = []
        es: list[tuple[int, int]] = []
        # Post-order with an explicit stack (a cotree can be about n
        # deep).  A subtree's leaves are a contiguous run of ``vs``; a
        # frame keeps where each child's run starts.
        stack: list[tuple[Cotree, list[int]]] = [(self, [])]
        while stack:
            node, starts = stack[-1]
            if node.kind != "leaf" and len(starts) < len(node.children):
                starts.append(len(vs))
                stack.append((node.children[len(starts) - 1], []))
                continue
            stack.pop()
            if node.kind == "leaf":
                vs.append(node.vertex)
            elif node.kind == "join":
                bounds = starts + [len(vs)]
                parts = [vs[a:b] for a, b in zip(bounds, bounds[1:])]
                for i, a in enumerate(parts):
                    for b in parts[i + 1 :]:
                        es.extend((u, v) if u < v else (v, u) for u in a for v in b)
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


def build_cotree(g: Graph):
    """Cotree of ``g`` or, on failure, the frozenset of an induced P4.

    Complement-connectivity decomposition: at each level either the
    graph or its complement splits; if neither does (on two or more
    vertices) an induced P4 exists and is returned as the failure value.
    Parts are expanded depth first, in order, with an explicit stack,
    since the cotree can be about n deep.
    """
    if g.n == 0:
        return Cotree("union", children=())
    co = g.complement()
    # frames: (kind, part masks, subtrees of the parts built so far)
    frames: list[tuple[str, list[int], list[Cotree]]] = []
    mask = g.full_mask
    while True:
        if mask & (mask - 1):
            kind, parts = "union", g.component_masks(mask)
            if len(parts) == 1:
                kind, parts = "join", co.component_masks(mask)
                if len(parts) == 1:
                    return _find_p4(g, mask)
            frames.append((kind, parts, []))
            mask = parts[0]
            continue
        node = Cotree("leaf", vertex=mask.bit_length() - 1)
        # attach the finished subtree, closing every frame it completes
        while frames:
            kind, parts, kids = frames[-1]
            kids.append(node)
            if len(kids) < len(parts):
                mask = parts[len(kids)]
                break
            frames.pop()
            node = Cotree(kind, children=tuple(kids))
        else:
            return node


# ---------------------------------------------------------------------
# recognition: the structures of members and the class table


def mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum-cardinality-search ordering; reversed it is a candidate PEO.

    Each step picks the lowest unpicked vertex with the most picked
    neighbours; ``buckets[w]`` masks the unpicked ones with w of them.
    """
    adj = g.adj_bits
    unpicked = g.full_mask
    buckets = [unpicked] + [0] * g.n
    top = 0
    order = []
    for _ in range(g.n):
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
    ``peo`` (an ordering of all vertices) form a clique."""
    adj = g.adj_bits
    rest = g.full_mask
    for v in peo:
        rest ^= 1 << v
        later = adj[v] & rest
        for u in bits(later):
            if later & ~adj[u] & ~(1 << u):
                return False
    return True


def _try_split_partition(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Hammer-Simeone degree test; returns (clique, independent set)."""
    n = g.n
    by_deg = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in by_deg]
    m_idx = max((i + 1 for i in range(n) if degs[i] >= i), default=0)
    lhs = sum(degs[:m_idx])
    rhs = m_idx * (m_idx - 1) + sum(degs[m_idx:])
    if lhs != rhs:
        return None
    return frozenset(by_deg[:m_idx]), frozenset(by_deg[m_idx:])


def two_coloring(g: Graph) -> Optional[list[int]]:
    """Colors 1 and 2 by breadth-first search from each lowest unreached
    vertex, or None when an edge joins two equal colors (g is not
    bipartite).  The search runs a level at a time: a vertex's color is
    the parity of its level, and an edge inside a level is a conflict."""
    adj = g.adj_bits
    colors = [0] * g.n
    left = g.full_mask
    while left:
        level = seen = left & -left
        color = 1
        while level:
            reach = 0
            for v in bits(level):
                reach |= adj[v]
                colors[v] = color
            if reach & level:
                return None
            level = reach & ~seen
            seen |= level
            color = 3 - color
        left &= ~seen
    return colors


def _sides(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    colors = two_coloring(g)
    return None if colors is None else tuple(
        frozenset(v for v in range(g.n) if colors[v] == c) for c in (1, 2))


def _clusters(g: Graph) -> Optional[tuple[frozenset[int], ...]]:
    if not _cliques_within(g.adj_bits, g.full_mask, False):
        return None
    return tuple(g.connected_components())


def _peo(g: Graph) -> Optional[tuple[int, ...]]:
    peo = mcs_order(g)
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


def recognize(g: Graph, cls: str) -> Recognition:
    """Class membership plus a validating witness.

    Verdicts agree with exhaustive forbidden-subgraph search (this is
    property-tested at small sizes).
    """
    entry = _CLASSES.get(cls)
    if entry is None:
        raise ValueError(f"unsupported class {cls!r}")
    build, kinds = entry
    if isinstance(build, str):
        inner = recognize(g.complement(), build)
        return replace(inner, cls=cls, witness_kind=None if inner.member else kinds)
    structure = None if build is None else build(g)
    if isinstance(structure, frozenset):
        return Recognition(cls, False, structure, kinds[0])
    if structure is None:
        for kind in kinds:
            witness = find_induced(g, kind)
            if witness is not None:
                return Recognition(cls, False, witness, kind)
        if build is not None:
            raise AssertionError(f"{cls} builder found no structure and no witness")
    return Recognition(cls, True, structure=structure)
