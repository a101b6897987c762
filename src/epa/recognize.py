"""Graph-class membership tests with witnesses.

Each recognizer returns a :class:`Recognition`: a verdict plus either a
structural witness (bipartition, perfect elimination ordering, split
partition, cotree, clique partition) or a forbidden induced pattern
(P3, co-P3, P4, hole, odd cycle, triangle, empty triple, P3+K1, and the
split obstructions 2K2/C4/C5).  Witnesses are meant to be re-validated
by :mod:`epa.certify`; nothing downstream trusts the producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .graphs import Graph, bits, first_triangle

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
    mask = g.full_mask if within is None else within
    if pattern == "P3":
        return _find_p3(g, mask)
    if pattern == "co-P3":
        return _find_co_p3(g, mask)
    if pattern == "P4":
        return _find_p4(g, mask)
    if pattern == "triangle":
        t = first_triangle(g.adj_bits, mask)
        return None if t is None else frozenset(t)
    if pattern == "P3+K1":
        return _find_p3k1(g, mask)
    raise ValueError(f"unsupported pattern {pattern!r}")


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
        nb = g.adj_bits[b] & mask
        for a in bits(nb):
            for c in bits(nb & ~g.adj_bits[a] & ~(1 << a)):
                closed = g.adj_bits[a] | g.adj_bits[b] | g.adj_bits[c]
                closed |= (1 << a) | (1 << b) | (1 << c)
                rest = mask & ~closed
                if rest:
                    d = (rest & -rest).bit_length() - 1
                    return frozenset((a, b, c, d))
    return None


# ---------------------------------------------------------------------
# cycle machinery (forest / bipartite / chordal witnesses)


def _shrink_to_chordless(g: Graph, cycle: list[int], keep_odd: bool) -> list[int]:
    """Shrink a simple cycle along chords; optionally preserve odd length."""
    while True:
        k = len(cycle)
        chord = None
        for i in range(k):
            for j in range(i + 2, k):
                if i == 0 and j == k - 1:
                    continue
                if g.has_edge(cycle[i], cycle[j]):
                    chord = (i, j)
                    break
            if chord:
                break
        if chord is None:
            return cycle
        i, j = chord
        arc1 = cycle[i : j + 1]                       # i..j plus chord
        arc2 = cycle[j:] + cycle[: i + 1]             # j..i plus chord
        if keep_odd:
            cycle = arc1 if len(arc1) % 2 == 1 else arc2
        else:
            cycle = arc1 if len(arc1) <= len(arc2) else arc2


def _find_cycle(g: Graph, odd_only: bool) -> Optional[list[int]]:
    """Some chordless cycle (odd if requested), or None."""
    n = g.n
    reached = [False] * n
    for s in range(n):
        # BFS from a component's lowest vertex sees every non-tree edge
        # and every same-level (odd-cycle) edge of the component; if it
        # found no cycle, no later start in the component finds one.
        if reached[s]:
            continue
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in g.adj[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u] and dist[v] <= dist[u]:
                    if odd_only and (dist[u] + dist[v] + 1) % 2 == 0:
                        continue
                    chain_u = _chain(parent, u)
                    chain_v = _chain(parent, v)
                    pos = {x: i for i, x in enumerate(chain_u)}
                    j = next(i for i, x in enumerate(chain_v) if x in pos)
                    meet = chain_v[j]
                    cyc = chain_u[: pos[meet] + 1] + list(reversed(chain_v[:j]))
                    if odd_only and len(cyc) % 2 == 0:
                        continue
                    return _shrink_to_chordless(g, cyc, keep_odd=odd_only)
        for v in queue:
            reached[v] = True
    return None


def _chain(parent: list[int], v: int) -> list[int]:
    out = [v]
    while parent[out[-1]] != -1:
        out.append(parent[out[-1]])
    return out


def _find_hole(g: Graph) -> Optional[frozenset[int]]:
    """An induced cycle of length >= 4, or None (graph is chordal)."""
    n = g.n
    for v in range(n):
        nb = g.adj[v]
        for i, x in enumerate(nb):
            for y in nb[i + 1 :]:
                if g.has_edge(x, y):
                    continue
                allowed = (g.full_mask & ~g.adj_bits[v] & ~(1 << v)) | (1 << x) | (1 << y)
                path = _shortest_path(g, x, y, allowed)
                if path is not None:
                    return frozenset([v] + path)
    return None


def _shortest_path(g: Graph, s: int, t: int, allowed: int) -> Optional[list[int]]:
    if not (allowed >> s & 1 and allowed >> t & 1):
        return None
    parent = {s: -1}
    queue = [s]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if u == t:
            out = [t]
            while parent[out[-1]] != -1:
                out.append(parent[out[-1]])
            return list(reversed(out))
        for v in bits(g.adj_bits[u] & allowed):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return None


# ---------------------------------------------------------------------
# split obstructions


def _find_2k2(g: Graph, mask: int) -> Optional[frozenset[int]]:
    edges = [(u, v) for u, v in g.edges() if mask >> u & 1 and mask >> v & 1]
    for i, (a, b) in enumerate(edges):
        blocked = g.adj_bits[a] | g.adj_bits[b] | (1 << a) | (1 << b)
        for c, d in edges[i + 1 :]:
            if not (blocked >> c & 1) and not (blocked >> d & 1):
                return frozenset((a, b, c, d))
    return None


def _find_c4(g: Graph, mask: int) -> Optional[frozenset[int]]:
    for u in bits(mask):
        for v in bits(mask & ~((1 << (u + 1)) - 1)):
            if g.has_edge(u, v):
                continue
            common = g.adj_bits[u] & g.adj_bits[v] & mask
            for a in bits(common):
                rest = common & ~g.adj_bits[a] & ~((1 << (a + 1)) - 1)
                if rest:
                    b = (rest & -rest).bit_length() - 1
                    return frozenset((u, v, a, b))
    return None


def _find_c5(g: Graph, mask: int) -> Optional[frozenset[int]]:
    for a in bits(mask):
        for b in bits(g.adj_bits[a] & mask):
            for c in bits(g.adj_bits[b] & mask & ~g.adj_bits[a] & ~(1 << a)):
                seen_ab = g.adj_bits[a] | g.adj_bits[b] | (1 << a) | (1 << b)
                for d in bits(g.adj_bits[c] & mask & ~seen_ab):
                    es = g.adj_bits[d] & g.adj_bits[a] & mask
                    es &= ~g.adj_bits[b] & ~g.adj_bits[c] & ~(1 << b) & ~(1 << c)
                    if es:
                        e = (es & -es).bit_length() - 1
                        return frozenset((a, b, c, d, e))
    return None


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
# chordality via maximum cardinality search


def mcs_order(g: Graph) -> tuple[int, ...]:
    """Maximum-cardinality-search ordering; reversed it is a candidate PEO."""
    n = g.n
    weight = [0] * n
    picked = [False] * n
    order = []
    for _ in range(n):
        v = max(
            (u for u in range(n) if not picked[u]),
            key=lambda u: (weight[u], -u),
        )
        picked[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not picked[u]:
                weight[u] += 1
    return tuple(reversed(order))


def is_perfect_elimination(g: Graph, peo: tuple[int, ...]) -> bool:
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        p = min(later, key=lambda u: pos[u])
        for u in later:
            if u != p and not g.has_edge(u, p):
                return False
    return True


# ---------------------------------------------------------------------
# recognizers


def _try_split_partition(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Hammer-Simeone degree test; returns (clique, independent set)."""
    n = g.n
    if n == 0:
        return frozenset(), frozenset()
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
    bipartite)."""
    colors = [0] * g.n
    for s in range(g.n):
        if colors[s]:
            continue
        colors[s] = 1
        queue = [s]
        for u in queue:
            for v in g.adj[u]:
                if not colors[v]:
                    colors[v] = 3 - colors[u]
                    queue.append(v)
                elif colors[v] == colors[u]:
                    return None
    return colors


Checker = Callable[[Graph, str], Recognition]  # (g, class name) -> verdict


def _pattern_free(kind: str, find: Callable[[Graph], object]) -> Checker:
    """A class defined by one forbidden pattern, with no structure."""

    def check(g: Graph, cls: str) -> Recognition:
        w = find(g)
        if w is None:
            return Recognition(cls, True)
        return Recognition(cls, False, frozenset(w), kind)

    return check


def _on_complement(base: str, kind: str) -> Checker:
    """The complement class of ``base``: the complement's verdict and
    structure, its witness renamed to ``kind``."""

    def check(g: Graph, cls: str) -> Recognition:
        inner = recognize(g.complement(), base)
        return replace(inner, cls=cls, witness_kind=None if inner.member else kind)

    return check


def _bipartite(g: Graph, cls: str) -> Recognition:
    colors = two_coloring(g)
    if colors is None:
        return Recognition(cls, False, frozenset(_find_cycle(g, odd_only=True)), "odd-cycle")
    sides = tuple(frozenset(v for v in range(g.n) if colors[v] == c) for c in (1, 2))
    return Recognition(cls, True, structure=sides)


def _cluster(g: Graph, cls: str) -> Recognition:
    p3 = _find_p3(g, g.full_mask)
    if p3 is not None:
        return Recognition(cls, False, p3, "P3")
    return Recognition(cls, True, structure=tuple(g.connected_components()))


def _cograph(g: Graph, cls: str) -> Recognition:
    tree = build_cotree(g)
    if isinstance(tree, frozenset):
        return Recognition(cls, False, tree, "P4")
    return Recognition(cls, True, structure=tree)


def _split(g: Graph, cls: str) -> Recognition:
    part = _try_split_partition(g)
    if part is not None:
        return Recognition(cls, True, structure=part)
    for finder, kind in ((_find_2k2, "2K2"), (_find_c4, "C4"), (_find_c5, "C5")):
        w = finder(g, g.full_mask)
        if w is not None:
            return Recognition(cls, False, w, kind)
    raise AssertionError("non-split graph without a 2K2/C4/C5 witness")


def _chordal(g: Graph, cls: str) -> Recognition:
    peo = mcs_order(g)
    if is_perfect_elimination(g, peo):
        return Recognition(cls, True, structure=peo)
    return Recognition(cls, False, _find_hole(g), "hole")


_CHECKERS: dict[str, Checker] = {
    "edgeless": _pattern_free("K2", lambda g: next(g.edges(), None)),
    "forest": _pattern_free("cycle", lambda g: _find_cycle(g, odd_only=False)),
    "bipartite": _bipartite,
    "cluster": _cluster,
    "cocluster": _on_complement("cluster", "co-P3"),
    "cograph": _cograph,
    "split": _split,
    "chordal": _chordal,
    "cochordal": _on_complement("chordal", "co-hole"),
    "triangle-free": _pattern_free("triangle", lambda g: first_triangle(g.adj_bits, g.full_mask)),
    "co-triangle-free": _on_complement("triangle-free", "K3bar"),
    "p3k1-free": _pattern_free("P3+K1", lambda g: _find_p3k1(g, g.full_mask)),
}

CLASSES = tuple(_CHECKERS)


def recognize(g: Graph, cls: str) -> Recognition:
    """Class membership plus a validating witness.

    Verdicts agree with exhaustive forbidden-subgraph search (this is
    property-tested at small sizes).
    """
    check = _CHECKERS.get(cls)
    if check is None:
        raise ValueError(f"unsupported class {cls!r}")
    return check(g, cls)
