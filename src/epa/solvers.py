"""Exact polynomial solvers on tractable classes and approximation
subroutines consumed by the additive-guarantee algorithms.

Contracts (all oracle-tested at small sizes):

* ``wvc_forest`` / ``wvc_cograph`` / ``wvc_cluster`` are exact on their
  classes and raise :class:`~epa.recognize.NotInClassError` otherwise.
* ``lp_half_integral_vc`` returns an optimal half-integral solution of
  the vertex cover LP (computed by a minimum s-t cut on the bipartite
  double cover, so it is exact with rational weights).
* ``max_matching`` is a maximum matching in a general graph (blossom
  contraction).
* ``fvs_2approx`` returns an inclusion-minimal feedback vertex set of
  weight at most twice the optimum.
* ``cvc_savage`` returns a connected vertex cover of size at most
  OPT_CVC + OPT_VC (internal vertices of a DFS tree); ``savage_mask``
  is the same DFS on a clique contraction G<Y>, with Y kept virtual.
* ``vc_2approx`` returns a vertex cover of weight at most twice the
  optimum (local ratio on edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .graphs import Graph, Weights, bits, mask_of, unit_weights
from .recognize import Cotree, NotInClassError, build_cotree, find_induced, _find_cycle

Matching = frozenset[tuple[int, int]]


# ---------------------------------------------------------------------
# exact solvers on tractable classes


def wvc_forest(g: Graph, w: Weights) -> frozenset[int]:
    """Minimum-weight vertex cover of a forest (tree DP)."""
    cyc = _find_cycle(g, odd_only=False)
    if cyc is not None:
        raise NotInClassError("forest", frozenset(cyc))
    n = g.n
    dp_in = [Fraction(0)] * n   # v in the cover
    dp_out = [Fraction(0)] * n  # v not in the cover
    parent = [-1] * n
    cover: set[int] = set()
    visited = [False] * n
    for root in range(n):
        if visited[root]:
            continue
        # iterative post-order
        order = []
        stack = [root]
        visited[root] = True
        while stack:
            v = stack.pop()
            order.append(v)
            for u in g.adj[v]:
                if not visited[u]:
                    visited[u] = True
                    parent[u] = v
                    stack.append(u)
        for v in reversed(order):
            dp_in[v] = w[v]
            dp_out[v] = Fraction(0)
            for u in g.adj[v]:
                if parent[u] == v:
                    dp_in[v] += min(dp_in[u], dp_out[u])
                    dp_out[v] += dp_in[u]
        # reconstruct top-down
        take = [False] * n
        take[root] = dp_in[root] < dp_out[root]
        for v in order:
            if v != root:
                p = parent[v]
                take[v] = True if not take[p] else dp_in[v] < dp_out[v]
            if take[v]:
                cover.add(v)
    return frozenset(cover)


def wvc_cluster(g: Graph, w: Weights) -> frozenset[int]:
    """Minimum-weight vertex cover of a cluster graph: drop one heaviest
    vertex per clique."""
    p3 = find_induced(g, "P3")
    if p3 is not None:
        raise NotInClassError("cluster", p3)
    cover: set[int] = set()
    for comp in g.connected_components():
        keep_out = max(sorted(comp), key=lambda v: (w[v], -v))
        cover.update(comp - {keep_out})
    return frozenset(cover)


def wvc_cograph(g: Graph, w: Weights) -> frozenset[int]:
    """Minimum-weight vertex cover of a cograph by cotree DP: the
    vertices outside a heaviest independent set."""
    tree = build_cotree(g)
    if isinstance(tree, frozenset):
        raise NotInClassError("cograph", tree)
    # Post-order with an explicit stack (a cotree can be about n deep).
    # A node's result is a heaviest independent set of its leaves as
    # (weight, vertices): a union takes all its children's sets, a join
    # its first heaviest child's.
    stack: list[tuple[Cotree, list]] = [(tree, [])]
    while True:
        node, subs = stack[-1]
        if node.kind == "leaf":
            res = (w[node.vertex], [node.vertex])
        elif len(subs) < len(node.children):
            stack.append((node.children[len(subs)], []))
            continue
        elif node.kind == "union":
            res = (sum(weight for weight, _ in subs), [v for _, vs in subs for v in vs])
        else:
            res = max(subs, key=lambda sub: sub[0])
        stack.pop()
        if not stack:
            return frozenset(range(g.n)).difference(res[1])
        stack[-1][1].append(res)


# ---------------------------------------------------------------------
# half-integral LP via the bipartite double cover


@dataclass(frozen=True)
class HalfIntegralLP:
    """Optimal half-integral solution of the vertex cover LP."""

    values: tuple[Fraction, ...]
    objective: Fraction
    v0: frozenset[int]
    v_half: frozenset[int]
    v1: frozenset[int]


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def maxflow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            head = 0
            while head < len(queue):
                u = queue[head]
                head += 1
                for e in self.head[u]:
                    if self.cap[e] > 0 and level[self.to[e]] == -1:
                        level[self.to[e]] = level[u] + 1
                        queue.append(self.to[e])
            if level[t] == -1:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                got = dfs(s, 1 << 62)
                if not got:
                    break
                flow += got

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def lp_half_integral_vc(g: Graph, w: Optional[Weights] = None) -> HalfIntegralLP:
    """Optimal half-integral LP solution by min cut on the double cover.

    Left copies hang off the source with capacity w(u), right copies feed
    the sink with capacity w(v); each edge {u,v} contributes two infinite
    arcs.  A minimum cut is a minimum-weight vertex cover of the double
    cover, and halving its indicator gives the LP optimum.
    """
    if w is None:
        w = unit_weights(g.n)
    n = g.n
    scale = lcm(*(f.denominator for f in w)) if n else 1
    wi = [int(f * scale) for f in w]
    s, t = 2 * n, 2 * n + 1
    net = _Dinic(2 * n + 2)
    inf = sum(wi) + 1
    for u in range(n):
        net.add(s, u, wi[u])
        net.add(n + u, t, wi[u])
    for u, v in g.edges():
        net.add(u, n + v, inf)
        net.add(v, n + u, inf)
    flow = net.maxflow(s, t)
    reach = net.reachable(s)
    halves = [0] * n  # x in half-units
    for u in range(n):
        if u not in reach:          # source arc cut: left copy in cover
            halves[u] += 1
        if (n + u) in reach:        # sink arc cut: right copy in cover
            halves[u] += 1
    values = tuple(Fraction(h, 2) for h in halves)
    objective = Fraction(flow, 2 * scale)
    return HalfIntegralLP(
        values=values,
        objective=objective,
        v0=frozenset(u for u in range(n) if halves[u] == 0),
        v_half=frozenset(u for u in range(n) if halves[u] == 1),
        v1=frozenset(u for u in range(n) if halves[u] == 2),
    )


# ---------------------------------------------------------------------
# maximum matching (blossom contraction)


def max_matching(g: Graph) -> Matching:
    """Maximum cardinality matching in a general graph.

    Alternating-tree search with blossom contraction; O(n^3) and honest
    about odd components, which bipartite augmenting paths are not.
    """
    n = g.n
    match = [-1] * n
    for u in range(n):                      # greedy warm start
        if match[u] == -1:
            for v in g.adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    def find_path(root: int) -> bool:
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = [root]
        head = 0

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            x = a
            while True:
                x = base[x]
                seen[x] = True
                if match[x] == -1:
                    break
                x = p[match[x]]
            y = b
            while True:
                y = base[y]
                if seen[y]:
                    return y
                y = p[match[y]]

        def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
            while base[v] != b:
                blossom[base[v]] = True
                blossom[base[match[v]]] = True
                p[v] = child
                child = match[v]
                v = p[match[v]]

        while head < len(queue):
            v = queue[head]
            head += 1
            for to in g.adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        cur = to
                        while cur != -1:
                            pv = p[cur]
                            ppv = match[pv]
                            match[cur] = pv
                            match[pv] = cur
                            cur = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return frozenset((u, match[u]) for u in range(n) if match[u] > u)


# ---------------------------------------------------------------------
# feedback vertex set 2-approximation (Becker-Geiger)


def _degree2_cycle(g: Graph, alive: int) -> Optional[list[int]]:
    """A semidisjoint cycle in G[alive]: all vertices but at most one have
    degree exactly 2.  Found by following chains of degree-2 vertices."""

    def deg(v: int) -> int:
        return (g.adj_bits[v] & alive).bit_count()

    for u in bits(alive):
        if deg(u) != 2:
            continue
        sides = []
        closed = None
        for start in bits(g.adj_bits[u] & alive):
            prev, cur = u, start
            side = []
            while deg(cur) == 2 and cur != u:
                side.append(cur)
                nxts = g.adj_bits[cur] & alive & ~(1 << prev)
                prev, cur = cur, (nxts & -nxts).bit_length() - 1
            if cur == u:                     # pure cycle component
                closed = [u] + side
                break
            side.append(cur)                 # attachment vertex (degree != 2)
            sides.append(side)
        if closed is not None:
            return closed
        left, right = sides
        if left[-1] == right[-1]:            # both chain ends meet the same hub
            hub = left[-1]
            return [hub] + list(reversed(left[:-1])) + [u] + right[:-1]
    return None


def fvs_2approx(g: Graph, w: Weights) -> frozenset[int]:
    """Inclusion-minimal feedback vertex set of weight <= 2 * OPT.

    Local-ratio scheme: clean degree <= 1 vertices, reduce uniformly on a
    semidisjoint cycle when one exists and proportionally to degree
    otherwise, harvest zero-weight vertices, then reverse-delete.
    """
    n = g.n
    wp = list(w)
    alive = g.full_mask
    picked: list[int] = []

    def deg(v: int) -> int:
        return (g.adj_bits[v] & alive).bit_count()

    while True:
        # clean vertices that cannot be on a cycle
        changed = True
        while changed:
            changed = False
            for v in bits(alive):
                if deg(v) <= 1:
                    alive &= ~(1 << v)
                    changed = True
        if not alive:
            break
        zeros = [v for v in bits(alive) if wp[v] == 0]
        if zeros:
            for v in zeros:
                picked.append(v)
                alive &= ~(1 << v)
            continue
        cyc = _degree2_cycle(g, alive)
        if cyc is not None:
            gamma = min(wp[v] for v in cyc)
            for v in set(cyc):
                wp[v] -= gamma
        else:
            gamma = min(Fraction(wp[v], deg(v)) for v in bits(alive))
            for v in bits(alive):
                wp[v] -= gamma * deg(v)

    # reverse delete for inclusion-minimality
    kept = mask_of(picked)
    for v in reversed(picked):
        trial = kept & ~(1 << v)
        if _is_forest(g, g.full_mask & ~trial):
            kept = trial
    return frozenset(bits(kept))


def _is_forest(g: Graph, alive: int) -> bool:
    """G[alive] is a forest: its edges number |alive| minus its components."""
    edges = sum((g.adj_bits[v] & alive).bit_count() for v in bits(alive)) // 2
    return edges == alive.bit_count() - len(g.component_masks(alive))


# ---------------------------------------------------------------------
# Savage's connected vertex cover


def cvc_savage(g: Graph) -> frozenset[int]:
    """Internal vertices of a DFS tree: a connected vertex cover of size
    at most OPT_CVC + OPT_VC.  The root is pruned when the rest still
    covers and connects (keeps single-edge graphs feasible)."""
    if not g.is_connected():
        raise ValueError("Savage's algorithm needs a connected graph")
    if g.n <= 1:
        return frozenset()
    return frozenset(bits(savage_mask(g, 0)))


def savage_mask(g: Graph, ymask: int) -> int:
    """Mask of Savage's cover of G<Y>, lifted back to G, for a connected
    G and a connected vertex set ``ymask`` (0 for G itself).

    G<Y> contracts Y to one vertex placed after every kept vertex and
    followed by a pendant leaf (see ``Graph.contract_with_pendant``).
    The DFS runs on G's masks with Y as one virtual vertex in that place.
    It visits the lowest unvisited neighbour first, and it enters Y only
    when no kept neighbour is left.  The leaf always hangs below Y, so Y
    is internal and nothing else changes.  The root prune test runs on G
    itself.  The pruned set holds Y, and it covers and connects G exactly
    when its contraction covers and connects G<Y>, because Y is connected.
    """
    adj = g.adj_bits
    kept = g.full_mask & ~ymask
    if not kept:
        return ymask
    out = 0
    for y in bits(ymask):
        out |= adj[y]
    out &= kept
    root = kept & -kept
    visited = root
    nbrs = adj[root.bit_length() - 1]
    # A vertex is internal exactly when it has an unvisited neighbour
    # as it is visited: the DFS visits that neighbour below it.  So the
    # stack keeps only the neighbour masks of the current path.
    internal = ymask | (root if nbrs else 0)
    stack = []
    while True:
        nb = nbrs & ~visited
        if nb:
            u = nb & kept
            if u:
                u &= -u
                unbrs = adj[u.bit_length() - 1]
            else:
                u, unbrs = ymask, out
            visited |= u
            if unbrs & ~visited:
                internal |= u
            stack.append(nbrs)
            nbrs = unbrs
        elif stack:
            nbrs = stack.pop()
        else:
            break
    pruned = internal & ~root
    if pruned and g.covers(pruned, g.full_mask) and g.component_mask(
        (pruned & -pruned).bit_length() - 1, pruned
    ) == pruned:
        return pruned
    return internal


# ---------------------------------------------------------------------
# weighted vertex cover 2-approximation (local ratio on edges)


def vc_2approx(
    g: Graph, w: Optional[Weights] = None, within: Optional[int] = None
) -> frozenset[int]:
    """Vertex cover of G[within] (default: all of G) of weight at most
    twice the optimum; edges are reduced in lexicographic order."""
    mask = g.full_mask if within is None else within
    if w is None:
        return frozenset(bits(matching_cover(g.adj_bits, mask, 0)))
    wp = list(w)
    cover: set[int] = set()
    for u, v in g.edges():
        if u in cover or v in cover or not (mask >> u & mask >> v & 1):
            continue
        gamma = min(wp[u], wp[v])
        wp[u] -= gamma
        wp[v] -= gamma
        if wp[u] == 0:
            cover.add(u)
        if wp[v] == 0:
            cover.add(v)
    return frozenset(cover)


def matching_cover(
    adj: Sequence[int],
    free: int,
    cover: int,
    trail: Optional[list] = None,
    limit: Optional[int] = None,
) -> int:
    """``cover`` joined with both ends of a greedy maximal matching of the
    free vertices: the unit-weight local ratio on edges in lexicographic
    order, edge for edge, since each reduced edge zeroes both ends.  A
    vertex still free when its turn comes has only higher free
    neighbours; it is matched to the lowest.  With ``trail`` given, the
    state (free, cover) before each step is appended to it.  With
    ``limit`` given, the run stops before the first step at which the
    cover holds ``limit`` vertices or more, after recording that state."""
    room = free.bit_count() + 1 if limit is None else limit - cover.bit_count()
    while free:
        if trail is not None:
            trail.append((free, cover))
        if room <= 0:
            break
        low = free & -free
        free ^= low
        nbrs = adj[low.bit_length() - 1] & free
        if nbrs:
            mate = nbrs & -nbrs
            cover |= low | mate
            free ^= mate
            room -= 2
    return cover
