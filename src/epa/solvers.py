"""Exact polynomial solvers on tractable classes and approximation
subroutines consumed by the additive-guarantee algorithms.

Contracts (all oracle-tested at small sizes):

* ``wvc_forest`` / ``wvc_cograph`` / ``wvc_cluster`` are exact on their
  classes and raise :class:`~epa.recognize.NotInClassError` otherwise.
  ``cotree_independent_set`` is the cograph DP on a given cotree, in
  the ids of its leaves.
* ``lp_half_integral_vc`` returns an optimal half-integral solution of
  the vertex cover LP: the least minimum s-t cut of the bipartite double
  cover, found on the adjacency masks in the exact capacities it is
  given, so it does not depend on which maximum flow the search finds.
* ``max_matching`` is a maximum matching in a general graph (blossom
  contraction).
* ``fvs_2approx`` returns an inclusion-minimal feedback vertex set of
  weight at most twice the optimum.
* ``cvc_savage`` returns a connected vertex cover of size at most
  OPT_CVC + OPT_VC (internal vertices of a DFS tree); ``savage_mask``
  is the same DFS on a clique contraction G<Y>, with Y kept virtual.
* ``vc_2approx`` returns a vertex cover of weight at most twice the
  optimum (local ratio on edges).
* ``wvc_forest``, ``lp_half_integral_vc``, ``max_matching``,
  ``fvs_2approx`` and ``vc_2approx`` solve G[within] for an optional
  vertex mask ``within`` (default: all of G), in G's ids.  The LP's
  values outside ``within`` are 0, and its v0, v_half and v1 partition
  ``within``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import Graph, Weights, bits, connected, mask_covers, mask_of
from .recognize import Cotree, NotInClassError, find_induced, recognize

Matching = frozenset[tuple[int, int]]


# ---------------------------------------------------------------------
# exact solvers on tractable classes


def wvc_forest(g: Graph, w: Weights, within: Optional[int] = None) -> frozenset[int]:
    """Minimum-weight vertex cover of the forest G[within] (tree DP)."""
    mask = g.full_mask if within is None else within
    cycle = find_induced(g, "cycle", mask)
    if cycle is not None:
        raise NotInClassError("forest", cycle)
    n = g.n
    adj = g.adj_bits
    # each tree breadth first from its lowest vertex, parents before children
    order: list[int] = []
    parent = [-1] * n
    seen = g.full_mask & ~mask
    for root in bits(mask):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        queue = [root]
        for v in queue:
            kids = adj[v] & ~seen
            seen |= kids
            for u in bits(kids):
                parent[u] = v
                queue.append(u)
        order += queue
    dp_in = list(w)               # best cover of v's subtree holding v
    dp_out = [0] * n              # and not holding v
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            dp_in[p] += min(dp_in[v], dp_out[v])
            dp_out[p] += dp_in[v]
    # reconstruct top-down: v is taken when its parent is not, or when cheaper
    take = [False] * n
    for v in order:
        p = parent[v]
        take[v] = True if p >= 0 and not take[p] else dp_in[v] < dp_out[v]
    return frozenset(v for v in order if take[v])


def wvc_cluster(g: Graph, w: Weights) -> frozenset[int]:
    """Minimum-weight vertex cover of a cluster graph: every vertex but
    the first heaviest of each clique, by the cograph DP (a clique's
    cotree joins its vertices in id order)."""
    rec = recognize(g, "cluster")
    if not rec.member:
        raise NotInClassError("cluster", rec.witness)
    return wvc_cograph(g, w)


def wvc_cograph(g: Graph, w: Weights) -> frozenset[int]:
    """Minimum-weight vertex cover of a cograph by cotree DP: the
    vertices outside a heaviest independent set."""
    rec = recognize(g, "cograph")
    if not rec.member:
        raise NotInClassError("cograph", rec.witness)
    return frozenset(bits(g.full_mask & ~cotree_independent_set(rec.structure, w)))


def cotree_independent_set(tree: Cotree, w: Weights) -> int:
    """Mask of a heaviest independent set of the cograph that ``tree``
    denotes, its leaves ids into ``w``.

    A node's result is a heaviest independent set of its leaves as
    (weight, mask): a union takes all its children's sets, a join its
    first heaviest child's.
    """
    def best(kind: str, vertex: Optional[int], subs: list) -> tuple:
        if kind == "leaf":
            return w[vertex], 1 << vertex
        if kind == "join":
            return max(subs, key=lambda sub: sub[0])
        weight, mask = 0, 0
        for sub_weight, sub_mask in subs:
            weight += sub_weight
            mask |= sub_mask
        return weight, mask

    return tree.fold(best)[1]


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


def lp_half_integral_vc(
    g: Graph, w: Optional[Weights] = None, within: Optional[int] = None
) -> HalfIntegralLP:
    """Optimal half-integral LP solution of G[within] by double-cover min cut.

    Left copies u hang off the source with capacity w(u), right copies v'
    feed the sink with capacity w(v), and each edge {u,v} gives uncapped
    arcs u -> v' and v -> u'.  A minimum cut is a minimum-weight vertex
    cover of the double cover, and halving its indicator gives the LP
    optimum.

    Dinic's phases run on the adjacency masks, where the uncapped arcs
    stay implicit.  Each phase builds the level masks breadth first and
    walks them with an explicit path, clearing dead ends from their
    level.  The last search, which misses the sink, sees the least
    minimum cut, whichever maximum flow was found.
    """
    n = g.n
    adj = g.adj_bits
    mask = g.full_mask if within is None else within
    src = [1] * n if w is None else list(w)     # residual capacity of s -> u
    snk = list(src)                         # residual capacity of v' -> t
    open_src = open_snk = mask_of(u for u in bits(mask) if src[u])
    flows: dict[tuple[int, int], int] = {}  # positive flow on u -> v'
    back = [0] * n                          # back[v]: the u with flow on u -> v'
    total = 0
    while True:
        # alternate left and right levels up to the first right level
        # that meets the sink, cut down to the vertices that do
        levels: list[int] = []
        left = seen_left = open_src
        seen_right = 0
        while left:
            right = 0
            for u in bits(left):
                right |= adj[u]
            right &= mask & ~seen_right
            seen_right |= right
            if right & open_snk:
                levels += (left, right & open_snk)
                break
            levels += (left, right)
            left = 0
            for v in bits(right):
                left |= back[v]
            left &= ~seen_left
            seen_left |= left
        else:
            break       # the sink is out of reach; the seen masks are the cut
        # blocking flow: path[i] is taken from levels[i]
        path: list[int] = []
        while levels[0]:
            k = len(path)
            if k == len(levels):
                u, v = path[0], path[-1]
                push = min(src[u], snk[v], *(flows[path[j], path[j - 1]] for j in range(2, k, 2)))
                total += push
                src[u] -= push
                snk[v] -= push
                if not src[u]:
                    open_src &= ~(1 << u)
                    levels[0] &= ~(1 << u)
                if not snk[v]:
                    open_snk &= ~(1 << v)
                    levels[-1] &= ~(1 << v)
                # back up to the tail of the first saturated arc
                cut = 0 if not src[u] else k - 1
                for j in range(0, k, 2):
                    u, v = path[j], path[j + 1]
                    flows[u, v] = flows.get((u, v), 0) + push
                    back[v] |= 1 << u
                    if j:
                        v = path[j - 1]
                        flows[u, v] -= push
                        if not flows[u, v]:
                            del flows[u, v]
                            back[v] &= ~(1 << u)
                            cut = min(cut, j)
                del path[cut:]
                continue
            cand = levels[k]
            if k:
                cand &= (adj if k % 2 else back)[path[-1]]
            if cand:
                path.append((cand & -cand).bit_length() - 1)
            else:
                levels[k - 1] &= ~(1 << path.pop())
    # a left copy off the source side and a right copy on it are cut
    halves = [((mask & ~seen_left) >> u & 1) + (seen_right >> u & 1) for u in range(n)]
    return HalfIntegralLP(
        values=tuple(Fraction(h, 2) for h in halves),
        objective=Fraction(total, 2),
        v0=frozenset(u for u in bits(mask) if halves[u] == 0),
        v_half=frozenset(u for u in bits(mask) if halves[u] == 1),
        v1=frozenset(u for u in bits(mask) if halves[u] == 2),
    )


# ---------------------------------------------------------------------
# maximum matching (blossom contraction)


def max_matching(g: Graph, within: Optional[int] = None) -> Matching:
    """Maximum cardinality matching of G[within] (default: all of G).

    Alternating-tree search with blossom contraction; O(n^3) and honest
    about odd components, which bipartite augmenting paths are not.
    """
    n = g.n
    adj = g.adj_bits
    mask = g.full_mask if within is None else within
    verts = list(bits(mask))
    match = [-1] * n
    free = mask
    for u in verts:                         # greedy warm start
        nb = adj[u] & free
        if free >> u & 1 and nb:
            v = (nb & -nb).bit_length() - 1
            match[u] = v
            match[v] = u
            free ^= (1 << u) | (1 << v)

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
            for to in bits(adj[v] & mask):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in verts:
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

    for v in verts:
        if match[v] == -1:
            find_path(v)
    return frozenset((u, match[u]) for u in verts if match[u] > u)


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


def fvs_2approx(g: Graph, w: Weights, within: Optional[int] = None) -> frozenset[int]:
    """Inclusion-minimal feedback vertex set of G[within] of weight <= 2 * OPT.

    Local-ratio scheme: clean degree <= 1 vertices, reduce uniformly on a
    semidisjoint cycle when one exists and proportionally to degree
    otherwise, harvest zero-weight vertices, then reverse-delete.
    """
    mask = g.full_mask if within is None else within
    wp = list(w)
    alive = mask
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
            x, d = 1, 0     # x/d: the least weight per degree (1/0 is above all)
            for v in bits(alive):
                if wp[v] * d < x * deg(v):
                    x, d = wp[v], deg(v)
            for v in bits(alive):       # d (w - x/d deg): same choices, in ints
                wp[v] = wp[v] * d - x * deg(v)

    # reverse delete for inclusion-minimality
    kept = mask_of(picked)
    for v in reversed(picked):
        trial = kept & ~(1 << v)
        if _is_forest(g, mask & ~trial):
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
    return frozenset(bits(savage_mask(g.adj_bits, g.full_mask, 0)))


def savage_mask(adj: Sequence[int], within: int, ymask: int) -> int:
    """Mask of Savage's cover of G<Y>, lifted back to G, for the
    connected graph G with adjacency masks ``adj`` on the vertex mask
    ``within`` and a connected vertex set ``ymask`` (0 for G itself).

    G<Y> contracts Y to one vertex placed after every kept vertex and
    followed by a pendant leaf (see ``graphs.contraction_rows``).
    The DFS runs on G's masks with Y as one virtual vertex in that place.
    It visits the lowest unvisited neighbour first, and it enters Y only
    when no kept neighbour is left.  The leaf always hangs below Y, so Y
    is internal and nothing else changes.  The root prune test runs on G
    itself.  The pruned set holds Y, and it covers and connects G exactly
    when its contraction covers and connects G<Y>, because Y is connected.
    """
    kept = within & ~ymask
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
    if pruned and mask_covers(adj, pruned, within) and connected(adj, pruned):
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
    adj = g.adj_bits
    wp = list(w)
    cover: set[int] = set()
    for u in bits(mask):
        for v in bits(adj[u] & mask >> (u + 1) << (u + 1)):
            if u in cover or v in cover:
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
