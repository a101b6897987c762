from fractions import Fraction
from itertools import combinations

import pytest

from epa.certify import induces_pattern, is_clique, is_independent_set, is_proper_coloring
from epa.generator import GeneratorSpec, SplitMix64, generate
from epa.graphs import Graph
from epa.recognize import (
    CLASSES,
    Cotree,
    _chain,
    _cliques_within,
    _find_cycle,
    _find_p4,
    _shrink_to_chordless,
    build_cotree,
    find_induced,
    is_perfect_elimination,
    recognize,
    two_coloring,
)
from conftest import brute_member, corpus
from small_graphs import complete_graph, cycle_graph, disjoint_union, path_graph, star_graph


def validate_recognition(g: Graph, rec) -> None:
    """Witness checking, never trusting the producer."""
    if not rec.member:
        assert rec.witness is not None
        assert induces_pattern(g, rec.witness, rec.witness_kind)
        return
    if rec.cls == "bipartite":
        left, right = rec.structure
        assert left | right == set(range(g.n)) and not left & right
        assert is_independent_set(g, left) and is_independent_set(g, right)
    elif rec.cls in ("cluster", "cocluster"):
        base = g if rec.cls == "cluster" else g.complement()
        parts = rec.structure
        assert sorted(v for p in parts for v in p) == list(range(g.n))
        for p in parts:
            assert is_clique(base, p)
        for a, b in combinations(parts, 2):
            assert not any(base.has_edge(u, v) for u in a for v in b)
    elif rec.cls == "split":
        cl, ind = rec.structure
        assert cl | ind == set(range(g.n)) and not cl & ind
        assert is_clique(g, cl) and is_independent_set(g, ind)
    elif rec.cls in ("chordal", "cochordal"):
        base = g if rec.cls == "chordal" else g.complement()
        peo = rec.structure
        assert sorted(peo) == list(range(g.n))
        pos = {v: i for i, v in enumerate(peo)}
        for v in peo:
            later = [u for u in base.adj[v] if pos[u] > pos[v]]
            assert is_clique(base, later)
    elif rec.cls == "cograph":
        validate_cotree(g, rec.structure)


def validate_cotree(g: Graph, tree: Cotree) -> None:
    vs, es = tree.evaluate()
    assert sorted(vs) == list(range(g.n))
    assert Graph(g.n, es) == g
    # union and join alternate along every root-to-leaf path
    def walk(node, parent_kind):
        if node.kind == "leaf":
            return
        assert node.kind != parent_kind
        for c in node.children:
            walk(c, node.kind)

    walk(tree, None)


def test_recognize_agrees_with_definitions():
    for g in corpus(70, 1, 8, seed0=700):
        for cls in CLASSES:
            rec = recognize(g, cls)
            assert rec.member == brute_member(g, cls), (cls, sorted(g.edges()))
            validate_recognition(g, rec)


def test_recognize_named_examples():
    assert not recognize(path_graph(3), "cluster").member
    assert recognize(path_graph(3), "cluster").witness == frozenset({0, 1, 2})
    c4 = cycle_graph(4)
    rec = recognize(c4, "chordal")
    assert not rec.member and rec.witness == frozenset({0, 1, 2, 3})
    assert recognize(cycle_graph(5), "p3k1-free").member
    rec = recognize(star_graph(3), "split")
    assert rec.member
    cl, ind = rec.structure
    assert 0 in cl and len(ind) >= 2


def test_c5_every_4_subset_is_p4():
    c5 = cycle_graph(5)
    for sub in combinations(range(5), 4):
        assert induces_pattern(c5, sub, "P4")


def test_complement_duality():
    pairs = (("cocluster", "cluster", "co-P3"), ("cochordal", "chordal", "co-hole"),
             ("co-triangle-free", "triangle-free", "K3bar"))
    for g in corpus(40, 1, 8, seed0=800):
        co = g.complement()
        for co_cls, cls, kind in pairs:
            got, inner = recognize(g, co_cls), recognize(co, cls)
            assert got.member == inner.member and got.witness == inner.witness
            assert got.witness_kind == (None if inner.member else kind)


def test_unsupported_tag():
    with pytest.raises(ValueError):
        recognize(path_graph(2), "interval")


def test_build_cotree_examples():
    tree = build_cotree(complete_graph(3))
    assert isinstance(tree, Cotree) and tree.kind == "join" and len(tree.children) == 3

    assert build_cotree(path_graph(4)) == frozenset({0, 1, 2, 3})

    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    tree = build_cotree(two_k2)
    assert isinstance(tree, Cotree)
    validate_cotree(two_k2, tree)


def test_build_cotree_corpus():
    for g in corpus(50, 1, 9, seed0=900):
        tree = build_cotree(g)
        if isinstance(tree, frozenset):
            assert induces_pattern(g, tree, "P4")
        else:
            validate_cotree(g, tree)


def brute_find(g: Graph, pattern: str, size: int):
    for sub in combinations(range(g.n), size):
        if induces_pattern(g, sub, pattern):
            return frozenset(sub)
    return None


# The kinds that only recognition searched before, with the sizes a
# brute-force search tries.
MASK_KINDS = {"K2": (2,), "cycle": range(3, 9), "odd-cycle": (3, 5, 7), "hole": range(4, 9),
              "2K2": (4,), "C4": (4,), "C5": (5,)}


def test_find_induced_matches_bruteforce():
    """The five pattern kinds on whole graphs; the seven other kinds on
    n <= 8 under the full and a random vertex mask: None exactly when no
    subset of the mask induces the kind, and otherwise a witness inside
    the mask that induces it."""
    sizes = {"P3": 3, "co-P3": 3, "P4": 4, "triangle": 3, "P3+K1": 4}
    for g in corpus(60, 1, 8, seed0=1000):
        for pattern, size in sizes.items():
            got = find_induced(g, pattern)
            expect = brute_find(g, pattern, size)
            assert (got is None) == (expect is None), (pattern, sorted(g.edges()))
            if got is not None:
                assert induces_pattern(g, got, pattern)
    for i, g in enumerate(corpus(120, 1, 8, seed0=1100)):
        rng = SplitMix64(1100 + i)
        for within in (g.full_mask, sum(1 << v for v in range(g.n) if rng.below(4))):
            inside = [v for v in range(g.n) if within >> v & 1]
            for kind, lengths in MASK_KINDS.items():
                got = find_induced(g, kind, within)
                exists = any(induces_pattern(g, sub, kind)
                             for k in lengths for sub in combinations(inside, k))
                assert (got is not None) == exists, (kind, within, sorted(g.edges()))
                if got is not None:
                    assert got <= set(inside) and induces_pattern(g, got, kind)


def test_cliques_within_matches_bruteforce():
    """On every graph with n <= 5 and every vertex mask, the clique
    partition check holds exactly when no triple of the mask spans two
    edges (a P3), or with ``co`` exactly one edge (a co-P3)."""
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            for mask in range(1 << n):
                edge_counts = {
                    sum(g.has_edge(x, y) for x, y in combinations(t, 2))
                    for t in combinations([v for v in range(n) if mask >> v & 1], 3)
                }
                assert _cliques_within(g.adj_bits, mask, False) == (2 not in edge_counts)
                assert _cliques_within(g.adj_bits, mask, True) == (1 not in edge_counts)


def test_find_induced_named_examples():
    paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert induces_pattern(paw, find_induced(paw, "triangle"), "triangle")
    assert find_induced(cycle_graph(4), "triangle") is None
    got = find_induced(cycle_graph(5), "P4")
    assert induces_pattern(cycle_graph(5), got, "P4")


def test_perfect_elimination_checker():
    peo = recognize(path_graph(5), "chordal").structure
    assert is_perfect_elimination(path_graph(5), peo)
    assert not is_perfect_elimination(cycle_graph(4), (0, 1, 2, 3))


def test_structural_witnesses_on_generated_members():
    # random graphs rarely land in the richer classes, so drive the
    # member path with generated instances and validate every structure
    from fractions import Fraction

    from epa.generator import GeneratorSpec, generate

    for cls in ("cluster", "cocluster", "bipartite", "split", "cograph", "chordal", "cochordal"):
        for seed in range(12):
            g, _ = generate(GeneratorSpec(cls, 9 + seed % 4, 0, Fraction(1, 2), 7500 + seed))
            rec = recognize(g, cls)
            assert rec.member
            validate_recognition(g, rec)


# -- reference copies of the recursive and every-start versions ----------


def _find_cycle_every_start(g: Graph, odd_only: bool):
    """The cycle search as it was: a BFS from every start vertex."""
    n = g.n
    for s in range(n):
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
    return None


def _build_cotree_recursive(g: Graph):
    co = g.complement()

    def rec(mask: int):
        if mask & (mask - 1) == 0:
            return Cotree("leaf", vertex=mask.bit_length() - 1)
        for kind, parts in (("union", g.component_masks(mask)), ("join", co.component_masks(mask))):
            if len(parts) > 1:
                kids = []
                for c in parts:
                    sub = rec(c)
                    if isinstance(sub, frozenset):
                        return sub
                    kids.append(sub)
                return Cotree(kind, children=tuple(kids))
        return _find_p4(g, mask)

    if g.n == 0:
        return Cotree("union", children=())
    return rec(g.full_mask)


def _evaluate_recursive(t: Cotree):
    if t.kind == "leaf":
        return [t.vertex], []
    vs, es, parts = [], [], []
    for c in t.children:
        cv, ce = _evaluate_recursive(c)
        vs.extend(cv)
        es.extend(ce)
        parts.append(cv)
    if t.kind == "join":
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                es.extend((u, v) if u < v else (v, u) for u in a for v in b)
    return vs, es


def _cycle_corpus():
    graphs = list(corpus(40, 0, 12, seed0=9100))
    for seed in range(12):
        for cls in ("forest", "bipartite"):
            graphs.append(generate(GeneratorSpec(cls, 6 + seed, 0, Fraction(1, 2), 9200 + seed))[0])
    forest = generate(GeneratorSpec("forest", 8, 0, Fraction(1, 2), 9300))[0]
    for extra in (cycle_graph(4), cycle_graph(5), complete_graph(4)):
        graphs += [disjoint_union(forest, extra), disjoint_union(extra, forest)]
    return graphs


def _oracle_bfs_reference(g: Graph) -> list[int]:
    """The bipartite coloring oracle's BFS as it was: no conflict check."""
    colors = [0] * g.n
    for s in range(g.n):
        if colors[s]:
            continue
        colors[s] = 1
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in g.adj[u]:
                if not colors[v]:
                    colors[v] = 3 - colors[u]
                    queue.append(v)
    return colors


def test_two_coloring_matches_oracle_bfs_reference():
    for g in _cycle_corpus():
        expect = _oracle_bfs_reference(g)
        if is_proper_coloring(g, expect):
            assert two_coloring(g) == expect
        else:
            assert two_coloring(g) is None


def test_find_cycle_matches_every_start_reference():
    for g in _cycle_corpus():
        for odd_only in (False, True):
            assert _find_cycle(g, g.full_mask, odd_only) == _find_cycle_every_start(g, odd_only)


def test_cotree_matches_recursive_reference():
    graphs = list(corpus(40, 0, 10, seed0=9400))
    graphs += [generate(GeneratorSpec("cograph", n, 0, Fraction(1, 2), 9500 + n))[0] for n in range(1, 25)]
    for g in graphs:
        tree = build_cotree(g)
        assert tree == _build_cotree_recursive(g)
        if isinstance(tree, Cotree):
            vs, es = tree.evaluate()
            assert (vs, es) == _evaluate_recursive(tree)
            assert tree.leaves() == vs


def _deepest_path(tree: Cotree) -> list[Cotree]:
    """Nodes from the root down to a deepest leaf."""
    best, stack = [], [[tree]]
    while stack:
        path = stack.pop()
        if len(path) > len(best):
            best = path
        stack.extend(path + [c] for c in path[-1].children)
    return best


def test_cotree_eq_hash_repr_on_deep_tree():
    """The 300-vertex threshold cograph (odd vertices dominate every
    earlier vertex) has cotree depth about 300; ==, hash and repr walk it
    without recursion."""
    g = Graph(300, [(j, i) for i in range(1, 300, 2) for j in range(i)])
    a, b = build_cotree(g), build_cotree(g)
    path = _deepest_path(a)
    assert len(path) > 250
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    # Move the deepest leaf up to the root; the path above it is rebuilt.
    leaf = path[-1]
    node = Cotree(path[-2].kind, children=tuple(c for c in path[-2].children if c is not leaf))
    for parent, child in zip(reversed(path[:-2]), reversed(path[1:-1])):
        node = Cotree(parent.kind, children=tuple(node if c is child else c for c in parent.children))
    moved = Cotree(node.kind, children=node.children + (leaf,))
    assert moved != a and a != moved and sorted(moved.leaves()) == sorted(a.leaves())
    nodes, stack = 0, [a]
    while stack:
        nodes += 1
        stack.extend(stack.pop().children)
    text = repr(a)
    assert text.startswith("Cotree(kind=") and text.count("Cotree(") == nodes


def test_cotree_repr_is_the_dataclass_repr():
    tree = Cotree("join", children=(Cotree("leaf", vertex=0), Cotree("union", children=(
        Cotree("leaf", vertex=1), Cotree("leaf", vertex=2)))))
    assert repr(tree) == (
        "Cotree(kind='join', vertex=None, children=(Cotree(kind='leaf', vertex=0, children=()), "
        "Cotree(kind='union', vertex=None, children=(Cotree(kind='leaf', vertex=1, children=()), "
        "Cotree(kind='leaf', vertex=2, children=())))))"
    )
    assert repr(Cotree("join", children=(Cotree("leaf", vertex=3),))) == (
        "Cotree(kind='join', vertex=None, children=(Cotree(kind='leaf', vertex=3, children=()),))"
    )
    assert tree == Cotree("join", children=(Cotree("leaf", vertex=0), Cotree("union", children=(
        Cotree("leaf", vertex=1), Cotree("leaf", vertex=2)))))
    assert tree != Cotree("join", children=(Cotree("leaf", vertex=0), Cotree("union", children=(
        Cotree("leaf", vertex=2), Cotree("leaf", vertex=1)))))
