import sys
from fractions import Fraction
from itertools import combinations

from epa.certify import is_clique, is_vertex_cover
from epa.graphs import Graph, bits, mask_of, total, unit_weights
from epa.generator import GeneratorSpec, SplitMix64, generate, random_weights
from epa.oracle import exact_min_modulator, exact_min_vc, exact_min_wvc
from epa.recognize import find_induced
from epa.solvers import vc_2approx, wvc_cluster, wvc_cograph
from epa import vertex_cover
from epa.vertex_cover import (
    two_maximal_clique,
    vc_budgeted_2approx,
    vc_chordal,
    vc_fvs,
    vc_local_ratio_ffree,
    vc_split,
)
from conftest import corpus, weights_for
from small_graphs import complete_graph, cycle_graph, path_graph, star_graph


def test_ffree_exact_on_cographs():
    for i in range(25):
        g, _ = generate(GeneratorSpec("cograph", 9, 0, Fraction(1, 2), 2100 + i))
        w = weights_for(g, i, unit=i % 2 == 0)
        sol = vc_local_ratio_ffree(g, w, "P4")
        assert is_vertex_cover(g, sol.cover)
        assert total(w, sol.cover) == exact_min_wvc(g, w)[0]


def test_ffree_bounds_all_families():
    mod_of = {"P3": "cluster", "co-P3": "cocluster", "P4": "cograph"}
    for i, g in enumerate(corpus(60, 1, 9, seed0=2200)):
        w = weights_for(g, 19 + i, unit=i % 2 == 0)
        opt = exact_min_wvc(g, w)[0]
        for fam, cls in mod_of.items():
            sol = vc_local_ratio_ffree(g, w, fam)
            assert is_vertex_cover(g, sol.cover)
            k = exact_min_modulator(g, cls, w)[0]
            assert total(w, sol.cover) <= opt + 2 * k, (fam, sorted(g.edges()))


def _ffree_rescan_reference(g, w, family):
    """The local-ratio loop as it was: every step rescans the alive
    vertices for zero weights.  Returns the cover."""
    exact_solver = {"P3": wvc_cluster, "co-P3": wvc_cograph, "P4": wvc_cograph}[family]
    wp = list(w)
    alive = g.full_mask
    removed = []
    while True:
        zeros = [v for v in bits(alive) if wp[v] == 0]
        if zeros:
            removed.append((zeros[0], g.adj_bits[zeros[0]] & alive))
            alive &= ~(1 << zeros[0])
            continue
        pattern = find_induced(g, family, within=alive)
        if pattern is None:
            sub, old = g.induced_subgraph(bits(alive))
            cover = {old[v] for v in exact_solver(sub, tuple(wp[v] for v in old))}
            break
        lam = min(wp[v] for v in pattern)
        for v in pattern:
            wp[v] -= lam
    for v, nbrs in reversed(removed):
        if any(u not in cover for u in bits(nbrs)):
            cover.add(v)
    return frozenset(cover)


def _chordal_rescan_reference(g, w):
    """vc_chordal's triangle loop as it was: every step puts all alive
    zero-weight vertices in the cover, then reduces on a triangle; the
    triangle-free rest goes to vc_fvs."""
    wp = list(w)
    alive = g.full_mask
    cover = set()
    while True:
        zeros = [v for v in bits(alive) if wp[v] == 0]
        cover.update(zeros)
        alive &= ~mask_of(zeros)
        tri = find_induced(g, "triangle", within=alive)
        if tri is None:
            break
        lam = min(wp[v] for v in tri)
        for v in tri:
            wp[v] -= lam
    sub, old = g.induced_subgraph(bits(alive))
    cover.update(old[v] for v in vc_fvs(sub, tuple(wp[v] for v in old)).cover)
    return frozenset(cover)


def test_ffree_zero_mask_matches_rescan_reference():
    for i, g in enumerate(corpus(45, 2, 30, seed0=2300)):
        w = random_weights(g.n, 2300 + i, zero_share=Fraction(i % 3, 5))
        for fam in ("P3", "co-P3", "P4"):
            assert vc_local_ratio_ffree(g, w, fam).cover == _ffree_rescan_reference(g, w, fam)
        assert vc_chordal(g, w).cover == _chordal_rescan_reference(g, w)


def test_cograph_rows_end_on_the_cotree_in_g_ids(monkeypatch):
    """The P4 row ends on the cotree of the alive vertices, so every P4
    search it runs finds a P4, and neither it nor the co-P3 row builds a
    derived graph: a planted n = 100 cograph and a 300-vertex threshold
    cograph under P4, a planted n = 100 cocluster under co-P3, each with
    unit and random weights."""
    cases = [("P4", generate(GeneratorSpec("cograph", 90, 10, Fraction(1, 2), 2400))[0]),
             ("P4", Graph(300, [(j, i) for i in range(1, 300, 2) for j in range(i)])),
             ("co-P3", generate(GeneratorSpec("cocluster", 90, 10, Fraction(1, 2), 2401))[0])]
    expect = [vc_local_ratio_ffree(g, w, fam).cover
              for fam, g in cases for w in (unit_weights(g.n), random_weights(g.n, 2402))]

    def forbidden(*args):
        raise AssertionError("a local-ratio row built a graph")

    searches, trees = [], []
    find, cotree = vertex_cover.find_induced, vertex_cover.build_cotree

    def searched(g, kind, within):
        searches.append((kind, find(g, kind, within)))
        return searches[-1][1]

    def built(g, within):
        trees.append(cotree(g, within))
        return trees[-1]

    monkeypatch.setattr(vertex_cover, "find_induced", searched)
    monkeypatch.setattr(vertex_cover, "build_cotree", built)
    for name in ("complement", "induced_subgraph", "relabeled", "_from_masks"):
        monkeypatch.setattr(Graph, name, forbidden)
    got = [vc_local_ratio_ffree(g, w, fam).cover
           for fam, g in cases for w in (unit_weights(g.n), random_weights(g.n, 2402))]
    assert got == expect
    p4 = [found for kind, found in searches if kind == "P4"]
    assert len(p4) > 10 and all(found is not None for found in p4)
    assert sum(isinstance(tree, frozenset) for tree in trees) == len(p4)
    assert any(kind == "co-P3" and found is None for kind, found in searches)


def test_residual_rows_build_no_graph(monkeypatch):
    """The P3 row ends on the cotree of its cluster rest, and vc_fvs and
    vc_chordal solve their LP, feedback-set and forest steps on masks in
    G's ids: none of them builds a derived graph.  Planted n = 100
    cluster, forest and chordal draws and a 100-vertex path, each with
    unit and random weights."""
    draw = lambda cls, seed: generate(GeneratorSpec(cls, 90, 10, Fraction(1, 2), seed))[0]
    cases = [(lambda g, w: vc_local_ratio_ffree(g, w, "P3"), draw("cluster", 2410)),
             (vc_fvs, draw("forest", 2411)), (vc_fvs, draw("chordal", 2412)),
             (vc_chordal, draw("chordal", 2413)), (vc_chordal, path_graph(100))]
    weights = lambda g: (unit_weights(g.n), random_weights(g.n, 2414))
    expect = [solve(g, w).cover for solve, g in cases for w in weights(g)]

    def forbidden(*args):
        raise AssertionError("a cover row built a graph")

    trees = []
    cotree = vertex_cover.build_cotree

    def built(g, within):
        trees.append(cotree(g, within))
        return trees[-1]

    monkeypatch.setattr(vertex_cover, "build_cotree", built)
    for name in ("complement", "induced_subgraph", "relabeled", "_from_masks"):
        monkeypatch.setattr(Graph, name, forbidden)
    assert [solve(g, w).cover for solve, g in cases for w in weights(g)] == expect
    assert len(trees) == 2 and all(tree.kind == "union" for tree in trees)


def test_ffree_c5_example():
    c5 = cycle_graph(5)
    sol = vc_local_ratio_ffree(c5, unit_weights(5), "P3")
    assert is_vertex_cover(c5, sol.cover)
    assert sol.size <= 3 + 2 * exact_min_modulator(c5, "cluster", unit_weights(5))[0]


def test_vc_fvs_examples():
    tree = path_graph(7)
    sol = vc_fvs(tree)
    assert sol.size == exact_min_wvc(tree)[0]
    assert vc_fvs(complete_graph(3)).size <= 3
    assert vc_fvs(cycle_graph(4)).size <= 3


def test_vc_fvs_bound_corpus():
    for i, g in enumerate(corpus(80, 1, 10, seed0=2300)):
        w = weights_for(g, 29 + i, unit=i % 2 == 0)
        sol = vc_fvs(g, w)
        assert is_vertex_cover(g, sol.cover)
        opt = exact_min_wvc(g, w)[0]
        k = exact_min_modulator(g, "forest", w)[0]
        assert total(w, sol.cover) <= opt + k


def test_vc_chordal_examples():
    assert vc_chordal(complete_graph(3)).size <= 3
    # triangle-free inputs behave like vc_fvs
    c4 = cycle_graph(4)
    assert vc_chordal(c4).size <= Fraction(3, 2) * 2 + 1


def test_vc_chordal_bound_corpus():
    for i, g in enumerate(corpus(60, 1, 9, seed0=2400)):
        w = weights_for(g, 41 + i, unit=i % 2 == 0)
        sol = vc_chordal(g, w)
        assert is_vertex_cover(g, sol.cover)
        opt = exact_min_wvc(g, w)[0]
        k = exact_min_modulator(g, "chordal", w)[0]
        assert total(w, sol.cover) <= Fraction(3, 2) * opt + k


def assert_two_maximal(g: Graph, z: frozenset[int]):
    assert is_clique(g, z)
    others = set(range(g.n)) - z
    for out_size in (0, 1):
        for removed in combinations(sorted(z), out_size):
            base = z - set(removed)
            for add_size in range(out_size + 1, 3):
                for added in combinations(sorted(others), add_size):
                    assert not is_clique(g, base | set(added)), (z, removed, added)


def test_two_maximal_examples():
    assert two_maximal_clique(complete_graph(4)) == frozenset(range(4))
    paw = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert two_maximal_clique(paw) == frozenset({0, 1, 2})
    tri_free = cycle_graph(5)
    z = two_maximal_clique(tri_free)
    assert len(z) == 2


def test_two_maximal_corpus():
    for g in corpus(50, 1, 9, seed0=2500):
        if g.n == 0:
            continue
        z = two_maximal_clique(g)
        assert len(z) >= 1
        assert_two_maximal(g, z)


def test_budgeted_examples():
    c5 = cycle_graph(5)
    sol = vc_budgeted_2approx(c5, 2)
    assert is_vertex_cover(c5, sol.cover)
    assert len(sol.cover) <= max(3, 2 * 3 - 2)
    # optimum below the budget is found exactly
    sol = vc_budgeted_2approx(path_graph(4), 2)
    assert len(sol.cover) == 2
    # c = 0 degenerates to the plain 2-approximation bound
    sol = vc_budgeted_2approx(c5, 0)
    assert len(sol.cover) <= 6


def test_budgeted_bound_corpus():
    for g in corpus(40, 1, 10, seed0=2600):
        opt = exact_min_vc(g)[0]
        for c in (0, 1, 2):
            sol = vc_budgeted_2approx(g, c)
            assert is_vertex_cover(g, sol.cover)
            assert len(sol.cover) <= max(opt, 2 * opt - c)


def reference_budgeted(g: Graph, c: int, within: int) -> frozenset[int]:
    """The deletion-set loop written on induced subgraphs and the weighted
    2-approximation with unit weights."""
    alive = [v for v in range(g.n) if within >> v & 1]
    best = None
    for k in range(min(c, len(alive)) + 1):
        for combo in combinations(alive, k):
            rest, old = g.induced_subgraph(set(alive) - set(combo))
            approx = vc_2approx(rest, unit_weights(rest.n))
            cand = frozenset(combo) | {old[v] for v in approx}
            if best is None or len(cand) < len(best):
                best = cand
    return best


def test_budgeted_within_matches_reference_corpus():
    graphs = corpus(40, 1, 11, seed0=2650)
    graphs += [generate(GeneratorSpec("split", 12, 2, Fraction(1, 2), 2690 + i))[0] for i in range(10)]
    for i, g in enumerate(graphs):
        rng = SplitMix64(2660 + i)
        for within in (g.full_mask, sum(1 << v for v in range(g.n) if rng.below(3)), 0):
            for c in (0, 1, 2):
                sol = vc_budgeted_2approx(g, c, within=within)
                assert sol.cover == reference_budgeted(g, c, within)


def test_budgeted_below_matches_unbounded():
    """With ``below`` = b the search returns the unbounded cover when that
    has fewer than b vertices and None otherwise, for b = 0..|mask| + 1."""
    graphs = corpus(40, 1, 12, seed0=2750)
    graphs += [generate(GeneratorSpec("split", 14, 2, Fraction(1, 2), 2790 + i))[0] for i in range(6)]
    for i, g in enumerate(graphs):
        rng = SplitMix64(2760 + i)
        for within in (g.full_mask, sum(1 << v for v in range(g.n) if rng.below(3))):
            for c in (0, 1, 2, 3):
                cover = vc_budgeted_2approx(g, c, within=within).cover
                for b in range(within.bit_count() + 2):
                    sol = vc_budgeted_2approx(g, c, within=within, below=b)
                    if len(cover) < b:
                        assert sol is not None and sol.cover == cover, (i, c, b)
                    else:
                        assert sol is None, (i, c, b)


def test_vc_split_exact_on_splits():
    for i in range(30):
        g, _ = generate(GeneratorSpec("split", 10, 0, Fraction(1, 2), 2700 + i))
        sol = vc_split(g)
        assert is_vertex_cover(g, sol.cover)
        assert len(sol.cover) == exact_min_vc(g)[0]


def test_vc_split_star():
    sol = vc_split(star_graph(3))
    assert sol.cover == frozenset({0})


def test_vc_split_bound_corpus():
    for g in corpus(80, 1, 10, seed0=2800):
        sol = vc_split(g)
        assert is_vertex_cover(g, sol.cover)
        opt = exact_min_vc(g)[0]
        k = exact_min_modulator(g, "split")[0]
        assert len(sol.cover) <= opt + k


def stack_depth() -> int:
    """Frames on the current call stack."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_vc_split_runs_without_deep_recursion():
    """A 60-edge perfect matching takes about 60 levels of the split
    recursion; with only 40 frames to spare the loop still answers, with
    the cover the recursive driver gave under the normal limit."""
    g = Graph(120, [(2 * i, 2 * i + 1) for i in range(60)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        cover = vc_split(g).cover
    finally:
        sys.setrecursionlimit(old)
    assert cover == frozenset(range(120)) - {116, 119}
