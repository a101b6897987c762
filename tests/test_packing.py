from fractions import Fraction
from itertools import combinations

from epa.certify import is_triangle_packing
from epa.generator import GeneratorSpec, generate
from epa.graphs import Graph
from epa.oracle import exact_max_tp, exact_min_modulator
from epa.packing import tp_3maximal, tp_maximal
from conftest import corpus
from small_graphs import adjacent, complete_graph, cycle_graph, disjoint_union


def all_triangles(g: Graph):
    return [
        set(c)
        for c in combinations(range(g.n), 3)
        if all(adjacent(g, u, v) for u, v in combinations(c, 2))
    ]


def assert_maximal(g: Graph, packing):
    used = {v for t in packing for v in t}
    for t in all_triangles(g):
        assert t & used, (sorted(g.edges()), packing)


def assert_3maximal(g: Graph, packing):
    # no swap removing <= 2 triangles and inserting strictly more
    tris = all_triangles(g)
    packing = [set(t) for t in packing]
    for drop in range(0, 3):
        for removed in combinations(range(len(packing)), drop):
            kept = [t for i, t in enumerate(packing) if i not in removed]
            used = {v for t in kept for v in t}
            free_tris = [t for t in tris if not t & used]
            # can we place drop+1 disjoint triangles?
            def grow(start, used_now, placed):
                if placed == drop + 1:
                    return True
                for i in range(start, len(free_tris)):
                    if not free_tris[i] & used_now:
                        if grow(i + 1, used_now | free_tris[i], placed + 1):
                            return True
                return False

            assert not grow(0, set(), 0), (sorted(g.edges()), packing, removed)


def test_tp_maximal_examples():
    assert tp_maximal(complete_graph(3)).size == 1
    assert tp_maximal(cycle_graph(5)).size == 0
    assert tp_maximal(complete_graph(6)).size == 2 == 6 // 3


def test_tp_maximal_properties():
    for g in corpus(50, 1, 10, seed0=6300):
        sol = tp_maximal(g)
        assert is_triangle_packing(g, sol.triangles)
        assert_maximal(g, sol.triangles)


def test_tp_maximal_cluster_bound():
    for i, g in enumerate(corpus(60, 1, 10, seed0=6400)):
        sol = tp_maximal(g)
        opt = exact_max_tp(g)[0]
        k = exact_min_modulator(g, "cluster")[0]
        assert sol.size >= opt - k


def test_tp_3maximal_examples():
    assert tp_3maximal(complete_graph(3)).size == 1
    cocluster6 = disjoint_union(complete_graph(3), complete_graph(3)).complement()
    assert tp_3maximal(cocluster6).size == exact_max_tp(cocluster6)[0]
    assert tp_3maximal(complete_graph(6)).size == 2


def test_tp_3maximal_reextends_after_a_swap():
    """The triangle net: triangle 0-1-2 with a triangle hung on each of
    its vertices.  The maximal packing takes only the centre; the swap
    trades it for the first two outer triangles, and the third, freed by
    the swap, is packed by the re-extension."""
    net = Graph(9, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                    (1, 5), (1, 6), (5, 6), (2, 7), (2, 8), (7, 8)])
    assert tp_maximal(net).triangles == (frozenset({0, 1, 2}),)
    assert tp_3maximal(net).triangles == (frozenset({0, 3, 4}), frozenset({1, 5, 6}),
                                          frozenset({2, 7, 8}))
    assert exact_max_tp(net)[0] == 3


def test_tp_3maximal_properties():
    for g in corpus(36, 6, 12, seed0=6500):
        sol = tp_3maximal(g)
        assert is_triangle_packing(g, sol.triangles)
        assert_3maximal(g, sol.triangles)


def test_tp_3maximal_cocluster_bound():
    for i, g in enumerate(corpus(60, 1, 10, seed0=6600)):
        sol = tp_3maximal(g)
        opt = exact_max_tp(g)[0]
        k = exact_min_modulator(g, "cocluster")[0]
        assert sol.size >= opt - k


def test_tp_3maximal_exact_on_coclusters():
    for i in range(30):
        g, _ = generate(GeneratorSpec("cocluster", 12, 0, Fraction(1, 2), 6700 + i))
        sol = tp_3maximal(g)
        assert is_triangle_packing(g, sol.triangles)
        assert sol.size == exact_max_tp(g)[0]


def test_packing_deletion_observation():
    # removing a vertex set costs at most its size in packed triangles
    for g in corpus(30, 2, 9, seed0=6800):
        opt = exact_max_tp(g)[0]
        for v in range(min(g.n, 3)):
            rest, _ = g.induced_subgraph(set(range(g.n)) - {v})
            assert exact_max_tp(rest)[0] >= opt - 1
