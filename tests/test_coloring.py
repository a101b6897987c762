from fractions import Fraction
from itertools import combinations

from epa import coloring
from epa.certify import is_proper_coloring
from epa.coloring import (
    bipartite_oracle,
    color_degeneracy,
    color_greedy_mis,
    color_p3k1free,
    color_with_class_oracle,
    degeneracy_oracle,
)
from epa.generator import GeneratorSpec, SplitMix64, chained_triangle_complement, generate
from epa.graphs import Graph, bits, mask_of
from epa.oracle import OracleBudget, exact_chromatic, exact_min_modulator
from epa.solvers import max_matching
from conftest import _components, corpus
from small_graphs import adjacent, complete_graph, cycle_graph, empty_graph


def chi_after_deleting(g: Graph, cls: str) -> tuple[int, int]:
    """(chi(G - M), |M|) for the oracle-minimum modulator M to cls."""
    k, mod = exact_min_modulator(g, cls)
    rest, _ = g.induced_subgraph(set(range(g.n)) - set(mod))
    return exact_chromatic(rest)[0], k


def test_oracle_algorithm_examples():
    oracle = bipartite_oracle()
    for i in range(10):
        g, _ = generate(GeneratorSpec("bipartite", 9, 0, Fraction(1, 2), 5000 + i))
        sol = color_with_class_oracle(g, oracle)
        assert is_proper_coloring(g, sol.colors)
        assert sol.colors_used <= 2
    sol = color_with_class_oracle(cycle_graph(5), oracle)
    assert is_proper_coloring(cycle_graph(5), sol.colors)
    assert sol.colors_used <= 3
    sol = color_with_class_oracle(complete_graph(5), oracle)
    assert is_proper_coloring(complete_graph(5), sol.colors)
    assert sol.colors_used <= 5


def test_oracle_algorithm_bound_corpus():
    oracle = bipartite_oracle()
    for g in corpus(60, 1, 10, seed0=5100):
        sol = color_with_class_oracle(g, oracle)
        assert is_proper_coloring(g, sol.colors)
        k = exact_min_modulator(g, "bipartite")[0]
        assert sol.colors_used <= 2 + k


def test_degeneracy_oracle_plugin():
    # valid on low-degeneracy graphs, always validated by the caller
    plug = degeneracy_oracle(6)
    for g in corpus(30, 1, 10, seed0=5200):
        sol = color_with_class_oracle(g, plug)
        assert is_proper_coloring(g, sol.colors)
        if g.degeneracy_order()[1] <= 5:
            assert sol.colors_used <= 6


def test_color_degeneracy_examples():
    tree, _ = generate(GeneratorSpec("forest", 9, 0, Fraction(1, 2), 5300))
    assert color_degeneracy(tree).colors_used <= 2
    diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert color_degeneracy(diamond).colors_used == 3
    for i in range(10):
        g, _ = generate(GeneratorSpec("chordal", 9, 0, Fraction(1, 2), 5400 + i))
        sol = color_degeneracy(g)
        assert is_proper_coloring(g, sol.colors)
        assert sol.colors_used == exact_chromatic(g)[0]  # k = 0: exact


def test_color_degeneracy_bound_corpus():
    for g in corpus(50, 1, 9, seed0=5500):
        sol = color_degeneracy(g)
        assert is_proper_coloring(g, sol.colors)
        chi_rest, k = chi_after_deleting(g, "chordal")
        assert sol.colors_used <= chi_rest + k
        order, degen = g.degeneracy_order()
        assert sol.colors_used <= degen + 1


def test_greedy_mis_cograph_bound():
    # exact on cographs themselves
    for i in range(15):
        g, _ = generate(GeneratorSpec("cograph", 10, 0, Fraction(1, 2), 5600 + i))
        sol = color_greedy_mis(g)
        assert is_proper_coloring(g, sol.colors)
        assert sol.colors_used == exact_chromatic(g)[0]
    for g in corpus(40, 1, 9, seed0=5700):
        sol = color_greedy_mis(g)
        chi_rest, k = chi_after_deleting(g, "cograph")
        assert sol.colors_used <= chi_rest + k


def test_greedy_mis_cochordal_bound():
    for g in corpus(40, 1, 9, seed0=5800):
        sol = color_greedy_mis(g)
        chi_rest, k = chi_after_deleting(g, "cochordal")
        assert sol.colors_used <= 2 * chi_rest + k - 1 if g.n else True


def test_greedy_mis_cochordal_component_refinement():
    # on cochordal inputs: at most 2 chi - r, r the number of coconnected
    # components
    for i in range(25):
        g, _ = generate(GeneratorSpec("cochordal", 9, 0, Fraction(1, 2), 5900 + i))
        if g.n == 0:
            continue
        sol = color_greedy_mis(g)
        chi = exact_chromatic(g)[0]
        r = len(_components(g.complement()))
        assert sol.colors_used <= 2 * chi - r


def test_greedy_mis_lists_only_the_chosen_bits(monkeypatch):
    """_greedy_mis reads one row per vertex it chooses: of the masks that
    ``bits`` lists, only ``chosen``, never ``mask``.  Its set is still the
    lexicographic greedy one, on random graphs under random masks, from
    no vertex and from the first non-adjacent pair."""
    listed = []
    monkeypatch.setattr(coloring, "bits", lambda mask: listed.append(mask) or bits(mask))
    rng = SplitMix64(6000)
    for g in corpus(80, 1, 16, seed0=6000):
        mask = mask_of(v for v in range(g.n) if rng.chance(Fraction(3, 4)))
        pairs = [1 << u | 1 << v for u, v in combinations(range(g.n), 2) if not adjacent(g, u, v)]
        for chosen in [0] + pairs[:1]:
            expect = set(bits(chosen))
            for v in bits(mask):
                if not any(adjacent(g, u, v) or u == v for u in expect):
                    expect.add(v)
            listed.clear()
            assert coloring._greedy_mis(g, mask, chosen) == mask_of(expect)
            assert listed == [chosen]


def test_complete_multipartite_exact():
    g, _ = generate(GeneratorSpec("cocluster", 10, 0, Fraction(1, 2), 6000))
    sol = color_greedy_mis(g)
    assert sol.colors_used == exact_chromatic(g)[0]


def test_fig6_tightness_family():
    for gadgets in (3, 4):
        h = chained_triangle_complement(gadgets)
        budget = OracleBudget(coloring=12)
        chi = exact_chromatic(h, budget)[0]
        assert chi == gadgets
        sol = color_greedy_mis(h)
        assert is_proper_coloring(h, sol.colors)
        assert sol.colors_used == 2 * gadgets - 1
        # cochordal: k = 0, bound 2 chi - 1 met with equality
        from epa.recognize import recognize

        assert recognize(h, "cochordal").member


def test_p3k1_examples():
    c5 = cycle_graph(5)
    sol = color_p3k1free(c5)
    assert is_proper_coloring(c5, sol.colors) and sol.colors_used == 3
    c4 = cycle_graph(4)
    assert color_p3k1free(c4).colors_used == 2
    assert color_p3k1free(empty_graph(6)).colors_used == 1
    assert color_p3k1free(Graph(0, [])).colors_used == 0


def test_p3k1_bound_corpus():
    for g in corpus(40, 1, 9, seed0=6100):
        sol = color_p3k1free(g)
        assert is_proper_coloring(g, sol.colors)
        chi_rest, k = chi_after_deleting(g, "p3k1-free")
        assert sol.colors_used <= chi_rest + k


def test_p3k1_rest_is_matched_in_g_ids(monkeypatch):
    """color_p3k1free matches its rest on the complement under a vertex
    mask: it builds no induced subgraph and relabels nothing, on planted
    p3k1-free draws whose rest is large and on random graphs."""
    graphs = [generate(GeneratorSpec("p3k1-free", n, n // 10, Fraction(1, 2), 5900 + n))[0]
              for n in (40, 90, 135)]
    graphs += corpus(20, 1, 12, seed0=5950)
    expect = [color_p3k1free(g) for g in graphs]

    def forbidden(*args):
        raise AssertionError("color_p3k1free built a subgraph")

    monkeypatch.setattr(Graph, "relabeled", forbidden)
    monkeypatch.setattr(Graph, "induced_subgraph", forbidden)
    assert [color_p3k1free(g) for g in graphs] == expect


def test_p3k1_phase2_matches_matching_count():
    # on graphs with no independent triple, colors = n - max matching in
    # the complement
    for i, g in enumerate(corpus(40, 1, 9, seed0=6200)):
        co = g.complement()
        if any(
            not any(adjacent(g, u, v) for u, v in combinations(c, 2))
            for c in combinations(range(g.n), 3)
        ):
            continue
        sol = color_p3k1free(g)
        assert sol.colors_used == g.n - len(max_matching(co))
