from fractions import Fraction
from itertools import combinations

import pytest

from epa import oracle
from epa.certify import (
    _PATTERNS,
    induces_pattern,
    is_proper_coloring,
    is_triangle_packing,
    is_vertex_cover,
)
from epa.generator import SplitMix64, random_weights
from epa.graphs import Graph, bits, mask_of, unit_weights
from epa.oracle import (
    BudgetExceeded,
    OracleBudget,
    _first_hitting_set,
    _min_weight_hitting_set,
    exact_chromatic,
    exact_lp_vc,
    exact_max_matching_size,
    exact_max_tp,
    exact_min_cvc,
    exact_min_modulator,
    exact_min_wvc,
    obstruction_masks,
)
from epa.recognize import recognize
from conftest import _components, corpus, weights_for
from small_graphs import (
    adjacent,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)


def test_wvc_examples():
    assert exact_min_wvc(path_graph(3))[0] == 1
    assert exact_min_wvc(cycle_graph(5))[0] == 3
    assert exact_min_wvc(complete_graph(4))[0] == 3
    w = (Fraction(1), Fraction(5), Fraction(1))
    val, cover = exact_min_wvc(path_graph(3), w)
    assert val == 2 and cover == frozenset({0, 2})


def test_cvc_examples():
    assert exact_min_cvc(star_graph(4))[0] == 1
    assert exact_min_cvc(path_graph(5))[0] == 3
    assert exact_min_cvc(complete_graph(2))[0] == 1
    with pytest.raises(ValueError):
        exact_min_cvc(disjoint_union(complete_graph(2), complete_graph(2)))


def test_chromatic_examples():
    assert exact_chromatic(cycle_graph(5))[0] == 3
    assert exact_chromatic(complete_graph(5))[0] == 5
    chi, colors = exact_chromatic(cycle_graph(6))
    assert chi == 2 and is_proper_coloring(cycle_graph(6), colors)


def test_tp_examples():
    assert exact_max_tp(complete_graph(6))[0] == 2
    assert exact_max_tp(cycle_graph(5))[0] == 0
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    size, tris = exact_max_tp(two_k3)
    assert size == 2 and is_triangle_packing(two_k3, tris)


def test_modulator_examples():
    assert exact_min_modulator(cycle_graph(5), "bipartite")[0] == 1
    assert exact_min_modulator(path_graph(3), "cluster")[0] == 1
    assert exact_min_modulator(cycle_graph(5), "split")[0] == 1
    assert exact_min_modulator(complete_graph(4), "edgeless")[0] == 3


def test_modulator_matches_recognizer_scan():
    # independent route: smallest deletion set the recognizers accept
    classes = (
        "edgeless", "cluster", "cocluster", "split", "chordal", "cochordal",
        "bipartite", "forest", "cograph", "p3k1-free", "triangle-free",
        "co-triangle-free",
    )
    for g in corpus(25, 1, 7, seed0=1100):
        for cls in classes:
            val, cert = exact_min_modulator(g, cls)
            best = None
            for k in range(g.n + 1):
                for combo in combinations(range(g.n), k):
                    rest, _ = g.induced_subgraph(set(range(g.n)) - set(combo))
                    if recognize(rest, cls).member:
                        best = k
                        break
                if best is not None:
                    break
            assert val == best
            rest, _ = g.induced_subgraph(set(range(g.n)) - set(cert))
            assert recognize(rest, cls).member


def test_weighted_modulator():
    w = (Fraction(10), Fraction(1, 2), Fraction(10))
    val, cert = exact_min_modulator(path_graph(3), "cluster", w)
    assert val == Fraction(1, 2) and cert == frozenset({1})


def test_lp_examples():
    assert exact_lp_vc(path_graph(2)) == 1
    assert exact_lp_vc(complete_graph(3)) == Fraction(3, 2)
    assert exact_lp_vc(star_graph(3)) == 1
    assert exact_lp_vc(star_graph(4)) == 1
    assert exact_lp_vc(cycle_graph(4)) == 2


def test_oracles_mutually_consistent():
    for i, g in enumerate(corpus(40, 1, 9, seed0=1200)):
        w = weights_for(g, 77 + i, unit=i % 2 == 0)
        wvc, cover = exact_min_wvc(g, w)
        assert is_vertex_cover(g, cover)
        assert exact_lp_vc(g, w) <= wvc
        for cls in ("cluster", "cocluster", "forest", "split"):
            assert exact_min_modulator(g, cls, w)[0] <= wvc
        chi, colors = exact_chromatic(g)
        assert is_proper_coloring(g, colors)
        # clique number lower-bounds the chromatic number
        omega = max(
            (len(c) for k in range(1, g.n + 1) for c in combinations(range(g.n), k)
             if all(adjacent(g, u, v) for u, v in combinations(c, 2))),
            default=0,
        )
        assert chi >= omega


def test_oracle_determinism():
    g = corpus(1, 9, 9, seed0=1300)[0]
    assert exact_min_wvc(g) == exact_min_wvc(g)
    assert exact_min_modulator(g, "split") == exact_min_modulator(g, "split")
    assert exact_max_tp(g) == exact_max_tp(g)


def test_budget_enforced():
    big = path_graph(13)
    with pytest.raises(BudgetExceeded):
        exact_min_wvc(big)
    with pytest.raises(BudgetExceeded):
        exact_min_modulator(path_graph(11), "forest")
    with pytest.raises(BudgetExceeded):
        exact_lp_vc(path_graph(11))
    tight = OracleBudget(vc=13)
    assert exact_min_wvc(big, budget=tight)[0] == 6


def test_chromatic_oracle_at_its_step_budget():
    """On C7 the chromatic oracle takes 16 steps, two colours failing
    after backtracking: it answers with a budget of exactly 16 steps and
    overruns one of 15."""
    g = cycle_graph(7)
    assert exact_chromatic(g, OracleBudget(max_steps=16))[0] == 3
    with pytest.raises(BudgetExceeded):
        exact_chromatic(g, OracleBudget(max_steps=15))


def test_matching_oracle():
    assert exact_max_matching_size(path_graph(4)) == 2
    assert exact_max_matching_size(complete_graph(3)) == 1
    assert exact_max_matching_size(cycle_graph(6)) == 3


def test_lp_matches_plain_python_enumeration():
    # guards the vectorized enumeration against an unoptimized loop
    from itertools import product

    for i, g in enumerate(corpus(30, 0, 6, seed0=1400)):
        w = weights_for(g, i, unit=i % 2 == 0)
        best = None
        for assign in product((Fraction(0), Fraction(1, 2), Fraction(1)), repeat=g.n):
            if all(assign[u] + assign[v] >= 1 for u, v in g.edges()):
                val = sum((w[v] * assign[v] for v in range(g.n)), Fraction(0))
                if best is None or val < best:
                    best = val
        if best is None:
            best = Fraction(0)
        assert exact_lp_vc(g, w) == best


def test_tp_oracle_matches_cluster_formula():
    from epa.generator import GeneratorSpec, generate

    for i in range(25):
        g, _ = generate(GeneratorSpec("cluster", 11, 0, Fraction(1, 2), 1450 + i))
        expect = sum(len(comp) // 3 for comp in _components(g))
        assert exact_max_tp(g)[0] == expect


def test_chromatic_known_families():
    from epa.graphs import Graph

    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = Graph(10, outer + inner + spokes)
    assert exact_chromatic(petersen)[0] == 3
    assert exact_chromatic(cycle_graph(7))[0] == 3
    assert exact_chromatic(cycle_graph(8))[0] == 2


# -- the hitting-set scans and the obstruction sets, against references --


def ref_first_hitting_set(n, sets, accept=None):
    """Smallest set meeting every mask, lexicographically first of its
    size, by the plain definition: every mask shares a vertex with it."""
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            mask = mask_of(combo)
            if all(mask & s for s in sets) and (accept is None or accept(combo)):
                return k, frozenset(combo)
    raise AssertionError("the accepted full set meets every mask")


def ref_min_weight_hitting_set(sets, w):
    """Lightest set meeting every mask, the first of least weight in
    ascending mask order, with Fraction sums."""
    best = None
    for mask in range(1 << len(w)):
        if all(mask & s for s in sets):
            weight = sum((w[v] for v in bits(mask)), Fraction(0))
            if best is None or weight < best[0]:
                best = (weight, frozenset(bits(mask)))
    return best


def random_set_family(n, seed):
    """Up to 3n nonempty vertex masks of random sizes, repeats allowed."""
    rng = SplitMix64(seed)
    if n == 0:
        return []
    sets = []
    for _ in range(rng.below(3 * n + 1)):
        keep = 1 + rng.below(n)  # about 1 in ``keep`` vertices per set
        mask = sum(1 << v for v in range(n) if rng.below(keep) == 0)
        sets.append(mask or 1 << rng.below(n))
    return sets


def test_hitting_sets_match_definition():
    for n in range(11):
        for j in range(12 if n < 9 else 4):
            seed = 9100 + 16 * n + j
            sets = random_set_family(n, seed)
            assert _first_hitting_set(n, sets) == ref_first_hitting_set(n, sets)
            # reject about a third of the candidates, never the full set
            accept = lambda combo: len(combo) == n or mask_of(combo) % 3 != seed % 3
            assert (_first_hitting_set(n, sets, accept)
                    == ref_first_hitting_set(n, sets, accept))
            for w in (unit_weights(n), random_weights(n, seed),
                      random_weights(n, seed, zero_share=Fraction(1, 2))):
                assert _min_weight_hitting_set(sets, w) == ref_min_weight_hitting_set(sets, w)


# The modulator classes' forbidden patterns, by the names
# ``certify.induces_pattern`` takes; a co-class is its base class on the
# complement.
CLASS_PATTERNS = {
    "edgeless": ("K2",), "cluster": ("P3",), "cograph": ("P4",), "p3k1-free": ("P3+K1",),
    "triangle-free": ("triangle",), "split": ("2K2", "C4", "C5"), "forest": ("cycle",),
    "bipartite": ("odd-cycle",), "chordal": ("hole",),
}
CO_CLASSES = {"cocluster": "cluster", "co-triangle-free": "triangle-free",
              "cochordal": "chordal"}


def ref_obstruction_masks(g, cls):
    """Every vertex mask inducing one of the class's patterns, ascending."""
    if cls in CO_CLASSES:
        g, cls = g.complement(), CO_CLASSES[cls]
    return [mask for mask in range(1 << g.n) for name in CLASS_PATTERNS[cls]
            if induces_pattern(g, bits(mask), name)]


def test_obstruction_masks_match_every_mask_scan():
    # n = 10 is the size of the benchmark's oracle sweep
    for g in corpus(40, 0, 9, seed0=9300) + corpus(4, 10, 10, seed0=9340):
        for cls in (*CLASS_PATTERNS, *CO_CLASSES):
            assert sorted(obstruction_masks(g, cls)) == ref_obstruction_masks(g, cls), cls


def test_induced_edge_counts_match_per_mask_popcounts():
    """The byte table holds, at index mask, the popcount sum over the
    mask's vertices of their rows inside the mask, halved."""
    graphs = corpus(39, 0, 12, seed0=9400) + [complete_graph(12), Graph(12, []), Graph(0, [])]
    for g in graphs:
        adj = g.adj_bits
        expect = bytes(sum((adj[v] & mask).bit_count() for v in bits(mask)) // 2
                       for mask in range(1 << g.n))
        assert oracle._induced_edge_counts(g) == expect, g.n


def test_edge_counts_fill_a_byte_at_the_lane_limit():
    """K23 has 253 edges, the most a byte lane is asked to hold; above
    23 vertices the scan refuses before building its table."""
    edges = oracle._induced_edge_counts(complete_graph(23))
    assert len(edges) == 1 << 23
    assert edges[-1] == 253 and edges[(1 << 22) - 1] == 231 and edges[0b1011] == 3
    with pytest.raises(BudgetExceeded, match="n <= 23"):
        obstruction_masks(path_graph(24), "split")


def test_candidates_meet_only_the_tests_of_their_shape(monkeypatch):
    """A mask goes only to the pattern tests whose vertex and edge counts
    it has, so a split candidate meets one of 2K2, C4 and C5, never all."""
    seen = []

    def spied(name, p):
        def test(g, mask):
            seen.append((name, mask))
            return p.test(g, mask)
        return p._replace(test=test)

    monkeypatch.setattr(oracle, "_PATTERNS", {name: spied(name, p) for name, p in _PATTERNS.items()})
    for g in corpus(12, 6, 10, seed0=9500):
        for cls in ("split", "chordal", "cograph", "cocluster"):
            seen.clear()
            got = obstruction_masks(g, cls)
            assert got == ref_obstruction_masks(g, cls)
            h = g.complement() if cls in CO_CLASSES else g
            for name, mask in seen:
                edges = sum((h.adj_bits[v] & mask).bit_count() for v in bits(mask)) // 2
                assert _PATTERNS[name].edges(mask.bit_count()) == edges, (cls, name, mask)
            masks = [mask for _, mask in seen]
            assert len(masks) == len(set(masks)), cls


def test_hitting_scan_starts_at_the_least_hitting_size(monkeypatch):
    """The by-size scan asks for no k-subsets below the size of the
    smallest hitting mask, and a family holding the empty mask, which no
    set meets, still ends in the scan's AssertionError."""
    sizes = []
    monkeypatch.setattr(oracle, "combinations",
                        lambda items, k: sizes.append(k) or combinations(items, k))
    # three disjoint pairs: every hitting set takes one vertex of each
    sets = [0b11, 0b1100, 0b110000]
    assert _first_hitting_set(7, sets) == (3, frozenset({0, 2, 4}))
    assert sizes == [3]
    sizes.clear()
    accept = lambda combo: 1 in combo and 6 in combo
    assert _first_hitting_set(7, sets, accept) == (4, frozenset({1, 2, 4, 6}))
    assert sizes == [3, 4]
    for n, family in ((0, [0]), (4, [0b1010, 0]), (5, [0])):
        sizes.clear()
        with pytest.raises(AssertionError, match="unreachable"):
            _first_hitting_set(n, family)
        assert sizes == []
