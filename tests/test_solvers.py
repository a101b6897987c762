from fractions import Fraction

import pytest

from epa.certify import induces_pattern, is_matching, is_vertex_cover, is_connected_vertex_cover
from epa.graphs import Graph, bits, mask_of, total, unit_weights
from epa.generator import GeneratorSpec, SplitMix64, generate, random_graph, random_weights
from epa.oracle import (
    exact_lp_vc,
    exact_max_matching_size,
    exact_min_cvc,
    exact_min_modulator,
    exact_min_vc,
    exact_min_wvc,
)
from epa.recognize import NotInClassError, build_cotree, find_induced
from epa.reports import run_algorithm
from epa.vertex_cover import vc_fvs
from epa.solvers import (
    cvc_savage,
    fvs_2approx,
    lp_half_integral_vc,
    max_matching,
    vc_2approx,
    wvc_cluster,
    wvc_cograph,
    wvc_forest,
)
from conftest import _components, connected_corpus, corpus, masked_corpus, weights_for
from small_graphs import (complete_graph, cycle_graph, disjoint_union, path_graph, star_graph,
                          threshold_cograph)
from test_recognize import _build_cotree_recursive


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


# -- exact solvers on classes ------------------------------------------


def test_wvc_forest_examples():
    assert wvc_forest(path_graph(3), unit_weights(3)) == frozenset({1})
    w = (Fraction(1), Fraction(5), Fraction(1))
    assert wvc_forest(path_graph(3), w) == frozenset({0, 2})
    with pytest.raises(NotInClassError):
        wvc_forest(cycle_graph(4), unit_weights(4))


def test_wvc_forest_matches_oracle():
    for i in range(40):
        g, _ = generate(GeneratorSpec("forest", 10, 0, Fraction(1, 2), 4000 + i))
        w = weights_for(g, 61 + i, unit=i % 2 == 0)
        cover = wvc_forest(g, w)
        assert is_vertex_cover(g, cover)
        assert total(w, cover) == exact_min_wvc(g, w)[0]


def test_wvc_cluster_examples():
    k4 = complete_graph(4)
    cover = wvc_cluster(k4, unit_weights(4))
    assert is_vertex_cover(k4, cover) and len(cover) == 3
    w = (Fraction(3), Fraction(1), Fraction(1))
    assert wvc_cluster(complete_graph(3), w) == frozenset({1, 2})
    g = disjoint_union(complete_graph(3), complete_graph(2))
    assert total(unit_weights(5), wvc_cluster(g, unit_weights(5))) == 3
    with pytest.raises(NotInClassError):
        wvc_cluster(path_graph(3), unit_weights(3))


def test_wvc_cograph_examples():
    assert len(wvc_cograph(complete_graph(3), unit_weights(3))) == 2
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert len(wvc_cograph(two_k2, unit_weights(4))) == 2
    k23 = Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    cover = wvc_cograph(k23, unit_weights(5))
    assert cover == frozenset({0, 1})
    with pytest.raises(NotInClassError):
        wvc_cograph(path_graph(4), unit_weights(4))


def test_wvc_cograph_matches_oracle():
    for i in range(40):
        g, _ = generate(GeneratorSpec("cograph", 10, 0, Fraction(1, 2), 4100 + i))
        w = weights_for(g, 93 + i, unit=i % 2 == 0)
        cover = wvc_cograph(g, w)
        assert is_vertex_cover(g, cover)
        assert total(w, cover) == exact_min_wvc(g, w)[0]


def _wvc_cograph_recursive(tree, w):
    """The cotree DP as it was, recursive, on a given cotree."""

    def solve(node):
        if node.kind == "leaf":
            return Fraction(0), [], [node.vertex]
        subs = [solve(c) for c in node.children]
        leaves = [v for _, _, lv in subs for v in lv]
        if node.kind == "union":
            return sum((c for c, _, _ in subs), Fraction(0)), [v for _, cv, _ in subs for v in cv], leaves
        total_w = total(w, leaves)
        best = None
        for i, (cost_i, _, leaves_i) in enumerate(subs):
            cand = total_w - total(w, leaves_i) + cost_i
            if best is None or cand < best[0]:
                best = (cand, i)
        keep = set(subs[best[1]][2])
        return best[0], [v for v in leaves if v not in keep] + subs[best[1]][1], leaves

    return frozenset(solve(tree)[1])


def test_wvc_cograph_matches_recursive_reference():
    g = threshold_cograph(300)
    tree = build_cotree(g)
    assert tree == _build_cotree_recursive(g)
    for w in (unit_weights(g.n), random_weights(g.n, 5)):
        assert wvc_cograph(g, w) == _wvc_cograph_recursive(tree, w)
    for i in range(20):
        g, _ = generate(GeneratorSpec("cograph", 30, 0, Fraction(1, 2), 4200 + i))
        w = weights_for(g, 95 + i, unit=i % 2 == 0)
        assert wvc_cograph(g, w) == _wvc_cograph_recursive(build_cotree(g), w)


def test_vc_cograph_deep_threshold_graph():
    """A 700-vertex threshold cograph has cotree depth about 700; the row
    used to end in RecursionError."""
    g = threshold_cograph(700)
    res = run_algorithm("vc", "cograph", g, unit_weights(g.n))
    assert res.feasible and res.value == 350


def test_wvc_cluster_matches_oracle():
    for i in range(40):
        g, _ = generate(GeneratorSpec("cluster", 11, 0, Fraction(1, 2), 4200 + i))
        w = weights_for(g, 17 + i, unit=i % 2 == 0)
        cover = wvc_cluster(g, w)
        assert is_vertex_cover(g, cover)
        assert total(w, cover) == exact_min_wvc(g, w)[0]


# -- half-integral LP ---------------------------------------------------


def test_lp_examples():
    lp = lp_half_integral_vc(path_graph(2))
    assert lp.values == (Fraction(1, 2), Fraction(1, 2)) and lp.objective == 1
    lp = lp_half_integral_vc(star_graph(4))
    assert lp.objective == 1 and lp.v1 == frozenset({0}) and lp.v0 == frozenset({1, 2, 3, 4})
    lp = lp_half_integral_vc(cycle_graph(4))
    assert lp.objective == 2


def test_lp_feasible_and_optimal_corpus():
    for i, g in enumerate(corpus(60, 1, 10, seed0=1500)):
        w = weights_for(g, 31 + i, unit=i % 3 == 0)
        lp = lp_half_integral_vc(g, w)
        for u, v in g.edges():
            assert lp.values[u] + lp.values[v] >= 1
        assert lp.objective == sum(
            (w[v] * lp.values[v] for v in range(g.n)), Fraction(0)
        )
        assert lp.objective == exact_lp_vc(g, w)
        # V0 is independent and V0 never touches the half part
        for u, v in g.edges():
            assert not (u in lp.v0 and v in lp.v0)
            assert not (u in lp.v0 and v in lp.v_half)
            assert not (v in lp.v0 and u in lp.v_half)


def test_lp_persistency_corpus():
    # some minimum cover contains V1 and avoids V0; all-half is optimal
    # on the half part
    for i, g in enumerate(corpus(40, 1, 9, seed0=1600)):
        w = weights_for(g, 47 + i, unit=i % 3 == 0)
        lp = lp_half_integral_vc(g, w)
        opt, _ = exact_min_wvc(g, w)
        best_conforming = None
        for mask in range(1 << g.n):
            chosen = {v for v in range(g.n) if mask >> v & 1}
            if not lp.v1 <= chosen or chosen & lp.v0:
                continue
            if is_vertex_cover(g, chosen):
                cand = total(w, chosen)
                if best_conforming is None or cand < best_conforming:
                    best_conforming = cand
        assert best_conforming == opt
        sub, old = g.induced_subgraph(lp.v_half)
        sub_w = tuple(w[v] for v in old)
        assert exact_lp_vc(sub, sub_w) == total(w, lp.v_half) / 2


def _least_cut_reference(g: Graph, w) -> tuple[Fraction, ...]:
    """The LP values read off the least minimum cut of the double cover.

    A finite cut puts the left copies of a set A on the sink side and
    then must put the right copies of B(A) = N(V - A) on the source side,
    at cost w(A) + w(B(A)).  Minimum cuts are closed under union and
    intersection of their source sides, so the least one cuts A*, the
    union of the cheapest A, and B*, the intersection of their B(A).  The
    set reachable from the source in the residual graph of any maximum
    flow is that least source side (Picard and Queyranne, Math.
    Programming 12, 1977), so every correct max flow gives these values.
    """
    n = g.n
    full = g.full_mask
    weight = [Fraction(0)] * (1 << n)       # w(mask)
    nbrs = [0] * (1 << n)                   # N(mask)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        weight[mask] = weight[mask & (mask - 1)] + w[v]
        nbrs[mask] = nbrs[mask & (mask - 1)] | g.adj_bits[v]
    best = None
    union, inter = 0, full
    for a in range(1 << n):
        b = nbrs[full ^ a]
        cost = weight[a] + weight[b]
        if best is None or cost < best:
            best, union, inter = cost, a, b
        elif cost == best:
            union |= a
            inter &= b
    return tuple(Fraction((union >> v & 1) + (inter >> v & 1), 2) for v in range(n))


def test_lp_returns_least_minimum_cut():
    i = 0
    for n in range(10):
        for d in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
            for _ in range(12):
                g = random_graph(n, d, 1700 + i)
                for w in (unit_weights(n), random_weights(n, 1800 + i),
                          random_weights(n, 1800 + i, zero_share=Fraction(1, 2))):
                    assert lp_half_integral_vc(g, w).values == _least_cut_reference(g, w)
                i += 1


def test_lp_long_augmenting_path():
    """A shuffled 3001-vertex path: its augmenting paths run thousands of
    vertices deep, which once overflowed the recursion limit of the
    blocking-flow search.  The LP, and the vc-fvs and vc-chordal rows
    built on it, run at the default limit."""
    n = 3001
    perm = list(range(n))
    SplitMix64(1).shuffle(perm)
    g = Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
    lp = lp_half_integral_vc(g)
    assert lp.objective == 1500 and not lp.v_half
    for param in ("fvs", "chordal"):
        res = run_algorithm("vc", param, g)
        assert res.feasible and res.value == 1500


# -- matching -----------------------------------------------------------


def test_matching_examples():
    assert len(max_matching(path_graph(4))) == 2
    assert len(max_matching(complete_graph(3))) == 1
    m = max_matching(petersen())
    assert len(m) == 5 and is_matching(petersen(), m)


def test_matching_matches_oracle():
    for g in corpus(60, 1, 12, seed0=1700):
        m = max_matching(g)
        assert is_matching(g, m)
        assert len(m) == exact_max_matching_size(g)


def test_matching_within_is_the_matching_of_the_induced_subgraph():
    """max_matching(g, within) is max_matching(G[within]) with its pairs
    mapped back to G's ids, edge for edge."""
    sizes = set()
    for g, within in masked_corpus():
        sub, old = g.induced_subgraph(bits(within))
        got = max_matching(g, within)
        assert got == {(old[u], old[v]) for u, v in max_matching(sub)}, (within, sorted(g.edges()))
        sizes.add(len(got))
    assert max(sizes) > 5


# -- FVS 2-approximation -------------------------------------------------


def test_fvs_examples():
    assert fvs_2approx(path_graph(6), unit_weights(6)) == frozenset()
    c5 = cycle_graph(5)
    assert len(fvs_2approx(c5, unit_weights(5))) == 1
    k4 = complete_graph(4)
    fvs = fvs_2approx(k4, unit_weights(4))
    assert total(unit_weights(4), fvs) <= 2 * exact_min_modulator(k4, "forest", unit_weights(4))[0]


def test_fvs_bound_minimality_corpus():
    for i, g in enumerate(corpus(80, 1, 10, seed0=1800)):
        w = weights_for(g, 13 + i, unit=i % 2 == 0)
        fvs = fvs_2approx(g, w)
        rest, _ = g.induced_subgraph(set(range(g.n)) - fvs)
        assert rest.m == rest.n - len(_components(rest))  # acyclic
        opt = exact_min_modulator(g, "forest", w)[0]
        assert total(w, fvs) <= 2 * opt
        for v in fvs:  # inclusion-minimal
            rest2, _ = g.induced_subgraph(set(range(g.n)) - (fvs - {v}))
            assert rest2.m > rest2.n - len(_components(rest2))


# -- Savage -------------------------------------------------------------


def test_savage_examples():
    assert cvc_savage(Graph(1, [])) == frozenset()
    assert cvc_savage(star_graph(4)) == frozenset({0})
    assert cvc_savage(path_graph(4)) == frozenset({1, 2})
    with pytest.raises(ValueError):
        cvc_savage(disjoint_union(complete_graph(2), complete_graph(2)))


def test_savage_bound_corpus():
    for g in connected_corpus(80, 1, 10, seed0=1900):
        cover = cvc_savage(g)
        assert is_connected_vertex_cover(g, cover)
        opt_cvc, _ = exact_min_cvc(g)
        opt_vc, _ = exact_min_vc(g)
        assert len(cover) <= opt_cvc + opt_vc


# -- weighted 2-approximation --------------------------------------------


def test_vc2approx_examples():
    assert vc_2approx(path_graph(2)) == frozenset({0, 1})
    assert vc_2approx(Graph(3, [])) == frozenset()
    c5 = cycle_graph(5)
    assert total(unit_weights(5), vc_2approx(c5)) <= 6


def test_vc2approx_unit_path_matches_weighted_corpus():
    # the matching path taken without weights is the weighted local ratio
    # at unit weights, edge for edge
    for g in corpus(80, 0, 12, seed0=2100):
        assert vc_2approx(g) == vc_2approx(g, unit_weights(g.n))


def test_vc2approx_within_matches_induced_subgraph_corpus():
    """vc_2approx, vc_fvs, lp_half_integral_vc, fvs_2approx and wvc_forest
    on a vertex mask answer in G's ids what they answer on the induced
    subgraph, mapped back.  wvc_forest is asked on G[within] less a
    feedback vertex set, a forest, and on G[within] itself, which raises
    with a cycle inside the mask when it has one."""
    for i, g in enumerate(corpus(60, 1, 12, seed0=2150)):
        within = sum(1 << v for v in range(g.n) if (v * 7 + i) % 3)
        sub, old = g.induced_subgraph(bits(within))
        lift = lambda vs: {old[v] for v in vs}
        for w in (None, weights_for(g, 2160 + i, unit=False)):
            sub_w = None if w is None else tuple(w[v] for v in old)
            assert vc_2approx(g, w, within=within) == lift(vc_2approx(sub, sub_w))
            assert vc_fvs(g, w, within).cover == lift(vc_fvs(sub, sub_w).cover)

            lp, sub_lp = lp_half_integral_vc(g, w, within), lp_half_integral_vc(sub, sub_w)
            assert lp.objective == sub_lp.objective
            assert [lp.values[v] for v in old] == list(sub_lp.values)
            assert all(lp.values[v] == 0 for v in range(g.n) if not within >> v & 1)
            assert (lp.v0, lp.v_half, lp.v1) == tuple(map(lift, (sub_lp.v0, sub_lp.v_half, sub_lp.v1)))
            assert len(lp.v0) + len(lp.v_half) + len(lp.v1) == within.bit_count()
            assert lp.v0 | lp.v_half | lp.v1 == set(bits(within))

            w = unit_weights(g.n) if w is None else w
            sub_w = tuple(w[v] for v in old)
            fvs = fvs_2approx(g, w, within)
            assert fvs == lift(fvs_2approx(sub, sub_w))
            forest = within & ~mask_of(fvs)
            f_sub, f_old = g.induced_subgraph(bits(forest))
            assert wvc_forest(g, w, forest) == {f_old[v] for v in wvc_forest(f_sub, tuple(w[v] for v in f_old))}
            cycle = find_induced(sub, "cycle")
            if cycle is None:
                assert wvc_forest(g, w, within) == lift(wvc_forest(sub, sub_w))
                continue
            with pytest.raises(NotInClassError) as caught:
                wvc_forest(g, w, within)
            assert caught.value.witness == lift(cycle)
            assert induces_pattern(g, caught.value.witness, "cycle")


def test_vc2approx_bound_corpus():
    for i, g in enumerate(corpus(80, 1, 10, seed0=2000)):
        w = weights_for(g, 7 + i, unit=i % 2 == 0)
        cover = vc_2approx(g, w)
        assert is_vertex_cover(g, cover)
        assert total(w, cover) <= 2 * exact_min_wvc(g, w)[0]
