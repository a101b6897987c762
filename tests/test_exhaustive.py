"""Exhaustive verification on every labeled 5-vertex graph.

Sampling can miss thin failure regions; at n = 5 the whole space (1024
graphs) fits in seconds, so each guarantee is checked on all of it.
The split-parameterized bounds lean on the subtlest arguments and are
additionally swept over all 32768 graphs at n = 6 out of band (see the
decisions notes); here n = 5 keeps the suite fast.
"""

from fractions import Fraction
from itertools import combinations

from epa.certify import (
    is_connected_vertex_cover,
    is_proper_coloring,
    is_triangle_packing,
    is_vertex_cover,
)
from epa.coloring import (
    bipartite_oracle,
    color_degeneracy,
    color_greedy_mis,
    color_p3k1free,
    color_with_class_oracle,
)
from epa.connected_vc import cvc_split
from epa.graphs import Graph, unit_weights
from epa.oracle import (
    exact_chromatic,
    exact_max_tp,
    exact_min_cvc,
    exact_min_modulator,
    exact_min_vc,
    exact_min_wvc,
)
from epa.packing import tp_3maximal, tp_maximal
from epa.vertex_cover import vc_chordal, vc_fvs, vc_local_ratio_ffree, vc_split

N = 5
PAIRS = list(combinations(range(N), 2))


def every_graph():
    for code in range(1 << len(PAIRS)):
        yield Graph(N, [PAIRS[i] for i in range(len(PAIRS)) if code >> i & 1])


def test_all_vertex_cover_bounds_exhaustively():
    families = (("P3", "cluster"), ("co-P3", "cocluster"), ("P4", "cograph"))
    w = unit_weights(N)
    for g in every_graph():
        opt = exact_min_wvc(g, w)[0]
        sol = vc_fvs(g, w)
        assert is_vertex_cover(g, sol.cover)
        assert sol.size <= opt + exact_min_modulator(g, "forest", w)[0]
        sol = vc_chordal(g, w)
        assert sol.size <= Fraction(3, 2) * opt + exact_min_modulator(g, "chordal", w)[0]
        for fam, cls in families:
            sol = vc_local_ratio_ffree(g, w, fam)
            assert sol.size <= opt + 2 * exact_min_modulator(g, cls, w)[0]
        k_svd = exact_min_modulator(g, "split")[0]
        sol = vc_split(g)
        assert len(sol.cover) <= exact_min_vc(g)[0] + k_svd
        if g.is_connected():
            csol = cvc_split(g)
            assert is_connected_vertex_cover(g, csol.cover)
            assert csol.size <= exact_min_cvc(g)[0] + k_svd


def test_all_coloring_and_packing_bounds_exhaustively():
    oracle = bipartite_oracle()
    rows = (
        ("chordal", color_degeneracy, lambda c, k: c + k),
        ("cograph", color_greedy_mis, lambda c, k: c + k),
        ("cochordal", color_greedy_mis, lambda c, k: 2 * c + k - 1),
        ("p3k1-free", color_p3k1free, lambda c, k: c + k),
    )
    for g in every_graph():
        sol = color_with_class_oracle(g, oracle)
        assert is_proper_coloring(g, sol.colors)
        assert sol.colors_used <= 2 + exact_min_modulator(g, "bipartite")[0]
        for cls, run, bound in rows:
            k, mod = exact_min_modulator(g, cls)
            rest, _ = g.induced_subgraph(set(range(N)) - set(mod))
            chi_rest = exact_chromatic(rest)[0]
            assert run(g).colors_used <= bound(chi_rest, k), (cls, sorted(g.edges()))
        tp_opt = exact_max_tp(g)[0]
        a = tp_maximal(g)
        b = tp_3maximal(g)
        assert is_triangle_packing(g, a.triangles) and is_triangle_packing(g, b.triangles)
        assert a.size >= tp_opt - exact_min_modulator(g, "cluster")[0]
        assert b.size >= tp_opt - exact_min_modulator(g, "cocluster")[0]
