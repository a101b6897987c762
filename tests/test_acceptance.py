"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured scope (run with ``pytest tests/test_acceptance.py -s``).

Every bound is checked with exact rational arithmetic against the
brute-force oracles; a single violation fails the criterion.
"""

import time
from fractions import Fraction

from epa import certify
from epa.coloring import (
    bipartite_oracle,
    color_degeneracy,
    color_greedy_mis,
    color_p3k1free,
    color_with_class_oracle,
    degeneracy_oracle,
)
from epa.connected_vc import cvc_budgeted, cvc_split
from epa.generator import (
    GeneratorSpec,
    chained_triangle_complement,
    generate,
    random_connected_graph,
    random_graph,
    random_weights,
)
from epa.graphs import total, unit_weights
from epa.oracle import (
    OracleBudget,
    exact_chromatic,
    exact_lp_vc,
    exact_max_matching_size,
    exact_max_tp,
    exact_min_cvc,
    exact_min_modulator,
    exact_min_vc,
    exact_min_wvc,
)
from epa.packing import tp_3maximal, tp_maximal
from epa.reports import bench
from epa.solvers import (
    cvc_savage,
    fvs_2approx,
    lp_half_integral_vc,
    max_matching,
    vc_2approx,
)
from epa.vertex_cover import (
    vc_budgeted_2approx,
    vc_chordal,
    vc_fvs,
    vc_local_ratio_ffree,
    vc_split,
)
from conftest import _components

DENSITIES = (Fraction(1, 6), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(3, 4))


def _graphs(count, n_lo, n_hi, seed0, connected=False):
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        d = DENSITIES[i % len(DENSITIES)]
        if connected:
            yield random_connected_graph(n, d, seed0 + i)
        else:
            yield random_graph(n, d, seed0 + i)


def _report(idx, desc, scope, elapsed):
    print(f"ACCEPTANCE {idx} PASS: {desc} [{scope}; {elapsed:.1f}s]")


# ---------------------------------------------------------------------


def test_acceptance_1_feasibility_suite():
    t0 = time.perf_counter()

    def is_acyclic_without(g, fvs):
        rest, _ = g.induced_subgraph(set(range(g.n)) - set(fvs))
        return rest.m == rest.n - len(_components(rest))

    runners = [
        ("vc-ffree[P3]", False,
         lambda g: vc_local_ratio_ffree(g, unit_weights(g.n), "P3").cover,
         certify.is_vertex_cover),
        ("vc-ffree[co-P3]", False,
         lambda g: vc_local_ratio_ffree(g, unit_weights(g.n), "co-P3").cover,
         certify.is_vertex_cover),
        ("vc-ffree[P4]", False,
         lambda g: vc_local_ratio_ffree(g, random_weights(g.n, g.m), "P4").cover,
         certify.is_vertex_cover),
        ("vc-fvs", False, lambda g: vc_fvs(g, random_weights(g.n, g.n + g.m)).cover,
         certify.is_vertex_cover),
        ("vc-chordal", False, lambda g: vc_chordal(g).cover, certify.is_vertex_cover),
        ("vc-split", False, lambda g: vc_split(g).cover, certify.is_vertex_cover),
        ("vc-budgeted", False, lambda g: vc_budgeted_2approx(g, 2).cover,
         certify.is_vertex_cover),
        ("vc-2approx", False, lambda g: vc_2approx(g), certify.is_vertex_cover),
        ("cvc-split", True, lambda g: cvc_split(g).cover, certify.is_connected_vertex_cover),
        ("cvc-budgeted", True, lambda g: cvc_budgeted(g.adj_bits, g.full_mask, 2).cover,
         certify.is_connected_vertex_cover),
        ("cvc-savage", True, lambda g: cvc_savage(g), certify.is_connected_vertex_cover),
        ("col-oracle[bipartite]", False,
         lambda g: color_with_class_oracle(g, bipartite_oracle()).colors,
         certify.is_proper_coloring),
        ("col-oracle[degeneracy]", False,
         lambda g: color_with_class_oracle(g, degeneracy_oracle(6)).colors,
         certify.is_proper_coloring),
        ("col-degeneracy", False, lambda g: color_degeneracy(g).colors,
         certify.is_proper_coloring),
        ("col-greedy-mis", False, lambda g: color_greedy_mis(g).colors,
         certify.is_proper_coloring),
        ("col-p3k1free", False, lambda g: color_p3k1free(g).colors,
         certify.is_proper_coloring),
        ("tp-maximal", False, lambda g: tp_maximal(g).triangles, certify.is_triangle_packing),
        ("tp-3maximal", False, lambda g: tp_3maximal(g).triangles, certify.is_triangle_packing),
        ("fvs-2approx", False, lambda g: fvs_2approx(g, random_weights(g.n, g.m + 1)),
         is_acyclic_without),
        ("max-matching", False, lambda g: max_matching(g), certify.is_matching),
    ]
    per_runner = 260
    failures = 0
    graphs_run = 0
    for r, (name, needs_connected, run, check) in enumerate(runners):
        for g in _graphs(per_runner, 3, 16, seed0=100_000 + 10_000 * r, connected=needs_connected):
            graphs_run += 1
            out = run(g)
            if not check(g, out):
                failures += 1
                print(f"FEASIBILITY FAILURE {name} on {sorted(g.edges())}")
    elapsed = time.perf_counter() - t0
    assert graphs_run >= 5000
    assert failures == 0
    assert elapsed < 120
    _report(1, "feasibility of every algorithm's certificate",
            f"{graphs_run} runs over {len(runners)} algorithms, n <= 16", elapsed)


def test_acceptance_2_vertex_cover_bounds():
    t0 = time.perf_counter()
    budget = OracleBudget()
    count = 2000
    violations = 0
    for i, g in enumerate(_graphs(count, 3, 10, seed0=200_000)):
        unit = i % 2 == 0
        w = unit_weights(g.n) if unit else random_weights(g.n, 200_000 + i)
        opt_w, _ = exact_min_wvc(g, w, budget)
        k_fvs, _ = exact_min_modulator(g, "forest", w, budget)
        sol = vc_fvs(g, w)
        if not certify.is_vertex_cover(g, sol.cover) or total(w, sol.cover) > opt_w + k_fvs:
            violations += 1
        k_ch, _ = exact_min_modulator(g, "chordal", w, budget)
        sol = vc_chordal(g, w)
        if not certify.is_vertex_cover(g, sol.cover) or total(w, sol.cover) > Fraction(3, 2) * opt_w + k_ch:
            violations += 1
        for fam, cls in (("P4", "cograph"), ("P3", "cluster"), ("co-P3", "cocluster")):
            k_mod, _ = exact_min_modulator(g, cls, w, budget)
            sol = vc_local_ratio_ffree(g, w, fam)
            if not certify.is_vertex_cover(g, sol.cover) or total(w, sol.cover) > opt_w + 2 * k_mod:
                violations += 1
        opt_u, _ = exact_min_vc(g, budget)
        k_svd, _ = exact_min_modulator(g, "split", None, budget)
        sol = vc_split(g)
        if not certify.is_vertex_cover(g, sol.cover) or len(sol.cover) > opt_u + k_svd:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 300
    _report(2, "vc_fvs/vc_split/vc_chordal/F-free local-ratio bounds, exact arithmetic",
            f"{count} instances, n <= 10, unit+rational weights", elapsed)


def test_acceptance_3_connected_vc_bound():
    t0 = time.perf_counter()
    count = 1000
    violations = 0
    for i, g in enumerate(_graphs(count, 3, 10, seed0=300_000, connected=True)):
        sol = cvc_split(g)
        opt, _ = exact_min_cvc(g)
        k, _ = exact_min_modulator(g, "split")
        if not certify.is_connected_vertex_cover(g, sol.cover) or sol.size > opt + k:
            violations += 1
            print(f"CVC VIOLATION on {sorted(g.edges())}")
    elapsed = time.perf_counter() - t0
    assert violations == 0
    _report(3, "cvc_split <= OPT_CVC + OPT_SVD",
            f"{count} connected instances, n <= 10", elapsed)


def test_acceptance_4_coloring_bounds():
    t0 = time.perf_counter()
    violations = 0
    oracle = bipartite_oracle()
    n_oct = 2000
    for g in _graphs(n_oct, 3, 10, seed0=400_000):
        sol = color_with_class_oracle(g, oracle)
        k, _ = exact_min_modulator(g, "bipartite")
        if not certify.is_proper_coloring(g, sol.colors) or sol.colors_used > 2 + k:
            violations += 1
    n_rest = 800
    for i, g in enumerate(_graphs(n_rest, 3, 9, seed0=410_000)):
        for cls, run, bound in (
            ("chordal", color_degeneracy, lambda c, k: c + k),
            ("cograph", color_greedy_mis, lambda c, k: c + k),
            ("cochordal", color_greedy_mis, lambda c, k: 2 * c + k - 1),
            ("p3k1-free", color_p3k1free, lambda c, k: c + k),
        ):
            k, mod = exact_min_modulator(g, cls)
            rest, _ = g.induced_subgraph(set(range(g.n)) - set(mod))
            chi_rest, _ = exact_chromatic(rest)
            sol = run(g)
            if not certify.is_proper_coloring(g, sol.colors) or sol.colors_used > bound(chi_rest, k):
                violations += 1
                print(f"COLOR VIOLATION {cls} on {sorted(g.edges())}")
    elapsed = time.perf_counter() - t0
    assert violations == 0
    _report(4, "class-oracle/degeneracy/MIS/two-phase coloring bounds",
            f"{n_oct} + {n_rest}x4 instances, n <= 10", elapsed)


def test_acceptance_5_tightness_family():
    t0 = time.perf_counter()
    budget = OracleBudget(coloring=12, modulator=12)
    for gadgets in (3, 4):
        h = chained_triangle_complement(gadgets)
        chi, _ = exact_chromatic(h, budget)
        assert chi == gadgets
        k, _ = exact_min_modulator(h, "cochordal", None, budget)
        assert k == 0
        sol = color_greedy_mis(h)
        assert certify.is_proper_coloring(h, sol.colors)
        assert sol.colors_used == 2 * gadgets - 1
        assert sol.colors_used <= 2 * chi + k - 1
    elapsed = time.perf_counter() - t0
    _report(5, "cochordal tightness family: greedy hits exactly 2n-1 colors, chi = n",
            "gadget counts 3 and 4", elapsed)


def test_acceptance_6_triangle_packing():
    t0 = time.perf_counter()
    violations = 0
    count = 1000
    for g in _graphs(count, 3, 10, seed0=600_000):
        opt, _ = exact_max_tp(g)
        k_cvd, _ = exact_min_modulator(g, "cluster")
        k_ccvd, _ = exact_min_modulator(g, "cocluster")
        a = tp_maximal(g)
        b = tp_3maximal(g)
        if not certify.is_triangle_packing(g, a.triangles) or a.size < opt - k_cvd:
            violations += 1
        if not certify.is_triangle_packing(g, b.triangles) or b.size < opt - k_ccvd:
            violations += 1
    coclusters = 500
    budget = OracleBudget()
    for i in range(coclusters):
        g, _ = generate(GeneratorSpec("cocluster", 9 + i % 4, 0, Fraction(1, 2), 610_000 + i))
        opt, _ = exact_max_tp(g, budget)
        sol = tp_3maximal(g)
        if sol.size != opt:
            violations += 1
            print(f"TP COCLUSTER MISS on {sorted(g.edges())}")
    elapsed = time.perf_counter() - t0
    assert violations == 0
    _report(6, "tp_maximal >= OPT-CVD, tp_3maximal >= OPT-CCVD, exact on coclusters",
            f"{count} random + {coclusters} coclusters, n <= 12", elapsed)


def test_acceptance_7_subroutine_contracts():
    t0 = time.perf_counter()
    violations = 0
    n_lp = 1500
    for i, g in enumerate(_graphs(n_lp, 1, 10, seed0=700_000)):
        w = unit_weights(g.n) if i % 2 else random_weights(g.n, 700_000 + i)
        lp = lp_half_integral_vc(g, w)
        if lp.objective != exact_lp_vc(g, w):
            violations += 1
        opt_w, _ = exact_min_wvc(g, w)
        best = None
        for mask in range(1 << g.n):
            chosen = {v for v in range(g.n) if mask >> v & 1}
            if lp.v1 <= chosen and not chosen & lp.v0 and certify.is_vertex_cover(g, chosen):
                c = total(w, chosen)
                if best is None or c < best:
                    best = c
        if best != opt_w:
            violations += 1
    n_rest = 2000
    for i, g in enumerate(_graphs(n_rest, 1, 10, seed0=710_000)):
        w = random_weights(g.n, 710_000 + i)
        fvs = fvs_2approx(g, w)
        rest, _ = g.induced_subgraph(set(range(g.n)) - fvs)
        k_fvs, _ = exact_min_modulator(g, "forest", w)
        if rest.m != rest.n - len(_components(rest)) or total(w, fvs) > 2 * k_fvs:
            violations += 1
    for g in _graphs(n_rest, 1, 10, seed0=720_000, connected=True):
        cover = cvc_savage(g)
        opt_cvc, _ = exact_min_cvc(g)
        opt_vc, _ = exact_min_vc(g)
        if not certify.is_connected_vertex_cover(g, cover) or len(cover) > opt_cvc + opt_vc:
            violations += 1
    n_matching = 800
    for g in _graphs(n_matching, 1, 12, seed0=730_000):
        m = max_matching(g)
        if not certify.is_matching(g, m) or len(m) != exact_max_matching_size(g):
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 300
    _report(7, "LP = oracle LP + NT persistency, FVS <= 2*OPT, Savage <= CVC+VC, matching = oracle",
            f"{n_lp}+{n_rest}x2+{n_matching} instances", elapsed)


def test_acceptance_8_exact_on_class():
    t0 = time.perf_counter()
    per = 300
    violations = 0
    for i in range(per):
        g, _ = generate(GeneratorSpec("split", 8 + i % 3, 0, Fraction(1, 2), 800_000 + i))
        if vc_split(g).size != exact_min_vc(g)[0]:
            violations += 1
    for i in range(per):
        g, _ = generate(GeneratorSpec("forest", 9 + i % 3, 0, Fraction(1, 2), 810_000 + i))
        w = unit_weights(g.n) if i % 2 else random_weights(g.n, 810_000 + i)
        if total(w, vc_fvs(g, w).cover) != exact_min_wvc(g, w)[0]:
            violations += 1
    for i in range(per):
        g, _ = generate(GeneratorSpec("cograph", 8 + i % 3, 0, Fraction(1, 2), 820_000 + i))
        if color_greedy_mis(g).colors_used != exact_chromatic(g)[0]:
            violations += 1
    for i in range(per):
        g, _ = generate(GeneratorSpec("cocluster", 9 + i % 4, 0, Fraction(1, 2), 830_000 + i))
        if tp_3maximal(g).size != exact_max_tp(g)[0]:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    _report(8, "k = 0 classes solved exactly (split VC, forest WVC, cograph coloring, cocluster packing)",
            f"{per} instances each", elapsed)


def test_acceptance_9_bench_determinism():
    t0 = time.perf_counter()
    specs = [
        GeneratorSpec(base, 8, k, Fraction(1, 2), seed)
        for base in ("cluster", "split", "bipartite", "cochordal")
        for k in (0, 1)
        for seed in range(4)
    ]
    one = bench(specs, workers=1)
    two = bench(specs, workers=1)
    multi = bench(specs, workers=3)
    assert one == two
    assert one == multi
    assert one.splitlines()[0].startswith("seed,class,n")
    elapsed = time.perf_counter() - t0
    _report(9, "bench output byte-identical across runs and worker counts",
            f"{len(specs)} instances, workers 1 vs 3", elapsed)
