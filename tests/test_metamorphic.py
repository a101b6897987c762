"""Oracle-free metamorphic checks at n in the hundreds.

Rows that are exact at k = 0 agree where their classes meet, and the
weighted vertex cover rows do not depend on the unit of weight, on the
order of the ids or, for classes closed under disjoint union, on whether
two graphs are solved apart or together.  No relation needs an exact
oracle, so they reach sizes no oracle does.  A violation is a defect of a
row: its draw is never re-seeded.
"""

from fractions import Fraction

import pytest

from epa.generator import GeneratorSpec, SplitMix64, generate, random_weights
from epa.reports import ROWS, run_algorithm
from small_graphs import disjoint_union, threshold_cograph

ROW = {(row.problem, row.param): row for row in ROWS}


@pytest.mark.parametrize("n", [100, 400, 700])
def test_vc_split_equals_vc_cograph_on_threshold_graphs(n):
    """A threshold graph is a split graph and a cograph, so both rows are
    exact on it."""
    g = threshold_cograph(n)
    assert run_algorithm("vc", "split", g).value == run_algorithm("vc", "cograph", g).value


@pytest.mark.parametrize("cls, param", [("cluster", "cluster"), ("cocluster", "ccluster")])
@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("seed", [1, 2])
def test_vc_rows_equal_vc_cograph_at_k0(cls, param, n, seed):
    """Cluster graphs and coclusters are cographs: at k = 0 the cluster
    row, the cocluster row and the cograph row are exact, weighted too."""
    g, _ = generate(GeneratorSpec(cls, n, 0, Fraction(1, 2), seed))
    w = random_weights(g.n, seed)
    assert run_algorithm("vc", param, g, w).value == run_algorithm("vc", "cograph", g, w).value


@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("seed", [1, 2])
def test_col_chordal_equals_col_cograph_on_cluster_graphs(n, seed):
    """A cluster graph is chordal and a cograph: both coloring rows give
    its largest clique."""
    g, _ = generate(GeneratorSpec("cluster", n, 0, Fraction(1, 2), seed))
    assert run_algorithm("col", "chordal", g).value == run_algorithm("col", "cograph", g).value


@pytest.mark.parametrize("param, cls", [("cograph", "cograph"), ("cluster", "cluster"),
                                        ("ccluster", "cocluster"), ("fvs", "forest"),
                                        ("fvs", "triangle-free"), ("chordal", "chordal")])
def test_weighted_vc_rows_are_scale_invariant(param, cls):
    """Scaling every weight by 7/3 keeps the cover and scales its weight
    by 7/3, on a planted draw of n = 200 (k = 20)."""
    g, _ = generate(GeneratorSpec(cls, 180, 20, Fraction(1, 2), 1))
    w = random_weights(g.n, 1)
    base = run_algorithm("vc", param, g, w)
    scaled = run_algorithm("vc", param, g, [x * Fraction(7, 3) for x in w])
    assert scaled.certificate == base.certificate
    assert scaled.value == base.value * Fraction(7, 3)


def _draw(problem, param, n, seed):
    """A k = 0 draw of the row's class with the row's weights (None on
    an unweighted row)."""
    row = ROW[problem, param]
    g, _ = generate(GeneratorSpec(row.modulator, n, 0, Fraction(1, 2), seed))
    return g, random_weights(g.n, seed) if row.weighted else None


RELABEL_CASES = [
    *(("vc", param, n) for param in ("cluster", "ccluster", "cograph", "fvs") for n in (200, 800)),
    ("vc", "split", 200), ("vc", "split", 400), ("cvc", "split", 40),
    ("col", "oct", 200), *(("col", param, n) for param in ("chordal", "cograph") for n in (200, 800)),
    ("col", "p3k1", 100),
    ("tp", "cluster", 200), ("tp", "cluster", 800), ("tp", "ccluster", 100),
]


@pytest.mark.parametrize("problem, param, n", RELABEL_CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_exact_rows_are_relabel_invariant_at_k0(problem, param, n, seed):
    """At k = 0 the row is exact on its class, so its value does not
    change when the ids are shuffled (splitmix64) and the weights move
    with their vertices."""
    g, w = _draw(problem, param, n, seed)
    if problem == "cvc":
        assert g.is_connected()
    perm = list(range(g.n))
    SplitMix64(seed).shuffle(perm)
    h = g.relabeled(perm)
    hw = None if w is None else [w[v] for v in perm]
    assert run_algorithm(problem, param, h, hw).value == run_algorithm(problem, param, g, w).value


@pytest.mark.parametrize("problem, param", [("vc", "cluster"), ("vc", "cograph"), ("vc", "fvs"),
                                            ("tp", "cluster")])
@pytest.mark.parametrize("n", [200, 400])
def test_exact_rows_add_over_disjoint_unions_at_k0(problem, param, n):
    """Clusters, cographs and forests are closed under disjoint union:
    at k = 0 the row's value on G + H is its value on G plus on H, with
    H half as large as G."""
    g, gw = _draw(problem, param, n, 1)
    h, hw = _draw(problem, param, n // 2, 2)
    union_w = None if gw is None else gw + hw
    value = run_algorithm(problem, param, disjoint_union(g, h), union_w).value
    assert value == run_algorithm(problem, param, g, gw).value + run_algorithm(problem, param, h, hw).value
