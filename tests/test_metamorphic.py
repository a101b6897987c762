"""Oracle-free metamorphic checks at n in the hundreds.

Rows that are exact at k = 0 agree where their classes meet, and the
weighted vertex cover rows do not depend on the unit of weight.  Neither
relation needs an exact oracle, so both reach sizes no oracle does.  A
violation is a defect of a row: its draw is never re-seeded.
"""

from fractions import Fraction

import pytest

from epa.generator import GeneratorSpec, generate, random_weights
from epa.reports import run_algorithm
from small_graphs import threshold_cograph


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
