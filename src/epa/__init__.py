"""Additive-error approximation algorithms for vertex cover, connected
vertex cover, chromatic number and triangle packing, parameterized by
modulators to tractable graph classes, together with brute-force oracles
that certify every guarantee at desk scale."""

from .graphs import Graph, Weights, as_weights, total, unit_weights
from .recognize import Recognition, Cotree, NotInClassError, build_cotree, find_induced, recognize
from .solvers import (
    HalfIntegralLP,
    cvc_savage,
    fvs_2approx,
    lp_half_integral_vc,
    max_matching,
    vc_2approx,
    wvc_cluster,
    wvc_cograph,
    wvc_forest,
)
from .vertex_cover import (
    VertexCoverSol,
    two_maximal_clique,
    vc_budgeted_2approx,
    vc_chordal,
    vc_fvs,
    vc_local_ratio_ffree,
    vc_split,
)
from .connected_vc import (
    connected_subsets,
    cvc_budgeted,
    cvc_small_after_contraction,
    cvc_split,
)
from .coloring import (
    ClassColoringOracle,
    ColoringSol,
    bipartite_oracle,
    color_degeneracy,
    color_greedy_mis,
    color_p3k1free,
    color_with_class_oracle,
    degeneracy_oracle,
)
from .packing import TrianglePackingSol, tp_3maximal, tp_maximal
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
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
from .generator import (
    GenerationError,
    GeneratorSpec,
    SplitMix64,
    chained_triangle_complement,
    generate,
    random_connected_graph,
    random_graph,
    random_weights,
)
from .instances import ParseError, parse_instance, serialize_instance
from .reports import GuaranteeReport, UnsupportedPair, bench, run_algorithm, verify_guarantee

__version__ = "0.1.0"
