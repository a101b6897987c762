"""Dispatch, guarantee verification and benchmarking from one row table.

``ROWS`` lists the guarantee rows in README order: problem, parameter,
modulator class, solver, bound formula and its evaluator, whether the row
is weighted, and the generator classes whose ``epa bench`` sweep runs it.
``PROBLEMS`` holds what the rows of one problem share: certificate,
checker, value, exact-optimum oracle, sense, oracle order, and the key
and 1-based form of the certificate in ``epa oracle`` output.  Dispatch,
verification, the CLI's choices, ``epa oracle`` and the bench rows all
derive from these two tables.
The verifier recomputes the solution value from the certificate and the
pass flag from the oracle numbers; nothing is taken from the solver's own
report.  A weighted row whose weights are all 1 is valued and checked as
an unweighted one (``oracle_weights``), and ``epa bench`` asks each exact
question of an instance once, sharing the answer across its rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from . import certify
from .coloring import (
    bipartite_oracle,
    color_degeneracy,
    color_greedy_mis,
    color_p3k1free,
    color_with_class_oracle,
)
from .connected_vc import cvc_split
from .generator import GeneratorSpec, generate
from .graphs import Graph, Weights, total
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    exact_chromatic,
    exact_max_tp,
    exact_min_cvc,
    exact_min_modulator,
    exact_min_vc,
    exact_min_wvc,
)
from .packing import tp_3maximal, tp_maximal
from .solvers import vc_2approx
from .vertex_cover import (
    vc_chordal,
    vc_fvs,
    vc_local_ratio_ffree,
    vc_split,
)


class UnsupportedPair(ValueError):
    pass


@dataclass(frozen=True)
class Problem:
    """What the rows of one problem share.  ``w`` is None on unweighted rows."""

    certificate: Callable   # solution -> certificate (sorted cover, colors, triangles)
    feasible: Callable      # (g, certificate) -> bool, by epa.certify
    value: Callable         # (certificate, w) -> objective value
    optimum: Callable       # (g, w, budget) -> exact optimum, by epa.oracle
    minimize: bool
    optimum_first: bool     # computed before the modulator; col bounds need M first
    key: str                # name of the certificate in ``epa oracle`` output
    render: Callable        # certificate -> its 1-based form for output


@dataclass(frozen=True)
class Row:
    """One guarantee row of the README table."""

    problem: str
    param: str
    modulator: str          # class that k is the minimum modulator to
    solve: Callable         # (g, w) -> solution with its own ``algorithm`` label
    formula: str
    bound: Callable         # (opt, k, chi(G-M)) -> bound; chi(G-M) only if named in formula
    weighted: bool
    bench: tuple[str, ...]  # generator classes whose ``epa bench`` sweep runs the row


def _one_based(vertices) -> list[int]:
    return sorted(v + 1 for v in vertices)


# Callables look the solvers, checkers and oracles up at call time, so a
# rebinding of a module attribute (a tracer, a test double) reaches them.
PROBLEMS: dict[str, Problem] = {
    "vc": Problem(
        lambda sol: sorted(sol.cover),
        lambda g, c: certify.is_vertex_cover(g, c),
        lambda c, w: len(c) if w is None else total(w, c),
        lambda g, w, b: exact_min_vc(g, b) if w is None else exact_min_wvc(g, w, b),
        minimize=True, optimum_first=True, key="cover", render=_one_based),
    "cvc": Problem(
        lambda sol: sorted(sol.cover),
        lambda g, c: certify.is_connected_vertex_cover(g, c),
        lambda c, w: len(c),
        lambda g, w, b: exact_min_cvc(g, b),
        minimize=True, optimum_first=True, key="cover", render=_one_based),
    "col": Problem(
        lambda sol: list(sol.colors),
        lambda g, c: certify.is_proper_coloring(g, c),
        lambda c, w: len(set(c)),
        lambda g, w, b: exact_chromatic(g, b),
        minimize=True, optimum_first=False, key="coloring", render=list),
    "tp": Problem(
        lambda sol: [sorted(t) for t in sol.triangles],
        lambda g, c: certify.is_triangle_packing(g, c),
        lambda c, w: len(c),
        lambda g, w, b: exact_max_tp(g, b),
        minimize=False, optimum_first=True, key="packing",
        render=lambda c: [_one_based(t) for t in c]),
}

ROWS: tuple[Row, ...] = (
    Row("vc", "cograph", "cograph", lambda g, w: vc_local_ratio_ffree(g, w, "P4"),
        "OPT_WVC + 2*OPT_COGRAPH", lambda opt, k, chi: opt + 2 * k, True, ("cograph",)),
    Row("vc", "cluster", "cluster", lambda g, w: vc_local_ratio_ffree(g, w, "P3"),
        "OPT_WVC + 2*OPT_CLUSTER", lambda opt, k, chi: opt + 2 * k, True, ("cluster",)),
    Row("vc", "ccluster", "cocluster", lambda g, w: vc_local_ratio_ffree(g, w, "co-P3"),
        "OPT_WVC + 2*OPT_COCLUSTER", lambda opt, k, chi: opt + 2 * k, True, ("cocluster",)),
    Row("vc", "fvs", "forest", lambda g, w: vc_fvs(g, w), "OPT_WVC + OPT_FVS",
        lambda opt, k, chi: opt + k, True, ("forest", "edgeless", "triangle-free")),
    Row("vc", "chordal", "chordal", lambda g, w: vc_chordal(g, w), "(3/2)*OPT_WVC + OPT_CHVD",
        lambda opt, k, chi: Fraction(3, 2) * opt + k, True, ("chordal",)),
    Row("vc", "split", "split", lambda g, w: vc_split(g), "OPT_VC + OPT_SVD",
        lambda opt, k, chi: opt + k, False, ("split",)),
    Row("cvc", "split", "split", lambda g, w: cvc_split(g), "OPT_CVC + OPT_SVD",
        lambda opt, k, chi: opt + k, False, ("split",)),
    Row("col", "oct", "bipartite", lambda g, w: color_with_class_oracle(g, bipartite_oracle()),
        "2 + OPT_OCT", lambda opt, k, chi: 2 + k, False, ("bipartite",)),
    Row("col", "chordal", "chordal", lambda g, w: color_degeneracy(g), "chi(G-M) + |M|",
        lambda opt, k, chi: chi + k, False, ("chordal",)),
    Row("col", "cograph", "cograph", lambda g, w: color_greedy_mis(g), "chi(G-M) + |M|",
        lambda opt, k, chi: chi + k, False, ("cograph",)),
    # 2*chi + k - 1 is negative only on the empty graph, whose bound is 0.
    Row("col", "cchordal", "cochordal", lambda g, w: color_greedy_mis(g),
        "2*chi(G-M) + |M| - 1", lambda opt, k, chi: max(2 * chi + k - 1, 0), False,
        ("cochordal",)),
    Row("col", "p3k1", "p3k1-free", lambda g, w: color_p3k1free(g), "chi(G-M) + |M|",
        lambda opt, k, chi: chi + k, False, ("p3k1-free",)),
    Row("tp", "cluster", "cluster", lambda g, w: tp_maximal(g), "OPT_TP - OPT_CLUSTER",
        lambda opt, k, chi: opt - k, False, ("cluster",)),
    Row("tp", "ccluster", "cocluster", lambda g, w: tp_3maximal(g), "OPT_TP - OPT_COCLUSTER",
        lambda opt, k, chi: opt - k, False, ("cocluster",)),
)

PARAMS = tuple(dict.fromkeys(row.param for row in ROWS))
_BY_PAIR = {(row.problem, row.param): row for row in ROWS}


def _row(problem: str, param: str, missing: str) -> Row:
    row = _BY_PAIR.get((problem, param))
    if row is None:
        raise UnsupportedPair(f"no {missing} for problem={problem} param={param}")
    return row


@dataclass(frozen=True)
class RunResult:
    algorithm: str
    value: Fraction | int
    certificate: object        # cover / coloring / triangle list
    feasible: bool
    micros: int


@dataclass(frozen=True)
class GuaranteeReport:
    problem: str
    param: str
    algorithm: str
    value: Fraction | int
    opt: Fraction | int
    k_oracle: Fraction | int
    bound_formula: str
    bound_value: Fraction
    passed: bool
    feasible: bool
    micros: int


def oracle_weights(weighted: bool, w: Optional[Weights]) -> Optional[Weights]:
    """The weights a row is valued and checked with: ``w`` (as a tuple) if
    the row is weighted and some weight is not 1, else None, so that unit
    weights count a cover by its size and ask the unweighted oracles."""
    return tuple(w) if weighted and w is not None and any(x != 1 for x in w) else None


def run_algorithm(problem: str, param: str, g: Graph, w: Optional[Weights] = None) -> RunResult:
    """Run the row's algorithm on ints in the ratios of ``oracle_weights``;
    the value is recomputed from the certificate by the independent checkers."""
    row = _row(problem, param, "algorithm")
    prob = PROBLEMS[problem]
    wk = oracle_weights(row.weighted, w)
    scale = lcm(*(x.denominator for x in wk)) if wk else 1
    ws = [x.numerator * (scale // x.denominator) for x in wk] if wk else [1] * g.n
    start = time.perf_counter_ns()
    sol = row.solve(g, ws)
    micros = (time.perf_counter_ns() - start) // 1000
    cert = prob.certificate(sol)
    return RunResult(sol.algorithm, prob.value(cert, wk), cert, prob.feasible(g, cert), micros)


def _asked(answers: dict, question: tuple, ask: Callable[[], tuple]) -> tuple:
    """The answer to ``question``, from the oracle the first time it is asked."""
    if question not in answers:
        answers[question] = ask()
    return answers[question]


def _optimum(answers: dict, problem: str, g: Graph, wk: Optional[Weights],
             budget: OracleBudget) -> tuple:
    return _asked(answers, (problem, wk), lambda: PROBLEMS[problem].optimum(g, wk, budget))


def verify_guarantee(
    problem: str,
    param: str,
    g: Graph,
    w: Optional[Weights] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
    *,
    answers: Optional[dict] = None,
) -> GuaranteeReport:
    """Run the algorithm and evaluate its bound with oracle ground truth.

    ``answers`` holds the exact answers already found on ``g`` under
    ``budget``, keyed by question: (problem, weights) for an optimum and
    (modulator class, weights) for a modulator; problem and class names
    are disjoint.  New answers are added to it, and the report is the
    same with or without it."""
    row = _row(problem, param, "guarantee row")
    prob = PROBLEMS[problem]
    if answers is None:
        answers = {}
    res = run_algorithm(problem, param, g, w)
    wk = oracle_weights(row.weighted, w)
    if prob.optimum_first:
        opt, _ = _optimum(answers, problem, g, wk, budget)
    k, mod = _asked(answers, (row.modulator, wk),
                    lambda: exact_min_modulator(g, row.modulator, wk, budget))
    chi = None
    if "chi(G-M)" in row.formula:
        if mod:
            rest, _ = g.induced_subgraph(set(range(g.n)) - set(mod))
            chi, _ = exact_chromatic(rest, budget)
        else:   # chi(G - M) is chi(G), the col optimum
            chi, _ = _optimum(answers, "col", g, None, budget)
    if not prob.optimum_first:
        opt, _ = _optimum(answers, problem, g, wk, budget)
    bound = Fraction(row.bound(opt, k, chi))
    value = Fraction(res.value)
    passed = res.feasible and (value <= bound if prob.minimize else value >= bound)
    return GuaranteeReport(
        problem=problem,
        param=param,
        algorithm=res.algorithm,
        value=res.value,
        opt=opt,
        k_oracle=k,
        bound_formula=row.formula,
        bound_value=bound,
        passed=passed,
        feasible=res.feasible,
        micros=res.micros,
    )


# ---------------------------------------------------------------------
# benchmarking


CSV_HEADER = "seed,class,n,k_planted,k_oracle,alg,value,opt,bound,pass,micros"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    return str(x)


def bench_instance(spec: GeneratorSpec, budget: OracleBudget, timing: bool) -> list[str]:
    """CSV rows for one generated instance (EPA rows plus baselines).
    Its rows and the vc-2approx lines share one table of exact answers."""
    g, planted = generate(spec)
    rows: list[str] = []
    answers: dict = {}

    def line(alg, value, micros, k=None, opt=None, bound=None, passed=None) -> None:
        cells = (spec.seed, spec.base, g.n, len(planted), k, alg, value, opt, bound, passed,
                 micros if timing else 0)
        rows.append(",".join(_fmt(c) for c in cells))

    within = g.n <= min(budget.modulator, budget.vc, budget.cvc, budget.coloring, budget.tp)
    for row in ROWS:
        if spec.base not in row.bench or row.problem == "cvc" and not g.is_connected():
            continue
        if within:
            rep = verify_guarantee(row.problem, row.param, g, None, budget, answers=answers)
            line(rep.algorithm, rep.value, rep.micros, rep.k_oracle, rep.opt, rep.bound_value,
                 rep.passed)
        else:
            res = run_algorithm(row.problem, row.param, g, None)
            line(res.algorithm, res.value, res.micros)
        if row.problem != "vc":
            continue
        start = time.perf_counter_ns()
        cover = vc_2approx(g)
        micros = (time.perf_counter_ns() - start) // 1000
        if g.n <= budget.vc:
            opt, _ = _optimum(answers, "vc", g, None, budget)
            passed = certify.is_vertex_cover(g, cover) and len(cover) <= 2 * opt
            line("vc-2approx", len(cover), micros, None, opt, Fraction(2 * opt), passed)
        else:
            line("vc-2approx", len(cover), micros)
    return rows


def bench(
    specs: list[GeneratorSpec],
    budget: OracleBudget = DEFAULT_BUDGET,
    timing: bool = False,
    workers: int = 1,
) -> str:
    """Deterministic CSV: rows sorted by (seed, class, algorithm) so the
    bytes do not depend on worker scheduling.  It starts at most one
    worker process per instance, and none for a single instance."""
    args = [(s, budget, timing) for s in specs]
    workers = min(workers, len(args))
    if workers <= 1:
        chunks = [bench_instance(*a) for a in args]
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            chunks = pool.starmap(bench_instance, args)
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (int(r.split(",")[0]), r.split(",")[1], r.split(",")[5]))
    out = CSV_HEADER + "\n"
    if rows:
        out += "\n".join(rows) + "\n"
    return out
