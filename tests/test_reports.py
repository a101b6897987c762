import re
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from epa import certify, reports
from epa.generator import GENERATOR_CLASSES, GeneratorSpec, random_weights
from epa.graphs import total, unit_weights
from epa.oracle import DEFAULT_BUDGET
from epa.reports import ROWS
from small_graphs import cycle_graph

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_guarantees_table_matches_rows():
    text = README.read_text(encoding="utf-8")
    table = text.split("## Guarantees", 1)[1].split("\n\n")[1]
    listed = []
    for line in table.splitlines()[2:]:
        problem, param = line.split("|")[1:3]
        listed.append((re.search(r"`(\w+)`", problem)[1], re.search(r"`(\w+)`", param)[1],
                       problem.strip().startswith("weighted")))
    assert listed == [(row.problem, row.param, row.weighted) for row in ROWS]


@pytest.mark.parametrize("problem, param, weighted, expect", [
    ("vc", "split", True, ["vc_split", "is_vertex_cover", "exact_min_vc", "exact_min_modulator"]),
    ("vc", "fvs", True, ["vc_fvs", "is_vertex_cover", "exact_min_wvc", "exact_min_modulator"]),
    ("col", "chordal", True, ["color_degeneracy", "is_proper_coloring", "exact_min_modulator",
                              "exact_chromatic:4", "exact_chromatic:5"]),
    ("vc", "fvs", False, ["vc_fvs", "is_vertex_cover", "exact_min_vc", "exact_min_modulator"]),
], ids=["vc-split-expect0", "vc-fvs-expect1", "col-chordal-expect2", "vc-fvs-unit-weights"])
def test_rows_reach_rebound_module_attributes(problem, param, weighted, expect, monkeypatch):
    """Rows call solvers, checkers and oracles through module attributes at
    call time, so a rebinding (a tracer, a spy) sees every call; the
    unweighted split row and a weighted row at unit weights ask the
    unweighted oracle; oracles run in order."""
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(g, *args, **kwargs):
            calls.append(f"{name}:{g.n}" if name == "exact_chromatic" else name)
            return fn(g, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("vc_split", "vc_fvs", "color_degeneracy", "exact_min_vc", "exact_min_wvc",
                 "exact_min_modulator", "exact_chromatic"):
        spy(reports, name)
    for name in ("is_vertex_cover", "is_proper_coloring"):
        spy(certify, name)
    g = cycle_graph(5)
    w = random_weights(5, 1) if weighted else unit_weights(5)
    rep = reports.verify_guarantee(problem, param, g, w)
    assert calls == expect and rep.passed


ORACLES = ("exact_min_vc", "exact_min_wvc", "exact_min_cvc", "exact_chromatic", "exact_max_tp",
           "exact_min_modulator")


@pytest.mark.parametrize("base", GENERATOR_CLASSES)
def test_bench_asks_each_oracle_question_once(base, monkeypatch):
    """One ``bench_instance`` asks each oracle each question (graph and
    arguments) at most once, across its rows and the vc-2approx line, and
    never the weighted cover oracle: bench instances have unit weights."""
    asked = []

    def spy(name):
        fn = getattr(reports, name)

        def wrapper(g, *args):
            asked.append((name, g.n, tuple(g.adj_bits), repr(args)))
            return fn(g, *args)

        monkeypatch.setattr(reports, name, wrapper)

    for name in ORACLES:
        spy(name)
    for k in (0, 2):
        asked.clear()
        reports.bench_instance(GeneratorSpec(base, 8, k, Fraction(1, 2), 3), DEFAULT_BUDGET,
                               False)
        assert asked and len(set(asked)) == len(asked)
        assert all(name != "exact_min_wvc" for name, *_ in asked)


@pytest.mark.parametrize("row", [row for row in ROWS if row.weighted],
                         ids=lambda row: f"{row.problem}-{row.param}")
def test_weighted_rows_get_int_weights(row, monkeypatch):
    """``run_algorithm`` hands a weighted row's solver Python ints: all 1
    without weights or at unit weights, else the weights times the lcm of
    their denominators.  The value is still the Fraction weight of the
    cover."""
    got = []

    def spy(g, w):
        got.append(list(w))
        return row.solve(g, w)

    monkeypatch.setitem(reports._BY_PAIR, (row.problem, row.param), replace(row, solve=spy))
    g = cycle_graph(5)
    w = random_weights(5, 1)
    scale = lcm(*(x.denominator for x in w))
    for given, expect in ((None, [1] * 5), (unit_weights(5), [1] * 5),
                          (w, [int(x * scale) for x in w])):
        got.clear()
        res = reports.run_algorithm(row.problem, row.param, g, given)
        assert got == [expect] and all(type(x) is int for x in got[0])
        assert res.value == (len(res.certificate) if given is None else total(given, res.certificate))
