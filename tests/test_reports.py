import re
from pathlib import Path

import pytest

from epa import certify, reports
from epa.generator import random_weights
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


@pytest.mark.parametrize("problem, param, expect", [
    ("vc", "split", ["vc_split", "is_vertex_cover", "exact_min_vc", "exact_min_modulator"]),
    ("vc", "fvs", ["vc_fvs", "is_vertex_cover", "exact_min_wvc", "exact_min_modulator"]),
    ("col", "chordal", ["color_degeneracy", "is_proper_coloring", "exact_min_modulator",
                        "exact_chromatic:4", "exact_chromatic:5"]),
])
def test_rows_reach_rebound_module_attributes(problem, param, expect, monkeypatch):
    """Rows call solvers, checkers and oracles through module attributes at
    call time, so a rebinding (a tracer, a spy) sees every call; the
    unweighted split row asks the unweighted oracle; oracles run in order."""
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
    rep = reports.verify_guarantee(problem, param, g, random_weights(5, 1))
    assert calls == expect and rep.passed
