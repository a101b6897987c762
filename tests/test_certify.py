"""The certificate checks against an edge-scan reference kept here.

Each reference is the textbook definition over the edge list: every edge
has an end in the cover, no edge joins two vertices of one colour.  The
checks in ``epa.certify`` must agree with it on random graphs, random
certificates and near misses (one vertex or one colour away from a valid
certificate), including out-of-range ids and malformed colourings.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from epa.certify import is_connected_vertex_cover, is_proper_coloring, is_vertex_cover
from epa.generator import SplitMix64, random_graph
from epa.graphs import Graph
from epa.oracle import DEFAULT_BUDGET, exact_min_vc

from conftest import corpus

ORACLE_BUDGET = replace(DEFAULT_BUDGET, vc=14)


def ref_is_vertex_cover(g: Graph, cover) -> bool:
    cs = set(cover)
    return all(u in cs or v in cs for u, v in g.edges())


def ref_is_connected_vertex_cover(g: Graph, cover) -> bool:
    """Cover every edge; the cover's vertices are vertices of g and are
    reached from any one of them through the cover (empty is connected)."""
    cs = set(cover)
    if not ref_is_vertex_cover(g, cs):
        return False
    if not cs:
        return True
    if any(not 0 <= v < g.n for v in cs):
        return False
    start = min(cs)
    seen, stack = {start}, [start]
    while stack:
        for v in g.adj[stack.pop()]:
            if v in cs and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == cs


def ref_is_proper_coloring(g: Graph, colors) -> bool:
    if len(colors) != g.n or any(c < 1 for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def _subset(rng: SplitMix64, n: int, num: int, den: int) -> list[int]:
    return [v for v in range(n) if rng.below(den) < num]


def _minimal_cover(g: Graph) -> set[int]:
    """All vertices, then drop each vertex whose removal leaves a cover:
    removing any vertex of the result uncovers an edge."""
    cover = set(range(g.n))
    for v in range(g.n):
        if all(u in cover for u in g.adj[v]):
            cover.discard(v)
    return cover


def _greedy_coloring(g: Graph) -> list[int]:
    colors = [0] * g.n
    for v in range(g.n):
        used = {colors[u] for u in g.adj[v]}
        colors[v] = next(c for c in range(1, g.n + 2) if c not in used)
    return colors


def _merged(colors: list[int], u: int, v: int) -> list[int]:
    """Recolour v's whole colour class with u's colour."""
    return [colors[u] if c == colors[v] else c for c in colors]


def _graphs():
    small = corpus(300, 0, 14, seed0=9100)
    large = [random_graph(n, d, 9500 + n) for n, d in
             ((200, Fraction(1, 2)), (300, Fraction(1, 20)), (400, Fraction(1, 5)))]
    return small + large


def _covers(g: Graph, rng: SplitMix64):
    n = g.n
    out = [[], list(range(n)), [n, n + 5], list(range(n)) + [n, 2 * n + 3]]
    for num, den in ((1, 2), (3, 4), (9, 10)):
        out.append(_subset(rng, n, num, den))
    out.append(_subset(rng, n, 3, 4) + [n + rng.below(70)])
    if n <= 14:
        _, opt = exact_min_vc(g, ORACLE_BUDGET)
        base = sorted(opt)
    else:
        base = sorted(_minimal_cover(g))
    out.append(base)
    out.append(base + [n + 1])
    for v in base[:3] + base[-2:]:
        out.append([x for x in base if x != v])
    return out


def _colorings(g: Graph, rng: SplitMix64):
    n = g.n
    out = [[1] * n, list(range(1, n + 1)), [1] * (n + 1), list(range(1, n))]
    for k in (2, 3, 5):
        out.append([1 + rng.below(k) for _ in range(n)])
    good = _greedy_coloring(g)
    out.append(good)
    out.append(good + [1])
    out.append(good[:-1])
    if n:
        v = rng.below(n)
        out.append([0 if x == v else c for x, c in enumerate(good)])
        out.append([-1 if x == v else c for x, c in enumerate(good)])
    edges = list(g.edges())
    for _ in range(min(3, len(edges))):
        u, v = edges[rng.below(len(edges))]
        out.append(_merged(good, u, v))
    return out


def test_cover_checks_match_edge_scan():
    checked = 0
    for i, g in enumerate(_graphs()):
        rng = SplitMix64(9700 + i)
        for cover in _covers(g, rng):
            assert is_vertex_cover(g, cover) == ref_is_vertex_cover(g, cover), (g, cover)
            # a cover of ids >= n alone is left out: induces_connected
            # then reads a row the graph does not have
            if g.n <= 60 and (not cover or min(cover) < g.n):
                assert is_connected_vertex_cover(g, cover) == \
                    ref_is_connected_vertex_cover(g, cover), (g, cover)
            checked += 1
    assert checked > 3000


def test_cover_near_misses_fail():
    """A minimum cover passes; without any one of its vertices it fails."""
    for g in _graphs():
        base = exact_min_vc(g, ORACLE_BUDGET)[1] if g.n <= 14 else _minimal_cover(g)
        assert is_vertex_cover(g, base)
        assert is_vertex_cover(g, set(base) | {g.n, g.n + 9})
        for v in base:
            assert not is_vertex_cover(g, set(base) - {v})


def test_coloring_check_matches_edge_scan():
    checked = 0
    for i, g in enumerate(_graphs()):
        rng = SplitMix64(9900 + i)
        for colors in _colorings(g, rng):
            assert is_proper_coloring(g, colors) == ref_is_proper_coloring(g, colors), \
                (g, colors)
            checked += 1
    assert checked > 3000


def test_coloring_near_misses_fail():
    """A proper colouring passes; merging the classes of an edge's ends,
    shortening, lengthening or a colour below 1 fails."""
    for g in _graphs():
        good = _greedy_coloring(g)
        assert is_proper_coloring(g, good)
        assert not is_proper_coloring(g, good + [1])
        if g.n:
            assert not is_proper_coloring(g, good[:-1])
            assert not is_proper_coloring(g, [0] + good[1:])
        for u, v in list(g.edges())[:5]:
            assert not is_proper_coloring(g, _merged(good, u, v))


SOLVER_MODULES = ("graphs", "solvers", "recognize", "vertex_cover", "connected_vc",
                  "coloring", "packing")


def _imported_epa_modules(path: Path) -> set[str]:
    """Names of the epa modules that a module's import statements load."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.removeprefix("epa.") for a in node.names
                         if a.name.startswith("epa."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None or node.module == "epa":
                names.update(a.name for a in node.names)
            elif node.level == 1 or node.module.startswith("epa."):
                names.add(node.module.removeprefix("epa."))
    return names


def test_solver_modules_do_not_import_the_checkers():
    """The checking side (``certify``, ``oracle``) shares no code with the
    solvers: no solver module imports it."""
    src = Path(__file__).resolve().parents[1] / "src" / "epa"
    for mod in SOLVER_MODULES:
        imported = _imported_epa_modules(src / f"{mod}.py")
        assert not imported & {"certify", "oracle"}, (mod, sorted(imported))
