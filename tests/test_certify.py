"""The certificate checks against an edge-scan reference kept here.

Each reference is the textbook definition over the edge list: every edge
has an end in the cover, no edge joins two vertices of one colour.  The
checks in ``epa.certify`` must agree with it on random graphs, random
certificates and near misses (one vertex or one colour away from a valid
certificate), including out-of-range ids and malformed colourings.
A second reference decides the named induced patterns by a bijection
search, and every checker that takes vertex ids rejects an id that is
no vertex.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from epa.certify import (
    _PATTERNS,
    induces_pattern,
    is_clique,
    is_connected_vertex_cover,
    is_independent_set,
    is_matching,
    is_proper_coloring,
    is_triangle_packing,
    is_vertex_cover,
)
from epa.generator import SplitMix64, random_graph
from epa.graphs import Graph
from epa.oracle import DEFAULT_BUDGET, exact_min_vc

from conftest import corpus
from small_graphs import adjacent, cycle_graph

ORACLE_BUDGET = replace(DEFAULT_BUDGET, vc=14)


def ref_is_vertex_cover(g: Graph, cover) -> bool:
    """The cover's ids are vertices of g and every edge has an end in it."""
    cs = set(cover)
    return all(0 <= v < g.n for v in cs) and all(u in cs or v in cs for u, v in g.edges())


def ref_is_connected_vertex_cover(g: Graph, cover) -> bool:
    """A cover whose vertices are reached from any one of them through
    the cover (empty is connected)."""
    cs = set(cover)
    if not ref_is_vertex_cover(g, cs):
        return False
    if not cs:
        return True
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


# Each fixed pattern as (vertex count, edge list on 0..count-1).
PATTERN_GRAPHS = {
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "co-P3": (3, [(0, 1)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "K3bar": (3, []),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "P3+K1": (4, [(0, 1), (1, 2)]),
    "2K2": (4, [(0, 1), (2, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
}

# The cycle names: which lengths k they admit, each then the k-cycle.
CYCLE_LENGTHS = {
    "cycle": lambda k: k >= 3,
    "odd-cycle": lambda k: k >= 3 and k % 2 == 1,
    "hole": lambda k: k >= 4,
}


def _cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % k) for i in range(k)]


def ref_induces(g: Graph, s: tuple[int, ...], size: int, edges) -> bool:
    """Some bijection of ``s`` onto 0..size-1 maps the edges g induces on
    ``s`` exactly onto ``edges``."""
    if len(s) != size:
        return False
    induced = {frozenset(p) for p in combinations(s, 2) if adjacent(g, *p)}
    return any(
        induced == {frozenset((image[a], image[b])) for a, b in edges}
        for image in permutations(s)
    )


def ref_induces_pattern(g: Graph, s: tuple[int, ...], name: str) -> bool:
    if name in PATTERN_GRAPHS:
        return ref_induces(g, s, *PATTERN_GRAPHS[name])
    if name == "co-hole":
        return ref_induces_pattern(g.complement(), s, "hole")
    return CYCLE_LENGTHS[name](len(s)) and ref_induces(g, s, len(s), _cycle_edges(len(s)))


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
    out = [[], list(range(n)), [n, n + 5], list(range(n)) + [n, 2 * n + 3], [-1],
           list(range(n)) + [-1 - rng.below(70)]]
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
            if g.n <= 60:
                assert is_connected_vertex_cover(g, cover) == \
                    ref_is_connected_vertex_cover(g, cover), (g, cover)
            checked += 1
    assert checked > 3000


def test_cover_near_misses_fail():
    """A minimum cover passes; without any one of its vertices it fails."""
    for g in _graphs():
        base = exact_min_vc(g, ORACLE_BUDGET)[1] if g.n <= 14 else _minimal_cover(g)
        assert is_vertex_cover(g, base)
        assert not is_vertex_cover(g, set(base) | {g.n, g.n + 9})
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


def test_patterns_match_isomorphism_reference():
    """Every pattern name against a bijection search onto the pattern's
    edge list, on every vertex set of size 2..6 of random graphs.  A set
    that induces the pattern has the edge count its table entry names."""
    names = (*PATTERN_GRAPHS, *CYCLE_LENGTHS, "co-hole")
    hits = dict.fromkeys(names, 0)
    cycles = [cycle_graph(n) for n in (5, 6, 7)]
    for g in corpus(40, 2, 7, seed0=9300) + cycles + [c.complement() for c in cycles]:
        for k in range(2, 7):
            for s in combinations(range(g.n), k):
                for name in names:
                    got = induces_pattern(g, s, name)
                    assert got == ref_induces_pattern(g, s, name), (g, s, name)
                    hits[name] += got
                    if got:
                        edges = sum(adjacent(g, u, v) for u, v in combinations(s, 2))
                        assert _PATTERNS[name].edges(k) == edges, (g, s, name)
    assert all(hits.values()), hits


# Vertex count of a set named for each pattern in the id checks below.
PATTERN_SIZES = {name: size for name, (size, _) in PATTERN_GRAPHS.items()} | {
    "cycle": 3, "odd-cycle": 3, "hole": 4, "co-hole": 4}


def _naming(x: int, k: int) -> tuple[int, ...]:
    """A k-set of ids: x, then 0..k-2."""
    return (x, *range(k - 1))


ID_CHECKS = {
    "is_vertex_cover": lambda g, x: is_vertex_cover(g, [*range(g.n), x]),
    "is_connected_vertex_cover": lambda g, x: is_connected_vertex_cover(g, [*range(g.n), x]),
    "is_independent_set": lambda g, x: is_independent_set(g, [x]),
    "is_clique": lambda g, x: is_clique(g, _naming(x, 3)),
    "is_triangle_packing": lambda g, x: is_triangle_packing(g, [_naming(x, 3)]),
    "is_matching": lambda g, x: is_matching(g, [_naming(x, 2)]),
} | {
    f"induces_pattern[{name}]":
        lambda g, x, name=name: induces_pattern(g, _naming(x, PATTERN_SIZES[name]), name)
    for name in PATTERN_SIZES
}


@pytest.mark.parametrize("graph", ["K3", "empty"])
@pytest.mark.parametrize("check", ID_CHECKS)
def test_ids_outside_the_graph_are_rejected(check, graph):
    """Each certificate names x; it is rejected, without an exception,
    for x = -1, n and n + 7.  On K3 the same certificate with vertex 2 in
    x's place (which -1 would alias) gets the reference's verdict."""
    g = Graph(3, [(0, 1), (1, 2), (0, 2)]) if graph == "K3" else Graph(0, [])
    for x in (-1, g.n, g.n + 7):
        assert ID_CHECKS[check](g, x) is False, x
    if g.n:
        name = check.removeprefix("induces_pattern[").removesuffix("]")
        want = name not in PATTERN_SIZES or ref_induces_pattern(
            g, tuple(sorted(set(_naming(2, PATTERN_SIZES[name])))), name)
        assert ID_CHECKS[check](g, 2) == want


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


def test_checking_modules_import_only_graphs():
    """``certify`` builds on ``graphs`` alone and ``oracle`` on ``graphs``
    and ``certify``, so the ground truth borrows no recognizer or solver
    code."""
    src = Path(__file__).resolve().parents[1] / "src" / "epa"
    assert _imported_epa_modules(src / "certify.py") <= {"graphs"}
    assert _imported_epa_modules(src / "oracle.py") <= {"graphs", "certify"}
