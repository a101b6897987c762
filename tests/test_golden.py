"""Golden byte-identity: pinned digests of ``epa bench`` CSV, of
``solve --json`` on planted split instances, of the CLI output of
every guarantee row, of the two budgeted subroutines of the split
rows, of ``epa oracle`` and the exact oracles, of the graph routines
that several solvers share, of the checking side's pattern tests
and obstruction sets, of parsing serialized instances and of
generated instances.

The split digests were taken before the split rows moved to adjacency
masks; the all-class CSV and every-row digests before the rows moved
into one table; the subroutine digests before the budgeted routines
stopped doing a whole subroutine run per candidate; the oracle and
graph-routine digests before those routines were folded into one
implementation each; the ``cvc_split`` and exact-tail digests before
``cvc_small_after_contraction`` became one loop over the clique; the
pattern and obstruction digests before ``certify`` and ``oracle`` moved
to one table each; the parse digest before canonical edge blocks were
read in bulk; the generator digest before the base classes were built
as adjacency masks; the pattern-search digest before ``find_induced``
decided pattern-freeness by a clique-partition check; the
``vc_split`` and larger ``cvc_split`` digests before the split rows
seeded their budgeted searches with the recursion's cover; the
recognition digest before ``recognize`` read one class table and
searched every witness kind on vertex masks.  The
``epa oracle`` digest was pinned again when ``--modulator`` began to
weigh k on weighted rows, as ``verify`` does.
Any change of tie-breaking, cover choice or output format changes them;
such a change must say why and pin the new digests.
"""

from __future__ import annotations

import hashlib
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

from epa.certify import induces_pattern
from epa.cli import main
from epa.coloring import color_p3k1free
from epa.connected_vc import _brute_min_cvc, cvc_budgeted, cvc_small_after_contraction, cvc_split
from epa.generator import (
    GENERATOR_CLASSES,
    GeneratorSpec,
    SplitMix64,
    generate,
    random_connected_graph,
    random_graph,
    random_weights,
)
from epa.graphs import Graph, mask_of
from epa.instances import parse_instance, serialize_instance
from epa.oracle import (
    exact_lp_vc,
    obstruction_masks,
    exact_min_cvc,
    exact_min_modulator,
    exact_min_vc,
    exact_min_wvc,
)
from epa.packing import tp_maximal
from epa.recognize import CLASSES, Cotree, build_cotree, find_induced, recognize
from epa.reports import bench
from epa.vertex_cover import two_maximal_clique, vc_budgeted_2approx, vc_split
from conftest import connected_corpus, corpus
from small_graphs import path_graph

BENCH_SPECS = [
    GeneratorSpec(base, 8, k, Fraction(1, 2), seed)
    for base in ("split", "cluster", "cochordal")
    for k in (0, 1, 2)
    for seed in range(3)
]

# (problem, total n, generator seed); k = n/10 planted, as in the
# benchmark's split ladder.  cvc seeds are draws whose graph is connected.
# vc 56/6 and cvc 24/9 are instances where the recursion's tie-break
# (recursive branch on equal size) changes the cover.
SOLVE_CASES = [
    ("vc", 40, 0), ("vc", 40, 1), ("vc", 48, 0), ("vc", 48, 2), ("vc", 56, 0), ("vc", 56, 6),
    ("vc", 64, 5),
    ("cvc", 16, 0), ("cvc", 16, 1), ("cvc", 20, 0), ("cvc", 24, 2), ("cvc", 24, 9), ("cvc", 28, 3),
    ("cvc", 28, 6),
]

BENCH_SHA256 = "37e448a862bf973e8a3fdb43e4290c30f08abc2e84a57c0ddcbce8dfd6e3eff4"
SOLVE_SHA256 = "fb133ee5d9f3aaeaf99b0e96ee81a70ae4a0c4a0fa660b81a702f03d9476b15f"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_bench_csv_golden():
    assert _sha(bench(BENCH_SPECS)) == BENCH_SHA256


def test_solve_json_split_golden(tmp_path):
    out = io.StringIO()
    for problem, n, seed in SOLVE_CASES:
        k = n // 10
        g, _ = generate(GeneratorSpec("split", n - k, k, Fraction(1, 2), seed))
        path = tmp_path / f"{problem}-{n}-{seed}.epa"
        path.write_text(serialize_instance(g), encoding="utf-8")
        with redirect_stdout(out):
            code = main(["solve", "--problem", problem, "--param", "split",
                         "--input", str(path), "--json"])
        assert code == 0
    assert _sha(out.getvalue()) == SOLVE_SHA256


# -- every guarantee row ------------------------------------------------

ALL_CLASSES_SPECS = [
    GeneratorSpec(base, 8, k, Fraction(1, 2), seed)
    for base in GENERATOR_CLASSES
    for k in (0, 1, 2)
    for seed in range(3)
]

# (base class, n, k, seed): planted instances with n + k <= 9.
ROW_INSTANCES = [
    ("split", 7, 2, 3),
    ("cograph", 7, 2, 5),
    ("cocluster", 7, 1, 2),
    ("p3k1-free", 6, 2, 4),
]

# The 14 rows of the README table, in its order.
ROW_PAIRS = [
    ("vc", "cograph"), ("vc", "cluster"), ("vc", "ccluster"), ("vc", "fvs"), ("vc", "chordal"),
    ("vc", "split"), ("cvc", "split"), ("col", "oct"), ("col", "chordal"), ("col", "cograph"),
    ("col", "cchordal"), ("col", "p3k1"), ("tp", "cluster"), ("tp", "ccluster"),
]

ALL_CLASSES_SHA256 = "146e4ecdde26af738c7293bd900502d91c712b792fb4694907adda3a8f4e2167"
ROWS_CLI_SHA256 = "fc1afe74620fa774ac0de26dc6bfa7f56b8757d4d51b62dcf6084f1c3bcad361"

_MICROS = re.compile(r'"micros": \d+|\(\d+ us\)')


def _run_cli(argv: list[str], log: io.StringIO) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    log.write(f"$ {' '.join(argv[:6])} -> {code}\n{out.getvalue()}{err.getvalue()}")


def test_bench_csv_all_classes_golden():
    assert _sha(bench(ALL_CLASSES_SPECS)) == ALL_CLASSES_SHA256


def test_every_row_cli_golden(tmp_path):
    """verify --json, plain verify and solve --json on every row, with unit
    and random weights; then verify and solve on every pair, supported or
    not, at n = 11 and 16, where verify exceeds the oracle budget."""
    log = io.StringIO()
    files = []
    for base, n, k, seed in ROW_INSTANCES:
        g, _ = generate(GeneratorSpec(base, n, k, Fraction(1, 2), seed))
        for weighted in (False, True):
            path = tmp_path / f"{base}-{seed}-{int(weighted)}.epa"
            w = random_weights(g.n, seed) if weighted else None
            path.write_text(serialize_instance(g, w), encoding="utf-8")
            files.append(str(path))
    big = []
    for n in (11, 16):
        g, _ = generate(GeneratorSpec("split", n - 1, 1, Fraction(1, 2), 0))
        path = tmp_path / f"big-{n}.epa"
        path.write_text(serialize_instance(g), encoding="utf-8")
        big.append(str(path))
    for path in files:
        for problem, param in ROW_PAIRS:
            for argv in (["verify", "--json"], ["verify"], ["solve", "--json"]):
                _run_cli(argv + ["--problem", problem, "--param", param, "--input", path], log)
    every_pair = [(p, q) for p in ("vc", "cvc", "col", "tp")
                  for q in ("cograph", "cluster", "ccluster", "fvs", "chordal", "split",
                            "oct", "p3k1", "cchordal")]
    for path in big:
        for problem, param in every_pair:
            for command in ("verify", "solve"):
                _run_cli([command, "--problem", problem, "--param", param, "--input", path], log)
    assert _sha(_MICROS.sub("#", log.getvalue())) == ROWS_CLI_SHA256


# -- the scale path -------------------------------------------------------

# The 12 non-split rows of the benchmark's scale ladder, with the
# generator class each is drawn from.
SCALE_ROWS = [
    ("vc", "cograph", "cograph"), ("vc", "cluster", "cluster"), ("vc", "ccluster", "cocluster"),
    ("vc", "fvs", "forest"), ("vc", "chordal", "chordal"), ("col", "oct", "bipartite"),
    ("col", "chordal", "chordal"), ("col", "cograph", "cograph"), ("col", "cchordal", "cochordal"),
    ("col", "p3k1", "p3k1-free"), ("tp", "cluster", "cluster"), ("tp", "ccluster", "cocluster"),
]

# Deep families: (family, n, rows).
SCALE_DEEP = [
    ("threshold", 300, (("vc", "cograph"), ("col", "cograph"))),
    ("path", 300, (("vc", "fvs"), ("vc", "chordal"))),
]

SCALE_SHA256 = "83bee73441897a87737f8b64357fbe4ee7fa95e5bf1ba8ee62b5629380f28753"


def threshold_cograph(n: int) -> Graph:
    """Odd vertices dominate every earlier vertex; cotree depth is about n."""
    return Graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])


def test_solve_json_scale_golden(tmp_path):
    """solve --json on two planted n = 100 instances per row (VC rows:
    unit weights on the first, random weights on the second), then on a
    300-vertex threshold cograph and a 300-vertex path."""
    out = io.StringIO()
    for problem, param, cls in SCALE_ROWS:
        for seed in (0, 1):
            g, _ = generate(GeneratorSpec(cls, 90, 10, Fraction(1, 2), seed))
            w = random_weights(g.n, seed) if problem == "vc" and seed == 1 else None
            path = tmp_path / f"{problem}-{param}-{seed}.epa"
            path.write_text(serialize_instance(g, w), encoding="utf-8")
            with redirect_stdout(out):
                assert main(["solve", "--problem", problem, "--param", param,
                             "--input", str(path), "--json"]) == 0
    for family, n, rows in SCALE_DEEP:
        g = threshold_cograph(n) if family == "threshold" else path_graph(n)
        path = tmp_path / f"{family}-{n}.epa"
        path.write_text(serialize_instance(g), encoding="utf-8")
        for problem, param in rows:
            with redirect_stdout(out):
                assert main(["solve", "--problem", problem, "--param", param,
                             "--input", str(path), "--json"]) == 0
    assert _sha(out.getvalue()) == SCALE_SHA256


# -- subroutines of the split rows ---------------------------------------

BUDGETED_VC_SHA256 = "5e6280b2c0c7851c0572d740cece39f0ae3837d37c3f8bbe16845d254092fc07"
BUDGETED_CVC_SHA256 = "6575a5659bd8ed60eaf3446ab1bb59d9df71beb378fd1040a80edc2702d74181"
CVC_SPLIT_SHA256 = "871fe80938d3d2eedbed14cb568c728e9c78397f85d18aaebfccc95baaaf0b60"
CVC_SMALL_SHA256 = "c5355dff405244512a32870715bd59f55090d594757be580e298f81c97a0050d"


def test_vc_budgeted_2approx_golden():
    """c = 0..3 on random graphs (n <= 16) and planted split graphs
    (n = 20), each with the full, a random and the empty vertex mask."""
    graphs = corpus(60, 1, 16, seed0=5100)
    graphs += [generate(GeneratorSpec("split", 18, 2, Fraction(1, 2), 5170 + i))[0] for i in range(8)]
    out = []
    for i, g in enumerate(graphs):
        rng = SplitMix64(5200 + i)
        for within in (g.full_mask, sum(1 << v for v in range(g.n) if rng.below(3)), 0):
            for c in (0, 1, 2, 3):
                sol = vc_budgeted_2approx(g, c, within=within)
                out.append(f"{i} {within:x} {c} {sorted(sol.cover)}\n")
    assert _sha("".join(out)) == BUDGETED_VC_SHA256


def test_cvc_budgeted_golden():
    """c = 1..4 on connected random graphs (n <= 14) and on clique
    contractions, which end in a pendant leaf as in cvc_split."""
    graphs = connected_corpus(30, 2, 14, seed0=5300)
    for i in range(8):
        g = random_connected_graph(11, Fraction(1, 2), 5340 + i)
        graphs.append(g.contract_with_pendant(two_maximal_clique(g))[0])
    out = []
    for i, g in enumerate(graphs):
        for c in (1, 2, 3, 4):
            out.append(f"{i} {c} {sorted(cvc_budgeted(g, c).cover)}\n")
    assert _sha("".join(out)) == BUDGETED_CVC_SHA256


def test_cvc_split_golden():
    """cvc_split on the first 40 connected planted split draws (k = n/10)
    at n = 16, 20, 24 and 28, generator seeds counting up from 6100."""
    out = []
    for n in (16, 20, 24, 28):
        seed, found = 6100, 0
        while found < 40:
            g, _ = generate(GeneratorSpec("split", n - n // 10, n // 10, Fraction(1, 2), seed))
            if g.is_connected():
                out.append(f"{n} {seed} {sorted(cvc_split(g).cover)}\n")
                found += 1
            seed += 1
    assert _sha("".join(out)) == CVC_SPLIT_SHA256


# (total n, generator seed); k = n/10 planted, as in the split ladder.
VC_SPLIT_CASES = [
    (80, 7100), (100, 7101), (120, 7102), (120, 7103), (140, 7104), (160, 7105),
    (160, 7106), (180, 7107), (200, 7108), (200, 7109), (400, 7110),
]
VC_SPLIT_SHA256 = "b95699fcee51957caa8e5ff765215aac670be35b6b378089f053b95434cb740b"
CVC_SPLIT_LARGE_SHA256 = "4097e6d213fb79b2869a3f8e51f9052287c138391e29e5cd91cd3e6614ed591b"


def test_vc_split_golden():
    """vc_split on planted split draws at n = 80-200 and one at n = 400."""
    out = []
    for n, seed in VC_SPLIT_CASES:
        g, _ = generate(GeneratorSpec("split", n - n // 10, n // 10, Fraction(1, 2), seed))
        out.append(f"{n} {seed} {sorted(vc_split(g).cover)}\n")
    assert _sha("".join(out)) == VC_SPLIT_SHA256


def test_cvc_split_large_golden():
    """cvc_split on the first two connected planted split draws at
    n = 40, 45 and 50, generator seeds counting up from 7200."""
    out = []
    for n in (40, 45, 50):
        seed, found = 7200, 0
        while found < 2:
            g, _ = generate(GeneratorSpec("split", n - n // 10, n // 10, Fraction(1, 2), seed))
            if g.is_connected():
                out.append(f"{n} {seed} {sorted(cvc_split(g).cover)}\n")
                found += 1
            seed += 1
    assert _sha("".join(out)) == CVC_SPLIT_LARGE_SHA256


def test_cvc_small_after_contraction_golden():
    """The exact tail on connected random graphs (n <= 11) with the
    2-maximal clique and every singleton, c = 1..4, wherever the
    contraction has a connected cover of size at most c."""
    out = []
    for i, g in enumerate(connected_corpus(60, 1, 11, seed0=6200)):
        for z in [two_maximal_clique(g)] + [frozenset({v}) for v in range(g.n)]:
            h, _ = g.contract_with_pendant(z)
            for c in (1, 2, 3, 4):
                if _brute_min_cvc(h, c) is not None:
                    sol = cvc_small_after_contraction(g, z, c)
                    out.append(f"{i} {sorted(z)} {c} {sorted(sol.cover)}\n")
    assert _sha("".join(out)) == CVC_SMALL_SHA256


# -- oracles and shared graph routines ------------------------------------

# Every class ``epa oracle --modulator`` accepts.
MODULATOR_CLASSES = (
    "edgeless", "cluster", "cocluster", "cograph", "p3k1-free", "triangle-free",
    "co-triangle-free", "split", "forest", "bipartite", "chordal", "cochordal",
)

ORACLE_CLI_SHA256 = "98929d4dd66c30e49538e5c6cb42553dde5875d0510ec7c5adeb31f88fc59605"
EXACT_ORACLES_SHA256 = "275b6e2d48eebce2c7d54aaa22f855ea8b4ca6b57f98ef8707e07740b5c33cf3"
GRAPH_ROUTINES_SHA256 = "bddaafde8b9e403dcc82959a2ecf3dcf172be1b5086c7d4b130e1a57960d7e11"
EXACT_LP_SHA256 = "30ee2ce6093a2dcb2c360f301dd41f90dcec753689cfc174bbc27f15fdb7c160"
PATTERNS_SHA256 = "5fd2a84a02a1006c90b48efcae70892419daf074d8789d258e32ca5db093167f"
OBSTRUCTIONS_SHA256 = "eaeea14dd7fef424035da971c1a67605bfdf97ae6588e2822eefe4495ee4f471"


def test_oracle_cli_golden(tmp_path):
    """oracle --json for every problem and every modulator class on four
    planted instances (n <= 10) and a disconnected one, the last planted
    instance once more with random weights."""
    log = io.StringIO()
    files = []
    for i, (base, n, k, seed) in enumerate(ROW_INSTANCES + [("cluster", 8, 1, 7)]):
        g, _ = generate(GeneratorSpec(base, n, k, Fraction(1, 2), seed))
        w = random_weights(g.n, seed) if i == 3 else None
        path = tmp_path / f"{base}-{seed}.epa"
        path.write_text(serialize_instance(g, w), encoding="utf-8")
        files.append(str(path))
    for path in files:
        for problem in ("vc", "cvc", "col", "tp", "lp"):
            _run_cli(["oracle", "--json", "--oracle-budget", "10", "--problem", problem,
                      "--input", path], log)
        for cls in MODULATOR_CLASSES:
            _run_cli(["oracle", "--json", "--oracle-budget", "10", "--modulator", cls,
                      "--input", path], log)
    assert _sha(log.getvalue()) == ORACLE_CLI_SHA256


def test_exact_oracles_golden():
    """Value and certificate of the covering and modulator oracles on
    random graphs (n <= 9), unweighted and with random weights."""
    out = []
    for i, g in enumerate(corpus(48, 0, 9, seed0=5400)):
        w = random_weights(g.n, 5500 + i)
        out.append(f"{i} vc {exact_min_vc(g)} {exact_min_wvc(g)} {exact_min_wvc(g, w)}\n")
        if g.n and g.is_connected():
            out.append(f"{i} cvc {exact_min_cvc(g)}\n")
        for cls in MODULATOR_CLASSES:
            out.append(f"{i} {cls} {exact_min_modulator(g, cls)} "
                       f"{exact_min_modulator(g, cls, w)}\n")
    assert _sha("".join(out)) == EXACT_ORACLES_SHA256


def test_exact_lp_golden():
    """exact_lp_vc on random graphs, n = 0..10 at densities 1/5, 1/2 and
    4/5, four draws each, with unit weights, random weights and random
    weights of which about half are zero.  Pinned while the oracle still
    enumerated all 3^n half-integral vectors."""
    out = []
    i = 0
    for n in range(11):
        for d in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
            for _ in range(4):
                g = random_graph(n, d, 5800 + i)
                w = random_weights(n, 5900 + i)
                wz = random_weights(n, 5900 + i, zero_share=Fraction(1, 2))
                out.append(f"{i} {exact_lp_vc(g)} {exact_lp_vc(g, w)} {exact_lp_vc(g, wz)}\n")
                i += 1
    assert _sha("".join(out)) == EXACT_LP_SHA256


def test_graph_routines_golden():
    """two_maximal_clique (whole graph and a random mask), tp_maximal,
    color_p3k1free, build_cotree and contract_with_pendant (edges and
    surviving ids) on random graphs and planted cographs (n <= 18).
    A graph that is no cograph gives the P4 that build_cotree returns."""
    graphs = corpus(60, 1, 18, seed0=5600)
    graphs += [generate(GeneratorSpec("cograph", 12, 2, Fraction(1, 2), 5650 + i))[0]
               for i in range(8)]
    out = []
    for i, g in enumerate(graphs):
        rng = SplitMix64(5700 + i)
        within = sum(1 << v for v in range(g.n) if rng.below(3))
        y = [v for v in range(g.n) if rng.below(3) == 0] or [0]
        h, kept = g.contract_with_pendant(y)
        cotree = build_cotree(g)
        cotree = repr(cotree) if isinstance(cotree, Cotree) else sorted(cotree)
        out.append(
            f"{i} {sorted(two_maximal_clique(g))} {sorted(two_maximal_clique(g, within))}"
            f" {[sorted(t) for t in tp_maximal(g).triangles]} {list(color_p3k1free(g).colors)}"
            f" {cotree} {list(h.edges())} {list(kept)}\n"
        )
    assert _sha("".join(out)) == GRAPH_ROUTINES_SHA256


# Every name ``certify.induces_pattern`` knows.
PATTERN_NAMES = ("K2", "P3", "co-P3", "triangle", "K3bar", "P4", "P3+K1", "2K2", "C4", "C5",
                 "cycle", "odd-cycle", "hole", "co-hole")


def test_induces_pattern_golden():
    """induces_pattern for every pattern name on every vertex set of size
    2..6 of random graphs (n <= 8), one digit per set and name."""
    out = []
    for i, g in enumerate(corpus(60, 2, 8, seed0=6400)):
        digits = "".join(
            "1" if induces_pattern(g, s, name) else "0"
            for k in range(2, 7)
            for s in combinations(range(g.n), k)
            for name in PATTERN_NAMES
        )
        out.append(f"{i} {digits}\n")
    assert _sha("".join(out)) == PATTERNS_SHA256


def test_obstruction_masks_golden():
    """The sorted obstruction sets of every modulator class on random
    graphs (n <= 9)."""
    out = []
    for i, g in enumerate(corpus(100, 0, 9, seed0=6500)):
        for cls in MODULATOR_CLASSES:
            out.append(f"{i} {cls} {sorted(obstruction_masks(g, cls))}\n")
    assert _sha("".join(out)) == OBSTRUCTIONS_SHA256


# -- parsing -------------------------------------------------------------

# (class, total n) of the parse digest: every generator class at n = 10,
# 100 and 400, and the two classes with the densest and the sparsest
# benchmark files at n = 800.  The triangle-free base (which p3k1-free
# also builds on) was slow to generate when the digest was taken, so
# those two stop at n = 100.
PARSE_SIZES = [(cls, n) for cls in GENERATOR_CLASSES for n in (10, 100, 400)
               if not (cls in ("triangle-free", "p3k1-free") and n > 100)]
PARSE_SIZES += [("cocluster", 800), ("chordal", 800)]
PARSE_SHA256 = "6f68571c77c28474e624cf327e5703b2227fafbba3fd015f944ebb4979968a8f"


def caterpillar(n: int) -> Graph:
    """A path on n/3 spine vertices, each with two pendant legs."""
    spine = n // 3
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + 2 * i + leg) for i in range(spine) for leg in (0, 1)]
    return Graph(spine * 3, edges)


def test_parse_golden():
    """(adj_bits, weights) of parse_instance(serialize_instance(g, w)) for
    every generator class (k = n/10 planted, weighted on every other
    draw), a 300-vertex threshold cograph, a 1000-vertex path and a
    1500-vertex caterpillar."""
    cases = []
    for i, (cls, n) in enumerate(PARSE_SIZES):
        g, _ = generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), 6600 + i))
        cases.append((f"{cls}-{n}", g, random_weights(g.n, 6600 + i) if i % 2 else None))
    cases += [("threshold-300", threshold_cograph(300), None),
              ("path-1000", path_graph(1000), random_weights(1000, 6690)),
              ("caterpillar-1500", caterpillar(1500), None)]
    out = []
    for name, g, w in cases:
        h, hw = parse_instance(serialize_instance(g, w))
        out.append(f"{name} {' '.join(format(b, 'x') for b in h.adj_bits)}"
                   f" {' '.join(map(str, hw))}\n")
    assert _sha("".join(out)) == PARSE_SHA256


# -- generation ----------------------------------------------------------

# n of the generator digest; the p3k1-free self-check was slow when the
# digest was taken, so that class stops at n = 100.
GENERATE_SIZES = (0, 1, 2, 5, 10, 40, 100, 200)
GENERATE_DENSITIES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
GENERATE_SHA256 = "415be6be2e3f831e058550a5bb5674a298ca03607a43a45fcbba479784cc1714"


def test_generate_golden():
    """serialize_instance(g) and the sorted planted set of generate() for
    every class, n in GENERATE_SIZES, k 0, 1 and 3, densities 0, 1/3,
    1/2 and 1, and two seeds."""
    h = hashlib.sha256()
    for base in GENERATOR_CLASSES:
        for n in GENERATE_SIZES:
            if base == "p3k1-free" and n > 100:
                continue
            for k in (0, 1, 3):
                for density in GENERATE_DENSITIES:
                    for seed in (4400, 4401):
                        g, planted = generate(GeneratorSpec(base, n, k, density, seed))
                        h.update(serialize_instance(g).encode())
                        h.update(f"planted {sorted(planted)}\n".encode())
    assert h.hexdigest() == GENERATE_SHA256


# -- pattern search ------------------------------------------------------

FIND_PATTERNS = ("P3", "co-P3", "P4", "P3+K1")
# (class, total n) of the generated half of the pattern-search digest.
FIND_SIZES = [(cls, n) for cls in ("cluster", "cocluster", "cograph", "p3k1-free")
              for n in (10, 40, 100, 200)]
FIND_SHA256 = "bce8637ca4368058bc75e0f90f01e81a607b92ab69d6a2c350bb2d8df3924da8"


def test_find_induced_golden():
    """The sorted witness (or None) of find_induced for P3, co-P3, P4 and
    P3+K1: on random graphs (n 0..14) under three random masks each, and
    on generated cluster, cocluster, cograph and p3k1-free instances
    (k = n/10 planted) under the full mask, the mask without the planted
    vertices and that mask less three random vertices, where the
    searches for the class's own patterns run to the end."""
    out = []
    for i, g in enumerate(corpus(300, 0, 14, seed0=6800)):
        rng = SplitMix64(6800 + i)
        for j in range(3):
            within = sum(1 << v for v in range(g.n) if rng.below(4))
            for pattern in FIND_PATTERNS:
                w = find_induced(g, pattern, within)
                out.append(f"{i} {j} {pattern} {None if w is None else sorted(w)}\n")
    for i, (cls, n) in enumerate(FIND_SIZES):
        g, planted = generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), 6900 + i))
        rng = SplitMix64(6900 + i)
        member = g.full_mask & ~mask_of(planted)
        fewer = member & ~mask_of(rng.below(g.n) for _ in range(3))
        for within in (g.full_mask, member, fewer):
            for pattern in FIND_PATTERNS:
                w = find_induced(g, pattern, within)
                out.append(f"{cls}-{n} {pattern} {None if w is None else sorted(w)}\n")
    assert _sha("".join(out)) == FIND_SHA256


# -- recognition ---------------------------------------------------------

RECOGNIZE_DENSITIES = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
# (class, total n, k) of the generated half of the recognition digest.
# The k = 0 draws stop at n = 100: the split search on the 2K2-free
# cocluster and cochordal members took 16-19 s at n = 200 when the
# digest was pinned.
RECOGNIZE_SIZES = [(cls, n, k) for cls in GENERATOR_CLASSES for n in (10, 40, 100, 200)
                   for k in (0, n // 10) if not (k == 0 and n > 100)]
RECOGNIZE_SHA256 = "87566f72d1b63a1bb16b7c4c00b92b8d8f8338341800c7a4781fa83e877e7127"


def pseudo_split(clique: int, independent: int, seed: int) -> Graph:
    """A C5 joined to a clique, plus an independent set with random edges
    to the clique only, relabeled at random: not split, yet free of 2K2
    and C4, so its split witness is a C5."""
    rng = SplitMix64(seed)
    n = 5 + clique + independent
    k = range(5, 5 + clique)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(u, v) for v in k for u in range(v)]
    edges += [(u, v) for v in range(5 + clique, n) for u in k if rng.below(2)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _canonical_structure(structure) -> object:
    """Sides, components and split parts as sorted lists, in their
    order; a PEO as it is; a cotree as its preorder."""
    if structure is None:
        return None
    if isinstance(structure, Cotree):
        return structure._preorder()
    return [sorted(p) if isinstance(p, frozenset) else p for p in structure]


def test_recognize_golden():
    """recognize(g, cls) for every class: the verdict, the sorted witness,
    its kind and the structure, on random graphs (n 0..30 at densities
    1/5, 1/2 and 4/5), on generated instances of every class (k = 0
    and k = n/10 planted) up to n = 200, and on pseudo-split graphs."""
    graphs = [random_graph(n, d, 7600 + 3 * n + j)
              for n in range(31) for j, d in enumerate(RECOGNIZE_DENSITIES)]
    graphs += [generate(GeneratorSpec(cls, n - k, k, Fraction(1, 2), 7700 + n + k))[0]
               for cls, n, k in RECOGNIZE_SIZES]
    graphs += [pseudo_split(c, i, 7800 + c + i) for c in (0, 2, 6) for i in (0, 3, 8)]
    out = []
    for i, g in enumerate(graphs):
        for cls in CLASSES:
            rec = recognize(g, cls)
            witness = None if rec.witness is None else sorted(rec.witness)
            out.append(f"{i} {cls} {rec.member} {witness} {rec.witness_kind}"
                       f" {_canonical_structure(rec.structure)}\n")
    assert _sha("".join(out)) == RECOGNIZE_SHA256
