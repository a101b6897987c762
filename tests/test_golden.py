"""Golden byte-identity: pinned digests of ``epa bench`` CSV, of
``solve --json`` on planted split instances, of the CLI output of
every guarantee row, of the two budgeted subroutines of the split
rows, of the local-ratio cover rows, of the 3-maximal triangle
packing, of ``epa oracle`` and the exact oracles, of the graph
routines that several solvers share, of the checking side's pattern
tests and obstruction sets, of parsing serialized instances, of
generated instances and of the half-integral LP.

The split digests were taken before the split rows moved to adjacency
masks; the all-class CSV and every-row digests before the rows moved
into one table; the subroutine digests before the budgeted routines
stopped doing a whole subroutine run per candidate; the oracle and
graph-routine digests before those routines were folded into one
implementation each; the ``cvc_split`` and exact-tail digests before
``cvc_small_after_contraction`` became one loop over the clique; the
every-clique exact-tail digest, which also pins the tail's error text,
before the tail ran on G's adjacency masks from the contraction's
optimum up; the pattern and obstruction digests before ``certify`` and ``oracle`` moved
to one table each; the parse digest before canonical edge blocks were
read in bulk; the generator digest before the base classes were built
as adjacency masks, and its scale digest before runs of draws were
computed lane-packed and the serializer read adjacency masks; the
pattern-search digest before ``find_induced``
decided pattern-freeness by a clique-partition check; the
``vc_split`` and larger ``cvc_split`` digests before the split rows
seeded their budgeted searches with the recursion's cover; the
recognition digest before ``recognize`` read one class table and
searched every witness kind on vertex masks; the half-integral LP
digest before ``lp_half_integral_vc`` ran its min cut on adjacency
masks; the local-ratio digest before ``vc_local_ratio_ffree`` and
``vc_chordal`` shared one local-ratio loop, and its scale digest before
the P4 loop ended on the cotree of the rest and the P4 and co-P3 rests
were solved in G's ids, and its residual scale digest before the
cluster, chordal and fvs rests were solved in G's ids; the 3-maximal
packing digest before its swap search skipped pools with fewer than
three vertices per wanted triangle; the coloring digest before
``color_p3k1free`` matched its rest in G's ids and ``color_degeneracy``
kept its colour classes as masks; the oracle-sweep CSV and
every-class ``verify --json`` digests before ``epa bench`` asked each
exact oracle once per instance; the deep-descent ``cvc_split`` digest
before the driver descended on contraction rows in G's id space; the
exact packing digest before ``oracle`` answered triangle packing and
matching with one search and ``packing`` built and re-extended its
packings with one loop; the triangle-chain digest before
``chained_triangle_complement`` built its ids as lists; the vc-fvs
triangle-free digest and the cross-class grid of every row on every
generator class before the solvers ran on integer weights; the deep
cotree and greedy colouring digests before ``build_cotree`` peeled
universal and isolated vertices from degree buckets and ``_greedy_mis``
walked only the vertices it could still choose.  The
``epa oracle`` digest was pinned again when ``--modulator`` began to
weigh k on weighted rows, as ``verify`` does, and again when ``--problem
vc`` at unit weights began to ask the unweighted oracle, as ``verify``
does: one line moved, the cover of the unit-weight cograph instance
(same optimum, the unweighted oracle's first cover).
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
from epa.coloring import color_degeneracy, color_greedy_mis, color_p3k1free
from epa.connected_vc import _brute_min_cvc, cvc_budgeted, cvc_small_after_contraction, cvc_split
from epa.generator import (
    GENERATOR_CLASSES,
    GeneratorSpec,
    SplitMix64,
    chained_triangle_complement,
    generate,
    random_connected_graph,
    random_graph,
    random_weights,
)
from epa.graphs import Graph, mask_of, unit_weights
from epa.instances import ParseError, parse_instance, serialize_instance
from epa.oracle import (
    exact_lp_vc,
    exact_max_matching_size,
    exact_max_tp,
    obstruction_masks,
    exact_min_cvc,
    exact_min_modulator,
    exact_min_vc,
    exact_min_wvc,
)
from epa.packing import tp_3maximal, tp_maximal
from epa.recognize import CLASSES, Cotree, build_cotree, find_induced, recognize
from epa.reports import ROWS, bench, run_algorithm
from epa.solvers import cotree_independent_set, lp_half_integral_vc, max_matching, wvc_cluster
from epa.vertex_cover import (
    two_maximal_clique,
    vc_budgeted_2approx,
    vc_chordal,
    vc_fvs,
    vc_local_ratio_ffree,
    vc_split,
)
from conftest import cliques, connected_corpus, corpus, deep_cograph
from small_graphs import path_graph, threshold_cograph
from test_instances import (
    EDGE_MUTATIONS,
    FILE_MUTATIONS,
    HEADER_EDGE_TEXTS,
    PARSE_ERRORS,
    PARSE_FRAGMENTS,
    large_base,
    mutated_large_files,
    mutated_side_files,
    mutated_small_files,
    serialized_side_files,
)

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


# The oracle sweep: every generator class at n = 6-10, k = 0-2, seeds 0-5.
SWEEP_SPECS = [
    GeneratorSpec(base, n, k, Fraction(1, 2), seed)
    for base in GENERATOR_CLASSES
    for n in range(6, 11)
    for k in range(3)
    for seed in range(6)
]

SWEEP_SHA256 = "8ff6c8d4af988752ba744c4eaea27f6b741bbe09334469ee4f429ecbfbeb6156"
VERIFY_CLASSES_SHA256 = "e4de01b73420d07198ac18d568b4de9f47429093a0bc3ee035f31fd2d5dc7bb4"


def test_bench_sweep_golden():
    assert _sha(bench(SWEEP_SPECS)) == SWEEP_SHA256


def test_verify_json_every_class_golden(tmp_path):
    """verify --json on every row, on a planted draw of every generator
    class (n = 7, k = 2, seeds 0-2), once with unit and once with random
    weights."""
    log = io.StringIO()
    for base in GENERATOR_CLASSES:
        for seed in range(3):
            g, _ = generate(GeneratorSpec(base, 7, 2, Fraction(1, 2), seed))
            for w in (None, random_weights(g.n, seed)):
                path = tmp_path / f"{base}-{seed}-{int(w is not None)}.epa"
                path.write_text(serialize_instance(g, w), encoding="utf-8")
                for problem, param in ROW_PAIRS:
                    _run_cli(["verify", "--json", "--problem", problem, "--param", param,
                              "--input", str(path)], log)
    assert _sha(_MICROS.sub("#", log.getvalue())) == VERIFY_CLASSES_SHA256


# The cross-class grid: every row on a planted draw (k = n/10, density
# 1/2, seed 1) of every generator class, not only of its own.  cvc-split
# runs at n = 30 and only on connected draws, as in ``epa bench``; the
# other rows run at n = 60.  The sizes may rise as the off-class rows get
# faster, and never fall.
GRID_N = {"cvc": 30}
GRID_OTHER_N = 60
GRID_SHA256 = "15146bc130c47f325cc6a398c7f6fbfcc56c30a4081f84869e3c3fe458b7d915"


def test_cross_class_grid_golden():
    """Every row's output on a draw of every generator class, weighted
    rows at unit and at random weights, each certified feasible."""
    out = []
    for cls in GENERATOR_CLASSES:
        for row in ROWS:
            n = GRID_N.get(row.problem, GRID_OTHER_N)
            g, _ = generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), 1))
            if row.problem == "cvc" and not g.is_connected():
                continue
            for w in (None, random_weights(g.n, 1)) if row.weighted else (None,):
                res = run_algorithm(row.problem, row.param, g, w)
                assert res.feasible, (cls, row.problem, row.param, w is None)
                out.append(f"{cls} {row.problem} {row.param} {int(w is not None)} {res.value} "
                           f"{res.certificate}\n")
    assert _sha("".join(out)) == GRID_SHA256

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
CVC_SMALL_CLIQUES_SHA256 = "6f61deb59d386faf8ad5ec9d64bc9d6ac40feaf4191578349a839996c9597154"


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
            out.append(f"{i} {c} {sorted(cvc_budgeted(g.adj_bits, g.full_mask, c).cover)}\n")
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
CVC_SPLIT_DEEP_SHA256 = "f87fde14b06da6f4926c79243c77e386eb328667da42197635b8b515ea2945de"


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


# (n, density, draws) of the deep-descent digest; seeds count up from 6400.
CVC_SPLIT_DEEP_DRAWS = (
    (12, Fraction(1, 4), 100), (14, Fraction(1, 5), 100), (16, Fraction(1, 6), 100),
    (18, Fraction(1, 6), 20),
)


def test_cvc_split_deep_golden():
    """cvc_split on sparse connected random draws (n = 12-18), which
    descend one to five contraction levels before the exact tail; the
    planted split draws above reach at most one."""
    out = []
    for n, density, draws in CVC_SPLIT_DEEP_DRAWS:
        for seed in range(6400, 6400 + draws):
            g = random_connected_graph(n, density, seed)
            out.append(f"{n} {seed} {sorted(cvc_split(g).cover)}\n")
    assert _sha("".join(out)) == CVC_SPLIT_DEEP_SHA256


def test_cvc_small_after_contraction_golden():
    """The exact tail on connected random graphs (n <= 11) with the
    2-maximal clique and every singleton, c = 1..4, wherever the
    contraction has a connected cover of size at most c."""
    out = []
    for i, g in enumerate(connected_corpus(60, 1, 11, seed0=6200)):
        for z in [two_maximal_clique(g)] + [frozenset({v}) for v in range(g.n)]:
            h, _ = g.contract_with_pendant(z)
            for c in (1, 2, 3, 4):
                if _brute_min_cvc(h.adj_bits, h.full_mask, c) is not None:
                    sol = cvc_small_after_contraction(g.adj_bits, g.full_mask, mask_of(z), c)
                    out.append(f"{i} {sorted(z)} {c} {sorted(sol.cover)}\n")
    assert _sha("".join(out)) == CVC_SMALL_SHA256


def test_cvc_small_after_contraction_every_clique_golden():
    """The exact tail on every clique z of 1-4 vertices of connected
    random graphs (n = 2-11), c = 1..4, with the ValueError text
    wherever the contraction's optimum is past the budget."""
    out = []
    for i, g in enumerate(connected_corpus(120, 2, 11, seed0=6300)):
        for z in cliques(g, (1, 2, 3, 4)):
            for c in (1, 2, 3, 4):
                try:
                    got = sorted(cvc_small_after_contraction(g.adj_bits, g.full_mask, mask_of(z), c).cover)
                except ValueError as exc:
                    got = f"ValueError: {exc}"
                out.append(f"{i} {sorted(z)} {c} {got}\n")
    assert _sha("".join(out)) == CVC_SMALL_CLIQUES_SHA256


# (row, generator classes) of the local-ratio digest: the three
# forbidden-family rows and vc_chordal on every listed class, vc_fvs on
# three of them.
LOCAL_RATIO_ROWS = (
    ("P3", ("cluster", "cocluster", "cograph", "chordal", "forest", "split", "triangle-free")),
    ("co-P3", ("cluster", "cocluster", "cograph", "chordal", "forest", "split", "triangle-free")),
    ("P4", ("cluster", "cocluster", "cograph", "chordal", "forest", "split", "triangle-free")),
    ("chordal", ("cluster", "cocluster", "cograph", "chordal", "forest", "split", "triangle-free")),
    ("fvs", ("cluster", "chordal", "forest")),
)
LOCAL_RATIO_SHA256 = "3b9427ed6f5054a2da0b91b3ce33053e360242653275d200b728cc4e043ca41b"


def _local_ratio_row(row: str):
    if row == "chordal":
        return vc_chordal
    if row == "fvs":
        return vc_fvs
    return lambda g, w: vc_local_ratio_ffree(g, w, row)


def test_local_ratio_rows_golden():
    """Covers of vc_local_ratio_ffree (P3, co-P3, P4), vc_chordal and
    vc_fvs on planted draws (n = 10, 40, 100, 200, k = n/10, density
    1/2) with unit weights and random weights of which none, about a
    tenth and about two fifths are zero."""
    out = []
    for row, classes in LOCAL_RATIO_ROWS:
        solve = _local_ratio_row(row)
        for cls in classes:
            for i, n in enumerate((10, 40, 100, 200)):
                g, _ = generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), 9100 + i))
                weights = [unit_weights(g.n)]
                weights += [random_weights(g.n, 9200 + i, zero_share=z)
                            for z in (Fraction(0), Fraction(1, 10), Fraction(2, 5))]
                for j, w in enumerate(weights):
                    out.append(f"{row} {cls} {n} {j} {sorted(solve(g, w).cover)}\n")
    assert _sha("".join(out)) == LOCAL_RATIO_SHA256


# (family, shape, n) of the benchmark's cograph and cocluster rows that
# the local-ratio digest above does not reach: planted draws (k = n/10,
# density 1/2) and threshold cographs.
LOCAL_RATIO_SCALE = (
    ("P4", "cograph", 300), ("P4", "threshold", 400), ("P4", "threshold", 700),
    ("co-P3", "cocluster", 400), ("co-P3", "cocluster", 800),
)
LOCAL_RATIO_SCALE_SHA256 = "1e893d040ca2a4446652857d61a038f04f5333377d07136257c96ebdcdc4b034"


def test_local_ratio_scale_golden():
    """Covers of vc_local_ratio_ffree on the P4 and co-P3 rows at the
    benchmark's sizes, with unit weights and random weights of which
    none and about two fifths are zero."""
    out = []
    for i, (family, shape, n) in enumerate(LOCAL_RATIO_SCALE):
        if shape == "threshold":
            g = threshold_cograph(n)
        else:
            g, _ = generate(GeneratorSpec(shape, n - n // 10, n // 10, Fraction(1, 2), 9300 + i))
        weights = [unit_weights(g.n)]
        weights += [random_weights(g.n, 9400 + i, zero_share=z) for z in (Fraction(0), Fraction(2, 5))]
        for j, w in enumerate(weights):
            out.append(f"{family} {shape} {n} {j} {sorted(vc_local_ratio_ffree(g, w, family).cover)}\n")
    assert _sha("".join(out)) == LOCAL_RATIO_SCALE_SHA256


# (row, shape, n) of the benchmark's cluster, fvs and chordal rows that
# the local-ratio digest above does not reach: planted draws (k = n/10,
# density 1/2), the 1,000-vertex path and the 1,500-vertex caterpillar.
RESIDUAL_SCALE = (
    ("P3", "cluster", 400), ("P3", "cluster", 800),
    ("fvs", "forest", 400), ("fvs", "forest", 800),
    ("chordal", "chordal", 400), ("chordal", "chordal", 800),
    ("fvs", "path", 1000), ("fvs", "caterpillar", 1500),
    ("chordal", "path", 1000), ("chordal", "caterpillar", 1500),
)
RESIDUAL_SCALE_SHA256 = "0bf6ceb8d9850434292e8d9966f63e2968dd7a3956127eb6a067e3b1b0298b77"


def test_residual_scale_golden():
    """Covers of vc_local_ratio_ffree (P3), vc_fvs and vc_chordal at the
    benchmark's sizes, with unit weights and random weights of which
    none and about two fifths are zero."""
    out = []
    for i, (row, shape, n) in enumerate(RESIDUAL_SCALE):
        if shape == "path":
            g = path_graph(n)
        elif shape == "caterpillar":
            g = caterpillar(n)
        else:
            g, _ = generate(GeneratorSpec(shape, n - n // 10, n // 10, Fraction(1, 2), 9500 + i))
        weights = [unit_weights(g.n)]
        weights += [random_weights(g.n, 9600 + i, zero_share=z) for z in (Fraction(0), Fraction(2, 5))]
        solve = _local_ratio_row(row)
        for j, w in enumerate(weights):
            out.append(f"{row} {shape} {n} {j} {sorted(solve(g, w).cover)}\n")
    assert _sha("".join(out)) == RESIDUAL_SCALE_SHA256


# Planted triangle-free draws (k = n/10, density 1/2) for the vc-fvs
# digest, as (n, seed): the FVS local ratio on their V_half meets no
# degree-2 cycle and runs its degree-proportional step.
FVS_TRIANGLE_FREE = [(n, seed) for n in (100, 200, 400) for seed in (1, 2)]
FVS_TRIANGLE_FREE_SHA256 = "73fe7dcb2d8bc154f96da3cbf83edfbf34809ff0ddf0892e6041eabc8393e964"


def test_vc_fvs_triangle_free_golden():
    """Covers of vc_fvs on planted triangle-free draws, with unit weights
    and random weights of which none and about two fifths are zero, each
    solved by ``vc_fvs`` on the ``Fraction`` weights and by
    ``run_algorithm``."""
    out = []
    for n, seed in FVS_TRIANGLE_FREE:
        g, _ = generate(GeneratorSpec("triangle-free", n - n // 10, n // 10, Fraction(1, 2), seed))
        weights = [unit_weights(g.n)]
        weights += [random_weights(g.n, seed, zero_share=z) for z in (Fraction(0), Fraction(2, 5))]
        for j, w in enumerate(weights):
            res = run_algorithm("vc", "fvs", g, w)
            out.append(f"{n} {seed} {j} {sorted(vc_fvs(g, w).cover)} {res.certificate} "
                       f"{res.value}\n")
    assert _sha("".join(out)) == FVS_TRIANGLE_FREE_SHA256



# Planted coclusters (k = n/10, density 1/2) for the 3-maximal packing
# digest, and one draw whose swap search meets pools too small for the
# triangles it asks for.
TP_3MAXIMAL_SPECS = [
    GeneratorSpec("cocluster", n - n // 10, n // 10, Fraction(1, 2), seed)
    for n in (30, 60, 100, 150) for seed in range(1, 21)
] + [GeneratorSpec("cocluster", 54, 6, Fraction(1, 2), 10)]
TP_3MAXIMAL_SHA256 = "93279dcbf12e605a7e243011531139926b2c97172963096393af332bbe7a96d1"


def test_tp_3maximal_golden():
    """Packings of tp_3maximal on planted coclusters, triangles in order."""
    out = []
    for spec in TP_3MAXIMAL_SPECS:
        g, _ = generate(spec)
        tris = [sorted(t) for t in tp_3maximal(g).triangles]
        out.append(f"{spec.n} {spec.seed} {tris}\n")
    assert _sha("".join(out)) == TP_3MAXIMAL_SHA256


# Random graphs (n = 0..12 at densities 1/5, 1/2 and 4/5, two draws
# each) and planted cluster and cocluster draws (n + k <= 12) of the
# exact packing digest.
PACKING_PLANTED = [GeneratorSpec(cls, n, k, Fraction(1, 2), seed)
                   for cls in ("cluster", "cocluster") for n, k in ((8, 1), (9, 3), (10, 2), (12, 0))
                   for seed in range(1, 6)]
EXACT_PACKING_SHA256 = "18131a16ef093570a983596fe65d26d5104ff8f6c635d9f2fd40edac3b785fd7"


def test_exact_packing_golden():
    """Value and certificate of exact_max_tp, exact_max_matching_size,
    and the packings of tp_maximal and tp_3maximal, triangles in order."""
    graphs = [random_graph(n, d, 10100 + 6 * n + 3 * r + j)
              for n in range(13) for j, d in enumerate(MATCHING_DENSITIES) for r in range(2)]
    graphs += [generate(spec)[0] for spec in PACKING_PLANTED]
    out = []
    for i, g in enumerate(graphs):
        size, tris = exact_max_tp(g)
        out.append(f"{i} {size} {[sorted(t) for t in tris]} {exact_max_matching_size(g)}"
                   f" {[sorted(t) for t in tp_maximal(g).triangles]}"
                   f" {[sorted(t) for t in tp_3maximal(g).triangles]}\n")
    assert _sha("".join(out)) == EXACT_PACKING_SHA256


CHAINED_TRIANGLES_SHA256 = "9bf42dc681230a99069b5cdd5852406c86cc4a149b715ae2cd6a26ddcb32debd"


def test_chained_triangle_complement_golden():
    """Edges of chained_triangle_complement for 2..12 gadgets."""
    out = [f"{gadgets} {list(chained_triangle_complement(gadgets).edges())}\n"
           for gadgets in range(2, 13)]
    assert _sha("".join(out)) == CHAINED_TRIANGLES_SHA256


# (class, total n) of the planted draws (k = n/10, density 1/2, seeds
# 1-3) of the coloring digest, and the densities of its matching half.
COLORING_SCALE = [("p3k1-free", n) for n in (100, 150)]
COLORING_SCALE += [(cls, n) for cls in ("cochordal", "cograph") for n in (100, 200, 300, 400)]
COLORING_SCALE += [("chordal", n) for n in (400, 800)]
MATCHING_DENSITIES = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
COLORING_SCALE_SHA256 = "021489b74c0d4de5d50f9e3da0fb34e792afd247a929af6ff7337a9dcbf8f1e8"


def test_coloring_scale_golden():
    """Colors of color_p3k1free and color_degeneracy on planted draws of
    the classes above, and the sorted pairs of max_matching on random
    graphs (n 0..40 at densities 1/5, 1/2 and 4/5)."""
    out = []
    for cls, n in COLORING_SCALE:
        for seed in (1, 2, 3):
            g, _ = generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), seed))
            out.append(f"{cls} {n} {seed} {list(color_p3k1free(g).colors)}"
                       f" {list(color_degeneracy(g).colors)}\n")
    for n in range(41):
        for j, d in enumerate(MATCHING_DENSITIES):
            g = random_graph(n, d, 9900 + 3 * n + j)
            out.append(f"{n} {j} {sorted(max_matching(g))}\n")
    assert _sha("".join(out)) == COLORING_SCALE_SHA256

# -- oracles and shared graph routines ------------------------------------

# Every class ``epa oracle --modulator`` accepts.
MODULATOR_CLASSES = (
    "edgeless", "cluster", "cocluster", "cograph", "p3k1-free", "triangle-free",
    "co-triangle-free", "split", "forest", "bipartite", "chordal", "cochordal",
)

ORACLE_CLI_SHA256 = "eb5eb9796f7feb23a6352e1c227a5a3433c086b060831361cd76872af4321b06"
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



# (class, n) of the k = 0 cotree draws, each at seeds 1 and 2.
COTREE_DRAWS = [(cls, n) for cls in ("cograph", "cluster", "cocluster") for n in (100, 400, 800)]
COTREE_WALKS_SHA256 = "5709655c81475f93d1c7460fc7dbc289d0e9423c965506cd1bc50734f2c6e1a9"


def _weightings(n: int, seed: int):
    """Unit weights, random weights, and random weights of which about
    half are zero (zeros and ties)."""
    return (unit_weights(n), random_weights(n, seed),
            random_weights(n, seed, zero_share=Fraction(1, 2)))


def test_cotree_walks_golden():
    """repr, evaluate and cotree_independent_set (three weightings) of the
    cotrees of the empty and 1-vertex graphs, the 300- and 700-vertex
    threshold cographs and k = 0 cograph, cluster and cocluster draws
    (n = 100, 400, 800, seeds 1-2); and wvc_cluster's cover of cluster
    draws at n = 10-800 with the same weightings."""
    graphs = [Graph(0, []), Graph(1, []), threshold_cograph(300), threshold_cograph(700)]
    graphs += [generate(GeneratorSpec(cls, n, 0, Fraction(1, 2), seed))[0]
               for cls, n in COTREE_DRAWS for seed in (1, 2)]
    h = hashlib.sha256()
    for i, g in enumerate(graphs):
        tree = build_cotree(g)
        vs, es = tree.evaluate()
        h.update(f"{i} {tree!r}\n{vs}\n{es}\n".encode())
        for w in _weightings(g.n, 9000 + i):
            h.update(f"{cotree_independent_set(tree, w):x}\n".encode())
    for i, n in enumerate((10, 20, 50, 100, 200, 400, 800)):
        for seed in (1, 2):
            g, _ = generate(GeneratorSpec("cluster", n, 0, Fraction(1, 2), seed))
            for w in _weightings(g.n, 9100 + 2 * i + seed):
                h.update(f"{n} {seed} {sorted(wvc_cluster(g, w))}\n".encode())
    assert h.hexdigest() == COTREE_WALKS_SHA256


# (depth, seeds) of the deep_cograph draws of the deep cotree digest,
# each drawn as a cograph and with a P4 at the bottom.
DEEP_COTREE_DRAWS = [(depth, range(1, 7)) for depth in range(13)] + [(60, range(1, 4)), (300, range(1, 4))]
DEEP_COTREE_SHA256 = "a3833a93deeeadd5bfbac01607c517ff3d75f98838b429f5611223c6edb5f186"


def test_deep_cotree_golden():
    """build_cotree on the threshold cographs of n = 1..64 and 1,400, and
    on deep_cograph draws whole and under a random mask of density 1/4,
    1/2 or 3/4: deep trees whose levels peel a universal or isolated
    vertex, a module or both, and the P4 a deep level returns."""
    out = [f"{n} {build_cotree(threshold_cograph(n))!r}\n" for n in [*range(1, 65), 1400]]
    rng = SplitMix64(9800)
    for depth, seeds in DEEP_COTREE_DRAWS:
        for seed in seeds:
            for p4 in (False, True):
                g = deep_cograph(depth, 9800 + seed, p4)
                p = Fraction(1 + rng.below(3), 4)
                for within in (g.full_mask, mask_of(v for v in range(g.n) if rng.chance(p))):
                    tree = build_cotree(g, within)
                    shown = sorted(tree) if isinstance(tree, frozenset) else repr(tree)
                    out.append(f"{depth} {seed} {p4} {within:x} {shown}\n")
    assert _sha("".join(out)) == DEEP_COTREE_SHA256


# (class, total n, seeds) of the planted draws (k = n/10, density 1/2) of
# the greedy colouring digest.
GREEDY_COLORING_DRAWS = [("cochordal", 400, range(1, 4)), ("cograph", 400, range(1, 4)),
                         ("p3k1-free", 100, range(4, 10))]
GREEDY_COLORING_SHA256 = "819e95418ee59fb835e6c6e8ec5b89a7e6a9b0f0dfbc980acae8512dbfad4758"


def test_greedy_colorings_golden():
    """color_greedy_mis on the 1,400-vertex threshold cograph and on
    planted cochordal and cograph draws, and color_p3k1free on planted
    p3k1-free draws."""
    out = [f"threshold {list(color_greedy_mis(threshold_cograph(1400)).colors)}\n"]
    for cls, n, seeds in GREEDY_COLORING_DRAWS:
        for seed in seeds:
            g, _ = generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), seed))
            color = color_p3k1free if cls == "p3k1-free" else color_greedy_mis
            out.append(f"{cls} {n} {seed} {list(color(g).colors)}\n")
    assert _sha("".join(out)) == GREEDY_COLORING_SHA256


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



LINE_LOOP_SHA256 = "bf37f0498d9a77401af0b5578a8d1ce943795c97a6dfbd54390ec415a691e2f4"


def test_line_loop_golden():
    """parse_instance's graph rows and weights, or its exact error line,
    on the tab variant of every file and mutation of
    tests/test_instances.py: the error texts, the files with an edge in
    the header, the 2,000 mutated small files, the large file and its
    mutations, and the side files with every mutation.  A tab variant
    holds no canonical edge line, so only the line loop reads it."""
    texts = [text for text, *_ in PARSE_FRAGMENTS + PARSE_ERRORS] + HEADER_EDGE_TEXTS
    texts += [text for _, text in mutated_small_files()]
    texts += [large_base()[2]] + [text for _, text in mutated_large_files()]
    side_files = serialized_side_files()
    texts += [text for _, text, _ in side_files]
    texts += [text for kind in EDGE_MUTATIONS + FILE_MUTATIONS
              for _, _, text in mutated_side_files(kind, side_files)]
    h = hashlib.sha256()
    for text in texts:
        try:
            g, w = parse_instance(text.replace(" ", "\t"))
        except ParseError as err:
            h.update(f"{err} {err.line}\n".encode())
        else:
            h.update(f"{' '.join(format(b, 'x') for b in g.adj_bits)} {' '.join(map(str, w))}\n".encode())
    assert h.hexdigest() == LINE_LOOP_SHA256


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


# Total n of the scale generator digest, per class: the benchmark's
# sizes, which GENERATE_SIZES does not reach.  Bipartite, split and
# triangle-free draw once per vertex pair, so they stop at n = 400.
GENERATE_SCALE_SIZES = {
    "cluster": (400, 800), "cocluster": (400, 800), "forest": (400, 800), "chordal": (400, 800),
    "bipartite": (200, 400), "split": (200, 400), "triangle-free": (200, 400),
}
GENERATE_SCALE_SHA256 = "2566771e6905a766e6b376c0981bbab59f8388bcc1a87bd5c3324cd7c3a8ac8b"


def test_generate_scale_golden():
    """serialize_instance(g, w) and the sorted planted set of generate()
    at GENERATE_SCALE_SIZES (k = n/10 planted), densities 1/2 and 1/3
    and two seeds; w is a random_weights draw on each class's first
    draw and None on the others."""
    h = hashlib.sha256()
    for i, (base, sizes) in enumerate(GENERATE_SCALE_SIZES.items()):
        first = (sizes[0], Fraction(1, 2), 4500 + i)
        for n in sizes:
            for density in (Fraction(1, 2), Fraction(1, 3)):
                for seed in (4500 + i, 4550 + i):
                    g, planted = generate(GeneratorSpec(base, n - n // 10, n // 10, density, seed))
                    w = random_weights(g.n, seed) if (n, density, seed) == first else None
                    h.update(serialize_instance(g, w).encode())
                    h.update(f"planted {sorted(planted)}\n".encode())
    assert h.hexdigest() == GENERATE_SCALE_SHA256


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


# -- the half-integral LP ------------------------------------------------

LP_DENSITIES = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
LP_CLASSES = ("forest", "chordal", "bipartite", "cograph", "triangle-free")
LP_HALF_SHA256 = "ba206e33ffaa39cd2ceff10436c134bbe91badab05de321f591ce480305d3210"


def test_lp_half_integral_golden():
    """values and objective of lp_half_integral_vc on random graphs
    (n 0..30 at densities 1/5, 1/2 and 4/5) with unit weights, random
    weights and random weights of which about half are zero; on planted
    forest, chordal, bipartite, cograph and triangle-free draws at
    n = 100 and 200 (k = n/10), unit and weighted; and on a 1000-vertex
    path, a 1500-vertex caterpillar and a 700-vertex threshold cograph."""
    cases = []
    for n in range(31):
        for j, d in enumerate(LP_DENSITIES):
            i = 3 * n + j
            g = random_graph(n, d, 8100 + i)
            cases += [(g, None), (g, random_weights(n, 8200 + i)),
                      (g, random_weights(n, 8200 + i, zero_share=Fraction(1, 2)))]
    for i, (cls, n) in enumerate((c, n) for c in LP_CLASSES for n in (100, 200)):
        g, _ = generate(GeneratorSpec(cls, n - n // 10, n // 10, Fraction(1, 2), 8300 + i))
        cases += [(g, None), (g, random_weights(g.n, 8400 + i))]
    cases += [(path_graph(1000), None), (caterpillar(1500), None),
              (threshold_cograph(700), None)]
    out = []
    for i, (g, w) in enumerate(cases):
        lp = lp_half_integral_vc(g, w)
        out.append(f"{i} {lp.objective} {' '.join(map(str, lp.values))}\n")
    assert _sha("".join(out)) == LP_HALF_SHA256
