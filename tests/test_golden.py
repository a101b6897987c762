"""Golden byte-identity: pinned digests of ``epa bench`` CSV and of
``solve --json`` on planted split instances.

The digests were taken before the split rows moved to adjacency masks.
Any change of tie-breaking, cover choice or output format changes them;
such a change must say why and pin the new digests.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout
from fractions import Fraction

from epa.cli import main
from epa.generator import GeneratorSpec, generate
from epa.instances import serialize_instance
from epa.reports import bench

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
