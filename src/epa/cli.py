"""Command line interface.

    epa solve  --problem vc --param fvs --input graph.epa [--json]
    epa verify --problem vc --param fvs --input graph.epa [--json] [--oracle-budget N]
    epa bench  --classes cluster,split --n 9 --k 0,1,2 --seeds 0:20 --csv out.csv
    epa gen    --class split --n 12 --k 2 --density 1/2 --seed 7 [--out inst.epa]
    epa oracle --problem vc --input graph.epa [--modulator split]

Exit codes: 0 ok, 1 parse/input error (also an input too deep for Python's
recursion limit), 2 unsupported pair, 3 over oracle budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .generator import GENERATOR_CLASSES, GenerationError, GeneratorSpec, generate
from .instances import parse_instance, serialize_instance
from .recognize import CLASSES
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OracleBudget,
    exact_lp_vc,
    exact_min_modulator,
)
from .reports import (
    PARAMS,
    PROBLEMS,
    ROWS,
    GuaranteeReport,
    UnsupportedPair,
    bench,
    oracle_weights,
    run_algorithm,
    verify_guarantee,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNSUPPORTED = 2
EXIT_BUDGET = 3


def _read_instance(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _budget(args) -> OracleBudget:
    if getattr(args, "oracle_budget", None) is None:
        return DEFAULT_BUDGET
    b = args.oracle_budget
    return replace(
        DEFAULT_BUDGET, vc=b, cvc=b, tp=b, coloring=b, modulator=b, lp=b
    )


def cmd_solve(args) -> int:
    g, w = _read_instance(args.input)
    res = run_algorithm(args.problem, args.param, g, w)
    if args.json:
        print(
            json.dumps(
                {
                    "problem": args.problem,
                    "param": args.param,
                    "algorithm": res.algorithm,
                    "value": str(res.value),
                    "feasible": res.feasible,
                    "certificate": res.certificate,
                }
            )
        )
    else:
        print(f"algorithm: {res.algorithm}")
        print(f"value: {res.value}")
        print(f"feasible: {'yes' if res.feasible else 'NO'}")
        print(f"certificate: {res.certificate}")
    return EXIT_OK


def _print_report(rep: GuaranteeReport, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                {
                    "problem": rep.problem,
                    "param": rep.param,
                    "algorithm": rep.algorithm,
                    "value": str(rep.value),
                    "opt": str(rep.opt),
                    "k_oracle": str(rep.k_oracle),
                    "bound_formula": rep.bound_formula,
                    "bound_value": str(rep.bound_value),
                    "pass": rep.passed,
                    "feasible": rep.feasible,
                    "micros": rep.micros,
                }
            )
        )
        return
    print(f"algorithm: {rep.algorithm}")
    print(f"value: {rep.value}")
    print(f"opt: {rep.opt}  k: {rep.k_oracle}")
    print(f"bound: {rep.bound_formula} = {rep.bound_value}")
    print(f"feasible: {'yes' if rep.feasible else 'NO'}")
    print(f"pass: {'yes' if rep.passed else 'NO'}  ({rep.micros} us)")


def cmd_verify(args) -> int:
    g, w = _read_instance(args.input)
    _print_report(verify_guarantee(args.problem, args.param, g, w, _budget(args)), args.json)
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            lo, hi = part.split(":", 1)
            out.extend(range(int(lo), int(hi)))
        elif part:
            out.append(int(part))
    return out


def cmd_bench(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    for c in classes:
        if c not in GENERATOR_CLASSES:
            raise UnsupportedPair(f"unsupported class {c!r}")
    sizes = _parse_int_list(args.n)
    ks = _parse_int_list(args.k)
    seeds = _parse_int_list(args.seeds)
    density = Fraction(args.density)
    specs = [
        GeneratorSpec(base, n, k, density, seed)
        for base in classes
        for n in sizes
        for k in ks
        for seed in seeds
    ]
    csv = bench(specs, _budget(args), timing=args.timing, workers=args.workers)
    if args.csv:
        _write(args.csv, csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.cls not in GENERATOR_CLASSES:
        raise UnsupportedPair(f"unsupported class {args.cls!r}")
    spec = GeneratorSpec(args.cls, args.n, args.k, Fraction(args.density), args.seed)
    g, planted = generate(spec)
    planted_str = " ".join(str(v + 1) for v in sorted(planted))
    comments = [
        f"generated base={spec.base} n={spec.n} k={spec.k} density={spec.density} seed={spec.seed}",
        f"planted {planted_str}".rstrip(),
    ]
    text = serialize_instance(g, None, comments=comments)
    if args.out:
        _write(args.out, text)
        sidecar = {
            "base": spec.base,
            "n": spec.n,
            "k": spec.k,
            "density": str(spec.density),
            "seed": spec.seed,
            "planted": sorted(v + 1 for v in planted),
        }
        _write(args.out + ".json", json.dumps(sidecar, indent=2) + "\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.modulator and args.modulator not in CLASSES:
        raise UnsupportedPair(f"no modulator oracle for class {args.modulator!r}")
    g, w = _read_instance(args.input)
    budget = _budget(args)
    out: dict[str, str] = {}
    # k and the optimum are weighed as verify weighs them: by w only on
    # weighted rows with non-unit weights
    weighted = any(r.weighted for r in ROWS if r.problem == args.problem
                   and (not args.modulator or r.modulator == args.modulator))
    wk = oracle_weights(weighted, w)
    if args.modulator:
        val, cert = exact_min_modulator(g, args.modulator, wk, budget)
        out["modulator_class"] = args.modulator
        out["k"] = str(val)
        out["modulator"] = str(sorted(v + 1 for v in cert))
    elif args.problem == "lp":
        out["opt"] = str(exact_lp_vc(g, w, budget))
    else:
        prob = PROBLEMS[args.problem]
        opt, cert = prob.optimum(g, wk, budget)
        out["opt"] = str(opt)
        out[prob.key] = str(prob.render(cert))
    if args.json:
        print(json.dumps(out))
    else:
        for key, val in out.items():
            print(f"{key}: {val}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` reuses it on every call."""
    parser = argparse.ArgumentParser(prog="epa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an algorithm on an instance")
    p_verify = sub.add_parser("verify", help="run and check the guarantee with oracles")
    for p in (p_solve, p_verify):
        p.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
        p.add_argument("--param", required=True, choices=PARAMS)
        p.add_argument("--input", required=True)
        p.add_argument("--json", action="store_true")
    p_verify.add_argument("--oracle-budget", type=int, default=None)

    p_bench = sub.add_parser("bench", help="sweep generated instances into a CSV")
    p_bench.add_argument("--classes", required=True, help="comma-separated base classes")
    p_bench.add_argument("--n", required=True, help="sizes, e.g. 8,9 or 6:10")
    p_bench.add_argument("--k", default="0", help="planted modulator sizes")
    p_bench.add_argument("--seeds", default="0:10", help="seed list/range lo:hi")
    p_bench.add_argument("--density", default="1/2")
    p_bench.add_argument("--csv", default=None, help="output path (stdout otherwise)")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument("--timing", action="store_true", help="emit wall time (breaks byte determinism)")
    p_bench.add_argument("--oracle-budget", type=int, default=None)

    p_gen = sub.add_parser("gen", help="generate an instance with a planted modulator")
    p_gen.add_argument("--class", dest="cls", required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=0)
    p_gen.add_argument("--density", default="1/2")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)

    p_oracle = sub.add_parser("oracle", help="exact optima for small instances")
    p_oracle.add_argument("--problem", default="vc", choices=(*PROBLEMS, "lp"))
    p_oracle.add_argument("--modulator", default=None)
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.add_argument("--oracle-budget", type=int, default=None)

    return parser


def main(argv=None) -> int:
    """Run one command; its failures become an ``error:`` line and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a rebound ``cmd_*`` is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, ZeroDivisionError, OSError, GenerationError, BudgetExceeded,
            RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnsupportedPair):
            return EXIT_UNSUPPORTED
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
