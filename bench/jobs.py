"""Running one job under a time limit, and checking what it returned.

A job never ends the benchmark: every exception, timeout and non-zero
exit becomes an ``Outcome`` with an error type, and every output that
completed is checked independently of the solver with ``epa.certify``.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Optional

from epa.certify import (
    is_connected_vertex_cover,
    is_proper_coloring,
    is_triangle_packing,
    is_vertex_cover,
)
from epa.instances import parse_instance
from epa.oracle import DEFAULT_BUDGET

from workloads import Job

SWEEP_COLUMNS = 11   # seed,class,n,k_planted,k_oracle,alg,value,opt,bound,pass,micros
PASS_COLUMN = 9


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the package cannot catch it."""


def _alarm(signum, frame):
    raise JobTimeout()


@dataclass(frozen=True)
class Outcome:
    seconds: float
    output: str                # captured stdout, or the CSV rows of a sweep job
    error: Optional[str]       # None, an exception type, "Timeout" or "exit <code>"


def solve_argv(job: Job) -> list[str]:
    problem, param = job.row.split("-", 1)
    return ["solve", "--problem", problem, "--param", param,
            "--input", str(job.path), "--json"]


def run_job(job: Job, limit: float) -> Outcome:
    """Run one job in this process, through the same entry point a user
    takes: ``epa.cli.main`` for solve jobs, ``reports.bench_instance``
    for sweep jobs.  Functions are looked up at call time so an
    installed tracer sees the call."""
    output, error = "", None
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if job.row == "sweep":
                rows = sys.modules["epa.reports"].bench_instance(job.spec, DEFAULT_BUDGET, False)
                output = "\n".join(rows)
            else:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = sys.modules["epa.cli"].main(solve_argv(job))
                output = out.getvalue()
                if code != 0:
                    error = f"exit {code}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        error = "Timeout"
    except Exception as exc:  # a crashing job is a result, not a benchmark failure
        error = type(exc).__name__
    seconds = perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    return Outcome(seconds, output, error)


# ---------------------------------------------------------------------
# output checks


def _clusters_without(g, removed: frozenset[int]) -> list[int]:
    """Component sizes of G - removed, by breadth-first search."""
    seen = set(removed)
    sizes = []
    for s in range(g.n):
        if s in seen:
            continue
        seen.add(s)
        queue, size = [s], 0
        while queue:
            u = queue.pop()
            size += 1
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        sizes.append(size)
    return sizes


def _ids(cert, limit: int) -> list[int]:
    if not isinstance(cert, list) or not all(type(v) is int and 0 <= v < limit for v in cert):
        raise ValueError(f"certificate is not a list of integers below {limit}")
    return cert


def check_solve(job: Job, output: str) -> Optional[str]:
    """Re-verify a ``solve --json`` answer against our own parse of the
    file, recompute its value from the certificate, and apply the
    planted-set bounds.  Returns the reason for a failed check."""
    with open(job.path, encoding="utf-8") as fh:
        g, w = parse_instance(fh.read())
    try:
        data = json.loads(output)
        cert = data["certificate"]
        value = Fraction(data["value"])
    except (ValueError, KeyError, TypeError):
        return "malformed solve output"
    problem, param = job.row.split("-", 1)
    try:
        if problem in ("vc", "cvc"):
            cover = _ids(cert, g.n)
            if problem == "vc":
                ok = is_vertex_cover(g, cover)
                recomputed = len(set(cover)) if param == "split" else sum(
                    (w[v] for v in set(cover)), Fraction(0))
            else:
                ok = is_connected_vertex_cover(g, cover)
                recomputed = len(set(cover))
        elif problem == "col":
            colors = _ids(cert, g.n + 1)
            ok = is_proper_coloring(g, colors)
            recomputed = len(set(colors))
        else:
            if not isinstance(cert, list):
                raise ValueError("certificate is not a list of triangles")
            triangles = [_ids(t, g.n) for t in cert]
            ok = is_triangle_packing(g, triangles)
            recomputed = len(triangles)
    except ValueError as exc:
        return str(exc)
    if not ok:
        return "certificate rejected by epa.certify"
    if data.get("feasible") is not True:
        return "solver reports an infeasible answer"
    if value != recomputed:
        return f"reported value {value} but certificate gives {recomputed}"
    k = len(job.planted)
    if job.row == "col-oct" and value > 2 + k:
        return f"{value} colors exceed 2 + |M| = {2 + k}"
    if job.row == "tp-cluster":
        floor = sum(size // 3 for size in _clusters_without(g, job.planted)) - k
        if value < floor:
            return f"{value} triangles below sum floor(|C|/3) - |M| = {floor}"
    return None


def check_sweep(job: Job, output: str) -> Optional[str]:
    """Every CSV row of the instance names it correctly and has pass=1."""
    rows = output.split("\n") if output else []
    if not rows:
        return "no rows"
    expect = [str(job.spec.seed), job.spec.base, str(job.n), str(len(job.planted))]
    for row in rows:
        cells = row.split(",")
        if len(cells) != SWEEP_COLUMNS or cells[:4] != expect:
            return f"unexpected row {row!r}"
        if cells[PASS_COLUMN] != "1":
            return f"row without pass=1: {row!r}"
    return None


def check(job: Job, output: str) -> Optional[str]:
    return check_sweep(job, output) if job.row == "sweep" else check_solve(job, output)
