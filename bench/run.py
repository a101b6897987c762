"""Benchmark of the epa package: three workloads, checked outputs,
end-to-end metrics, and a traced run for per-layer metrics.

    python3 bench/run.py --workload split-ladder --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of the same checkout.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; failed jobs are listed on the lines before it.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CORPUS_ROOT = ROOT / ".bench_build"
JOB_LIMIT_S = 5.0      # s at reference speed; also what a failed job is charged
SETUP_REPEATS = 3


def _import_package() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import epa
        import epa.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import epa from {src}: {exc}")
    if Path(epa.__file__).resolve().parent != (src / "epa").resolve():
        raise SystemExit(f"error: epa was imported from {epa.__file__}, not from {src}")


_import_package()

import jobs as job_runner  # noqa: E402  (needs the package on sys.path)
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, call_counts, layer_metrics, merge  # noqa: E402


def run_pass(jobs, clock, tracer=None):
    """Run every job once.  Returns the outcomes and each job's time
    scaled to reference speed."""
    outcomes, scaled = [], []
    last = clock.tick()
    for job in jobs:
        outcome = job_runner.run_job(job, clock.wall(JOB_LIMIT_S))
        if tracer is not None and outcome.error is not None:
            tracer.reset_stack()
        outcomes.append(outcome)
        now = clock.tick()
        scaled.append(now - last)
        last = now
    return outcomes, scaled


def evaluate(jobs, passes):
    """Check every output and charge failures the time limit.

    ``passes`` holds (outcomes, scaled times) per pass.  Returns each
    job's time as the median of its passes, the failure records, and
    whether every completed output passed its checks.  Scaling removes
    most of the machine's slow states; the median drops the passes in
    which a job and the readings around it met different states."""
    verdicts: dict[tuple[int, str], str | None] = {}
    failures = []
    charged = [[] for _ in jobs]
    for p, (outcomes, scaled) in enumerate(passes):
        for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
            error = outcome.error
            if error is None:
                key = (i, outcome.output)
                if key not in verdicts:
                    verdicts[key] = job_runner.check(job, outcome.output)
                if verdicts[key] is not None:
                    error = f"check: {verdicts[key]}"
            if error is None:
                charged[i].append(scaled[i])
            else:
                charged[i].append(JOB_LIMIT_S)
                failures.append({"pass": p, "row": job.row, "family": job.family,
                                 "n": job.n, "seed": job.seed, "error": error})
    correct = all(v is None for v in verdicts.values())
    return [statistics.median(c) for c in charged], failures, correct


def nearest_rank(sorted_values, share):
    return sorted_values[max(0, math.ceil(len(sorted_values) * share) - 1)]


def untraced_run(workload, seed, seconds, corpus):
    """Set up, then run a pass over the job list, and again, until the
    next set-up and pass would no longer fit in ``seconds``; then set up
    again until there were ``SETUP_REPEATS`` set-ups.  Every time is
    scaled to reference speed; ``setup_s`` and each job's time are the
    median of their repeats."""
    clock = speed.Clock()
    setup_times, passes = [], []

    def set_up():
        began = clock.tick()
        made = workloads.SETUP[workload](corpus, seed, clock.tick)
        setup_times.append(clock.tick() - began)
        return made

    start = perf_counter()
    while True:
        jobs = set_up()
        gc.collect()
        passes.append(run_pass(jobs, clock))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    per_job, failures, correct = evaluate(jobs, passes)
    ordered = sorted(per_job)
    attempted = len(jobs) * len(passes)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "total_s": {"value": sum(per_job), "unit": "s"},
        "job_p50_ms": {"value": 1000 * nearest_rank(ordered, 0.5), "unit": "ms"},
        "job_p90_ms": {"value": 1000 * nearest_rank(ordered, 0.9), "unit": "ms"},
        "ok_share": {"value": 1 - len(failures) / attempted, "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    print(f"{workload}: {len(jobs)} jobs, {len(passes)} passes of "
          + ", ".join(f"{sum(o.seconds for o in outcomes):.2f}" for outcomes, _ in passes)
          + " s wall time, " + ", ".join(f"{sum(scaled):.2f}" for _, scaled in passes)
          + " s at reference speed; set-ups " + ", ".join(f"{t:.3f}" for t in setup_times)
          + " s at reference speed")
    return correct, attempted, failures, metrics


def sweep_csv_matches(jobs, outcomes):
    """``reports.bench`` gives the same bytes with one and two workers,
    and the same bytes as our per-job rows sorted its way."""
    reports = sys.modules["epa.reports"]
    specs = [job.spec for job in jobs]
    one = reports.bench(specs, workers=1)
    two = reports.bench(specs, workers=2)
    rows = [row for o in outcomes for row in o.output.split("\n") if row]
    rows.sort(key=lambda r: (int(r.split(",")[0]), r.split(",")[1], r.split(",")[5]))
    ours = reports.CSV_HEADER + "\n" + "".join(row + "\n" for row in rows)
    return one == two == ours


def traced_run(workload, seed, corpus):
    """Set up once, then run a traced pass, an untraced pass and a second
    traced pass.  The first traced pass also warms up, so the overhead
    compares the two later passes, at reference speed.  Checks that every
    listed function was found, that tracing changes no output and that
    every count repeats."""
    tracer = Tracer()
    tracer.install()
    try:
        jobs = workloads.SETUP[workload](corpus, seed)
    finally:
        tracer.uninstall()
    setup_taken = tracer.take()
    gc.collect()
    tracer.install()
    try:
        first, _ = run_pass(jobs, speed.Clock(), tracer)
    finally:
        tracer.uninstall()
    first_taken = tracer.take()
    clock = speed.Clock()
    plain, plain_s = run_pass(jobs, clock)
    tracer.install()
    try:
        second, second_s = run_pass(jobs, clock, tracer)
    finally:
        tracer.uninstall()
    second_taken = tracer.take()
    passes = [(o, [x.seconds for x in o]) for o in (first, plain, second)]
    _, failures, correct = evaluate(jobs, passes)
    problems = [f"not found in the package: {name}" for name in tracer.missing]
    same = [(o.output, o.error) for o in plain]
    if [(o.output, o.error) for o in first] != same or [(o.output, o.error) for o in second] != same:
        problems.append("traced outputs differ from untraced outputs")
    if call_counts(first_taken) != call_counts(second_taken):
        problems.append("call counts differ between two traced passes")
    if workload == "oracle-sweep" and not sweep_csv_matches(jobs, plain):
        problems.append("bench CSV differs across worker counts or from per-job rows")
    for problem in problems:
        print(f"self-check: {problem}")
    overhead = sum(second_s) / sum(plain_s) - 1
    metrics = layer_metrics(merge(setup_taken, second_taken), overhead)
    print(f"{workload}: {len(jobs)} jobs traced, tracing overhead {overhead:.3f}")
    return correct and not problems, 3 * len(jobs), failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    corpus = CORPUS_ROOT / f"corpus-{args.workload}-{os.getpid()}"
    corpus.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, corpus)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds, corpus)
    finally:
        shutil.rmtree(corpus, ignore_errors=True)
    correct, attempted, failures, metrics = result
    for failure in failures:
        print("failed: " + json.dumps(failure))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
