"""The benchmark's workloads: fixed job lists drawn from a seed, and the
set-up that writes their corpus.

Every instance comes from the package's own splitmix64 generator or from
a deterministic family below, so one seed always yields the same files.
A job is one call a user would make: ``epa solve`` on one file, or one
instance of the ``epa bench`` oracle sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from epa.generator import GENERATOR_CLASSES, GeneratorSpec, generate, random_weights
from epa.graphs import Graph
from epa.instances import serialize_instance

DENSITY = Fraction(1, 2)

# split-ladder: (problem, total n, instances).  k = n/10 vertices are
# planted.  One instance's cost varies several-fold at a fixed n, and for
# cvc it is heavy-tailed: most instances at n=20-28 take 5-20 ms, but one
# in fifteen takes 0.2-1.5 s; at n=30 they take 0.02-1.5 s, and at n=32
# two of fifteen draws took 4-5 s.  So the rungs above n=16 get four
# instances or one, and two large blocks of vc jobs (n=48 and n=56) carry
# most of the total, so that a heavy draw moves it less.  The 700 cvc
# jobs at n=16, about 2 ms each and the tightest group, hold the median;
# the 90th percentile falls in the n=56 block.
SPLIT_LADDER: tuple[tuple[str, int, int], ...] = (
    ("cvc", 16, 700), ("cvc", 20, 4), ("cvc", 24, 4), ("cvc", 28, 4), ("cvc", 30, 1),
    ("vc", 40, 8), ("vc", 48, 150), ("vc", 56, 120), ("vc", 64, 4), ("vc", 72, 1),
    ("vc", 80, 1), ("vc", 88, 1), ("vc", 100, 1),
)

# scale-mix: row -> (generator class, ((total n, instances), ...)).  Each
# ladder climbs from n=100; vc-ccluster reaches n=800, where one job
# costs about a second, most of it parsing 288k edges.  Ladders stop
# lower where one instance's cost varies several-fold (tp-ccluster at
# n=200 takes 1.1-3.9 s, vc-cograph at n=400 0.14-0.9 s), where the
# generator itself is slow (the triangle-free base of p3k1-free costs
# about n^4.4; a cochordal instance at n=800 takes 1.8 s to generate
# and 1 s to color), or both (col-cograph at n=800 takes 0.4-0.7 s to
# generate and 0.4-0.8 s to color).  Two blocks of similar jobs carry
# the percentiles, both of vc-ccluster, whose instances vary least: n=100
# (about 11 ms) under the median and n=400 (0.12-0.22 s) under the 90th
# percentile.  About eight jobs of other rows are slower than the n=400
# block, so with 18 jobs the 90th percentile falls near its middle.
SCALE_LADDER: dict[str, tuple[str, tuple[tuple[int, int], ...]]] = {
    "vc-cograph": ("cograph", ((100, 12), (200, 2), (300, 1))),
    "vc-cluster": ("cluster", ((100, 3), (200, 2), (400, 1), (800, 1))),
    "vc-ccluster": ("cocluster", ((100, 50), (200, 2), (400, 18), (800, 1))),
    "vc-fvs": ("forest", ((100, 3), (200, 2), (400, 1), (800, 1))),
    "vc-chordal": ("chordal", ((100, 3), (200, 2), (400, 1), (800, 1))),
    "col-oct": ("bipartite", ((100, 3), (150, 2), (200, 2))),
    "col-chordal": ("chordal", ((100, 3), (200, 2), (400, 1), (800, 1))),
    "col-cograph": ("cograph", ((100, 3), (200, 6), (400, 1))),
    "col-cchordal": ("cochordal", ((100, 3), (200, 2), (400, 1))),
    "col-p3k1": ("p3k1-free", ((100, 3),)),
    "tp-cluster": ("cluster", ((100, 3), (200, 2), (400, 1), (800, 1))),
    "tp-ccluster": ("cocluster", ((100, 4), (150, 1))),
}

# scale-mix deep families: (family, total n, rows).  The threshold
# cograph at n=700 raises RecursionError under vc-cograph today; it stays
# in as a counted failure.
DEEP_FAMILIES: tuple[tuple[str, int, tuple[str, ...]], ...] = (
    ("threshold", 400, ("vc-cograph", "col-cograph")),
    ("threshold", 700, ("vc-cograph", "col-cograph")),
    ("path", 1000, ("vc-fvs", "vc-chordal")),
    ("caterpillar", 1500, ("vc-fvs", "vc-chordal")),
)

# oracle-sweep: the ``epa bench`` sweep over all generator classes with
# n + k <= 10, as (n, k) in the order ``epa bench`` loops over them.
SWEEP_SIZES: tuple[tuple[int, int], ...] = ((8, 0), (8, 1), (8, 2), (9, 0), (9, 1), (10, 0))
SWEEP_SEEDS_PER_RUN = 10



@dataclass(frozen=True)
class Job:
    """One job of a workload, with what the checks need to know."""

    row: str                  # "vc-split", "col-oct", ... or "sweep"
    family: str               # generator class or deep family
    n: int                    # vertices of the instance
    seed: int
    planted: frozenset[int]   # planted modulator (empty for deep families)
    path: Path | None = None  # the .epa file a solve job reads
    spec: GeneratorSpec | None = None  # the spec a sweep job runs


def threshold_cograph(n: int) -> Graph:
    """Odd vertices dominate every earlier vertex; cotree depth is about n."""
    return Graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])


def long_path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def caterpillar(n: int) -> Graph:
    """A path on n/3 spine vertices, each with two pendant legs."""
    spine = n // 3
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + 2 * i + leg) for i in range(spine) for leg in (0, 1)]
    return Graph(spine * 3, edges)


_DEEP = {"threshold": threshold_cograph, "path": long_path, "caterpillar": caterpillar}


def _write(path: Path, g: Graph, w=None) -> None:
    path.write_text(serialize_instance(g, w), encoding="utf-8")


def _planted(corpus: Path, index: int, row: str, cls: str, n: int, seed: int,
             weighted: bool = False) -> tuple[Job, Graph]:
    k = n // 10
    spec = GeneratorSpec(cls, n - k, k, DENSITY, seed)
    g, planted = generate(spec)
    path = corpus / f"{index:04d}.epa"
    _write(path, g, random_weights(g.n, seed) if weighted else None)
    return Job(row, cls, g.n, seed, planted, path, spec), g


def _no_tick() -> float:
    return 0.0


# Each set-up calls ``tick`` after every instance, so that a scaled
# clock (see ``speed.Clock``) reads the machine next to each instance.


def setup_split_ladder(corpus: Path, seed: int, tick: Callable[[], float] = _no_tick) -> list[Job]:
    """Planted split instances; cvc jobs only on connected ones, the rule
    ``epa bench`` uses, so disconnected draws are skipped."""
    jobs: list[Job] = []
    draw = seed * 100_000
    for problem, n, count in SPLIT_LADDER:
        made = 0
        while made < count:
            job, g = _planted(corpus, len(jobs), f"{problem}-split", "split", n, draw)
            draw += 1
            tick()
            if problem == "cvc" and not g.is_connected():
                continue
            jobs.append(job)
            made += 1
    return jobs


def setup_scale_mix(corpus: Path, seed: int, tick: Callable[[], float] = _no_tick) -> list[Job]:
    """Planted instances per row and size, weighted VC rows on every
    other instance, then the deep families."""
    jobs: list[Job] = []
    draw = seed * 100_000
    for row, (cls, ladder) in SCALE_LADDER.items():
        for n, count in ladder:
            for i in range(count):
                weighted = row.startswith("vc-") and i % 2 == 1
                job, _ = _planted(corpus, len(jobs), row, cls, n, draw, weighted)
                jobs.append(job)
                draw += 1
                tick()
    for family, n, rows in DEEP_FAMILIES:
        g = _DEEP[family](n)
        path = corpus / f"{family}-{n}.epa"
        _write(path, g)
        jobs.extend(Job(row, family, g.n, 0, frozenset(), path) for row in rows)
        tick()
    return jobs


def sweep_specs(seed: int) -> list[GeneratorSpec]:
    seeds = range(seed * SWEEP_SEEDS_PER_RUN, (seed + 1) * SWEEP_SEEDS_PER_RUN)
    return [
        GeneratorSpec(base, n, k, DENSITY, s)
        for base in GENERATOR_CLASSES
        for n, k in SWEEP_SIZES
        for s in seeds
    ]


def setup_oracle_sweep(corpus: Path, seed: int, tick: Callable[[], float] = _no_tick) -> list[Job]:
    """Generate every instance of the sweep for the size and planted set
    its rows must name; the jobs run ``reports.bench_instance`` on the
    spec, which generates it again, so nothing is written."""
    jobs: list[Job] = []
    for spec in sweep_specs(seed):
        g, planted = generate(spec)
        jobs.append(Job("sweep", spec.base, g.n, spec.seed, planted, spec=spec))
        tick()
    return jobs


SETUP = {
    "split-ladder": setup_split_ladder,
    "scale-mix": setup_scale_mix,
    "oracle-sweep": setup_oracle_sweep,
}
