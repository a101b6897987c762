"""Outside-in tracer for the epa package.

The tracer wraps the public functions listed in ``LAYERS`` from the
benchmark's side; the package itself carries no tracing code.  Because
``from .solvers import fvs_2approx`` copies the binding into the
importing module, wrapping one attribute is not enough: ``install``
rebinds every attribute of every loaded ``epa`` module that refers to a
listed function object, and ``uninstall`` puts every binding back.

Each wrapped function counts its calls and its self time, which is its
wall time minus the wall time of wrapped functions it called.  A few
extra counters measure wasted work where a layer can waste it.  A listed
function that the package no longer has is named in ``missing``; the
traced run treats that as a failed self-check, not as a layer at 0.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter

LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "instances": ("parse_instance", "serialize_instance"),
    "reports": ("run_algorithm", "verify_guarantee", "bench_instance"),
    "generator": ("generate",),
    "recognize": ("recognize", "find_induced", "build_cotree"),
    "graphs": (
        "Graph.__init__",
        "Graph.induced_subgraph",
        "Graph.contract_with_pendant",
        "Graph.complement",
    ),
    "solvers": (
        "lp_half_integral_vc",
        "max_matching",
        "fvs_2approx",
        "cvc_savage",
        "vc_2approx",
        "wvc_forest",
        "wvc_cluster",
        "wvc_cograph",
    ),
    "vertex_cover": (
        "vc_local_ratio_ffree",
        "vc_fvs",
        "vc_chordal",
        "vc_split",
        "vc_budgeted_2approx",
        "two_maximal_clique",
    ),
    "connected_vc": ("cvc_split", "cvc_budgeted", "cvc_small_after_contraction"),
    "coloring": (
        "color_with_class_oracle",
        "color_degeneracy",
        "color_greedy_mis",
        "color_p3k1free",
    ),
    "packing": ("tp_maximal", "tp_3maximal"),
    "oracle": (
        "exact_min_modulator",
        "exact_min_wvc",
        "exact_min_vc",
        "exact_min_cvc",
        "exact_chromatic",
        "exact_max_tp",
    ),
    "certify": (
        "is_vertex_cover",
        "is_connected_vertex_cover",
        "is_proper_coloring",
        "is_triangle_packing",
        "induces_pattern",
    ),
}

TIMED = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)
COUNTERS = (
    "recognize.find_induced.hits",
    "connected_vc.connected_subsets.yielded",
    "coloring.oracle_attempt.calls",
    "coloring.oracle_attempt.accepted",
)


class Tracer:
    """Call counts and self times of the listed functions.

    ``stats`` maps a timed name to ``[calls, self_seconds]`` and
    ``counts`` maps a counter name to an integer; ``take`` returns both
    and starts them again from zero.
    """

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0] for name in TIMED}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._children: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _timed(self, name: str, fn):
        stat = self.stats[name]
        children = self._children

        def wrapper(*args, **kwargs):
            frame = [0.0]
            children.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children.pop()
                if children:
                    children[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]

        return wrapper

    def _find_induced(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            found = fn(*args, **kwargs)
            if found is not None:
                counts["recognize.find_induced.hits"] += 1
            return found

        return wrapper

    def _connected_subsets(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for sub in fn(*args, **kwargs):
                counts["connected_vc.connected_subsets.yielded"] += 1
                yield sub

        return wrapper

    def _class_oracle(self, fn):
        """Wrap an oracle factory so each attempt it hands out is counted,
        and accepted when it returns a proper coloring within budget."""
        counts = self.counts

        def factory(*args, **kwargs):
            oracle = fn(*args, **kwargs)
            attempt, budget = oracle.attempt, oracle.budget

            def counted(g):
                colors = attempt(g)
                counts["coloring.oracle_attempt.calls"] += 1
                if (
                    len(colors) == g.n
                    and all(1 <= c <= budget for c in colors)
                    and all(colors[u] != colors[v] for u in range(g.n) for v in g.adj[u])
                ):
                    counts["coloring.oracle_attempt.accepted"] += 1
                return colors

            return dataclasses.replace(oracle, attempt=counted)

        return factory

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function in every loaded epa module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace: dict[int, tuple[object, object]] = {}
        self.missing = []
        for mod, names in LAYERS.items():
            module = sys.modules.get(f"epa.{mod}")
            for name in names:
                full = f"{mod}.{name}"
                if name.startswith("Graph."):
                    graph_cls = getattr(module, "Graph", None)
                    meth = name.split(".", 1)[1]
                    fn = vars(graph_cls).get(meth) if graph_cls is not None else None
                    if fn is None:
                        self.missing.append(full)
                        continue
                    self._saved.append((graph_cls, meth, fn))
                    setattr(graph_cls, meth, self._timed(full, fn))
                    continue
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(full)
                    continue
                wrapped = self._timed(full, fn)
                if full == "recognize.find_induced":
                    wrapped = self._find_induced(wrapped)
                replace[id(fn)] = (fn, wrapped)
        extras = (
            ("connected_vc", "connected_subsets", self._connected_subsets),
            ("coloring", "bipartite_oracle", self._class_oracle),
        )
        for mod, name, make in extras:
            fn = getattr(sys.modules.get(f"epa.{mod}"), name, None)
            if callable(fn):
                replace[id(fn)] = (fn, make(fn))
            else:
                self.missing.append(f"{mod}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "epa" and not modname.startswith("epa."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every binding ``install`` changed."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        self._children.clear()

    def reset_stack(self) -> None:
        """Forget open frames; called after a job was interrupted."""
        self._children.clear()

    def take(self) -> tuple[dict[str, tuple[int, float]], dict[str, int]]:
        """Return the statistics gathered so far and zero them."""
        stats = {name: (s[0], s[1]) for name, s in self.stats.items()}
        counts = dict(self.counts)
        for s in self.stats.values():
            s[0], s[1] = 0, 0.0
        for name in self.counts:
            self.counts[name] = 0
        return stats, counts


def merge(*parts: tuple[dict, dict]) -> tuple[dict[str, tuple[int, float]], dict[str, int]]:
    """Sum several ``take`` results."""
    stats = {name: (0, 0.0) for name in TIMED}
    counts = dict.fromkeys(COUNTERS, 0)
    for part_stats, part_counts in parts:
        for name, (calls, self_s) in part_stats.items():
            stats[name] = (stats[name][0] + calls, stats[name][1] + self_s)
        for name, value in part_counts.items():
            counts[name] += value
    return stats, counts


def call_counts(taken: tuple[dict, dict]) -> dict[str, int]:
    """The exact counts of a ``take`` result, which must repeat run to run."""
    stats, counts = taken
    out = {f"{name}.calls": calls for name, (calls, _) in stats.items()}
    out.update(counts)
    return out


def layer_metrics(taken: tuple[dict, dict], overhead_share: float) -> dict[str, dict]:
    """Per-layer metrics by name, with units."""
    stats, counts = taken

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    out: dict[str, dict] = {}
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls"] = {"value": calls, "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    finds = stats["recognize.find_induced"][0]
    attempts = counts["coloring.oracle_attempt.calls"]
    out["recognize.find_induced.hit_ratio"] = {
        "value": share(counts["recognize.find_induced.hits"], finds), "unit": "ratio"}
    out["connected_vc.connected_subsets.yielded"] = {
        "value": counts["connected_vc.connected_subsets.yielded"], "unit": "count"}
    out["coloring.oracle_attempt.calls"] = {"value": attempts, "unit": "count"}
    out["coloring.oracle_attempt.accept_ratio"] = {
        "value": share(counts["coloring.oracle_attempt.accepted"], attempts), "unit": "ratio"}
    out["trace.overhead_share"] = {"value": overhead_share, "unit": "ratio"}
    return out
