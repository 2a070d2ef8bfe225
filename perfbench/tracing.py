"""Spans around the calls the CLI makes into each barylp module.

The tracer replaces each traced function, by object identity, in every
loaded ``barylp.*`` module, so a function reached through any import path
(``from .solver import solve`` in the CLI, a re-export in the package,
a future pipeline module) is timed.  A function's layer is the module that
defines it.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

TRACED = (
    "load_problem",
    "detect_grid",
    "build_atlas_exact",
    "build_atlas_grid",
    "hybrid_split",
    "build_original",
    "build_reduced",
    "build_general",
    "build_hybrid",
    "build_transportation",
    "solve",
    "extract_barycenter",
    "export_mps",
    "solution_json",
)

LAYERS = ("cli", "measures", "support", "models", "solver")

def _export_bytes(args, kwargs, result):
    sink = kwargs.get("sink", args[1] if len(args) > 1 else None)
    if isinstance(sink, (str, os.PathLike)):
        return {"export_bytes": os.path.getsize(sink)}
    return {}


def _model_counts(args, kwargs, model):
    return {"vars": model.num_vars, "rows": model.num_constraints, "nnz": model.num_nonzeros}


# counts read from a traced call's arguments and result, after its span ends
COUNTERS = {
    "build_atlas_exact": lambda a, k, r: {"combinations": r.combination_total, "candidates": r.point_count},
    "build_atlas_grid": lambda a, k, r: {"candidates": r.point_count},
    "build_original": _model_counts,
    "build_reduced": _model_counts,
    "build_general": _model_counts,
    "build_hybrid": _model_counts,
    "build_transportation": _model_counts,
    "solve": lambda a, k, r: {"iterations": r.iterations, "nonoptimal": int(r.status != "optimal")},
    "extract_barycenter": lambda a, k, r: {
        "advisory_fails": sum(1 for c in r.verification.checks if c.advisory and not c.passed)
    },
    "export_mps": _export_bytes,
}


class Span:
    __slots__ = ("op", "id", "parent", "name", "layer", "start", "end", "counts")

    def __init__(self, op, span_id, parent, name, layer, start):
        self.op = op
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.counts = None

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans for ops; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op = None

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def op(self, op_id, fn, *args):
        """Call fn(*args) as op ``op_id`` inside a root span of the cli layer."""
        self._op = op_id
        span = self._open("op", "cli")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._op = None

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every traced function defined in a loaded barylp module;
        returns the qualified names that were found."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "barylp" or name.startswith("barylp."))
        ]
        replacements = {}
        for module in modules:
            for name in TRACED:
                fn = vars(module).get(name)
                if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
                    layer = module.__name__.rsplit(".", 1)[-1]
                    replacements[id(fn)] = (fn, self._wrap(fn, layer))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return sorted(f"{fn.__module__}.{fn.__name__}" for fn, _ in replacements.values())

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def summarize(spans, wall_s: float) -> dict:
    """Per-layer metrics for one batch of traced ops.

    Every metric is reported on every workload.  A stage the workload's ops
    never reach (solve on export-mps, export on the solve workloads, the
    hybrid split on grid-reduced) reads 0, its times and counts alike.
    A span's self time is its duration minus the time of its direct
    children; a layer's self time sums the self times of its spans.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time = defaultdict(float)
    by_name = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        duration = s.end - s.start
        self_time[s.layer] += duration - child_time[s.id]
        by_name[s.name] += duration
        for key, value in (s.counts or {}).items():
            counts[key] += value

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    atlas_s = by_name["build_atlas_exact"] + by_name["build_atlas_grid"]
    build_s = sum(by_name[n] for n in TRACED if n.startswith("build_") and "atlas" not in n)
    export_mb = counts["export_bytes"] / 1e6
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_time[layer], "s")
        metrics[f"{layer}.share"] = (100.0 * per(self_time[layer], wall_s), "%")
    metrics.update({
        "measures.load_s": (by_name["load_problem"], "s"),
        "support.atlas_s": (atlas_s, "s"),
        "support.combinations": (counts["combinations"], "count"),
        "support.candidates": (counts["candidates"], "count"),
        "support.combos_per_s": (per(counts["combinations"], by_name["build_atlas_exact"]), "1/s"),
        "support.dedup_ratio": (per(counts["candidates"], counts["combinations"]), "ratio"),
        "support.split_s": (by_name["hybrid_split"], "s"),
        "models.build_s": (build_s, "s"),
        "models.vars": (counts["vars"], "count"),
        "models.rows": (counts["rows"], "count"),
        "models.nnz": (counts["nnz"], "count"),
        "models.nnz_per_s": (per(counts["nnz"], build_s), "1/s"),
        "solver.solve_s": (by_name["solve"], "s"),
        "solver.iterations": (counts["iterations"], "count"),
        "solver.s_per_iter": (per(by_name["solve"], counts["iterations"]), "s"),
        "solver.nonoptimal": (counts["nonoptimal"], "count"),
        "solver.extract_s": (by_name["extract_barycenter"], "s"),
        "solver.advisory_fails": (counts["advisory_fails"], "count"),
        "solver.export_s": (by_name["export_mps"], "s"),
        "solver.export_mb": (export_mb, "MB"),
        "solver.export_mb_per_s": (per(export_mb, by_name["export_mps"]), "MB/s"),
    })
    return metrics
