"""Spans around the calls into each dpdiv layer, recorded from outside the package.

The tracer replaces each layer entry point at every name it is bound to in
the loaded ``dpdiv`` modules: ``divergence`` imports ``build_mst`` by name,
``featsel`` imports ``fr_statistic`` by name, and ``cli`` and ``experiments``
call module attributes, so patching only the defining module would miss
calls. Spans are kept in memory; self times and the per-layer metrics are
derived after the run. A layer's self time is its span durations minus the
durations of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np


def _emst_span(args, kwargs):
    points = np.asarray(args[0] if args else kwargs["points"])
    return "emst.lowd" if points.ndim == 2 and points.shape[1] <= 3 else "emst.highd"


def _oracle_span(args, kwargs):
    pair = args[0] if args else kwargs["pair"]
    return "oracle.quad" if pair.dimension <= 2 else "oracle.mc"


_ORACLE_INTEGRALS = ("bayes_error", "dp_tilde_integral", "affinity_integral", "bc_integral",
                     "tv_integral", "chernoff_integral", "scaled_chernoff_integral")
_BOUNDS = ("ber_bounds_from_estimate", "ber_bounds_from_dp_tilde",
           "bhattacharyya_distance_gaussian", "bhattacharyya_coefficient_gaussian",
           "bc_bound_gaussian", "mahalanobis_bound_gaussian", "chernoff_upper_gaussian",
           "da_bound")

# module -> {public function: span name, or a function of the call's arguments}
ENTRY_POINTS = {
    "dpdiv.emst": {"build_mst": _emst_span},
    "dpdiv.dataset": {"load_csv": "dataset.load", "load_points_csv": "dataset.load",
                      "sample_gaussian": "dataset.sample"},
    "dpdiv.divergence": dict.fromkeys(("estimate", "estimate_from_labeled", "fr_statistic"),
                                      "divergence"),
    "dpdiv.featsel": {"criterion_phi": "featsel.criterion", "forward_select": "featsel.select"},
    "dpdiv.experiments": dict.fromkeys(("run_sweep", "run_fukunaga", "run_consistency"),
                                       "experiments"),
    "dpdiv.bounds": dict.fromkeys(_BOUNDS, "bounds"),
    "dpdiv.oracle": {"gaussian_pair": "oracle.construct",
                     **dict.fromkeys(_ORACLE_INTEGRALS, _oracle_span)},
    "dpdiv.serialize": dict.fromkeys(("json_dumps", "csv_text", "atomic_write_text"),
                                     "serialize"),
    "dpdiv.svgplot": {"line_plot_svg": "svgplot"},
    "dpdiv.cli": {"main": "cli"},
}


def _work(name, fn_name, args, kwargs, result):
    """Work done by one span, in the unit of its layer's work metric."""
    if name.startswith("emst."):
        return int(np.shape(args[0] if args else kwargs["points"])[0])
    if name == "dataset.load":
        return int(np.shape(getattr(result, "points", result))[0])
    if fn_name == "atomic_write_text":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return len(text.encode("utf-8"))
    return 0


class Span:
    __slots__ = ("name", "parent", "start", "end", "work")

    def __init__(self, name, parent, start=0.0, end=0.0, work=0):
        self.name, self.parent, self.start, self.end, self.work = name, parent, start, end, work


class Tracer:
    """Records spans while installed. A call made inside a span of the same
    name (``estimate`` calling ``fr_statistic``) is folded into that span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tree_inputs: list[np.ndarray] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, namer):
        spans, stack, tree_inputs = self.spans, self._stack, self.tree_inputs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent].name == name:
                return fn(*args, **kwargs)
            if name.startswith("emst."):
                # Kept for the duplicate-row share, computed after the run.
                tree_inputs.append(args[0] if args else kwargs["points"])
            span = Span(name, parent)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.work = _work(name, fn.__name__, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every entry point at every name it is bound to in dpdiv."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dpdiv" or key.startswith("dpdiv."))]
        for module_name, functions in ENTRY_POINTS.items():
            home = sys.modules[module_name]
            for fn_name, namer in functions.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, namer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Traced calls run in one thread and nest strictly, so children never
    overlap each other or outlast their parent.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


PER_LAYER_METRICS = {
    "emst.lowd.calls": "count", "emst.lowd.points": "count", "emst.lowd.self_s": "s",
    "emst.highd.calls": "count", "emst.highd.points": "count", "emst.highd.self_s": "s",
    "emst.dup_input_share": "ratio",
    "dataset.load.calls": "count", "dataset.load.rows": "count", "dataset.load.self_s": "s",
    "dataset.sample.calls": "count", "dataset.sample.self_s": "s",
    "divergence.calls": "count", "divergence.self_s": "s",
    "featsel.criterion.calls": "count", "featsel.criterion.self_s": "s",
    "featsel.select.self_s": "s",
    "experiments.trials": "count", "experiments.self_s": "s",
    "bounds.calls": "count", "bounds.self_s": "s",
    "oracle.construct.calls": "count", "oracle.construct.self_s": "s",
    "oracle.quad.calls": "count", "oracle.quad.self_s": "s",
    "oracle.mc.calls": "count", "oracle.mc.self_s": "s",
    "serialize.calls": "count", "serialize.bytes": "bytes", "serialize.self_s": "s",
    "svgplot.self_s": "s",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}

_WORK_METRICS = {"emst.lowd.points": "emst.lowd", "emst.highd.points": "emst.highd",
                 "dataset.load.rows": "dataset.load", "serialize.bytes": "serialize"}


def per_layer_metrics(tracer: Tracer, traced_walls, untraced_walls) -> dict:
    """Per-op averages over the traced ops, plus the tracing overhead.

    ``calls`` counts spans (same-name calls are already folded);
    ``experiments.trials`` counts divergence spans opened directly by an
    experiment; ``trace.op_s`` is the benchmark's wall time of a traced op,
    which the self times of all layers add up to, less the few microseconds
    spent outside ``cli.main``.
    """
    spans = tracer.spans
    n_ops = len(traced_walls)
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        totals[f"{span.name}.calls"] = totals.get(f"{span.name}.calls", 0) + 1
        totals[f"{span.name}.self_s"] = totals.get(f"{span.name}.self_s", 0.0) + own
        totals[f"{span.name}.work"] = totals.get(f"{span.name}.work", 0) + span.work
    trials = sum(1 for s in spans if s.name == "divergence" and s.parent >= 0
                 and spans[s.parent].name == "experiments")
    metrics = {}
    for name in PER_LAYER_METRICS:
        if name in _WORK_METRICS:
            total = totals.get(f"{_WORK_METRICS[name]}.work", 0)
        elif name == "experiments.trials":
            total = trials
        else:
            total = totals.get(name, 0)
        metrics[name] = total / n_ops
    with_dups = sum(1 for p in tracer.tree_inputs
                    if np.unique(np.asarray(p), axis=0).shape[0] < np.shape(p)[0])
    metrics["emst.dup_input_share"] = with_dups / len(tracer.tree_inputs) if tracer.tree_inputs else 0.0
    metrics["trace.op_s"] = sum(traced_walls) / n_ops
    metrics["trace.overhead_ratio"] = float(np.median(traced_walls) / np.median(untraced_walls) - 1.0)
    return metrics


def write_spans(tracer: Tracer, path) -> None:
    """Write the run's spans, with their self times, as JSON; times in seconds
    from the first span's start."""
    spans = tracer.spans
    origin = spans[0].start if spans else 0.0
    rows = [{"name": s.name, "parent": s.parent, "start": s.start - origin,
             "end": s.end - origin, "self": own, "work": s.work}
            for s, own in zip(spans, self_times(spans))]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
