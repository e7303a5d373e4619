"""Command-line interface.

Subcommands: estimate, bounds, select, sweep, fukunaga, consistency, oracle,
mst-dump. All configuration is explicit flags (no environment variables);
the default seed is the documented constant 0xD1BE5, so default runs are
reproducible. Artifacts are written atomically into --out; identical
invocations produce byte-identical files. Exit codes: 0 success, 2 input or
flag validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import bounds, divergence, emst, experiments, featsel, oracle
from .dataset import DatasetError, GaussianModel, load_csv, load_points_csv
from .serialize import atomic_write_text, csv_text, json_dumps
from .svgplot import line_plot_svg

DEFAULT_SEED = 0xD1BE5
SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    subcommand: str
    seed: int = DEFAULT_SEED
    out_dir: str = "."
    formats: tuple[str, ...] = ("json",)
    options: dict = field(default_factory=dict)


def _parse_formats(text: str, writable: tuple[str, ...], subcommand: str) -> tuple[str, ...]:
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    expected = ", ".join(writable)
    if not formats:
        raise DatasetError(f"--format is empty; {subcommand} writes {expected}")
    for f in formats:
        if f not in writable:
            raise DatasetError(f"unknown format {f!r} for {subcommand}, expected {expected}")
    return formats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpdiv",
        description=(
            "Graph-based two-sample divergence estimation, Bayes-error and "
            "domain-adaptation bounds, and bound-driven feature selection."
        ),
    )

    def common(sub, writable=("json",), default=None):
        default = default or ",".join(writable)
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help=f"master random seed (default {DEFAULT_SEED} = 0xD1BE5)")
        sub.add_argument("--out", default=".",
                         help="output directory for artifacts (default: current dir)")
        sub.add_argument("--format", default=default,
                         help=f"comma-separated output formats out of {','.join(writable)} "
                              f"(default: {default})")
        sub.set_defaults(writable_formats=writable)

    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("estimate", help="divergence estimate between two point CSVs")
    p.add_argument("--a", required=True, help="CSV of points drawn from the first sample")
    p.add_argument("--b", required=True, help="CSV of points drawn from the second sample")
    common(p)

    p = subs.add_parser("bounds", help="error bounds from a labeled CSV (and options)")
    p.add_argument("--source", required=True, help="labeled source CSV")
    p.add_argument("--target", help="optional unlabeled target CSV (adds the DA bound)")
    p.add_argument("--model", help="optional Gaussian model JSON (adds closed-form bounds)")
    p.add_argument("--label-column", default="label")
    p.add_argument("--label-drift", type=float, default=0.0,
                   help="expected labeling disagreement between domains (default 0)")
    common(p)

    p = subs.add_parser("select", help="greedy forward feature selection")
    p.add_argument("--source", required=True, help="labeled source CSV")
    p.add_argument("--target", help="optional target CSV for the shift penalty")
    p.add_argument("--k", type=int, default=None, help="features to select (default min(20, d))")
    p.add_argument("--shift-weight", type=float, default=0.0,
                   help="weight of the domain-shift penalty (0 disables it)")
    p.add_argument("--audit", action="store_true", help="record every candidate value per step")
    p.add_argument("--standardize", action="store_true", help="z-score columns first")
    p.add_argument("--label-column", default="label")
    common(p, ("json", "csv"))

    p = subs.add_parser("sweep", help="mean-separation sweep: true error vs bounds")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--n", type=int, default=300, help="samples per class per trial")
    p.add_argument("--trials", type=int, default=10)
    common(p, ("json", "csv", "svg"), default="json,csv")

    p = subs.add_parser("fukunaga", help="bound distribution on an 8-D Gaussian benchmark")
    p.add_argument("--dataset", choices=sorted(experiments.FUKUNAGA_DATASETS), required=True)
    p.add_argument("--n", type=int, default=1000, help="samples per class per trial")
    p.add_argument("--trials", type=int, default=50)
    common(p, ("json", "csv", "svg"), default="json,csv")

    p = subs.add_parser("consistency", help="estimator error vs sample size")
    p.add_argument("--sizes", default="100,400,1600", help="comma-separated ascending sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--model", help="Gaussian model JSON (default: built-in bivariate pair)")
    common(p, ("json", "csv", "svg"), default="json,csv")

    p = subs.add_parser("oracle", help="integration-oracle values for a Gaussian model")
    p.add_argument("--model", required=True, help="Gaussian model JSON")
    p.add_argument("--alpha", type=float, default=0.5, help="Chernoff exponent (default 0.5)")
    common(p)

    p = subs.add_parser("mst-dump", help="write the Euclidean MST edge list of a point CSV")
    p.add_argument("--input", required=True, help="CSV of points")
    p.add_argument("--jitter", action="store_true",
                   help="add seeded jitter (1e-9 x coordinate scale) to break distance ties")
    p.add_argument("--label-column", default="label",
                   help="column to drop if present (default 'label')")
    common(p, ("csv",))

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {
        k: v for k, v in vars(args).items()
        if k not in ("subcommand", "seed", "out", "format", "writable_formats")
    }
    if args.seed < 0:
        raise DatasetError(f"--seed must be non-negative, got {args.seed}")
    return RunConfig(
        subcommand=args.subcommand,
        seed=args.seed,
        out_dir=args.out,
        formats=_parse_formats(args.format, args.writable_formats, args.subcommand),
        options=options,
    )


def load_model_json(path) -> GaussianModel:
    """Model JSON: mean0, mean1, cov0, cov1 (matrix or diagonal vector), prior_p."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON ({exc})") from None
    missing = [k for k in ("mean0", "mean1", "cov0", "cov1") if k not in raw]
    if missing:
        raise DatasetError(f"{path}: missing model keys {missing}")

    def as_cov(key):
        arr = np.asarray(raw[key], dtype=np.float64)
        return np.diag(arr) if arr.ndim == 1 else arr

    return GaussianModel(
        mean0=np.asarray(raw["mean0"], dtype=np.float64),
        mean1=np.asarray(raw["mean1"], dtype=np.float64),
        cov0=as_cov("cov0"),
        cov1=as_cov("cov1"),
        prior_p=float(raw.get("prior_p", 0.5)),
    )


def _ber_dict(b: bounds.BerBounds) -> dict:
    return {"lower": b.lower, "upper": b.upper}


def _cmd_estimate(cfg: RunConfig):
    a = load_points_csv(cfg.options["a"])
    b = load_points_csv(cfg.options["b"])
    payload = divergence.estimate(a, b).to_dict()
    return {"estimate.json": json_dumps(payload)}, json_dumps(payload)


def _cmd_bounds(cfg: RunConfig):
    opts = cfg.options
    source = load_csv(opts["source"], label_column=opts["label_column"])
    est = divergence.estimate_from_labeled(source)
    report = {
        "schema": SCHEMA_VERSION,
        "dp_bounds": _ber_dict(bounds.ber_bounds_from_estimate(est)),
        "bc": None,
        "mahalanobis": None,
        "da": None,
    }
    if opts.get("model"):
        model = load_model_json(opts["model"])
        report["bc"] = _ber_dict(bounds.bc_bound_gaussian(model))
        report["mahalanobis"] = _ber_dict(bounds.mahalanobis_bound_gaussian(model))
    if opts.get("target"):
        target = load_points_csv(opts["target"], drop_column=opts["label_column"])
        shift = divergence.estimate(source.points, target)
        da = bounds.da_bound(est, shift, label_drift=opts["label_drift"])
        report["da"] = {
            "source_term": da.source_term,
            "shift_term": da.shift_term,
            "label_drift_term": da.label_drift_term,
            "total": da.total,
            "vacuous": da.vacuous,
        }
    text = json_dumps(report)
    return {"bounds.json": text}, text


def _cmd_select(cfg: RunConfig):
    opts = cfg.options
    source = load_csv(opts["source"], label_column=opts["label_column"])
    f, g = source.split_classes()
    target = None
    if opts.get("target"):
        target = load_points_csv(opts["target"], drop_column=opts["label_column"])
    trace = featsel.forward_select(
        f, g, target=target, k=opts["k"], shift_weight=opts["shift_weight"],
        audit=opts["audit"], standardize=opts["standardize"],
    )
    names = source.feature_names or tuple(f"x{i}" for i in range(source.d))
    payload = {
        "schema": SCHEMA_VERSION,
        "selected": list(trace.selected),
        "selected_names": [names[i] for i in trace.selected],
        "criterion_values": list(trace.criterion_values),
        "shift_weight": trace.shift_weight,
        "per_step_candidates": (
            [{names[i]: v for i, v in step.items()} for step in trace.per_step_candidates]
            if trace.per_step_candidates is not None else None
        ),
    }
    artifacts = {}
    if "json" in cfg.formats:
        artifacts["select.json"] = json_dumps(payload)
    if "csv" in cfg.formats:
        rows = [
            (step + 1, names[i], phi)
            for step, (i, phi) in enumerate(zip(trace.selected, trace.criterion_values))
        ]
        artifacts["select.csv"] = csv_text(("step", "feature_name", "phi"), rows)
    return artifacts, None


def _cmd_sweep(cfg: RunConfig):
    opts = cfg.options
    result = experiments.run_sweep(opts["steps"], opts["n"], opts["trials"], cfg.seed)
    header = (
        "separation", "ber_true", "dp_upper_analytic", "dp_lower_analytic",
        "dp_upper_empirical_mean", "dp_lower_empirical_mean", "bc_upper", "bc_lower",
        "n_per_class", "n_trials",
    )
    rows = [
        (r.separation, r.ber_true, r.dp_upper_analytic, r.dp_lower_analytic,
         r.dp_upper_empirical_mean, r.dp_lower_empirical_mean, r.bc_upper, r.bc_lower,
         r.n_per_class, r.n_trials)
        for r in result.rows
    ]
    artifacts = {}
    if "csv" in cfg.formats:
        artifacts["sweep.csv"] = csv_text(header, rows)
    if "json" in cfg.formats:
        artifacts["sweep.json"] = json_dumps({
            "schema": SCHEMA_VERSION,
            "seed": cfg.seed,
            "rows": [dict(zip(header, row)) for row in rows],
        })
    if "svg" in cfg.formats:
        xs = [r.separation for r in result.rows]
        series = [
            {"x": xs, "y": [r.ber_true for r in result.rows], "label": "true error"},
            {"x": xs, "y": [r.dp_upper_analytic for r in result.rows],
             "label": "divergence upper"},
            {"x": xs, "y": [r.dp_lower_analytic for r in result.rows],
             "label": "divergence lower"},
            {"x": xs, "y": [r.bc_upper for r in result.rows], "label": "BC upper"},
            {"x": xs, "y": [r.bc_lower for r in result.rows], "label": "BC lower"},
            {"x": xs, "y": [r.dp_upper_empirical_mean for r in result.rows],
             "label": "empirical upper (mean)"},
        ]
        artifacts["sweep.svg"] = line_plot_svg(
            series, title="Error bounds vs mean separation",
            x_label="mean separation", y_label="error rate",
        )
    return artifacts, None


def _mc_summary_payload(summary: experiments.McSummary, extra=None) -> dict:
    payload = {"schema": SCHEMA_VERSION}
    payload.update(extra or {})
    payload.update({
        "mean": summary.mean,
        "std": summary.std,
        "n_trials": summary.n_trials,
        "values": list(summary.values),
    })
    return payload


def _cmd_fukunaga(cfg: RunConfig):
    opts = cfg.options
    summary = experiments.run_fukunaga(opts["dataset"], opts["n"], opts["trials"], cfg.seed)
    artifacts = {}
    if "json" in cfg.formats:
        artifacts["fukunaga.json"] = json_dumps(_mc_summary_payload(summary, {
            "dataset": opts["dataset"], "n_per_class": opts["n"], "seed": cfg.seed,
        }))
    if "csv" in cfg.formats:
        rows = [(t, v) for t, v in enumerate(summary.values)]
        artifacts["fukunaga.csv"] = csv_text(("trial", "upper_bound"), rows)
    if "svg" in cfg.formats:
        artifacts["fukunaga.svg"] = line_plot_svg(
            [{"x": list(range(summary.n_trials)), "y": list(summary.values),
              "label": f"{opts['dataset']} upper bound"}],
            title="Divergence-based upper bound per trial",
            x_label="trial", y_label="bound",
        )
    return artifacts, None


_CONSISTENCY_MODEL = experiments.diagonal_gaussian_model(
    [-0.7071067811865476, -0.7071067811865476], [1.0, 1.0],
    [0.7071067811865476, 0.7071067811865476], [1.0, 1.0],
)


def _cmd_consistency(cfg: RunConfig):
    opts = cfg.options
    sizes = [int(s) for s in str(opts["sizes"]).split(",") if s.strip()]
    model = load_model_json(opts["model"]) if opts.get("model") else _CONSISTENCY_MODEL
    summaries = experiments.run_consistency(model, sizes, opts["trials"], cfg.seed)
    artifacts = {}
    if "json" in cfg.formats:
        artifacts["consistency.json"] = json_dumps({
            "schema": SCHEMA_VERSION,
            "seed": cfg.seed,
            "sizes": sizes,
            "summaries": [_mc_summary_payload(s) for s in summaries],
        })
    if "csv" in cfg.formats:
        rows = [
            (n, t, v)
            for n, s in zip(sizes, summaries)
            for t, v in enumerate(s.values)
        ]
        artifacts["consistency.csv"] = csv_text(("size", "trial", "abs_error"), rows)
    if "svg" in cfg.formats:
        artifacts["consistency.svg"] = line_plot_svg(
            [{"x": sizes, "y": [s.mean for s in summaries], "label": "mean |error|"},
             {"x": sizes, "y": [float(np.median(s.values)) for s in summaries],
              "label": "median |error|"}],
            title="Estimator error vs sample size",
            x_label="samples per class", y_label="absolute error",
        )
    return artifacts, None


def _cmd_oracle(cfg: RunConfig):
    opts = cfg.options
    model = load_model_json(opts["model"])
    values = oracle.integrals(
        oracle.gaussian_pair(model),
        ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff"),
        alpha=opts["alpha"],
    )
    payload = {"schema": SCHEMA_VERSION, "alpha": opts["alpha"],
               "method": "quadrature" if model.d <= 2 else "monte_carlo"}
    for key, (value, se) in values.items():
        payload[key] = value
    if model.d > 2:
        payload["standard_errors"] = {key: se for key, (_, se) in values.items()}
    text = json_dumps(payload)
    return {"oracle.json": text}, text


def _cmd_mst_dump(cfg: RunConfig):
    opts = cfg.options
    points = load_points_csv(opts["input"], drop_column=opts["label_column"])
    if opts["jitter"]:
        points = emst.add_jitter(points, cfg.seed)
    mst = emst.build_mst(points)
    rows = [(int(i), int(j), float(l)) for i, j, l in zip(mst.i, mst.j, mst.length)]
    return {"mst.csv": csv_text(("i", "j", "length"), rows)}, None


_COMMANDS = {
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "select": _cmd_select,
    "sweep": _cmd_sweep,
    "fukunaga": _cmd_fukunaga,
    "consistency": _cmd_consistency,
    "oracle": _cmd_oracle,
    "mst-dump": _cmd_mst_dump,
}


def run(cfg: RunConfig) -> int:
    """Execute one subcommand: write its artifacts atomically, print its report."""
    artifacts, stdout_text = _COMMANDS[cfg.subcommand](cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, text in artifacts.items():
        atomic_write_text(os.path.join(cfg.out_dir, name), text)
    if stdout_text is not None:
        sys.stdout.write(stdout_text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
