"""Command-line interface.

Subcommands: estimate, bounds, select, sweep, fukunaga, consistency, oracle,
mst-dump. All configuration is explicit flags (no environment variables),
and each subcommand takes only the flags that can change its result. --seed
is on the three that draw random numbers (sweep, fukunaga, consistency); its
default is the documented constant 0xD1BE5, so default runs are reproducible.
--format is on the four that write more than one format (select, sweep,
fukunaga, consistency). Each command returns every format it can write;
``main`` keeps the ones --format asks for (the one format of a subcommand
without the flag) and writes them atomically into --out, so identical
invocations produce byte-identical files, and prints the artifact of a
subcommand whose only format is JSON. Warnings raised during a run are
printed as ``warning: <message>`` lines on stderr. Exit codes: 0 success, 2
input or flag validation error (an unrecognized flag included), 1 internal
error. --label-column (bounds, select, mst-dump) is a header name, never a
column index. Every unlabeled point file (estimate --a and --b, the --target
of bounds and select, mst-dump --input) is read by one reader, which drops
a label column by name and pairs the columns with another file's where
there is one: a --target by name when its header names any of the source's
feature columns, estimate --b by position.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
import warnings
from dataclasses import asdict, astuple, fields

import numpy as np

from . import bounds, divergence, emst, experiments, featsel, oracle
from .dataset import DatasetError, GaussianModel, load_csv, load_points_csv, read_text
from .serialize import atomic_write_text, csv_text, json_dumps
from .svgplot import line_plot_svg

DEFAULT_SEED = 0xD1BE5
DEFAULT_FORMATS = "json,csv"  # --format's default wherever it is taken
SCHEMA_VERSION = 1


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

    def common(sub, run, writable=("json",), seeded=False):
        """--seed for a subcommand that draws random numbers, --out, and
        --format for one that writes more than one format."""
        if seeded:
            sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                             help=f"master random seed (default {DEFAULT_SEED} = 0xD1BE5)")
        sub.add_argument("--out", default=".",
                         help="output directory for artifacts (default: current dir)")
        if len(writable) > 1:
            sub.add_argument("--format", default=DEFAULT_FORMATS,
                             help=f"comma-separated output formats out of {','.join(writable)} "
                                  f"(default: {DEFAULT_FORMATS})")
        sub.set_defaults(run=run, writable_formats=writable)

    subs = parser.add_subparsers(dest="subcommand", required=True)
    label_help = ("name of the --source label column, dropped from --target if present "
                  "(default 'label')")

    p = subs.add_parser("estimate", help="divergence estimate between two point CSVs")
    p.add_argument("--a", required=True, help="CSV of points drawn from the first sample")
    p.add_argument("--b", required=True, help="CSV of points drawn from the second sample")
    common(p, _cmd_estimate)

    p = subs.add_parser("bounds", help="error bounds from a labeled CSV (and options)")
    p.add_argument("--source", required=True, help="labeled source CSV")
    p.add_argument("--target", help="optional unlabeled target CSV (adds the DA bound)")
    p.add_argument("--model", help="optional Gaussian model JSON (adds closed-form bounds)")
    p.add_argument("--label-column", default="label", help=label_help)
    p.add_argument("--label-drift", type=float, default=0.0,
                   help="expected labeling disagreement between domains (default 0)")
    common(p, _cmd_bounds)

    p = subs.add_parser("select", help="greedy forward feature selection")
    p.add_argument("--source", required=True, help="labeled source CSV")
    p.add_argument("--target", help="optional target CSV for the shift penalty")
    p.add_argument("--k", type=int, default=None, help="features to select (default min(20, d))")
    p.add_argument("--shift-weight", type=float, default=0.0,
                   help="weight of the domain-shift penalty (0 disables it)")
    p.add_argument("--audit", action="store_true", help="record every candidate value per step")
    p.add_argument("--standardize", action="store_true", help="z-score columns first")
    p.add_argument("--label-column", default="label", help=label_help)
    common(p, _cmd_select, ("json", "csv"))

    p = subs.add_parser("sweep", help="mean-separation sweep: true error vs bounds")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--n", type=int, default=300, help="samples per class per trial")
    p.add_argument("--trials", type=int, default=10)
    common(p, _cmd_sweep, ("json", "csv", "svg"), seeded=True)

    p = subs.add_parser("fukunaga", help="bound distribution on an 8-D Gaussian benchmark")
    p.add_argument("--dataset", choices=sorted(experiments.FUKUNAGA_SAMPLING_MODELS),
                   required=True)
    p.add_argument("--n", type=int, default=1000, help="samples per class per trial")
    p.add_argument("--trials", type=int, default=50)
    common(p, _cmd_fukunaga, ("json", "csv", "svg"), seeded=True)

    p = subs.add_parser("consistency", help="estimator error vs sample size")
    p.add_argument("--sizes", default="100,400,1600", help="comma-separated ascending sizes")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--model", help="Gaussian model JSON (default: built-in bivariate pair)")
    common(p, _cmd_consistency, ("json", "csv", "svg"), seeded=True)

    p = subs.add_parser("oracle", help="integration-oracle values for a Gaussian model")
    p.add_argument("--model", required=True, help="Gaussian model JSON")
    p.add_argument("--alpha", type=float, default=0.5, help="Chernoff exponent (default 0.5)")
    common(p, _cmd_oracle)

    p = subs.add_parser("mst-dump", help="write the Euclidean MST edge list of a point CSV")
    p.add_argument("--input", required=True, help="CSV of points")
    p.add_argument("--label-column", default="label",
                   help="column to drop if present (default 'label')")
    common(p, _cmd_mst_dump, ("csv",))

    return parser


def load_model_json(path) -> GaussianModel:
    """Model JSON: the keys mean0, mean1, cov0, cov1 and, optionally, prior_p.

    Each key holds JSON numbers only: a string, a boolean or null anywhere in
    it is refused, not converted. The values go to GaussianModel as they
    are, so its rules hold here too: flat means, and a covariance written as
    a vector holds its variances. Every error, the model's own checks and
    JSON nested past the parser's depth included, names the file.
    """
    text = read_text(path)
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise DatasetError(f"expected a JSON object, got {type(raw).__name__}")
        missing = [k for k in ("mean0", "mean1", "cov0", "cov1") if k not in raw]
        if missing:
            raise DatasetError(f"missing model keys {missing}")

        def read(key, convert=lambda v: np.asarray(v, dtype=np.float64)):
            # the first non-number in file order; the walk keeps its own stack,
            # so no nesting depth can overflow it
            stack = [raw[key]]
            while stack:
                v = stack.pop()
                if isinstance(v, list):
                    stack.extend(reversed(v))
                elif v is None or isinstance(v, (str, bool)):
                    raise DatasetError(f"bad value for model key {key!r} "
                                       f"({json.dumps(v)} is not a number)")
            try:
                return convert(raw[key])
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"bad value for model key {key!r} ({exc})") from None

        return GaussianModel(
            mean0=read("mean0"), mean1=read("mean1"), cov0=read("cov0"), cov1=read("cov1"),
            prior_p=read("prior_p", float) if "prior_p" in raw else 0.5,
        )
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DatasetError(f"{path}: invalid JSON ({exc})") from None
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _cmd_estimate(args):
    # unlabeled files name no features: their columns pair by position
    a = load_points_csv(args.a, "label")
    b = load_points_csv(args.b, "label", like=(args.a, [None] * a.shape[1]))
    return {"estimate.json": json_dumps(asdict(divergence.estimate(a, b)))}


def _load_source(args):
    """The --source sample and its (class 0, class 1) rows; a missing class names the file."""
    source = load_csv(args.source, label_column=args.label_column)
    try:
        return source, source.split_classes()
    except DatasetError as exc:
        raise DatasetError(f"{args.source}: {exc}") from None


def _load_target(args, source):
    """The --target points, less the --label-column column if it has one,
    paired with the source's feature columns by name (see load_points_csv)."""
    return load_points_csv(args.target, args.label_column,
                           like=(args.source, source.feature_names))


def _cmd_bounds(args):
    bounds.check_weight("--label-drift", args.label_drift)
    if args.label_drift and not args.target:
        warnings.warn("--label-drift is ignored without --target")
    source, classes = _load_source(args)
    target = _load_target(args, source) if args.target else None
    model = load_model_json(args.model) if args.model else None
    if model is not None and model.d != source.d:
        raise DatasetError(f"{args.model} is a {model.d}-D model but {args.source} has "
                           f"{source.d} feature columns")
    est = divergence.estimate(*classes)
    report = {
        "schema": SCHEMA_VERSION,
        "dp_bounds": asdict(bounds.ber_bounds_from_estimate(est)),
        "bc": None, "mahalanobis": None, "da": None,
    }
    if model is not None:
        bc, mahalanobis = bounds.gaussian_bounds(model)
        report["bc"], report["mahalanobis"] = asdict(bc), asdict(mahalanobis)
    if target is not None:
        shift = divergence.estimate(source.points, target)
        report["da"] = asdict(bounds.da_bound(est, shift, label_drift=args.label_drift))
    return {"bounds.json": json_dumps(report)}


def _cmd_select(args):
    bounds.check_weight("--shift-weight", args.shift_weight)
    if args.shift_weight and not args.target:
        raise DatasetError("--shift-weight > 0 needs --target")
    if args.target and not args.shift_weight:
        warnings.warn("--target is ignored when --shift-weight is 0")
    source, (f, g) = _load_source(args)
    trace = featsel.forward_select(
        f, g, target=_load_target(args, source) if args.shift_weight else None,
        k=args.k, shift_weight=args.shift_weight, audit=args.audit, standardize=args.standardize,
    )
    names = source.feature_names
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
    steps = range(1, len(trace.selected) + 1)
    return {
        "select.json": json_dumps(payload),
        "select.csv": csv_text(("step", "feature_name", "phi"),
                               zip(steps, payload["selected_names"], trace.criterion_values)),
    }


_SWEEP_CURVES = (
    ("ber_true", "true error"),
    ("dp_upper_analytic", "divergence upper"),
    ("dp_lower_analytic", "divergence lower"),
    ("bc_upper", "BC upper"),
    ("bc_lower", "BC lower"),
    ("dp_upper_empirical_mean", "empirical upper (mean)"),
)


def _cmd_sweep(args):
    rows = experiments.run_sweep(args.steps, args.n, args.trials, args.seed)
    xs = [r.separation for r in rows]
    series = [{"x": xs, "y": [getattr(r, name) for r in rows], "label": label}
              for name, label in _SWEEP_CURVES]
    return {
        "sweep.csv": csv_text([f.name for f in fields(experiments.SweepRow)],
                              [astuple(r) for r in rows]),
        "sweep.json": json_dumps({"schema": SCHEMA_VERSION, "seed": args.seed,
                                  "rows": [asdict(r) for r in rows]}),
        "sweep.svg": line_plot_svg(
            series, title="Error bounds vs mean separation",
            x_label="mean separation", y_label="error rate",
        ),
    }


def _mc_summary_payload(summary: experiments.McSummary, **extra) -> dict:
    return {"schema": SCHEMA_VERSION, **extra, **asdict(summary)}


def _cmd_fukunaga(args):
    summary = experiments.run_fukunaga(args.dataset, args.n, args.trials, args.seed)
    return {
        "fukunaga.json": json_dumps(_mc_summary_payload(
            summary, dataset=args.dataset, n_per_class=args.n, seed=args.seed)),
        "fukunaga.csv": csv_text(("trial", "upper_bound"), enumerate(summary.values)),
        "fukunaga.svg": line_plot_svg(
            [{"x": list(range(summary.n_trials)), "y": list(summary.values),
              "label": f"{args.dataset} upper bound"}],
            title="Divergence-based upper bound per trial",
            x_label="trial", y_label="bound",
        ),
    }


_CONSISTENCY_MODEL = GaussianModel(
    mean0=[-0.7071067811865476, -0.7071067811865476],
    mean1=[0.7071067811865476, 0.7071067811865476],
    cov0=[1.0, 1.0], cov1=[1.0, 1.0],
)


def _cmd_consistency(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1 or sizes != sorted(sizes):
        raise DatasetError("--sizes must list positive integers in ascending order, "
                           f"got {args.sizes!r}")
    model = load_model_json(args.model) if args.model else _CONSISTENCY_MODEL
    summaries = experiments.run_consistency(model, sizes, args.trials, args.seed)
    rows = [(n, t, v) for n, s in zip(sizes, summaries) for t, v in enumerate(s.values)]
    return {
        "consistency.json": json_dumps({
            "schema": SCHEMA_VERSION, "seed": args.seed, "sizes": sizes,
            "summaries": [_mc_summary_payload(s) for s in summaries],
        }),
        "consistency.csv": csv_text(("size", "trial", "abs_error"), rows),
        "consistency.svg": line_plot_svg(
            [{"x": sizes, "y": [s.mean for s in summaries], "label": "mean |error|"},
             {"x": sizes, "y": [float(np.median(s.values)) for s in summaries],
              "label": "median |error|"}],
            title="Estimator error vs sample size",
            x_label="samples per class", y_label="absolute error",
        ),
    }


def _cmd_oracle(args):
    pair = oracle.gaussian_pair(load_model_json(args.model))
    values = oracle.integrals(
        pair, ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff"), alpha=args.alpha)
    payload = {"schema": SCHEMA_VERSION, "alpha": args.alpha, "method": pair.method,
               **{key: value for key, (value, _) in values.items()}}
    if pair.method == "monte_carlo":
        payload["standard_errors"] = {key: se for key, (_, se) in values.items()}
    return {"oracle.json": json_dumps(payload)}


def _cmd_mst_dump(args):
    mst = emst.build_mst(load_points_csv(args.input, args.label_column))
    return {"mst.csv": csv_text(("i", "j", "length"), zip(mst.i, mst.j, mst.length))}


def main(argv=None) -> int:
    """Run one subcommand: write the requested artifacts atomically, print its report."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        # "always": report every warning, also one repeated from the same line
        warnings.simplefilter("always")
        try:
            if "seed" in args and args.seed < 0:
                raise DatasetError(f"--seed must be non-negative, got {args.seed}")
            formats = (_parse_formats(args.format, args.writable_formats, args.subcommand)
                       if "format" in args else args.writable_formats)
            artifacts = args.run(args)
            os.makedirs(args.out, exist_ok=True)
            for name, text in artifacts.items():
                if name.rsplit(".", 1)[1] in formats:
                    atomic_write_text(os.path.join(args.out, name), text)
            if args.writable_formats == ("json",):
                (text,) = artifacts.values()
                sys.stdout.write(text)
            code, error = 0, ""
        except (ValueError, OSError) as exc:
            code, error = 2, f"error: {exc}\n"
        except Exception:
            code, error = 1, traceback.format_exc()
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    sys.stderr.write(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
