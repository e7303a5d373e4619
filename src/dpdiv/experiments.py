"""Scripted studies: benchmark bound comparisons, the mean-separation sweep,
and estimator-consistency curves.

Monte Carlo trials derive per-trial seeds from the master seed, so runs are
reproducible, trial-order independent, and safe to parallelize externally.
One fr_statistic call counts the trials of a sweep step, a Fukunaga run or a
consistency size, holding their samples; each count is its pool's alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, divergence, oracle
from .dataset import GaussianModel, sample_gaussian

# Classic 8-dimensional Gaussian benchmarks (Fukunaga's pair of data sets)
# with analytically known Bayes error. In the original tabulation the spread
# row lists per-coordinate eigenvalues, i.e. variances; that reading
# reproduces the published closed-form bounds (4.74% / 14.13% for D2). Its
# Bayes error is about 1.8%, not the published 1.90%: the oracle gives
# 0.018065 +- 0.000072 (1M-point Monte Carlo), and the standard-deviation
# reading gives 0.0033. Where the published 1.90% comes from is still open;
# the acceptance check of D2's true error (0.0190 +- 0.0015) admits both
# 1.8% and 1.90%. The published Monte-Carlo rows for D2, however, are
# reproduced only when sampling applies the same row as standard deviations
# (their per-size means then match within the quoted spreads; under the
# variance reading the estimator converges to 2.68%, above the entire
# published column). Both conventions are exposed: fukunaga_d2 is the
# analytically consistent benchmark, fukunaga_d2_as_sampled mirrors the
# generator behind the published Monte-Carlo column.

_D2_MEAN1 = (3.86, 3.10, 0.84, 0.84, 1.64, 1.08, 0.26, 0.01)
_D2_SPREAD = (8.41, 12.06, 0.12, 0.22, 1.49, 1.77, 0.35, 2.73)


def fukunaga_d1() -> GaussianModel:
    mean1 = np.zeros(8)
    mean1[0] = 2.56
    return GaussianModel(mean0=np.zeros(8), mean1=mean1, cov0=np.ones(8), cov1=np.ones(8))


def fukunaga_d2() -> GaussianModel:
    """Spread row applied as variances: the analytically consistent benchmark."""
    return GaussianModel(mean0=np.zeros(8), mean1=_D2_MEAN1, cov0=np.ones(8), cov1=_D2_SPREAD)


def fukunaga_d2_as_sampled() -> GaussianModel:
    """Spread row applied as standard deviations: the reference Monte-Carlo generator."""
    return GaussianModel(mean0=np.zeros(8), mean1=_D2_MEAN1, cov0=np.ones(8),
                         cov1=np.square(_D2_SPREAD))


# Sampling models behind the reference Monte-Carlo table (D1 is identical
# under either reading because all its spreads equal 1), keyed by dataset name.
FUKUNAGA_SAMPLING_MODELS = {"D1": fukunaga_d1, "D2": fukunaga_d2_as_sampled}


@dataclass(frozen=True)
class McSummary:
    """Per-trial values with their mean and across-trial standard deviation."""

    mean: float
    std: float
    n_trials: int
    values: tuple[float, ...]

    @classmethod
    def from_values(cls, values) -> "McSummary":
        vals = tuple(float(v) for v in values)
        arr = np.asarray(vals)
        std = float(arr.std(ddof=1)) if len(vals) > 1 else 0.0
        return cls(mean=float(arr.mean()), std=std, n_trials=len(vals), values=vals)


@dataclass(frozen=True)
class SweepRow:
    """One mean-separation setting: true error, analytic bounds, empirical means."""

    separation: float
    ber_true: float
    dp_upper_analytic: float
    dp_lower_analytic: float
    dp_upper_empirical_mean: float
    dp_lower_empirical_mean: float
    bc_upper: float
    bc_lower: float
    n_per_class: int
    n_trials: int


def _check_trials(n_trials: int) -> None:
    if n_trials < 1:
        raise ValueError(f"need at least 1 trial, got {n_trials}")


def _trial_estimates(model: GaussianModel, n: int, n_trials: int, *key):
    """Divergence estimate of each trial, n points per class seeded by (*key, trial)."""
    samples = [sample_gaussian(model, n, n, (*key, trial)).points for trial in range(n_trials)]
    counts = divergence.fr_statistic([(x[:n], x[n:], None) for x in samples])
    return [divergence.estimate_from_count(c, n, n) for c in counts.tolist()]


def run_sweep(n_steps: int, n_per_class: int, n_trials: int, seed) -> tuple[SweepRow, ...]:
    """Sweep the mean separation of two spherical unit-variance bivariate
    Gaussians across [0, 5] and record true error, analytic bounds, and
    graph-estimated bounds averaged over independent trials.

    The analytic side evaluates the matching one-dimensional pair: with
    equal spherical covariances, every coordinate orthogonal to the mean
    difference contributes an identical factor to both densities, which
    cancels inside each integrand, so the integrals equal their 1-D values.
    Each step builds its 1-D model once and takes its true error and
    divergence from one oracle pass at the default quadrature grid. Returns
    one row per step, in order of separation.
    """
    if n_steps < 2:
        raise ValueError(f"need at least 2 sweep steps, got {n_steps}")
    _check_trials(n_trials)
    rows = []
    for step, sep in enumerate(np.linspace(0.0, 5.0, n_steps).tolist()):
        model_1d = GaussianModel(mean0=[0.0], mean1=[sep], cov0=[1.0], cov1=[1.0])
        truth = oracle.integrals(oracle.gaussian_pair(model_1d), ("bayes_error", "dp_tilde"))
        analytic = bounds.ber_bounds_from_dp_tilde(truth["dp_tilde"][0])
        bc = bounds.bc_bound_gaussian(model_1d)

        model_2d = GaussianModel(mean0=[0.0, 0.0], mean1=[sep, 0.0], cov0=[1.0, 1.0],
                                 cov1=[1.0, 1.0])
        empirical = [bounds.ber_bounds_from_estimate(est) for est in _trial_estimates(
            model_2d, n_per_class, n_trials, seed, step)]
        rows.append(SweepRow(
            separation=sep,
            ber_true=truth["bayes_error"][0],
            dp_upper_analytic=analytic.upper,
            dp_lower_analytic=analytic.lower,
            dp_upper_empirical_mean=float(np.mean([b.upper for b in empirical])),
            dp_lower_empirical_mean=float(np.mean([b.lower for b in empirical])),
            bc_upper=bc.upper,
            bc_lower=bc.lower,
            n_per_class=n_per_class,
            n_trials=n_trials,
        ))
    return tuple(rows)


def run_fukunaga(dataset: str, n_per_class: int, n_trials: int, seed) -> McSummary:
    """Monte Carlo distribution of the divergence-based Bayes-error upper bound
    on one of the 8-D Gaussian benchmarks; each trial resamples both classes.

    Samples come from FUKUNAGA_SAMPLING_MODELS so the reference Monte-Carlo
    table is reproducible; for D2 that generator applies the spread row as
    standard deviations (see the module-level note). To bound the
    variance-reading benchmark instead, sample fukunaga_d2() directly.
    """
    try:
        model = FUKUNAGA_SAMPLING_MODELS[dataset]()
    except KeyError:
        raise ValueError(
            f"unknown dataset {dataset!r}, expected one of "
            f"{sorted(FUKUNAGA_SAMPLING_MODELS)}"
        ) from None
    _check_trials(n_trials)
    return McSummary.from_values(
        bounds.ber_bounds_from_estimate(est).upper
        for est in _trial_estimates(model, n_per_class, n_trials, seed)
    )


def run_consistency(model: GaussianModel, sizes, n_trials: int, seed) -> list[McSummary]:
    """Absolute estimation error |dp_tilde - reference| per sample size.

    The reference is the integration oracle's divergence for the model (one
    pass at the default grid or Monte Carlo budget), so the curves measure
    pure estimator error. sizes must be positive and ascending. Each trial
    draws n rows of each class, so its estimate targets the divergence at
    prior 1/2: a model whose prior_p is not 0.5 raises ValueError before the
    oracle pass.
    """
    sizes = [int(s) for s in sizes]
    if not sizes or min(sizes) < 1:
        raise ValueError(f"sizes must list at least one size, each at least 1, got {sizes}")
    if sizes != sorted(sizes):
        raise ValueError(f"sizes must be ascending, got {sizes}")
    _check_trials(n_trials)
    if model.prior_p != 0.5:
        raise ValueError(f"prior_p must be 0.5, got {model.prior_p}: each trial draws n rows "
                         "of each class, so its estimate targets the divergence at prior 0.5")
    reference = oracle.dp_tilde_integral(oracle.gaussian_pair(model))
    return [
        McSummary.from_values(abs(est.dp_tilde - reference)
                              for est in _trial_estimates(model, n, n_trials, seed, size_index))
        for size_index, n in enumerate(sizes)
    ]
