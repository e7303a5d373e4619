"""Error-rate bounds: divergence-based Bayes-error brackets, Gaussian closed
forms (Bhattacharyya, Mahalanobis, Chernoff), and the domain-adaptation
target-error bound.

Bayes-error brackets lie in [0, 0.5]. The one clamp holds the Bhattacharyya
coefficient at 1, which rounding can exceed; the domain-adaptation total is
deliberately not clamped, because a vacuous bound (> 0.5) still carries
information and is flagged instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import GaussianModel
from .divergence import DivergenceEstimate


def check_weight(name: str, value: float) -> None:
    """Raise ValueError unless value is a finite number >= 0 (NaN fails)."""
    if not (value >= 0.0):
        raise ValueError(f"{name} must be >= 0, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got inf")


@dataclass(frozen=True)
class BerBounds:
    """A lower/upper bracket on the Bayes error rate."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 0.5):
            raise ValueError(
                f"invalid bracket [{self.lower}, {self.upper}], need 0 <= lower <= upper <= 0.5"
            )


@dataclass(frozen=True)
class DaBoundReport:
    """Upper bound on target-domain error: source term + shift term + label drift.

    vacuous is set when the total exceeds 0.5 (a coin flip would beat it);
    the bound is still valid, just uninformative.
    """

    source_term: float
    shift_term: float
    label_drift_term: float
    total: float
    vacuous: bool


def ber_bounds_from_estimate(est: DivergenceEstimate) -> BerBounds:
    """Bracket the Bayes error from a divergence estimate.

    lower = 1/2 - sqrt(dp_tilde)/2, upper = 1/2 - dp_tilde/2. Both collapse
    to 0.5 for indistinguishable samples and to 0 for separable ones.
    """
    return ber_bounds_from_dp_tilde(est.dp_tilde)


def ber_bounds_from_dp_tilde(dp_tilde: float) -> BerBounds:
    """Same bracket, from a scalar divergence value (e.g. a quadrature reference)."""
    if not (0.0 <= dp_tilde <= 1.0):
        raise ValueError(f"dp_tilde must lie in [0, 1], got {dp_tilde}")
    return BerBounds(lower=0.5 - 0.5 * math.sqrt(dp_tilde), upper=0.5 - 0.5 * dp_tilde)


def shift_penalty(shift_est: DivergenceEstimate) -> float:
    """Distribution-shift term 2 sqrt(dp_tilde) between source and target rows."""
    return 2.0 * math.sqrt(shift_est.dp_tilde)


def _blend(model: GaussianModel, alpha: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of B = alpha*cov1 + (1-alpha)*cov0, and dm' B^-1 dm
    with dm = mean1 - mean0. At alpha = 1/2, B is the averaged covariance."""
    try:
        chol = np.linalg.cholesky(alpha * model.cov1 + (1.0 - alpha) * model.cov0)
    except np.linalg.LinAlgError:
        raise ValueError("blended covariance is singular or not positive definite") from None
    dm = model.mean1 - model.mean0
    return chol, float(dm @ np.linalg.solve(chol.T, np.linalg.solve(chol, dm)))


def _logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(np.diag(chol)).sum())


def _chernoff_exponent(model: GaussianModel, alpha: float, chol: np.ndarray,
                       quad: float) -> float:
    """-log int f0^alpha f1^(1-alpha), given (chol, quad) = _blend(model, alpha).

    Held at >= 0, its true range: for covariances a few ulps apart the log
    determinants can round to a difference just below 0.
    """
    ld0, ld1 = _logdet(model.chol0), _logdet(model.chol1)
    return max(0.0, 0.5 * alpha * (1.0 - alpha) * quad + 0.5 * (
        _logdet(chol) - ((1.0 - alpha) * ld0 + alpha * ld1)))


def bhattacharyya_distance_gaussian(model: GaussianModel) -> float:
    """Closed-form Bhattacharyya distance between the two Gaussian classes.

    The Chernoff exponent at alpha = 1/2: (1/8) dm' avg^-1 dm
    + (1/2) log(det(avg) / sqrt(det(cov0) det(cov1))), avg the averaged covariance.
    """
    return _chernoff_exponent(model, 0.5, *_blend(model, 0.5))


def bhattacharyya_coefficient_gaussian(model: GaussianModel) -> float:
    """BC = 2 sqrt(pq) exp(-bhattacharyya distance), clamped at 1: twice the
    upper end of bc_bound_gaussian."""
    return 2.0 * bc_bound_gaussian(model).upper


def gaussian_bounds(model: GaussianModel) -> tuple[BerBounds, BerBounds]:
    """bc_bound_gaussian and mahalanobis_bound_gaussian, in that order, from one
    factorisation of the averaged covariance. The one place BC is computed."""
    p = model.prior_p
    q = 1.0 - p
    chol, delta = _blend(model, 0.5)
    bc = min(1.0, 2.0 * math.sqrt(p * q) * math.exp(-_chernoff_exponent(model, 0.5, chol, delta)))
    return (BerBounds(lower=0.5 - 0.5 * math.sqrt(1.0 - bc * bc), upper=0.5 * bc),
            BerBounds(lower=0.0, upper=2.0 * p * q / (1.0 + p * q * delta)))


def bc_bound_gaussian(model: GaussianModel) -> BerBounds:
    """Classical Bhattacharyya bracket: 1/2 - sqrt(1 - BC^2)/2 <= BER <= BC/2."""
    return gaussian_bounds(model)[0]


def mahalanobis_bound_gaussian(model: GaussianModel) -> BerBounds:
    """Upper bound 2pq / (1 + pq * delta), delta the averaged-covariance
    Mahalanobis distance between class means. Bounds from above only."""
    return gaussian_bounds(model)[1]


def chernoff_upper_gaussian(model: GaussianModel, alpha: float) -> float:
    """Closed-form Chernoff integral p^a q^(1-a) * int f0^a f1^(1-a) for Gaussians.

    The exponent on f0 is alpha; the blended covariance pairs it with weight
    alpha on cov1: blend = alpha*cov1 + (1-alpha)*cov0. At alpha = 1/2 and
    equal priors this is half the Bhattacharyya coefficient.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    p = model.prior_p
    q = 1.0 - p
    return (p ** alpha) * (q ** (1.0 - alpha)) * math.exp(
        -_chernoff_exponent(model, alpha, *_blend(model, alpha)))


def da_bound(
    source_est: DivergenceEstimate,
    shift_est: DivergenceEstimate,
    label_drift: float = 0.0,
    source_error: float | None = None,
) -> DaBoundReport:
    """Bound target-domain error by source error plus a distribution-shift penalty.

    source_est compares the two source classes; shift_est compares all source
    rows against all target rows. The source term defaults to the divergence
    upper bound on the source Bayes error (assuming the decision rule attains
    it); pass source_error to substitute a measured error rate instead.
    label_drift is the expected labeling-function disagreement, 0 under
    covariate shift.
    """
    check_weight("label_drift", label_drift)
    if abs(shift_est.p_hat - 0.5) > 0.1:
        warnings.warn(
            "shift divergence assumes equally sized source and target pools; "
            f"got p_hat={shift_est.p_hat:.3f}",
            stacklevel=2,
        )
    if source_error is None:
        source_term = ber_bounds_from_estimate(source_est).upper
    else:
        if not (0.0 <= source_error <= 1.0):
            raise ValueError(f"source_error must lie in [0, 1], got {source_error}")
        source_term = float(source_error)
    shift_term = shift_penalty(shift_est)
    total = source_term + shift_term + label_drift
    return DaBoundReport(
        source_term=source_term,
        shift_term=shift_term,
        label_drift_term=float(label_drift),
        total=total,
        vacuous=total > 0.5,
    )
