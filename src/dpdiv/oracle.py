"""Numerical-integration reference for density-level quantities.

Computes the Bayes error, divergence, affinity, Bhattacharyya, total
variation, and Chernoff integrals of a two-class GaussianModel directly from
its log-densities, so the graph-based estimators and every bound can be
validated without building a single spanning tree. It imports no bound, so
the closed forms in bounds are checked against integrals they never feed.
A pass reads the densities and samplers from the model itself
(GaussianModel.log_density and .sample), so it reuses the Cholesky factors
the model computed once.

Integration strategy:
  d <= 2  composite tensor Gauss-Legendre over the integration box,
          QUAD_NODES[d] nodes per dimension. Panels (16 nodes each) keep
          the kinked integrands (min, abs) converging; smooth integrands
          converge to machine precision.
  d > 2   stratified importance-sampled Monte Carlo with the mixture
          proposal (f0 + f1) / 2, which keeps every integrand ratio in
          scope bounded: MC_POINTS samples in MC_STRATA equal shares.
          Strata use derived seeds, so results are deterministic and
          independent of evaluation order.
integrals returns each value with its standard error (0 for quadrature) and
sets no error target of its own: each caller judges the error it needs.

One pass evaluates both log-densities once per set of points (a grid leaf,
or one Monte Carlo stratum). Terms several integrands share are computed
once per set: p f0 and q f1 (bayes_error, dp_tilde, tv). The density masses
integrate the same p f0 and q f1 and divide by the priors, so they add no
exponential of their own.

The grid is never built whole (the 2-D grid is 1536^2 points). np.sum
over a contiguous float64 array adds pairwise: it halves the range, rounding
the half down to a multiple of 8, until a part holds at most 128 terms. The
pass cuts the grid's row-major order by the same rule into leaves of at most
QUAD_BLOCK_POINTS points, sums each integrand over one leaf at a time, and
adds the leaf sums back up the same tree, so every value has the bits of one
np.sum over the whole grid. The loop rebinds one leaf's terms to the next
rather than freeing them at the end of each leaf: the allocator then reuses
the blocks, where freeing lets it return the heap to the system and fault it
back in, leaf after leaf. A pass's memory is a few leaves' worth, whatever the
number of nodes.

QUAD_BLOCK_POINTS is 2^14: a leaf of the 2-D grid holds 9 216 points (six
grid rows) and each per-point array 72 KiB, under glibc's 128 KiB threshold
for a mapping of its own; one leaf's work (under 1 MiB) fits in a core's L2
cache. Once numpy.polynomial is imported, a 2-D pass over the six
integrals `dpdiv oracle` reports peaks at 0.92 MiB under tracemalloc (1.63 at
2^15, 3.16 at 2^16). Its minor page faults depend on the heap's history, as
glibc trims the top of the heap when enough of it is free: 65 to 320 per warm
pass in most processes measured, one at 3 900, against 1 550 to 1 745 at
2^16. Four times the leaves of 2^16 cost four times their fixed per-call work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import GaussianModel, derive_rng

PANEL_NODES = 16
QUAD_NODES = {1: 4096, 2: 1536}  # per dimension, each a whole number of panels
# most points per quadrature leaf; at least 128, the most numpy's pairwise sum adds unsplit
QUAD_BLOCK_POINTS = 1 << 14
MC_POINTS = 1_000_000  # a whole number of MC_STRATA shares
MC_STRATA = 100
MC_ROOT_SEED = 0x0D1BE5


class OracleError(ValueError):
    """An integral outside its provable range, or a pass that does not resolve the model."""


@dataclass(frozen=True)
class DensityPair:
    """The two class densities of a GaussianModel, with the box a pass integrates over.

    integration_box is the read-only (d, 2) array of per-dimension (low,
    high) limits: each component's mean +- 8 marginal standard deviations
    (Gaussian mass outside 8 sigma is below 1e-15). dimension is the
    model's d. The pass, not the pair, sets the evaluation points:
    QUAD_NODES[d] per dimension for d <= 2, else MC_POINTS seeded samples
    from the model. Every integrals pass checks that each density
    integrates to 1 on those points.
    """

    model: GaussianModel
    integration_box: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.model
        s0 = 8.0 * np.sqrt(np.diag(m.cov0))
        s1 = 8.0 * np.sqrt(np.diag(m.cov1))
        box = np.stack([np.minimum(m.mean0 - s0, m.mean1 - s1),
                        np.maximum(m.mean0 + s0, m.mean1 + s1)], axis=1)
        box.flags.writeable = False
        object.__setattr__(self, "integration_box", box)

    @property
    def dimension(self) -> int:
        return self.model.d

    @property
    def method(self) -> str:
        """How a pass integrates the pair: "quadrature" for d <= 2, else "monte_carlo"."""
        return "quadrature" if self.dimension <= 2 else "monte_carlo"


def _composite_leggauss(lo: float, hi: float, n_total: int):
    """Composite Gauss-Legendre rule: ~n_total nodes split into 16-node panels."""
    k = max(1, int(round(n_total / PANEL_NODES)))
    xm, wm = np.polynomial.legendre.leggauss(PANEL_NODES)
    edges = np.linspace(lo, hi, k + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    x = (mid[:, None] + half[:, None] * xm[None, :]).ravel()
    w = (half[:, None] * wm[None, :]).ravel()
    return x, w


def _pairwise_half(size: int) -> int:
    """Where numpy's pairwise summation splits size terms (half, rounded down
    to a multiple of 8), or 0 when size is a leaf of at most QUAD_BLOCK_POINTS."""
    if size <= QUAD_BLOCK_POINTS:
        return 0
    half = size // 2
    return half - half % 8


def _leaves(start: int, stop: int):
    """The leaves [start, stop) of _pairwise_half's tree over that range, in order."""
    half = _pairwise_half(stop - start)
    if not half:
        yield start, stop
        return
    yield from _leaves(start, start + half)
    yield from _leaves(start + half, stop)


def _tree_sum(leaf_sums, size: int):
    """Add leaf sums, taken in order from an iterator, up _pairwise_half's tree over size."""
    half = _pairwise_half(size)
    if not half:
        return next(leaf_sums)
    return _tree_sum(leaf_sums, half) + _tree_sum(leaf_sums, size - half)


def _quad_blocks(pair: DensityPair):
    """The tensor product of one composite rule per dimension, one leaf at a time.

    Yields (points, weights) for each leaf of _leaves over the n^d grid
    points in row-major order: an (m, d) array and m weights, each with the
    bits of the whole product's. A leaf is cut from the grid rows (values of
    x0) it touches, so it is never more than two rows wider than its points.
    """
    n = QUAD_NODES[pair.dimension]
    (x0, w0), *rest = (_composite_leggauss(lo, hi, n) for lo, hi in pair.integration_box)
    row = math.prod(x.size for x, _ in rest)  # points per grid row; 1 in 1-D
    for start, stop in _leaves(0, x0.size * row):
        rows = slice(start // row, -(-stop // row))
        cut = slice(start - rows.start * row, stop - rows.start * row)
        points = np.stack(np.meshgrid(x0[rows], *(x for x, _ in rest), indexing="ij",
                                      copy=False), axis=-1).reshape(-1, pair.dimension)
        weights = functools.reduce(np.multiply.outer, (w0[rows], *(w for _, w in rest)))
        yield points[cut], weights.ravel()[cut]


class _Terms:
    """One pass's log-densities at points x and the terms several integrands share.

    a = p f0 and b = q f1 (bayes_error, dp_tilde, tv and the two density
    masses) are computed once and kept while the pass integrates over x. Each
    is the expression those integrands evaluated on their own, so sharing it
    leaves every value's bits unchanged.
    """

    def __init__(self, pair, x):
        self.lf0, self.lf1 = (pair.model.log_density(k, x) for k in (0, 1))
        # in place, so no temporary: x * y and y * x are the same float
        self.a = np.exp(self.lf0)
        self.a *= pair.model.prior_p
        self.b = np.exp(self.lf1)
        self.b *= 1.0 - pair.model.prior_p


def _integrate_multi(pair, integrands):
    """Evaluate several integrands, each a function of one pass's _Terms, on shared points.

    Returns a list of (value, standard_error) pairs; quadrature reports a
    standard error of 0. Sharing points matters for identity checks: they
    hold pointwise, so shared-sample results agree to rounding even when the
    Monte Carlo values themselves carry noise.
    """
    if pair.method == "quadrature":
        leaf_sums, size = [], 0
        for x, w in _quad_blocks(pair):
            terms = _Terms(pair, x)  # rebound, not freed, between leaves: see the module docstring
            # np.add.reduce is np.sum's reduction without its wrapper (each 1-D: same bits)
            leaf_sums.append(np.array([np.add.reduce(w * fn(terms)) for fn in integrands]))
            size += w.size
        return [(float(v), 0.0) for v in _tree_sum(iter(leaf_sums), size)]

    per_stratum = MC_POINTS // MC_STRATA
    half = per_stratum // 2
    means = np.empty((len(integrands), MC_STRATA))
    for s in range(MC_STRATA):
        rng = derive_rng(MC_ROOT_SEED, s)
        terms = _Terms(pair, np.vstack([pair.model.sample(0, rng, half),
                                        pair.model.sample(1, rng, per_stratum - half)]))
        inv_q = np.exp(-(np.logaddexp(terms.lf0, terms.lf1) - math.log(2.0)))
        for k, fn in enumerate(integrands):
            # np.mean's bits without its wrapper
            means[k, s] = np.add.reduce(fn(terms) * inv_q) / per_stratum
    return [(float(m.mean()), float(m.std(ddof=1) / math.sqrt(MC_STRATA))) for m in means]


def _integrand_table(p, q, alpha):
    """Every integrand by name, as a function of one pass's _Terms."""
    coef = 2.0 * math.sqrt(p * q)
    lp, lq = math.log(p), math.log(q)
    lead = alpha * lp + (1.0 - alpha) * lq

    def dp_tilde(t):
        # where s = a + b = 0 (a = b = 0) the square is already the 0 the integrand takes
        s = t.a + t.b
        d = t.a - t.b
        d *= d
        return np.divide(d, s, out=d, where=s > 0.0)

    return {
        "bayes_error": lambda t: np.minimum(t.a, t.b),
        "dp_tilde": dp_tilde,
        "affinity": lambda t: np.exp((t.lf0 + t.lf1) - np.logaddexp(lp + t.lf0, lq + t.lf1)),
        "bc": lambda t: coef * np.exp(0.5 * (t.lf0 + t.lf1)),
        "tv": lambda t: np.abs(t.a - t.b),
        "chernoff": lambda t: np.exp(lead + alpha * t.lf0 + (1.0 - alpha) * t.lf1),
        "scaled_chernoff": lambda t: np.exp(q * t.lf0 + p * t.lf1),
    }


# p f0 and q f1: every pass checks that each density, divided by its prior, integrates to 1.
_DENSITY_MASSES = (lambda t: t.a, lambda t: t.b)


def integrals(pair: DensityPair, names, alpha=0.5) -> dict:
    """Several integrals of one density pair from a single pass over shared points.

    names are bayes_error, dp_tilde, affinity, bc, tv, chernoff or
    scaled_chernoff; returns {name: (value, standard_error)}, the same values
    the per-integral functions below return one at a time. The standard error
    is 0 for quadrature and the spread of the stratum means for Monte Carlo;
    each caller judges it against its own tolerance.
    alpha is the Chernoff exponent. The same pass integrates p f0 and q f1,
    and a density whose mass (that integral over its prior) is off 1 by more
    than 1e-6 (quadrature, d <= 2) or 1e-2 (Monte Carlo) raises. dp_tilde is
    clamped into [0, 1] after checking it lies within numerical noise of that
    range; the affinity is checked against (divergence) = (total mass) - 4pq
    (affinity) on the same points, the total mass read as the sum of those two
    integrals, and disagreement beyond 1e-6, a broken integrator rather than
    bad input, raises RuntimeError.
    """
    names = tuple(names)
    p, q = pair.model.prior_p, 1.0 - pair.model.prior_p
    table = _integrand_table(p, q, alpha)
    for name in names:
        if name not in table:
            raise OracleError(f"unknown integral {name!r}, expected one of {sorted(table)}")
    # the affinity brings dp_tilde for its identity check
    evaluated = list(dict.fromkeys(names + (("dp_tilde",) if "affinity" in names else ())))
    if "chernoff" in evaluated and not (0.0 < alpha < 1.0):
        raise OracleError(f"alpha must lie strictly in (0, 1), got {alpha}")
    *values, (mass_a, _), (mass_b, _) = _integrate_multi(
        pair, [table[k] for k in evaluated] + list(_DENSITY_MASSES))
    tol, points = ((1e-6, "quadrature grid") if pair.method == "quadrature"
                   else (1e-2, "Monte Carlo sample"))
    for k, mass in enumerate((mass_a / p, mass_b / q)):
        if abs(mass - 1.0) > tol:
            raise OracleError(
                f"density {k} integrates to {mass:.8f} over the box (|mass-1| > {tol:g}); "
                f"the {points} does not resolve this model"
            )
    out = dict(zip(evaluated, values))
    if "affinity" in out:
        a, dpt, m = out["affinity"][0], out["dp_tilde"][0], mass_a + mass_b
        if abs(dpt - (m - 4.0 * p * q * a)) > 1e-6:
            raise RuntimeError(
                f"affinity/divergence identity violated: {dpt:.10f} vs {m - 4 * p * q * a:.10f}"
            )
    if "dp_tilde" in names:
        value, se = out["dp_tilde"]
        slack = max(1e-6, 5.0 * se)
        if value < -slack or value > 1.0 + slack:
            raise OracleError(f"divergence integral {value:.8f} is outside [0, 1] beyond tolerance")
        out["dp_tilde"] = (min(1.0, max(0.0, value)), se)
    return {name: out[name] for name in names}


# Each function below returns one value. For its Monte Carlo standard error,
# call integrals(pair, [name])[name].

def bayes_error(pair: DensityPair) -> float:
    """Minimum achievable misclassification rate: integral of min(p f0, q f1)."""
    return integrals(pair, ["bayes_error"])["bayes_error"][0]


def dp_tilde_integral(pair: DensityPair) -> float:
    """Weighted squared-difference divergence: integral of (pf0-qf1)^2 / (pf0+qf1).

    The raw value provably lies in [0, 1]; the result is clamped there after
    checking the computed value is within numerical noise of that range.
    """
    return integrals(pair, ["dp_tilde"])["dp_tilde"][0]


def affinity_integral(pair: DensityPair) -> float:
    """Harmonic-mean overlap: integral of f0 f1 / (p f0 + q f1).

    Cross-checks the identity (divergence) = (total mass) - 4pq (affinity)
    on the same evaluation points; disagreement beyond 1e-6 means the
    integrator is broken, so it raises RuntimeError.
    """
    return integrals(pair, ["affinity"])["affinity"][0]


def bc_integral(pair: DensityPair) -> float:
    """Bhattacharyya coefficient 2 * integral of sqrt(pq f0 f1)."""
    return integrals(pair, ["bc"])["bc"][0]


def tv_integral(pair: DensityPair) -> float:
    """Total variation between the weighted densities: integral of |p f0 - q f1|."""
    return integrals(pair, ["tv"])["tv"][0]


def chernoff_integral(pair: DensityPair, alpha: float) -> float:
    """Chernoff integral: p^a q^(1-a) * integral of f0^a f1^(1-a), a in (0, 1)."""
    return integrals(pair, ["chernoff"], alpha=alpha)["chernoff"][0]


def scaled_chernoff_integral(pair: DensityPair) -> float:
    """Integral of f0^q f1^p: the prior-free quantity the affinity never exceeds."""
    return integrals(pair, ["scaled_chernoff"])["scaled_chernoff"][0]


def gaussian_pair(model: GaussianModel) -> DensityPair:
    """DensityPair for a two-class Gaussian model."""
    return DensityPair(model)
