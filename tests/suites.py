"""Shared randomized-suite machinery for the bound and oracle checks.

Each suite model gets all its oracle integrals from one oracle.integrals
pass over shared evaluation points; the inequality checks then compare
those numbers. Every suite is seeded, so results are reproducible.
"""

from unittest import mock

import numpy as np

from dpdiv import bounds, divergence, oracle
from dpdiv.dataset import GaussianModel, derive_rng

# the suites' oracle pass size: 512 nodes per dimension are ample for
# inequality slacks, far above their 1e-7 epsilon
SUITE_PASS_SIZE = {"QUAD_NODES": {1: 512, 2: 512}, "MC_POINTS": 400_000}


def random_gaussian_model(rng: np.random.Generator, dimension=None,
                          equal_priors=False) -> GaussianModel:
    """Random well-conditioned Gaussian model for validation suites.

    Rejection-samples until the closed-form Bhattacharyya distance lands in
    [0.02, 2.5], which keeps the classes neither
    nearly identical nor nearly separated; inequality checks then carry
    slack far above integration noise.
    """
    for _ in range(1000):
        d = int(dimension) if dimension is not None else int(rng.integers(1, 5))
        mean0 = rng.normal(0.0, 0.8, d)
        mean1 = mean0 + rng.normal(0.0, 0.7, d)

        def rand_cov():
            basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
            eig = rng.uniform(0.4, 2.2, d)
            c = (basis * eig) @ basis.T
            return (c + c.T) / 2.0

        prior = 0.5 if equal_priors else float(rng.uniform(0.2, 0.8))
        model = GaussianModel(mean0=mean0, mean1=mean1, cov0=rand_cov(), cov1=rand_cov(),
                              prior_p=prior)
        if 0.02 <= bounds.bhattacharyya_distance_gaussian(model) <= 2.5:
            return model
    raise RuntimeError("failed to draw a model inside the separation window")


def oracle_quantities(model):
    """All oracle integrals for one Gaussian model, from one integration pass."""
    pair = oracle.gaussian_pair(model)
    with mock.patch.multiple(oracle, **SUITE_PASS_SIZE):
        values = oracle.integrals(
            pair, ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "scaled_chernoff")
        )
    return {
        "model": model,
        "pair": pair,
        "p": model.prior_p,
        "q": 1.0 - model.prior_p,
        "ber": values["bayes_error"][0],
        "dpt": values["dp_tilde"][0],
        "ap": values["affinity"][0],
        "bc": values["bc"][0],
        "tv": values["tv"][0],
        "scaled_chernoff": values["scaled_chernoff"][0],
    }


def equal_prior_suite(n_models=50, seed=1601):
    rng = derive_rng(seed)
    return [
        oracle_quantities(random_gaussian_model(rng, equal_priors=True))
        for _ in range(n_models)
    ]


def random_prior_suite(n_models=50, seed=1602):
    rng = derive_rng(seed)
    return [
        oracle_quantities(random_gaussian_model(rng, equal_priors=False))
        for _ in range(n_models)
    ]


def bound_ordering_chain_slacks(q):
    """Slack of each link in the ordering
    bc_lower <= dp_lower <= bayes error <= dp_upper <= bc_upper (equal priors)."""
    l_bc = 0.5 - 0.5 * np.sqrt(max(0.0, 1.0 - q["bc"] ** 2))
    l_dp = 0.5 - 0.5 * np.sqrt(max(0.0, q["dpt"]))
    u_dp = 0.5 - 0.5 * q["dpt"]
    u_bc = 0.5 * q["bc"]
    return {
        "dp_lower_vs_bc_lower": l_dp - l_bc,
        "ber_vs_dp_lower": q["ber"] - l_dp,
        "dp_upper_vs_ber": u_dp - q["ber"],
        "bc_upper_vs_dp_upper": u_bc - u_dp,
    }


def tv_sandwich_slacks(q):
    """Slack of dpt <= tv and tv <= sqrt(dpt)."""
    return {
        "tv_vs_dpt": q["tv"] - q["dpt"],
        "sqrt_dpt_vs_tv": np.sqrt(max(0.0, q["dpt"])) - q["tv"],
    }


def affinity_chernoff_slack(q):
    """Slack of affinity <= integral of f0^q f1^p."""
    return q["scaled_chernoff"] - q["ap"]


def bc_squared_affinity_slack(q):
    """Slack of bc^2 <= affinity (meaningful at equal priors)."""
    return q["ap"] - q["bc"] ** 2


def harmonic_vs_geometric_grid_gap(pair, n_points=10_000):
    """Minimum of f0^q f1^p - f0 f1 / (p f0 + q f1) over a tensor grid."""
    d = pair.dimension
    per_dim = max(2, int(round(n_points ** (1.0 / d))))
    axes = [np.linspace(pair.integration_box[k, 0], pair.integration_box[k, 1], per_dim)
            for k in range(d)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    lf0, lf1 = (pair.model.log_density(k, grid) for k in (0, 1))
    p, q = pair.model.prior_p, 1.0 - pair.model.prior_p
    geometric = np.exp(q * lf0 + p * lf1)
    harmonic = np.exp(lf0 + lf1 - np.logaddexp(np.log(p) + lf0, np.log(q) + lf1))
    return float(np.min(geometric - harmonic)), grid.shape[0]


def informative_plus_noise(seed, n=300, noise_features=9, gap=6.0):
    """Feature 0 separates the classes by `gap`; the rest are pure noise."""
    rng = derive_rng(3301, seed)
    d = noise_features + 1
    x0 = rng.normal(size=(n, d))
    x1 = rng.normal(size=(n, d))
    x1[:, 0] += gap
    return x0, x1


def shifted_vs_invariant(seed, n=500):
    """Feature 0 separates strongly but shifts across domains; feature 1
    separates less but is domain-invariant."""
    rng = derive_rng(3302, seed)
    source0 = np.stack([rng.normal(-2, 1, n), rng.normal(-1, 1, n)], axis=1)
    source1 = np.stack([rng.normal(2, 1, n), rng.normal(1, 1, n)], axis=1)
    target0 = np.stack([rng.normal(2, 1, n), rng.normal(-1, 1, n)], axis=1)
    target1 = np.stack([rng.normal(6, 1, n), rng.normal(1, 1, n)], axis=1)
    return source0, source1, np.vstack([target0, target1])


# Covariate-shift scenario: two unit bivariate Gaussians at (-1,0)/(1,0) in
# the source domain; the target domain is both classes shifted by (0.5, 0).
# The source-optimal rule is the sign of the first coordinate.

def covariate_shift_scenario(seed, n_per_class=500):
    rng = derive_rng(2203, seed)
    s0 = rng.normal(size=(n_per_class, 2)) + [-1.0, 0.0]
    s1 = rng.normal(size=(n_per_class, 2)) + [1.0, 0.0]
    t0 = rng.normal(size=(n_per_class, 2)) + [-0.5, 0.0]
    t1 = rng.normal(size=(n_per_class, 2)) + [1.5, 0.0]
    return s0, s1, t0, t1


def da_bound_vs_target_error(seed, n_per_class=500):
    s0, s1, t0, t1 = covariate_shift_scenario(seed, n_per_class)
    source_est = divergence.estimate(s0, s1)
    shift_est = divergence.estimate(np.vstack([s0, s1]), np.vstack([t0, t1]))
    report = bounds.da_bound(source_est, shift_est)
    target_error = 0.5 * np.mean(t0[:, 0] > 0) + 0.5 * np.mean(t1[:, 0] <= 0)
    return report, float(target_error)
