"""Bracketing the Bayes error rate on the classic 8-D Gaussian benchmarks.

Compares the closed-form Bhattacharyya and Mahalanobis bounds (which need
the true distribution parameters) against the divergence bound estimated
purely from data, with the true error from the integration oracle.
"""

from dpdiv import (
    GaussianModel,
    bayes_error,
    bc_bound_gaussian,
    ber_bounds_from_estimate,
    estimate_from_labeled,
    fukunaga_d1,
    fukunaga_d2,
    gaussian_pair,
    integrals,
    mahalanobis_bound_gaussian,
    sample_gaussian,
)

for name, model in (("D1", fukunaga_d1()), ("D2", fukunaga_d2())):
    print(f"benchmark {name}")
    bc = bc_bound_gaussian(model)
    mh = mahalanobis_bound_gaussian(model)
    print(f"  Bhattacharyya bound: [{bc.lower:.4f}, {bc.upper:.4f}]")
    print(f"  Mahalanobis upper bound: {mh.upper:.4f}")

    # data-driven bound: no distribution knowledge, just 500 points per class
    sample = sample_gaussian(model, 500, 500, seed=2024)
    emp = ber_bounds_from_estimate(estimate_from_labeled(sample))
    print(f"  divergence bound from 500/class: [{emp.lower:.4f}, {emp.upper:.4f}]")

    if name == "D1":
        # only the first coordinate differs, so d reduces to 1 for the truth
        pair = gaussian_pair(GaussianModel(mean0=[0.0], mean1=[2.56], cov0=[1.0], cov1=[1.0]))
        print(f"  true Bayes error: {bayes_error(pair):.4f}")
    else:
        truth, se = integrals(gaussian_pair(model), ["bayes_error"])["bayes_error"]
        print(f"  true Bayes error: {truth:.4f} (Monte Carlo, se {se:.1e})")
