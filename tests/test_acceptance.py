"""Acceptance gate: every release criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. All randomized checks use fixed seeds, so results are
reproducible run to run.
"""

import time

import numpy as np
import pytest

from bruteforce import kruskal_mst, kruskal_total_length
from dpdiv import bounds, oracle
from dpdiv.dataset import GaussianModel, derive_rng
from dpdiv.emst import build_mst
from dpdiv.experiments import (
    fukunaga_d1,
    fukunaga_d2,
    run_consistency,
    run_fukunaga,
    run_sweep,
)
from dpdiv.featsel import forward_select
from suites import (
    bc_squared_affinity_slack,
    affinity_chernoff_slack,
    da_bound_vs_target_error,
    equal_prior_suite,
    harmonic_vs_geometric_grid_gap,
    informative_plus_noise,
    random_prior_suite,
    shifted_vs_invariant,
    bound_ordering_chain_slacks,
    tv_sandwich_slacks,
)

SLACK = -1e-7
_suite_timings = {}


def report(number, name, started):
    print(f"[acceptance] criterion {number:2d} ({name}): PASS "
          f"({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="session")
def equal_suite():
    started = time.perf_counter()
    suite = equal_prior_suite(n_models=50, seed=1601)
    _suite_timings["equal"] = time.perf_counter() - started
    return suite


@pytest.fixture(scope="session")
def prior_suite():
    started = time.perf_counter()
    suite = random_prior_suite(n_models=50, seed=1602)
    _suite_timings["prior"] = time.perf_counter() - started
    return suite


class TestCriterion1ClosedForms:
    def test_benchmark_closed_forms(self):
        started = time.perf_counter()
        checks = [
            (bounds.bc_bound_gaussian(fukunaga_d1()).upper, 0.2204),
            (bounds.bc_bound_gaussian(fukunaga_d2()).upper, 0.0474),
            (bounds.mahalanobis_bound_gaussian(fukunaga_d1()).upper, 0.1895),
            (bounds.mahalanobis_bound_gaussian(fukunaga_d2()).upper, 0.1413),
        ]
        for got, expected in checks:
            assert abs(got - expected) <= 1e-4, (got, expected)  # 0.01 percentage points
        assert time.perf_counter() - started < 1.0
        report(1, "closed-form benchmark bounds", started)


class TestCriterion2TrueBayesError:
    def test_oracle_bayes_errors(self):
        started = time.perf_counter()
        # benchmark 1 reduces exactly to one dimension: only the first
        # coordinate differs and all others share identical unit factors
        d1_pair = oracle.gaussian_pair(
            GaussianModel(mean0=[0.0], mean1=[2.56], cov0=[1.0], cov1=[1.0])
        )
        ber1 = oracle.bayes_error(d1_pair)
        assert abs(ber1 - 0.100) <= 0.0005

        d2_pair = oracle.gaussian_pair(fukunaga_d2())  # 8-D: Monte Carlo path
        assert oracle.MC_POINTS >= 1_000_000
        ber2, se = oracle.integrals(d2_pair, ["bayes_error"])["bayes_error"]
        assert se < 5e-4
        assert abs(ber2 - 0.0190) <= 0.0015
        assert time.perf_counter() - started < 60.0
        report(2, "true Bayes error via the oracle", started)


class TestCriterion3FukunagaBounds:
    @pytest.mark.parametrize("dataset,n,lo,hi", [
        ("D1", 1000, 0.145, 0.185),
        ("D2", 1000, 0.011, 0.028),
        ("D1", 100, 0.142, 0.222),
    ])
    def test_monte_carlo_bound_bands(self, dataset, n, lo, hi):
        started = time.perf_counter()
        summary = run_fukunaga(dataset, n, 50, seed=0xD1BE5)
        assert lo <= summary.mean <= hi, summary.mean
        assert time.perf_counter() - started < 300.0
        report(3, f"graph bound on {dataset} at n={n}", started)


class TestCriterion4Sweep:
    def test_sweep_sandwich_and_empirical_tracking(self):
        started = time.perf_counter()
        rows = run_sweep(n_steps=150, n_per_class=300, n_trials=10, seed=0xD1BE5)
        deviations = []
        for row in rows:
            bc_lower = row.bc_lower
            assert row.dp_lower_analytic - bc_lower >= SLACK
            assert row.ber_true - row.dp_lower_analytic >= SLACK
            assert row.dp_upper_analytic - row.ber_true >= SLACK
            assert row.bc_upper - row.dp_upper_analytic >= SLACK
            deviations.append(abs(row.dp_upper_empirical_mean - row.dp_upper_analytic))
        assert float(np.mean(deviations)) < 0.05
        assert time.perf_counter() - started < 600.0
        report(4, "mean-separation sweep", started)


class TestCriterion5InequalitySuites:
    def test_ordering_chain_on_equal_priors(self, equal_suite):
        started = time.perf_counter()
        for q in equal_suite:
            for name, slack in bound_ordering_chain_slacks(q).items():
                assert slack >= SLACK, (name, slack)
        checks = time.perf_counter() - started
        assert _suite_timings["equal"] + checks < 120.0
        report(5, "bound-ordering chain, 50 equal-prior models", started)

    def test_affinity_below_scaled_chernoff(self, equal_suite, prior_suite):
        started = time.perf_counter()
        for q in equal_suite + prior_suite:
            assert affinity_chernoff_slack(q) >= SLACK
        checks = time.perf_counter() - started
        assert _suite_timings["prior"] + checks < 120.0
        report(5, "affinity vs scaled Chernoff, 100 models", started)


class TestCriterion6PointwiseAndSandwich:
    def test_tv_sandwich(self, equal_suite, prior_suite):
        started = time.perf_counter()
        for q in equal_suite + prior_suite:
            for name, slack in tv_sandwich_slacks(q).items():
                assert slack >= SLACK, (name, slack)
        report(6, "divergence / total-variation sandwich", started)

    def test_pointwise_harmonic_geometric_dominance(self, prior_suite):
        started = time.perf_counter()
        for q in prior_suite[:10]:
            gap, n_points = harmonic_vs_geometric_grid_gap(q["pair"])
            assert n_points >= 10_000 * 0.9
            assert gap >= SLACK
        report(6, "pointwise mean-inequality grid", started)

    def test_bc_squared_below_affinity(self, equal_suite):
        started = time.perf_counter()
        for q in equal_suite:
            assert bc_squared_affinity_slack(q) >= SLACK
        report(6, "squared overlap coefficient vs affinity", started)


class TestCriterion7MstOracle:
    def test_exact_agreement_with_brute_force(self):
        started = time.perf_counter()
        rng = derive_rng(0xE57)
        for _ in range(150):
            n = int(rng.integers(2, 129))
            d = int(rng.integers(1, 7))
            pts = rng.normal(size=(n, d))
            mst = build_mst(pts)
            reference = kruskal_mst(pts)
            assert list(zip(mst.i.tolist(), mst.j.tolist())) == [(i, j) for i, j, _ in reference]
        for _ in range(50):
            # lattice coordinates force many exactly tied distances
            n = int(rng.integers(4, 129))
            d = int(rng.integers(1, 4))
            pts = rng.integers(0, 5, size=(n, d)).astype(float)
            total = float(build_mst(pts).length.sum())
            reference = kruskal_total_length(pts)
            assert abs(total - reference) <= 1e-12 * max(reference, 1.0)
        report(7, "spanning-tree oracle equivalence, 200 instances", started)


class TestCriterion8Consistency:
    def test_median_error_non_increasing(self):
        started = time.perf_counter()
        model = GaussianModel(
            mean0=[-np.sqrt(2) / 2, -np.sqrt(2) / 2], mean1=[np.sqrt(2) / 2, np.sqrt(2) / 2],
            cov0=[1.0, 1.0], cov1=[1.0, 1.0],
        )
        summaries = run_consistency(model, (100, 400, 1600), 20, seed=0xD1BE5)
        medians = [float(np.median(s.values)) for s in summaries]
        assert medians[1] <= medians[0], medians
        assert medians[2] <= medians[1], medians
        report(8, "estimator consistency medians", started)


class TestCriterion9FeatureSelection:
    def test_informative_feature_first(self):
        started = time.perf_counter()
        hits = 0
        for seed in range(20):
            x0, x1 = informative_plus_noise(seed)
            hits += forward_select(x0, x1, k=1).selected[0] == 0
        assert hits >= 18, hits
        report(9, "informative-vs-noise selection", started)

    def test_invariant_vs_shifted_feature(self):
        started = time.perf_counter()
        invariant_hits = 0
        discriminative_hits = 0
        for seed in range(20):
            source0, source1, target = shifted_vs_invariant(seed)
            with_penalty = forward_select(source0, source1, target, k=1,
                                          shift_weight=1.0)
            without = forward_select(source0, source1, k=1)
            invariant_hits += with_penalty.selected[0] == 1
            discriminative_hits += without.selected[0] == 0
        assert invariant_hits >= 18, invariant_hits
        assert discriminative_hits >= 18, discriminative_hits
        report(9, "invariant-vs-shifted selection", started)


class TestCriterion10DomainAdaptationBound:
    def test_bound_dominates_target_error_in_every_scenario(self):
        started = time.perf_counter()
        for seed in range(20):
            bound, target_error = da_bound_vs_target_error(seed)
            assert bound.total >= target_error, (seed, bound.total, target_error)
        report(10, "domain-adaptation bound validity", started)
