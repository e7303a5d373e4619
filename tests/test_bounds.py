import math

import numpy as np
import pytest

from dpdiv import bounds
from dpdiv.dataset import GaussianModel, derive_rng
from dpdiv.divergence import DivergenceEstimate, estimate
from dpdiv.experiments import fukunaga_d1, fukunaga_d2
from suites import (da_bound_vs_target_error, equal_prior_suite, bound_ordering_chain_slacks,
                    random_gaussian_model)


def fake_estimate(dp_tilde, n_f=100, n_g=100):
    n = n_f + n_g
    c = round((1 - dp_tilde) * n / 2)
    return DivergenceEstimate(
        cross_count=c, n_f=n_f, n_g=n_g,
        dp=dp_tilde, dp_tilde_raw=dp_tilde, dp_tilde=dp_tilde,
        affinity=1 - dp_tilde, p_hat=n_f / n,
    )


class TestBerBoundsFromEstimate:
    def test_indistinguishable(self):
        b = bounds.ber_bounds_from_estimate(fake_estimate(0.0))
        assert b.lower == b.upper == 0.5

    def test_separable(self):
        b = bounds.ber_bounds_from_estimate(fake_estimate(1.0))
        assert b.lower == b.upper == 0.0

    def test_intermediate_arithmetic(self):
        b = bounds.ber_bounds_from_estimate(fake_estimate(0.64))
        assert b.lower == pytest.approx(0.1, abs=1e-15)
        assert b.upper == pytest.approx(0.18, abs=1e-15)

    def test_strictly_decreasing_in_divergence(self):
        grid = np.linspace(0.0, 1.0, 21)
        lowers = [bounds.ber_bounds_from_estimate(fake_estimate(d)).lower for d in grid]
        uppers = [bounds.ber_bounds_from_estimate(fake_estimate(d)).upper for d in grid]
        assert all(a > b for a, b in zip(lowers, lowers[1:]))
        assert all(a > b for a, b in zip(uppers, uppers[1:]))

    def test_bracket_invariant_on_random_inputs(self):
        rng = derive_rng(1012)
        for _ in range(200):
            b = bounds.ber_bounds_from_estimate(fake_estimate(float(rng.uniform())))
            assert 0.0 <= b.lower <= b.upper <= 0.5

    @pytest.mark.parametrize("build, message", [
        (lambda: bounds.BerBounds(lower=0.3, upper=0.2),
         "invalid bracket [0.3, 0.2], need 0 <= lower <= upper <= 0.5"),
        (lambda: bounds.ber_bounds_from_dp_tilde(1.5), "dp_tilde must lie in [0, 1], got 1.5"),
    ], ids=["inverted_bracket", "dp_tilde_above_1"])
    def test_out_of_range_input_rejected(self, build, message):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


class TestGaussianClosedForms:
    def test_bc_bound_benchmarks(self):
        # published closed-form values: 22.04% and 4.74%
        assert bounds.bc_bound_gaussian(fukunaga_d1()).upper == pytest.approx(0.2204, abs=1e-4)
        assert bounds.bc_bound_gaussian(fukunaga_d2()).upper == pytest.approx(0.0474, abs=1e-4)

    def test_mahalanobis_benchmarks(self):
        # published closed-form values: 18.95% and 14.13%
        d1 = bounds.mahalanobis_bound_gaussian(fukunaga_d1())
        d2 = bounds.mahalanobis_bound_gaussian(fukunaga_d2())
        assert d1.upper == pytest.approx(0.1895, abs=1e-4)
        assert d2.upper == pytest.approx(0.1413, abs=1e-4)
        assert d1.lower == 0.0

    def test_identical_classes(self):
        model = GaussianModel(mean0=[0.0, 0.0], mean1=[0.0, 0.0], cov0=[1, 1], cov1=[1, 1])
        assert bounds.bhattacharyya_coefficient_gaussian(model) == pytest.approx(1.0)
        b = bounds.bc_bound_gaussian(model)
        assert b.lower == pytest.approx(0.5) and b.upper == pytest.approx(0.5)
        assert bounds.mahalanobis_bound_gaussian(model).upper == pytest.approx(0.5)

    def test_bc_lower_below_upper_on_random_models(self):
        rng = derive_rng(1013)
        for _ in range(50):
            model = random_gaussian_model(rng)
            b = bounds.bc_bound_gaussian(model)
            assert 0.0 <= b.lower <= b.upper <= 0.5

    def test_near_identical_models_keep_a_valid_bracket(self):
        # equal means, p = 1/2, covariances a few ulps apart: the computed
        # coefficient can round past 1, and the bracket past 0.5 without the clamp
        rng = derive_rng(1014)
        for i in range(500):
            d = 1 + i % 5
            m = rng.normal(size=(d, d))
            cov = m @ m.T + d * np.eye(d)
            ulps = np.triu(rng.integers(-3, 4, size=(d, d)))
            nudged = cov * (1.0 + (ulps + np.triu(ulps, 1).T) * np.finfo(float).eps)
            model = GaussianModel(mean0=np.zeros(d), mean1=np.zeros(d), cov0=cov, cov1=nudged)
            bc, mahalanobis = bounds.gaussian_bounds(model)
            assert isinstance(bc, bounds.BerBounds) and isinstance(mahalanobis, bounds.BerBounds)
            assert bounds.bhattacharyya_coefficient_gaussian(model) <= 1.0
            assert bounds.bhattacharyya_distance_gaussian(model) >= 0.0
            for alpha in (0.3, 0.5):
                limit = 0.5 ** alpha * 0.5 ** (1 - alpha)
                assert bounds.chernoff_upper_gaussian(model, alpha) <= limit
        # unclamped, this model's distance is -1.67e-16 and its Chernoff value 0.5000000000000002
        model = GaussianModel(mean0=[0.0], mean1=[0.0], cov0=[2.0904761904761906],
                              cov1=[2.090476190476192])
        assert bounds.bhattacharyya_distance_gaussian(model) >= 0.0
        assert bounds.chernoff_upper_gaussian(model, 0.5) <= 0.5 ** 0.5 * 0.5 ** 0.5

    def test_coefficient_keeps_its_bits_below_the_clamp(self):
        rng = derive_rng(1015)
        for _ in range(50):
            model = random_gaussian_model(rng)
            p = model.prior_p
            bc = 2.0 * math.sqrt(p * (1.0 - p)) * math.exp(
                -bounds.bhattacharyya_distance_gaussian(model))
            assert bounds.bhattacharyya_coefficient_gaussian(model) == min(1.0, bc)


class TestChernoffClosedForm:
    def test_half_alpha_is_half_bc_at_equal_priors(self):
        for model in (fukunaga_d1(), fukunaga_d2()):
            half_bc = 0.5 * bounds.bhattacharyya_coefficient_gaussian(model)
            assert bounds.chernoff_upper_gaussian(model, 0.5) == pytest.approx(
                half_bc, abs=1e-4 * half_bc
            )

    def test_d1_value(self):
        # 2 * chernoff(1/2) = BC = exp(-2.56^2 / 8) = 0.440784...
        value = 2 * bounds.chernoff_upper_gaussian(fukunaga_d1(), 0.5)
        assert value == pytest.approx(math.exp(-(2.56 ** 2) / 8), abs=1e-10)
        assert value == pytest.approx(0.4408, abs=1e-4)

    def test_identical_classes(self):
        model = GaussianModel(mean0=[0.0], mean1=[0.0], cov0=[1.0], cov1=[1.0])
        for alpha in (0.2, 0.5, 0.9):
            assert bounds.chernoff_upper_gaussian(model, alpha) == pytest.approx(
                (0.5 ** alpha) * (0.5 ** (1 - alpha))
            )

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            bounds.chernoff_upper_gaussian(fukunaga_d1(), 0.0)
        with pytest.raises(ValueError, match="alpha"):
            bounds.chernoff_upper_gaussian(fukunaga_d1(), 1.0)


class TestDaBound:
    def test_identical_domains_separable_classes(self):
        report = bounds.da_bound(fake_estimate(1.0), fake_estimate(0.0))
        assert report.total == 0.0
        assert not report.vacuous

    def test_fully_shifted_domains_vacuous(self):
        report = bounds.da_bound(fake_estimate(0.5), fake_estimate(1.0))
        assert report.shift_term == 2.0
        assert report.total >= 2.0
        assert report.vacuous

    def test_decomposition_exact(self):
        report = bounds.da_bound(fake_estimate(0.3), fake_estimate(0.2), label_drift=0.07)
        assert report.total == report.source_term + report.shift_term + report.label_drift_term

    def test_shift_term_is_shift_penalty(self):
        report = bounds.da_bound(fake_estimate(0.3), fake_estimate(0.2))
        assert report.shift_term == bounds.shift_penalty(fake_estimate(0.2)) == 2.0 * math.sqrt(0.2)

    def test_supplied_source_error(self):
        report = bounds.da_bound(fake_estimate(0.3), fake_estimate(0.0), source_error=0.11)
        assert report.source_term == 0.11

    def test_supplied_source_error_outside_0_1_rejected(self):
        with pytest.raises(ValueError) as caught:
            bounds.da_bound(fake_estimate(0.3), fake_estimate(0.0), source_error=1.5)
        assert str(caught.value) == "source_error must lie in [0, 1], got 1.5"

    def test_unbalanced_pool_warns(self):
        with pytest.warns(UserWarning, match="equally sized"):
            bounds.da_bound(fake_estimate(0.5), fake_estimate(0.1, n_f=100, n_g=300))

    def test_negative_label_drift_rejected(self):
        with pytest.raises(ValueError, match="label_drift"):
            bounds.da_bound(fake_estimate(0.5), fake_estimate(0.1), label_drift=-0.1)

    def test_nan_label_drift_rejected(self):
        with pytest.raises(ValueError, match="label_drift"):
            bounds.da_bound(fake_estimate(0.5), fake_estimate(0.1), label_drift=float("nan"))

    def test_infinite_label_drift_rejected(self):
        with pytest.raises(ValueError, match="label_drift must be finite"):
            bounds.da_bound(fake_estimate(0.5), fake_estimate(0.1), label_drift=float("inf"))

    def test_holds_on_covariate_shift_scenarios(self):
        for seed in range(5):
            report, target_error = da_bound_vs_target_error(seed)
            assert report.total >= target_error


class TestOrderingSmoke:
    # 10-model spot check; the full 50-model suites run in the acceptance tests
    def test_bound_ordering_chain_on_small_suite(self):
        for q in equal_prior_suite(n_models=10, seed=905):
            for name, slack in bound_ordering_chain_slacks(q).items():
                assert slack >= -1e-9, f"{name} violated: {slack}"


class TestSeparatedClustersEndToEnd:
    def test_bounds_collapse_toward_zero(self):
        rng = derive_rng(424)
        f = rng.normal(size=(100, 2))
        g = rng.normal(size=(100, 2)) + 1e6
        b = bounds.ber_bounds_from_estimate(estimate(f, g))
        assert b.upper == pytest.approx(0.005, abs=1e-12)  # single bridge edge
        assert b.lower < b.upper
