import numpy as np
import pytest

from dpdiv.dataset import derive_rng, diagonal_gaussian_model, sample_gaussian
from dpdiv.divergence import estimate_from_labeled
from dpdiv.experiments import (
    McSummary,
    fukunaga_d1,
    fukunaga_d2,
    fukunaga_d2_as_sampled,
    run_consistency,
    run_fukunaga,
    run_sweep,
)

CONSISTENCY_MODEL = diagonal_gaussian_model(
    [-np.sqrt(2) / 2, -np.sqrt(2) / 2], [1.0, 1.0],
    [np.sqrt(2) / 2, np.sqrt(2) / 2], [1.0, 1.0],
)


class TestBenchmarkModels:
    def test_d1_parameters(self):
        model = fukunaga_d1()
        assert model.d == 8
        assert model.mean1[0] == 2.56
        np.testing.assert_array_equal(model.cov0, np.eye(8))
        np.testing.assert_array_equal(model.cov1, np.eye(8))

    def test_d2_parameters(self):
        model = fukunaga_d2()
        np.testing.assert_array_equal(
            np.diag(model.cov1), [8.41, 12.06, 0.12, 0.22, 1.49, 1.77, 0.35, 2.73]
        )
        assert model.mean1[0] == 3.86

    def test_d2_sampling_variant_squares_the_spread(self):
        variance_model = fukunaga_d2()
        sampled_model = fukunaga_d2_as_sampled()
        np.testing.assert_allclose(
            np.diag(sampled_model.cov1), np.diag(variance_model.cov1) ** 2
        )
        np.testing.assert_array_equal(sampled_model.mean1, variance_model.mean1)


class TestMcSummary:
    def test_recomputable(self):
        rng = derive_rng(5501)
        values = rng.uniform(size=37)
        s = McSummary.from_values(values)
        assert s.mean == pytest.approx(np.mean(values), abs=1e-12)
        assert s.std == pytest.approx(np.std(values, ddof=1), abs=1e-12)
        assert s.n_trials == 37

    def test_single_value(self):
        s = McSummary.from_values([0.25])
        assert s.mean == 0.25 and s.std == 0.0


@pytest.fixture(scope="module")
def small():
    return run_sweep(n_steps=6, n_per_class=100, n_trials=3, seed=11)


class TestRunSweep:
    def test_grid_spans_zero_to_five(self, small):
        assert small[0].separation == 0.0 and small[-1].separation == 5.0
        assert len(small) == 6

    def test_zero_separation_row(self, small):
        row = small[0]
        assert row.ber_true == pytest.approx(0.5, abs=1e-9)
        assert row.dp_upper_analytic == pytest.approx(0.5, abs=1e-9)
        assert row.dp_lower_analytic == pytest.approx(0.5, abs=1e-9)
        assert row.bc_upper == pytest.approx(0.5, abs=1e-9)

    def test_true_error_non_increasing(self, small):
        errs = [r.ber_true for r in small]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_analytic_bounds_bracket_truth(self, small):
        for row in small:
            assert row.dp_lower_analytic <= row.ber_true + 1e-7
            assert row.ber_true <= row.dp_upper_analytic + 1e-7
            assert row.bc_lower <= row.ber_true + 1e-7
            assert row.ber_true <= row.bc_upper + 1e-7

    def test_divergence_bounds_inside_bc_bounds(self, small):
        for row in small:
            assert row.dp_upper_analytic <= row.bc_upper + 1e-7
            assert row.dp_lower_analytic >= row.bc_lower - 1e-7

    def test_deterministic(self, small):
        again = run_sweep(n_steps=6, n_per_class=100, n_trials=3, seed=11)
        assert again == small

    def test_rejects_single_step(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_sweep(n_steps=1, n_per_class=10, n_trials=1, seed=0)


class TestRunFukunaga:
    def test_small_run_lands_in_loose_band(self):
        summary = run_fukunaga("D1", 100, 8, seed=21)
        assert 0.10 <= summary.mean <= 0.30
        assert summary.n_trials == 8

    def test_deterministic(self):
        a = run_fukunaga("D2", 50, 4, seed=5)
        b = run_fukunaga("D2", 50, 4, seed=5)
        assert a == b

    @pytest.mark.parametrize("n_trials", [0, -3])
    def test_rejects_non_positive_trials(self, n_trials):
        with pytest.raises(ValueError, match=f"got {n_trials}"):
            run_fukunaga("D1", 100, n_trials, seed=0)

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            run_fukunaga("D3", 100, 5, seed=0)


class TestRunConsistency:
    def test_errors_shrink_with_sample_size(self):
        summaries = run_consistency(CONSISTENCY_MODEL, (50, 800), 8, seed=31)
        assert summaries[1].mean < summaries[0].mean

    def test_identical_class_model_raw_estimates_center_on_zero(self):
        model = diagonal_gaussian_model([0.0, 0.0], [1, 1], [0.0, 0.0], [1, 1])
        raws = []
        for trial in range(20):
            sample = sample_gaussian(model, 500, 500, (41, trial))
            raws.append(estimate_from_labeled(sample).dp_tilde_raw)
        raws = np.asarray(raws)
        assert abs(raws.mean()) <= 3 * raws.std(ddof=1) / np.sqrt(len(raws))

    def test_deterministic(self):
        a = run_consistency(CONSISTENCY_MODEL, (50, 100), 4, seed=51)
        b = run_consistency(CONSISTENCY_MODEL, (50, 100), 4, seed=51)
        assert a == b

    def test_rejects_zero_trials_before_the_oracle(self, monkeypatch):
        from dpdiv import oracle

        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran before the trial count was checked")

        monkeypatch.setattr(oracle, "gaussian_pair", no_oracle)
        with pytest.raises(ValueError, match="got 0"):
            run_consistency(CONSISTENCY_MODEL, (50,), 0, seed=0)

    @pytest.mark.parametrize("sizes", [(), (0,), (0, 50), (-5,)])
    def test_rejects_empty_or_non_positive_sizes_before_the_oracle(self, sizes, monkeypatch):
        from dpdiv import oracle

        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran before the sizes were checked")

        monkeypatch.setattr(oracle, "gaussian_pair", no_oracle)
        with pytest.raises(ValueError, match="sizes"):
            run_consistency(CONSISTENCY_MODEL, sizes, 2, seed=0)

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError, match="ascending"):
            run_consistency(CONSISTENCY_MODEL, (400, 100), 2, seed=0)

    def test_rejects_a_prior_other_than_one_half_before_the_oracle(self, monkeypatch):
        # n rows per class estimate the divergence at prior 1/2, not at the model's prior
        from dpdiv import oracle

        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle ran before the prior was checked")

        monkeypatch.setattr(oracle, "gaussian_pair", no_oracle)
        model = diagonal_gaussian_model([0.0, 0.0], [1, 1], [1.5, 0.0], [1, 1], prior_p=0.2)
        with pytest.raises(ValueError, match=r"^prior_p must be 0\.5, got 0\.2: "):
            run_consistency(model, (100,), 2, seed=0)
