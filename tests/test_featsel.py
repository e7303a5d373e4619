import math

import numpy as np
import pytest

from dpdiv import divergence
from dpdiv.dataset import derive_rng
from dpdiv.divergence import fr_statistic
from dpdiv.featsel import SelectionTrace, criterion_phi, forward_select
from suites import informative_plus_noise, shifted_vs_invariant


class TestCriterionPhi:
    def test_separated_feature_gives_single_bridge(self):
        rng = derive_rng(3303)
        n = 150
        x0 = rng.normal(size=(n, 2))
        x1 = rng.normal(size=(n, 2))
        x1[:, 0] += 1e6
        assert criterion_phi(x0, x1, None, (0,)) == 1 / (2 * n)

    def test_zero_weight_reduces_to_source_ratio(self):
        rng = derive_rng(3304)
        x0 = rng.normal(size=(60, 3))
        x1 = rng.normal(size=(60, 3)) + 0.5
        target = rng.normal(size=(80, 3))
        base = criterion_phi(x0, x1, None, (0, 2))
        assert criterion_phi(x0, x1, target, (0, 2), shift_weight=0.0) == base

    def test_identical_domains_add_little(self):
        source0, source1, _ = shifted_vs_invariant(0)
        rng = derive_rng(3305)
        target = np.vstack([
            np.stack([rng.normal(-2, 1, 500), rng.normal(-1, 1, 500)], axis=1),
            np.stack([rng.normal(2, 1, 500), rng.normal(1, 1, 500)], axis=1),
        ])
        plain = criterion_phi(source0, source1, None, (0,))
        shifted = criterion_phi(source0, source1, target, (0,), shift_weight=1.0)
        # clamped near-zero shift argument: the penalty stays small compared
        # with a real domain shift (which contributes close to 2)
        assert shifted - plain < 0.5

    def test_shifted_feature_penalized(self):
        source0, source1, target = shifted_vs_invariant(1)
        phi_shifted = criterion_phi(source0, source1, target, (0,), shift_weight=1.0)
        phi_invariant = criterion_phi(source0, source1, target, (1,), shift_weight=1.0)
        assert phi_invariant < phi_shifted
        # without the penalty, the strong separator wins
        assert criterion_phi(source0, source1, None, (0,)) < criterion_phi(
            source0, source1, None, (1,)
        )

    def test_equals_cross_ratio_plus_weighted_shift_term(self):
        from dpdiv.divergence import fr_statistic

        rng = derive_rng(3306)
        x0, x1 = rng.normal(size=(50, 3)), rng.normal(size=(40, 3)) + 0.4
        target = rng.normal(size=(70, 3)) + 0.8
        merged = np.vstack([x0, x1])[:, [0, 2]]
        c = fr_statistic(merged, target[:, [0, 2]])
        arg = 1.0 - 2.0 * c / (merged.shape[0] + target.shape[0])
        want = fr_statistic(x0[:, [0, 2]], x1[:, [0, 2]]) / 90
        want += 0.7 * 2.0 * math.sqrt(min(1.0, max(0.0, arg)))
        assert criterion_phi(x0, x1, target, (0, 2), shift_weight=0.7) == want

    def test_errors(self):
        x = np.zeros((10, 2))
        y = np.ones((10, 2))
        with pytest.raises(ValueError, match="non-empty"):
            criterion_phi(x, y, None, ())
        with pytest.raises(ValueError, match="requires a target"):
            criterion_phi(x, y, None, (0,), shift_weight=1.0)
        with pytest.raises(ValueError, match="shift_weight"):
            criterion_phi(x, y, None, (0,), shift_weight=-0.5)

    @pytest.mark.parametrize("source1, target, message", [
        (np.ones((10, 3)), None, "dimension mismatch: 2 vs 3"),
        (np.ones((10, 2)), np.ones((10, 3)), "dimension mismatch: 2 vs 3"),
    ], ids=["source_columns", "target_columns"])
    def test_column_counts_must_agree(self, source1, target, message):
        with pytest.raises(ValueError) as caught:
            criterion_phi(np.zeros((10, 2)), source1, target, (0,), shift_weight=1.0)
        assert str(caught.value) == message

    @pytest.mark.parametrize("features, message", [
        ([-1], r"feature -1 is not a column index in \[0, 3\)"),
        ([3], r"feature 3 is not a column index in \[0, 3\)"),
        ([1.7], r"feature 1.7 is not a column index"),
        ([1.0], r"feature 1.0 is not a column index"),
        ([True], r"feature True is not a column index"),
        (np.array([True]), r"feature (np\.)?True_? is not a column index"),
        (["1"], r"feature '1' is not a column index"),
        ([0, 2, 0], r"feature 0 is repeated"),
    ], ids=["negative", "past_the_end", "fraction", "float", "bool", "numpy_bool", "str",
            "repeated"])
    def test_bad_feature_index_rejected(self, features, message, monkeypatch):
        x = np.zeros((10, 3))
        with pytest.raises(ValueError, match=f"^{message}"):
            criterion_phi(x, x + 1.0, None, features)

        def no_tree(pools):
            raise AssertionError("a tree was built before every triple was checked")

        # the same rule on fr_statistic's triples, all checked before any tree is built
        monkeypatch.setattr(divergence, "build_msts", no_tree)
        with pytest.raises(ValueError, match=f"^{message}"):
            fr_statistic([(x, x + 1.0, [0]), (x, x + 1.0, features)])

    def test_numpy_integer_features_accepted(self):
        x0, x1 = informative_plus_noise(4, n=30, noise_features=2)
        assert criterion_phi(x0, x1, None, np.array([2, 0])) == criterion_phi(x0, x1, None, [2, 0])

    def test_nan_shift_weight_rejected(self):
        x = np.zeros((10, 2))
        y = np.ones((10, 2))
        for target in (None, y):
            with pytest.raises(ValueError, match="shift_weight"):
                criterion_phi(x, y, target, (0,), shift_weight=float("nan"))

    def test_infinite_shift_weight_rejected(self):
        x = np.zeros((10, 2))
        y = np.ones((10, 2))
        for target in (None, y):
            with pytest.raises(ValueError, match="shift_weight must be finite"):
                criterion_phi(x, y, target, (0,), shift_weight=float("inf"))


class TestForwardSelect:
    def test_exhaustive_selection_is_permutation(self):
        x0, x1 = informative_plus_noise(0, n=60, noise_features=3)
        trace = forward_select(x0, x1, k=4)
        assert sorted(trace.selected) == [0, 1, 2, 3]
        assert len(trace.criterion_values) == 4

    def test_informative_feature_first(self):
        hits = 0
        for seed in range(5):
            x0, x1 = informative_plus_noise(seed)
            trace = forward_select(x0, x1, k=1)
            hits += trace.selected[0] == 0
        assert hits == 5

    def test_default_k(self):
        x0, x1 = informative_plus_noise(0, n=40, noise_features=3)
        assert len(forward_select(x0, x1).selected) == 4  # min(20, d)

    def test_invariant_feature_under_shift_penalty(self):
        source0, source1, target = shifted_vs_invariant(2)
        with_penalty = forward_select(source0, source1, target, k=1, shift_weight=1.0)
        without = forward_select(source0, source1, k=1)
        assert with_penalty.selected[0] == 1
        assert without.selected[0] == 0

    def test_greedy_consistency_with_audit(self):
        x0, x1 = informative_plus_noise(3, n=80, noise_features=4)
        trace = forward_select(x0, x1, k=3, audit=True)
        assert trace.per_step_candidates is not None
        for chosen_value, candidates in zip(trace.criterion_values,
                                            trace.per_step_candidates):
            assert chosen_value <= min(candidates.values()) + 1e-15

    def test_determinism(self):
        x0, x1 = informative_plus_noise(4, n=80, noise_features=4)
        a = forward_select(x0, x1, k=3, audit=True)
        b = forward_select(x0, x1, k=3, audit=True)
        assert a == b

    def test_tie_breaks_to_smallest_index(self):
        rng = derive_rng(3306)
        col = rng.normal(size=(40, 1))
        x0 = np.hstack([col, col, col])
        col1 = rng.normal(size=(40, 1)) + 1.0
        x1 = np.hstack([col1, col1, col1])
        trace = forward_select(x0, x1, k=3, audit=True)
        # identical columns produce identical criteria: ties resolve in index order
        assert trace.selected == (0, 1, 2)
        for step in trace.per_step_candidates:
            assert len(set(round(v, 15) for v in step.values())) == 1

    def test_global_rescale_invariance(self):
        x0, x1 = informative_plus_noise(5, n=100, noise_features=4)
        base = forward_select(x0, x1, k=3)
        for c in (2.0, 0.25):
            scaled = forward_select(c * x0, c * x1, k=3)
            assert scaled.selected == base.selected

    def test_standardize_pre_pass_runs(self):
        x0, x1 = informative_plus_noise(6, n=80, noise_features=2)
        trace = forward_select(x0, x1, k=2, standardize=True)
        assert len(trace.selected) == 2

    def test_standardized_selection_ignores_per_domain_affine_maps(self):
        # the source's per-column map is shared by both classes, the target's is its own
        s0, s1, t = shifted_vs_invariant(0, n=150)
        rng = derive_rng(3310)
        s0, s1, t = (np.hstack([x, rng.normal(size=(x.shape[0], 2))]) for x in (s0, s1, t))
        sa, sb = np.array([0.01, 40.0, 3.0, 0.5]), np.array([5.0, -300.0, 0.25, 7.0])
        ta, tb = np.array([25.0, 0.02, 0.7, 9.0]), np.array([-8.0, 1.5, 60.0, -0.1])

        def select(standardize, s0, s1, t):
            return forward_select(s0, s1, target=t, k=3, shift_weight=1.0, audit=True,
                                  standardize=standardize)

        for standardize in (True, False):
            base = select(standardize, s0, s1, t)
            mapped = select(standardize, sa * s0 + sb, sa * s1 + sb, ta * t + tb)
            assert (base == mapped) is standardize

    def test_errors(self):
        x0, x1 = informative_plus_noise(0, n=40, noise_features=2)
        with pytest.raises(ValueError, match=r"k must lie"):
            forward_select(x0, x1, k=4)
        with pytest.raises(ValueError, match="requires a target"):
            forward_select(x0, x1, k=1, shift_weight=1.0)

    def test_one_row_class_selects_as_criterion_phi_scores(self):
        # the pool rule is fr_statistic's: a one-row class is a valid pool, as in criterion_phi
        x0, x1 = np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [2.0, 2.0]])
        trace = forward_select(x0, x1, k=1)
        assert trace.selected == (0,)
        assert trace.criterion_values[0] == criterion_phi(x0, x1, None, [0]) == 1 / 3

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="duplicates"):
            SelectionTrace(selected=(1, 1), criterion_values=(0.1, 0.2),
                           per_step_candidates=None, shift_weight=0.0)
        with pytest.raises(ValueError, match="equal length"):
            SelectionTrace(selected=(1,), criterion_values=(0.1, 0.2),
                           per_step_candidates=None, shift_weight=0.0)
