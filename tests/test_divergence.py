import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import kruskal_cross_count
from dpdiv.dataset import LabeledSample, derive_rng, diagonal_gaussian_model, sample_gaussian
from dpdiv.divergence import estimate, estimate_from_labeled, fr_statistic

# Reference divergence for unit-variance Gaussians two apart, from the
# integration oracle: dp_tilde_integral(gaussian_pair(diagonal_gaussian_model(
# [0],[1],[2],[1]))) = 0.550400490793327 (4096 and 8192 nodes agree < 1e-12).
DP_TILDE_SEP_2 = 0.550400490793327


def separated_clusters(n=100, d=3, gap=1e6):
    rng = derive_rng(314)
    f = rng.normal(size=(n, d))
    g = rng.normal(size=(n, d)) + gap
    return f, g


class TestFrStatistic:
    def test_two_points(self):
        assert fr_statistic(np.array([[0.0]]), np.array([[1.0]])) == 1

    def test_separated_clusters_single_bridge(self):
        f, g = separated_clusters()
        assert fr_statistic(f, g) == 1

    def test_matches_brute_force_on_overlapping_gaussians(self):
        rng = derive_rng(2718)
        f = rng.normal(size=(100, 2))
        g = rng.normal(size=(100, 2))
        assert fr_statistic(f, g) == kruskal_cross_count(f, g)

    def test_pools_are_gathered_as_the_trees_reach_them(self):
        # 40 one-column pools of 2400 rows: a list of them built up front holds
        # 40 pools' bytes at once, while one tree's work needs about 14
        rng = derive_rng(2719)
        f, g = rng.normal(size=(1200, 40)), rng.normal(size=(1200, 40)) + 0.3
        triples = [(f, g, [c]) for c in range(40)]
        pool_bytes = 2400 * 8
        tracemalloc.start()
        try:
            counts = fr_statistic(triples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * pool_bytes
        assert counts.tolist() == [fr_statistic(f[:, [c]], g[:, [c]]) for c in range(40)]

    def test_errors(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fr_statistic(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-empty"):
            fr_statistic(np.zeros((0, 2)), np.zeros((3, 2)))


class TestEstimate:
    def test_separated_clusters_values(self):
        f, g = separated_clusters(n=100)
        est = estimate(f, g)
        assert est.cross_count == 1
        assert est.dp_tilde == 1 - 2 / 200
        assert est.p_hat == 0.5
        assert est.affinity == 1 - est.dp

    def test_same_distribution_mixes(self):
        hits = 0
        for seed in range(50):
            rng = derive_rng(31, seed)
            f = rng.normal(size=(1000, 2))
            g = rng.normal(size=(1000, 2))
            if estimate(f, g).dp_tilde <= 0.1:
                hits += 1
        assert hits >= 48

    def test_diagonal_separation_two_matches_oracle(self):
        c = np.sqrt(2) / 2
        errors = []
        for seed in range(5):
            rng = derive_rng(41, seed)
            f = rng.normal(size=(1000, 2)) + [-c, -c]
            g = rng.normal(size=(1000, 2)) + [c, c]
            errors.append(abs(estimate(f, g).dp_tilde - DP_TILDE_SEP_2))
        assert max(errors) <= 0.1

    def test_symmetry(self):
        rng = derive_rng(55)
        f = rng.normal(size=(40, 2))
        g = rng.normal(size=(60, 2)) + 0.5
        fg, gf = estimate(f, g), estimate(g, f)
        assert fg.cross_count == gf.cross_count
        assert fg.dp == pytest.approx(gf.dp, abs=1e-15)
        assert fg.p_hat == pytest.approx(1 - gf.p_hat, abs=1e-15)

    def test_clamping_and_range(self):
        rng = derive_rng(66)
        saw_negative_raw = False
        for seed in range(40):
            rng = derive_rng(66, seed)
            f = rng.normal(size=(12, 2))
            g = rng.normal(size=(12, 2))
            est = estimate(f, g)
            saw_negative_raw |= est.dp_tilde_raw < 0
            assert 0.0 <= est.dp_tilde <= 1.0
            assert 0.0 <= est.dp <= 1.0
            assert 0.0 <= est.affinity <= 1.0
            assert 1 <= est.cross_count <= est.n_f + est.n_g - 1
        assert saw_negative_raw, "small overlapping samples should produce raw < 0"

    def test_scale_invariance(self):
        rng = derive_rng(77)
        f = rng.normal(size=(80, 3))
        g = rng.normal(size=(80, 3)) + 0.3
        base = estimate(f, g).cross_count
        for c in (2.0, 0.25, 1024.0):
            assert estimate(c * f, c * g).cross_count == base


class TestEstimateFromLabeled:
    def test_matches_manual_split(self):
        sample = sample_gaussian(
            diagonal_gaussian_model([0.0, 0.0], [1, 1], [1.0, 0.0], [1, 1]), 30, 50, seed=8
        )
        est = estimate_from_labeled(sample)
        manual = estimate(*sample.split_classes())
        assert est == manual

    def test_two_point_sample(self):
        sample = LabeledSample(points=[[0.0], [1.0]], labels=[0, 1])
        est = estimate_from_labeled(sample)
        assert est.cross_count == 1
        assert est.dp_tilde == 0.0

    def test_single_class_errors(self):
        sample = LabeledSample(points=[[0.0], [1.0]], labels=[1, 1])
        with pytest.raises(ValueError, match="label 0"):
            estimate_from_labeled(sample)


@st.composite
def normal_samples(draw):
    """Two tie-free normal samples: d 1-5, 2-49 rows each, means up to 3 apart."""
    rng = derive_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    f = rng.normal(size=(draw(st.integers(2, 49)), d))
    g = rng.normal(size=(draw(st.integers(2, 49)), d)) + draw(st.floats(0.0, 3.0))
    return f, g


# Continuous data has no distance ties, so the tree is unique and C is a
# function of the two point sets alone.
_PROPERTY = settings(derandomize=True, deadline=None)


class TestInvariancesWithoutTies:
    @_PROPERTY
    @given(normal_samples())
    def test_swapping_samples(self, samples):
        f, g = samples
        forward, backward = estimate(f, g), estimate(g, f)
        assert backward.cross_count == forward.cross_count
        assert backward.p_hat == pytest.approx(1.0 - forward.p_hat, abs=1e-15)

    @_PROPERTY
    @given(normal_samples(), st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5))
    def test_translation(self, samples, offset):
        f, g = samples
        t = np.asarray(offset[:f.shape[1]])
        assert estimate(f + t, g + t).cross_count == estimate(f, g).cross_count

    @_PROPERTY
    @given(normal_samples(), st.integers(-20, 20))
    def test_power_of_two_scaling(self, samples, k):
        f, g = samples
        s = 2.0 ** k
        assert estimate(f * s, g * s).cross_count == estimate(f, g).cross_count

    @_PROPERTY
    @given(normal_samples(), st.data())
    def test_row_permutation_within_each_sample(self, samples, data):
        f, g = samples
        pf = data.draw(st.permutations(range(f.shape[0])))
        pg = data.draw(st.permutations(range(g.shape[0])))
        assert estimate(f[pf], g[pg]).cross_count == estimate(f, g).cross_count
