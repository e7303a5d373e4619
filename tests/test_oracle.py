import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from dpdiv import oracle
from dpdiv.bounds import bhattacharyya_coefficient_gaussian, chernoff_upper_gaussian
from dpdiv.dataset import derive_rng, diagonal_gaussian_model
from dpdiv.experiments import fukunaga_d2
from dpdiv.oracle import (
    DensityPair,
    OracleError,
    affinity_integral,
    bayes_error,
    bc_integral,
    chernoff_integral,
    dp_tilde_integral,
    gaussian_pair,
    integrals,
    scaled_chernoff_integral,
    tv_integral,
)
from suites import random_gaussian_model


def pair_1d(sep, p=0.5, **kw):
    return gaussian_pair(
        diagonal_gaussian_model([0.0], [1.0], [sep], [1.0], prior_p=p), **kw
    )


def identical_pair(**kw):
    return gaussian_pair(
        diagonal_gaussian_model([0.0], [1.0], [0.0], [1.0]), **kw
    )


def far_separated_pair(**kw):
    # effectively disjoint supports: overlap mass below 1e-190
    return gaussian_pair(
        diagonal_gaussian_model([-15.0], [0.25], [15.0], [0.25]), **kw
    )


class TestBayesError:
    def test_unit_gaussians_gap_2_56(self):
        # the error of the midpoint threshold: Phi(-1.28)
        value = bayes_error(pair_1d(2.56))
        assert value == pytest.approx(norm.sf(1.28), abs=5e-4)
        assert value == pytest.approx(0.1000, abs=5e-4)

    def test_identical_densities(self):
        assert bayes_error(identical_pair()) == pytest.approx(0.5, abs=1e-9)

    def test_monte_carlo_matches_product_structure(self):
        # means differ only in coordinate 0, identity covariances: the other
        # coordinates factor out, so the 3-D error equals the 1-D error
        model = diagonal_gaussian_model(
            [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.7, 0.0, 0.0], [1.0, 1.0, 1.0]
        )
        value, se = integrals(gaussian_pair(model, mc_points=400_000), ["bayes_error"])[
            "bayes_error"]
        reference = bayes_error(pair_1d(1.7))
        assert se < 2e-3
        assert value == pytest.approx(reference, abs=5 * se + 1e-6)


class TestDpTildeIntegral:
    def test_identical_densities_zero(self):
        assert dp_tilde_integral(identical_pair()) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports_one(self):
        assert dp_tilde_integral(far_separated_pair()) == pytest.approx(1.0, abs=1e-9)

    def test_integrand_keeps_the_bits_of_the_masked_quotient(self):
        # the expression the integrand replaced, on points where both weighted
        # densities underflow to 0 (|x| > 35) and where they do not
        pair = far_separated_pair()
        terms = oracle._Terms(pair, np.linspace(-60.0, 60.0, 4097)[:, None])
        s = terms.a + terms.b
        assert np.any(s == 0.0) and np.any(s > 0.0)
        want = np.where(s > 0.0, (terms.a - terms.b) ** 2 / np.where(s > 0.0, s, 1.0), 0.0)
        got = oracle._integrand_table(0.5, 0.5, 0.5)["dp_tilde"](terms)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_pinned_bivariate_value(self):
        # frozen from dp_tilde_integral on the bivariate pair at separation 1;
        # 1536 and 3072 nodes per dim agree to < 1e-12
        model = diagonal_gaussian_model([0.0, 0.0], [1, 1], [1.0, 0.0], [1, 1])
        value = dp_tilde_integral(gaussian_pair(model))
        assert value == pytest.approx(0.204054265633, abs=1e-9)
        doubled = dp_tilde_integral(gaussian_pair(model, quad_nodes=3072))
        assert abs(value - doubled) < 1e-6


class TestAffinityIntegral:
    def test_identical_densities_one(self):
        assert affinity_integral(identical_pair()) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports_zero(self):
        assert affinity_integral(far_separated_pair()) == pytest.approx(0.0, abs=1e-12)

    def test_identity_with_divergence(self):
        rng = derive_rng(7001)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=int(rng.integers(1, 3)))
            pair = gaussian_pair(model, quad_nodes=512)
            p, q = model.prior_p, 1 - model.prior_p
            a = affinity_integral(pair)
            d = dp_tilde_integral(pair)
            assert d == pytest.approx(1 - 4 * p * q * a, abs=1e-6)


class TestBcIntegral:
    def test_identical_densities(self):
        assert bc_integral(identical_pair()) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports(self):
        assert bc_integral(far_separated_pair()) == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form(self):
        # separation 2.56, unit variances: BC = exp(-2.56^2/8) = 0.440784...
        value = bc_integral(pair_1d(2.56))
        assert value == pytest.approx(math.exp(-(2.56 ** 2) / 8), abs=1e-5)
        assert value == pytest.approx(0.4408, abs=1e-4)

    def test_matches_closed_form_random_models(self):
        rng = derive_rng(7002)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=2)
            quad = bc_integral(gaussian_pair(model, quad_nodes=512))
            assert quad == pytest.approx(
                bhattacharyya_coefficient_gaussian(model), abs=1e-5
            )


class TestTvIntegral:
    def test_identical_densities(self):
        assert tv_integral(identical_pair()) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports(self):
        assert tv_integral(far_separated_pair()) == pytest.approx(1.0, abs=1e-9)

    def test_bayes_error_identity(self):
        rng = derive_rng(7003)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=int(rng.integers(1, 3)))
            pair = gaussian_pair(model, quad_nodes=512)
            assert bayes_error(pair) == pytest.approx(
                0.5 - 0.5 * tv_integral(pair), abs=1e-5
            )


class TestChernoffIntegral:
    def test_identical_classes_any_alpha(self):
        pair = identical_pair()
        for alpha in (0.25, 0.5, 0.75):
            assert chernoff_integral(pair, alpha) == pytest.approx(
                (0.5 ** alpha) * (0.5 ** (1 - alpha)), abs=1e-9
            )

    def test_matches_closed_form(self):
        rng = derive_rng(7004)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=2)
            alpha = float(rng.uniform(0.15, 0.85))
            quad = chernoff_integral(gaussian_pair(model, quad_nodes=512), alpha)
            assert quad == pytest.approx(chernoff_upper_gaussian(model, alpha), abs=1e-5)

    def test_scaled_variant_consistency(self):
        # integral of f0^q f1^p equals chernoff(alpha=q) / (p^q q^p)
        model = random_gaussian_model(derive_rng(7005), dimension=1)
        pair = gaussian_pair(model)
        p, q = model.prior_p, 1 - model.prior_p
        lhs = scaled_chernoff_integral(pair)
        rhs = chernoff_integral(pair, q) / (p ** q * q ** p)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_alpha_domain(self):
        with pytest.raises(OracleError, match="alpha"):
            chernoff_integral(identical_pair(), 1.0)


WRAPPERS = {
    "bayes_error": bayes_error,
    "dp_tilde": dp_tilde_integral,
    "affinity": affinity_integral,
    "bc": bc_integral,
    "tv": tv_integral,
    "chernoff": lambda pair: chernoff_integral(pair, 0.3),
    "scaled_chernoff": scaled_chernoff_integral,
}


class TestIntegrals:
    @pytest.mark.parametrize("make_pair", [
        lambda: pair_1d(1.3, p=0.3),
        lambda: gaussian_pair(diagonal_gaussian_model([0.2, -0.1], [1.1, 0.7], [1.3, 0.6],
                                                      [0.9, 1.4], prior_p=0.6), quad_nodes=256),
        lambda: gaussian_pair(diagonal_gaussian_model([0.0] * 3, [1.0] * 3, [1.0, 0.5, 0.0],
                                                      [1.5, 1.0, 0.8], prior_p=0.45),
                              mc_points=20_000),
    ], ids=["1d", "2d_quadrature", "3d_monte_carlo"])
    def test_equals_each_wrapper_exactly(self, make_pair):
        pair = make_pair()
        together = integrals(pair, tuple(WRAPPERS), alpha=0.3)
        assert list(together) == list(WRAPPERS)
        for name, fn in WRAPPERS.items():
            assert together[name][0] == fn(pair), name

    def test_returns_only_requested_names(self):
        # affinity evaluates dp_tilde and the total mass for its identity check
        assert list(integrals(pair_1d(1.0), ["affinity"])) == ["affinity"]
        assert list(integrals(pair_1d(1.0), (n for n in ["tv", "bc"]))) == ["tv", "bc"]

    def test_unknown_name(self):
        with pytest.raises(OracleError, match="unknown integral"):
            integrals(pair_1d(1.0), ["bayes_error", "kl"])

    def test_alpha_checked_only_for_chernoff(self):
        pair = pair_1d(1.0)
        integrals(pair, ["bc"], alpha=1.0)
        with pytest.raises(OracleError, match="alpha"):
            integrals(pair, ["bc", "chernoff"], alpha=1.0)


PASS_MEMORY_MODEL = ([0.2, -0.1], [1.1, 0.7], [1.3, 0.6], [0.9, 1.4])
SIX = ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff")


def pair_2d(nodes):
    return gaussian_pair(diagonal_gaussian_model(*PASS_MEMORY_MODEL), quad_nodes=nodes)


def pair_1d_rule(nodes):
    return pair_1d(1.3, p=0.4, quad_nodes=nodes)


class TestPassMemory:
    def test_default_2d_pass_peak(self):
        # the bound from when a pass held the whole 1536^2 grid (185.2 MiB before
        # the grid was dropped early); test_blocked_pass_peak pins the blocked pass
        pair = gaussian_pair(diagonal_gaussian_model([0.2, -0.1], [1.1, 0.7], [1.3, 0.6],
                                                     [0.9, 1.4]))
        tracemalloc.start()
        try:
            integrals(pair, ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 175 * 2 ** 20

    @pytest.mark.parametrize("nodes", [None, 3072])
    def test_blocked_pass_peak(self, nodes):
        # one leaf of at most QUAD_BLOCK_POINTS points is alive at a time (about
        # 1 MiB at the default grid), so 4x the grid points stays under the same bound
        pair = pair_2d(nodes)
        tracemalloc.start()
        try:
            integrals(pair, SIX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_default_2d_pass_fits_in_cache(self):
        # leaves of at most 2^14 points, 9 216 at the default grid, 72 KiB per
        # array: 0.92 MiB measured, 3.16 MiB with leaves of at most 2^16 points.
        # A process's first pass also imports numpy.polynomial (0.7 MiB), which
        # the coarser pass pays here.
        integrals(pair_2d(512), SIX)
        pair = pair_2d(None)
        tracemalloc.start()
        try:
            integrals(pair, SIX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20

    def test_default_2d_values_keep_their_bits(self):
        # recorded from the whole-grid pass, which summed each integrand with one np.sum
        values = {name: v.hex() for name, (v, _) in integrals(pair_2d(None), SIX).items()}
        assert values == {
            "bayes_error": "0x1.010370aeb3871p-2",  # 0.25098968569080343
            "dp_tilde": "0x1.53d91df5cb952p-2",  # 0.3318829232474815
            "affinity": "0x1.561371051a34cp-1",
            "bc": "0x1.92220e1c4ce82p-1",
            "tv": "0x1.fdf91ea298f06p-2",
            "chernoff": "0x1.92220e1c4ce82p-2",
        }


def full_product(pair, nodes):
    """The whole quadrature grid and its weights, built directly as a row-major tensor product."""
    rules = [oracle._composite_leggauss(lo, hi, nodes) for lo, hi in pair.integration_box]
    if len(rules) == 1:
        (x, w), = rules
        return x[:, None], w
    (x0, w0), (x1, w1) = rules
    grid = np.stack([np.repeat(x0, x1.size), np.tile(x1, x0.size)], axis=1)
    return grid, (w0[:, None] * w1[None, :]).ravel()


class TestQuadBlocks:
    @pytest.mark.parametrize("block_points", [oracle.QUAD_BLOCK_POINTS, 1000],
                             ids=["default", "1000"])
    @pytest.mark.parametrize("make_pair", [pair_1d_rule, pair_2d], ids=["1d", "2d"])
    @pytest.mark.parametrize("nodes", [16, 100, 512, 1040])
    def test_blocks_concatenate_to_the_tensor_product(self, monkeypatch, nodes, make_pair,
                                                      block_points):
        monkeypatch.setattr(oracle, "QUAD_BLOCK_POINTS", block_points)
        pair = make_pair(nodes)
        points, weights = zip(*oracle._quad_blocks(pair))
        assert max(w.size for w in weights) <= block_points
        grid, w = full_product(pair, nodes)
        assert np.array_equal(np.concatenate(points), grid)
        assert np.array_equal(np.concatenate(weights), w)

    @pytest.mark.parametrize("make_pair,nodes", [
        (pair_2d, 100), (pair_2d, 512), (pair_2d, 1040),
        (pair_1d_rule, 8192), (pair_1d_rule, 8400)],
        ids=["2d-100", "2d-512", "2d-1040", "1d-8192", "1d-8400"])
    def test_blocked_sums_equal_one_np_sum(self, monkeypatch, make_pair, nodes):
        # adding the leaf sums up numpy's pairwise tree must give the bits of one
        # np.sum over the whole product; at 1040 and 8400 nodes a split rounds
        # its half down to a multiple of 8, and at 1040 the leaves end mid-row
        monkeypatch.setattr(oracle, "QUAD_BLOCK_POINTS", 1000)
        pair = make_pair(nodes)
        assert sum(1 for _ in oracle._quad_blocks(pair)) > 8
        table = oracle._integrand_table(pair.prior_p, 1.0 - pair.prior_p, 0.3)
        fns = list(table.values()) + list(oracle._DENSITY_MASSES)
        grid, w = full_product(pair, nodes)
        terms = oracle._Terms(pair, grid)
        expected = [float(np.sum(w * fn(terms))) for fn in fns]
        assert [v for v, _ in oracle._integrate_multi(pair, fns)] == expected


class TestQuadratureConvergence:
    def test_doubling_changes_below_1e6(self):
        model = diagonal_gaussian_model([0.2, -0.1], [1.1, 0.7], [1.3, 0.6], [0.9, 1.4])
        base = gaussian_pair(model)
        fine = gaussian_pair(model, quad_nodes=3072)
        for fn in (bayes_error, dp_tilde_integral, affinity_integral,
                   bc_integral, tv_integral):
            assert abs(fn(base) - fn(fine)) < 1e-6, fn.__name__
        assert abs(chernoff_integral(base, 0.5) - chernoff_integral(fine, 0.5)) < 1e-6

    def test_doubling_1d(self):
        base, fine = pair_1d(2.56), pair_1d(2.56, quad_nodes=8192)
        for fn in (bayes_error, tv_integral):
            assert abs(fn(base) - fn(fine)) < 1e-6, fn.__name__


class TestDensityPairValidation:
    def test_unnormalized_density_rejected(self):
        def doubled(x):
            return np.log(2.0) - 0.5 * (x[:, 0] ** 2 + np.log(2 * np.pi))

        def unit(x):
            return -0.5 * (x[:, 0] ** 2 + np.log(2 * np.pi))

        pair = DensityPair(
            log_density_0=doubled, log_density_1=unit,
            prior_p=0.5, integration_box=[[-9.0, 9.0]],
        )
        with pytest.raises(OracleError, match="integrates to"):
            integrals(pair, ["bc"])

    def test_unnormalized_density_fails_the_monte_carlo_pass(self):
        # construction checks only the structure; the pass integrates f0 and f1
        base = gaussian_pair(diagonal_gaussian_model(
            [0.0] * 3, [1.0] * 3, [1.0, 0.5, 0.0], [1.5, 1.0, 0.8], prior_p=0.45),
            mc_points=20_000)
        pair = dataclasses.replace(
            base, log_density_0=lambda x: base.log_density_0(x) + math.log(1.05))
        with pytest.raises(OracleError, match=r"density 0 integrates to 1\.02"):
            integrals(pair, ["bc"])

    def test_log_density_must_return_one_value_per_point(self):
        # an (n, 1) column would broadcast against the (n,) weights to (n, n)
        def unit(x):
            return -0.5 * (x[:, 0] ** 2 + np.log(2 * np.pi))

        pair = DensityPair(
            log_density_0=unit, log_density_1=lambda x: unit(x)[:, None],
            prior_p=0.5, integration_box=[[-9.0, 9.0]],
        )
        with pytest.raises(OracleError, match=r"log_density_1 returned shape \(4096, 1\)"):
            integrals(pair, ["bc"])

    def test_high_dimension_needs_samplers(self):
        def unit(x):
            return -0.5 * ((x ** 2).sum(axis=1) + x.shape[1] * np.log(2 * np.pi))

        with pytest.raises(OracleError, match="sample_0"):
            DensityPair(
                log_density_0=unit, log_density_1=unit,
                prior_p=0.5, integration_box=[[-9, 9]] * 3,
            )

    def test_box_must_cover_mass(self):
        def unit(x):
            return -0.5 * (x[:, 0] ** 2 + np.log(2 * np.pi))

        pair = DensityPair(
            log_density_0=unit, log_density_1=unit,
            prior_p=0.5, integration_box=[[-1.0, 1.0]],
        )
        with pytest.raises(OracleError, match="integrates to"):
            integrals(pair, ["bc"])

    def test_bad_prior_and_box(self):
        def unit(x):
            return -0.5 * (x[:, 0] ** 2 + np.log(2 * np.pi))

        with pytest.raises(OracleError, match="prior_p"):
            DensityPair(unit, unit, prior_p=1.0, integration_box=[[-9, 9]])
        with pytest.raises(OracleError, match="low < high"):
            DensityPair(unit, unit, prior_p=0.5, integration_box=[[9, -9]])

    @pytest.mark.parametrize("box, shape", [
        ([-9.0, 9.0], r"\(2,\)"),
        ([[-9.0, 9.0, 0.0]], r"\(1, 3\)"),
        (np.zeros((0, 2)), r"\(0, 2\)"),
        ([[[-9.0, 9.0]]], r"\(1, 1, 2\)"),
    ], ids=["flat", "three_columns", "no_rows", "three_axes"])
    def test_box_must_be_d_by_2(self, box, shape):
        def unit(x):
            return -0.5 * (x[:, 0] ** 2 + np.log(2 * np.pi))

        with pytest.raises(OracleError, match=r"\(d, 2\) array with d >= 1, got shape " + shape):
            DensityPair(unit, unit, prior_p=0.5, integration_box=box)

    def test_dimension_is_read_from_the_box(self):
        pair = gaussian_pair(diagonal_gaussian_model([0.0] * 3, [1.0] * 3, [1.0] * 3, [1.0] * 3))
        assert pair.dimension == 3 and pair.integration_box.shape == (3, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.dimension = 2
        with pytest.raises(TypeError, match="dimension"):
            dataclasses.replace(pair, dimension=2)
        assert pair.method == "monte_carlo" and pair_1d(1.0).method == "quadrature"
        with pytest.raises(TypeError, match="method"):
            dataclasses.replace(pair, method="quadrature")

    @pytest.mark.parametrize("points, message", [
        (19_999, "mc_points must be a multiple of 100 \\(one share per stratum\\), got 19999"),
        (2e4, "mc_points must be an integer, got 20000.0"),
        (True, "mc_points must be an integer, got True"),
        (999, "mc_points too small: 999"),
    ], ids=["not_whole_strata", "float", "bool", "too_small"])
    def test_monte_carlo_points_must_fill_whole_strata(self, points, message):
        model = diagonal_gaussian_model([0.0] * 3, [1.0] * 3, [1.0] * 3, [1.0] * 3)
        with pytest.raises(OracleError, match=f"^{message}$"):
            gaussian_pair(model, mc_points=points)

    @pytest.mark.parametrize("points", [20_000, np.int64(20_000)], ids=["int", "np_int64"])
    def test_monte_carlo_points_of_whole_strata_accepted(self, points):
        model = diagonal_gaussian_model([0.0] * 3, [1.0] * 3, [1.0] * 3, [1.0] * 3)
        assert gaussian_pair(model, mc_points=points).mc_points == 20_000

    @pytest.mark.parametrize("nodes", [0, -5, 15])
    def test_node_count_below_one_panel_rejected(self, nodes):
        with pytest.raises(OracleError, match="quad_nodes"):
            pair_1d(1.0, quad_nodes=nodes)

    @pytest.mark.parametrize("nodes", [16, None])
    def test_node_count_of_one_panel_or_default_accepted(self, nodes):
        assert pair_1d(1.0, quad_nodes=nodes).quad_nodes == nodes


class TestMonteCarloPath:
    def test_stratum_means_keep_the_bits_of_np_mean(self):
        # the pass takes each stratum mean as np.add.reduce(v) over the stratum
        # size; this is the loop it replaces, with np.mean
        pair = gaussian_pair(diagonal_gaussian_model(
            [0.0] * 3, [1.0] * 3, [1.0, 0.5, 0.0], [1.5, 1.0, 0.8], prior_p=0.45),
            mc_points=400_000)
        names = ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff",
                 "scaled_chernoff")
        table = oracle._integrand_table(pair.prior_p, 1.0 - pair.prior_p, 0.3)
        per_stratum = pair.mc_points // oracle.MC_STRATA
        means = np.empty((len(names), oracle.MC_STRATA))
        for s in range(oracle.MC_STRATA):
            rng = derive_rng(oracle.MC_ROOT_SEED, s)
            terms = oracle._Terms(pair, np.vstack([
                pair.sample_0(rng, per_stratum // 2),
                pair.sample_1(rng, per_stratum - per_stratum // 2)]))
            inv_q = np.exp(-(np.logaddexp(terms.lf0, terms.lf1) - math.log(2.0)))
            for k, name in enumerate(names):
                means[k, s] = np.mean(table[name](terms) * inv_q)
        want = {name: (float(m.mean()), float(m.std(ddof=1) / math.sqrt(oracle.MC_STRATA)))
                for name, m in zip(names, means)}
        assert 0.0 < want["dp_tilde"][0] < 1.0  # the clamp leaves it alone
        assert integrals(pair, names, alpha=0.3) == want

    def test_reports_standard_error_and_determinism(self):
        pair = gaussian_pair(fukunaga_d2(), mc_points=200_000)
        v1, se1 = integrals(pair, ["dp_tilde"])["dp_tilde"]
        v2, se2 = integrals(pair, ["dp_tilde"])["dp_tilde"]
        assert (v1, se1) == (v2, se2)
        assert 0.0 < se1 < 0.01
        assert 0.0 <= v1 <= 1.0

    def test_mc_identity_cross_check_shared_points(self):
        pair = gaussian_pair(fukunaga_d2(), mc_points=200_000)
        # raises internally if the estimator breaks the affinity identity
        affinity_integral(pair)


class TestRandomGaussianModel:
    def test_separation_window_and_validity(self):
        rng = derive_rng(7100)
        from dpdiv.bounds import bhattacharyya_distance_gaussian

        for _ in range(20):
            model = random_gaussian_model(rng)
            assert 1 <= model.d <= 4
            db = bhattacharyya_distance_gaussian(model)
            assert 0.02 <= db <= 2.5

    def test_equal_priors_flag(self):
        rng = derive_rng(7101)
        assert random_gaussian_model(rng, equal_priors=True).prior_p == 0.5
