import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from dpdiv import oracle
from dpdiv.bounds import bhattacharyya_coefficient_gaussian, chernoff_upper_gaussian
from dpdiv.dataset import GaussianModel, derive_rng
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


def pair_1d(sep, p=0.5):
    return gaussian_pair(
        GaussianModel(mean0=[0.0], mean1=[sep], cov0=[1.0], cov1=[1.0], prior_p=p)
    )


def identical_pair():
    return gaussian_pair(
        GaussianModel(mean0=[0.0], mean1=[0.0], cov0=[1.0], cov1=[1.0])
    )


def far_separated_pair():
    # effectively disjoint supports: overlap mass below 1e-190
    return gaussian_pair(
        GaussianModel(mean0=[-15.0], mean1=[15.0], cov0=[0.25], cov1=[0.25])
    )


def scale_density(monkeypatch, k, scale):
    """Multiply class k's density by scale wherever a pass reads GaussianModel.log_density."""
    true_log_density = GaussianModel.log_density

    def scaled(self, cls, x):
        values = true_log_density(self, cls, x)
        return values + math.log(scale) if cls == k else values

    monkeypatch.setattr(GaussianModel, "log_density", scaled)


def set_pass_size(monkeypatch, nodes=None, points=None):
    """Run this test's passes on nodes per dimension (d <= 2) or points samples (d > 2)."""
    if nodes is not None:
        monkeypatch.setattr(oracle, "QUAD_NODES", {1: nodes, 2: nodes})
    if points is not None:
        monkeypatch.setattr(oracle, "MC_POINTS", points)


class TestBayesError:
    def test_unit_gaussians_gap_2_56(self):
        # the error of the midpoint threshold: Phi(-1.28)
        value = bayes_error(pair_1d(2.56))
        assert value == pytest.approx(norm.sf(1.28), abs=5e-4)
        assert value == pytest.approx(0.1000, abs=5e-4)

    def test_identical_densities(self):
        assert bayes_error(identical_pair()) == pytest.approx(0.5, abs=1e-9)

    def test_monte_carlo_matches_product_structure(self, monkeypatch):
        # means differ only in coordinate 0, identity covariances: the other
        # coordinates factor out, so the 3-D error equals the 1-D error
        model = GaussianModel(mean0=[0.0, 0.0, 0.0], mean1=[1.7, 0.0, 0.0],
                              cov0=[1.0, 1.0, 1.0], cov1=[1.0, 1.0, 1.0])
        set_pass_size(monkeypatch, points=400_000)
        value, se = integrals(gaussian_pair(model), ["bayes_error"])["bayes_error"]
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

    def test_pinned_bivariate_value(self, monkeypatch):
        # frozen from dp_tilde_integral on the bivariate pair at separation 1;
        # 1536 and 3072 nodes per dim agree to < 1e-12
        model = GaussianModel(mean0=[0.0, 0.0], mean1=[1.0, 0.0], cov0=[1, 1], cov1=[1, 1])
        value = dp_tilde_integral(gaussian_pair(model))
        assert value == pytest.approx(0.204054265633, abs=1e-9)
        set_pass_size(monkeypatch, nodes=3072)
        doubled = dp_tilde_integral(gaussian_pair(model))
        assert abs(value - doubled) < 1e-6


class TestAffinityIntegral:
    def test_identical_densities_one(self):
        assert affinity_integral(identical_pair()) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports_zero(self):
        assert affinity_integral(far_separated_pair()) == pytest.approx(0.0, abs=1e-12)

    def test_identity_with_divergence(self, monkeypatch):
        set_pass_size(monkeypatch, nodes=512)
        rng = derive_rng(7001)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=int(rng.integers(1, 3)))
            pair = gaussian_pair(model)
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

    def test_matches_closed_form_random_models(self, monkeypatch):
        set_pass_size(monkeypatch, nodes=512)
        rng = derive_rng(7002)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=2)
            quad = bc_integral(gaussian_pair(model))
            assert quad == pytest.approx(
                bhattacharyya_coefficient_gaussian(model), abs=1e-5
            )


class TestTvIntegral:
    def test_identical_densities(self):
        assert tv_integral(identical_pair()) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports(self):
        assert tv_integral(far_separated_pair()) == pytest.approx(1.0, abs=1e-9)

    def test_bayes_error_identity(self, monkeypatch):
        set_pass_size(monkeypatch, nodes=512)
        rng = derive_rng(7003)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=int(rng.integers(1, 3)))
            pair = gaussian_pair(model)
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

    def test_matches_closed_form(self, monkeypatch):
        set_pass_size(monkeypatch, nodes=512)
        rng = derive_rng(7004)
        for _ in range(5):
            model = random_gaussian_model(rng, dimension=2)
            alpha = float(rng.uniform(0.15, 0.85))
            quad = chernoff_integral(gaussian_pair(model), alpha)
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
    @pytest.mark.parametrize("make_pair, pass_size", [
        (lambda: pair_1d(1.3, p=0.3), {}),
        (lambda: gaussian_pair(GaussianModel(mean0=[0.2, -0.1], mean1=[1.3, 0.6], cov0=[1.1, 0.7],
                                             cov1=[0.9, 1.4], prior_p=0.6)),
         {"nodes": 256}),
        (lambda: gaussian_pair(GaussianModel(mean0=[0.0] * 3, mean1=[1.0, 0.5, 0.0], cov0=[1.0] * 3,
                                             cov1=[1.5, 1.0, 0.8], prior_p=0.45)),
         {"points": 20_000}),
    ], ids=["1d", "2d_quadrature", "3d_monte_carlo"])
    def test_equals_each_wrapper_exactly(self, make_pair, pass_size, monkeypatch):
        set_pass_size(monkeypatch, **pass_size)
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


PASS_MEMORY_MODEL = dict(mean0=[0.2, -0.1], mean1=[1.3, 0.6], cov0=[1.1, 0.7], cov1=[0.9, 1.4])
SIX = ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff")


def pair_2d():
    return gaussian_pair(GaussianModel(**PASS_MEMORY_MODEL))


def pair_1d_rule():
    return pair_1d(1.3, p=0.4)


class TestPassMemory:
    def test_default_2d_pass_peak(self):
        # the bound from when a pass held the whole 1536^2 grid (185.2 MiB before
        # the grid was dropped early); test_blocked_pass_peak pins the blocked pass
        pair = gaussian_pair(GaussianModel(mean0=[0.2, -0.1], mean1=[1.3, 0.6], cov0=[1.1, 0.7],
                                           cov1=[0.9, 1.4]))
        tracemalloc.start()
        try:
            integrals(pair, ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 175 * 2 ** 20

    @pytest.mark.parametrize("nodes", [None, 3072])
    def test_blocked_pass_peak(self, nodes, monkeypatch):
        # one leaf of at most QUAD_BLOCK_POINTS points is alive at a time (about
        # 1 MiB at the default grid), so 4x the grid points stays under the same bound
        set_pass_size(monkeypatch, nodes=nodes)
        pair = pair_2d()
        tracemalloc.start()
        try:
            integrals(pair, SIX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20

    def test_default_2d_pass_fits_in_cache(self, monkeypatch):
        # leaves of at most 2^14 points, 9 216 at the default grid, 72 KiB per
        # array: 0.92 MiB measured, 3.16 MiB with leaves of at most 2^16 points.
        # A process's first pass also imports numpy.polynomial (0.7 MiB), which
        # the coarser pass pays here.
        with monkeypatch.context() as coarse:
            set_pass_size(coarse, nodes=512)
            integrals(pair_2d(), SIX)
        pair = pair_2d()
        tracemalloc.start()
        try:
            integrals(pair, SIX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20

    def test_default_2d_values_keep_their_bits(self):
        # recorded from the whole-grid pass, which summed each integrand with one np.sum
        values = {name: v.hex() for name, (v, _) in integrals(pair_2d(), SIX).items()}
        assert values == {
            "bayes_error": "0x1.010370aeb3871p-2",  # 0.25098968569080343
            "dp_tilde": "0x1.53d91df5cb952p-2",  # 0.3318829232474815
            "affinity": "0x1.561371051a34cp-1",
            "bc": "0x1.92220e1c4ce82p-1",
            "tv": "0x1.fdf91ea298f06p-2",
            "chernoff": "0x1.92220e1c4ce82p-2",
        }


class _CountingNumpy:
    """numpy, counting its exp calls."""

    def __init__(self):
        self.exp_calls = 0

    def exp(self, *args, **kwargs):
        self.exp_calls += 1
        return np.exp(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


class TestExponentialsPerPass:
    # a = p f0 and b = q f1 take one exp each per set of points and serve
    # bayes_error, dp_tilde, tv and both density masses
    @pytest.fixture
    def counting_np(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(oracle, "np", counting)
        return counting

    def test_one_leaf_1d_pass(self, counting_np, monkeypatch):
        set_pass_size(monkeypatch, nodes=512)
        integrals(pair_1d_rule(), ("bayes_error", "dp_tilde", "bc"))
        assert counting_np.exp_calls == 3  # a, b and bc

    def test_default_2d_pass_per_leaf(self, counting_np):
        integrals(pair_2d(), SIX)
        leaves = len(list(oracle._leaves(0, oracle.QUAD_NODES[2] ** 2)))
        assert leaves == 256
        assert counting_np.exp_calls == 5 * leaves  # a, b, affinity, bc and chernoff

    def test_4d_pass_per_stratum(self, counting_np, monkeypatch):
        set_pass_size(monkeypatch, points=20_000)
        pair = gaussian_pair(GaussianModel(
            mean0=[0.0] * 4, mean1=[1.0, 0.5, 0.0, 0.2], cov0=[1.0] * 4, cov1=[1.5, 1.0, 0.8, 1.2],
            prior_p=0.45))
        integrals(pair, SIX)
        # a, b, the mixture proposal's inverse, affinity, bc and chernoff
        assert counting_np.exp_calls == 6 * oracle.MC_STRATA


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
        set_pass_size(monkeypatch, nodes=nodes)
        pair = make_pair()
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
        set_pass_size(monkeypatch, nodes=nodes)
        pair = make_pair()
        assert sum(1 for _ in oracle._quad_blocks(pair)) > 8
        table = oracle._integrand_table(pair.model.prior_p, 1.0 - pair.model.prior_p, 0.3)
        fns = list(table.values()) + list(oracle._DENSITY_MASSES)
        grid, w = full_product(pair, nodes)
        terms = oracle._Terms(pair, grid)
        expected = [float(np.sum(w * fn(terms))) for fn in fns]
        assert [v for v, _ in oracle._integrate_multi(pair, fns)] == expected


class TestQuadratureConvergence:
    def test_doubling_changes_below_1e6(self, monkeypatch):
        pair = gaussian_pair(
            GaussianModel(mean0=[0.2, -0.1], mean1=[1.3, 0.6], cov0=[1.1, 0.7], cov1=[0.9, 1.4]))
        fns = (bayes_error, dp_tilde_integral, affinity_integral, bc_integral, tv_integral,
               functools.partial(chernoff_integral, alpha=0.5))
        base = [fn(pair) for fn in fns]
        set_pass_size(monkeypatch, nodes=3072)
        for fn, value in zip(fns, base):
            assert abs(value - fn(pair)) < 1e-6, fn

    def test_doubling_1d(self, monkeypatch):
        pair = pair_1d(2.56)
        fns = (bayes_error, tv_integral)
        base = [fn(pair) for fn in fns]
        set_pass_size(monkeypatch, nodes=8192)
        for fn, value in zip(fns, base):
            assert abs(value - fn(pair)) < 1e-6, fn.__name__


class TestDensityPairValidation:
    def test_unnormalized_density_rejected(self, monkeypatch):
        scale_density(monkeypatch, 0, 2.0)
        with pytest.raises(OracleError, match="integrates to"):
            integrals(identical_pair(), ["bc"])

    def test_unnormalized_density_fails_the_monte_carlo_pass(self, monkeypatch):
        # the pass integrates f0 and f1 on the model's own samples
        set_pass_size(monkeypatch, points=20_000)
        pair = gaussian_pair(GaussianModel(
            mean0=[0.0] * 3, mean1=[1.0, 0.5, 0.0], cov0=[1.0] * 3, cov1=[1.5, 1.0, 0.8],
            prior_p=0.45))
        scale_density(monkeypatch, 0, 1.05)
        with pytest.raises(OracleError, match=r"density 0 integrates to 1\.02.*"
                                              r"the Monte Carlo sample does not resolve this model$"):
            integrals(pair, ["bc"])

    @pytest.mark.parametrize("k, scale, message", [
        (1, 1.05, r"density 1 integrates to 1\.05000000 over the box"),
        (0, 1.0 + 5e-7, None),
        (0, 1.0 + 2e-6, r"density 0 integrates to 1\.00000200 over the box"),
    ], ids=["f1_scaled_by_1.05", "off_by_5e-7", "off_by_2e-6"])
    def test_mass_is_each_weighted_density_over_its_prior(self, k, scale, message, monkeypatch):
        # the pass integrates p f0 and q f1 (p = 0.3) and divides each by its prior
        pair = pair_1d(0.0, p=0.3)
        scale_density(monkeypatch, k, scale)
        if message is None:
            integrals(pair, ["bc"])
        else:
            with pytest.raises(OracleError, match=message + r" \(\|mass-1\| > 1e-06\); "
                               r"the quadrature grid does not resolve this model$"):
                integrals(pair, ["bc"])

    def test_tiny_prior_passes_the_mass_check(self):
        # p f0 is 1e-300 times f0, subnormal in the tails; dividing its
        # integral by p still gives a mass within 1e-6 of 1
        values = integrals(pair_1d(1.0, p=1e-300), SIX)
        assert 0.0 < values["bayes_error"][0] <= 1e-300
        assert values["dp_tilde"][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", [
        GaussianModel(mean0=[0.3], mean1=[-1.7], cov0=[0.49], cov1=[2.0]),
        GaussianModel(mean0=[0.2, -0.1], mean1=[1.3, 0.6], cov0=[[1.1, 0.6], [0.6, 0.7]],
                      cov1=[[0.9, -0.3], [-0.3, 1.4]]),
        GaussianModel(mean0=[0.0, 1e-3, -2.5, 7.0], mean1=[1.0, 0.5, 0.0, 0.2],
                      cov0=[1.0, 3.0, 0.1, 1e-4], cov1=[1.5, 1.0, 0.8, 1.2]),
    ], ids=["1d", "2d_correlated", "4d"])
    def test_box_is_each_mean_plus_minus_8_sigma(self, model):
        sigma = [[8.0 * math.sqrt(cov[i, i]) for i in range(model.d)]
                 for cov in (model.cov0, model.cov1)]
        want = np.array([[min(model.mean0[i] - sigma[0][i], model.mean1[i] - sigma[1][i]),
                          max(model.mean0[i] + sigma[0][i], model.mean1[i] + sigma[1][i])]
                         for i in range(model.d)])
        box = gaussian_pair(model).integration_box
        assert box.dtype == np.float64 and box.shape == (model.d, 2)
        assert box.tobytes() == want.tobytes()
        assert not box.flags.writeable

    def test_dimension_is_read_from_the_box(self):
        # the pair's dimension, box and method all follow its model
        pair = gaussian_pair(GaussianModel(mean0=[0.0] * 3, mean1=[1.0] * 3, cov0=[1.0] * 3,
                                           cov1=[1.0] * 3))
        assert pair.dimension == 3 and pair.integration_box.shape == (3, 2)
        assert [(f.name, f.init) for f in dataclasses.fields(DensityPair)] == [
            ("model", True), ("integration_box", False)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.dimension = 2
        with pytest.raises(TypeError, match="dimension"):
            dataclasses.replace(pair, dimension=2)
        with pytest.raises(ValueError, match="integration_box is declared with init=False"):
            dataclasses.replace(pair, integration_box=np.zeros((3, 2)))
        assert pair.method == "monte_carlo" and pair_1d(1.0).method == "quadrature"
        with pytest.raises(TypeError, match="method"):
            dataclasses.replace(pair, method="quadrature")


class TestPassSize:
    def test_shipped_sizes(self):
        assert oracle.QUAD_NODES == {1: 4096, 2: 1536}
        assert oracle.MC_POINTS == 1_000_000
        # every stratum draws an equal share
        assert oracle.MC_POINTS % oracle.MC_STRATA == 0

    @pytest.mark.parametrize("d, pass_size, rows", [
        (1, {"nodes": 512}, 512),
        (2, {"nodes": 160}, 160 ** 2),
        (3, {"points": 20_000}, 20_000),
    ], ids=["1d", "2d", "3d"])
    def test_patched_size_reaches_the_pass(self, d, pass_size, rows, monkeypatch):
        set_pass_size(monkeypatch, **pass_size)
        pair = gaussian_pair(GaussianModel(mean0=[0.0] * d, mean1=[1.0] * d, cov0=[1.0] * d,
                                           cov1=[1.0] * d))
        seen = [0, 0]
        true_log_density = GaussianModel.log_density

        def counted(self, cls, x):
            seen[cls] += x.shape[0]
            return true_log_density(self, cls, x)

        monkeypatch.setattr(GaussianModel, "log_density", counted)
        integrals(pair, SIX)
        assert seen == [rows, rows]


class TestMonteCarloPath:
    def test_stratum_means_keep_the_bits_of_np_mean(self, monkeypatch):
        # the pass takes each stratum mean as np.add.reduce(v) over the stratum
        # size; this is the loop it replaces, with np.mean
        set_pass_size(monkeypatch, points=400_000)
        pair = gaussian_pair(GaussianModel(
            mean0=[0.0] * 3, mean1=[1.0, 0.5, 0.0], cov0=[1.0] * 3, cov1=[1.5, 1.0, 0.8],
            prior_p=0.45))
        names = ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff",
                 "scaled_chernoff")
        table = oracle._integrand_table(pair.model.prior_p, 1.0 - pair.model.prior_p, 0.3)
        per_stratum = oracle.MC_POINTS // oracle.MC_STRATA
        means = np.empty((len(names), oracle.MC_STRATA))
        for s in range(oracle.MC_STRATA):
            rng = derive_rng(oracle.MC_ROOT_SEED, s)
            terms = oracle._Terms(pair, np.vstack([
                pair.model.sample(0, rng, per_stratum // 2),
                pair.model.sample(1, rng, per_stratum - per_stratum // 2)]))
            inv_q = np.exp(-(np.logaddexp(terms.lf0, terms.lf1) - math.log(2.0)))
            for k, name in enumerate(names):
                means[k, s] = np.mean(table[name](terms) * inv_q)
        want = {name: (float(m.mean()), float(m.std(ddof=1) / math.sqrt(oracle.MC_STRATA)))
                for name, m in zip(names, means)}
        assert 0.0 < want["dp_tilde"][0] < 1.0  # the clamp leaves it alone
        assert integrals(pair, names, alpha=0.3) == want

    def test_reports_standard_error_and_determinism(self, monkeypatch):
        set_pass_size(monkeypatch, points=200_000)
        pair = gaussian_pair(fukunaga_d2())
        v1, se1 = integrals(pair, ["dp_tilde"])["dp_tilde"]
        v2, se2 = integrals(pair, ["dp_tilde"])["dp_tilde"]
        assert (v1, se1) == (v2, se2)
        assert 0.0 < se1 < 0.01
        assert 0.0 <= v1 <= 1.0

    def test_mc_identity_cross_check_shared_points(self, monkeypatch):
        set_pass_size(monkeypatch, points=200_000)
        pair = gaussian_pair(fukunaga_d2())
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
