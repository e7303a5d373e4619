import dataclasses
import math
import os
import re
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpdiv.dataset import (
    DatasetError,
    GaussianModel,
    LabeledSample,
    derive_rng,
    load_csv,
    load_points_csv,
    sample_gaussian,
    save_csv,
)
from dpdiv.experiments import fukunaga_d1


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@st.composite
def named_samples(draw):
    """A LabeledSample with 1-4 distinct feature names drawn from letters, digits,
    spaces, commas, double quotes and line breaks, and 2-5 rows with both labels."""
    names = draw(st.lists(st.text(alphabet='aZ09 ,"\n\r', max_size=4), min_size=1, max_size=4,
                          unique=True))
    n = draw(st.integers(2, 5))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n * len(names), max_size=n * len(names)))
    labels = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    return LabeledSample(points=np.reshape(cells, (n, len(names))), labels=labels,
                         feature_names=names)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "ok.csv", "x,y,label\n0,1,0\n1,0,0\n2,3,1\n3,2,1\n")
        sample = load_csv(path)
        assert sample.points.shape == (4, 2) and sample.d == 2
        assert sample.feature_names == ("x", "y")
        assert list(sample.labels) == [0, 0, 1, 1]
        np.testing.assert_array_equal(sample.points[0], [0.0, 1.0])

    def test_label_out_of_range_names_row(self, tmp_path):
        path = write(tmp_path, "bad.csv", "x,label\n0,0\n1,2\n")
        with pytest.raises(DatasetError, match=r":3:.*label '2'"):
            load_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "bad.csv", "x,y,label\n0,oops,1\n")
        with pytest.raises(DatasetError, match=r":2:.*'oops'.*'y'"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "ragged.csv", "x,y,label\n0,1,0\n1,1\n")
        with pytest.raises(DatasetError, match=r":3: ragged"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("text", ["x,label\n0,0\n1,1\n\n", "x,label\n0,0\n\n1,1\n"],
                             ids=["trailing", "mid_file"])
    def test_blank_lines_are_skipped(self, text, tmp_path):
        path = write(tmp_path, "blank.csv", text)
        sample = load_csv(path)
        np.testing.assert_array_equal(sample.points, [[0.0], [1.0]])
        np.testing.assert_array_equal(sample.labels, [0, 1])
        np.testing.assert_array_equal(load_points_csv(path, drop_column="label"), [[0.0], [1.0]])

    @pytest.mark.parametrize("load, text, message", [
        (load_csv, "", ": empty file"),
        (load_csv, "x,label\n", ": no data rows"),
        (load_csv, "x,label\n\n\n", ": no data rows"),
        (load_csv, "x,label\n0,0\n\n1,oops\n", ":4: non-numeric cell 'oops' in column 'label'"),
        # a digit string is a name, never an index
        (lambda path: load_csv(path, label_column="2"), "x,label\n0,0\n",
         ": no column named '2' in header ['x', 'label']"),
        (load_csv, "label\n0\n1\n", ": no feature columns besides the label"),
        (lambda path: load_points_csv(path, drop_column="x"), "x\n1\n2\n",
         ": no feature columns left after dropping 'x'"),
    ], ids=["empty_file", "header_only", "header_then_blank_lines", "bad_cell_after_blank_line",
            "label_index_out_of_range", "label_is_the_only_column", "dropped_the_only_column"])
    def test_malformed_file_names_file_and_problem(self, load, text, message, tmp_path):
        path = write(tmp_path, "bad.csv", text)
        with pytest.raises(DatasetError) as info:
            load(path)
        assert str(info.value) == f"{path}{message}"

    def test_quoted_line_break_keeps_later_line_numbers(self, tmp_path):
        # the header's first name spans lines 1 and 2, so the bad cell is on line 4
        path = write(tmp_path, "nl.csv", '"a\nb",c,label\n1,2,0\n3,x,1\n')
        with pytest.raises(DatasetError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:4: non-numeric cell 'x' in column 'c'"

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "none.csv", "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="no column named"):
            load_csv(path)

    def test_duplicate_rows_warn(self, tmp_path):
        path = write(tmp_path, "dup.csv", "x,label\n1,0\n1,1\n2,1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            load_csv(path)

    def test_signed_zero_rows_are_duplicates(self, tmp_path):
        # -0.0 == 0.0, as in the tree builder's row grouping
        path = write(tmp_path, "zeros.csv", "x,y,label\n0.0,1,0\n-0.0,1,1\n2,3,1\n")
        with pytest.warns(UserWarning, match=": 1 duplicate feature rows detected"):
            load_csv(path)

    def test_save_csv_golden_bytes(self, tmp_path):
        sample = LabeledSample(
            points=[[-0.0, 1e-300, 0.1], [1 / 3, 2.0 ** 60, -5e-324],
                    [1e16, -1.5, 123456789.123456789]],
            labels=[0, 1, 0], feature_names=("a", "b", "c"))
        path = tmp_path / "golden.csv"
        save_csv(sample, path)
        assert path.read_bytes() == (
            b"a,b,c,label\n"
            b"-0,1e-300,0.10000000000000001,0\n"
            b"0.33333333333333331,1.152921504606847e+18,-4.9406564584124654e-324,1\n"
            b"10000000000000000,-1.5,123456789.12345679,0\n"
        )

    def test_save_csv_quotes_names_that_hold_a_comma_or_a_quote(self, tmp_path):
        sample = LabeledSample(points=[[1.0, 2.0], [3.0, 4.0]], labels=[0, 1],
                               feature_names=("a,b", 'q"x'))
        path = tmp_path / "quoted.csv"
        save_csv(sample, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == '"a,b","q""x",label'
        assert load_csv(path).feature_names == ("a,b", 'q"x')

    def test_save_csv_file_mode_follows_the_umask(self, tmp_path):
        umask = os.umask(0o022)
        try:
            path = tmp_path / "mode.csv"
            save_csv(sample_gaussian(fukunaga_d1(), 3, 3, seed=1), path)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    @pytest.mark.parametrize("names, label_column, repeated", [
        (("label",), "label", "label"), (None, "x1", "x1"), (("a", "a "), "label", "a"),
        ((" label",), "label", "label"),
    ], ids=["named_feature", "default_names", "stripped_feature", "stripped_label"])
    def test_save_csv_rejects_a_feature_named_like_the_label(self, tmp_path, names,
                                                            label_column, repeated):
        # the header would repeat a name as load_csv reads it back (stripped), which it rejects
        sample = LabeledSample(points=np.zeros((2, len(names) if names else 3)), labels=[0, 1],
                               feature_names=names)
        path = tmp_path / "clash.csv"
        message = f"{path}: column name '{repeated}' appears 2 times in the header"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            save_csv(sample, path, label_column=label_column)
        assert not path.exists()

    @pytest.mark.filterwarnings("ignore:.*duplicate feature rows detected")
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(named_samples())
    @example(LabeledSample(points=[[0.0, 1.0], [2.0, 3.0]], labels=[0, 1],
                           feature_names=("a", "a ")))
    @example(LabeledSample(points=[[0.0], [1.0]], labels=[0, 1], feature_names=(" label",)))
    def test_save_csv_refuses_or_round_trips(self, sample):
        header = [name.strip() for name in (*sample.feature_names, "label")]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sample.csv")
            try:
                save_csv(sample, path)
            except DatasetError:
                # refused only for a name that repeats as load_csv reads it, and nothing written
                assert len(set(header)) < len(header)
                assert os.listdir(tmp) == []
                return
            back = load_csv(path)
        assert back.points.tobytes() == sample.points.tobytes()
        np.testing.assert_array_equal(back.labels, sample.labels)
        assert back.feature_names == tuple(header[:-1])

    def test_roundtrip_is_exact(self, tmp_path):
        sample = sample_gaussian(fukunaga_d1(), 40, 40, seed=3)
        path = tmp_path / "d1.csv"
        save_csv(sample, path)
        back = load_csv(path)
        # 17 significant digits: identical beyond the 1e-12 requirement
        assert np.max(np.abs(back.points - sample.points)) <= 1e-12
        np.testing.assert_array_equal(back.labels, sample.labels)

    @pytest.mark.parametrize("header, drop_column, name", [
        ("x,label,label", "label", "label"), ("x,x", None, "x"), ("x, x,label", "label", "x"),
    ], ids=["dropped_column_twice", "kept_column_twice", "stripped"])
    def test_load_points_csv_refuses_a_repeated_name(self, header, drop_column, name, tmp_path):
        # the rule load_csv keeps, checked before any cell is parsed ("oops" is never read)
        cells = ",".join(["oops"] * len(header.split(",")))
        path = write(tmp_path, "repeated.csv", f"{header}\n{cells}\n")
        with pytest.raises(DatasetError) as info:
            load_points_csv(path, drop_column=drop_column)
        assert str(info.value) == f"{path}: column name '{name}' appears 2 times in the header"

    def test_load_points_csv_drops_label(self, tmp_path):
        path = write(tmp_path, "pts.csv", "x,y,label\n1,2,0\n3,4,1\n")
        pts = load_points_csv(path, drop_column="label")
        np.testing.assert_array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])
        pts_all = load_points_csv(path)
        assert pts_all.shape == (2, 3)


class TestLabeledSample:
    def test_rejects_non_finite(self):
        with pytest.raises(DatasetError, match="non-finite"):
            LabeledSample(points=[[np.nan, 1.0]], labels=[0])

    def test_rejects_bad_label(self):
        with pytest.raises(DatasetError, match="expected 0 or 1"):
            LabeledSample(points=[[1.0], [2.0]], labels=[0, 3])

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 1.9, 0, 1], "label at row 0 is 0.5, expected 0 or 1"),
        ([0, 1.9, 0, 1], "label at row 1 is 1.9, expected 0 or 1"),
        ([0, 1, np.nan, 1], "label at row 2 is nan, expected 0 or 1"),
        ([0, 1, 0, -1e-300], "label at row 3 is -1e-300, expected 0 or 1"),
    ], ids=["first", "truncates_to_1", "nan", "tiny"])
    def test_rejects_non_integral_label_before_the_cast(self, labels, message):
        with pytest.raises(DatasetError, match=f"^{message}$"):
            LabeledSample(points=[[0.0], [1.0], [2.0], [3.0]], labels=labels)

    @pytest.mark.parametrize("labels", [
        [0, 1, 0, 1], [0.0, 1.0, 0.0, 1.0], [False, True, False, True],
        np.array([0, 1, 0, 1], dtype=np.uint8), np.array([0.0, 1.0, -0.0, 1.0]),
    ], ids=["int", "float", "bool", "uint8", "negative_zero"])
    def test_accepts_labels_equal_to_0_or_1(self, labels):
        sample = LabeledSample(points=[[0.0], [1.0], [2.0], [3.0]], labels=labels)
        assert sample.labels.dtype == np.int64
        assert sample.labels.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("points, labels, names, message", [
        (np.zeros(3), [0, 1, 0], None, "points must be a non-empty 2-D matrix, got shape (3,)"),
        (np.zeros((3, 1)), [0, 1], None, "labels shape (2,) does not match 3 rows"),
        (np.zeros((2, 2)), [0, 1], ("a",), "1 feature names for 2 columns"),
    ], ids=["one_dimensional_points", "label_count", "name_count"])
    def test_rejects_mismatched_shapes(self, points, labels, names, message):
        with pytest.raises(DatasetError) as caught:
            LabeledSample(points, np.array(labels), feature_names=names)
        assert str(caught.value) == message

    def test_rejects_duplicate_names(self):
        with pytest.raises(DatasetError, match="unique"):
            LabeledSample(points=[[1.0, 2.0]], labels=[0], feature_names=("a", "a"))

    def test_immutable(self):
        sample = LabeledSample(points=[[1.0], [2.0]], labels=[0, 1])
        with pytest.raises(ValueError):
            sample.points[0, 0] = 7.0


class TestGaussianModel:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(DatasetError, match="symmetric"):
            GaussianModel([0, 0], [1, 1], [[1.0, 0.5], [0.2, 1.0]], np.eye(2))

    def test_rejects_non_pd_with_eigenvalue(self):
        cov = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1
        with pytest.raises(DatasetError, match="eigenvalue -1"):
            GaussianModel([0, 0], [1, 1], cov, np.eye(2))

    @pytest.mark.parametrize("params, message", [
        ({"mean1": [1.0, 0.0, 0.0]}, "mean shapes differ: (2,) vs (3,)"),
        ({"cov1": np.eye(3)}, "cov1 has shape (3, 3), expected (2, 2)"),
        ({"cov1": [1.0, 1.0, 1.0]}, "cov1 has 3 variances, expected 2"),
        # a mean's own shape is checked before the two means are compared
        ({"mean0": [[0.0, 0.0, 0.0]]}, "mean0 must be one-dimensional, got shape (1, 3)"),
        ({"mean0": [[0.0, 0.0]]}, "mean0 must be one-dimensional, got shape (1, 2)"),
        ({"mean1": 1.0}, "mean1 must be one-dimensional, got shape ()"),
    ], ids=["mean_lengths", "cov_shape", "variances_length", "nested_mean_of_other_length",
            "nested_mean", "bare_mean"])
    def test_rejects_mismatched_shapes(self, params, message):
        base = {"mean0": [0.0, 0.0], "mean1": [1.0, 0.0], "cov0": np.eye(2), "cov1": np.eye(2)}
        with pytest.raises(DatasetError) as caught:
            GaussianModel(**{**base, **params})
        assert str(caught.value) == message

    def test_a_variance_vector_has_the_bits_of_its_diagonal_matrix(self):
        rng = derive_rng(1703)
        for d in range(1, 7):
            means = {"mean0": rng.normal(size=d), "mean1": rng.normal(size=d)}
            var0, var1 = rng.uniform(0.1, 3.0, d), rng.uniform(0.1, 3.0, d)
            vector = GaussianModel(**means, cov0=var0, cov1=var1)
            matrix = GaussianModel(**means, cov0=np.diag(var0), cov1=np.diag(var1))
            x = rng.normal(size=(20, d))
            for cls in (0, 1):
                for name in (f"cov{cls}", f"chol{cls}"):
                    got, want = getattr(vector, name), getattr(matrix, name)
                    assert got.shape == want.shape == (d, d)
                    assert got.tobytes() == want.tobytes()
                assert getattr(vector, f"log_norm{cls}").hex() == \
                    getattr(matrix, f"log_norm{cls}").hex()
                assert vector.log_density(cls, x).tobytes() == \
                    matrix.log_density(cls, x).tobytes()

    def test_rejects_empty_means(self):
        with pytest.raises(DatasetError, match="^mean0 and mean1 need at least one entry$"):
            GaussianModel(mean0=[], mean1=[], cov0=np.zeros((0, 0)), cov1=np.zeros((0, 0)))

    def test_rejects_prior_boundaries(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DatasetError, match="prior_p"):
                GaussianModel(mean0=[0.0], mean1=[1.0], cov0=[1.0], cov1=[1.0], prior_p=p)

    @pytest.mark.parametrize("field", ["mean0", "mean1", "cov0", "cov1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry_naming_field(self, field, bad):
        params = {"mean0": [0.0, 0.0], "mean1": [1.0, 1.0],
                  "cov0": np.eye(2), "cov1": 2.0 * np.eye(2)}
        params[field] = np.array(params[field], dtype=np.float64)
        params[field].flat[-1] = bad
        with pytest.raises(DatasetError, match=f"{field} has a non-finite entry"):
            GaussianModel(**params)

    def test_init_takes_the_five_parameters_only(self):
        init = [f.name for f in dataclasses.fields(GaussianModel) if f.init]
        assert init == ["mean0", "mean1", "cov0", "cov1", "prior_p"]
        model = fukunaga_d1()
        moved = dataclasses.replace(model, prior_p=0.3)  # the factors are recomputed
        np.testing.assert_array_equal(moved.chol1, model.chol1)
        assert "chol" not in repr(model)

    def test_log_norm_has_the_bits_of_the_per_call_expression(self):
        # log_density once recomputed this constant on every call; at the mean
        # the quadratic form is 0, so the density returns the constant itself
        rng = derive_rng(1702)
        for d in range(1, 7):
            a = rng.normal(size=(d, d))
            model = GaussianModel(rng.normal(size=d), rng.normal(size=d),
                                  a @ a.T + 0.1 * np.eye(d), np.diag(rng.uniform(0.5, 2.0, d)))
            for cls, (mean, chol) in enumerate(((model.mean0, model.chol0),
                                                (model.mean1, model.chol1))):
                want = (-0.5 * model.d * math.log(2.0 * math.pi)
                        - float(np.log(np.diag(chol)).sum()))
                log_norm = getattr(model, f"log_norm{cls}")
                assert log_norm.hex() == want.hex()
                assert model.log_density(cls, mean[None])[0].hex() == want.hex()
        assert "log_norm" not in repr(model)

    def test_log_density_matches_scipy(self):
        from scipy.stats import multivariate_normal

        rng = derive_rng(1701)
        a = rng.normal(size=(3, 3))
        model = GaussianModel(rng.normal(size=3), rng.normal(size=3),
                              a @ a.T + np.eye(3), np.diag([0.5, 1.0, 2.0]))
        x = rng.normal(size=(20, 3))
        for cls, (mean, cov) in enumerate(((model.mean0, model.cov0),
                                           (model.mean1, model.cov1))):
            want = multivariate_normal(mean, cov).logpdf(x)
            np.testing.assert_allclose(model.log_density(cls, x), want, rtol=1e-12)
        # random covariances at d = 1-6, and a factor with |L10| > |L00|, where
        # an LU solve would pivot and forward substitution does not
        covs = [np.array([[0.01, 0.05], [0.05, 1.0]])]
        for d in range(1, 7):
            a = rng.normal(size=(d, d))
            covs.append(a @ a.T + 0.1 * np.eye(d))
        for cov in covs:
            d = cov.shape[0]
            model = GaussianModel(rng.normal(size=d), np.zeros(d), cov, np.eye(d))
            x = model.sample(0, rng, 50)
            want = multivariate_normal(model.mean0, cov).logpdf(x).reshape(-1)
            np.testing.assert_allclose(model.log_density(0, x), want, rtol=1e-12)
            if cov is covs[0]:
                assert abs(model.chol0[1, 0]) > abs(model.chol0[0, 0])

    @pytest.mark.parametrize("columns", [1, 3])
    def test_log_density_rejects_wrong_column_count(self, columns):
        model = GaussianModel(mean0=[0, 0], mean1=[1, 1], cov0=[1, 1], cov1=[1, 1])
        with pytest.raises(DatasetError, match=r"shape \(3, %d\), expected \(n, 2\)" % columns):
            model.log_density(0, np.zeros((3, columns)))

    def test_log_density_rejects_a_one_dimensional_point(self):
        model = GaussianModel(mean0=[0, 0], mean1=[1, 1], cov0=[1, 1], cov1=[1, 1])
        with pytest.raises(DatasetError, match=r"shape \(2,\), expected \(n, 2\)"):
            model.log_density(0, np.zeros(2))

    def test_sample_is_the_sampler_behind_sample_gaussian(self):
        model = fukunaga_d1()
        sample = sample_gaussian(model, 4, 6, seed=(5, 2))
        np.testing.assert_array_equal(
            sample.points[:4], model.sample(0, derive_rng(5, 2, 0), 4))
        np.testing.assert_array_equal(
            sample.points[4:], model.sample(1, derive_rng(5, 2, 1), 6))


class TestSampleGaussian:
    def test_d1_class1_mean(self):
        # first coordinate of class 1 is centered at 2.56; mean of 500 draws
        # of a unit-variance Gaussian lies within 3/sqrt(500) except ~0.3% of seeds
        sample = sample_gaussian(fukunaga_d1(), 500, 500, seed=7)
        m = sample.split_classes()[1][:, 0].mean()
        assert abs(m - 2.56) < 3.0 / np.sqrt(500)

    def test_identity_model_variance(self):
        model = GaussianModel(mean0=np.zeros(3), mean1=np.zeros(3), cov0=np.ones(3),
                              cov1=np.ones(3))
        sample = sample_gaussian(model, 1000, 1000, seed=11)
        var = sample.points.var(axis=0, ddof=1)
        assert np.all(var > 0.85) and np.all(var < 1.15)

    def test_determinism(self):
        model = fukunaga_d1()
        a = sample_gaussian(model, 50, 60, seed=123)
        b = sample_gaussian(model, 50, 60, seed=123)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = sample_gaussian(model, 50, 60, seed=124)
        assert not np.array_equal(a.points, c.points)

    def test_seed_forms(self):
        # an integer seed is the one-element key: every spelling of it draws the same rows
        model = fukunaga_d1()
        base = sample_gaussian(model, 7, 9, seed=5).points
        for seed in ((5,), [5], np.int64(5)):
            np.testing.assert_array_equal(sample_gaussian(model, 7, 9, seed=seed).points, base)
        assert not np.array_equal(sample_gaussian(model, 7, 9, seed=(5, 2)).points, base)

    def test_labels_layout(self):
        sample = sample_gaussian(fukunaga_d1(), 3, 5, seed=0)
        assert list(sample.labels) == [0] * 3 + [1] * 5

    def test_rejects_empty_class(self):
        with pytest.raises(DatasetError, match="at least one point"):
            sample_gaussian(fukunaga_d1(), 0, 5, seed=0)

    def test_mean_error_monte_carlo_rate(self):
        # ||sample mean - true mean|| < 4 sqrt(trace(cov)/n) should hold for
        # at least 95 of 100 seeds (expected failure rate is far below 5%)
        model = GaussianModel(mean0=[0.0, 0.0, 0.0], mean1=[1.0, -1.0, 0.0],
                              cov0=[1.0, 2.0, 0.5], cov1=[1.0, 1.0, 1.0])
        n = 200
        threshold0 = 4.0 * np.sqrt(np.trace(model.cov0) / n)
        threshold1 = 4.0 * np.sqrt(np.trace(model.cov1) / n)
        hits = 0
        for seed in range(100):
            sample = sample_gaussian(model, n, n, seed=(909, seed))
            f, g = sample.split_classes()
            e0 = np.linalg.norm(f.mean(axis=0) - model.mean0)
            e1 = np.linalg.norm(g.mean(axis=0) - model.mean1)
            hits += (e0 < threshold0) and (e1 < threshold1)
        assert hits >= 95


class TestDeriveRng:
    def test_stable_streams(self):
        a = derive_rng(5, 1).standard_normal(4)
        b = derive_rng(5, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        c = derive_rng(5, 2).standard_normal(4)
        assert not np.array_equal(a, c)

    def test_rejects_negative(self):
        with pytest.raises(DatasetError):
            derive_rng(-1)
