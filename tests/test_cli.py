import argparse
import csv
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from dpdiv import cli, dataset, emst
from dpdiv.dataset import derive_rng, save_csv, sample_gaussian
from dpdiv.emst import MstResult, build_mst
from dpdiv.experiments import fukunaga_d1


def write_points_csv(path, points):
    d = points.shape[1]
    lines = [",".join(f"c{i}" for i in range(d))]
    for row in points:
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def cluster_csvs(tmp_path):
    rng = derive_rng(9001)
    a = rng.normal(size=(40, 2))
    b = rng.normal(size=(40, 2)) + 1e6
    return (
        write_points_csv(tmp_path / "a.csv", a),
        write_points_csv(tmp_path / "b.csv", b),
    )


@pytest.fixture()
def labeled_csv(tmp_path):
    sample = sample_gaussian(fukunaga_d1(), 40, 40, seed=9002)
    path = tmp_path / "labeled.csv"
    save_csv(sample, path)
    return str(path)


@pytest.fixture()
def model_json(tmp_path):
    payload = {
        "mean0": [0.0] * 8,
        "mean1": [2.56, 0, 0, 0, 0, 0, 0, 0],
        "cov0": [1.0] * 8,
        "cov1": [1.0] * 8,
        "prior_p": 0.5,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestEstimateCommand:
    def test_separated_clusters(self, cluster_csvs, tmp_path, capsys):
        a, b = cluster_csvs
        rc = cli.main(["estimate", "--a", a, "--b", b, "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cross_count"] == 1
        assert list(payload) == [
            "cross_count", "n_f", "n_g", "dp", "dp_tilde_raw", "dp_tilde",
            "affinity", "p_hat",
        ]
        on_disk = json.loads((tmp_path / "o" / "estimate.json").read_text())
        assert on_disk == payload

    def test_seventeen_digit_floats(self, cluster_csvs, tmp_path, capsys):
        a, b = cluster_csvs
        cli.main(["estimate", "--a", a, "--b", b, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        # dp_tilde = 1 - 2/80 = 0.975 exactly; p_hat = 0.5
        assert '"dp_tilde": 0.97499999999999998' in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["estimate", "--a", str(tmp_path / "no.csv"),
                       "--b", str(tmp_path / "no.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_column_mismatch_exits_2_naming_both_files(self, cluster_csvs, tmp_path, capsys):
        b3 = write_points_csv(tmp_path / "b3.csv", derive_rng(9012).normal(size=(40, 3)))
        assert cli.main(["estimate", "--a", cluster_csvs[0], "--b", b3,
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {b3} has 3 feature columns but {cluster_csvs[0]} has 2\n")
        assert not (tmp_path / "out").exists()

    def test_label_column_is_dropped_as_mst_dump_drops_it(self, tmp_path, capsys):
        # read as a coordinate, the label would split the pool in two: 1 cross edge, not 5
        files = {"a.csv": "x,label\n0,0\n1,0\n2,0\n", "b.csv": "x,label\n0.5,1\n1.5,1\n2.5,1\n",
                 "a_x.csv": "x\n0\n1\n2\n", "b_x.csv": "x\n0.5\n1.5\n2.5\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        reports = []
        for a, b in (("a.csv", "b.csv"), ("a_x.csv", "b_x.csv")):
            assert cli.main(["estimate", "--a", str(tmp_path / a), "--b", str(tmp_path / b),
                             "--out", str(tmp_path / "out")]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["cross_count"] == 5
        assert reports[0] == reports[1]

    def test_overflowing_squared_distances_exit_2(self, tmp_path, capsys):
        # the true tree has 4 cross edges; with every d2 at inf it would be a star with 2
        a = write_points_csv(tmp_path / "a.csv", np.array([[0.0], [1e200], [3e200]]))
        b = write_points_csv(tmp_path / "b.csv", np.array([[1.0], [2e200]]))
        assert cli.main(["estimate", "--a", a, "--b", b, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert "error: squared distances overflow to inf; rescale the input" in err
        assert not (tmp_path / "out").exists()
        # the error is the only report: no numpy overflow warning before it
        assert out == "" and len(err.splitlines()) == 1

    def test_artifact_file_mode_follows_the_umask(self, cluster_csvs, tmp_path):
        umask = os.umask(0o022)
        try:
            assert cli.main(["estimate", "--a", cluster_csvs[0], "--b", cluster_csvs[1],
                             "--out", str(tmp_path / "out")]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "out" / "estimate.json").stat().st_mode) == 0o644


class TestBoundsCommand:
    def test_dp_bounds_only(self, labeled_csv, tmp_path, capsys):
        rc = cli.main(["bounds", "--source", labeled_csv, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["bc"] is None and payload["mahalanobis"] is None
        assert payload["da"] is None
        assert 0.0 <= payload["dp_bounds"]["lower"] <= payload["dp_bounds"]["upper"] <= 0.5

    def test_with_model_and_target(self, labeled_csv, model_json, tmp_path, capsys):
        target = write_points_csv(
            tmp_path / "target.csv", derive_rng(9003).normal(size=(80, 8))
        )
        rc = cli.main([
            "bounds", "--source", labeled_csv, "--model", model_json,
            "--target", target, "--out", str(tmp_path),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bc"]["upper"] == pytest.approx(0.2204, abs=1e-4)
        assert payload["mahalanobis"]["upper"] == pytest.approx(0.1895, abs=1e-4)
        da = payload["da"]
        assert da["total"] == pytest.approx(
            da["source_term"] + da["shift_term"] + da["label_drift_term"], abs=1e-12
        )

    def test_model_of_another_dimension_exits_2(self, labeled_csv, model_1d_json, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        argv = ["bounds", "--source", labeled_csv, "--model", model_1d_json, "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {model_1d_json} is a 1-D model but {labeled_csv} has 8 feature columns\n")
        assert not out.exists()

    def test_model_factors_the_averaged_covariance_once(self, labeled_csv, tmp_path,
                                                        monkeypatch):
        # two class covariances when the model loads, then one averaged
        # covariance shared by the Bhattacharyya and Mahalanobis brackets
        a = derive_rng(9004).normal(size=(8, 8))  # 8-D, as the source is
        path = tmp_path / "model8.json"
        path.write_text(json.dumps({"mean0": [0.0] * 8, "mean1": [0.5] * 8,
                                    "cov0": (a @ a.T + 8 * np.eye(8)).tolist(),
                                    "cov1": np.diag(np.arange(1.0, 9.0)).tolist()}))
        calls = []
        original = np.linalg.cholesky

        def counting(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        argv = ["bounds", "--source", labeled_csv, "--model", str(path), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert calls == [(8, 8)] * 3

    def test_warnings_are_one_line_each(self, tmp_path, capsys):
        # integer lattice rows repeat; a 60-row target against 200 source rows
        # makes the pools unequal
        rng = derive_rng(9006)
        pts = np.round(rng.normal(size=(200, 2)) * 1.5)
        lines = ["c0,c1,label"] + [f"{x:g},{y:g},{int(i >= 100)}"
                                   for i, (x, y) in enumerate(pts)]
        source = tmp_path / "lattice.csv"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        target = write_points_csv(tmp_path / "target.csv", rng.normal(size=(60, 2)))
        argv = ["bounds", "--source", str(source), "--target", target, "--out", str(tmp_path)]
        for _ in range(2):  # a repeated in-process run reports its warnings again
            assert cli.main(argv) == 0
            err = capsys.readouterr().err
            dup, pools = err.splitlines()
            assert dup.startswith("warning: ") and "duplicate feature rows" in dup
            assert pools.startswith("warning: ") and "equally sized" in pools
            assert "UserWarning" not in err and "cli.py" not in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--source", "{bad}"],
        ["bounds", "--source", "{good}", "--target", "{bad}"],
        ["estimate", "--a", "{good}", "--b", "{bad}"],
    ], ids=["labeled_source", "target_points", "estimate_points"])
    def test_non_finite_cell_exits_2_naming_file_line_and_column(
            self, argv, labeled_csv, tmp_path, capsys):
        # two equal inf rows: the file is refused before any duplicate-row warning
        bad = tmp_path / "inf.csv"
        bad.write_text("x,label\n1,0\ninf,0\ninf,1\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [a.format(bad=bad, good=labeled_csv) for a in argv] + ["--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: non-finite cell 'inf' in column 'x'\n"
        assert not out.exists()

    @pytest.mark.parametrize("position", ["mid_file", "trailing"])
    def test_blank_csv_lines_are_skipped(self, position, labeled_csv, tmp_path, capsys):
        lines = Path(labeled_csv).read_text(encoding="utf-8").splitlines(keepends=True)
        lines.insert(len(lines) // 2 if position == "mid_file" else len(lines), "\n")
        padded = tmp_path / "padded.csv"
        padded.write_text("".join(lines), encoding="utf-8")
        reports = []
        for name, source in (("plain", labeled_csv), ("padded", padded)):
            assert cli.main(["bounds", "--source", str(source), "--out", str(tmp_path / name)]) == 0
            reports.append(((tmp_path / name / "bounds.json").read_bytes(), capsys.readouterr()))
        assert reports[0] == reports[1]

    def test_single_class_exits_2_naming_missing_class(self, tmp_path, capsys):
        path = tmp_path / "single.csv"
        path.write_text("x,label\n1,1\n2,1\n", encoding="utf-8")
        rc = cli.main(["bounds", "--source", str(path)])
        assert rc == 2
        assert "label 0" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["bounds", "select"])
    def test_single_class_error_names_the_file(self, subcommand, tmp_path, capsys):
        path = tmp_path / "single.csv"
        path.write_text("x,label\n1,0\n2,0\n", encoding="utf-8")
        assert cli.main([subcommand, "--source", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: sample contains no rows with label 1\n")

    @pytest.mark.parametrize("header, name", [("x,x,label", "x"), ("x,label,label", "label")])
    def test_repeated_header_name_exits_2_naming_the_file(self, header, name, tmp_path, capsys):
        path = tmp_path / "repeated.csv"
        path.write_text(f"{header}\n1,0,0\n3,1,1\n5,0,1\n", encoding="utf-8")
        assert cli.main(["bounds", "--source", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: column name '{name}' appears 2 times in the header\n")

    def test_model_with_covariances_ulps_apart_exits_0(self, tmp_path, capsys):
        # the computed coefficient rounds past 1 here; it is clamped there
        model = tmp_path / "ulp.json"
        model.write_text(json.dumps({"mean0": [0.0], "mean1": [0.0], "cov0": [2.0904761904761906],
                                     "cov1": [2.090476190476192]}), encoding="utf-8")
        # a 1-D source, as the model is
        source = tmp_path / "labeled1.csv"
        rows = derive_rng(9015).normal(size=40).tolist()
        source.write_text("x,label\n" + "".join(f"{x!r},{i % 2}\n" for i, x in enumerate(rows)),
                          encoding="utf-8")
        assert cli.main(["bounds", "--source", str(source), "--model", str(model),
                         "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["bc"] == {"lower": 0.5, "upper": 0.5}

    def test_target_column_mismatch_exits_2_before_any_tree(self, labeled_csv, tmp_path,
                                                            monkeypatch, capsys):
        from dpdiv import divergence

        def no_tree(points):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(divergence, "build_mst", no_tree)
        target = write_points_csv(tmp_path / "t9.csv", derive_rng(9013).normal(size=(40, 9)))
        assert cli.main(["bounds", "--source", labeled_csv, "--target", target,
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {target} has 9 feature columns but {labeled_csv} has 8\n")

    def test_label_drift_without_target_warns_and_changes_nothing(self, labeled_csv, tmp_path,
                                                                  capsys):
        reports = []
        for drift in ("0", "0.2"):
            assert cli.main(["bounds", "--source", labeled_csv, "--label-drift", drift,
                             "--out", str(tmp_path / drift)]) == 0
            reports.append(((tmp_path / drift / "bounds.json").read_bytes(), capsys.readouterr()))
        assert reports[0][1].err == ""
        assert reports[1][1].err == "warning: --label-drift is ignored without --target\n"
        assert reports[0][0] == reports[1][0] and reports[0][1].out == reports[1][1].out

    @pytest.mark.parametrize("drift", ["-1", "nan"])
    @pytest.mark.parametrize("with_target", [False, True])
    def test_bad_label_drift_exits_2_before_loading(self, drift, with_target, tmp_path, capsys):
        # the CSVs do not exist: the flag is rejected before either is read
        argv = ["bounds", "--source", str(tmp_path / "missing.csv"),
                "--label-drift", drift, "--out", str(tmp_path / "out")]
        if with_target:
            argv += ["--target", str(tmp_path / "missing_target.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "--label-drift must be >= 0" in err and "missing" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("with_target", [False, True])
    def test_infinite_label_drift_exits_2_before_loading(self, with_target, tmp_path, capsys):
        argv = ["bounds", "--source", str(tmp_path / "missing.csv"),
                "--label-drift", "inf", "--out", str(tmp_path / "out")]
        if with_target:
            argv += ["--target", str(tmp_path / "missing_target.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "--label-drift must be finite, got inf" in err and "missing" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["bounds", "--source", "{bad}"],
        ["bounds", "--source", "{good}", "--target", "{bad}"],
    ], ids=["labeled_source", "target_points"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_non_utf8_csv_exits_2_naming_file(self, argv, bom, labeled_csv, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(bom + b"x,label\n1,0\n\xff,1\n")
        out = tmp_path / "out"
        argv = [a.format(bad=bad, good=labeled_csv) for a in argv] + ["--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text (")
        # the position is the bad byte's offset in the file
        assert f"byte 0xff in position {len(bom) + 12}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("labeled_target", [True, False], ids=["labeled", "unlabeled"])
    def test_label_column_index_drops_its_name_from_the_target(self, labeled_target,
                                                               tmp_path, capsys):
        # the target drops the source's label column by name, and only if it has one
        rng = derive_rng(9011)
        paths = []
        for name, shift, labeled in (("s.csv", 0.0, True), ("t.csv", 0.4, labeled_target)):
            lines = ["x,y", *(f"{x:.17g},{y:.17g}" for x, y in rng.normal(size=(40, 2)) + shift)]
            if labeled:
                lines = ["label,x,y", *(f"{i % 2},{row}" for i, row in enumerate(lines[1:]))]
            paths.append(tmp_path / name)
            paths[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")
        reports = []
        for column in ("0", "label"):
            assert cli.main(["bounds", "--source", str(paths[0]), "--label-column", column,
                             "--target", str(paths[1]), "--out", str(tmp_path / column)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and json.loads(reports[0])["da"] is not None

    @pytest.mark.parametrize("argv", [
        ["bounds"], ["select", "--k", "1", "--shift-weight", "1"],
    ], ids=["bounds", "select"])
    def test_source_and_target_are_each_read_once(self, argv, labeled_csv, tmp_path,
                                                  monkeypatch):
        # the label column's name comes from the one parse of the source
        target = tmp_path / "target.csv"
        save_csv(sample_gaussian(fukunaga_d1(), 30, 30, seed=9012), target)
        reads = []
        original = dataset.read_text

        def counting(path):
            reads.append(str(path))
            return original(path)

        monkeypatch.setattr(dataset, "read_text", counting)
        assert cli.main([*argv, "--source", labeled_csv, "--target", str(target),
                         "--out", str(tmp_path / "out")]) == 0
        assert reads == [labeled_csv, str(target)]


class TestSelectCommand:
    def test_writes_json_and_csv(self, tmp_path):
        rng = derive_rng(9004)
        n = 60
        pts = np.hstack([
            np.vstack([rng.normal(-2, 1, (n, 1)), rng.normal(2, 1, (n, 1))]),
            rng.normal(size=(2 * n, 2)),
        ])
        lines = ["f0,f1,f2,label"]
        for i, row in enumerate(pts):
            label = 0 if i < n else 1
            lines.append(",".join(format(v, ".17g") for v in row) + f",{label}")
        src = tmp_path / "src.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")

        out = tmp_path / "out"
        rc = cli.main(["select", "--source", str(src), "--k", "2", "--audit",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "select.json").read_text())
        assert payload["selected"][0] == 0
        assert payload["selected_names"][0] == "f0"
        assert len(payload["per_step_candidates"]) == 2
        csv_lines = (out / "select.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "step,feature_name,phi"
        assert len(csv_lines) == 3

    def test_csv_quotes_a_feature_name_with_a_comma(self, tmp_path):
        rng = derive_rng(9011)
        lines = ['"a,b",c,label']
        for label in (0, 1) * 20:
            lines.append(f"{rng.normal() + 2 * label!r},{rng.normal()!r},{label}")
        src = tmp_path / "src.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["select", "--source", str(src), "--k", "2", "--out", str(out)]) == 0
        with open(out / "select.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [3, 3, 3]
        assert sorted(row[1] for row in rows[1:]) == ["a,b", "c"]

    def test_nan_shift_weight_exits_2_before_any_tree(self, tmp_path, monkeypatch, capsys):
        from dpdiv import divergence

        def no_tree(points):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(divergence, "build_mst", no_tree)
        sample = sample_gaussian(fukunaga_d1(), 20, 20, seed=9007)
        save_csv(sample, tmp_path / "src.csv")
        target = write_points_csv(tmp_path / "t.csv", derive_rng(9008).normal(size=(40, 8)))
        out = tmp_path / "out"
        rc = cli.main(["select", "--source", str(tmp_path / "src.csv"), "--target", target,
                       "--shift-weight", "nan", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --shift-weight must be >= 0, got nan\n"
        assert not out.exists()

    def test_infinite_shift_weight_exits_2_before_any_tree(self, tmp_path, monkeypatch, capsys):
        from dpdiv import divergence

        def no_tree(points):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(divergence, "build_mst", no_tree)
        sample = sample_gaussian(fukunaga_d1(), 20, 20, seed=9009)
        save_csv(sample, tmp_path / "src.csv")
        target = write_points_csv(tmp_path / "t.csv", derive_rng(9010).normal(size=(40, 8)))
        out = tmp_path / "out"
        rc = cli.main(["select", "--source", str(tmp_path / "src.csv"), "--target", target,
                       "--shift-weight", "inf", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --shift-weight must be finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("weight, message, with_target", [
        ("-1", "--shift-weight must be >= 0, got -1.0", False),
        ("-1", "--shift-weight must be >= 0, got -1.0", True),
        ("nan", "--shift-weight must be >= 0, got nan", False),
        ("nan", "--shift-weight must be >= 0, got nan", True),
        ("inf", "--shift-weight must be finite, got inf", False),
        ("inf", "--shift-weight must be finite, got inf", True),
        ("1", "--shift-weight > 0 needs --target", False),
    ], ids=["negative", "negative_target", "nan", "nan_target", "inf", "inf_target",
            "no_target"])
    def test_bad_shift_weight_exits_2_before_loading(self, weight, message, with_target,
                                                     tmp_path, capsys):
        # the CSVs do not exist: the flag is rejected before either is read
        argv = ["select", "--source", str(tmp_path / "missing.csv"),
                "--shift-weight", weight, "--out", str(tmp_path / "out")]
        if with_target:
            argv += ["--target", str(tmp_path / "missing_target.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_target_column_mismatch_exits_2_before_any_tree(self, labeled_csv, tmp_path,
                                                            monkeypatch, capsys):
        from dpdiv import divergence

        def no_tree(points):
            raise AssertionError("a tree was built")

        monkeypatch.setattr(divergence, "build_mst", no_tree)
        target = write_points_csv(tmp_path / "t9.csv", derive_rng(9014).normal(size=(40, 9)))
        assert cli.main(["select", "--source", labeled_csv, "--target", target,
                         "--shift-weight", "1", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {target} has 9 feature columns but {labeled_csv} has 8\n")

    def test_target_without_shift_weight_warns_and_is_not_read(self, labeled_csv, tmp_path,
                                                               capsys):
        runs = []
        for name, extra in (("plain", []), ("target", ["--target", str(tmp_path / "no.csv")])):
            out = tmp_path / name
            assert cli.main(["select", "--source", labeled_csv, "--k", "2",
                             "--out", str(out), *extra]) == 0
            runs.append(({p.name: p.read_bytes() for p in out.iterdir()},
                         capsys.readouterr().err))
        assert runs[0] == (runs[1][0], "")
        assert runs[1][1] == "warning: --target is ignored when --shift-weight is 0\n"

    @pytest.mark.parametrize("first", ["label", "x0"])
    def test_utf8_bom_is_not_part_of_the_first_header_cell(self, first, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        header = ["label", "x0", "x1"] if first == "label" else ["x0", "x1", "label"]
        rows = [[str(v) for v in (i % 2, i, i * i % 7)] for i in range(12)]
        if first == "x0":
            rows = [r[1:] + r[:1] for r in rows]
        src = tmp_path / "src.csv"
        src.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n",
                       encoding="utf-8-sig")
        assert src.read_bytes().startswith(b"\xef\xbb\xbf")
        out = tmp_path / "out"
        assert cli.main(["select", "--source", str(src), "--k", "2", "--out", str(out)]) == 0
        names = json.loads((out / "select.json").read_text())["selected_names"]
        assert sorted(names) == ["x0", "x1"]


class TestMstDumpCommand:
    def test_matches_library(self, tmp_path):
        rng = derive_rng(9005)
        pts = rng.normal(size=(30, 3))
        src = write_points_csv(tmp_path / "pts.csv", pts)
        out = tmp_path / "out"
        rc = cli.main(["mst-dump", "--input", src, "--out", str(out)])
        assert rc == 0
        lines = (out / "mst.csv").read_text().strip().splitlines()
        assert lines[0] == "i,j,length"
        mst = build_mst(pts)
        assert len(lines) == 30
        first = lines[1].split(",")
        assert (int(first[0]), int(first[1])) == (int(mst.i[0]), int(mst.j[0]))
        assert float(first[2]) == mst.length[0]

    def test_jitter_is_seeded(self, tmp_path):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        src = write_points_csv(tmp_path / "sq.csv", pts)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["mst-dump", "--input", src, "--jitter", "--out", str(out1)]) == 0
        assert cli.main(["mst-dump", "--input", src, "--jitter", "--out", str(out2)]) == 0
        assert (out1 / "mst.csv").read_bytes() == (out2 / "mst.csv").read_bytes()

    def test_label_column_is_matched_by_name_only(self, tmp_path):
        # an unlabeled input keeps every column: "0" names no column of it
        src = write_points_csv(tmp_path / "pts.csv", derive_rng(9012).normal(size=(20, 2)))
        for name, extra in (("plain", []), ("index", ["--label-column", "0"])):
            assert cli.main(["mst-dump", "--input", src, *extra,
                             "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "index" / "mst.csv").read_bytes() == \
            (tmp_path / "plain" / "mst.csv").read_bytes()

    def test_overflowing_squared_distances_exit_2(self, tmp_path, capsys):
        src = write_points_csv(tmp_path / "pts.csv", np.array([[0.0], [1e200], [3e200], [-1e200]]))
        assert cli.main(["mst-dump", "--input", src, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: squared distances overflow to inf; rescale the input" in err
        assert "non-finite" not in err
        assert not (tmp_path / "out").exists()
        assert len(err.splitlines()) == 1

    def test_jitter_on_a_span_beyond_the_float_range_exits_2_on_the_overflow(self, tmp_path,
                                                                              capsys):
        # max - min of these finite rows overflows to inf; the jitter's scale must not,
        # so the tree's own overflow check reports the input
        src = write_points_csv(tmp_path / "pts.csv", np.array([[-1e308], [1e308], [0.0]]))
        assert cli.main(["mst-dump", "--input", src, "--jitter", "--seed", "5",
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: squared distances overflow to inf; rescale the input "
                       "(cross counts do not depend on scale)\n")
        assert not (tmp_path / "out").exists()

    def test_an_overflowing_pair_off_the_tree_warns_nothing(self, tmp_path, capsys):
        # d2 of rows 0 and 2 overflows, but the tree's two edges are exact
        src = write_points_csv(tmp_path / "pts.csv", np.array([[0.0], [1e154], [2e154]]))
        assert cli.main(["mst-dump", "--input", src, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "mst.csv").read_text() == \
            "i,j,length\n0,1,1e+154\n1,2,1e+154\n"
        assert capsys.readouterr() == ("", "")

    def test_broken_tree_exits_1_with_traceback(self, tmp_path, monkeypatch, capsys):
        src = write_points_csv(tmp_path / "pts.csv", derive_rng(9006).normal(size=(5, 2)))

        def broken(points):
            return MstResult(i=[0, 1, 2], j=[1, 2, 3], length=[1.0] * 3, n_points=len(points) + 1)

        monkeypatch.setattr(emst, "build_mst", broken)
        assert cli.main(["mst-dump", "--input", src, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "broken spanning tree" in err
        assert not (tmp_path / "out").exists()


class TestExperimentCommands:
    def test_fukunaga_idempotent_outputs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["fukunaga", "--dataset", "D1", "--n", "60", "--trials", "3",
                "--format", "json,csv"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        for name in ("fukunaga.json", "fukunaga.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        payload = json.loads((out1 / "fukunaga.json").read_text())
        assert payload["n_trials"] == 3
        assert payload["seed"] == cli.DEFAULT_SEED == 0xD1BE5

    def test_sweep_with_svg(self, tmp_path):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--steps", "3", "--n", "40", "--trials", "2",
                       "--format", "json,csv,svg", "--out", str(out)])
        assert rc == 0
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 4

    @pytest.mark.parametrize("argv", [
        ["fukunaga", "--dataset", "D1", "--n", "30", "--trials", "0"],
        ["fukunaga", "--dataset", "D1", "--n", "30", "--trials", "-3"],
        ["sweep", "--steps", "3", "--n", "30", "--trials", "0"],
        ["consistency", "--sizes", "30", "--trials", "0"],
    ], ids=["fukunaga", "fukunaga_negative", "sweep", "consistency"])
    def test_non_positive_trials_exit_2_without_artifacts(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"trial, got {argv[-1]}" in err
        assert "nan" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["", "0", "10,abc"], ids=["empty", "zero", "not_int"])
    def test_bad_sizes_exit_2_without_artifacts(self, sizes, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["consistency", "--sizes", sizes, "--trials", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "sizes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["0,3", "400,100", "10,abc", ""])
    def test_bad_sizes_name_the_flag_before_the_oracle_pass(self, sizes, tmp_path,
                                                            monkeypatch, capsys):
        from dpdiv import oracle

        def no_pass(*args, **kwargs):
            raise AssertionError("an oracle pass ran")

        monkeypatch.setattr(oracle, "integrals", no_pass)
        argv = ["consistency", "--sizes", sizes, "--trials", "1", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --sizes must list positive integers in ascending order, got {sizes!r}\n")

    def test_consistency_model_prior_other_than_one_half_exits_2(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mean0": [0.0, 0.0], "mean1": [1.5, 0.0], "cov0": [1.0, 1.0],
                                    "cov1": [1.0, 1.0], "prior_p": 0.2}), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["consistency", "--sizes", "10,40", "--trials", "3", "--model", str(path)]
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: prior_p must be 0.5, got 0.2: ")
        assert not out.exists()

    def test_consistency_outputs(self, tmp_path):
        out = tmp_path / "cons"
        rc = cli.main(["consistency", "--sizes", "30,60", "--trials", "2",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "consistency.json").read_text())
        assert payload["sizes"] == [30, 60]
        assert len(payload["summaries"]) == 2


class TestOracleCommand:
    def test_prints_all_integrals(self, model_json, tmp_path, capsys):
        rc = cli.main(["oracle", "--model", model_json, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff"):
            assert key in payload
        assert payload["method"] == "monte_carlo"
        assert payload["bc"] == pytest.approx(0.4408, abs=2e-3)
        assert "standard_errors" in payload

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_integration_pass(self, d, tmp_path, monkeypatch, capsys):
        from dpdiv import oracle

        calls = []
        original = oracle._integrate_multi

        def counting(pair, integrands, *args, **kwargs):
            calls.append(len(integrands))
            return original(pair, integrands, *args, **kwargs)

        monkeypatch.setattr(oracle, "_integrate_multi", counting)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mean0": [0.0] * d, "mean1": [1.0] * d,
                                    "cov0": [1.0] * d, "cov1": [2.0] * d}))
        assert cli.main(["oracle", "--model", str(path), "--out", str(tmp_path)]) == 0
        # one pass: six integrals and the two density masses, which serve the
        # normalization check and the affinity's identity check
        assert calls == [8]
        assert set(json.loads(capsys.readouterr().out)) >= {
            "bayes_error", "dp_tilde", "affinity", "bc", "tv", "chernoff"}

    def test_broken_identity_exits_1(self, model_1d_json, tmp_path, monkeypatch, capsys):
        # a broken affinity/divergence identity is an internal fault, not bad input
        from dpdiv import oracle

        original = oracle._integrand_table

        def off_affinity(p, q, alpha):
            table = original(p, q, alpha)
            affinity = table["affinity"]
            table["affinity"] = lambda t: affinity(t) * (1.0 + 1e-3)
            return table

        monkeypatch.setattr(oracle, "_integrand_table", off_affinity)
        out = tmp_path / "out"
        assert cli.main(["oracle", "--model", model_1d_json, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: affinity/divergence identity" in err
        assert not out.exists()

    def test_bad_model_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"mean0\": [0]}", encoding="utf-8")
        rc = cli.main(["oracle", "--model", str(path)])
        assert rc == 2
        assert "missing model keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text, expected", [
        (json.dumps({"mean0": [0.0], "mean1": [1.0], "cov0": [1.0], "cov1": [1.0],
                     "prior_p": None}), "bad value for model key 'prior_p'"),
        (json.dumps({"mean0": [0.0], "mean1": [1.0], "cov0": [1.0], "cov1": [1.0],
                     "prior_p": "x"}), "bad value for model key 'prior_p'"),
        (json.dumps("mean0 mean1 cov0 cov1"), "expected a JSON object, got str"),
        ('{"mean0": [0.0', "invalid JSON ("),
        (json.dumps({"mean0": [], "mean1": [], "cov0": [], "cov1": []}),
         "mean0 and mean1 need at least one entry\n"),
        (json.dumps({"mean0": [[0, 0], [0, 0]], "mean1": [1, 0, 0, 0], "cov0": [1, 1, 1, 1],
                     "cov1": [1, 1, 1, 1]}), "model key 'mean0' must be a flat list of numbers\n"),
        (json.dumps({"mean0": [0.0], "mean1": 1.5, "cov0": [1.0], "cov1": [1.0]}),
         "model key 'mean1' must be a flat list of numbers\n"),
    ], ids=["null_prior", "string_prior", "top_level_string", "truncated", "empty_means",
            "nested_mean", "scalar_mean"])
    def test_malformed_model_json_exits_2(self, text, expected, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["oracle", "--model", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {expected}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_model_json_exits_2_naming_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"mean0": [0], "mean1": [1], "cov0": [1], "cov1": [1], "n": "\xff"}')
        out = tmp_path / "out"
        assert cli.main(["oracle", "--model", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text (") and "0xff" in err
        assert not out.exists()

    def test_model_json_may_start_with_a_byte_order_mark(self, model_1d_json, tmp_path):
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(model_1d_json).read_bytes())
        for name, path in (("bom", bom), ("plain", model_1d_json)):
            assert cli.main(["oracle", "--model", str(path), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "bom" / "oracle.json").read_bytes() == \
            (tmp_path / "plain" / "oracle.json").read_bytes()

    @pytest.mark.parametrize("field", ["mean0", "mean1", "cov0", "cov1"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_model_parameter_exits_2(self, field, bad, tmp_path, capsys):
        payload = {"mean0": [0.0, 0.0], "mean1": [1.0, 1.0],
                   "cov0": [1.0, 1.0], "cov1": [2.0, 2.0]}
        payload[field][1] = bad
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")  # writes NaN / Infinity
        out = tmp_path / "out"
        assert cli.main(["oracle", "--model", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} has a non-finite entry" in err
        assert str(path) in err
        assert not out.exists()

    def test_unresolved_ridge_exits_2_naming_the_grid(self, tmp_path, capsys):
        # normalized densities whose box holds their mass, on a ridge the default
        # grid is too coarse for: the advice must not blame only the box
        rho = 0.999999
        cov = [[1.0, rho], [rho, 1.0]]
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"mean0": [0.0, 0.0], "mean1": [0.05, -0.05],
                                    "cov0": cov, "cov1": cov}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["oracle", "--model", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: density 0 integrates to ")
        assert "over the box (|mass-1| > 1e-06)" in err and "quadrature grid" in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.fixture()
def model_1d_json(tmp_path):
    path = tmp_path / "model1.json"
    path.write_text(json.dumps({"mean0": [0.0], "mean1": [1.5], "cov0": [1.0], "cov1": [2.0]}),
                    encoding="utf-8")
    return str(path)


# one small run of each subcommand: argv, artifact stem, the formats it writes
SUBCOMMAND_RUNS = pytest.mark.parametrize("argv, stem, writable", [
    (["estimate", "--a", "{a}", "--b", "{b}"], "estimate", ["json"]),
    (["bounds", "--source", "{labeled}"], "bounds", ["json"]),
    (["select", "--source", "{labeled}", "--k", "2"], "select", ["json", "csv"]),
    (["sweep", "--steps", "3", "--n", "20", "--trials", "1"], "sweep",
     ["json", "csv", "svg"]),
    (["fukunaga", "--dataset", "D1", "--n", "20", "--trials", "2"], "fukunaga",
     ["json", "csv", "svg"]),
    (["consistency", "--sizes", "20,40", "--trials", "2", "--model", "{model}"],
     "consistency", ["json", "csv", "svg"]),
    (["oracle", "--model", "{model}"], "oracle", ["json"]),
    (["mst-dump", "--input", "{a}"], "mst", ["csv"]),
], ids=["estimate", "bounds", "select", "sweep", "fukunaga", "consistency", "oracle",
        "mst-dump"])


class TestFormatSelection:
    @SUBCOMMAND_RUNS
    def test_writes_exactly_the_requested_formats(
        self, argv, stem, writable, cluster_csvs, labeled_csv, model_1d_json, tmp_path
    ):
        a, b = cluster_csvs
        argv = [arg.format(a=a, b=b, labeled=labeled_csv, model=model_1d_json) for arg in argv]

        def run(formats, out):
            # a subcommand that writes one format has no --format and writes it
            flags = ["--format", ",".join(formats)] if len(writable) > 1 else []
            assert cli.main(argv + flags + ["--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        full = run(writable, tmp_path / "all")
        assert set(full) == {f"{stem}.{fmt}" for fmt in writable}
        for fmt in writable:
            name = f"{stem}.{fmt}"
            assert run([fmt], tmp_path / fmt) == {name: full[name]}

    @SUBCOMMAND_RUNS
    def test_prints_the_artifact_exactly_when_json_is_the_only_format(
        self, argv, stem, writable, cluster_csvs, labeled_csv, model_1d_json, tmp_path, capsys
    ):
        a, b = cluster_csvs
        argv = [arg.format(a=a, b=b, labeled=labeled_csv, model=model_1d_json) for arg in argv]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        if writable == ["json"]:
            assert printed == (tmp_path / f"{stem}.json").read_text(encoding="utf-8")
        else:
            assert printed == ""


class TestArgumentHandling:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["estimate", "--nope", "x"])
        assert info.value.code == 2

    def test_unknown_format_exits_2(self, labeled_csv, capsys):
        rc = cli.main(["select", "--source", labeled_csv, "--format", "pdf"])
        assert rc == 2
        assert "unknown format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, writable", [
        (["select", "--source", "{labeled}", "--format", "svg"], "json, csv"),
        (["estimate", "--a", "{a}", "--b", "{b}", "--format", "csv"], None),
        (["mst-dump", "--input", "{a}", "--format", "json"], None),
        (["fukunaga", "--dataset", "D1", "--n", "30", "--trials", "1", "--format", ""],
         "json, csv, svg"),
    ], ids=["select_svg", "estimate_csv", "mst_dump_json", "fukunaga_empty"])
    def test_format_the_subcommand_cannot_write_exits_2(
        self, argv, writable, cluster_csvs, labeled_csv, tmp_path, capsys
    ):
        a, b = cluster_csvs
        out = tmp_path / "out"
        argv = [arg.format(a=a, b=b, labeled=labeled_csv) for arg in argv]
        if writable is None:
            # a subcommand that writes one format has no --format at all
            with pytest.raises(SystemExit) as info:
                cli.main(argv + ["--out", str(out)])
            assert info.value.code == 2
            assert "unrecognized arguments: --format" in capsys.readouterr().err
        else:
            assert cli.main(argv + ["--out", str(out)]) == 2
            assert writable in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--a", "{a}", "--b", "{b}", "--seed", "1"],
        ["bounds", "--source", "{labeled}", "--seed", "1"],
        ["select", "--source", "{labeled}", "--seed", "1"],
        ["oracle", "--model", "{model}", "--seed", "1"],
        ["estimate", "--a", "{a}", "--b", "{b}", "--format", "json"],
        ["bounds", "--source", "{labeled}", "--format", "json"],
        ["oracle", "--model", "{model}", "--format", "json"],
        ["mst-dump", "--input", "{a}", "--format", "csv"],
    ], ids=["estimate_seed", "bounds_seed", "select_seed", "oracle_seed", "estimate_format",
            "bounds_format", "oracle_format", "mst_dump_format"])
    def test_flag_that_cannot_change_the_result_is_unrecognized(
        self, argv, cluster_csvs, labeled_csv, model_1d_json, tmp_path, capsys
    ):
        a, b = cluster_csvs
        out = tmp_path / "out"
        argv = [arg.format(a=a, b=b, labeled=labeled_csv, model=model_1d_json) for arg in argv]
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not out.exists()

    def test_each_subcommand_takes_only_the_flags_that_can_change_its_result(self):
        parser = cli.build_parser()
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: [opt for action in sub._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")]
                 for name, sub in subs.choices.items()}
        assert flags == {
            "estimate": ["--a", "--b", "--out"],
            "bounds": ["--source", "--target", "--model", "--label-column", "--label-drift",
                       "--out"],
            "select": ["--source", "--target", "--k", "--shift-weight", "--audit",
                       "--standardize", "--label-column", "--out", "--format"],
            "sweep": ["--steps", "--n", "--trials", "--seed", "--out", "--format"],
            "fukunaga": ["--dataset", "--n", "--trials", "--seed", "--out", "--format"],
            "consistency": ["--sizes", "--trials", "--model", "--seed", "--out", "--format"],
            "oracle": ["--model", "--alpha", "--out"],
            "mst-dump": ["--input", "--jitter", "--label-column", "--seed", "--out"],
        }
        assert sum(map(len, flags.values())) == 44

    def test_negative_seed_exits_2(self, cluster_csvs, capsys):
        a, _ = cluster_csvs
        rc = cli.main(["mst-dump", "--input", a, "--jitter", "--seed", "-4"])
        assert rc == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for sub in ("estimate", "bounds", "select", "sweep", "fukunaga",
                    "consistency", "oracle", "mst-dump"):
            assert sub in out
