"""The three benchmark workloads: their inputs, CLI invocations and output checks.

Each workload object is made fresh for one run. ``make_inputs`` writes the
run's input files, ``argvs`` gives the CLI invocations that make up one op
(one ``dpdiv.cli.main`` call, or two for the oracle workload), and ``check``
raises ``CheckError`` when an op's artifacts are wrong. Checks recompute the
results with code independent of the kernel under test and run outside the
timed region; a reference is computed once per run and reused by every op.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import inputs

REPO = Path(__file__).resolve().parent.parent


class CheckError(Exception):
    """An op's artifacts disagree with the independent recomputation."""


def _close(name, got, want, tol):
    if not abs(got - want) <= tol:
        raise CheckError(f"{name}: got {got!r}, expected {want!r} (tolerance {tol:g})")


def _dp_tilde(cross_count, n_total):
    return min(1.0, max(0.0, 1.0 - 2.0 * cross_count / n_total))


def dense_cross_count(f, g) -> int:
    """Cross count of the pooled EMST from a dense distance matrix (tie-free points)."""
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial.distance import pdist, squareform

    pts = np.vstack([f, g])
    tree = minimum_spanning_tree(squareform(pdist(pts))).tocoo()
    if tree.nnz != pts.shape[0] - 1:
        raise CheckError(f"reference dense tree has {tree.nnz} edges for {pts.shape[0]} points")
    n_f = f.shape[0]
    return int(np.count_nonzero((tree.row < n_f) != (tree.col < n_f)))


def _load_bruteforce():
    """The test suite's Kruskal reference, which shares the (d^2, i, j) tie rule."""
    spec = importlib.util.spec_from_file_location("bruteforce", REPO / "tests" / "bruteforce.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Select10d:
    """select --audit with a shift penalty on 10-D data, half its columns on a 0.5 grid."""

    name = "select_10d"
    N_PER_CLASS = 300
    N_TARGET = 600
    D = 10
    K = 5

    def __init__(self):
        self._reference = {}

    def make_inputs(self, rng, directory: Path):
        # The classes differ in mean only along the quantised (even) columns and
        # the target is shifted along every odd column, whose shift penalty then
        # steers selection to the quantised columns: their candidates of up to
        # three columns have duplicate rows, the others none.
        model = inputs.random_model(rng, self.D, separation=2.0,
                                    axes=np.arange(0, self.D, 2))
        self.source, self.labels = inputs.labeled_sample(rng, model, self.N_PER_CLASS)
        shift = np.zeros(self.D)
        shift[1::2] = 1.5
        self.target, _ = inputs.labeled_sample(rng, model, self.N_TARGET // 2, shift=shift)
        # Quantised columns give tied distances and, on low-d subsets, duplicate rows.
        for x in (self.source, self.target):
            x[:, ::2] = np.round(x[:, ::2] * 2.0) / 2.0
        self.paths = {"source": directory / "source.csv", "target": directory / "target.csv"}
        inputs.write_csv(self.paths["source"], self.source, self.labels)
        inputs.write_csv(self.paths["target"], self.target)

    def argvs(self, out_dir: Path):
        return [["select", "--source", str(self.paths["source"]),
                 "--target", str(self.paths["target"]), "--k", str(self.K),
                 "--shift-weight", "1", "--audit", "--out", str(out_dir / "0")]]

    def criterion(self, features):
        """featsel's criterion for one subset, recomputed on brute-force Kruskal trees."""
        key = tuple(features)
        if key not in self._reference:
            kruskal = _load_bruteforce().kruskal_cross_count
            idx = list(features)
            s0 = self.source[self.labels == 0][:, idx]
            s1 = self.source[self.labels == 1][:, idx]
            value = kruskal(s0, s1) / (s0.shape[0] + s1.shape[0])
            merged = np.vstack([s0, s1])
            c = kruskal(merged, self.target[:, idx])
            arg = 1.0 - 2.0 * c / (merged.shape[0] + self.target.shape[0])
            value += 1.0 * 2.0 * math.sqrt(min(1.0, max(0.0, arg)))
            self._reference[key] = value
        return self._reference[key]

    def check(self, artifacts):
        payload = json.loads(artifacts["0/select.json"])
        selected = payload["selected"]
        if len(selected) != self.K:
            raise CheckError(f"selected {len(selected)} features, expected {self.K}")
        last = payload["criterion_values"][-1]
        candidates = payload["per_step_candidates"][-1]
        winner = payload["selected_names"][-1]
        if candidates[winner] != last or last != min(candidates.values()):
            raise CheckError(f"last step winner {winner} is not the audited minimum")
        _close("last criterion", last, self.criterion(selected), 1e-12)


class Fukunaga8d:
    """fukunaga D2: ten trials of 8-D trees over 2000 points, with json, csv and svg."""

    name = "fukunaga_8d"
    N_PER_CLASS = 1000
    TRIALS = 10

    def __init__(self):
        self._reference = None

    def make_inputs(self, rng, directory: Path):
        self.cli_seed = int(rng.integers(0, 2**31))
        # Every op is checked on this one trial; byte identity covers the rest.
        self.checked_trial = int(rng.integers(0, self.TRIALS))

    def argvs(self, out_dir: Path):
        return [["fukunaga", "--dataset", "D2", "--n", str(self.N_PER_CLASS),
                 "--trials", str(self.TRIALS), "--seed", str(self.cli_seed),
                 "--format", "json,csv,svg", "--out", str(out_dir / "0")]]

    def upper_bound(self):
        """The checked trial's bound from a regenerated sample and a dense-distance tree."""
        if self._reference is None:
            import dpdiv

            model = dpdiv.FUKUNAGA_SAMPLING_MODELS["D2"]()
            n = self.N_PER_CLASS
            pts = dpdiv.sample_gaussian(model, n, n, (self.cli_seed, self.checked_trial)).points
            dpt = _dp_tilde(dense_cross_count(pts[:n], pts[n:]), 2 * n)
            self._reference = min(0.5, 0.5 - 0.5 * dpt)
        return self._reference

    def check(self, artifacts):
        trial = self.checked_trial
        payload = json.loads(artifacts["0/fukunaga.json"])
        rows = artifacts["0/fukunaga.csv"].decode().splitlines()
        if payload["n_trials"] != self.TRIALS or len(rows) != self.TRIALS + 1:
            raise CheckError(f"expected {self.TRIALS} trials")
        want = self.upper_bound()
        _close(f"trial {trial} json value", payload["values"][trial], want, 1e-12)
        _close(f"trial {trial} csv value", float(rows[trial + 1].split(",")[1]), want, 1e-12)


class Oracle2d4d:
    """oracle on a 2-D model (quadrature) and then a 4-D model (Monte Carlo)."""

    name = "oracle_2d4d"

    def make_inputs(self, rng, directory: Path):
        prior = float(rng.uniform(0.4, 0.6))
        self.models = [inputs.random_model(rng, d, separation=1.0, prior_p=prior) for d in (2, 4)]
        self.paths = [directory / f"model_{i}.json" for i in range(len(self.models))]
        for path, model in zip(self.paths, self.models):
            inputs.write_model(path, model)

    def argvs(self, out_dir: Path):
        return [["oracle", "--model", str(p), "--out", str(out_dir / str(i))]
                for i, p in enumerate(self.paths)]

    def check(self, artifacts):
        import dpdiv

        for i, raw in enumerate(self.models):
            payload = json.loads(artifacts[f"{i}/oracle.json"])
            model = dpdiv.GaussianModel(**raw)
            want = {
                "bc": dpdiv.bhattacharyya_coefficient_gaussian(model),
                "chernoff": dpdiv.chernoff_upper_gaussian(model, payload["alpha"]),
            }
            for key, value in want.items():
                if model.d <= 2:
                    tol = 1e-9
                else:
                    tol = 5.0 * payload["standard_errors"][key]
                _close(f"d={model.d} {key}", payload[key], value, tol)
            if not 0.0 <= payload["bayes_error"] <= payload["bc"] / 2.0:
                raise CheckError(f"d={model.d} bayes_error {payload['bayes_error']} "
                                 f"outside [0, bc/2 = {payload['bc'] / 2.0}]")


WORKLOADS = {w.name: w for w in (Select10d, Fukunaga8d, Oracle2d4d)}
