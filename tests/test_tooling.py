"""Checks that the benchmark tooling and the test suites stay wired to the package."""

import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpdiv import bounds, divergence, experiments, featsel, oracle
from dpdiv.dataset import GaussianModel, derive_rng, sample_gaussian, save_csv

import suites

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists():
    # The tracer looks each name up with getattr; a missing one breaks --trace 1.
    for module_name, functions in _load_tracing().ENTRY_POINTS.items():
        module = importlib.import_module(module_name)
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def _two_samples():
    rng = derive_rng(2024)
    return rng.normal(size=(30, 3)), rng.normal(size=(25, 3)) + 0.5


def test_injected_cross_count_reaches_the_estimate(monkeypatch):
    # bench/selftest.py injects an off-by-one count through this binding.
    f, g = _two_samples()
    honest = divergence.estimate(f, g).cross_count
    original = divergence.fr_statistic
    monkeypatch.setattr(divergence, "fr_statistic", lambda a, b: original(a, b) + 1)
    assert divergence.estimate(f, g).cross_count == honest + 1


def test_one_tree_per_estimate(monkeypatch):
    # An estimate's tree comes from the batched path: one build_msts call, one 55-row set.
    calls = []
    original = divergence.build_msts

    def counting(point_sets):
        sets = list(point_sets)
        calls.append([len(points) for points in sets])
        return original(sets)

    monkeypatch.setattr(divergence, "build_msts", counting)
    f, g = _two_samples()
    divergence.estimate(f, g)
    assert calls == [[55]]
    divergence.estimate(g, f)
    assert calls == [[55], [55]]


def _selection_inputs():
    # quantised columns give the candidates duplicate rows and tied distances
    rng = derive_rng(2030)
    s0, s1 = rng.normal(size=(40, 5)), rng.normal(size=(35, 5)) + 0.4
    target = rng.normal(size=(50, 5)) + 0.3
    for x in (s0, s1, target):
        x[:, ::2] = np.round(x[:, ::2] * 2.0) / 2.0
    return s0, s1, target


def test_one_fr_statistic_call_per_selection_step(monkeypatch):
    # every candidate's class pool and shift pool go to one call per step
    calls = []
    original = featsel.fr_statistic

    def counting(pairs):
        calls.append(len(pairs))
        return original(pairs)

    monkeypatch.setattr(featsel, "fr_statistic", counting)
    s0, s1, target = _selection_inputs()
    featsel.forward_select(s0, s1, target, k=3, shift_weight=1.0)
    assert calls == [10, 8, 6]
    del calls[:]
    featsel.forward_select(s0, s1, k=2)
    assert calls == [5, 4]


def test_injected_cross_count_reaches_every_candidate(monkeypatch):
    # bench/selftest.py adds one to whatever fr_statistic returns
    s0, s1, _ = _selection_inputs()
    honest = featsel.forward_select(s0, s1, k=2, audit=True).per_step_candidates
    original = featsel.fr_statistic
    monkeypatch.setattr(featsel, "fr_statistic", lambda pairs: original(pairs) + 1)
    shifted = featsel.forward_select(s0, s1, k=2, audit=True).per_step_candidates
    assert [sorted(step) for step in shifted] == [sorted(step) for step in honest]
    for before, after in zip(honest, shifted):
        for f, value in before.items():
            assert round(after[f] * 75) == round(value * 75) + 1


@pytest.mark.parametrize("shift_weight", [0.0, 0.7])
def test_criterion_phi_equals_each_audited_value(shift_weight):
    s0, s1, target = _selection_inputs()
    trace = featsel.forward_select(s0, s1, target, k=3, shift_weight=shift_weight, audit=True)
    for step, candidates in enumerate(trace.per_step_candidates):
        chosen = list(trace.selected[:step])
        for f, value in candidates.items():
            alone = featsel.criterion_phi(s0, s1, target, chosen + [f], shift_weight)
            assert alone.hex() == value.hex()


def _count_fr_statistic_calls(monkeypatch):
    # each call's triple count; None for a two-matrix call
    calls = []
    original = divergence.fr_statistic

    def counting(*args):
        calls.append(len(args[0]) if len(args) == 1 else None)
        return original(*args)

    monkeypatch.setattr(divergence, "fr_statistic", counting)
    return calls


def _per_trial_estimates(model, n, n_trials, *key):
    """Each trial's estimate from its own labeled sample, one tree at a time."""
    return [divergence.estimate_from_labeled(sample_gaussian(model, n, n, (*key, trial)))
            for trial in range(n_trials)]


def _hex(values):
    return [float(v).hex() for v in values]


def test_sweep_counts_each_step_in_one_call(monkeypatch):
    calls = _count_fr_statistic_calls(monkeypatch)
    rows = experiments.run_sweep(3, 20, 4, seed=7)
    assert calls == [4] * 3
    for step, row in enumerate(rows):
        model = GaussianModel(mean0=[0.0, 0.0], mean1=[row.separation, 0.0], cov0=[1.0, 1.0],
                              cov1=[1.0, 1.0])
        b = [bounds.ber_bounds_from_estimate(est)
             for est in _per_trial_estimates(model, 20, 4, 7, step)]
        assert _hex([row.dp_upper_empirical_mean, row.dp_lower_empirical_mean]) == _hex(
            [np.mean([x.upper for x in b]), np.mean([x.lower for x in b])])


def test_fukunaga_counts_its_trials_in_one_call(monkeypatch):
    calls = _count_fr_statistic_calls(monkeypatch)
    summary = experiments.run_fukunaga("D2", 30, 3, seed=11)
    assert calls == [3]
    model = experiments.FUKUNAGA_SAMPLING_MODELS["D2"]()
    assert _hex(summary.values) == _hex(bounds.ber_bounds_from_estimate(est).upper
                                        for est in _per_trial_estimates(model, 30, 3, 11))


def test_consistency_counts_each_size_in_one_call(monkeypatch):
    calls = _count_fr_statistic_calls(monkeypatch)
    model = GaussianModel(mean0=[0.0], mean1=[1.0], cov0=[1.0], cov1=[2.0])
    summaries = experiments.run_consistency(model, [10, 25], 3, seed=13)
    assert calls == [3, 3]
    reference = oracle.dp_tilde_integral(oracle.gaussian_pair(model))
    for size_index, (n, summary) in enumerate(zip([10, 25], summaries)):
        assert _hex(summary.values) == _hex(abs(est.dp_tilde - reference) for est in
                                            _per_trial_estimates(model, n, 3, 13, size_index))


def _count_passes(monkeypatch):
    calls = []
    original = oracle._integrate_multi

    def counting(pair, integrands, *args, **kwargs):
        calls.append(len(integrands))
        return original(pair, integrands, *args, **kwargs)

    monkeypatch.setattr(oracle, "_integrate_multi", counting)
    return calls


def test_sweep_makes_one_oracle_pass_per_step(monkeypatch):
    calls = _count_passes(monkeypatch)
    experiments.run_sweep(3, 20, 1, seed=0)
    # per step one pass: two integrals plus the two density masses
    assert calls == [4] * 3


def test_suite_model_makes_one_oracle_pass(monkeypatch):
    calls = _count_passes(monkeypatch)
    model = suites.random_gaussian_model(derive_rng(1601), dimension=2)
    quantities = suites.oracle_quantities(model)
    # six integrals and the two density masses, which serve the
    # normalization check and the affinity's identity check
    assert calls == [8]
    for name, value in suites.SUITE_PASS_SIZE.items():
        monkeypatch.setattr(oracle, name, value)
    assert quantities["ap"] == oracle.affinity_integral(quantities["pair"])


def test_one_factorization_per_class_covariance(monkeypatch):
    calls = []
    original = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    rng = derive_rng(1702)
    a = rng.normal(size=(3, 3))
    model3 = GaussianModel(rng.normal(size=3), rng.normal(size=3) + 1.0,
                           a @ a.T + np.eye(3), np.diag([0.5, 1.0, 2.0]))
    assert calls == [(3, 3), (3, 3)]
    model1 = GaussianModel(mean0=[0.0], mean1=[1.5], cov0=[1.0], cov1=[2.0])
    del calls[:]

    for seed in range(3):
        sample_gaussian(model3, 10, 12, seed)
    oracle.integrals(oracle.gaussian_pair(model1), ("bayes_error", "bc"))
    monkeypatch.setattr(oracle, "MC_POINTS", 100_000)
    oracle.integrals(oracle.gaussian_pair(model3), ("bayes_error", "bc"))
    assert calls == []
    # the one model run_fukunaga builds is factored once, each trial reuses it
    experiments.run_fukunaga("D2", 20, 2, seed=0)
    assert calls == [(8, 8), (8, 8)]
    del calls[:]

    bounds.bhattacharyya_distance_gaussian(model3)
    assert calls == [(3, 3)]
    bounds.chernoff_upper_gaussian(model3, 0.3)
    assert calls == [(3, 3)] * 2
    bounds.mahalanobis_bound_gaussian(model3)
    assert calls == [(3, 3)] * 3

    assert not model3.chol0.flags.writeable
    with pytest.raises(ValueError):
        model3.chol0[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model3.chol0 = np.eye(3)
    np.testing.assert_allclose(model3.chol0 @ model3.chol0.T, model3.cov0, rtol=0, atol=1e-12)


_RUN_AND_LIST_SCIPY = (
    "import sys; sys.path.insert(0, sys.argv[1]); from dpdiv import cli; "
    "rc = cli.main(sys.argv[2:]); "
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
    "sys.exit(rc)"
)


def _scipy_modules_after(argv):
    """Run cli.main(argv) in a fresh interpreter; the scipy modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_SCIPY, str(REPO / "src"), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_estimate_imports_no_scipy(tmp_path):
    # Every one-shot CLI call pays for what dpdiv imports: importing scipy costs a
    # few tenths of a second and 30-35 MiB of peak RSS. The tree workloads
    # (select with a target, fukunaga) must not pull it in either.
    rng = derive_rng(2025)
    paths = []
    for name, shift in (("a", 0.0), ("b", 0.5)):
        rows = rng.normal(size=(50, 2)) + shift
        path = tmp_path / f"{name}.csv"
        path.write_text("x0,x1\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in rows))
        paths.append(str(path))
    assert _scipy_modules_after(
        ["estimate", "--a", paths[0], "--b", paths[1], "--out", str(tmp_path / "out")]) == "[]"

    source = tmp_path / "source.csv"
    save_csv(sample_gaussian(GaussianModel(mean0=[0.0] * 3, mean1=[1.0, 0.0, 0.0], cov0=[1.0] * 3,
                                           cov1=[1.0] * 3), 30, 30, seed=2026), source)
    target = tmp_path / "target.csv"
    target.write_text("x0,x1,x2\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rng.normal(size=(60, 3)) + 0.5))
    assert _scipy_modules_after(
        ["select", "--source", str(source), "--target", str(target), "--k", "2",
         "--shift-weight", "1", "--out", str(tmp_path / "select")]) == "[]"
    assert _scipy_modules_after(
        ["fukunaga", "--dataset", "D2", "--n", "50", "--trials", "2",
         "--out", str(tmp_path / "fukunaga")]) == "[]"
