"""Checks that the benchmark tooling and the test suites stay wired to the package."""

import importlib
import importlib.util
from pathlib import Path

from dpdiv import experiments, oracle
from dpdiv.dataset import derive_rng

import suites

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
    experiments.run_sweep(3, 20, 1, seed=0, quad_nodes=256)
    # per step: the density-mass check at construction, then one pass
    assert calls == [2, 2] * 3


def test_suite_model_makes_one_oracle_pass(monkeypatch):
    calls = _count_passes(monkeypatch)
    model = oracle.random_gaussian_model(derive_rng(1601), dimension=2)
    quantities = suites.oracle_quantities(model)
    # six integrals plus the total mass the affinity's identity check needs
    assert calls == [2, 7]
    assert quantities["ap"] == oracle.affinity_integral(quantities["pair"])
