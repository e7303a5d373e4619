"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py

Checks that self-time arithmetic is right on a hand-built span tree, and that
a corrupted result (an off-by-one cross count injected through the trace
wrapper) is caught by the output checks and counted as a failed op.
"""

from __future__ import annotations

import functools
import os
import shutil
import sys

import inputs
import run
import tracing
from workloads import CheckError, Select10d


def test_self_times():
    S = tracing.Span
    spans = [
        S("root", -1, 0.0, 10.0),
        S("a", 0, 1.0, 3.0),
        S("b", 0, 4.0, 8.0),
        S("c", 2, 5.0, 6.0),
        S("c", 2, 6.5, 7.0),
    ]
    want = [10.0 - 2.0 - 4.0, 2.0, 4.0 - 1.0 - 0.5, 1.0, 0.5]
    got = tracing.self_times(spans)
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got


class SmallSelect10d(Select10d):
    N_PER_CLASS = 40
    N_TARGET = 80


class OffByOneTracer(tracing.Tracer):
    """Traces as usual, but every cross count it sees comes back one too high."""

    def _wrap(self, fn, namer):
        traced = super()._wrap(fn, namer)
        if fn.__name__ != "fr_statistic":
            return traced
        return functools.wraps(fn)(lambda *args, **kwargs: traced(*args, **kwargs) + 1)


def test_corrupted_cross_count_is_a_failed_op():
    work = run.REPO / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        workload = SmallSelect10d()
        workload.make_inputs(inputs.workload_rng(0, workload.name), work / "inputs")
        # Op 0 runs untraced and honest; op 1 runs under the corrupting tracer.
        ops = run.run_ops(workload, work / "ops", 0.0, OffByOneTracer())
        assert [op.traced for op in ops] == [False, True]
        workload.check(run.read_artifacts(ops[0]))
        try:
            workload.check(run.read_artifacts(ops[1]))
        except CheckError:
            pass
        else:
            raise AssertionError("off-by-one cross count passed the select_10d check")
        assert run.count_failures(workload, ops) == 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for test in (test_self_times, test_corrupted_cross_count_is_a_failed_op):
        test()
        print(f"PASS {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
