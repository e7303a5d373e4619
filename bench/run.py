"""dpdiv benchmark: drives the real CLI in process, as one closed-loop client.

    python3 bench/run.py --workload select_10d --seed 1 --seconds 36 --trace 0

One op is one workload invocation of ``dpdiv.cli.main(argv)`` (two for
``oracle_2d4d``); the next op starts when the previous one finishes, if an
op of the run's median length still fits in ``--seconds``. Inputs
are generated from ``--seed`` into ``.bench_work/`` in the checkout and
removed when the run ends; a traced run leaves its spans file there. Ops
run for ``--seconds``; their artifacts are then checked outside the timed
region: byte-identical across the ops of a run, and equal to an
independent recomputation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports per-layer metrics from the traced ones
(see ``tracing.py``). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's provenance. The process exits non-zero without a result
when the checkout has no ``src/dpdiv``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import inputs
import tracing
from workloads import WORKLOADS, CheckError

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

_SMOKE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from dpdiv import cli; "
    "sys.exit(cli.main(['estimate', '--a', sys.argv[2], '--b', sys.argv[3], '--out', sys.argv[4]]))"
)


def measure_setup(work: Path, seed: int) -> float:
    """Median wall time of fresh interpreters importing dpdiv.cli and running
    a 50-row estimate: the start-up cost every CLI user pays."""
    rng = inputs.workload_rng(seed, "setup")
    paths = []
    for name, shift in (("a", 0.0), ("b", 0.5)):
        path = work / f"smoke_{name}.csv"
        inputs.write_csv(path, rng.standard_normal((50, 2)) + shift)
        paths.append(str(path))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SMOKE, str(SRC), *paths, str(work / "smoke_out")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=REPO, timeout=120,
        )
        samples.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up smoke op failed:\n{proc.stderr.decode()}")
    return statistics.median(samples)


@dataclass
class Op:
    index: int
    wall: float
    cpu: float
    codes: list[int]
    stdout: str
    traced: bool
    out_dir: Path


def _call_cli(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 1


def run_ops(workload, ops_dir: Path, seconds: float, tracer=None) -> list[Op]:
    """Closed loop: start ops while one of the median op length so far still
    ends within `seconds`, so a run does not overrun by up to one op. With a tracer,
    odd-numbered ops are traced, so each run has both kinds."""
    from dpdiv import cli

    min_ops = 2 if tracer is not None else 1
    ops: list[Op] = []
    start = perf_counter()
    while len(ops) < min_ops or (
            perf_counter() - start + statistics.median(op.wall for op in ops) <= seconds):
        index = len(ops)
        out_dir = ops_dir / f"op{index}"
        traced = tracer is not None and index % 2 == 1
        argvs = workload.argvs(out_dir)
        buf = io.StringIO()
        if traced:
            tracer.install()
        try:
            c0, t0 = process_time(), perf_counter()
            with contextlib.redirect_stdout(buf):
                codes = [_call_cli(cli, argv) for argv in argvs]
            t1, c1 = perf_counter(), process_time()
        finally:
            if traced:
                tracer.uninstall()
        ops.append(Op(index=index, wall=t1 - t0, cpu=c1 - c0, codes=codes,
                      stdout=buf.getvalue(), traced=traced, out_dir=out_dir))
    return ops


def read_artifacts(op: Op) -> dict[str, bytes]:
    files = {"stdout": op.stdout.encode("utf-8")}
    if op.out_dir.is_dir():
        for path in sorted(op.out_dir.rglob("*")):
            if path.is_file():
                files[path.relative_to(op.out_dir).as_posix()] = path.read_bytes()
    return files


def count_failures(workload, ops: list[Op]) -> int:
    """An op fails on a non-zero exit, artifacts differing from the run's
    first op, or a failed workload check."""
    failed = 0
    first = None
    for op in ops:
        artifacts = read_artifacts(op)
        try:
            if any(code != 0 for code in op.codes):
                raise CheckError(f"exit codes {op.codes}")
            if first is None:
                first = artifacts
            elif artifacts != first:
                raise CheckError("artifacts differ from the run's first op")
            workload.check(artifacts)
        except (CheckError, KeyError, ValueError, TypeError, IndexError) as exc:
            failed += 1
            print(f"op {op.index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return failed


def _blas_threads():
    """OpenBLAS thread count of the numpy build, when it can be queried."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance() -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    if (REPO / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "dpdiv" / "cli.py").is_file():
        print(f"error: no dpdiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    work = REPO / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(work, args.seed)
        workload.make_inputs(inputs.workload_rng(args.seed, args.workload), work / "inputs")
        tracer = tracing.Tracer() if args.trace else None
        ops = run_ops(workload, work / "ops", args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = count_failures(workload, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [op.wall for op in ops]
    record = {"provenance": provenance(), "workload": args.workload, "seed": args.seed,
              "op_walls_s": walls}
    if args.trace:
        values = tracing.per_layer_metrics(
            tracer, [op.wall for op in ops if op.traced], [op.wall for op in ops if not op.traced])
        units = tracing.PER_LAYER_METRICS
        record["spans_file"] = str(work.with_name(f"spans-{work.name}.json").relative_to(REPO))
        tracing.write_spans(tracer, REPO / record["spans_file"])
    else:
        values = {
            "ops_per_s": len(ops) / sum(walls),
            "op_p50_s": statistics.median(walls),
            "cpu_s_per_op": statistics.median(op.cpu for op in ops),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
        units = END_TO_END_UNITS
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
