"""The golden corpus: dpdiv commands over the committed inputs in inputs/,
and the bytes each one gives.

CASES maps a case name to a command line. A case runs through cli.main in
process, with this directory as the working directory, so every path in a
message is relative to it, and with a fresh --out directory. Its expected
bytes are the files under expected/<case>/: each artifact the command
writes, plus `exit_code`, `stdout` and `stderr`.

Tree artifacts (edges, counts, d^2) come from +, -, * and /, which IEEE
arithmetic rounds correctly, so their bytes carry across CPUs and numpy
builds. Values that go through exp, log or erfc (oracle, sweep, fukunaga,
consistency, bounds --model) can differ in the last bits between builds,
since numpy picks its exp and log kernels by the CPU. So ulps_apart
compares a float written at 17 significant digits within ULPS units in
the last place of the committed one, and every other byte exactly:
integers, text, and SVG files whole.

`--help` is left out: argparse lays its text out differently across the
Python versions CI runs, and tests/test_cli.py already pins each
subcommand's flags.

After a change that moves bits on purpose, rewrite expected/ with

    PYTHONPATH=src python tests/golden/regen.py

and review the moved files in `git diff tests/golden`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import shutil
import struct
import tempfile
from pathlib import Path

from dpdiv import cli

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
ULPS = 2 ** 12
_ALL_FORMATS = ["--format", "json,csv,svg"]

CASES = {
    "estimate": ["estimate", "--a", "inputs/a.csv", "--b", "inputs/b.csv"],
    "estimate_labeled": ["estimate", "--a", "inputs/a_labeled.csv",
                         "--b", "inputs/b_labeled.csv"],
    # warns of the source's duplicate rows and of the unequal source and target pools
    "bounds_target": ["bounds", "--source", "inputs/source.csv", "--target", "inputs/target.csv",
                      "--label-drift", "0.05"],
    "select_audit": ["select", "--source", "inputs/source.csv", "--k", "2", "--audit"],
    "select_audit_target": ["select", "--source", "inputs/source.csv", "--target",
                            "inputs/target.csv", "--shift-weight", "0.5", "--k", "2", "--audit"],
    "mst_dump_ties": ["mst-dump", "--input", "inputs/ties.csv"],
    "refuse_column_count": ["estimate", "--a", "inputs/a.csv", "--b", "inputs/b_3col.csv"],
    "refuse_target_column_order": ["bounds", "--source", "inputs/source.csv",
                                   "--target", "inputs/target_swapped.csv"],
    "refuse_model_string": ["oracle", "--model", "inputs/model_quoted.json"],
    "refuse_one_class": ["bounds", "--source", "inputs/source_one_class.csv"],
    "refuse_bad_cell": ["select", "--source", "inputs/source_bad_cell.csv"],
    "refuse_bad_label": ["bounds", "--source", "inputs/source_bad_label.csv"],
    "refuse_missing_file": ["estimate", "--a", "inputs/none.csv", "--b", "inputs/b.csv"],
    "refuse_shift_weight_alone": ["select", "--source", "inputs/source.csv",
                                  "--shift-weight", "1"],
    "refuse_format": ["select", "--source", "inputs/source.csv", "--format", "svg"],
    # variance vectors and a prior of 0.3, on the 1-D quadrature grid
    "oracle_1d_prior": ["oracle", "--model", "inputs/model_1d_prior.json"],
    # correlated full covariances on the 2-D grid
    "oracle_2d_alpha": ["oracle", "--model", "inputs/model_2d.json", "--alpha", "0.3"],
    # Monte Carlo, with one variance vector and one full covariance
    "oracle_4d": ["oracle", "--model", "inputs/model_4d.json"],
    "bounds_model_target": ["bounds", "--source", "inputs/source.csv", "--model",
                            "inputs/model_3d.json", "--target", "inputs/target.csv"],
    "sweep": ["sweep", "--steps", "4", "--n", "30", "--trials", "2", *_ALL_FORMATS],
    "fukunaga_d1": ["fukunaga", "--dataset", "D1", "--n", "50", "--trials", "3", *_ALL_FORMATS],
    "fukunaga_d2": ["fukunaga", "--dataset", "D2", "--n", "50", "--trials", "3", *_ALL_FORMATS],
    "consistency": ["consistency", "--sizes", "20,40", "--trials", "2", *_ALL_FORMATS],
    "consistency_1d_variances": ["consistency", "--model", "inputs/model_1d.json",
                                 "--sizes", "20,40", "--trials", "2"],
    "refuse_model_nested_mean": ["oracle", "--model", "inputs/model_nested_mean.json"],
    "refuse_model_bare_mean": ["oracle", "--model", "inputs/model_bare_mean.json"],
    "refuse_model_cov_length": ["oracle", "--model", "inputs/model_cov_length.json"],
}


def run(argv) -> dict[str, bytes]:
    """Run one command in process: each file it writes, and its exit code,
    stdout and stderr, as bytes by name."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(HERE)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out", tmp])
        finally:
            os.chdir(cwd)
        files = {name: (Path(tmp) / name).read_bytes() for name in os.listdir(tmp)}
    return {**files, "exit_code": f"{code}\n".encode(),
            "stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}


def expected(case) -> dict[str, bytes]:
    """The committed bytes of one case, by name."""
    return {path.name: path.read_bytes() for path in (EXPECTED / case).iterdir()}


# a number as serialize writes it; the group keeps it in re.split's output
_NUMBER = re.compile(rb"(-?\d+(?:\.\d+)?(?:e[+-]\d+)?)")


def _ordinal(x: float) -> int:
    """x's place on the line of float64 values, in ulps from 0."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps_apart(name, got: bytes | None, want: bytes | None) -> float:
    """How far the bytes of file name are from the committed ones: 0 when
    equal, else the largest distance in ulps between a float of got and the
    float at the same place in want; inf when anything else differs, a
    whole .svg file or a missing one included."""
    if got == want:
        return 0
    if got is None or want is None or name.endswith(".svg"):
        return math.inf
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts) or got_parts[::2] != want_parts[::2]:
        return math.inf
    worst = 0
    for g, w in zip(got_parts[1::2], want_parts[1::2]):
        if g == w:
            continue
        if not any(b"." in t or b"e" in t for t in (g, w)):
            return math.inf  # integers differ
        worst = max(worst, abs(_ordinal(float(g)) - _ordinal(float(w))))
    return worst


def main():
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for case, argv in CASES.items():
        (EXPECTED / case).mkdir(parents=True)
        for name, data in run(argv).items():
            (EXPECTED / case / name).write_bytes(data)


if __name__ == "__main__":
    main()
