"""The golden corpus: dpdiv commands over the committed inputs in inputs/,
and the bytes each one gives.

CASES maps a case name to a command line. A case runs through cli.main in
process, with this directory as the working directory, so every path in a
message is relative to it, and with a fresh --out directory. Its expected
bytes are the files under expected/<case>/: each artifact the command
writes, plus `exit_code`, `stdout` and `stderr`.

The table holds only commands whose values come from +, -, *, / and sqrt.
IEEE arithmetic rounds those correctly, so the bytes carry across CPUs and
numpy builds. Values that go through exp, log or erfc (oracle, sweep,
fukunaga, consistency, bounds --model) can differ in the last bit between
builds; they wait for a comparison within a stated number of ulps.

After a change that moves bits on purpose, rewrite expected/ with

    PYTHONPATH=src python tests/golden/regen.py

and review the moved files in `git diff tests/golden`.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

from dpdiv import cli

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

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


def main():
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for case, argv in CASES.items():
        (EXPECTED / case).mkdir(parents=True)
        for name, data in run(argv).items():
            (EXPECTED / case / name).write_bytes(data)


if __name__ == "__main__":
    main()
