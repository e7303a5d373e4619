"""The golden corpus in tests/golden: each command of its table gives the
committed bytes, twice over in one process (see tests/golden/regen.py)."""

from golden.regen import CASES, EXPECTED, expected, run


def test_the_table_gives_the_committed_bytes_twice_in_one_process():
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(CASES)
    want = {case: expected(case) for case in CASES}
    for _ in range(2):
        got = {case: run(argv) for case, argv in CASES.items()}
        moved = [f"{case}/{name}" for case in CASES
                 for name in sorted(got[case].keys() | want[case].keys())
                 if got[case].get(name) != want[case].get(name)]
        assert moved == []
