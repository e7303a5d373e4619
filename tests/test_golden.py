"""The golden corpus in tests/golden: each command of its table gives the
committed bytes, floats within ULPS of them, and the same bytes twice over
in one process (see tests/golden/regen.py)."""

import math

from golden.regen import CASES, EXPECTED, ULPS, expected, run, ulps_apart


def test_the_table_gives_the_committed_bytes_twice_in_one_process():
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(CASES)
    want = {case: expected(case) for case in CASES}
    first = {case: run(argv) for case, argv in CASES.items()}
    assert {case: run(argv) for case, argv in CASES.items()} == first
    moved = [f"{case}/{name}" for case in CASES
             for name in sorted(first[case].keys() | want[case].keys())
             if ulps_apart(name, first[case].get(name), want[case].get(name)) > ULPS]
    assert moved == []


def _text(x):
    return format(x, ".17g").encode()


def test_ulps_apart_reads_floats_within_ulps_and_everything_else_exactly():
    assert ulps_apart("a.json", b'{"x": 0.25}', b'{"x": 0.25}') == 0
    assert ulps_apart("a.json", b'{"x": 0.25}', b'{"x": 0.25000000000000006}') == 1
    tiny = -1e-5
    assert ulps_apart("a.csv", _text(tiny) + b",2\n",
                      _text(math.nextafter(tiny, -1.0)) + b",2\n") == 1
    assert ulps_apart("a.csv", _text(tiny), _text(math.nextafter(tiny, 1.0))) == 1
    assert ulps_apart("a.json", b"-0.5", b"-0.49999999999999994") == 1
    assert ulps_apart("a.json", b"1", b"0.99999999999999989") == 1
    assert ulps_apart("a.json", _text(5e-324), _text(-5e-324)) == 2
    for got, want in ((b'{"n": 3}', b'{"n": 4}'), (b'{"x": 0.5}', b'{"y": 0.5}'),
                      (b"0.5,1", b"0.5")):
        assert ulps_apart("a.json", got, want) == math.inf
    assert ulps_apart("a.svg", b"<svg>0.5</svg>", b"<svg>0.50000000000000011</svg>") == math.inf
    assert ulps_apart("a.json", None, b"0.5") == math.inf
