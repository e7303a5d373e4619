import math
import os

import pytest

from dpdiv.serialize import atomic_write_text, json_dumps
from dpdiv.svgplot import line_plot_svg


@pytest.mark.parametrize("obj, text", [({}, "{}\n"), ([], "[]\n")])
def test_json_dumps_of_an_empty_container(obj, text):
    assert json_dumps(obj) == text


def test_json_dumps_rejects_an_unsupported_type():
    with pytest.raises(TypeError, match="cannot serialize set"):
        json_dumps({"a": {1}})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_dumps_rejects_a_non_finite_float(value):
    with pytest.raises(ValueError, match="non-finite"):
        json_dumps([value])


def test_failed_atomic_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_text(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "new \ud800\n")  # a lone surrogate has no UTF-8 form
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


@pytest.mark.parametrize("series", [[], [{"x": [], "y": [], "label": "empty"}]],
                         ids=["no_series", "empty_series"])
def test_line_plot_svg_rejects_a_plot_without_points(series):
    with pytest.raises(ValueError) as caught:
        line_plot_svg(series)
    assert str(caught.value) == "series must contain at least one point"
