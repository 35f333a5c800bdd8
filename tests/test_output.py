import json
import tracemalloc

import numpy as np
import pytest

from conftest import svg_curve
from dualgas import output as out


def test_format_value_round_trips():
    assert out.format_value(True) == "true"
    assert out.format_value(np.bool_(False)) == "false"
    assert out.format_value(0.1) == "0.1"
    assert float(out.format_value(1.0 / 3.0)) == 1.0 / 3.0
    assert out.format_value(np.float64(2.5)) == "2.5"
    assert out.format_value(np.int64(7)) == "7"
    assert out.format_value("label") == "label"


def test_csv_layout_and_determinism(tmp_path):
    cols = {"b": np.array([1.0, 2.0]), "a": np.array([3, 4])}
    meta = {"zeta": 1.5, "alpha": "x"}
    p1 = out.write_csv(tmp_path / "one.csv", cols, meta)
    p2 = out.write_csv(tmp_path / "two.csv", cols, meta)
    text = p1.read_text()
    lines = text.splitlines()
    # metadata sorted, column order preserved as given
    assert lines[0] == "# alpha = x"
    assert lines[1] == "# zeta = 1.5"
    assert lines[2] == "b,a"
    assert lines[3] == "1.0,3"
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_writes_a_list_of_strings_without_copying_it(tmp_path):
    # 10,000 strings of 60 characters: as a numpy array they would take
    # 2.3 MiB, four bytes a character
    col = [f"{i:060d}" for i in range(10_000)]
    tracemalloc.start()
    try:
        path = out.write_csv(tmp_path / "s.csv", {"label": col, "index": np.arange(10_000)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20
    assert path.read_text().splitlines()[-1] == f"{9_999:060d},9999"


@pytest.mark.parametrize("n", [0, 1, out._CSV_SLICE - 1, out._CSV_SLICE,
                               out._CSV_SLICE + 1])
def test_csv_rows_match_the_per_cell_reference(tmp_path, n):
    # slices convert numpy columns with tolist(); each cell must read as
    # format_value of the cell indexed alone
    floats = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, -1.0 / 3.0]
    cols = {
        "float": np.resize(np.array(floats), n),
        "int": np.arange(n, dtype=np.int64) - 7,
        "bool": np.arange(n) % 3 == 0,
        "str": [f"s{i}|{i / 7!r}" for i in range(n)],
        "pyfloat": [floats[i % len(floats)] * (i + 1) for i in range(n)],
        "npfloat": [np.float64(floats[i % len(floats)]) for i in range(n)],
    }
    path = out.write_csv(tmp_path / "t.csv", cols)
    reference = [",".join(cols)] + [
        ",".join(out.format_value(c[i]) for c in cols.values()) for i in range(n)]
    assert path.read_text() == "".join(line + "\n" for line in reference)


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        out.write_csv(tmp_path / "bad.csv", {"a": [1, 2], "b": [1]})


def test_json_handles_numpy_and_sorts_keys(tmp_path):
    payload = {
        "b": np.float64(0.5),
        "a": np.array([1.0, 2.0]),
        "c": {"y": np.int32(3), "x": np.bool_(True)},
    }
    p = out.write_json(tmp_path / "r.json", payload)
    text = p.read_text()
    data = json.loads(text)
    assert data == {"b": 0.5, "a": [1.0, 2.0], "c": {"y": 3, "x": True}}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_svg_curve_is_one_polyline_with_its_axis_ends(tmp_path):
    x = np.linspace(-2.0, 3.0, 11)  # through x = 0, where y = 0
    y = x**2
    p = out.write_svg_heatmap(tmp_path / "c.svg", x, y, title="demo")
    text = p.read_text()
    assert text.startswith("<svg") and ">demo</text>" in text
    assert text.count("<polyline") == 1 and "<rect" not in text
    labels, pts = svg_curve(p)
    assert labels == {"x-lo": -2.0, "x-hi": 3.0, "y-hi": 9.0}
    assert pts[[0, -1], 0].tolist() == [out._LEFT, out._RIGHT]
    assert pts[:, 1].min() == out._TOP and pts[:, 1].max() == out._BOTTOM


@pytest.mark.parametrize("y", [0.0, 2.5, -1.0])
def test_svg_flat_curve_draws_a_flat_line(tmp_path, y):
    # a flat curve must not divide by zero: every point sits at one height
    p = out.write_svg_heatmap(tmp_path / "f.svg", np.arange(5.0), np.full(5, y))
    _, pts = svg_curve(p)
    assert np.isfinite(pts).all() and np.unique(pts[:, 1]).size == 1
    one = out.write_svg_heatmap(tmp_path / "one.svg", [1.0], [y])
    assert np.isfinite(svg_curve(one)[1]).all()


def test_json_writes_non_finite_floats_as_strings(tmp_path):
    payload = {
        "c": float("inf"),
        "r": np.float64(-np.inf),
        "x": [np.nan, 1.5],
        "a": np.array([[1.0, np.inf], [-np.inf, np.nan]]),
    }
    p = out.write_json(tmp_path / "r.json", payload)

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    data = json.loads(p.read_text(), parse_constant=reject)
    assert data == {
        "c": "inf",
        "r": "-inf",
        "x": ["nan", 1.5],
        "a": [[1.0, "inf"], ["-inf", "nan"]],
    }


def test_json_raises_on_an_unmapped_non_finite_value(tmp_path, monkeypatch):
    # a value that slips past _jsonable must fail, not write bare Infinity
    monkeypatch.setattr(out, "_jsonable", lambda obj: obj)
    with pytest.raises(ValueError):
        out.write_json(tmp_path / "r.json", {"c": float("inf")})
