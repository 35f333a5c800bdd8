import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def test_svg_heatmap_structure(tmp_path):
    vals = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    p = out.write_svg_heatmap(tmp_path / "m.svg", vals, title="demo")
    text = p.read_text()
    assert text.startswith("<svg")
    assert text.count("<rect") == 12
    assert "demo" in text
    # flat data must not divide by zero; renders at the low end of the map
    q = out.write_svg_heatmap(tmp_path / "f.svg", np.ones((2, 2)))
    assert q.read_text().count("<rect") == 4


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


# Per-cell heatmap writer, one color at a time: the byte-level reference
# for the vectorized write_svg_heatmap.
def _rgb_reference(u: float) -> str:
    stops = out._STOPS
    pos = min(max(u, 0.0), 1.0) * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    frac = pos - i
    r, g, b = stops[i] + frac * (stops[i + 1] - stops[i])
    return f"#{int(round(r)):02x}{int(round(g)):02x}{int(round(b)):02x}"


def svg_heatmap_reference(path, values, title="", width=640):
    z = np.atleast_2d(np.asarray(values, dtype=float))
    rows, cols = z.shape
    cell = max(1, width // cols)
    w, h = cell * cols, cell * rows
    pad_top = 18 if title else 0
    lo, hi = float(z.min()), float(z.max())
    span = hi - lo
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
        f'height="{h + pad_top}" shape-rendering="crispEdges">'
    ]
    if title:
        parts.append(
            f'<text x="4" y="13" font-family="monospace" font-size="12">'
            f"{title}</text>"
        )
    for i in range(rows):
        for j in range(cols):
            u = (z[i, j] - lo) / span if span > 0.0 else 0.0
            parts.append(
                f'<rect x="{j * cell}" y="{i * cell + pad_top}" '
                f'width="{cell}" height="{cell}" fill="{_rgb_reference(u)}"/>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
    return Path(path)


def _on_stops(shape):
    # u = k/12: even k lands on a stop, odd k halfway between two, where a
    # channel can end in .5; a final 0 and 12 fix min and max
    n = shape[0] * shape[1]
    return st.lists(st.integers(0, 12), min_size=n, max_size=n).map(
        lambda ks: (np.array(ks[:-2] + [0, 12], dtype=float) / 12.0).reshape(shape))


_shapes = st.tuples(st.integers(1, 6), st.integers(1, 700))
_values = st.one_of(
    _shapes.flatmap(lambda s: arrays(
        float, s, elements=st.floats(-1e6, 1e6, allow_nan=False))),
    _shapes.flatmap(lambda s: st.floats(-5.0, 5.0).map(lambda v: np.full(s, v))),
    st.tuples(st.integers(1, 4), st.integers(2, 9)).flatmap(_on_stops),
)


@given(_values, st.sampled_from(["", "demo"]), st.sampled_from([640, 64, 1]))
def test_svg_heatmap_bytes_equal_per_cell_reference(tmp_path_factory, values, title, width):
    d = tmp_path_factory.mktemp("svg")
    new = out.write_svg_heatmap(d / "new.svg", values, title=title, width=width)
    ref = svg_heatmap_reference(d / "ref.svg", values, title=title, width=width)
    assert new.read_bytes() == ref.read_bytes()


def test_svg_heatmap_single_cell_and_stop_colors(tmp_path):
    one = out.write_svg_heatmap(tmp_path / "one.svg", np.array([[3.0]]))
    assert one.read_bytes() == svg_heatmap_reference(
        tmp_path / "ref.svg", np.array([[3.0]])).read_bytes()
    stops = np.arange(7.0).reshape(1, 7) / 6.0
    text = out.write_svg_heatmap(tmp_path / "s.svg", stops).read_text()
    for r, g, b in out._STOPS.astype(int):
        assert f'fill="#{r:02x}{g:02x}{b:02x}"' in text
