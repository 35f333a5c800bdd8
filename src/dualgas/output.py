"""Deterministic file emitters: CSV with metadata header, JSON, SVG rasters.

Every artifact embeds the resolved run configuration so a file is
self-describing; identical configurations must produce byte-identical
output, so floats are written with repr (shortest round-trip form) and
dict keys are emitted in sorted order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = ["format_value", "write_csv", "write_json", "write_svg_heatmap"]

Pathish = Union[str, Path]


def format_value(v) -> str:
    """Round-trip text for scalars: repr for floats, plain str otherwise."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(
    path: Pathish,
    columns: Mapping[str, Sequence],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Comma-separated table with a '#'-prefixed key=value header block.

    Column order is the mapping order (callers fix it); metadata keys are
    sorted.  All columns must share one length.
    """
    path = Path(path)
    cols = {name: np.asarray(vals) for name, vals in columns.items()}
    lengths = {c.shape[0] for c in cols.values()}
    if len(lengths) > 1:
        raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    lines = []
    for key in sorted(metadata or {}):
        lines.append(f"# {key} = {format_value((metadata or {})[key])}")
    lines.append(",".join(cols))
    for i in range(n):
        lines.append(",".join(format_value(c[i]) for c in cols.values()))
    path.write_text("\n".join(lines) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no infinity or NaN; use the spelling CSV cells and flags use
        return format_value(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: Pathish, payload: Mapping[str, object]) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    )
    return path


# Seven-stop dark-to-light map; linear interpolation between stops.
_STOPS = np.array(
    [
        (68, 1, 84),
        (70, 50, 127),
        (54, 92, 141),
        (39, 127, 142),
        (31, 161, 135),
        (74, 194, 109),
        (253, 231, 37),
    ],
    dtype=float,
)


def _rgb(u: np.ndarray) -> list:
    """'#rrggbb' for each u, the map clipped to [0, 1]; rounds half to even."""
    pos = np.clip(u, 0.0, 1.0) * (len(_STOPS) - 1)
    i = np.minimum(pos.astype(int), len(_STOPS) - 2)
    frac = (pos - i)[..., None]
    rgb = np.rint(_STOPS[i] + frac * (_STOPS[i + 1] - _STOPS[i])).astype(int)
    return [f"#{r:02x}{g:02x}{b:02x}" for r, g, b in rgb.reshape(-1, 3).tolist()]


def write_svg_heatmap(
    path: Pathish,
    values: np.ndarray,
    title: str = "",
    width: int = 640,
) -> Path:
    """Minimal rect-raster SVG for quick inspection; no plotting deps.

    values[i, j] is drawn with row i at the top.  The color scale is
    linear between the array min and max (flat arrays render as the low
    color).
    """
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
    u = (z - lo) / span if span > 0.0 else np.zeros_like(z)
    # cell k is row k // cols, column k % cols
    parts.extend(
        f'<rect x="{(k % cols) * cell}" y="{(k // cols) * cell + pad_top}" '
        f'width="{cell}" height="{cell}" fill="{fill}"/>'
        for k, fill in enumerate(_rgb(u))
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
    return Path(path)
