"""Deterministic file emitters: CSV with metadata header, JSON, SVG curves.

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


# Rows write_csv formats at once: a numpy column converts to Python scalars
# a slice at a time, not one numpy scalar a cell.
_CSV_SLICE = 512


def _slice(column: Sequence, lo: int) -> Sequence:
    part = column[lo:lo + _CSV_SLICE]
    return part.tolist() if isinstance(part, np.ndarray) else part


def write_csv(
    path: Pathish,
    columns: Mapping[str, Sequence],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Comma-separated table with a '#'-prefixed key=value header block.

    Column order is the mapping order (callers fix it); metadata keys are
    sorted.  All columns must share one length.  Each is read as given: a
    list of strings copied into a numpy array would take four bytes a
    character at its longest string's width.
    """
    path = Path(path)
    lengths = {len(c) for c in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    # a slice of rows at a time: a joined text set large tables' peak memory
    with open(path, "w") as fh:
        for key in sorted(metadata or {}):
            fh.write(f"# {key} = {format_value((metadata or {})[key])}\n")
        fh.write(",".join(columns) + "\n")
        for lo in range(0, n, _CSV_SLICE):
            cells = [map(format_value, _slice(c, lo)) for c in columns.values()]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
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


# Fixed canvas: the plot box spans x in [_LEFT, _RIGHT], y in [_TOP, _BOTTOM];
# the left margin holds a y label of up to 24 characters.
_WIDTH, _HEIGHT = 800, 360
_LEFT, _RIGHT, _TOP, _BOTTOM = 184.0, 784.0, 24.0, 328.0


# The name is the benchmark's: perfbench/tracer.py wraps and counts this
# writer by name, so a rename waits for a change to the benchmark.
def write_svg_heatmap(path: Pathish, x, y, title: str = "") -> Path:
    """Minimal SVG of the curve (x, y) as one polyline; no plotting deps.

    The plot box runs from x[0] to x[-1] and from 0 to max y; the x ends
    and max y are printed as labels in round-trip form.  Points have two
    decimals in the fixed viewBox.  A flat curve draws a flat line.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    x_lo, x_hi, y_hi = float(x[0]), float(x[-1]), float(y.max())
    sx = (_RIGHT - _LEFT) / (x_hi - x_lo) if x_hi != x_lo else 0.0
    sy = (_BOTTOM - _TOP) / y_hi if y_hi > 0.0 else 0.0
    points = " ".join(f"{u:.2f},{v:.2f}" for u, v in zip(
        (_LEFT + (x - x_lo) * sx).tolist(), (_BOTTOM - y * sy).tolist()))
    text = '<text font-family="monospace" font-size="12"'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'{text} x="4" y="14">{title}</text>',
        f'<path d="M{_LEFT:g} {_TOP:g}V{_BOTTOM:g}H{_RIGHT:g}" fill="none" stroke="black"/>',
        f'{text} class="y-hi" x="{_LEFT - 4:g}" y="{_TOP + 4:g}" '
        f'text-anchor="end">{format_value(y_hi)}</text>',
        f'{text} class="x-lo" x="{_LEFT:g}" y="{_BOTTOM + 16:g}">{format_value(x_lo)}</text>',
        f'{text} class="x-hi" x="{_RIGHT:g}" y="{_BOTTOM + 16:g}" '
        f'text-anchor="end">{format_value(x_hi)}</text>',
        f'<polyline points="{points}" fill="none" stroke="#3b528b"/>',
        "</svg>",
    ]
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path
