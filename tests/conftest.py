import os
import re
import subprocess
import sys
from pathlib import Path

import hypothesis
import numpy as np

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("ci")


def run_cli(args, cwd, timeout=600):
    """Run ``python -m dualgas *args`` in ``cwd`` on the package pytest imported."""
    return run_python(["-m", "dualgas", *args], cwd, timeout)


def run_python(args, cwd, timeout=600):
    """Run ``python *args`` in ``cwd`` with the package pytest imported,
    for at most ``timeout`` seconds (``subprocess.TimeoutExpired`` past it).

    The child gets a copy of this process's environment with the absolute
    directory holding the imported ``dualgas`` first on PYTHONPATH.  A
    relative entry such as ``PYTHONPATH=src`` would otherwise resolve
    against ``cwd``, and the child would fail to import the package or pick
    up a different installed copy.
    """
    import dualgas  # here, so a broken package fails the caller, not collection

    root = str(Path(dualgas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def svg_curve(path):
    """(labels, points) of a curve SVG: its axis-end labels by class, as
    floats, and its one polyline's points as an (n, 2) array."""
    text = Path(path).read_text()
    labels = {k: float(v) for k, v in re.findall(r'<text [^>]*class="([^"]+)"[^>]*>([^<]*)<', text)}
    (points,) = re.findall(r'<polyline points="([^"]*)"', text)
    return labels, np.array([[float(v) for v in p.split(",")] for p in points.split()])
