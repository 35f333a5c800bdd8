"""The benchmark's workloads: fixed sequences of `python -m dualgas` commands.

Each workload is a list of ops; an op is the argv of one CLI invocation
(without `--out-dir`, which the runner adds).  Seed 0 gives the nominal
commands below.  Any other seed jitters only continuous physical
parameters, inside ranges narrow enough that the cost of a pass stays
level: basis cutoffs, grid counts, `imax`, particle numbers and ramp
durations never change, so a seed changes the numbers a pass computes but
not how much work it does.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

# Every op runs single-threaded: `--threads` is scheduling, not physics,
# and one thread keeps a pass from contending with itself on a small host.
THREADS = ["--threads", "1"]

# (low, high) ranges for the jittered parameters; each nominal value lies
# inside its range.  Some are narrower than the physically interesting
# span so that the seed does not become a cost knob.  The dressed-energy
# solve's Newton fallback stops being needed on the beta = 10 isotherm
# between C = 1.02 and 1.03, which cuts that op from about 4.5 to 3.2 s
# (and 40 % at C = 2-3); the ramp ODE keeps every step, so its peak RSS
# falls from 417 to 375 MiB as v goes from 4 to 5.7.
RANGES = {
    "alpha": (4.0, 6.0),
    "c": (0.5, 2.0),
    "c_f": (5.0, 20.0),
    "v": (4.8, 5.2),
    "fig2_scale": (0.95, 1.05),
    "eos_c": (1.0, 1.02),
    "density": (0.095, 0.105),
}

NOMINAL = {
    "alpha": 5.0,
    "c": 1.0,
    "c_f": 10.0,
    "v": 5.0,
    "fig2_scale": 1.0,
    "eos_c": 1.0,
    "density": 0.1,
}


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _spectra(p: Callable[[str], str]) -> List[List[str]]:
    return [
        ["box-spectrum", "--alpha", p("alpha"), "--m", "60", "--n-levels", "10"],
        ["convergence", "--alpha", p("alpha"), "--m-list", "20,40,60"],
        ["duality-check", "--alpha", p("alpha"), "--m", "40", "--states", "4"],
        ["fig1", "--alpha", p("alpha"), "--m", "40"],
    ]


def _tpm(p: Callable[[str], str]) -> List[List[str]]:
    scale = float(p("fig2_scale"))
    couplings = ",".join(_fmt(c * scale) for c in (0.5, 1.0, 10.0))
    return [
        ["work", "--geometry", "box", "--protocol", "ramp", "--v", p("v"),
         "--tau", "0.2", "--beta", "1", "--m", "14"],
        ["work", "--geometry", "box", "--protocol", "sudden-coupling",
         "--c", p("c"), "--c-f", p("c_f"), "--beta", "1", "--m", "20"],
        ["fig2", "--c-list", couplings, "--beta-list", "1,0.1,0.01",
         "--m", "8", "--tau", "0.2"],
        ["work", "--geometry", "box", "--protocol", "adiabatic",
         "--beta", "0.05", "--m", "40"],
    ]


def _thermo(p: Callable[[str], str]) -> List[List[str]]:
    # `--mu-grid=` keeps argparse from reading a negative start as a flag.
    return [
        ["eos", "--beta", "1", "--c", p("eos_c"), "--mu-grid=-4:0:101",
         "--hbar-sweep", "1,0.5,0.3,0.2,0.1", "--density", p("density")],
        ["eos", "--beta", "10", "--c", p("eos_c"), "--mu-grid=-2:0.1:101",
         "--hbar-sweep", "1,0.5,0.3,0.2,0.1", "--density", p("density")],
        ["ring-spectrum", "--n", "3", "--lambda", "20", "--c", "10",
         "--imax", "20"],
        ["work", "--geometry", "ring", "--protocol", "adiabatic", "--n", "3",
         "--c", p("c"), "--beta", "0.1", "--imax", "12"],
    ]


_BUILDERS: Dict[str, Callable] = {
    "spectra": _spectra,
    "tpm": _tpm,
    "thermo": _thermo,
}

WORKLOADS = tuple(_BUILDERS)


def ops(workload: str, seed: int) -> List[List[str]]:
    """The argv of every op of `workload` at `seed`, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    drawn: Dict[str, str] = {}

    def param(key: str) -> str:
        # one draw per parameter, shared by every op that uses it
        if key not in drawn:
            if seed == 0:
                drawn[key] = _fmt(NOMINAL[key])
            else:
                drawn[key] = _fmt(rng.uniform(*RANGES[key]))
        return drawn[key]

    return [argv + THREADS for argv in _BUILDERS[workload](param)]
