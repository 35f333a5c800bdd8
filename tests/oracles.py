"""Reference values that only the tests need.

Pure oracles that no command reaches: the cluster profiles a1 and a2 of
the Yang-Yang fixed point (a2 by quadrature), the bulk span of a work
distribution and the alignment tolerance built from it, and the pinned
rapidity shortcut for highly excited ring states.  They live here so the
package runs on numpy alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from dualgas.core import ConfigError
from dualgas.eos import _kernel
from dualgas.work import WorkDistribution


# ---------------------------------------------------------------------------
# Cluster profiles of the dressed-energy fixed point
# ---------------------------------------------------------------------------


def a1_profile(k: np.ndarray, beta: float, hbar: float = 1.0) -> np.ndarray:
    """Leading cluster profile a1(k) = e^{-beta hbar^2 k^2}."""
    return np.exp(-beta * hbar**2 * np.asarray(k) ** 2)


def a2_profile(
    k: np.ndarray,
    beta: float,
    coupling: float,
    hbar: float = 1.0,
    reading: str = "q",
) -> np.ndarray:
    """Second cluster profile a2(k).

    reading="q" is the coefficient generated by the implemented fixed
    point: expanding ln(1 + z e^{-beta eps}) to O(z^2) gives

        a2(k) = a1(k) (2C/pi) int hbar^2 a1(q) / (C^2 + 4 hbar^4 (k-q)^2) dq .

    reading="k" evaluates the convolution integrand at q = k instead,
    which collapses the integral to the closed form -2 hbar a1(k)^2 /
    a1(k) ... i.e. the tabulated shorthand -2 hbar e^{-beta hbar^2 k^2};
    it is kept for comparison and is *not* consistent with the solver.
    """
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    a1 = a1_profile(karr, beta, hbar)
    if reading == "k":
        out = -2.0 * hbar * a1
    elif reading == "q":
        vals = np.empty_like(karr)
        lim = 8.0 / (math.sqrt(beta) * hbar)
        for i, kk in enumerate(karr):
            vals[i], _ = quad(
                lambda q: math.exp(-beta * hbar**2 * q * q)
                * _kernel(kk - q, coupling, hbar),
                -lim,
                lim,
                limit=400,
            )
        out = a1 * (2.0 * coupling / math.pi) * vals
    else:
        raise ConfigError(f"unknown a2 reading {reading!r}")
    return out if np.ndim(k) else float(out[0])


# ---------------------------------------------------------------------------
# Work
# ---------------------------------------------------------------------------


def quantile_span(dist: WorkDistribution, lo: float = 1e-3, hi: float = 0.999):
    """Work positions bracketing the central mass (lo, hi) quantiles."""
    order = np.argsort(dist.works, kind="stable")
    w = dist.works[order]
    c = np.cumsum(dist.probabilities[order]) / dist.mass
    i = min(int(np.searchsorted(c, lo)), w.size - 1)
    j = min(int(np.searchsorted(c, hi)), w.size - 1)
    return float(w[i]), float(w[j])


def comparison_resolution(
    a: WorkDistribution, b: WorkDistribution, fraction: float = 0.02
) -> float:
    """Alignment tolerance for comparing two routes to the same distribution.

    A fixed fraction of the union bulk span (central _99.8%_ of the mass),
    so stray far atoms of negligible weight cannot inflate the scale and
    make the comparison vacuous.
    """
    a_lo, a_hi = quantile_span(a)
    b_lo, b_hi = quantile_span(b)
    return fraction * (max(a_hi, b_hi) - min(a_lo, b_lo))


def free_momentum_work(quantum_numbers, lam_i: float, lam_f: float, hbar: float = 1.0) -> float:
    """Highly-excited-state shortcut: rapidities pinned at 2 pi I / lam.

    Valid when every |I_l| >> N/2; the neglected phase-shift terms are
    O(sum_j Delta I / sum I^2) relative (they grow with the spread of I).
    """
    I = np.asarray(quantum_numbers, dtype=float)
    return float(4.0 * hbar**2 * np.pi**2 * (I**2).sum() * (1.0 / lam_f**2 - 1.0 / lam_i**2))
