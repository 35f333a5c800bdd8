"""Reference values that only the tests need.

Pure oracles that no command reaches: the cluster profiles a1 and a2 of
the Yang-Yang fixed point (a2 by quadrature), the box pair's eigenvectors
as one dense matrix, the box pair's sign-mapped amplitude and its
momentum distribution with its partner integral done exactly, the bulk
span of a work distribution and the alignment tolerance built from it,
the mean-work identities of the two sudden box quenches, the ideal Bose
and Fermi ring pairs with the classical equipartition mean, and the
pinned rapidity shortcut for highly excited ring states.  They
live here so the package runs on numpy alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from dualgas.boxspec import (
    BoxSpectrum,
    BoxState,
    box_modes,
    contact_block,
    contact_coupling,
    contact_expectation,
    unit_pair_operators,
)
from dualgas.core import ConfigError
from dualgas.eos import _kernel
from dualgas.work import WorkDistribution, _thermal, merge_atoms


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
# Box eigenvectors
# ---------------------------------------------------------------------------


def dense_vectors(sp: BoxSpectrum) -> np.ndarray:
    """The dim x dim matrix whose columns are the levels' eigenvectors,
    zero off each level's parity block, as the package once stored them."""
    V = np.zeros((sp.basis.dim, len(sp)))
    for pairs, x, levels in sp.blocks:
        V[np.ix_(pairs, levels)] = x
    return V


# ---------------------------------------------------------------------------
# Momentum of the sign-mapped box pair
# ---------------------------------------------------------------------------


def _partial_ft(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """int_0^y e^{icx} dx on the outer grid c x y, exact.

    It is y sinc(cy/pi) + i y sin(cy/2) sinc(cy/2pi), which np.sinc keeps
    finite at the removable point c = 0.
    """
    cy = np.multiply.outer(c, y)
    return y * (np.sinc(cy / np.pi) + 1j * np.sin(0.5 * cy) * np.sinc(cy / (2.0 * np.pi)))


def sign_mapped_amplitude(state: BoxState, x: np.ndarray) -> np.ndarray:
    """sign(x2 - x1) psi(x1, x2) on the grid x x x, +1 on the diagonal,
    with psi = U A U^T the basis's amplitude."""
    U = box_modes(x, state.model.length, state.basis.cutoff)
    return np.where(x[None, :] >= x[:, None], 1.0, -1.0) * (U @ state.A @ U.T)


def sign_mapped_momentum(state: BoxState, k: np.ndarray, n_gauss: int = 400) -> np.ndarray:
    """n(k) of the sign-mapped amplitude with the partner integral exact.

    G(k, x2) = int e^{-ikx1} sign(x2 - x1) psi(x1, x2) dx1 splits at x1 =
    x2 into the mode integrals I_a(k, y) = int_0^y u_a e^{-ikx} dx, closed
    form through sin = (e^{iax} - e^{-iax}) / 2i, as 2 I_a(k, x2) -
    I_a(k, lam); the removable points k = +-n pi / lam are safe.  n(k) =
    (1/pi) int |G(k, x2)|^2 dx2 then has a smooth integrand, taken by
    Gauss-Legendre on n_gauss nodes.
    """
    lam, m = state.model.length, state.basis.cutoff
    k = np.asarray(k, dtype=float)
    t, tw = np.polynomial.legendre.leggauss(n_gauss)
    y, wy = 0.5 * lam * (t + 1.0), 0.5 * lam * tw
    n = np.arange(1, m + 1)
    U = math.sqrt(2.0 / lam) * np.sin(np.pi * np.outer(n, y) / lam)  # (m, len(y))
    B = state.A @ U  # B[a, j] = sum_b A_ab u_b(y_j)
    G = np.zeros((k.size, y.size), dtype=complex)
    for a in range(m):
        q = (a + 1) * np.pi / lam

        def partial(z):
            return math.sqrt(2.0 / lam) * (_partial_ft(q - k, z) - _partial_ft(-q - k, z)) / 2j

        G += (2.0 * partial(y) - partial(np.array([lam]))) * B[a]
    return (np.abs(G) ** 2) @ wy / np.pi


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


def level_parity(sp: BoxSpectrum) -> np.ndarray:
    """(p + q) % 2 of each level's pairs: the reflection block it lies in."""
    p, q = sp.basis.labels()
    out = np.empty(len(sp), dtype=np.int8)
    for pairs, _, levels in sp.blocks:
        out[levels] = (p[pairs[0]] + q[pairs[0]]) % 2
    return out


def frozen_mean_work(sp: BoxSpectrum, beta: float) -> float:
    """<W> of an instant expansion from sp's box, by its identity.

    The frozen state keeps its quadratic form, and H_f's kinetic and contact
    integrals on it run over the small box where it lives, so <W> = sum_i
    p_i (v_i.T H_i v_i - E_i) = 0 within the model.  Taken from the dense
    H_i and eigenvectors, it reads how well the stored blocks diagonalize H_i.
    """
    ops = unit_pair_operators(sp.basis.cutoff, sp.basis.sign)
    lam, model = sp.model.length, sp.model
    H = contact_coupling(model.coupling) / lam * contact_block(ops, np.arange(sp.basis.dim))
    H[np.diag_indices_from(H)] += model.hbar**2 * ops["k1"] / lam**2
    V = dense_vectors(sp)
    p, _ = _thermal(sp.energies, beta)
    return float(np.sum(p * ((V * (H @ V)).sum(axis=0) - sp.energies)))


def thermal_contact(sp: BoxSpectrum, beta: float) -> float:
    """sum_i p_i <delta(x1 - x2)>_i: a coupling quench C_i -> C_f from sp's
    thermal state does (C_f - C_i) times this work on average, exactly."""
    p, _ = _thermal(sp.energies, beta)
    return float(np.sum(p * [contact_expectation(sp.state(i)) for i in range(len(sp))]))


def ideal_pair_reference(
    lam_i: float, lam_f: float, beta: float, n_particles: int, statistics: str,
    hbar: float = 1.0,
) -> WorkDistribution:
    """Adiabatic ring rescaling of an ideal Bose or Fermi pair.

    Fermions take the half-odd-integer (antiperiodic) momentum grid, so
    their C -> inf dual matches the hard-core Bethe states of the pair.
    """
    if n_particles != 2 or statistics not in ("boson", "fermion"):
        raise ConfigError("exchange-corrected references are for boson or fermion pairs")
    n_max = int(math.ceil(lam_i * math.sqrt(-math.log(1e-18) / beta) / (2.0 * np.pi * hbar))) + 1
    n = np.arange(-n_max, n_max + 1, dtype=float) + (0.5 if statistics == "fermion" else 0.0)
    e1 = hbar**2 * (2.0 * np.pi * n / lam_i) ** 2
    i, j = np.triu_indices(e1.size, k=0 if statistics == "boson" else 1)
    e2 = e1[i] + e1[j]
    p, ln_z = _thermal(e2, beta)
    w, p, lp = merge_atoms((lam_i**2 / lam_f**2 - 1.0) * e2, p, -beta * e2 - ln_z)
    return WorkDistribution(w, p, lp, beta)


def equipartition_mean_work(lam_i: float, lam_f: float, n_particles: int, beta: float) -> float:
    """Classical adiabatic mean work (lam_i^2/lam_f^2 - 1) N / (2 beta)."""
    return (lam_i**2 / lam_f**2 - 1.0) * n_particles / (2.0 * beta)


def free_momentum_work(quantum_numbers, lam_i: float, lam_f: float, hbar: float = 1.0) -> float:
    """Highly-excited-state shortcut: rapidities pinned at 2 pi I / lam.

    Valid when every |I_l| >> N/2; the neglected phase-shift terms are
    O(sum_j Delta I / sum I^2) relative (they grow with the spread of I).
    """
    I = np.asarray(quantum_numbers, dtype=float)
    return float(4.0 * hbar**2 * np.pi**2 * (I**2).sum() * (1.0 / lam_f**2 - 1.0 / lam_i**2))
