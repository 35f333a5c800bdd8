"""Bethe-ansatz spectra of the contact gas on a ring.

Rapidities k_l of an N-particle state on a ring of circumference lam solve

    lam * k_l = 2 pi I_l - 2 sum_j arctan(2 hbar^2 (k_l - k_j) / C)

with quantum numbers I_l on the Pauli grid: distinct integers for odd N,
distinct half-odd-integers for even N.  The left-hand side is the gradient
of a strictly convex action, so damped Newton from the hard-core start
k = 2 pi I / lam converges for every repulsive C > 0; C = TG_COUPLING is
exact (k = 2 pi I / lam), and C = 0 is rejected here (rapidities coalesce;
use the ideal-gas references in `work` instead).

Energy is hbar^2 sum k_l^2 (2m = 1); total momentum hbar sum k_l is pinned
to 2 pi hbar sum I_l / lam by the equations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError

__all__ = [
    "BetheSolverError",
    "SpectrumTable",
    "theta",
    "theta_prime",
    "solve_bethe_batch",
    "enumerate_states",
    "spectral_tail_bound",
]


# Newton steps per solve, and terms of the tail-bound series, before either
# gives up
_MAX_ITER = 80
_MAX_TERMS = 100_000


class BetheSolverError(RuntimeError):
    """Newton iteration failed to converge (should not happen for C > 0)."""


def _check_coupling(coupling: float) -> None:
    """Accept C > 0 or inf; C = 0, a negative C and nan are ConfigErrors."""
    if not (coupling >= 0):  # also rejects nan
        raise ConfigError(f"contact coupling must be >= 0, got {coupling}")
    if coupling == 0.0:
        raise ConfigError(
            "C = 0 rapidities coalesce onto 2*pi*n/lam; use the ideal-gas "
            "references instead of the Bethe solver"
        )


def theta(k, coupling: float, hbar: float = 1.0):
    """Two-body phase shift arctan(2 hbar^2 k / C); odd in k, C > 0 or inf.

    Hard-core limit -> 0 identically.
    """
    k = np.asarray(k, dtype=float)
    _check_coupling(coupling)
    if math.isinf(coupling):
        return np.zeros_like(k)
    return np.arctan((2.0 * hbar**2 / coupling) * k)


def theta_prime(k, coupling: float, hbar: float = 1.0):
    """d theta / dk = 2 hbar^2 C / (C^2 + 4 hbar^4 k^2); C > 0 or inf."""
    k = np.asarray(k, dtype=float)
    _check_coupling(coupling)
    if math.isinf(coupling):
        return np.zeros_like(k)
    with np.errstate(over="ignore"):  # k^2 past double range: the slope is 0
        return 2.0 * hbar**2 * coupling / (coupling**2 + 4.0 * hbar**4 * k**2)


def _residual(K, I2pi, lam, coupling, hbar):
    # K: (S, N) rapidities; I2pi = 2*pi*I precomputed
    th = theta(K[:, :, None] - K[:, None, :], coupling, hbar)
    return lam * K + 2.0 * th.sum(axis=2) - I2pi


def _jacobian(K, lam, coupling, hbar):
    tp = theta_prime(K[:, :, None] - K[:, None, :], coupling, hbar)
    idx = np.arange(K.shape[1])
    tp[:, idx, idx] = 0.0
    J = -2.0 * tp
    J[:, idx, idx] = lam + 2.0 * tp.sum(axis=2)
    return J


def solve_bethe_batch(
    quantum_numbers,
    lam: float,
    coupling: float,
    hbar: float = 1.0,
    tol: float = 1e-12,
):
    """Newton solve for a (S, N) stack of quantum-number rows.

    Returns (rapidities, residuals) with shapes (S, N) and (S,).  The
    Jacobian lam*1 + 2*(graph Laplacian of theta') is symmetric positive
    definite, so the undamped step is well posed; a per-row backtracking
    line search on the residual norm guards the far-from-solution regime.
    Rows are taken as given: `enumerate_states` builds them on the Pauli
    grid, strictly increasing.
    """
    I = np.atleast_2d(np.asarray(quantum_numbers, dtype=float))
    if not (lam > 0):  # also rejects nan
        raise ConfigError(f"ring circumference must be positive, got {lam}")
    _check_coupling(coupling)
    K = 2.0 * np.pi * I / lam  # hard-core warm start
    if math.isinf(coupling):
        return K, np.zeros(K.shape[0])

    I2pi = 2.0 * np.pi * I
    scale = np.maximum(1.0, np.abs(I2pi).max(axis=1))
    F = _residual(K, I2pi, lam, coupling, hbar)
    fnorm = np.abs(F).max(axis=1)
    for _ in range(_MAX_ITER):
        active = ~(fnorm <= tol * scale)  # a nan residual stays active
        if not active.any():
            break
        Ka = K[active]
        Ia = I2pi[active]
        J = _jacobian(Ka, lam, coupling, hbar)
        dk = np.linalg.solve(J, -F[active][..., None])[..., 0]
        base = fnorm[active]
        t = np.ones(Ka.shape[0])
        for _halving in range(60):
            trial = Ka + t[:, None] * dk
            Ft = _residual(trial, Ia, lam, coupling, hbar)
            fnt = np.abs(Ft).max(axis=1)
            ok = fnt < base
            if ok.all():
                break
            t[~ok] *= 0.5
        else:
            raise BetheSolverError("line search stalled (residual not decreasing)")
        K[active] = trial
        F[active] = Ft
        fnorm[active] = fnt
    else:
        bad = np.nonzero(~(fnorm <= tol * scale))[0]
        raise BetheSolverError(
            f"Newton did not converge for {bad.size} state(s), first index {bad[0]}"
        )
    return K, fnorm / scale


def _log_comb(n: int, k: int) -> float:
    """log C(n, k) of the exact integer binomial; -inf where there is none."""
    return math.log(math.comb(n, k)) if 0 <= k <= n else -math.inf


def spectral_tail_bound(
    lam: float,
    n_particles: int,
    i_max: float,
    beta: float,
    hbar: float = 1.0,
) -> float:
    """Upper bound on sum exp(-beta E) over all states with max|I_l| > i_max.

    The phase shifts obey |theta| < pi/2, so a state whose largest quantum
    number has magnitude v carries a rapidity with
    |k| >= max(0, (2 pi v - pi N) / lam), hence E >= hbar^2 k^2.  States
    with that extremum number at most 2 * C(2v+1, N-1) (choose the sign of
    the extremal I and the remaining grid points).  C > 0 only tightens the
    bound, so it is coupling-independent.  A series that has not closed
    within its term cap (tiny beta) raises ArithmeticError rather than
    return a partial sum as the bound.
    """
    if not (0 < beta < math.inf):  # also rejects nan
        raise ConfigError(f"beta must be positive and finite, got {beta}")
    n = n_particles
    step0 = 0.5 if n % 2 == 0 else 0.0
    # first grid value strictly above i_max
    v = math.floor(i_max - step0) + 1 + step0
    if v <= i_max:
        v += 1.0
    total = 0.0
    prev = prev_log = None
    for _ in range(_MAX_TERMS):
        kmin = max(0.0, (2.0 * np.pi * v - np.pi * n) / lam)
        L = int(2.0 * v + 1.0)
        logterm = math.log(2.0) + _log_comb(L, n - 1) - beta * (hbar * kmin) ** 2
        term = math.exp(min(logterm, 700.0))
        total += term
        if prev is not None and term < prev and term < 1e-30 * max(total, 1.0):
            # Gaussian decay has set in; close with a geometric remainder
            r = term / prev
            total += term * r / (1.0 - r)
            return total
        if term == 0.0 and prev_log is not None and logterm < prev_log:
            # logterm is concave in v: once it falls below underflow and
            # decreases, every later term is 0 as well
            return total
        prev, prev_log = term, logterm
        v += 1.0
    raise ArithmeticError(
        f"the ring tail bound did not close within {_MAX_TERMS} terms at "
        f"beta={beta:g}, lambda={lam:g}, i_max={i_max:g}"
    )


@dataclass
class SpectrumTable:
    """Enumerated ring spectrum, one row per state, sorted by (energy, I).

    The table holds its rows only: a caller that needs the circumference,
    hbar or i_max it was enumerated at already has them, and the tail
    beyond i_max is `spectral_tail_bound`'s.
    """

    quantum_numbers: np.ndarray  # (S, N)
    rapidities: np.ndarray  # (S, N)
    residuals: np.ndarray  # (S,)
    energies: np.ndarray  # (S,)

    def __len__(self) -> int:
        return self.energies.size


def enumerate_states(
    lam: float,
    coupling: float,
    n_particles: int,
    i_max: float,
    hbar: float = 1.0,
    max_states: int = 2_000_000,
) -> SpectrumTable:
    """Solve every state with all |I_l| <= i_max; sorted by (energy, I).

    For even N, i_max is compared against the half-odd-integer grid, so
    e.g. i_max = 9.5 admits 20 grid values and C(20, 2) = 190 pair states.
    """
    n = n_particles
    if n < 1:
        raise ConfigError("need at least one particle")
    if not math.isfinite(i_max):
        raise ConfigError(f"the quantum-number cutoff i_max = {i_max} is not finite")
    # the grid runs from -top + step0 to top - 1 + odd + step0 in unit
    # steps; it and its states are counted before either is built
    odd = n % 2
    step0 = 0.0 if odd else 0.5
    top = math.floor(i_max + 1e-9) if odd else math.ceil(i_max + 1e-9 - 0.5)
    size = max(0, 2 * top + odd)
    if size < n:
        raise ConfigError(f"i_max={i_max} admits only {size} grid values for N={n}")
    if math.comb(size, n) > max_states:
        raise ConfigError(
            f"i_max = {i_max:g} gives more than max_states = {max_states} states "
            f"for N = {n}; lower i_max"
        )
    lattice = np.arange(-top, top + odd, dtype=float) + step0
    I = np.array(list(itertools.combinations(lattice, n)), dtype=float)
    K, res = solve_bethe_batch(I, lam, coupling, hbar)
    with np.errstate(over="ignore"):  # counted as not finite just below
        energies = hbar**2 * np.sum(K**2, axis=1)
    bad = np.count_nonzero(~np.isfinite(energies))
    if bad:
        raise BetheSolverError(
            f"{bad} of {energies.size} states have no finite energy at "
            f"lam={lam}, C={coupling}, hbar={hbar}"
        )
    order = np.lexsort(tuple(I[:, j] for j in range(n - 1, -1, -1)) + (energies,))
    return SpectrumTable(
        quantum_numbers=I[order],
        rapidities=K[order],
        residuals=res[order],
        energies=energies[order],
    )
