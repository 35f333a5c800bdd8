"""Finite-temperature equation of state from the dressed-energy fixed point.

The pressure of the homogeneous gas in the thermodynamic limit follows from
a single dressed excitation energy eps(k) satisfying

    eps(k) = -mu + hbar^2 k^2
             - (2 C / (pi beta)) int hbar^3 ln(1 + e^{-beta eps(q)})
                                      / (C^2 + hbar^4 (k - q)^2) dq

with the convolution taken over the whole line, and

    P(mu, beta) = (1 / (2 pi beta)) int ln(1 + e^{-beta eps(k)}) dk .

The kernel carries one more power of hbar than the textbook Yang-Yang form;
its q-integral is pi hbar / C, so the bracket prefactor scales like
2 hbar / beta and the interaction term vanishes in the hard-core limit
C -> inf, where eps reduces to the free-fermion dispersion.  The weak
coupling limit C -> 0 of this kernel does *not* reduce to the ideal Bose
branch unless hbar = 1/2; callers probing C << hbar^2 / thermal length
should treat the output as the literal fixed point of the equation above,
nothing more.

Number density is obtained as D = dP/dmu by Richardson-extrapolated central
differences, and the small-fugacity structure (a1, a2, b1, b2) is exposed
for cross-checking against the cluster expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np
import scipy.fft

from .core import ConfigError

__all__ = [
    "EosConvergenceError",
    "EosSolution",
    "a1_profile",
    "a2_profile",
    "default_grid",
    "density",
    "fugacity_coefficients",
    "pressure",
    "solve_yang_yang",
    "virial_ratio",
]


class EosConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""


def default_grid(
    beta: float, mu: float, coupling: float, hbar: float = 1.0
) -> tuple[float, int]:
    """Momentum window and point count for the dressed-energy solve.

    The window is set so the Fermi-type weight at the edge is below
    e^{-34}; the step resolves both the thermal scale 1/(sqrt(beta) hbar)
    and, when narrower, the Lorentzian kernel width C / hbar^2.  The
    discrete convolution only needs the *kernel* resolved -- the solution
    itself stays thermally smooth.
    """
    if not (0.0 < beta < math.inf):  # also rejects nan
        raise ConfigError(f"beta must be positive and finite, got {beta}")
    if hbar <= 0.0:
        raise ConfigError(f"hbar must be positive, got {hbar}")
    k_max = math.sqrt((36.0 + max(beta * mu, 0.0)) / beta) / hbar
    h = 1.0 / (20.0 * math.sqrt(beta) * hbar)
    if math.isfinite(coupling) and coupling > 0.0:
        h = min(h, coupling / (8.0 * hbar**2))
    n_half = int(math.ceil(k_max / h))
    n = 2 * min(max(n_half, 400), 200_000) + 1
    return k_max, n


@dataclass(frozen=True)
class EosSolution:
    """Converged dressed energy on a symmetric k-grid."""

    beta: float
    mu: float
    coupling: float
    hbar: float
    k: np.ndarray = field(repr=False)
    epsilon: np.ndarray = field(repr=False)
    pressure: float
    iterations: int
    residual: float

    @property
    def log_occupancy(self) -> np.ndarray:
        """ln(1 + e^{-beta eps(k)}) on the stored grid."""
        return np.logaddexp(0.0, -self.beta * self.epsilon)

    @property
    def filling(self) -> np.ndarray:
        """Fermi-type weight 1 / (1 + e^{beta eps(k)})."""
        return 0.5 * (1.0 - np.tanh(0.5 * self.beta * self.epsilon))


def _kernel(u: np.ndarray, coupling: float, hbar: float) -> np.ndarray:
    return hbar**3 / (coupling**2 + hbar**4 * u * u)


def _same_convolution(
    kern: np.ndarray, n: int
) -> Callable[[np.ndarray], np.ndarray]:
    """f -> scipy.signal.fftconvolve(f, kern, mode="same") for real f of size n.

    Makes the scipy.fft calls fftconvolve makes for 1-D real input, so the
    bits agree, but transforms the kernel once for every f.
    """
    nfft = scipy.fft.next_fast_len(n + kern.size - 1, True)
    kern_hat = scipy.fft.rfftn(kern, [nfft], axes=[0])
    lo = (kern.size - 1) // 2  # start of the centred n of the full n+m-1

    def conv(f: np.ndarray) -> np.ndarray:
        full = scipy.fft.irfftn(
            scipy.fft.rfftn(f, [nfft], axes=[0]) * kern_hat, [nfft], axes=[0]
        )
        return full[lo : lo + n]

    return conv


def solve_yang_yang(
    beta: float,
    mu: float,
    coupling: float,
    hbar: float = 1.0,
    k_max: Optional[float] = None,
    n_k: Optional[int] = None,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> EosSolution:
    """Solve the dressed-energy equation by damped fixed-point iteration.

    Starts from the free dispersion eps0 = -mu + hbar^2 k^2 and iterates
    the defining map, evaluating the Lorentzian convolution with an FFT.
    Plain iteration contracts only while the filling is small -- the
    linearized map is positive with norm ~ 2 hbar <f>, so no mixing factor
    rescues it in the degenerate regime -- hence a Newton fallback on the
    full Toeplitz-times-diagonal Jacobian takes over when the residual
    stops shrinking.  C = inf is the hard-core point: the interaction term
    is dropped and eps0 is returned exactly.
    """
    if not (coupling >= 0.0):  # also rejects nan
        raise ConfigError(f"coupling must be nonnegative, got {coupling}")
    if coupling == 0.0:
        raise ConfigError("C = 0 dressed-energy kernel is singular; use a small C")
    km_auto, n_auto = default_grid(beta, mu, coupling, hbar)
    km = km_auto if k_max is None else float(k_max)
    n = n_auto if n_k is None else int(n_k)
    if n % 2 == 0:
        n += 1
    k = np.linspace(-km, km, n)
    eps0 = -mu + hbar**2 * k * k

    if math.isinf(coupling):
        lng = np.logaddexp(0.0, -beta * eps0)
        p = float(np.trapezoid(lng, k)) / (2.0 * math.pi * beta)
        return EosSolution(beta, mu, coupling, hbar, k, eps0, p, 0, 0.0)

    eps, it, res = _solve_on_grid(beta, mu, coupling, hbar, k, tol, max_iter)
    if eps is None:
        # Continuation: walk mu up from a dilute anchor, warm-starting each
        # step, so Newton always launches inside its basin.
        mu_anchor = min(mu, math.log(0.1) / beta)
        seed = -mu_anchor + hbar**2 * k * k
        total = 0
        for m in np.linspace(mu_anchor, mu, 9)[1:]:
            seed, it, res = _solve_on_grid(
                beta, float(m), coupling, hbar, k, tol, max_iter, seed
            )
            if seed is None:
                raise EosConvergenceError(
                    f"dressed energy not converged: residual {res:.3e} at "
                    f"beta={beta}, mu={m}, C={coupling} (continuation)"
                )
            total += it
        eps, it = seed, total
    lng = np.logaddexp(0.0, -beta * eps)
    p = float(np.trapezoid(lng, k)) / (2.0 * math.pi * beta)
    return EosSolution(beta, mu, coupling, hbar, k, eps, p, it, res)


def _solve_on_grid(
    beta: float,
    mu: float,
    coupling: float,
    hbar: float,
    k: np.ndarray,
    tol: float,
    max_iter: int,
    seed: Optional[np.ndarray] = None,
):
    """One grid-level solve: plain iteration, then Newton with line search.

    Returns (eps, iterations, residual); eps is None on failure so the
    caller can try continuation.
    """
    n = k.size
    h = k[1] - k[0]
    eps0 = -mu + hbar**2 * k * k
    kern = _kernel(h * (np.arange(n) - n // 2), coupling, hbar)
    pref = 2.0 * coupling / (math.pi * beta)
    scale = max(1.0, float(np.abs(eps0).max()))
    conv = _same_convolution(kern, n)

    def apply_map(e: np.ndarray) -> np.ndarray:
        return eps0 - pref * h * conv(np.logaddexp(0.0, -beta * e))

    eps = eps0.copy() if seed is None else seed.copy()
    best = math.inf
    best_eps = eps
    stalls = 0
    res = math.inf
    for it in range(1, max_iter + 1):
        new = apply_map(eps)
        res = float(np.abs(new - eps).max()) / scale
        if not math.isfinite(res):
            break
        eps = new
        if res < tol:
            return eps, it, res
        if res < 0.7 * best:
            best, best_eps, stalls = res, eps, 0
        else:
            stalls += 1
        if stalls >= 4 or res > 1e3:
            break

    if n > 6000:
        return None, max_iter, res
    # Newton-Kantorovich on G(eps) = map(eps) - eps with a dense
    # Toeplitz-times-diagonal Jacobian; the plain map is expansive once
    # 2 hbar <filling> crosses 1, Newton is not.
    eps = best_eps if math.isfinite(best) else eps0.copy()
    kidx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    ktab = _kernel(h * np.arange(n, dtype=float), coupling, hbar)[kidx]
    g = apply_map(eps) - eps
    gnorm = float(np.linalg.norm(g))
    for it in range(1, 60):
        filling = 0.5 * (1.0 - np.tanh(0.5 * beta * eps))
        jac = (pref * h * beta) * ktab * filling[None, :]
        np.fill_diagonal(jac, jac.diagonal() - 1.0)
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -g, rcond=None)[0]
        step = 1.0
        improved = False
        for _ in range(30):
            trial = eps + step * delta
            g_try = apply_map(trial) - trial
            gn_try = float(np.linalg.norm(g_try))
            if gn_try < (1.0 - 1e-4 * step) * gnorm:
                eps, g, gnorm = trial, g_try, gn_try
                improved = True
                break
            step *= 0.5
        res = float(np.abs(g).max()) / scale
        if res < tol:
            return eps, it, res
        if not improved:
            break
    return None, max_iter, res


def pressure(
    beta: float,
    mu: float,
    coupling: float,
    hbar: float = 1.0,
    **grid: float,
) -> float:
    """P(mu, beta) from a fresh dressed-energy solve."""
    return solve_yang_yang(beta, mu, coupling, hbar, **grid).pressure


def density(
    beta: float,
    mu: float,
    coupling: float,
    hbar: float = 1.0,
    rel_step: float = 1e-4,
    k_max: Optional[float] = None,
    n_k: Optional[int] = None,
) -> float:
    """Number density D = dP/dmu by Richardson-extrapolated central differences.

    All four pressure evaluations share one grid (sized for the base mu) so
    the difference quotient sees a smooth function of mu.
    """
    if k_max is None or n_k is None:
        km, n = default_grid(beta, max(mu, 0.0) + 2.0 / beta, coupling, hbar)
        k_max = km if k_max is None else k_max
        n_k = n if n_k is None else n_k
    step = rel_step * max(1.0 / beta, abs(mu))

    def p_of(m: float) -> float:
        return solve_yang_yang(
            beta, m, coupling, hbar, k_max=k_max, n_k=n_k
        ).pressure

    d1 = (p_of(mu + step) - p_of(mu - step)) / (2.0 * step)
    d2 = (p_of(mu + 0.5 * step) - p_of(mu - 0.5 * step)) / step
    return (4.0 * d2 - d1) / 3.0


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

        a2(k) = a1(k) (2C/pi) int hbar^3 a1(q) / (C^2 + hbar^4 (k-q)^2) dq .

    reading="k" evaluates the convolution integrand at q = k instead,
    which collapses the integral to the closed form -2 hbar a1(k)^2 /
    a1(k) ... i.e. the tabulated shorthand -2 hbar e^{-beta hbar^2 k^2};
    it is kept for comparison and is *not* consistent with the solver.
    """
    from scipy.integrate import quad  # not at import: it slows every start-up

    karr = np.atleast_1d(np.asarray(k, dtype=float))
    a1 = a1_profile(karr, beta, hbar)
    if reading == "k":
        out = -2.0 * hbar * a1
    elif reading == "q":
        vals = np.empty_like(karr)
        c2 = coupling**2
        h4 = hbar**4
        h3 = hbar**3
        lim = 8.0 / (math.sqrt(beta) * hbar)
        for i, kk in enumerate(karr):
            vals[i], _ = quad(
                lambda q: h3
                * math.exp(-beta * hbar**2 * q * q)
                / (c2 + h4 * (kk - q) ** 2),
                -lim,
                lim,
                limit=400,
            )
        out = a1 * (2.0 * coupling / math.pi) * vals
    else:
        raise ConfigError(f"unknown a2 reading {reading!r}")
    return out if np.ndim(k) else float(out[0])


def fugacity_coefficients(
    beta: float, coupling: float, hbar: float = 1.0
) -> Dict[str, float]:
    """Cluster integrals entering D = (1/2pi)(b1 z + 2 b2 z^2).

    b1 integrates a1 over k (Gaussian, sqrt(pi / beta) / hbar); the entry
    "b1_tabulated" keeps the 2 pi (sqrt(beta) hbar)^{-1} shorthand that
    differs from the integral by sqrt(4 pi).  b2 integrates
    a2(q-reading) - a1^2 / 2 and goes to the free-fermion value
    -sqrt(pi/2)/(2 sqrt(beta) hbar) as C -> inf.
    """
    from scipy.integrate import quad  # not at import: it slows every start-up

    if not 0.0 < hbar < math.inf:
        raise ConfigError(f"hbar must be positive and finite, got {hbar}")
    b1 = math.sqrt(math.pi / beta) / hbar
    b1_tab = 2.0 * math.pi / (math.sqrt(beta) * hbar)
    lim = 8.0 / (math.sqrt(beta) * hbar)
    if math.isinf(coupling):
        b2 = -0.5 * math.sqrt(math.pi / (2.0 * beta)) / hbar
    else:
        b2, _ = quad(
            lambda kk: float(a2_profile(kk, beta, coupling, hbar))
            - 0.5 * math.exp(-2.0 * beta * hbar**2 * kk * kk),
            -lim,
            lim,
            limit=400,
        )
    return {"b1": b1, "b1_tabulated": b1_tab, "b2": float(b2)}


def virial_ratio(
    beta: float,
    coupling: float,
    density_target: float,
    hbar: float = 1.0,
) -> Dict[str, float]:
    """P beta / D at fixed density, with its two-term virial estimates.

    "full" inverts D(mu) = density_target with brentq and evaluates the
    converged pressure there.  "expansion" is the consistent two-term
    result 1 - 2 pi D b2 / b1^2; "tabulated" is the shorthand
    1 - b2 sqrt(beta) D kept for comparison.
    """
    from scipy.optimize import brentq  # not at import: it slows every start-up

    if not 0.0 < density_target < math.inf:
        raise ConfigError(
            f"density_target must be positive and finite, got {density_target}"
        )
    co = fugacity_coefficients(beta, coupling, hbar)
    z0 = 2.0 * math.pi * density_target / co["b1"]
    mu0 = math.log(z0) / beta

    def gap(m: float) -> float:
        # Past the degenerate edge the kernel's net attraction collapses
        # the sheet; treat a failed solve as "density above target" so the
        # bracket stays on the physical branch (roots probed here sit well
        # inside it, and the result is verified after the solve).
        try:
            return density(beta, m, coupling, hbar) - density_target
        except EosConvergenceError:
            return density_target

    half = 4.0 / beta
    lo, hi = mu0 - half, mu0 + half
    g_lo, g_hi = gap(lo), gap(hi)
    for _ in range(6):
        if g_lo < 0.0 < g_hi:
            break
        if g_lo >= 0.0:
            lo -= 2.0 * half
            g_lo = gap(lo)
        if g_hi <= 0.0:
            hi += 2.0 * half
            g_hi = gap(hi)
    else:
        raise EosConvergenceError("could not bracket the chemical potential")
    mu = brentq(gap, lo, hi, xtol=1e-12 / beta, rtol=8.9e-16)
    check = density(beta, mu, coupling, hbar)
    if abs(check - density_target) > 1e-6 * density_target:
        raise EosConvergenceError(
            f"density inversion landed at D={check:.6e}, "
            f"target {density_target:.6e}"
        )
    p = pressure(beta, mu, coupling, hbar)
    full = p * beta / density_target
    expansion = 1.0 - 2.0 * math.pi * density_target * co["b2"] / co["b1"] ** 2
    tabulated = 1.0 - co["b2"] * math.sqrt(beta) * density_target
    return {
        "full": full,
        "expansion": expansion,
        "tabulated": tabulated,
        "mu": mu,
        "pressure": p,
        "z": math.exp(beta * mu),
    }
