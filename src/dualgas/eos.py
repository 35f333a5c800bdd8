"""Finite-temperature equation of state from the Yang-Yang dressed energy.

The pressure of the homogeneous gas in the thermodynamic limit follows from
a single dressed excitation energy eps(k) satisfying the Yang-Yang equation

    eps(k) = -mu + hbar^2 k^2
             - (1 / (2 pi beta)) int 2c / (c^2 + (k - k')^2)
                                     ln(1 + e^{-beta eps(k')}) dk' ,

    c = C / (2 hbar^2) ,

whose kernel is the derivative of the ring's two-body phase shift
2 arctan(2 hbar^2 k / C) (see `ringspec`), and

    P(mu, beta) = (1 / (2 pi beta)) int ln(1 + e^{-beta eps(k)}) dk .

The kernel 2c / (c^2 + u^2) integrates to 2 pi, so the map contracts: its
linearization has norm at most the largest filling
f = 1 / (1 + e^{beta eps}) < 1.  The number density is

    D = dP/dmu = (1 / 2 pi) int f(k) q(k) dk ,

with the dressed charge q = -d eps / d mu solving the linear equation

    q(k) = 1 + (1 / 2 pi) int 2c / (c^2 + (k - k')^2) f(k') q(k') dk' .

Differentiating both equations once more gives the slope

    dD/dmu = (1 / 2 pi) int beta f(k) (1 - f(k)) q(k)^3 dk .

The hard-core limit C -> inf drops the kernel: eps is the free-fermion
dispersion and q = 1.  Expanding ln(1 + z e^{-beta eps}) in the fugacity
z gives the cluster profiles a1(k) = e^{-beta hbar^2 k^2} and a2(k) (their
quadrature oracle lives with the tests); `fugacity_coefficients` returns
their integrals b1 and b2.  The pair cluster integral is a Gaussian in
k + q times a Lorentzian in k - q, so

    b2 = sqrt(pi / (2 beta)) / hbar * (erfcx(x) - 1/2) ,
    x = C sqrt(beta) / (2 sqrt(2) hbar) ,

with erfcx(x) = e^{x^2} erfc(x): 1 for free bosons, 0 at the hard core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .core import ConfigError, check_coupling, check_positive

__all__ = [
    "EosConvergenceError",
    "EosSolution",
    "default_grid",
    "fugacity_coefficients",
    "solve_yang_yang",
    "virial_ratio",
]


# Relative step at which the fixed-point iteration stops, and its cap
_TOL = 1e-12
_MAX_ITER = 500


class EosConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach tolerance."""


def default_grid(
    beta: float, mu: float, coupling: float, hbar: float = 1.0
) -> tuple[float, int]:
    """Momentum window and point count for the dressed-energy solve.

    The window edge sits where hbar^2 k^2 exceeds 2 mu by 36 / beta.
    Repulsion pushes the dressed Fermi point out from sqrt(mu) / hbar
    (hard core) toward sqrt(2 mu) / hbar (weak coupling), so the
    Fermi-type weight at the edge stays below about e^{-34}.  The step
    resolves both the thermal scale 1/(sqrt(beta) hbar) and, when
    narrower, the Lorentzian kernel width C / hbar^2.  The
    discrete convolution only needs the *kernel* resolved -- the solution
    itself stays thermally smooth.
    """
    check_positive("beta", beta)
    check_coupling("contact coupling", coupling)
    check_positive("hbar", hbar)
    k_max = math.sqrt((36.0 + max(2.0 * beta * mu, 0.0)) / beta) / hbar
    h = 1.0 / (20.0 * math.sqrt(beta) * hbar)
    if math.isfinite(coupling) and coupling > 0.0:
        h = min(h, coupling / (8.0 * hbar**2))
    n_half = int(math.ceil(k_max / h))
    n = 2 * min(max(n_half, 400), 200_000) + 1
    return k_max, n


@dataclass(frozen=True)
class EosSolution:
    """Converged dressed energy on a symmetric k-grid, with P, D and dD/dmu."""

    beta: float
    mu: float
    k: np.ndarray = field(repr=False)
    epsilon: np.ndarray = field(repr=False)
    pressure: float
    density: float
    density_slope: float
    iterations: int
    residual: float


def _filling(beta: float, eps: np.ndarray) -> np.ndarray:
    """1 / (1 + e^x) at x = beta eps, as e^{-x} / (1 + e^{-x}) for x > 0, so
    the dilute tail keeps its relative precision instead of cancelling."""
    x = beta * eps
    e = np.exp(-np.abs(x))
    return np.where(x > 0.0, e, 1.0) / (1.0 + e)


def _kernel(u: np.ndarray, coupling: float, hbar: float) -> np.ndarray:
    """Yang-Yang kernel without its prefactor 2C/pi: hbar^2 / (C^2 + 4 hbar^4 u^2)."""
    return hbar**2 / (coupling**2 + 4.0 * hbar**4 * u * u)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, as scipy.fft.next_fast_len(n, True) gives."""
    best = 1 << (n - 1).bit_length()  # the power of two at or above n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _same_convolution(
    kern: np.ndarray, n: int
) -> Callable[[np.ndarray], np.ndarray]:
    """f -> scipy.signal.fftconvolve(f, kern, mode="same") for real f of size n.

    fftconvolve pads 1-D real input to next_fast_len(n + m - 1, True) and
    calls scipy.fft.rfftn and irfftn; np.fft.rfft and irfft at that length
    run the same pocketfft transforms, so the bits agree.  The kernel is
    transformed once for every f.
    """
    nfft = _next_fast_len(n + kern.size - 1)
    kern_hat = np.fft.rfft(kern, nfft)
    lo = (kern.size - 1) // 2  # start of the centred n of the full n+m-1

    def conv(f: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(f, nfft) * kern_hat, nfft)[lo : lo + n]

    return conv


def solve_yang_yang(
    beta: float,
    mu: float,
    coupling: float,
    hbar: float = 1.0,
    k_max: Optional[float] = None,
    n_k: Optional[int] = None,
) -> EosSolution:
    """Solve the dressed-energy equation, then its dressed charge.

    Starts from the free dispersion eps0 = -mu + hbar^2 k^2 and iterates
    the defining map, evaluating the Lorentzian convolution with an FFT.
    C = inf is the hard-core point: the interaction term is dropped and
    eps0 is returned exactly.  The density is the trapezoid integral of
    f q on the same grid, so it is the exact mu-derivative of the returned
    (discrete) pressure; its slope dD/dmu integrates beta f (1 - f) q^3.
    k_max > 0 and an integer n_k >= 3 (made odd) replace `default_grid`'s
    window and point count.
    """
    km_auto, n_auto = default_grid(beta, mu, coupling, hbar)  # checks the inputs
    if k_max is not None:
        check_positive("k_max", k_max)
    if n_k is not None and not (isinstance(n_k, (int, np.integer)) and n_k >= 3):
        raise ConfigError(f"n_k must be an integer >= 3, got {n_k}")
    if coupling == 0.0:
        raise ConfigError("C = 0 dressed-energy kernel is singular; use a small C")
    km = km_auto if k_max is None else float(k_max)
    n = n_auto if n_k is None else int(n_k)
    if n % 2 == 0:
        n += 1
    k = np.linspace(-km, km, n)
    if math.isinf(coupling):
        eps, charge, it, res = -mu + hbar**2 * k * k, 1.0, 0, 0.0
    else:
        eps, charge, it, res = _solve_on_grid(beta, mu, coupling, hbar, k)
    lng = np.logaddexp(0.0, -beta * eps)
    p = float(np.trapezoid(lng, k)) / (2.0 * math.pi * beta)
    f = _filling(beta, eps)
    d = float(np.trapezoid(f * charge, k)) / (2.0 * math.pi)
    slope = beta * float(np.trapezoid(f * (1.0 - f) * charge**3, k)) / (2.0 * math.pi)
    return EosSolution(beta, mu, k, eps, p, d, slope, it, res)


def _solve_on_grid(
    beta: float,
    mu: float,
    coupling: float,
    hbar: float,
    k: np.ndarray,
):
    """Plain iteration for eps, then for the dressed charge q at that eps.

    Both maps have the linearization (2C/pi) h K * (f .), of norm at most
    max f < 1, so both contract.  Returns (eps, q, iterations, residual),
    the count and residual being those of eps; raises EosConvergenceError
    when either stalls at _MAX_ITER or turns non-finite.
    """
    n = k.size
    h = k[1] - k[0]
    eps0 = -mu + hbar**2 * k * k
    weight = 2.0 * coupling / math.pi * h
    # the kernel spans every difference of two grid points, so the sum is
    # the whole-window integral even when the Fermi sea fills the window
    kern = _kernel(h * np.arange(1 - n, n), coupling, hbar)
    conv = _same_convolution(kern, n)

    def iterate(apply_map, x, scale, name):
        res = math.inf
        for it in range(1, _MAX_ITER + 1):
            new = apply_map(x)
            res = float(np.abs(new - x).max()) / scale
            x = new
            if res < _TOL:
                return x, it, res
            if not math.isfinite(res):
                break
        raise EosConvergenceError(
            f"{name} not converged: residual {res:.3e} at "
            f"beta={beta}, mu={mu}, C={coupling}"
        )

    eps, it, res = iterate(
        lambda e: eps0 - weight / beta * conv(np.logaddexp(0.0, -beta * e)),
        eps0,
        max(1.0, float(np.abs(eps0).max())),
        "dressed energy",
    )
    filling = _filling(beta, eps)
    charge, _, _ = iterate(
        lambda q: 1.0 + weight * conv(filling * q), np.ones(n), 1.0, "dressed charge"
    )
    return eps, charge, it, res


def _erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0."""
    if x < 3.0:
        return math.exp(x * x) * math.erfc(x)
    # Laplace's continued fraction, summed from its 40th level: converged to
    # roundoff for x >= 3, and finite where erfc(x) underflows
    t = x
    for n in range(40, 0, -1):
        t = x + 0.5 * n / t
    return 1.0 / (math.sqrt(math.pi) * t)


def fugacity_coefficients(
    beta: float, coupling: float, hbar: float = 1.0
) -> Dict[str, float]:
    """Cluster integrals entering D = (1/2pi)(b1 z + 2 b2 z^2).

    b1 integrates a1 over k (Gaussian, sqrt(pi / beta) / hbar); the entry
    "b1_tabulated" keeps the 2 pi (sqrt(beta) hbar)^{-1} shorthand that
    differs from the integral by sqrt(4 pi).  b2 integrates
    a2(q-reading) - a1^2 / 2 in closed form (module docstring), from the
    free-boson value at C = 0 to the free-fermion value
    -sqrt(pi/2)/(2 sqrt(beta) hbar) at C = inf.
    """
    check_positive("beta", beta)
    check_coupling("contact coupling", coupling)
    check_positive("hbar", hbar)
    b1 = math.sqrt(math.pi / beta) / hbar
    b1_tab = 2.0 * math.pi / (math.sqrt(beta) * hbar)
    x = coupling * math.sqrt(beta) / (2.0 * math.sqrt(2.0) * hbar)
    b2 = math.sqrt(math.pi / (2.0 * beta)) / hbar * (_erfcx(x) - 0.5)
    return {"b1": b1, "b1_tabulated": b1_tab, "b2": b2}


def virial_ratio(
    beta: float,
    coupling: float,
    density_target: float,
    hbar: float = 1.0,
) -> Dict[str, float]:
    """P beta / D at fixed density, with its two-term virial estimates.

    "full" inverts D(mu) = density_target by Newton steps on ln D, each
    taking dD/dmu from its own solve, from the classical start
    mu0 = ln(2 pi D / b1) / beta.  The mu values on either side of the
    target bracket the root; a step that leaves the bracket bisects it
    instead.  The pressure is that of the last solve.  "expansion" is the
    consistent two-term result 1 - 2 pi D b2 / b1^2; "tabulated" is the
    shorthand 1 - b2 sqrt(beta) D kept for comparison.
    """
    check_positive("density_target", density_target)
    co = fugacity_coefficients(beta, coupling, hbar)  # checks the other inputs
    mu = math.log(2.0 * math.pi * density_target / co["b1"]) / beta
    lo, hi = -math.inf, math.inf  # mu below and above the target density
    for _ in range(40):
        sol = solve_yang_yang(beta, mu, coupling, hbar)
        d, slope = sol.density, sol.density_slope
        if not (0.0 < d < math.inf and 0.0 < slope < math.inf):
            raise EosConvergenceError(
                f"density inversion met D={d:.6e}, dD/dmu={slope:.6e} at mu={mu}"
            )
        gap = math.log(d) - math.log(density_target)
        lo, hi = (mu, hi) if gap < 0.0 else (lo, mu)
        # D to the solve's own roundoff, or the root pinned between two
        # solves whose roundoff alternates the sign of the gap
        if abs(gap) <= 1e-13 or hi - lo <= 1e-12 * (1.0 / beta + abs(mu)):
            break
        mu -= gap * d / slope
        if not math.isfinite(mu):
            raise EosConvergenceError(f"density inversion stepped to mu={mu}")
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    else:
        raise EosConvergenceError(
            f"density inversion not converged: D={d:.6e}, "
            f"target {density_target:.6e}"
        )
    return {
        "full": sol.pressure * beta / density_target,
        "expansion": 1.0 - 2.0 * math.pi * density_target * co["b2"] / co["b1"] ** 2,
        "tabulated": 1.0 - co["b2"] * math.sqrt(beta) * density_target,
        "mu": sol.mu,
        "pressure": sol.pressure,
        "z": math.exp(beta * sol.mu),
    }
