"""Two-body contact gas in a hard-wall box: Galerkin spectra and observables.

Basis: symmetrized products of box modes u_n(x) = sqrt(2/lam) sin(n pi x/lam),

    |pq> = c_pq [u_p(x1) u_q(x2) + u_q(x1) u_p(x2)],   1 <= p <= q <= cutoff,

with c_pq = 1/sqrt(2) for p < q and 1/2 for p = q.  The contact matrix is
exact in this basis (a finite combination of Kronecker deltas), so the only
approximation is the mode cutoff.  Fermionic duals share every eigenvector;
they differ downstream of the sign map sign(x2 - x1) only.

Energies carry the 2m = 1 convention: kinetic diag = hbar^2 pi^2 (p^2+q^2)/lam^2.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .core import Box, ConfigError, ModelSpec, exchange_sign_grid

__all__ = [
    "PairBasis",
    "BoxSpectrum",
    "BoxState",
    "DensityGrid",
    "FreeFermionTable",
    "unit_pair_operators",
    "pair_dilation",
    "build_hamiltonian",
    "diagonalize",
    "box_modes",
    "box_mode_ft",
    "amplitude",
    "spatial_density",
    "momentum_density",
    "l1_distance",
    "fermionize",
    "cusp_check",
    "contact_expectation",
    "free_fermion_box_spectrum",
    "embed_overlaps",
    "pair_embed_overlaps",
    "dilation_matrix",
]


@dataclass(frozen=True)
class PairBasis:
    """Ordered pair labels (p, q), p <= q, lexicographic in (p, q)."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ConfigError(f"mode cutoff must be >= 1, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return self.cutoff * (self.cutoff + 1) // 2

    def labels(self):
        m = self.cutoff
        p, q = np.triu_indices(m)
        return p + 1, q + 1  # 1-based mode numbers

    def norms(self) -> np.ndarray:
        p, q = self.labels()
        return np.where(p == q, 0.5, 1.0 / np.sqrt(2.0))

    def index_of(self, p: int, q: int) -> int:
        if not (1 <= p <= q <= self.cutoff):
            raise ConfigError(f"pair ({p},{q}) outside basis with cutoff {self.cutoff}")
        # row p-1 starts after (p-1) rows of lengths M, M-1, ...
        m = self.cutoff
        row_start = (p - 1) * m - (p - 1) * (p - 2) // 2
        return row_start + (q - p)


def _delta_sum(p, q, m, n):
    """Eight-delta combination in the four-sine product integral."""
    # bra pair (p, q), ket pair (m, n); all broadcastable integer arrays
    s = (
        (p - q - m + n == 0).astype(float)
        + (p - q + m - n == 0)
        - (p - q - m - n == 0)
        - (p - q + m + n == 0)
        - (p + q - m + n == 0)
        - (p + q + m - n == 0)
        + (p + q - m - n == 0)
        + (p + q + m + n == 0)  # never fires for positive modes; kept for the identity
    )
    return s


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Both builders keep their last four cutoffs (`convergence` uses three).
# The public functions stay plain functions in front of the caches, so a
# span recorder that replaces module functions (perfbench/tracer.py)
# still sees every call.
@functools.lru_cache(maxsize=4)
def _pair_operators(cutoff: int) -> tuple:
    basis = PairBasis(cutoff)
    p, q = basis.labels()
    c = basis.norms()
    k1 = np.pi**2 * (p**2 + q**2).astype(float)

    P, Q = p[:, None], q[:, None]
    Mm, Nn = p[None, :], q[None, :]
    v1 = 2.0 * c[:, None] * c[None, :] * _delta_sum(P, Q, Mm, Nn)
    return basis, _frozen(k1), _frozen(v1)


def unit_pair_operators(cutoff: int) -> dict:
    """lam- and C-independent building blocks of the pair Hamiltonian.

    Returns dict with
      'basis': the PairBasis
      'k1': diag vector, kinetic = hbar^2 * k1 / lam^2, k1 = pi^2 (p^2 + q^2)
      'v1': contact matrix at unit strength, H_contact = (C / lam) * v1;
            <delta(x1-x2)> = v.T @ v1 @ v / lam
    The arrays are built once per cutoff (the last four are kept) and are
    read-only; the dict is a new one on every call.
    """
    basis, k1, v1 = _pair_operators(cutoff)
    return {"basis": basis, "k1": k1, "v1": v1}


def pair_dilation(cutoff: int) -> np.ndarray:
    """Pair dilation generator d2, antisymmetric; only a wall ramp needs it.

    A wall ramp evolves dc/dt = -(i/hbar) H(t) c + (lam_dot/lam) d2 c.
    Built once per cutoff (the last four are kept) and read-only.
    """
    return _pair_dilation(cutoff)


@functools.lru_cache(maxsize=4)
def _pair_dilation(cutoff: int) -> np.ndarray:
    basis = PairBasis(cutoff)
    p, q = basis.labels()
    c = basis.norms()
    d1 = dilation_matrix(cutoff)
    # <(pq)| lam d/dlam |(mn)> assembled from the one-body generator
    dp_m = d1[p[:, None] - 1, p[None, :] - 1]
    dq_n = d1[q[:, None] - 1, q[None, :] - 1]
    dp_n = d1[p[:, None] - 1, q[None, :] - 1]
    dq_m = d1[q[:, None] - 1, p[None, :] - 1]
    del_pm = (p[:, None] == p[None, :]).astype(float)
    del_qn = (q[:, None] == q[None, :]).astype(float)
    del_pn = (p[:, None] == q[None, :]).astype(float)
    del_qm = (q[:, None] == p[None, :]).astype(float)
    d2 = 2.0 * c[:, None] * c[None, :] * (
        dp_m * del_qn + del_pm * dq_n + dp_n * del_qm + del_pn * dq_m
    )
    return _frozen(d2)


def dilation_matrix(cutoff: int) -> np.ndarray:
    """One-body ramp generator d[n, m] = <u_m| lam d/dlam |u_n>.

    Equals (-1)^(n+m) 2nm/(m^2 - n^2), antisymmetric with zero diagonal
    (mode norms are lam-independent); the index order is chosen so the
    generator enters the comoving-frame ODE with a plus sign.
    """
    n = np.arange(1, cutoff + 1, dtype=float)
    num = 2.0 * n[:, None] * n[None, :] * ((-1.0) ** (n[:, None] + n[None, :]))
    den = n[None, :] ** 2 - n[:, None] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        d = num / den
    np.fill_diagonal(d, 0.0)
    return d


def build_hamiltonian(model: ModelSpec, cutoff: int) -> np.ndarray:
    if not isinstance(model.geometry, Box):
        raise ConfigError("pair Galerkin basis is for box geometry")
    if model.n_particles != 2:
        raise ConfigError("pair basis handles exactly two particles")
    if model.is_hard_core:
        raise ConfigError(
            "hard-core limit has no finite contact matrix; "
            "use free_fermion_box_spectrum for the dual spectrum"
        )
    ops = unit_pair_operators(cutoff)
    lam = model.length
    H = (model.coupling / lam) * ops["v1"]
    H[np.diag_indices_from(H)] += model.hbar**2 * ops["k1"] / lam**2
    return H


@dataclass
class BoxSpectrum:
    model: ModelSpec
    basis: PairBasis
    energies: np.ndarray
    vectors: np.ndarray  # columns are eigenvectors
    residual: float

    def __len__(self) -> int:
        return self.energies.size

    def state(self, index: int, statistics: str = "boson") -> "BoxState":
        return BoxState(
            model=self.model,
            basis=self.basis,
            coefficients=self.vectors[:, index].copy(),
            energy=float(self.energies[index]),
            index=index,
            statistics=statistics,
        )

    def partition_function(self, beta: float) -> float:
        return float(np.exp(-beta * self.energies).sum())


def diagonalize(model: ModelSpec, cutoff: int, n_check: int = 6) -> BoxSpectrum:
    H = build_hamiltonian(model, cutoff)
    evals, evecs = scipy.linalg.eigh(H)
    # spot-check the factorization on the low end of the spectrum
    k = min(n_check, evals.size)
    R = H[:, :] @ evecs[:, :k] - evecs[:, :k] * evals[:k]
    res = float(np.abs(R).max()) / max(1.0, float(np.abs(evals[:k]).max()))
    return BoxSpectrum(model=model, basis=PairBasis(cutoff), energies=evals, vectors=evecs, residual=res)


@dataclass
class BoxState:
    model: ModelSpec
    basis: PairBasis
    coefficients: np.ndarray
    energy: float
    index: int
    statistics: str = "boson"

    def __post_init__(self):
        if self.statistics not in ("boson", "fermion"):
            raise ConfigError(f"unknown statistics {self.statistics!r}")

    def mode_matrix(self) -> np.ndarray:
        """Symmetric A with psi(x1,x2) = sum_ab A_ab u_a(x1) u_b(x2)."""
        m = self.basis.cutoff
        p, q = self.basis.labels()
        A = np.zeros((m, m))
        off = p != q
        A[p[off] - 1, q[off] - 1] = self.coefficients[off] / np.sqrt(2.0)
        A[q[off] - 1, p[off] - 1] = self.coefficients[off] / np.sqrt(2.0)
        A[p[~off] - 1, q[~off] - 1] = self.coefficients[~off]
        return A


def fermionize(state: BoxState) -> BoxState:
    """Statistical dual: same coefficients, opposite exchange symmetry."""
    flip = "fermion" if state.statistics == "boson" else "boson"
    return replace(state, statistics=flip)


def box_modes(x, lam: float, cutoff: int) -> np.ndarray:
    """(len(x), cutoff) table of u_n(x) = sqrt(2/lam) sin(n pi x / lam)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = np.arange(1, cutoff + 1)
    return np.sqrt(2.0 / lam) * np.sin(np.pi * np.outer(x, n) / lam)


def amplitude(state: BoxState, x1, x2) -> np.ndarray:
    """Wavefunction on the outer grid x1 x x2 (sign map applied for fermions)."""
    lam = state.model.length
    A = state.mode_matrix()
    U1 = box_modes(x1, lam, state.basis.cutoff)
    U2 = box_modes(x2, lam, state.basis.cutoff)
    psi = U1 @ A @ U2.T
    if state.statistics == "fermion":
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        psi = exchange_sign_grid(x1[:, None], x2[None, :]) * psi
    return psi


@dataclass
class DensityGrid:
    axis: np.ndarray
    values: np.ndarray
    mass: float
    kind: str
    metadata: dict = field(default_factory=dict)


def l1_distance(a: DensityGrid, b: DensityGrid) -> float:
    if a.axis.shape != b.axis.shape or not np.array_equal(a.axis, b.axis):
        raise ConfigError("density grids must share an axis")
    return float(np.trapezoid(np.abs(a.values - b.values), a.axis))


def spatial_density(state: BoxState, n_grid: int = 257) -> DensityGrid:
    """One-body density, normalized to the particle number (2).

    Trapezoid quadrature over the partner coordinate is exact here as long
    as n_grid - 1 > cutoff: the integrand only carries harmonics
    cos(r pi x / lam) with r <= 2*cutoff, all of which the closed trapezoid
    rule annihilates exactly below the aliasing threshold.
    """
    lam = state.model.length
    x = np.linspace(0.0, lam, n_grid)
    psi = amplitude(state, x, x)  # sign map included for fermions
    rho = 2.0 * np.trapezoid(psi * psi, x, axis=1)
    mass = float(np.trapezoid(rho, x))
    return DensityGrid(
        axis=x,
        values=rho,
        mass=mass,
        kind="spatial",
        metadata={"statistics": state.statistics, "n_grid": n_grid},
    )


def _sigma(c, lam):
    """(1 - cos(c lam))/c, stable: 2 sin^2(c lam / 2)/c, -> 0 at c = 0."""
    c = np.asarray(c, dtype=float)
    num = 2.0 * np.sin(0.5 * c * lam) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / c
    return np.where(c == 0.0, 0.0, out)


def _gamma(c, length):
    """sin(c L)/c, -> L at c = 0."""
    c = np.asarray(c, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(c * length) / c
    return np.where(c == 0.0, float(length), out)


def box_mode_ft(k, lam: float, cutoff: int) -> np.ndarray:
    """f_n(k) = int_0^lam u_n(x) exp(-i k x) dx, shape (len(k), cutoff).

    Assembled from removable-singularity-free kernels, so any real k grid
    (including k = n pi / lam exactly) is safe.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))[:, None]
    a = (np.arange(1, cutoff + 1) * np.pi / lam)[None, :]
    re = 0.5 * (_sigma(a + k, lam) + _sigma(a - k, lam))
    im = -0.5 * (_gamma(a - k, lam) - _gamma(a + k, lam))
    return np.sqrt(2.0 / lam) * (re + 1j * im)


def momentum_density(
    state: BoxState,
    k_max: Optional[float] = None,
    n_k: int = 481,
    n_x: int = 513,
    mass_warn: float = 1e-2,
) -> DensityGrid:
    """One-body momentum distribution n(k), int n(k) dk = 2 on the full line.

    Bosons: closed form via Parseval, exact up to the k-window.  Fermions:
    the sign kink breaks mode orthogonality, so the triangle x2 > x1 is
    integrated on an internal n_x^2 grid (O(h^2)); the antisymmetric
    combination of the triangle transform and its swap then gives the pair
    amplitude in momentum space, and the partner is integrated over the
    same window.
    """
    lam = state.model.length
    m = state.basis.cutoff
    if k_max is None:
        k_max = 1.5 * np.pi * m / lam
    k = np.linspace(-k_max, k_max, n_k)
    A = state.mode_matrix()
    meta = {"statistics": state.statistics, "k_max": k_max, "n_k": n_k}

    if state.statistics == "boson":
        F = box_mode_ft(k, lam, m)
        B = F @ A
        nk = (np.abs(B) ** 2).sum(axis=1) / np.pi
        meta["method"] = "parseval"
    else:
        x = np.linspace(0.0, lam, n_x)
        w = np.full(n_x, x[1] - x[0])
        w[0] = w[-1] = 0.5 * (x[1] - x[0])
        U = box_modes(x, lam, m)
        psi = U @ A @ U.T
        tri = np.triu(np.ones((n_x, n_x)), k=1) + 0.5 * np.eye(n_x)
        core = (w[:, None] * w[None, :]) * tri * psi
        E = np.exp(-1j * np.outer(k, x))
        T = E @ core @ E.T
        phi = (T - T.T) / (2.0 * np.pi)
        nk = 2.0 * np.trapezoid(np.abs(phi) ** 2, k, axis=1)
        meta["method"] = "triangle"
        meta["n_x"] = n_x

    mass = float(np.trapezoid(nk, k))
    meta["mass"] = mass
    if abs(mass - 2.0) > 2.0 * mass_warn:
        warnings.warn(
            f"momentum window captures {mass:.6f} of 2; widen k_max or n_k",
            RuntimeWarning,
            stacklevel=2,
        )
    return DensityGrid(axis=k, values=nk, mass=mass, kind="momentum", metadata=meta)


def contact_expectation(state: BoxState) -> float:
    """<delta(x1 - x2)> in the Galerkin state (exact matrix element)."""
    ops = unit_pair_operators(state.basis.cutoff)
    v = state.coefficients
    return float(v @ ops["v1"] @ v) / state.model.length


def cusp_check(state: BoxState, n_centers: int = 5, delta: Optional[float] = None) -> dict:
    """Derivative-jump diagnostic at coincidence for the symmetric amplitude.

    The contact condition demands
        2 d psi/dr |_{r->0+} = (C / (2 hbar^2)) psi(r=0)
    along the relative coordinate r = x2 - x1 at fixed center of mass.  A
    cutoff-M expansion is smooth, so the residual measures basis-set
    convergence; it is evaluated with one-sided 3-point stencils at several
    centers away from the walls.  Uses the symmetric (bosonic) amplitude
    regardless of the state's statistics tag.
    """
    model = state.model
    if model.is_hard_core:
        raise ConfigError("cusp diagnostic needs finite coupling")
    lam = model.length
    if delta is None:
        delta = lam / 64.0
    centers = np.linspace(0.25 * lam, 0.75 * lam, n_centers)
    A = state.mode_matrix()
    m = state.basis.cutoff

    def sym_amp(c, r):
        x1 = c - 0.5 * r
        x2 = c + 0.5 * r
        U1 = box_modes(x1, lam, m)
        U2 = box_modes(x2, lam, m)
        return np.einsum("ia,ab,ib->i", U1, A, U2)

    f0 = sym_amp(centers, 0.0)
    f1 = sym_amp(centers, delta)
    f2 = sym_amp(centers, 2.0 * delta)
    slope = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * delta)
    jump = 2.0 * slope
    rhs = (model.coupling / (2.0 * model.hbar**2)) * f0
    scale = float(np.max(np.abs(rhs))) or 1.0
    return {
        "centers": centers,
        "slope_jump": jump,
        "contact_rhs": rhs,
        "residual": np.abs(jump - rhs) / scale,
        "scale": scale,
        "delta": delta,
    }


# ---------------------------------------------------------------------------
# Hard-core / dual references and box embeddings
# ---------------------------------------------------------------------------


@dataclass
class FreeFermionTable:
    """Hard-wall free-fermion levels; also the hard-core boson spectrum."""

    modes: np.ndarray  # (n_states, N) strictly increasing mode numbers
    energies: np.ndarray
    lam: float
    hbar: float

    def __len__(self) -> int:
        return self.energies.size

    def partition_function(self, beta: float) -> float:
        return float(np.exp(-beta * self.energies).sum())


def free_fermion_box_spectrum(
    lam: float, cutoff: int, n_particles: int = 2, hbar: float = 1.0
) -> FreeFermionTable:
    import itertools

    modes = np.array(
        list(itertools.combinations(range(1, cutoff + 1), n_particles)), dtype=int
    )
    energies = hbar**2 * np.pi**2 * (modes**2).sum(axis=1) / lam**2
    order = np.lexsort(tuple(modes[:, j] for j in range(n_particles - 1, -1, -1)) + (energies,))
    return FreeFermionTable(modes=modes[order], energies=energies[order], lam=lam, hbar=hbar)


def embed_overlaps(lam_i: float, lam_f: float, cutoff_i: int, cutoff_f: int) -> np.ndarray:
    """o[r, n] = <u_r over [0, lam_f] | u_n over [0, lam_i]>, lam_f >= lam_i.

    The initial modes vanish outside [0, lam_i], so the integral runs over
    the small box only.
    """
    if lam_f < lam_i:
        raise ConfigError("embedding requires lam_f >= lam_i")
    a = (np.arange(1, cutoff_f + 1) * np.pi / lam_f)[:, None]
    b = (np.arange(1, cutoff_i + 1) * np.pi / lam_i)[None, :]
    pref = 2.0 / np.sqrt(lam_f * lam_i)
    return pref * 0.5 * (_gamma(a - b, lam_i) - _gamma(a + b, lam_i))


def pair_embed_overlaps(
    lam_i: float, lam_f: float, basis_i: PairBasis, basis_f: PairBasis
) -> np.ndarray:
    """<(pq)_f | (mn)_i> for symmetrized pairs across a box expansion."""
    o = embed_overlaps(lam_i, lam_f, basis_i.cutoff, basis_f.cutoff)
    p, q = basis_f.labels()
    m, n = basis_i.labels()
    cf = basis_f.norms()
    ci = basis_i.norms()
    O2 = o[p[:, None] - 1, m[None, :] - 1] * o[q[:, None] - 1, n[None, :] - 1]
    O2 = O2 + o[p[:, None] - 1, n[None, :] - 1] * o[q[:, None] - 1, m[None, :] - 1]
    return 2.0 * cf[:, None] * ci[None, :] * O2
