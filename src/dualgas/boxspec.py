"""Two-body contact gas in a hard-wall box: Galerkin spectra and observables.

Basis: products of box modes u_n(x) = sqrt(2/lam) sin(n pi x/lam) of one
exchange sign s,

    |pq> = c_pq [u_p(x1) u_q(x2) + s u_q(x1) u_p(x2)],   1 <= p <= q <= cutoff,

with c_pq = 1/sqrt(2) for p < q and 1/2 for p = q.  At finite C the pairs
are symmetric (s = +1).  The contact acts only at coincidence, so it is
kept as its coincidence factor: the pairs' harmonics S at x1 = x2, whose
weighted Gram matrix is the contact matrix v1 = 2 diag(c) S^T diag(2, 1,
..., 1) S diag(c).  It is exact in this basis, so the only approximation is
the mode cutoff, and v1 is formed one parity block at a time.  The
hard-core pair (C = inf) is the same model on the antisymmetric pairs
(s = -1, p < q), which vanish at coincidence: S is zero there and only
the kinetic term is left.  The ramp's chirp and the wall embedding lift
one-body matrices on either basis.  The two statistics share every
eigenvector and |psi|^2; the one the basis does not carry differs by the
sign map sign(x2 - x1), which only the momentum transform takes.
Diagonalization, the densities of both statistics, cusp diagnostics and
box embeddings follow; `diagonalize`, `spatial_density` and
`momentum_density` say how each is computed.

Energies carry the 2m = 1 convention: kinetic diag = hbar^2 pi^2 (p^2+q^2)/lam^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import BoxPair, ConfigError, check_positive

__all__ = [
    "PairBasis",
    "BoxSpectrum",
    "BoxState",
    "DensityGrid",
    "unit_pair_operators",
    "contact_block",
    "contact_coupling",
    "diagonalize",
    "box_modes",
    "box_mode_ft",
    "spatial_density",
    "momentum_density",
    "l1_distance",
    "cusp_check",
    "contact_expectation",
    "embed_overlaps",
    "pair_embed_overlaps",
    "chirp_matrix",
    "pair_chirp",
]


@dataclass(frozen=True)
class PairBasis:
    """Ordered pair labels, lexicographic in (p, q): p <= q for the symmetric
    pairs (sign +1), p < q for the antisymmetric ones (sign -1)."""

    cutoff: int
    sign: int = 1

    def __post_init__(self):
        if self.cutoff < 1:
            raise ConfigError(f"mode cutoff must be >= 1, got {self.cutoff}")
        if self.dim == 0:
            raise ConfigError(
                f"the hard-core pair's antisymmetric basis needs mode cutoff >= 2, "
                f"got {self.cutoff}"
            )

    @property
    def _gap(self) -> int:
        """Least q - p: 0 for the symmetric pairs, 1 for the antisymmetric."""
        return (1 - self.sign) // 2

    @property
    def dim(self) -> int:
        m = self.cutoff - self._gap
        return m * (m + 1) // 2

    def labels(self):
        p, q = np.triu_indices(self.cutoff, self._gap)
        return p + 1, q + 1  # 1-based mode numbers

    def norms(self) -> np.ndarray:
        p, q = self.labels()
        return np.where(p == q, 0.5, 1.0 / np.sqrt(2.0))

    def parity_blocks(self) -> list:
        """Indices of the p+q-even, then the p+q-odd pairs, each if it has any.

        Reflection about the box centre maps |pq> to (-1)^(p+q) |pq>.
        """
        p, q = self.labels()
        return [b for b in (np.flatnonzero((p + q) % 2 == s) for s in (0, 1)) if b.size]

    def index_of(self, p: int, q: int) -> int:
        k, m = self._gap, self.cutoff
        if not (1 <= p and p + k <= q <= m):
            raise ConfigError(f"pair ({p},{q}) outside basis with cutoff {m}")
        # row p-1 starts after (p-1) rows of lengths M-k, M-k-1, ...
        row_start = (p - 1) * (m - k) - (p - 1) * (p - 2) // 2
        return row_start + (q - p - k)


def unit_pair_operators(cutoff: int, sign: int = 1) -> dict:
    """lam- and C-independent building blocks of the pair Hamiltonian.

    Returns dict with
      'basis': the PairBasis of the exchange sign
      'k1': diag vector, kinetic = hbar^2 * k1 / lam^2, k1 = pi^2 (p^2 + q^2)
      'S', 'w', 'c': the contact's coincidence factor, its row weights and
            the pair norms, with the unit-strength contact
            v1 = 2 diag(c) S^T diag(w) S diag(c), H_contact = (C / lam) * v1
    At x1 = x2 = x, 2 u_p u_q = (2/lam) [cos((q-p) pi x/lam) - cos((p+q) pi x/lam)],
    so S ((2M+1) x dim, rank 2M-1) has S[q-p, pq] = 1 and S[p+q, pq] = -1,
    held in int8: it stays alive through every block's solve.
    The harmonics are orthogonal on [0, lam], the constant one (row 0) twice
    as heavy: w = (2, 1, ..., 1).  `contact_block` forms v1 on a set of
    pairs (a parity block); `contact_expectation` takes the same harmonics
    from a state's mode matrix.  The factor takes (2M+1) dim values
    against dim^2 for v1 and is built on every call.  The antisymmetric
    pairs vanish at x1 = x2, so their S is zero.  `pair_chirp` and
    `pair_embed_overlaps` lift one-body matrices.
    """
    basis = PairBasis(cutoff, sign)
    p, q = basis.labels()
    S = np.zeros((2 * cutoff + 1, basis.dim), dtype=np.int8)
    if sign > 0:
        S[q - p, np.arange(basis.dim)] = 1
        S[p + q, np.arange(basis.dim)] = -1
    w = np.ones(2 * cutoff + 1)
    w[0] = 2.0
    k1 = np.pi**2 * (p**2 + q**2).astype(float)
    return {"basis": basis, "k1": k1, "S": S, "w": w, "c": basis.norms()}


def contact_block(ops: dict, pairs) -> np.ndarray:
    """v1 restricted to the pairs (index array), exact: 2 c_pq c_mn times the
    count S^T diag(w) S, whose small integers one GEMM sums without rounding."""
    S = ops["S"][:, pairs]
    c = ops["c"][pairs]
    v = S.T @ (ops["w"][:, None] * S)
    v *= np.multiply.outer(2.0 * c, c)
    return v


def contact_coupling(coupling: float) -> float:
    """C as it multiplies the contact factor.

    C = inf meets the antisymmetric pairs, whose factor is zero; inf * 0
    would be nan, so the product is taken as 0 here, and nowhere else.
    """
    return 0.0 if math.isinf(coupling) else coupling


def _pair_lift(x, bra: PairBasis, ket: PairBasis) -> np.ndarray:
    """<(pq)| x (x) x |(mn)> = 2 c_pq c_mn (x_pm x_qn + s x_pn x_qm), s the
    bases' exchange sign.

    Filled one m at a time, whose kets (m, n >= m + gap) are contiguous, so
    no temporary of the bra x ket size is made.  Real or complex, the
    result takes the type of x.
    """
    p, q = bra.labels()
    xp, xq = x[p - 1], x[q - 1]
    cb, ck = bra.norms(), ket.norms()
    k = ket._gap
    combine = np.add if ket.sign > 0 else np.subtract
    out = np.empty((bra.dim, ket.dim), dtype=x.dtype)
    for j in range(ket.cutoff - k):  # m = j + 1
        cols = slice(ket.index_of(j + 1, j + 1 + k), ket.index_of(j + 1, ket.cutoff) + 1)
        n = slice(j + k, None)
        s = combine(xp[:, j, None] * xq[:, n], xp[:, n] * xq[:, j, None])
        s += s
        out[:, cols] = np.multiply.outer(cb, ck[cols]) * s
    return out


@dataclass
class BoxSpectrum:
    """Levels ascending, with their eigenvectors kept per reflection block.

    blocks[b] = (pairs, X, levels): the block's pair indices, the
    eigenvectors its own solve gave, one column per level, on those pairs
    alone, and the ascending index of each column's level.  A spectrum of
    the n lowest levels keeps each block's share of them, which may be no
    column at all.  No dim x dim eigenvector matrix is formed: `state`
    turns one column into its mode matrix, and `apply`, `project` and
    `overlaps` take their products block by block.
    """

    model: BoxPair
    basis: PairBasis
    energies: np.ndarray
    residual: float
    blocks: list

    def __len__(self) -> int:
        return self.energies.size

    def apply(self, M, levels=None) -> np.ndarray:
        """M @ V[:, levels] (all levels by default), V the eigenvectors as
        columns: each block's columns meet only M's columns on its pairs."""
        levels = np.arange(len(self)) if levels is None else np.asarray(levels, dtype=int)
        out = np.empty((M.shape[0], levels.size), dtype=np.result_type(M, float))
        for pairs, x, in_block in self.blocks:
            at = np.flatnonzero(np.isin(levels, in_block))
            out[:, at] = M[:, pairs] @ x[:, np.searchsorted(in_block, levels[at])]
        return out

    def project(self, Y) -> np.ndarray:
        """V.T @ Y: the amplitude on every level of each column of Y."""
        out = np.empty((len(self), Y.shape[1]), dtype=np.result_type(Y, float))
        for pairs, x, levels in self.blocks:
            out[levels] = x.T @ Y[pairs]
        return out

    def overlaps(self, other: "BoxSpectrum") -> np.ndarray:
        """V.T @ V_other for a spectrum on the same basis, one block
        product each; levels of opposite parity overlap exactly 0."""
        if other.basis != self.basis:
            raise ConfigError("overlaps need two spectra on one pair basis")
        out = np.zeros((len(self), len(other)))
        for (_, x, rows), (_, y, cols) in zip(self.blocks, other.blocks):
            out[np.ix_(rows, cols)] = x.T @ y
        return out

    def state(self, index: int, statistics: str = "boson") -> "BoxState":
        if not 0 <= index < self.energies.size:
            raise ConfigError(
                f"state {index} is outside the {self.energies.size} levels "
                f"solved at cutoff {self.basis.cutoff}"
            )
        pairs, x, levels = next(b for b in self.blocks if index in b[2])
        v = x[:, np.searchsorted(levels, index)]
        p, q = (lab[pairs] - 1 for lab in self.basis.labels())
        # c_pq v_pq, doubled on the diagonal, where |pp> = u_p u_p
        a = np.where(p == q, v, v / np.sqrt(2.0))
        A = np.zeros((self.basis.cutoff,) * 2)
        A[q, p] = self.basis.sign * a
        A[p, q] = a
        return BoxState(
            model=self.model,
            basis=self.basis,
            A=A,
            energy=float(self.energies[index]),
            statistics=statistics,
        )


def _contact_factor(ops, b) -> np.ndarray:
    """F with v1 on the pairs b equal to F^T F: the coincidence factor's
    rows that are nonzero on b, about M + 1 of them, times sqrt(2 w) and
    the pair norms."""
    S = ops["S"][:, b]
    rows = np.flatnonzero(S.any(axis=1))
    return np.sqrt(2.0 * ops["w"][rows])[:, None] * S[rows] * ops["c"][b]


# The few-levels solver: a block of n_levels + 4 vectors, grown by one
# block per step for at most 24 steps.  A parity block no larger than that
# basis is solved by eigh, since the basis could span it.
_KRYLOV_PAD = 4
_KRYLOV_STEPS = 24
_KRYLOV_TOL = 1e-13

# Largest relative eigen-residual `diagonalize` returns.  At lambda = hbar = 1
# it reads <= 6.4e-11 up to alpha = 1e6 and grows with C / lambda, to about
# 1e-2 at alpha = 1e14, where E1 is off by about 1 %.
_RESIDUAL_TOL = 1e-7


def _krylov_lowest(kin, F, g, k):
    """The k lowest levels and eigenvectors (columns) of H = diag(kin) +
    g F^T F, g > 0.  LinAlgError if g overflows in units of min(kin), if
    the Cholesky factorization fails, or if the basis stops growing or
    reaches its cap before the k levels converge.

    Shift-invert block Krylov (Grimes, Lewis & Simon, SIAM J. Matrix Anal.
    Appl. 15, 228 (1994)).  The contact is positive semi-definite, so
    sigma = min(kin) / 2 lies below every level, and by Woodbury (Hager,
    SIAM Rev. 31, 221 (1989)) (H - sigma)^-1 = D^-1 - G^T G, with D =
    diag(kin - sigma), G = L^-1 F D^-1 and L L^T = I / g + F D^-1 F^T: one
    Cholesky factorization the size of F's rows.  The start block is a
    fixed cosine table passed once through the inverse, so that its
    high-kinetic components are as small as the levels' own.  Each step
    applies the inverse to the last block and orthogonalizes the result
    twice against the basis, then column by column, dropping a column
    left with less than 1e-8 of its norm.  Every other step, Rayleigh-Ritz
    on H, applied through F and never formed, gives the k lowest Ritz
    pairs.  They are returned once max|H x - theta x| <= 1e-13 theta_k, or
    16 eps max(|H| |x|), the rounding of H x itself, when that is larger:
    at strong coupling (alpha >~ 1e4) no solver gets below it, eigh
    included.
    """
    # in units of the least kinetic entry, so that no scale of lambda and
    # hbar over- or underflows below; a float quotient overflows quietly
    unit = float(kin.min())
    kin, g = kin / unit, float(g) / unit
    if not math.isfinite(g):
        raise np.linalg.LinAlgError(f"the contact overflows in units of min(kin) = {unit:g}")
    n, s = kin.size, k + _KRYLOV_PAD
    d = kin - 0.5
    Fd = F / d
    K = F @ Fd.T
    K[np.diag_indices_from(K)] += 1.0 / g
    try:
        G = np.linalg.solve(np.linalg.cholesky(K), Fd)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"the shift-invert's Cholesky factorization failed: {exc}") from exc

    # vectors are rows
    def inverse(Y):
        return Y / d - (Y @ G.T) @ G

    def apply(Y):
        return Y * kin + g * ((Y @ F.T) @ F)

    absF, eps = np.abs(F), np.finfo(float).eps

    j = np.arange(s)[:, None]
    W = inverse(np.cos(j * np.arange(n) * ((math.sqrt(5.0) - 1.0) * math.pi) + j))
    Q = np.empty((s * _KRYLOV_STEPS, n))
    T = np.zeros((Q.shape[0],) * 2)  # Q H Q^T, lower triangle
    m = 0
    for step in range(1, _KRYLOV_STEPS + 1):
        W /= np.linalg.norm(W, axis=1)[:, None]
        for _ in range(2):
            W -= (W @ Q[:m].T) @ Q[:m]
        new = 0
        for w in W:
            for _ in range(2):
                w -= (W[:new] @ w) @ W[:new]
            norm = np.linalg.norm(w)
            if norm > 1e-8:
                W[new] = w / norm
                new += 1
        if new == 0:
            raise np.linalg.LinAlgError(f"the Krylov basis stopped growing at step {step}, "
                                        f"before the {k} lowest levels converged")
        Q[m:m + new] = W[:new]
        T[m:m + new, :m + new] = apply(W[:new]) @ Q[:m + new].T
        m += new
        if step % 2 == 0 and m >= k:
            theta, U = np.linalg.eigh(T[:m, :m])
            X = U[:, :k].T @ Q[:m]
            R = apply(X) - theta[:k, None] * X
            aX = np.abs(X)
            rounding = eps * (aX * kin + g * ((aX @ absF.T) @ absF)).max()
            if np.abs(R).max() <= max(_KRYLOV_TOL * theta[k - 1], 16.0 * rounding):
                return unit * theta[:k], np.ascontiguousarray(X.T)
        W = inverse(Q[m - new:m])
    raise np.linalg.LinAlgError(f"the Krylov solve of the {k} lowest levels did not "
                                f"converge in {_KRYLOV_STEPS} steps")


def _solve_block(ops, g, kin, b, n_levels):
    """Levels ascending and eigenvectors (columns) of H on the pairs b: all
    of them, or the n_levels lowest."""
    if n_levels is not None:
        k = min(n_levels, b.size)
        if g > 0.0 and b.size > (k + _KRYLOV_PAD) * _KRYLOV_STEPS:
            return _krylov_lowest(kin[b], _contact_factor(ops, b), g, k)
    h = contact_block(ops, b)
    h *= g
    h[np.diag_indices_from(h)] += kin[b]
    # LAPACK syevd: faster than scipy.linalg.eigh's evr on these blocks
    w, x = np.linalg.eigh(h)
    if n_levels is None:
        return w, x
    return w[:k], x[:, :k].copy()


def diagonalize(model: BoxPair, cutoff: int, n_levels: Optional[int] = None) -> BoxSpectrum:
    """Levels ascending, each eigenvector of pure centre-reflection parity:
    all of them, or the n_levels lowest.

    Reflection about the box centre maps |pq> to (-1)^(p+q) |pq> and
    commutes with H, so v1 vanishes exactly between the p+q-even and
    p+q-odd pairs.  Each block is solved on its own and keeps its own
    eigenvectors; one stable argsort merges the levels, and its rank gives
    each block's columns their levels.  The hard-core pair is solved on the
    antisymmetric pairs, where H is kinetic only.

    Without n_levels, every level comes from `eigh` on its block, as the
    work routes need.  With n_levels, each block gives its n_levels lowest
    and the spectrum keeps the n_levels lowest of both.  A block larger
    than the Krylov basis cap, with g > 0, is solved by shift-invert block
    Krylov (`_krylov_lowest`, LinAlgError if it does not converge); any
    other block by eigh, keeping its lowest columns.  A relative residual
    on the six lowest levels above 1e-7 raises LinAlgError.
    """
    if n_levels is not None and n_levels < 1:
        raise ConfigError(f"n_levels must be >= 1, got {n_levels}")
    ops = unit_pair_operators(cutoff, -1 if model.is_hard_core else 1)
    basis, k1 = ops["basis"], ops["k1"]
    lam, hbar = model.length, model.hbar
    g = contact_coupling(model.coupling) / lam
    if not math.isfinite(g):
        raise ConfigError(f"the contact C / lambda overflows at C = {model.coupling:g}, "
                          f"lambda = {lam:g}")
    lam2 = lam * lam
    with np.errstate(over="ignore", divide="ignore"):
        kin = hbar * hbar * k1 / lam2
    # an overflowed or vanished kinetic scale gives nan levels, and the
    # Krylov solve works in units of min(kin)
    if not (math.isfinite(lam2) and np.isfinite(kin).all()
            and kin.min() >= np.finfo(float).tiny):
        raise ConfigError(
            f"the kinetic diagonal hbar^2 pi^2 (p^2 + q^2) / lambda^2 is not a "
            f"finite normal number at lambda = {lam:g}, hbar = {hbar:g}, cutoff {cutoff}"
        )
    pairs = basis.parity_blocks()
    solved = [_solve_block(ops, g, kin, b, n_levels) for b in pairs]
    levels = np.concatenate([w for w, _ in solved])
    order = np.argsort(levels, kind="stable")[:n_levels]
    rank = np.full(levels.size, -1)
    rank[order] = np.arange(order.size)  # the level of each kept block column
    ranks = np.split(rank, np.cumsum([w.size for w, _ in solved])[:-1])
    evals = levels[order]
    # a block's kept levels are its lowest: a prefix of its columns
    sp = BoxSpectrum(model, basis, evals, 0.0,
                     [(b, x[:, :(r >= 0).sum()], r[r >= 0])
                      for b, (_, x), r in zip(pairs, solved, ranks)])
    # spot-check the whole factorization on the six lowest levels, with
    # v1 X applied through the factor
    k = min(6, len(sp))
    X = np.zeros((basis.dim, k))
    for b, x, r in sp.blocks:
        low = r[r < k]
        X[np.ix_(b, low)] = x[:, :low.size]
    S, w, c = ops["S"], ops["w"], ops["c"][:, None]
    v1X = 2.0 * c * (S.T @ (w[:, None] * (S @ (c * X))))
    R = g * v1X + kin[:, None] * X - X * evals[:6]
    sp.residual = float(np.abs(R).max()) / max(1.0, float(np.abs(evals[:6]).max()))
    if not sp.residual <= _RESIDUAL_TOL:
        raise np.linalg.LinAlgError(
            f"eigen-residual {sp.residual:.3g} exceeds {_RESIDUAL_TOL:g} at "
            f"C = {model.coupling:g}, cutoff {cutoff}: the contact outweighs "
            "the kinetic scale in double precision; for the hard-core limit "
            "use --c inf"
        )
    return sp


@dataclass
class BoxState:
    """One level as its mode matrix A, psi(x1, x2) = sum_ab A_ab u_a(x1)
    u_b(x2) in the basis's symmetry, A[q, p] = sign A[p, q]."""

    model: BoxPair
    basis: PairBasis
    A: np.ndarray
    energy: float
    statistics: str = "boson"

    def __post_init__(self):
        if self.statistics not in ("boson", "fermion"):
            raise ConfigError(f"unknown statistics {self.statistics!r}")

    @property
    def sign_mapped(self) -> bool:
        """Whether the statistics differ from the basis's exchange symmetry,
        so that `momentum_density` applies the sign map sign(x2 - x1)."""
        return (self.statistics == "fermion") == (self.basis.sign > 0)


def box_modes(x, lam: float, cutoff: int) -> np.ndarray:
    """(len(x), cutoff) table of u_n(x) = sqrt(2/lam) sin(n pi x / lam)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = np.arange(1, cutoff + 1)
    return np.sqrt(2.0 / lam) * np.sin(np.pi * np.outer(x, n) / lam)


@dataclass
class DensityGrid:
    axis: np.ndarray
    values: np.ndarray
    mass: float
    metadata: dict = field(default_factory=dict)


def l1_distance(a: DensityGrid, b: DensityGrid) -> float:
    if a.axis.shape != b.axis.shape or not np.array_equal(a.axis, b.axis):
        raise ConfigError("density grids must share an axis")
    return float(np.trapezoid(np.abs(a.values - b.values), a.axis))


def spatial_density(state: BoxState, n_grid: int = 257) -> DensityGrid:
    """One-body density of either statistics, normalized to the particle
    number (2).

    The sign map sign(x2 - x1) is +-1, so both statistics have the same
    psi^2, bit for bit: that of the basis's amplitude.  The partner
    integral is closed form on any grid: the modes are orthonormal, so
    int psi(x, x2)^2 dx2 = sum_b (U A)_xb^2, rho = 2 diag(U A A^T U^T).
    """
    if n_grid < 2:
        raise ConfigError(f"n_grid must be >= 2, got {n_grid}")
    lam = state.model.length
    x = np.linspace(0.0, lam, n_grid)
    UA = box_modes(x, lam, state.basis.cutoff) @ state.A
    rho = 2.0 * (UA * UA).sum(axis=1)
    mass = float(np.trapezoid(rho, x))
    return DensityGrid(
        axis=x,
        values=rho,
        mass=mass,
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


# k rows per slab of the sign-mapped transform: its phases and products
# take 64 x n_x values each instead of n_k x n_x
_K_SLAB = 64


def momentum_density(
    state: BoxState,
    k_max: Optional[float] = None,
    n_k: int = 481,
    n_x: int = 513,
) -> DensityGrid:
    """One-body momentum distribution n(k), int n(k) dk = 2 on the full line.

    Both branches transform x1 and take the partner x2 by Parseval,
    n(k) = (1/pi) int |G(k, x2)|^2 dx2 with G = int e^{-ikx1} psi dx1.
    Statistics of the basis's symmetry: G is a sum of the modes'
    transforms and the x2 modes are orthonormal, so n(k) is closed form,
    exact up to the k-window.  The sign-mapped dual: the jump of
    sign(x2 - x1) breaks mode orthogonality, so G and the x2 sum are
    trapezoid rules on n_x nodes, with the sign map 0 on the diagonal,
    where the two sides of the jump cancel.  The rule's leading error on
    the jump, (i k h^2 / 6) psi(x2, x2) e^{-ikx2}, grows with k and is
    added back, so the error is O(h^2) up to the window's edge.

    Outside |k| <= k_max the sign-mapped n(k) falls as the contact tail
    4<delta>/(pi k^2), so the window misses `contact_tail` = 8<delta>/(pi
    k_max) of the mass (0 for the basis's symmetry); only a mass that
    misses 2 by more than that warns.
    """
    if n_k < 2 or n_x < 2:
        raise ConfigError(f"n_k and n_x must be >= 2, got {n_k} and {n_x}")
    lam = state.model.length
    m = state.basis.cutoff
    if k_max is None:
        k_max = 1.5 * np.pi * m / lam
    check_positive("k_max", k_max)
    k = np.linspace(-k_max, k_max, n_k)
    A = state.A
    meta = {"statistics": state.statistics, "k_max": k_max, "n_k": n_k}

    if not state.sign_mapped:
        F = box_mode_ft(k, lam, m)
        B = F @ A
        nk = (np.abs(B) ** 2).sum(axis=1) / np.pi
        meta["method"] = "parseval"
        tail = 0.0
    else:
        x = np.linspace(0.0, lam, n_x)
        h = x[1] - x[0]
        w = np.full(n_x, h)
        w[0] = w[-1] = 0.5 * h
        U = box_modes(x, lam, m)
        psi = U @ A @ U.T
        edge = psi.diagonal().copy()
        # w(x1) psi_F(x1, x2), with sign(x2 - x1) = 0 on the diagonal,
        # formed in psi's place: at most two n_x x n_x arrays are held
        sign = x - x[:, None]
        core = psi
        core *= w[:, None]
        core *= np.sign(sign, out=sign)
        del sign  # the slabs below hold core alone
        # G = (cos - i sin) @ core + (i k h^2 / 6) psi(x2, x2) e^{-ik x2},
        # a slab of k rows at a time
        nk = np.empty(n_k)
        for lo in range(0, n_k, _K_SLAB):
            ks = k[lo:lo + _K_SLAB]
            kx = np.outer(ks, x)
            cos, sin = np.cos(kx), np.sin(kx)
            jump = (h * h / 6.0) * np.outer(ks, edge)
            nk[lo:lo + ks.size] = ((cos @ core + jump * sin) ** 2
                                   + (sin @ core - jump * cos) ** 2) @ w / np.pi
        meta["method"] = "grid-parseval"
        meta["n_x"] = n_x
        tail = 8.0 * contact_expectation(state) / (np.pi * k_max)

    mass = float(np.trapezoid(nk, k))
    meta["mass"] = mass
    meta["contact_tail"] = tail
    if abs(mass + tail - 2.0) > 0.02:
        warnings.warn(
            f"momentum window captures {mass:.6f} of 2 and the contact tail "
            f"beyond it {tail:.6f}; widen k_max or n_k",
            RuntimeWarning,
            stacklevel=2,
        )
    return DensityGrid(axis=k, values=nk, mass=mass, metadata=meta)


def contact_expectation(state: BoxState) -> float:
    """<delta(x1 - x2)> in the Galerkin state (exact matrix element).

    At x1 = x2, u_a u_b = [cos((a-b) pi x/lam) - cos((a+b) pi x/lam)] / lam,
    so psi(x, x) has the harmonics h_r = sum_{|a-b|=r} A_ab - sum_{a+b=r}
    A_ab of A's symmetric part (exactly zero on the antisymmetric pairs).
    They are orthogonal on [0, lam], the constant one twice as heavy:
    <delta> = (2 h_0^2 + sum_{r>0} h_r^2) / (2 lam).
    """
    m = state.basis.cutoff
    A = 0.5 * (state.A + state.A.T)
    a, b = np.indices((m, m))
    h = (np.bincount(np.abs(a - b).ravel(), A.ravel(), 2 * m + 1)
         - np.bincount((a + b + 2).ravel(), A.ravel(), 2 * m + 1))
    return float(h @ h + h[0] ** 2) / (2.0 * state.model.length)


def cusp_check(state: BoxState) -> np.ndarray:
    """Derivative-jump residual at coincidence of the symmetric amplitude.

    The contact condition demands
        2 d psi/dr |_{r->0+} = (C / (2 hbar^2)) psi(r=0)
    along the relative coordinate r = x2 - x1 at fixed center of mass.  A
    cutoff-M expansion is smooth, so the residual measures basis-set
    convergence; it is evaluated with one-sided 3-point stencils at several
    centers away from the walls (five, steps of lam/64), and returned per
    center as |jump - rhs| over the largest |rhs|.  Uses the symmetric
    (bosonic) amplitude regardless of the state's statistics tag.
    """
    model = state.model
    if model.is_hard_core:
        raise ConfigError("cusp diagnostic needs finite coupling")
    lam = model.length
    delta = lam / 64.0
    centers = np.linspace(0.25 * lam, 0.75 * lam, 5)
    A = state.A
    m = state.basis.cutoff

    def sym_amp(c, r):
        U1 = box_modes(c - 0.5 * r, lam, m)
        U2 = box_modes(c + 0.5 * r, lam, m)
        return np.einsum("ia,ab,ib->i", U1, A, U2)

    f0 = sym_amp(centers, 0.0)
    f1 = sym_amp(centers, delta)
    f2 = sym_amp(centers, 2.0 * delta)
    slope = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * delta)
    jump = 2.0 * slope
    rhs = (model.coupling / (2.0 * model.hbar**2)) * f0
    return np.abs(jump - rhs) / (float(np.max(np.abs(rhs))) or 1.0)


# ---------------------------------------------------------------------------
# Box embeddings
# ---------------------------------------------------------------------------


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
    """<(pq)_f | (mn)_i> for pairs of one exchange sign across a box expansion."""
    o = embed_overlaps(lam_i, lam_f, basis_i.cutoff, basis_f.cutoff)
    return _pair_lift(o, basis_f, basis_i)


# leggauss holds an order x order matrix: 4096 nodes take 128 MiB
_MAX_NODES = 4096


def chirp_matrix(a: float, cutoff: int) -> np.ndarray:
    """X[p, q] = <u_p| exp(i a y^2) |u_q> on the unit box, complex symmetric.

    2 sin(p pi y) sin(q pi y) = cos((p - q) pi y) - cos((p + q) pi y), so
    X[p, q] = g(p - q) - g(p + q) with g(k) = int_0^1 cos(k pi y) exp(i a y^2) dy,
    by Gauss-Legendre with 24 nodes more than the integrands' largest phase
    rate, pi M + |a| radians per unit of the rule's interval [-1, 1].  A
    rule of more than 4096 nodes is a ConfigError.
    """
    from numpy.polynomial.legendre import leggauss

    rate = np.pi * cutoff + abs(a)
    if not rate <= _MAX_NODES - 24:  # also inf and nan
        raise ConfigError(
            f"the chirp at a = {a:.6g} on {cutoff} modes needs {rate + 24:.3g} "
            f"Gauss-Legendre nodes, more than {_MAX_NODES}"
        )
    t, wt = leggauss(math.ceil(rate) + 24)
    y = 0.5 * (t + 1.0)
    g = np.cos(np.pi * np.outer(np.arange(2 * cutoff + 1), y)) @ (0.5 * wt * np.exp(1j * a * y * y))
    n = np.arange(1, cutoff + 1)
    return g[np.abs(n[:, None] - n[None, :])] - g[n[:, None] + n[None, :]]


def pair_chirp(a: float, basis: PairBasis) -> np.ndarray:
    """The chirp exp(i a (y1^2 + y2^2)) on the basis's pairs, made unitary.

    A truncated X is not unitary: the modes past the cutoff take part of
    its top columns.  The lift takes the polar factor W = U V^H of X = U S V^H
    instead, the unitary nearest to X, so W (x) W keeps every norm.
    """
    u, _, vh = np.linalg.svd(chirp_matrix(a, basis.cutoff))
    return _pair_lift(u @ vh, basis, basis)
