"""Two-point-measurement work statistics for contact gases.

Work atoms: measure H_initial, drive, measure H_final; an atom of
probability p_i * P(f|i) sits at W = E_f - E_i.  All distributions are
discrete; probabilities are carried per atom and may fail to sum to one
when a route truncates final states (the deficit is recorded, never
renormalized away silently).

Protocol routes
  ring + Adiabatic        Bethe enumerations at both volumes, paired by I
  box + Adiabatic         Galerkin spectra paired by level index
  box + SuddenWall        embedding overlaps (expansion only)
  box + SuddenCoupling    two diagonalizations in the shared basis
  box + LinearRamp        rescaled-frame propagation in the pair basis
plus hard-core determinant routes (exact, no Galerkin) and ideal-gas
references used as classical-limit and duality oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.integrate
from scipy.special import logsumexp

from . import boxspec, ringspec
from .core import (
    Adiabatic,
    Box,
    ConfigError,
    LinearRamp,
    ModelSpec,
    Ring,
    SuddenCoupling,
    SuddenWall,
)

__all__ = [
    "WorkDistribution",
    "merge_atoms",
    "kolmogorov_distance",
    "adiabatic_ring_distribution",
    "adiabatic_box_distribution",
    "sudden_wall_distribution",
    "sudden_coupling_distribution",
    "ramp_distribution",
    "tpm_distribution",
    "RampResult",
    "propagate_ramp",
    "ground_survival",
    "tg_adiabatic_box_distribution",
    "tg_sudden_wall_distribution",
    "ndp_reference",
    "free_momentum_work",
    "equipartition_mean_work",
    "sudden_wall_mean_work",
    "sudden_coupling_mean_work",
    "box_tail_bound",
    "ring_ideal_levels",
]


# ---------------------------------------------------------------------------
# Distribution container
# ---------------------------------------------------------------------------


# np.sum adds fewer than this many terms left to right from +0.0; from
# this length on it sums pairwise with eight accumulators
_PAIRWISE_FROM = 8


def _segment_sums(x, starts, sizes):
    """np.sum(x[s:s + n]) for every segment, equal to it bit for bit.

    Short segments are summed by a left-to-right loop of at most seven
    vectorized steps; the rare long ones call np.sum on their slice.
    np.add.reduceat would not do: its order differs from np.sum's.
    """
    out = np.zeros(starts.size)
    short = np.nonzero(sizes < _PAIRWISE_FROM)[0]
    for j in range(_PAIRWISE_FROM - 1):
        short = short[sizes[short] > j]
        out[short] += x[starts[short] + j]
    for g in np.nonzero(sizes >= _PAIRWISE_FROM)[0]:
        out[g] = np.sum(x[starts[g] : starts[g] + sizes[g]])
    return out


def _segment_logsumexp(lp, starts, sizes):
    """scipy.special.logsumexp of every segment, equal to it bit for bit.

    scipy takes out the maximum m times (m entries equal it), sums the
    rest as s = sum exp(lp - max) and returns log1p(s/m) + log(m) + max;
    a segment whose maximum is not finite returns that maximum.
    """
    top = np.maximum.reduceat(lp, starts)
    top_at = np.repeat(top, sizes)
    is_top = lp == top_at
    m = np.add.reduceat(is_top.astype(float), starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = _segment_sums(np.exp(np.where(is_top, -np.inf, lp) - top_at), starts, sizes)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
    return np.where(np.isfinite(top), out, top)


def merge_atoms(works, probabilities, tol: float = 1e-9, log_probabilities=None):
    """Cluster atoms closer than tol; probability-weighted positions.

    Each cluster's mass is np.sum of its probabilities, its position
    np.average of its works weighted by them (the plain mean for a cluster
    without mass) and its log-probability scipy's logsumexp, all to the
    last bit; the clusters are reduced as segments of the sorted atoms.
    """
    w = np.asarray(works, dtype=float).ravel()
    p = np.asarray(probabilities, dtype=float).ravel()
    lp = None if log_probabilities is None else np.asarray(log_probabilities, dtype=float).ravel()
    if w.size == 0:
        return (w, p) if lp is None else (w, p, lp)
    order = np.argsort(w, kind="stable")
    w, p = w[order], p[order]
    # cluster boundaries where consecutive gaps exceed tol
    starts = np.concatenate([[0], np.nonzero(np.diff(w) > tol)[0] + 1])
    sizes = np.diff(np.append(starts, w.size))
    out_p = _segment_sums(p, starts, sizes)
    with np.errstate(invalid="ignore", divide="ignore"):
        weighted = _segment_sums(w * p, starts, sizes) / out_p
    out_w = np.where(out_p > 0, weighted, _segment_sums(w, starts, sizes) / sizes)
    if lp is None:
        return out_w, out_p
    return out_w, out_p, _segment_logsumexp(lp[order], starts, sizes)


@dataclass
class WorkDistribution:
    works: np.ndarray
    probabilities: np.ndarray
    beta: float
    protocol: object = None
    tail_mass: float = 0.0  # thermal weight provably outside the enumeration
    metadata: dict = field(default_factory=dict)
    # routes that know log p exactly pass it along: atoms whose linear
    # probability underflows can still carry finite p * exp(-beta W)
    log_probabilities: Optional[np.ndarray] = None

    def __post_init__(self):
        self.works = np.asarray(self.works, dtype=float).ravel()
        self.probabilities = np.asarray(self.probabilities, dtype=float).ravel()
        if self.works.shape != self.probabilities.shape:
            raise ConfigError("works and probabilities must align")
        if self.log_probabilities is not None:
            self.log_probabilities = np.asarray(self.log_probabilities, dtype=float).ravel()
            if self.log_probabilities.shape != self.works.shape:
                raise ConfigError("log_probabilities must align with works")

    @property
    def mass(self) -> float:
        return float(self.probabilities.sum())

    def merged(self, tol: float = 1e-9) -> "WorkDistribution":
        if self.log_probabilities is None:
            w, p = merge_atoms(self.works, self.probabilities, tol)
            lp = None
        else:
            w, p, lp = merge_atoms(self.works, self.probabilities, tol, self.log_probabilities)
        return WorkDistribution(
            works=w,
            probabilities=p,
            beta=self.beta,
            protocol=self.protocol,
            tail_mass=self.tail_mass,
            metadata=dict(self.metadata),
            log_probabilities=lp,
        )

    def moments(self, n_max: int = 2) -> np.ndarray:
        """First n_max moments of the mass-normalized distribution."""
        p = self.probabilities / self.mass
        return np.array([float(np.sum(p * self.works**n)) for n in range(1, n_max + 1)])

    def mean(self) -> float:
        return float(self.moments(1)[0])

    def jarzynski_average(self) -> float:
        """sum p exp(-beta W), in log space (not renormalized)."""
        if self.log_probabilities is not None:
            arg = self.log_probabilities - self.beta * self.works
            keep = np.isfinite(arg)
            if not keep.any():
                return 0.0
            return float(np.exp(logsumexp(arg[keep])))
        keep = self.probabilities > 0
        if not keep.any():
            return 0.0
        return float(
            np.exp(
                logsumexp(
                    -self.beta * self.works[keep], b=self.probabilities[keep]
                )
            )
        )

    def characteristic_function(self, nu) -> np.ndarray:
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        return (self.probabilities[None, :] * np.exp(1j * np.outer(nu, self.works))).sum(axis=1)


def kolmogorov_distance(
    a: WorkDistribution, b: WorkDistribution, resolution: float = 0.0
) -> float:
    """sup |CDF_a - CDF_b| over atom positions.

    With resolution > 0, atoms of the two distributions closer than
    `resolution` are treated as the same location: the supremum is only
    evaluated at gaps wider than the resolution, which makes the distance
    robust against O(resolution) misalignment between two routes to the
    same physical distribution.
    """
    w = np.concatenate([a.works, b.works])
    s = np.concatenate([a.probabilities, -b.probabilities])
    order = np.argsort(w, kind="stable")
    w = w[order]
    cum = np.cumsum(s[order])
    # evaluate only after whole groups of (near-)coincident atoms; partial
    # sums inside a tied group are not CDF values
    at = np.nonzero(np.diff(w) > resolution)[0]
    vals = np.abs(cum[at]) if at.size else np.array([0.0])
    return float(max(vals.max(), abs(cum[-1])))


def quantile_span(dist: "WorkDistribution", lo: float = 1e-3, hi: float = 0.999):
    """Work positions bracketing the central mass (lo, hi) quantiles."""
    order = np.argsort(dist.works, kind="stable")
    w = dist.works[order]
    c = np.cumsum(dist.probabilities[order]) / dist.mass
    i = min(int(np.searchsorted(c, lo)), w.size - 1)
    j = min(int(np.searchsorted(c, hi)), w.size - 1)
    return float(w[i]), float(w[j])


def comparison_resolution(
    a: "WorkDistribution", b: "WorkDistribution", fraction: float = 0.02
) -> float:
    """Alignment tolerance for comparing two routes to the same distribution.

    A fixed fraction of the union bulk span (central _99.8%_ of the mass),
    so stray far atoms of negligible weight cannot inflate the scale and
    make the comparison vacuous.
    """
    a_lo, a_hi = quantile_span(a)
    b_lo, b_hi = quantile_span(b)
    return fraction * (max(a_hi, b_hi) - min(a_lo, b_lo))


def _thermal(energies, beta):
    if not (0 < beta < math.inf):  # also rejects nan
        raise ConfigError(f"beta must be positive and finite, got {beta}")
    e = np.asarray(energies, dtype=float)
    ln_z = float(logsumexp(-beta * e))
    p = np.exp(-beta * e - ln_z)
    return p, ln_z


def _log_matrix_probs(P, energies_i, beta, ln_zi):
    """log(P[f, i] * p_i) without underflow; log 0 = -inf is fine."""
    with np.errstate(divide="ignore"):
        return np.log(P) + (-beta * np.asarray(energies_i) - ln_zi)[None, :]


# ---------------------------------------------------------------------------
# Ring: adiabatic Bethe route
# ---------------------------------------------------------------------------


def adiabatic_ring_distribution(
    lam_i: float,
    lam_f: float,
    coupling: float,
    n_particles: int,
    beta: float,
    i_max: float,
    hbar: float = 1.0,
) -> WorkDistribution:
    """Quasistatic ring rescaling: populations ride their quantum numbers."""
    table = ringspec.enumerate_states(lam_i, coupling, n_particles, i_max, hbar)
    I = np.array([s.quantum_numbers for s in table.states])
    e_i = table.energies
    if math.isinf(coupling):
        k_f = 2.0 * np.pi * I / lam_f
    else:
        k_f, _ = ringspec.solve_bethe_batch(I, lam_f, coupling, hbar)
    e_f = hbar**2 * (k_f**2).sum(axis=1)
    p, ln_zi = _thermal(e_i, beta)
    ln_zf = float(logsumexp(-beta * e_f))
    tail = table.tail_bound(beta) * np.exp(-ln_zi)
    return WorkDistribution(
        works=e_f - e_i,
        probabilities=p,
        beta=beta,
        protocol=Adiabatic(lam_i, lam_f),
        tail_mass=float(tail),
        log_probabilities=-beta * e_i - ln_zi,
        metadata={
            "route": "bethe-adiabatic",
            "coupling": coupling,
            "n_particles": n_particles,
            "i_max": i_max,
            "ln_z_initial": ln_zi,
            "ln_z_final": ln_zf,
            "energies_initial": e_i,
            "energies_final": e_f,
        },
    )


# ---------------------------------------------------------------------------
# Box routes (Galerkin pair basis)
# ---------------------------------------------------------------------------


def box_tail_bound(lam: float, cutoff: int, beta: float, hbar: float = 1.0) -> float:
    """Thermal weight above the pair cutoff, bounded by the free-boson box gas.

    Repulsion only raises levels, so sum exp(-beta E) over pairs with a mode
    index beyond `cutoff` is at most its C = 0 value.
    """
    g = beta * hbar**2 * np.pi**2 / lam**2
    n = np.arange(1, cutoff + 2000)
    w = np.exp(-g * n.astype(float) ** 2)
    total = w.sum()
    high = w[cutoff:].sum()  # modes > cutoff
    return float(2.0 * high * total)


def _box_spectrum(lam, coupling, cutoff, hbar):
    model = ModelSpec(2, Box(lam), coupling, hbar)
    return boxspec.diagonalize(model, cutoff)


def adiabatic_box_distribution(
    lam_i: float,
    lam_f: float,
    coupling: float,
    beta: float,
    cutoff: int,
    hbar: float = 1.0,
) -> WorkDistribution:
    """Levels tracked by sorted index; no crossings for repulsive pairs."""
    sp_i = _box_spectrum(lam_i, coupling, cutoff, hbar)
    sp_f = _box_spectrum(lam_f, coupling, cutoff, hbar)
    p, ln_zi = _thermal(sp_i.energies, beta)
    return WorkDistribution(
        works=sp_f.energies - sp_i.energies,
        probabilities=p,
        beta=beta,
        protocol=Adiabatic(lam_i, lam_f),
        tail_mass=box_tail_bound(lam_i, cutoff, beta, hbar) * np.exp(-ln_zi),
        log_probabilities=-beta * sp_i.energies - ln_zi,
        metadata={
            "route": "galerkin-adiabatic",
            "coupling": coupling,
            "cutoff": cutoff,
            "ln_z_initial": ln_zi,
            "ln_z_final": float(logsumexp(-beta * sp_f.energies)),
            "energies_initial": sp_i.energies,
            "energies_final": sp_f.energies,
        },
    )


def sudden_wall_distribution(
    lam_i: float,
    lam_f: float,
    coupling: float,
    beta: float,
    cutoff_i: int,
    cutoff_f: Optional[int] = None,
    hbar: float = 1.0,
) -> WorkDistribution:
    """Instant box expansion; the state is frozen and re-measured.

    Transition weights per initial state sum to 1 only in the limit of a
    complete final basis; the deficit max_i (1 - sum_f P[f, i]) is reported
    in metadata as 'transition_deficit'.
    """
    if cutoff_f is None:
        cutoff_f = int(math.ceil(cutoff_i * lam_f / lam_i))
    sp_i = _box_spectrum(lam_i, coupling, cutoff_i, hbar)
    sp_f = _box_spectrum(lam_f, coupling, cutoff_f, hbar)
    O2 = boxspec.pair_embed_overlaps(lam_i, lam_f, sp_i.basis, sp_f.basis)
    amp = sp_f.vectors.T @ O2 @ sp_i.vectors
    P = amp**2
    p_i, ln_zi = _thermal(sp_i.energies, beta)
    W = sp_f.energies[:, None] - sp_i.energies[None, :]
    probs = P * p_i[None, :]
    col = P.sum(axis=0)
    return WorkDistribution(
        works=W.ravel(),
        probabilities=probs.ravel(),
        beta=beta,
        protocol=SuddenWall(lam_i, lam_f),
        tail_mass=box_tail_bound(lam_i, cutoff_i, beta, hbar) * np.exp(-ln_zi),
        log_probabilities=_log_matrix_probs(P, sp_i.energies, beta, ln_zi).ravel(),
        metadata={
            "route": "galerkin-sudden-wall",
            "coupling": coupling,
            "cutoff_i": cutoff_i,
            "cutoff_f": cutoff_f,
            "ln_z_initial": ln_zi,
            "ln_z_final": float(logsumexp(-beta * sp_f.energies)),
            "transition_deficit": float((1.0 - col).max()),
            "thermal_transition_deficit": float(1.0 - (p_i * col).sum()),
        },
    )


def sudden_coupling_distribution(
    lam: float,
    coupling_i: float,
    coupling_f: float,
    beta: float,
    cutoff: int,
    hbar: float = 1.0,
) -> WorkDistribution:
    """Interaction quench at fixed walls; exact completeness in the model."""
    sp_i = _box_spectrum(lam, coupling_i, cutoff, hbar)
    sp_f = _box_spectrum(lam, coupling_f, cutoff, hbar)
    amp = sp_f.vectors.T @ sp_i.vectors
    P = amp**2
    p_i, ln_zi = _thermal(sp_i.energies, beta)
    W = sp_f.energies[:, None] - sp_i.energies[None, :]
    return WorkDistribution(
        works=W.ravel(),
        probabilities=(P * p_i[None, :]).ravel(),
        beta=beta,
        protocol=SuddenCoupling(coupling_i, coupling_f),
        tail_mass=box_tail_bound(lam, cutoff, beta, hbar) * np.exp(-ln_zi),
        log_probabilities=_log_matrix_probs(P, sp_i.energies, beta, ln_zi).ravel(),
        metadata={
            "route": "galerkin-sudden-coupling",
            "cutoff": cutoff,
            "ln_z_initial": ln_zi,
            "ln_z_final": float(logsumexp(-beta * sp_f.energies)),
            "unitarity_defect": float(np.abs(P.sum(axis=0) - 1.0).max()),
        },
    )


# ---------------------------------------------------------------------------
# Moving wall: rescaled-frame propagation
# ---------------------------------------------------------------------------


@dataclass
class RampResult:
    ramp: LinearRamp
    coupling: float
    cutoff: int
    hbar: float
    energies_i: np.ndarray
    energies_f: np.ndarray
    amplitudes: np.ndarray  # (n_final, n_columns), complex
    columns: np.ndarray  # initial eigenstate indices propagated
    norm_drift: float
    n_rhs_evals: int

    @property
    def transition_matrix(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def propagate_ramp(
    ramp: LinearRamp,
    coupling: float,
    cutoff: int,
    hbar: float = 1.0,
    columns: Optional[Sequence[int]] = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> RampResult:
    """Integrate the pair coefficients through L(t) = L_i + v t.

    Expanding the wavefunction over instantaneous box modes turns the
    moving-wall problem into dc/dt = -(i/hbar) H(L) c + (v/L) D c with D the
    (antisymmetric) pair dilation generator, so the flow is exactly unitary
    in the truncated basis and overlaps with the instantaneous eigenvectors
    at t = 0 and t = tau are the TPM transition amplitudes.
    """
    ops = boxspec.unit_pair_operators(cutoff)
    k1 = ops["k1"]
    v1 = ops["v1"]
    d2 = boxspec.pair_dilation(cutoff)
    lam_i, lam_f = ramp.lambda_initial, ramp.lambda_final
    sp_i = _box_spectrum(lam_i, coupling, cutoff, hbar)
    sp_f = _box_spectrum(lam_f, coupling, cutoff, hbar)
    if columns is None:
        cols = np.arange(len(sp_i))
    else:
        cols = np.asarray(list(columns), dtype=int)
    y0 = sp_i.vectors[:, cols].astype(complex)
    dim, ncol = y0.shape
    speed = ramp.speed

    def rhs(t, y):
        Y = y.reshape(dim, ncol)
        lam = lam_i + speed * t
        HY = (hbar**2 / lam**2) * (k1[:, None] * Y) + (coupling / lam) * (v1 @ Y)
        dY = (-1j / hbar) * HY + (speed / lam) * (d2 @ Y)
        return dY.ravel()

    # solve_ivp's own DOP853 step sequence, without keeping every step
    solver = scipy.integrate.DOP853(
        rhs, 0.0, y0.ravel(), float(ramp.duration), rtol=rtol, atol=atol
    )
    while solver.status == "running":
        message = solver.step()
    if solver.status == "failed":
        raise RuntimeError(f"ramp integration failed: {message}")
    yT = solver.y.reshape(dim, ncol)
    drift = float(np.abs((np.abs(yT) ** 2).sum(axis=0) - 1.0).max())
    amplitudes = sp_f.vectors.T @ yT
    return RampResult(
        ramp=ramp,
        coupling=coupling,
        cutoff=cutoff,
        hbar=hbar,
        energies_i=sp_i.energies,
        energies_f=sp_f.energies,
        amplitudes=amplitudes,
        columns=cols,
        norm_drift=drift,
        n_rhs_evals=int(solver.nfev),
    )


def ramp_distribution(
    ramp: LinearRamp,
    coupling: float,
    beta: float,
    cutoff: int,
    hbar: float = 1.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    result: Optional[RampResult] = None,
) -> WorkDistribution:
    # `result` lets callers reweight one propagation across several beta.
    res = result
    if res is None:
        res = propagate_ramp(ramp, coupling, cutoff, hbar, rtol=rtol, atol=atol)
    P = res.transition_matrix
    p_i, ln_zi = _thermal(res.energies_i, beta)
    W = res.energies_f[:, None] - res.energies_i[None, :]
    return WorkDistribution(
        works=W.ravel(),
        probabilities=(P * p_i[None, :]).ravel(),
        beta=beta,
        protocol=ramp,
        tail_mass=box_tail_bound(ramp.lambda_initial, cutoff, beta, hbar)
        * np.exp(-ln_zi),
        log_probabilities=_log_matrix_probs(P, res.energies_i, beta, ln_zi).ravel(),
        metadata={
            "route": "ramp-propagation",
            "coupling": coupling,
            "cutoff": cutoff,
            "norm_drift": res.norm_drift,
            "ln_z_initial": ln_zi,
            "ln_z_final": float(logsumexp(-beta * res.energies_f)),
            "unitarity_defect": float(np.abs(P.sum(axis=0) - 1.0).max()),
        },
    )


def ground_survival(
    ramp: LinearRamp, coupling: float, cutoff: int, hbar: float = 1.0, **kw
) -> float:
    """|<ground(L_f)| U |ground(L_i)>|^2 for a single wall ramp."""
    res = propagate_ramp(ramp, coupling, cutoff, hbar, columns=[0], **kw)
    return float(np.abs(res.amplitudes[0, 0]) ** 2)


# ---------------------------------------------------------------------------
# Hard-core determinant routes (exact duals, no Galerkin error)
# ---------------------------------------------------------------------------


def tg_adiabatic_box_distribution(
    lam_i: float,
    lam_f: float,
    beta: float,
    cutoff: int,
    hbar: float = 1.0,
) -> WorkDistribution:
    table = boxspec.free_fermion_box_spectrum(lam_i, cutoff)
    e_i = hbar**2 * np.pi**2 * (table.modes**2).sum(axis=1) / lam_i**2
    e_f = hbar**2 * np.pi**2 * (table.modes**2).sum(axis=1) / lam_f**2
    p, ln_zi = _thermal(e_i, beta)
    return WorkDistribution(
        works=e_f - e_i,
        probabilities=p,
        beta=beta,
        protocol=Adiabatic(lam_i, lam_f),
        tail_mass=box_tail_bound(lam_i, cutoff, beta, hbar) * np.exp(-ln_zi),
        log_probabilities=-beta * e_i - ln_zi,
        metadata={
            "route": "hardcore-adiabatic",
            "cutoff": cutoff,
            "ln_z_initial": ln_zi,
            "ln_z_final": float(logsumexp(-beta * e_f)),
        },
    )


def tg_sudden_wall_distribution(
    lam_i: float,
    lam_f: float,
    beta: float,
    cutoff_i: int,
    cutoff_f: Optional[int] = None,
    hbar: float = 1.0,
) -> WorkDistribution:
    """Hard-core pair through a sudden expansion via 2x2 Slater determinants.

    The hard-core bosonic overlap equals the free-fermion one because the
    sign map squares to one inside the overlap integral.  The default final
    cutoff is the Galerkin route's.
    """
    if cutoff_f is None:
        cutoff_f = int(math.ceil(cutoff_i * lam_f / lam_i))
    ti = boxspec.free_fermion_box_spectrum(lam_i, cutoff_i, hbar=hbar)
    tf = boxspec.free_fermion_box_spectrum(lam_f, cutoff_f, hbar=hbar)
    o = boxspec.embed_overlaps(lam_i, lam_f, cutoff_i, cutoff_f)
    p_idx, q_idx = ti.modes[:, 0] - 1, ti.modes[:, 1] - 1
    r_idx, s_idx = tf.modes[:, 0] - 1, tf.modes[:, 1] - 1
    amp = o[r_idx[:, None], p_idx[None, :]] * o[s_idx[:, None], q_idx[None, :]]
    amp -= o[r_idx[:, None], q_idx[None, :]] * o[s_idx[:, None], p_idx[None, :]]
    P = amp**2
    p_i, ln_zi = _thermal(ti.energies, beta)
    W = tf.energies[:, None] - ti.energies[None, :]
    col = P.sum(axis=0)
    return WorkDistribution(
        works=W.ravel(),
        probabilities=(P * p_i[None, :]).ravel(),
        beta=beta,
        protocol=SuddenWall(lam_i, lam_f),
        tail_mass=box_tail_bound(lam_i, cutoff_i, beta, hbar) * np.exp(-ln_zi),
        log_probabilities=_log_matrix_probs(P, ti.energies, beta, ln_zi).ravel(),
        metadata={
            "route": "hardcore-sudden-wall",
            "cutoff_i": cutoff_i,
            "cutoff_f": cutoff_f,
            "ln_z_initial": ln_zi,
            "ln_z_final": float(logsumexp(-beta * tf.energies)),
            "transition_deficit": float((1.0 - col).max()),
            "thermal_transition_deficit": float(1.0 - (p_i * col).sum()),
        },
    )


# ---------------------------------------------------------------------------
# Ideal-gas references
# ---------------------------------------------------------------------------


def ring_ideal_levels(
    lam: float, beta: float, hbar: float = 1.0, offset: float = 0.0, weight_floor: float = 1e-18
):
    """Single-particle ring momenta 2 pi (n + offset)/lam with thermal reach.

    n runs far enough that dropped Boltzmann weights are below weight_floor
    relative to the peak.
    """
    n_max = int(math.ceil(lam * math.sqrt(-math.log(weight_floor) / beta) / (2.0 * np.pi * hbar))) + 1
    n = np.arange(-n_max, n_max + 1, dtype=float) + offset
    k = 2.0 * np.pi * n / lam
    return n, hbar**2 * k**2


def ndp_reference(
    lam_i: float,
    lam_f: float,
    beta: float,
    n_particles: int,
    statistics: str = "distinguishable",
    hbar: float = 1.0,
    merge_tol: float = 1e-9,
) -> WorkDistribution:
    """Adiabatic ring rescaling of a noninteracting gas.

    'distinguishable' is the classical-limit reference (arbitrary N, built
    by repeated convolution of the one-particle atom list).  'boson' and
    'fermion' are two-particle exchange-corrected variants; ring fermions
    take the half-odd-integer (antiperiodic) momentum grid so their C -> inf
    dual matches the hard-core Bethe states at even N.
    """
    scale = lam_i**2 / lam_f**2
    if statistics == "distinguishable":
        _, e1 = ring_ideal_levels(lam_i, beta, hbar)
        w1 = (scale - 1.0) * e1
        p1, _ = _thermal(e1, beta)
        w, p = w1, p1
        for _ in range(n_particles - 1):
            w = (w[:, None] + w1[None, :]).ravel()
            p = (p[:, None] * p1[None, :]).ravel()
            w, p = merge_atoms(w, p, merge_tol)
        works, probs = w, p
        ln_zi = None
    elif statistics in ("boson", "fermion"):
        if n_particles != 2:
            raise ConfigError("exchange-corrected references implemented for N = 2")
        offset = 0.5 if (statistics == "fermion" and n_particles % 2 == 0) else 0.0
        _, e1 = ring_ideal_levels(lam_i, beta, hbar, offset=offset)
        i, j = np.triu_indices(e1.size, k=0 if statistics == "boson" else 1)
        e2 = e1[i] + e1[j]
        works = (scale - 1.0) * e2
        probs, ln_zi = _thermal(e2, beta)
        works, probs = merge_atoms(works, probs, merge_tol)
    else:
        raise ConfigError(f"unknown statistics {statistics!r}")
    return WorkDistribution(
        works=works,
        probabilities=probs,
        beta=beta,
        protocol=Adiabatic(lam_i, lam_f),
        tail_mass=0.0,
        metadata={"route": f"ideal-{statistics}", "n_particles": n_particles},
    )


def equipartition_mean_work(
    lam_i: float, lam_f: float, n_particles: int, beta: float
) -> float:
    """Classical adiabatic mean work (lam_i^2/lam_f^2 - 1) N / (2 beta)."""
    return (lam_i**2 / lam_f**2 - 1.0) * n_particles / (2.0 * beta)


def free_momentum_work(quantum_numbers, lam_i: float, lam_f: float, hbar: float = 1.0) -> float:
    """Highly-excited-state shortcut: rapidities pinned at 2 pi I / lam.

    Valid when every |I_l| >> N/2; the neglected phase-shift terms are
    O(sum_j Delta I / sum I^2) relative (they grow with the spread of I).
    """
    I = np.asarray(quantum_numbers, dtype=float)
    return float(4.0 * hbar**2 * np.pi**2 * (I**2).sum() * (1.0 / lam_f**2 - 1.0 / lam_i**2))


# ---------------------------------------------------------------------------
# Mean-work identities
# ---------------------------------------------------------------------------


def sudden_wall_mean_work(
    lam_i: float,
    lam_f: float,
    coupling: float,
    beta: float,
    cutoff_i: int,
    hbar: float = 1.0,
    cutoff_f: Optional[int] = None,
) -> dict:
    """<W> for a sudden expansion, two ways.

    'identity': the frozen state keeps its quadratic form, and both kinetic
    and contact integrals run over the small box where it is supported, so
    <i|H_f|i> = E_i exactly and <W> = 0.  Evaluated honestly from the form
    matrices (machine zero, not hard-coded).  'atom_sum': truncated
    sum_f P(f|i) E_f - E_i, which converges only algebraically in cutoff_f
    and is returned as a diagnostic of that slow route.
    """
    sp_i = _box_spectrum(lam_i, coupling, cutoff_i, hbar)
    ops = boxspec.unit_pair_operators(cutoff_i)
    p_i, _ = _thermal(sp_i.energies, beta)
    V = sp_i.vectors
    # quadratic form of H_f on embedded states = same integrals over [0, lam_i]
    form = (
        hbar**2 * (ops["k1"][:, None] * V * V).sum(axis=0) / lam_i**2
        + (coupling / lam_i) * np.einsum("ai,ab,bi->i", V, ops["v1"], V)
    )
    identity_value = float(np.sum(p_i * (form - sp_i.energies)))
    out = {"identity": identity_value}
    if cutoff_f is not None:
        dist = sudden_wall_distribution(
            lam_i, lam_f, coupling, beta, cutoff_i, cutoff_f, hbar
        )
        out["atom_sum"] = float(np.sum(dist.works * dist.probabilities))
        out["transition_deficit"] = dist.metadata["transition_deficit"]
    return out


def sudden_coupling_mean_work(
    lam: float,
    coupling_i: float,
    coupling_f: float,
    beta: float,
    cutoff: int,
    hbar: float = 1.0,
) -> dict:
    """<W> = (C_f - C_i) <delta(x1-x2)>_thermal, exact within the model."""
    sp_i = _box_spectrum(lam, coupling_i, cutoff, hbar)
    ops = boxspec.unit_pair_operators(cutoff)
    p_i, _ = _thermal(sp_i.energies, beta)
    V = sp_i.vectors
    delta_exp = np.einsum("ai,ab,bi->i", V, ops["v1"], V) / lam
    return {
        "identity": float((coupling_f - coupling_i) * np.sum(p_i * delta_exp)),
        "thermal_contact": float(np.sum(p_i * delta_exp)),
    }


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def tpm_distribution(
    model: ModelSpec, protocol, beta: float, **kwargs
) -> WorkDistribution:
    """Route a (model, protocol) pair to its work-distribution engine.

    kwargs forward to the route: i_max for ring enumeration, cutoff /
    cutoff_i / cutoff_f for box bases, rtol/atol for ramps.
    """
    geom = model.geometry
    if isinstance(geom, Ring):
        if isinstance(protocol, Adiabatic):
            return adiabatic_ring_distribution(
                protocol.lambda_initial,
                protocol.lambda_final,
                model.coupling,
                model.n_particles,
                beta,
                hbar=model.hbar,
                **kwargs,
            )
        raise ConfigError(
            f"{type(protocol).__name__} on a ring is not supported "
            "(rapidity dynamics beyond the adiabatic limit has no route here)"
        )
    if model.n_particles != 2:
        raise ConfigError("box routes handle two particles")
    if isinstance(protocol, Adiabatic):
        if model.is_hard_core:
            return tg_adiabatic_box_distribution(
                protocol.lambda_initial, protocol.lambda_final, beta,
                hbar=model.hbar, **kwargs,
            )
        return adiabatic_box_distribution(
            protocol.lambda_initial, protocol.lambda_final, model.coupling,
            beta, hbar=model.hbar, **kwargs,
        )
    if isinstance(protocol, SuddenWall):
        # the sudden-wall routes name their initial cutoff cutoff_i
        if "cutoff" in kwargs:
            kwargs["cutoff_i"] = kwargs.pop("cutoff")
        if model.is_hard_core:
            return tg_sudden_wall_distribution(
                protocol.lambda_initial, protocol.lambda_final, beta,
                hbar=model.hbar, **kwargs,
            )
        return sudden_wall_distribution(
            protocol.lambda_initial, protocol.lambda_final, model.coupling,
            beta, hbar=model.hbar, **kwargs,
        )
    if isinstance(protocol, SuddenCoupling):
        if math.isinf(protocol.coupling_initial) or math.isinf(protocol.coupling_final):
            raise ConfigError("coupling quench endpoints must be finite")
        return sudden_coupling_distribution(
            model.length, protocol.coupling_initial, protocol.coupling_final,
            beta, hbar=model.hbar, **kwargs,
        )
    if isinstance(protocol, LinearRamp):
        if model.is_hard_core:
            raise ConfigError("ramp propagation needs a finite contact matrix")
        return ramp_distribution(
            protocol, model.coupling, beta, hbar=model.hbar, **kwargs
        )
    raise ConfigError(f"unsupported protocol {type(protocol).__name__}")
