"""Two-point-measurement work statistics for contact gases.

Work atoms: measure H_initial, drive, measure H_final; an atom of
probability p_i * P(f|i) sits at W = E_f - E_i.  All distributions are
discrete; probabilities and their logarithms are carried per atom, and
may fail to sum to one when a route truncates final states (the deficit
is recorded, never renormalized away silently).

Protocol routes, one function each
  adiabatic_ring_drive    Bethe enumerations at both volumes, paired by I
  adiabatic_box_drive     Galerkin levels paired by rank in a parity block
  sudden_wall_drive       embedding overlaps (expansion only)
  sudden_coupling_drive   two diagonalizations in the shared basis
  ramp_drive              comoving chirp-gauge propagation in the pair basis
Every box route takes the hard-core pair (C = inf) as it is: its basis is
the antisymmetric pairs, where the contact vanishes and the Galerkin
levels and transitions are the exact free-fermion ones.  Each refuses a
mode cutoff above 128 before it builds a basis.

Every route returns a temperature-free `Drive`: its levels and, unless
populations ride their levels, the transition matrix P[f, i].  Only the
thermal weights depend on beta, so one assembly, `Drive.at(beta)`, turns a
drive into atoms, log-probabilities, ln Z and tail mass, and routes that
should agree differ only in their physics.  One drive serves every beta:
`fig2` weighs one drive per coupling at each of its temperatures.
Log-probabilities keep the Jarzynski average finite far below underflow,
and place merged atoms of subnormal mass; the average is kept as
ln <e^{-beta W}>, so a cold drive whose average leaves double range still
reports it.
`propagate_ramp` says how the ramp is stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import boxspec, ringspec
from .core import BoxPair, ConfigError, LinearRamp, check_coupling, check_positive

__all__ = [
    "WorkDistribution",
    "merge_atoms",
    "kolmogorov_distance",
    "Drive",
    "adiabatic_ring_drive",
    "adiabatic_box_drive",
    "sudden_wall_drive",
    "sudden_coupling_drive",
    "ramp_drive",
    "RampResult",
    "propagate_ramp",
    "box_tail_bound",
]


# ---------------------------------------------------------------------------
# Distribution container
# ---------------------------------------------------------------------------


# np.sum adds fewer than this many terms left to right from +0.0; from
# this length on it sums pairwise with eight accumulators
_PAIRWISE_FROM = 8


def _segment_sums(x, starts, sizes):
    """np.sum(x[s:s + n]) for every segment, equal to it bit for bit.

    np.sum adds a segment's first term to +0.0, which is x[s] + 0.0; the
    segments of 2-7 terms add the rest left to right in at most six
    vectorized steps, and the rare long ones call np.sum on their slice.
    np.add.reduceat would not do: its order differs from np.sum's.
    """
    out = x[starts]
    out += 0.0
    short = np.flatnonzero((sizes > 1) & (sizes < _PAIRWISE_FROM))
    for j in range(1, _PAIRWISE_FROM - 1):
        out[short] += x[starts[short] + j]
        short = short[sizes[short] > j + 1]
    for g in np.flatnonzero(sizes >= _PAIRWISE_FROM):
        out[g] = np.sum(x[starts[g] : starts[g] + sizes[g]])
    return out


def _logsumexp(a) -> float:
    """scipy.special.logsumexp(a) of a non-empty a, equal to it bit for bit.

    scipy takes the maxima out of the sum: m is their count, the rest sum
    to s = np.sum(exp(a - max)) with the maxima's terms kept as zeros, and
    it returns log1p(s/m) + log(m) + max, or a maximum that is not finite.
    """
    a = np.asarray(a, dtype=float).ravel()
    top = a.max()
    if not np.isfinite(top):
        return float(top)
    is_top = a == top
    s = np.sum(np.exp(np.where(is_top, -np.inf, a) - top))
    m = float(np.count_nonzero(is_top))
    return float(np.log1p(s / m) + np.log(m) + top)


def merge_atoms(works, probabilities, log_probabilities, tol: float = 1e-9):
    """Cluster atoms closer than tol; returns the merged (works, probabilities).

    Each cluster's mass is np.sum of its probabilities and its position
    np.average of its works weighted by them (the plain mean for a cluster
    without mass), both to the last bit; the clusters are reduced as
    segments of the sorted atoms.  A cluster of subnormal mass (0 < p <
    tiny), whose linear weights have lost bits, is weighted by exp(log p -
    lse) instead where the logsumexp lse of its log p is finite; one such
    atom sits at its work + 0.0.
    """
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"merge tolerance must be finite and >= 0, got {tol}")
    w = np.asarray(works, dtype=float).ravel()
    p = np.asarray(probabilities, dtype=float).ravel()
    lp = np.asarray(log_probabilities, dtype=float).ravel()
    if w.size == 0:
        return w, p
    order = np.argsort(w, kind="stable")
    w, p, lp = w[order], p[order], lp[order]
    del order
    # a cluster starts at the first atom and wherever the gap exceeds tol
    first = np.empty(w.size, dtype=bool)
    first[0] = True
    np.greater(np.diff(w), tol, out=first[1:])
    starts = np.flatnonzero(first)
    del first
    sizes = np.diff(starts, append=w.size)
    out_p = _segment_sums(p, starts, sizes)
    p *= w  # the sorted copy's last use
    with np.errstate(invalid="ignore", divide="ignore"):
        out_w = _segment_sums(p, starts, sizes)
        out_w /= out_p
    del p
    mean = _segment_sums(w, starts, sizes)  # a massless cluster's position
    mean /= sizes
    np.copyto(out_w, mean, where=~(out_p > 0))
    del mean
    faint = np.flatnonzero((out_p > 0) & (out_p < np.finfo(float).tiny))
    one = faint[(sizes[faint] == 1) & np.isfinite(lp[starts[faint]])]
    out_w[one] = w[starts[one]] + 0.0
    for g in faint[sizes[faint] > 1]:
        sl = slice(starts[g], starts[g] + sizes[g])
        lse = _logsumexp(lp[sl])
        if math.isfinite(lse):
            out_w[g] = np.average(w[sl], weights=np.exp(lp[sl] - lse))
    return out_w, out_p


@dataclass
class WorkDistribution:
    """Work atoms W with their probabilities p and log p.

    log p is exact where p underflows, so atoms far below double range
    still carry a finite p exp(-beta W) into `log_jarzynski_average`.
    """

    works: np.ndarray
    probabilities: np.ndarray
    log_probabilities: np.ndarray
    beta: float
    tail_mass: float = 0.0  # thermal weight provably outside the enumeration
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.works = np.asarray(self.works, dtype=float).ravel()
        self.probabilities = np.asarray(self.probabilities, dtype=float).ravel()
        self.log_probabilities = np.asarray(self.log_probabilities, dtype=float).ravel()
        if not self.works.shape == self.probabilities.shape == self.log_probabilities.shape:
            raise ConfigError("works, probabilities and log_probabilities must align")

    @property
    def mass(self) -> float:
        return float(self.probabilities.sum())

    def moments(self, n_max: int = 2) -> np.ndarray:
        """First n_max moments of the mass-normalized distribution."""
        p = self.probabilities / self.mass
        return np.array([float(np.sum(p * self.works**n)) for n in range(1, n_max + 1)])

    def log_jarzynski_average(self) -> float:
        """ln sum p exp(-beta W), not renormalized; -inf without a finite atom.

        Kept in log space: at low temperature the average itself leaves
        double range while its ratio to Z_f / Z_i stays near 1.
        """
        arg = self.log_probabilities - self.beta * self.works
        keep = np.isfinite(arg)
        if not keep.any():
            return -math.inf
        return _logsumexp(arg[keep])


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


def _thermal(energies, beta):
    e = np.asarray(energies, dtype=float)
    ln_z = _logsumexp(-beta * e)
    p = np.exp(-beta * e - ln_z)
    return p, ln_z


@dataclass
class Drive:
    """A drive from levels energies_i to levels energies_f, free of beta.

    P[f, i] is the transition matrix; None means every population rides its
    level to the same index (adiabatic).  tail(beta) bounds the initial
    thermal weight outside energies_i, unnormalized; each route binds its
    bound (`box_tail_bound`, `ringspec.spectral_tail_bound`) to its basis
    when it builds the drive.  diagnostics(P, p_i)
    returns the route's truncation checks, which may weigh by the initial
    populations.
    """

    energies_i: np.ndarray
    energies_f: np.ndarray
    P: Optional[np.ndarray]
    tail: Callable[[float], float]
    diagnostics: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def at(self, beta: float) -> WorkDistribution:
        """The TPM distribution of this drive from the thermal state at beta."""
        check_positive("beta", beta)
        e_i, e_f, P = self.energies_i, self.energies_f, self.P
        tail = self.tail(beta)
        p_i, ln_zi = _thermal(e_i, beta)
        if P is None:
            works, probs, log_probs = e_f - e_i, p_i, -beta * e_i - ln_zi
        else:
            works = e_f[:, None] - e_i[None, :]
            probs = P * p_i[None, :]
            with np.errstate(divide="ignore"):  # log P[f, i] p_i without underflow
                log_probs = np.log(P)
            log_probs += (-beta * e_i - ln_zi)[None, :]
        metadata = dict(self.metadata, ln_z_initial=ln_zi,
                        ln_z_final=_logsumexp(-beta * e_f))
        if self.diagnostics is not None:
            metadata.update(self.diagnostics(P, p_i))
        return WorkDistribution(
            works=works,
            probabilities=probs,
            log_probabilities=log_probs,
            beta=beta,
            # a zero bound stays 0 where exp(-ln Z_i) overflows
            tail_mass=float(tail * np.exp(-ln_zi)) if tail else 0.0,
            metadata=metadata,
        )


def _unitarity_defect(P, p_i):
    """Worst column-sum error of a transition matrix that should be unitary."""
    return {"unitarity_defect": float(np.abs(P.sum(axis=0) - 1.0).max())}


def _wall_deficits(P, p_i):
    """Weight a sudden expansion loses past the final cutoff.

    'transition_deficit' is the worst initial state's, max_i (1 - sum_f
    P[f, i]); 'thermal_transition_deficit' the thermal average's.
    """
    col = P.sum(axis=0)
    return {
        "transition_deficit": float((1.0 - col).max()),
        "thermal_transition_deficit": float(1.0 - (p_i * col).sum()),
    }


# ---------------------------------------------------------------------------
# Ring: adiabatic Bethe route
# ---------------------------------------------------------------------------


def adiabatic_ring_drive(
    lam_i: float, lam_f: float, coupling: float, n_particles: int, i_max: float,
    hbar: float = 1.0,
) -> Drive:
    """Quasistatic ring rescaling: populations ride their quantum numbers."""
    check_positive("lambda_initial", lam_i)
    check_positive("lambda_final", lam_f)
    table = ringspec.enumerate_states(lam_i, coupling, n_particles, i_max, hbar)
    k_f, _ = ringspec.solve_bethe_batch(table.quantum_numbers, lam_f, coupling, hbar)
    e_f = hbar**2 * (k_f**2).sum(axis=1)
    return Drive(
        table.energies, e_f, None,
        partial(ringspec.spectral_tail_bound, lam_i, n_particles, i_max, hbar=hbar),
        metadata=dict(route="bethe-adiabatic", coupling=coupling,
                      n_particles=n_particles, i_max=i_max),
    )


# ---------------------------------------------------------------------------
# Box routes (Galerkin pair basis)
# ---------------------------------------------------------------------------


def box_tail_bound(lam: float, cutoff: int, beta: float, hbar: float = 1.0) -> float:
    """Thermal weight above the pair cutoff, bounded by the free-boson box gas.

    Repulsion only raises levels, so sum exp(-beta E) over pairs with a mode
    index beyond `cutoff` is at most its C = 0 value.  Modes past the
    summed window add at most int_K^inf e^{-g x^2} dx, since e^{-g x^2}
    decreases; that term is what keeps the bound at very small beta.
    """
    check_positive("box width", lam)
    check_positive("beta", beta)
    check_positive("hbar", hbar)
    lam2 = lam * lam
    g = beta * (hbar * hbar) * np.pi**2 / lam2 if lam2 > 0.0 else math.inf
    # the scale itself may leave double range though its inputs do not
    check_positive(f"beta hbar^2 pi^2 / lambda^2 (beta = {beta:g}, hbar = {hbar:g}, "
                   f"lambda = {lam:g})", g)
    n = np.arange(1, cutoff + 2000)
    w = np.exp(-g * n.astype(float) ** 2)
    rest = 0.5 * math.sqrt(math.pi / g) * math.erfc(n[-1] * math.sqrt(g))
    total = w.sum() + rest
    high = w[cutoff:].sum() + rest  # modes > cutoff
    return float(2.0 * high * total)


# a box route is refused a mode cutoff above this, its final one included,
# before it builds a basis: at 128 each of the two parity blocks holds more
# than 4,000 pairs, which the sudden and ramp routes solve densely
_MAX_CUTOFF = 128


def _check_cutoff(cutoff: int) -> None:
    if not cutoff <= _MAX_CUTOFF:
        raise ConfigError(f"mode cutoff must be <= {_MAX_CUTOFF} on a box work route, "
                          f"got {cutoff}")


def adiabatic_box_drive(
    lam_i: float, lam_f: float, coupling: float, cutoff: int, hbar: float = 1.0
) -> Drive:
    """Each level rides to the level of its rank in its reflection-parity block.

    Levels of opposite parity cross as the box grows.  Within a block, rank
    pairing holds for the Galerkin levels at the tested cutoffs: following
    each state by overlap reaches the same level
    (test_adiabatic_box_levels_follow_their_parity_block).  It need not
    hold in the exact spectrum: at C = 100 the same-parity Bethe levels
    (I1, I2) = (3, 17) and (10, 14) cross at lambda = 1.00794.  No
    eigenvector is formed but those of the six lowest levels at each width,
    which carry the residual gate (`boxspec.block_levels`).
    """
    check_positive("lambda_initial", lam_i)
    check_positive("lambda_final", lam_f)
    _check_cutoff(cutoff)
    e_i, rows_i = boxspec.block_levels(BoxPair(lam_i, coupling, hbar), cutoff)
    levels_f, cols_f = boxspec.block_levels(BoxPair(lam_f, coupling, hbar), cutoff)
    e_f = np.empty_like(levels_f)
    for rows, cols in zip(rows_i, cols_f):
        e_f[rows] = levels_f[cols]
    return Drive(
        e_i, e_f, None, partial(box_tail_bound, lam_i, cutoff, hbar=hbar),
        metadata=dict(route="galerkin-adiabatic", coupling=coupling, cutoff=cutoff),
    )


def sudden_wall_drive(
    lam_i: float, lam_f: float, coupling: float, cutoff: int,
    cutoff_f: Optional[int] = None, hbar: float = 1.0,
) -> Drive:
    """Instant box expansion; the state is frozen and re-measured.

    Transition weights per initial state sum to 1 only in the limit of a
    complete final basis; the deficit max_i (1 - sum_f P[f, i]) is reported
    in metadata as 'transition_deficit'.  The small box sits at the left end
    of the big one, so the embedding is not centre-symmetric and connects
    levels of opposite centre-reflection parity.

    The default cutoff_f = ceil(cutoff * lam_f / lam_i) is a floor: its top
    final mode reaches the top initial mode's momentum, but the frozen
    state's weight spreads past it, so the top states lose much of theirs.
    At cutoff 14, lam 1 -> 2 (cutoff_f 28) 'transition_deficit' is 0.41,
    while the thermal average's at beta = 1 is 5.1e-5; a larger cutoff_f
    lowers the worst state's (0.002 at 12 -> 48).  A cutoff above 128,
    initial or final, or a final width below the initial one, is a
    ConfigError, raised before either box is diagonalized.
    """
    check_positive("lambda_initial", lam_i)
    check_positive("lambda_final", lam_f)
    if lam_f < lam_i:
        raise ConfigError("sudden compression not supported: final width < initial width")
    _check_cutoff(cutoff)
    if cutoff_f is None:
        cutoff_f = cutoff * lam_f / lam_i
    if not cutoff_f <= _MAX_CUTOFF:  # also inf and nan
        raise ConfigError(
            f"the sudden expansion to lambda_f = {lam_f:g} from cutoff {cutoff} needs "
            f"a final cutoff of {cutoff_f:.3g}, more than {_MAX_CUTOFF}; "
            "lower lambda_f or the cutoff"
        )
    cutoff_f = int(math.ceil(cutoff_f))
    sp_i = boxspec.diagonalize(BoxPair(lam_i, coupling, hbar), cutoff)
    sp_f = boxspec.diagonalize(BoxPair(lam_f, coupling, hbar), cutoff_f)
    O2 = boxspec.pair_embed_overlaps(lam_i, lam_f, sp_i.basis, sp_f.basis)
    P = sp_f.project(sp_i.apply(O2)) ** 2
    return Drive(
        sp_i.energies, sp_f.energies, P, partial(box_tail_bound, lam_i, cutoff, hbar=hbar),
        _wall_deficits, dict(route="galerkin-sudden-wall", coupling=coupling,
                             cutoff_i=cutoff, cutoff_f=cutoff_f),
    )


def sudden_coupling_drive(
    lam: float, coupling_i: float, coupling_f: float, cutoff: int, hbar: float = 1.0
) -> Drive:
    """Interaction quench at fixed walls; exact completeness in the model.

    Both Hamiltonians commute with reflection about the box centre, so
    P[f, i] is exactly 0 between levels of opposite parity, and P is
    formed one block product at a time.  An infinite endpoint is a
    ConfigError, raised before either box is diagonalized: the hard-core
    pair's basis, the antisymmetric pairs, is not the finite-C one.
    """
    check_coupling("coupling_initial", coupling_i)
    check_coupling("coupling_final", coupling_f)
    if math.isinf(coupling_i) or math.isinf(coupling_f):
        raise ConfigError("coupling quench endpoints must be finite")
    _check_cutoff(cutoff)
    sp_i = boxspec.diagonalize(BoxPair(lam, coupling_i, hbar), cutoff)
    sp_f = boxspec.diagonalize(BoxPair(lam, coupling_f, hbar), cutoff)
    P = sp_f.overlaps(sp_i) ** 2
    return Drive(
        sp_i.energies, sp_f.energies, P, partial(box_tail_bound, lam, cutoff, hbar=hbar),
        _unitarity_defect, dict(route="galerkin-sudden-coupling", cutoff=cutoff),
    )


# ---------------------------------------------------------------------------
# Moving wall: comoving chirp-gauge propagation
# ---------------------------------------------------------------------------


# Blanes & Moan's S6 (J. Comput. Appl. Math. 142, 313 (2002)), a symmetric
# fourth-order partitioned splitting of dc/ds = (A + K(s)) c: seven clocked
# diagonal K stages around six low-rank contact A stages,
# K a1 A b1 K a2 A b2 K a3 A b3 K a4 A b3 K a3 A b2 K a2 A b1 K a1
_S6_K = (0.0792036964311957, 0.353172906049774, -0.0420650803577195)
_S6_K += (1.0 - 2.0 * sum(_S6_K),)
_S6_A = (0.209515106613362, -0.143851773179818)
_S6_A += (0.5 - sum(_S6_A),)
_S6_K_STAGES = np.array(_S6_K + _S6_K[2::-1])  # a1 a2 a3 a4 a3 a2 a1
_S6_A_STAGES = (0, 1, 2, 2, 1, 0)  # b1 b2 b3 b3 b2 b1, as indices into _S6_A
# one step per this much of the ramp's total phase: the fastest kinetic
# mode's plus max|eig(iA)| over the whole span in s
_STEP_PHASE = 0.5
# a ramp that needs more steps is refused before it runs
_MAX_STEPS = 10**7


@dataclass
class RampResult:
    energies_i: np.ndarray
    energies_f: np.ndarray
    amplitudes: np.ndarray  # (n_final, n_columns), complex
    norm_drift: float
    n_rhs_evals: int  # contact sub-flow applications, six per splitting step

    @property
    def transition_matrix(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


# the K phases of this many steps come from one np.exp call
_PHASE_SLAB = 64


def _contact_flows(ops, blocks, g, n):
    """W (blocks, n, r) and mu (blocks, r) with iA = W diag(mu) W^T on each
    block: each block's W has orthonormal columns, zero-padded to n pairs
    and r columns.

    v1 on the block is F^T F, F its coincidence factor (about M + 1 rows,
    `boxspec._contact_factor`), so the thin SVD F = U diag(sigma) W^T gives
    mu = g sigma^2 with no dense eigendecomposition.  At g = 0 (C = 0, or
    C = inf on the antisymmetric pairs) the contact is absent: r = 0.
    """
    factors = [np.linalg.svd(boxspec._contact_factor(ops, b), full_matrices=False)[1:]
               for b in blocks] if g else []
    r = max((s.size for s, _ in factors), default=0)
    W = np.zeros((len(blocks), n, r))
    mu = np.zeros((len(blocks), r))
    for k, (s, wt) in enumerate(factors):
        W[k, :wt.shape[1], :s.size] = wt.T
        mu[k, :s.size] = g * s * s
    return W, mu


def _s6_steps(y, kin, W, mu, clock, speed, h, n_steps):
    """n_steps S6 steps of length h of dy/ds = [A - i K(s)] y on a stack of
    parity blocks, y (blocks, n, m) complex, updated in place.

    On each block iA = W diag(mu) W^T with orthonormal W, so its sub-flow
    exp(x A) = I + W (exp(-i x mu) - 1) W^T: two real GEMMs on y viewed as
    real, W being real.  The K stages of the first step carry the phases
    kin * clock (kin (blocks, n)), and each later step's clock is scaled by
    exp(-v h).
    """
    Wt = np.ascontiguousarray(W.transpose(0, 2, 1))
    d = [np.expm1(-1j * b * h * mu)[..., None] for b in _S6_A]
    yr = y.view(float)
    for start in range(0, n_steps, _PHASE_SLAB):
        scale = np.exp(-speed * h * np.arange(start, min(start + _PHASE_SLAB, n_steps)))
        # phases (steps, stages, blocks, n), each applied as a column
        slab = np.multiply(1j, np.multiply.outer(np.multiply.outer(scale, clock), kin))
        np.exp(slab, out=slab)
        for phases in slab[..., None]:
            for ph, b in zip(phases, _S6_A_STAGES):
                y *= ph
                if mu.size:
                    z = (Wt @ yr).view(complex)
                    z *= d[b]
                    yr += W @ z.view(float)
            y *= phases[-1]


def propagate_ramp(
    ramp: LinearRamp,
    coupling: float,
    cutoff: int,
    hbar: float = 1.0,
    columns: Optional[Sequence[int]] = None,
) -> RampResult:
    """Propagate the pair coefficients through L(t) = L_i + v t.

    A linear wall has an exact comoving gauge (Doescher & Rice, Am. J.
    Phys. 37, 1246 (1969); Makowski & Dembinski, Phys. Lett. A 154, 217
    (1991)).  With 2m = 1 and y = x / L,

        psi(x, t) = exp(i v (x1^2 + x2^2) / (4 hbar L)) Phi(y, t) / L,

    and Phi obeys i hbar dPhi/dt = [hbar^2 K / L^2 + (C / L) v1] Phi on the
    unit box, K = diag(k1): no dilation term is left.  The amplitudes are
    V_f^T X2(a_f) U X2(-a_i) V_i with a = v L / (4 hbar), X2 the pair
    chirp (`boxspec.pair_chirp`, unitary in the truncated basis) and U the
    flow of Phi.  The chirp sits off the box centre, so the amplitudes
    connect levels of opposite centre-reflection parity, but U does not:
    K and v1 keep the p+q-even and p+q-odd pairs apart, so U is one
    propagator U_b per block.

    In s = int dt / L the flow is dPhi/ds = [A - i (hbar / L(s)) K] Phi with
    the constant A = -(i C / hbar) v1.  Both parts have exact unitary
    flows: exp(x A) = I + W (exp(-i x mu) - 1) W^T on each block, of rank
    about M, from a thin SVD of the block's coincidence factor
    (`_contact_flows`), and the diagonal phase exp(-i hbar k1 int dt / L^2)
    that carries the clock.  A symmetric fourth-order splitting (S6)
    composes them in n equal steps in s, with n set by the total phases of
    the two parts, so only the time-integration error depends on the step.
    Both blocks are stepped together, zero-padded into one stack: of their
    identities, whose U_b then meets the state's columns once, or of the
    columns themselves when those are fewer.  A ramp that needs more than
    1e7 steps is a ConfigError, raised before either box is diagonalized.
    """
    check_coupling("contact coupling", coupling)
    check_positive("hbar", hbar)
    _check_cutoff(cutoff)
    lam_i, lam_f = ramp.lambda_initial, ramp.lambda_final
    ops = boxspec.unit_pair_operators(cutoff, -1 if math.isinf(coupling) else 1)
    basis, k1 = ops["basis"], ops["k1"]
    speed = ramp.speed
    blocks = basis.parity_blocks()
    n = max(b.size for b in blocks)
    # iA = (C / hbar) v1, real symmetric on each block
    W, mu = _contact_flows(ops, blocks, boxspec.contact_coupling(coupling) / hbar, n)
    span = math.log(lam_f / lam_i) / speed if speed else ramp.duration / lam_i
    phase = (hbar * float(k1.max()) * ramp.duration / (lam_i * lam_f)
             + float(mu.max(initial=0.0)) * span)
    n_steps = phase / _STEP_PHASE
    if not n_steps <= _MAX_STEPS:  # also inf and nan
        raise ConfigError(
            f"the ramp needs {n_steps:.3g} split steps, more than {_MAX_STEPS:.0e}; "
            "lower C, the cutoff or the duration, or widen the box"
        )
    n_steps = math.ceil(n_steps)
    h = span / n_steps
    sp_i = boxspec.diagonalize(BoxPair(lam_i, coupling, hbar), cutoff)
    sp_f = boxspec.diagonalize(BoxPair(lam_f, coupling, hbar), cutoff)
    y = sp_i.apply(boxspec.pair_chirp(-speed * lam_i / (4.0 * hbar), basis), columns)
    # int dt / L^2 = int ds / L(s) over each K stage, L(s) = L_i exp(v s);
    # per step the stages shift by h, which scales these by exp(-v h)
    widths = _S6_K_STAGES * h
    starts = np.cumsum(widths) - widths
    if speed:
        clock = np.exp(-speed * starts) * -np.expm1(-speed * widths) / (speed * lam_i)
    else:
        clock = widths / lam_i
    # the stack holds y's columns on each block, or the block's identity
    # when that is narrower, whose flow U_b then meets y once
    m = min(y.shape[1], n)
    stack = np.zeros((len(blocks), n, m), dtype=complex)
    kins = np.zeros((len(blocks), n))
    for k, b in enumerate(blocks):
        stack[k, :b.size] = y[b] if m < n else np.eye(b.size, m)
        kins[k, :b.size] = -hbar * k1[b]
    _s6_steps(stack, kins, W, mu, clock, speed, h, n_steps)
    for k, b in enumerate(blocks):
        y[b] = stack[k, :b.size] if m < n else stack[k, :b.size, :b.size] @ y[b]
    y = boxspec.pair_chirp(speed * lam_f / (4.0 * hbar), basis) @ y

    drift = float(np.abs((np.abs(y) ** 2).sum(axis=0) - 1.0).max())
    amplitudes = sp_f.project(y)
    return RampResult(
        energies_i=sp_i.energies,
        energies_f=sp_f.energies,
        amplitudes=amplitudes,
        norm_drift=drift,
        n_rhs_evals=len(_S6_A_STAGES) * n_steps,
    )


def ramp_drive(ramp: LinearRamp, coupling: float, cutoff: int, hbar: float = 1.0) -> Drive:
    """The wall ramp propagated once (`propagate_ramp`), weighed at any beta."""
    res = propagate_ramp(ramp, coupling, cutoff, hbar)
    return Drive(
        res.energies_i, res.energies_f, res.transition_matrix,
        partial(box_tail_bound, ramp.lambda_initial, cutoff, hbar=hbar), _unitarity_defect,
        dict(route="ramp-propagation", coupling=coupling, cutoff=cutoff,
             norm_drift=res.norm_drift),
    )
