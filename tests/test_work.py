import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from dualgas import boxspec
from dualgas import ringspec as rs
from dualgas import work as wk
from dualgas.core import BoxPair, ConfigError, LinearRamp

import oracles

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
masses = st.floats(1e-6, 1.0)


def jarzynski_residual(d: wk.WorkDistribution) -> float:
    dF = d.metadata["ln_z_initial"] - d.metadata["ln_z_final"]
    return abs(math.expm1(d.log_jarzynski_average() + dF))


# ---------------------------------------------------------------------------
# atom bookkeeping
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(finite, masses), min_size=1, max_size=40))
def test_merge_atoms_conserves_mass_and_sorts(atoms):
    w = np.array([a[0] for a in atoms])
    p = np.array([a[1] for a in atoms])
    merged = wk.merge_atoms(w, p, np.log(p), tol=1e-6)
    mw, mp, _ = merged
    assert mp.sum() == pytest.approx(p.sum(), rel=1e-12)
    assert np.all(np.diff(mw) > 1e-6)  # merged atoms are separated
    # merging again changes nothing
    again = wk.merge_atoms(*merged, tol=1e-6)
    assert all(np.array_equal(a, b) for a, b in zip(merged, again))


def test_merge_atoms_carries_log_probabilities():
    w = np.array([0.0, 1e-12, 1.0])
    p = np.array([0.25, 0.25, 0.5])
    mw, mp, mlp = wk.merge_atoms(w, p, np.log(p), 1e-9)
    assert mw.size == 2
    assert mlp == pytest.approx(np.log(mp), abs=1e-12)


def merge_atoms_reference(works, probabilities, tol, log_probabilities):
    """The per-cluster loop merge_atoms must reproduce bit for bit."""
    order = np.argsort(works, kind="stable")
    w, p, lp = works[order], probabilities[order], log_probabilities[order]
    cuts = np.nonzero(np.diff(w) > tol)[0] + 1
    groups = np.concatenate([[0], cuts, [w.size]])
    out_w, out_p, out_lp = (np.empty(groups.size - 1) for _ in range(3))
    for g in range(groups.size - 1):
        sl = slice(groups[g], groups[g + 1])
        mass = p[sl].sum()
        out_p[g] = mass
        out_w[g] = np.average(w[sl], weights=p[sl]) if mass > 0 else w[sl].mean()
        out_lp[g] = logsumexp(lp[sl])
    return out_w, out_p, out_lp


@st.composite
def clustered_atoms(draw):
    """Shuffled atoms in well separated clusters, up to 64 of them.

    Most clusters are one atom, as in a work distribution; each draw also
    has one of 2-7 atoms and one of 8 or more, so every path of the
    segment sums runs.  Centres may be negative, and one cluster sits at 0
    with exact -0.0 works.  Members sit on exact ties or jitter below the
    1e-9 merge tolerance; masses span many decades so that summation order
    shows in the last bits, a cluster may carry no mass, and
    log-probabilities may be -inf or exactly -0.0.
    """
    sizes = [1, draw(st.integers(2, 7)), draw(st.integers(8, 20))]
    sizes += draw(st.lists(st.sampled_from([1] * 8 + [2, 3, 5, 7, 8, 12]), max_size=61))
    sizes = draw(st.permutations(sizes))
    zero = draw(st.integers(0, len(sizes) - 1))
    w, p, lp = [], [], []
    for c, size in enumerate(sizes):
        centre = 1.7 * (c - zero) + draw(st.floats(0.0, 1.0))
        zero_mass = draw(st.booleans())
        for _ in range(size):
            if c == zero:
                w.append(draw(st.sampled_from([-0.0, -0.0, 0.0, 1e-13, -2e-10])))
            else:
                w.append(centre + draw(st.sampled_from([0.0, 0.0, 1e-13, 2e-10, 9e-10])))
            p.append(0.0 if zero_mass else draw(st.floats(1e-30, 1.0)))
            lp.append(draw(st.sampled_from([-np.inf, -0.0]) | st.floats(-800.0, 5.0)))
    order = draw(st.permutations(range(len(w))))
    return tuple(np.array(x, dtype=float)[order] for x in (w, p, lp))


@given(clustered_atoms())
def test_merge_atoms_bitwise_equals_reference(atoms):
    w, p, lp = atoms
    got = wk.merge_atoms(w, p, lp, 1e-9)
    want = merge_atoms_reference(w, p, 1e-9, lp)
    for g, r in zip(got, want):
        assert np.array_equal(g.view(np.uint64), r.view(np.uint64))  # -0.0 too


@st.composite
def logsumexp_inputs(draw):
    """Exponents drawn from a few values, so maxima tie, with -inf entries.
    Arrays reach past the eight terms from which np.sum adds pairwise."""
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=3))
    pool += [-np.inf]
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@given(logsumexp_inputs())
def test_logsumexp_bitwise_equals_scipy(a):
    assert np.array_equal(np.float64(wk._logsumexp(a)), logsumexp(a), equal_nan=True)


@pytest.mark.parametrize("a", [[2.5], [-np.inf], [-np.inf, -np.inf], [3.0, 3.0, 3.0],
                               [3.0] * 30 + [-1.0] * 30])
def test_logsumexp_edge_cases_bitwise_equal_scipy(a):
    # the last case sums thirty tied maxima and thirty smaller terms
    assert np.array_equal(np.float64(wk._logsumexp(a)), logsumexp(a))


def test_merge_atoms_places_subnormal_cluster_by_log_probabilities():
    # the linear weights carry 15 and 13 significant bits: their weighted
    # mean landed at 1.23455378, 1.4e-5 off the atoms
    w = np.array([1.2345678, 1.2345678 + 1e-10])
    p = np.array([1.5e-319, 4e-320])
    mw, mp, _ = wk.merge_atoms(w, p, np.log(p), 1e-9)
    assert mp.size == 1
    assert mw[0] == pytest.approx(np.average(w, weights=[15.0, 4.0]), abs=1e-15)
    # clusters of normal mass in the same call keep their bits
    w2, p2 = np.append(w, [3.0, 3.0 + 1e-10]), np.append(p, [0.3, 0.7])
    mw2, mp2, _ = wk.merge_atoms(w2, p2, np.log(p2), 1e-9)
    assert mw2[0] == mw[0]
    assert mw2[1] == merge_atoms_reference(w2, p2, 1e-9, np.log(p2))[0][1]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_merge_atoms_rejects_tolerance_not_finite_and_nonnegative(tol):
    # nan or inf would merge every atom into one, a negative tol none
    p = np.array([0.2, 0.3, 0.5])
    with pytest.raises(ConfigError, match="merge tolerance"):
        wk.merge_atoms([0.0, 1.0, 2.0], p, np.log(p), tol)
    assert wk.merge_atoms([0.0, 1.0, 2.0], p, np.log(p), 0.0)[0].size == 3


def test_distribution_validation_and_mass():
    with pytest.raises(ConfigError):
        wk.WorkDistribution(works=[0.0, 1.0], probabilities=[1.0],
                            log_probabilities=[0.0], beta=1.0)
    with pytest.raises(ConfigError):
        wk.WorkDistribution(works=[0.0, 1.0], probabilities=[0.25, 0.75],
                            log_probabilities=[0.0], beta=1.0)
    p = np.array([0.25, 0.75])
    d = wk.WorkDistribution(works=[0.0, 1.0], probabilities=p,
                            log_probabilities=np.log(p), beta=1.0)
    assert d.mass == pytest.approx(1.0)
    assert d.moments(1)[0] == pytest.approx(0.75)
    m1, m2 = d.moments(2)
    assert (m1, m2) == (pytest.approx(0.75), pytest.approx(0.75))


@given(
    st.lists(st.tuples(st.integers(-20, 20), masses), min_size=1, max_size=15),
    st.floats(-0.02, 0.02),
)
def test_kolmogorov_resolution_absorbs_jitter(atoms, shift):
    # atoms on an integer lattice, the copy shifted by < resolution/2
    w = np.array([float(a[0]) for a in atoms])
    p = np.array([a[1] for a in atoms])
    p = p / p.sum()
    a = wk.WorkDistribution(works=w, probabilities=p, log_probabilities=np.log(p), beta=1.0)
    b = wk.WorkDistribution(works=w + shift, probabilities=p, log_probabilities=np.log(p),
                            beta=1.0)
    assert wk.kolmogorov_distance(a, a) <= 1e-12  # cumsum cancellation noise
    assert wk.kolmogorov_distance(a, b, resolution=0.1) == pytest.approx(0.0, abs=1e-12)


def test_kolmogorov_known_value():
    a = wk.WorkDistribution(works=[0.0], probabilities=[1.0], log_probabilities=[0.0], beta=1.0)
    b = wk.WorkDistribution(works=[1.0], probabilities=[1.0], log_probabilities=[0.0], beta=1.0)
    assert wk.kolmogorov_distance(a, b) == pytest.approx(1.0)
    half = np.log([0.5, 0.5])
    c = wk.WorkDistribution(works=[0.0, 1.0], probabilities=[0.5, 0.5],
                            log_probabilities=half, beta=1.0)
    assert wk.kolmogorov_distance(a, c) == pytest.approx(0.5)


def test_box_tail_bound_positive_and_decreasing():
    vals = [wk.box_tail_bound(1.0, c, 0.01) for c in (5, 10, 15)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("beta", [1e-7, 1e-8])
def test_box_tail_bound_holds_at_small_beta(beta):
    # the old bound summed only modes 1 .. cutoff + 1999, which at these
    # beta leaves out most of the weight
    cutoff = 14
    g = beta * math.pi**2
    n = np.arange(1, int(12.0 / math.sqrt(g))).astype(float)  # e^{-144} past the end
    w = np.exp(-g * n**2)
    converged = 2.0 * w[cutoff:].sum() * w.sum()
    window = w[: cutoff + 1999]
    old = 2.0 * window[cutoff:].sum() * window.sum()
    assert old < converged <= wk.box_tail_bound(1.0, cutoff, beta)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
def test_box_tail_bound_rejects_beta_not_positive_and_finite(beta):
    # 0 divided by zero, -1 took a square root of a negative, nan came back
    with pytest.raises(ConfigError, match="beta must be positive and finite"):
        wk.box_tail_bound(1.0, 14, beta)


@pytest.mark.parametrize("lam, beta, hbar", [(1.0, 1e-30, 1e-150), (1e300, 1.0, 1.0), (1e-200, 1.0, 1.0)])
def test_box_tail_bound_names_the_inputs_of_a_scale_out_of_range(lam, beta, hbar):
    # beta hbar^2 / lambda^2 gone to 0 divided by zero; lambda^2 overflowed
    # with an error that named no input
    with pytest.raises(ConfigError, match=re.escape(f"beta = {beta:g}, hbar = {hbar:g}, lambda = {lam:g}")):
        wk.box_tail_bound(lam, 14, beta, hbar)


# ---------------------------------------------------------------------------
# fluctuation relations per protocol
# ---------------------------------------------------------------------------


def test_jarzynski_exact_for_adiabatic_box():
    d = wk.adiabatic_box_drive(1.0, 2.0, 1.0, 14).at(1.0)
    assert jarzynski_residual(d) < 1e-12
    assert d.tail_mass < 1e-15


def test_jarzynski_exact_for_sudden_coupling():
    d = wk.sudden_coupling_drive(1.0, 1.0, 5.0, 14).at(0.5)
    assert jarzynski_residual(d) < 1e-10
    assert d.metadata["unitarity_defect"] < 1e-10


def test_jarzynski_exact_for_ramp():
    for coupling in (1.0, math.inf):  # the hard-core pair too
        d = wk.ramp_drive(LinearRamp(1.0, 1.0, 0.5), coupling, 10).at(1.0)
        assert jarzynski_residual(d) < 1e-10
        assert d.metadata["unitarity_defect"] < 1e-10
        assert d.metadata["norm_drift"] < 1e-6


def level_parity(lam, coupling, cutoff):
    """Each box level's centre-reflection block, 1 for the p+q-odd pairs."""
    return oracles.level_parity(boxspec.diagonalize(BoxPair(lam, coupling), cutoff))


def cross_parity(parity_f, parity_i):
    return parity_f[:, None] != parity_i[None, :]


def tracked_levels(coupling, lam_i, lam_f, cutoff, steps=400):
    """The final level each initial level reaches, followed by overlap.

    The eigenvector coefficients in the box's own sine basis depend on the
    length alone, so each state is matched, step by step, to the level
    whose eigenvector overlaps it most.
    """
    sp = _pair_box(lam_i, coupling, cutoff, 1.0)
    vectors, level = oracles.dense_vectors(sp), np.arange(len(sp))
    for lam in np.linspace(lam_i, lam_f, steps + 1)[1:]:
        V = oracles.dense_vectors(_pair_box(lam, coupling, cutoff, 1.0))
        level = np.abs(V.T @ vectors).argmax(axis=0)
        assert np.unique(level).size == level.size  # no two states merge
        vectors = V[:, level]
    return level


@pytest.mark.parametrize("coupling, lam_f, n_cross", [(10.0, 2.0, 14), (5.0, 3.0, 10)])
def test_adiabatic_box_levels_follow_their_parity_block(coupling, lam_f, n_cross):
    # levels of opposite parity cross as the box grows, so the sorted index
    # alone would pair n_cross of them with a level of the other block
    cutoff = 20
    sp_i, sp_f = (_pair_box(lam, coupling, cutoff, 1.0) for lam in (1.0, lam_f))
    assert np.sum(oracles.level_parity(sp_i) != oracles.level_parity(sp_f)) == n_cross
    level = tracked_levels(coupling, 1.0, lam_f, cutoff)
    d = wk.adiabatic_box_drive(1.0, lam_f, coupling, cutoff).at(1.0)
    e_i, e_f = (_route_levels(lam, coupling, cutoff, 1.0) for lam in (1.0, lam_f))
    assert np.array_equal(d.works, e_f[level] - e_i)


@pytest.mark.parametrize("coupling, n_levels", [(1.0, 820), (0.0, 820), (math.inf, 780)])
def test_adiabatic_box_forms_no_full_eigenvectors(monkeypatch, coupling, n_levels):
    # the few-level path's widest eigh is its Krylov basis; M = 40 has
    # parity blocks of 420 and 400 pairs, which only eigvalsh may see.
    # Without contact the blocks are diagonal and no eigensolver runs
    cap = (6 + boxspec._KRYLOV_PAD) * boxspec._KRYLOV_STEPS if 0 < coupling < math.inf else 0

    def narrow(solve):
        def stub(a, *args, **kwargs):
            if a.shape[-1] > cap:
                raise AssertionError(f"{solve.__name__} of a {a.shape[-1]}-wide matrix")
            return solve(a, *args, **kwargs)
        return stub

    monkeypatch.setattr(np.linalg, "eigh", narrow(np.linalg.eigh))
    if not cap:
        monkeypatch.setattr(np.linalg, "eigvalsh", narrow(np.linalg.eigvalsh))
    with pytest.raises(AssertionError, match=r"eigh of a \d{3}-wide"):  # the stub bites
        _pair_box(1.0, coupling, 40, 1.0)
    d = wk.adiabatic_box_drive(1.0, 2.0, coupling, 40)
    assert d.energies_i.size == d.energies_f.size == n_levels


def test_adiabatic_box_gates_its_block_levels(monkeypatch):
    # block levels 1e-6 off the few-level path's checked ones fail the
    # residual bound, though that path's own residual passes
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: solve(*a, **k) * (1.0 + 1e-6))
    with pytest.raises(np.linalg.LinAlgError, match="eigen-residual bound .* use --c inf"):
        wk.adiabatic_box_drive(1.0, 2.0, 1.0, 8)


def test_sudden_coupling_keeps_centre_reflection_parity():
    d = wk.sudden_coupling_drive(1.0, 1.0, 5.0, 14).at(0.5)
    cross = cross_parity(level_parity(1.0, 5.0, 14), level_parity(1.0, 1.0, 14))
    probs = d.probabilities.reshape(cross.shape)
    log_probs = d.log_probabilities.reshape(cross.shape)
    assert np.all(probs[cross] == 0.0)
    assert np.all(log_probs[cross] == -np.inf)  # P itself, not an underflow
    assert np.all(probs[~cross] >= 0.0) and probs[~cross].max() > 0.5


def test_wall_routes_mix_centre_reflection_parity():
    # the small box and the moving wall both sit off the big box's centre
    d = wk.sudden_wall_drive(1.0, 2.0, 1.0, 6).at(1.0)
    cross = cross_parity(level_parity(2.0, 1.0, 12), level_parity(1.0, 1.0, 6))
    assert d.probabilities.reshape(cross.shape)[cross].max() > 1e-3
    res = wk.propagate_ramp(LinearRamp(1.0, 5.0, 0.2), 1.0, 6)
    cross = cross_parity(level_parity(2.0, 1.0, 6), level_parity(1.0, 1.0, 6))
    assert res.transition_matrix[cross].max() > 1e-3


def test_one_drive_serves_every_beta():
    # levels and transitions do not depend on beta: one propagation is
    # weighed at each temperature, bit for bit as a fresh drive would be
    ramp = LinearRamp(1.0, 1.0, 0.5)
    drive = wk.ramp_drive(ramp, 1.0, 10)
    d1, d2 = drive.at(2.0), drive.at(0.5)
    assert d1.beta == 2.0 and d2.beta == 0.5
    assert np.array_equal(d1.works, d2.works)
    assert jarzynski_residual(d1) < 1e-10 and jarzynski_residual(d2) < 1e-10
    fresh = wk.ramp_drive(ramp, 1.0, 10).at(0.5)
    assert np.array_equal(d2.probabilities, fresh.probabilities)
    assert d2.metadata == fresh.metadata


def test_weighing_leaves_the_drive_unchanged():
    # each at(beta) copies the metadata, so ln Z and the thermal deficit of
    # one temperature cannot leak into the drive or into another temperature
    drive = wk.sudden_wall_drive(1.0, 2.0, 1.0, 6)
    before = dict(drive.metadata)
    d1, d2 = drive.at(1.0), drive.at(0.1)
    assert drive.metadata == before
    assert "ln_z_initial" not in drive.metadata
    for key in ("ln_z_initial", "ln_z_final", "thermal_transition_deficit"):
        assert d1.metadata[key] != d2.metadata[key]
    assert d1.metadata is not d2.metadata


def _ramp_setup(ramp, coupling, cutoff, hbar=1.0):
    ops = boxspec.unit_pair_operators(cutoff, -1 if math.isinf(coupling) else 1)
    sp_i = boxspec.diagonalize(BoxPair(ramp.lambda_initial, coupling, hbar), cutoff)
    sp_f = boxspec.diagonalize(BoxPair(ramp.lambda_final, coupling, hbar), cutoff)
    v1 = boxspec.contact_block(ops, np.arange(ops["basis"].dim))
    return ops["k1"], v1, oracles.dense_vectors(sp_i).astype(complex), sp_f


@pytest.mark.parametrize(
    "cutoff, hbar, speed, duration",
    [(6, 1.0, 5.0, 0.2), (10, 1.0, 5.0, 0.2), (6, 0.6, 5.0, 0.2),
     (6, 1.0, -2.0, 0.25), (6, 1.0, 0.0, 0.3)],
)
def test_ramp_split_steps_match_dop853_oracle(cutoff, hbar, speed, duration):
    # reference: the gauge equation i hbar dPhi/dt = [hbar^2 K / L^2 + (C / L) v1] Phi
    # integrated by DOP853 far below the splitting's step error, entered and
    # left through the same pair chirps as the route
    ramp, coupling = LinearRamp(1.0, speed, duration), 1.0
    res = wk.propagate_ramp(ramp, coupling, cutoff, hbar)

    k1, v1, y0, sp_f = _ramp_setup(ramp, coupling, cutoff, hbar)
    y0 = boxspec.pair_chirp(-speed * ramp.lambda_initial / (4.0 * hbar), sp_f.basis) @ y0
    dim, ncol = y0.shape

    def rhs(t, y):
        Y = y.reshape(dim, ncol)
        lam = 1.0 + ramp.speed * t
        HY = (hbar**2 / lam**2) * (k1[:, None] * Y) + (coupling / lam) * (v1 @ Y)
        return ((-1j / hbar) * HY).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, ramp.duration), y0.ravel(), method="DOP853", rtol=1e-13, atol=1e-15
    )
    assert sol.success
    chirp_f = boxspec.pair_chirp(speed * ramp.lambda_final / (4.0 * hbar), sp_f.basis)
    ref = np.abs(oracles.dense_vectors(sp_f).T @ chirp_f @ sol.y[:, -1].reshape(dim, ncol)) ** 2
    assert np.abs(res.transition_matrix - ref).max() <= 5e-9


def free_chirp(a, n):
    """X(a) on n modes from Fresnel integrals, apart from the route's quadrature."""
    if a < 0:
        return np.conj(free_chirp(-a, n))

    def phase_integral(b):  # int_0^1 exp(i (a y^2 + b y)) dy
        s, c = math.sqrt(2.0 * a / math.pi), b / (2.0 * a)
        s1, c1 = scipy.special.fresnel(s * (1.0 + c))
        s0, c0 = scipy.special.fresnel(s * c)
        return (np.exp(-1j * b * b / (4.0 * a)) * math.sqrt(math.pi / (2.0 * a))
                * ((c1 - c0) + 1j * (s1 - s0)))

    k = np.pi * np.arange(2 * n + 1)
    g = 0.5 * (phase_integral(k) + phase_integral(-k))
    m = np.arange(1, n + 1)
    return g[np.abs(m[:, None] - m[None, :])] - g[m[:, None] + m[None, :]]


@pytest.mark.parametrize(
    "cutoff, hbar, speed, duration, bound",
    [(14, 1.0, 5.0, 0.2, 1e-5), (8, 1.0, 5.0, 0.2, 5e-4),
     (14, 0.5, 2.0, 0.5, 1e-5), (8, 0.5, 2.0, 0.5, 5e-4)],
)
def test_free_ramp_matches_closed_form(cutoff, hbar, speed, duration, bound):
    # free bosons (C = 0) and free fermions (C = inf, the hard-core pair):
    # the one-body amplitudes are X(a_f) diag(exp(-i hbar pi^2 n^2 tau /
    # (L_i L_f))) X(-a_i), here on 300 modes, lifted on the symmetric or
    # the antisymmetric pairs; the route takes its clocked split steps as
    # at any C, and the bounds are its basis truncation error
    ramp = LinearRamp(1.0, speed, duration)
    lam_i, lam_f, n = ramp.lambda_initial, ramp.lambda_final, 300
    kinetic = np.exp(-1j * hbar * np.pi**2 * np.arange(1, n + 1) ** 2 * duration / (lam_i * lam_f))
    one_body = free_chirp(speed * lam_f / (4.0 * hbar), n) @ (
        kinetic[:, None] * free_chirp(-speed * lam_i / (4.0 * hbar), n))
    a = one_body[:cutoff, :cutoff]
    # the six lowest free levels of each are six single pairs, none degenerate
    lowest = {0.0: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)),
              math.inf: ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))}
    for coupling, labels in lowest.items():
        basis = boxspec.PairBasis(cutoff, -1 if math.isinf(coupling) else 1)
        exact = np.abs(boxspec._pair_lift(a, basis, basis)) ** 2
        res = wk.propagate_ramp(ramp, coupling, cutoff, hbar)
        pairs = [basis.index_of(p, q) for p, q in labels]
        _, _, v_i, sp_f = _ramp_setup(ramp, coupling, cutoff, hbar)
        for v in (v_i, oracles.dense_vectors(sp_f)):
            assert np.array_equal(np.abs(v[:, :6]).argmax(axis=0), pairs)
        P = res.transition_matrix[:6, :6]
        assert np.abs(P - exact[np.ix_(pairs, pairs)]).max() <= bound


def _block_flows(coupling, cutoff):
    """The ramp's parity blocks with their low-rank contact flows at hbar = 1."""
    ops = boxspec.unit_pair_operators(cutoff, -1 if math.isinf(coupling) else 1)
    blocks = ops["basis"].parity_blocks()
    n = max(b.size for b in blocks)
    W, mu = wk._contact_flows(ops, blocks, boxspec.contact_coupling(coupling), n)
    return ops, blocks, n, W, mu


@pytest.mark.parametrize("coupling", [0.5, 10.0])
@pytest.mark.parametrize("cutoff", [8, 14])
def test_low_rank_contact_flow_equals_the_dense_flow(coupling, cutoff):
    # exp(-i x g v1_b) on each parity block, from a dense eigh of g v1_b,
    # against I + W (exp(-i x mu) - 1) W^T from the coincidence factor's
    # thin SVD, at the three S6 A-widths of the v = 5, tau = 0.2 ramp; then
    # one S6 step with no kinetic phase, whose six sub-flows compose to
    # exp(h A), through the stepping function itself
    ramp = LinearRamp(1.0, 5.0, 0.2)
    n_steps = wk.propagate_ramp(ramp, coupling, cutoff, columns=[0]).n_rhs_evals // 6
    h = math.log(ramp.lambda_final / ramp.lambda_initial) / ramp.speed / n_steps
    ops, blocks, n, W, mu = _block_flows(coupling, cutoff)
    stack = np.zeros((len(blocks), n, n), dtype=complex)
    for k, b in enumerate(blocks):
        stack[k, :b.size, :b.size] = np.eye(b.size)
    wk._s6_steps(stack, np.zeros((len(blocks), n)), W, mu, np.zeros(7), 0.0, h, 1)
    for k, b in enumerate(blocks):
        lam, v = np.linalg.eigh(coupling * boxspec.contact_block(ops, b))
        w = W[k, :b.size]
        for x in [a * h for a in wk._S6_A] + [h]:
            dense = (v * np.exp(-1j * x * lam)) @ v.T
            low_rank = np.eye(b.size) + (w * np.expm1(-1j * x * mu[k])) @ w.T
            assert np.abs(low_rank - dense).max() <= 1e-13
        assert np.abs(stack[k, :b.size, :b.size] - dense).max() <= 1e-13
        assert not stack[k, b.size:].any() and not stack[k, :, b.size:].any()


@pytest.mark.parametrize("coupling", [0.0, math.inf])
def test_contact_flow_is_the_identity_without_a_contact(coupling):
    # C = 0 has no contact, and C = inf lives on the antisymmetric pairs,
    # whose coincidence factor has no rows: the sub-flows leave y as it is
    _, blocks, n, W, mu = _block_flows(coupling, 8)
    assert W.shape == (len(blocks), n, 0) and mu.shape == (len(blocks), 0)
    y = np.random.default_rng(0).normal(size=(len(blocks), n, 3)) + 0j
    stepped = y.copy()
    wk._s6_steps(stepped, np.zeros((len(blocks), n)), W, mu, np.zeros(7), 0.0, 0.1, 5)
    assert np.array_equal(stepped, y)


@pytest.mark.parametrize("coupling", [1.0, math.inf])
def test_ramp_columns_equal_those_of_the_full_run(coupling):
    # a few columns are stepped as they are, all of them through the block
    # propagators U_b: the two give the same amplitudes
    ramp = LinearRamp(1.0, 5.0, 0.2)
    full = wk.propagate_ramp(ramp, coupling, 10)
    part = wk.propagate_ramp(ramp, coupling, 10, columns=[0, 3])
    assert np.abs(part.amplitudes - full.amplitudes[:, [0, 3]]).max() <= 1e-13
    assert part.n_rhs_evals == full.n_rhs_evals


def test_ramp_refuses_a_step_count_past_its_bound(monkeypatch):
    # the step count grows with C and with 1 / lam_i: at C = 1e300 it is
    # about 7e299, named in the error before any step runs
    def no_steps(*args):
        raise AssertionError("a split step ran")

    monkeypatch.setattr(wk, "_s6_steps", no_steps)
    for coupling, lam in ((1e300, 1.0), (1.0, 1e-300)):
        with pytest.raises(ConfigError, match="split steps, more than 1e"):
            wk.propagate_ramp(LinearRamp(lam, 5.0, 0.1), coupling, 4)


# (coupling, cutoff, speed, duration, hbar) of forward and backward ramps
REVERSED_RAMPS = [
    (0.5, 8, 5.0, 0.2, 1.0),
    (10.0, 8, 2.0, 0.5, 0.7),
    (math.inf, 10, 5.0, 0.2, 1.0),
]


@pytest.mark.parametrize("coupling, cutoff, speed, duration, hbar", REVERSED_RAMPS)
def test_ramp_is_microreversible(coupling, cutoff, speed, duration, hbar):
    # Crooks: H is real, so the compression LinearRamp(L_f, -v, tau) has
    # amplitudes U_B = U_F^T and P_B[i, f] = P_F[f, i] level by level.
    # Jarzynski holds for any unitary P; this pins the palindromic clock,
    # the L_i <-> L_f symmetry of the step count and both chirp signs (a
    # wrong sign on the final chirp alone reads 0.18 here)
    forward = LinearRamp(1.0, speed, duration)
    backward = LinearRamp(forward.lambda_final, -speed, duration)
    P_F = wk.propagate_ramp(forward, coupling, cutoff, hbar).transition_matrix
    P_B = wk.propagate_ramp(backward, coupling, cutoff, hbar).transition_matrix
    assert np.abs(P_B - P_F.T).max() <= 1e-12


@pytest.mark.parametrize("coupling, cutoff, speed, duration, hbar", REVERSED_RAMPS)
def test_ramp_obeys_crooks_atom_by_atom(coupling, cutoff, speed, duration, hbar):
    # p_F(W) / p_B(-W) = exp(beta (W - dF)) on the merged distributions,
    # with beta dF = ln Z_i - ln Z_f.  Measured: log error at most 9.9e-13,
    # position gap at most 5.7e-14
    forward = LinearRamp(1.0, speed, duration)
    lam_f = forward.lambda_final
    drives = [wk.ramp_drive(ramp, coupling, cutoff, hbar)
              for ramp in (forward, LinearRamp(lam_f, -speed, duration))]
    for beta in (1.0, 0.1):
        F, B = (d.at(beta) for d in drives)
        beta_dF = F.metadata["ln_z_initial"] - F.metadata["ln_z_final"]
        (fw, fp, flp), (bw, _, blp) = (
            wk.merge_atoms(d.works, d.probabilities, d.log_probabilities) for d in (F, B))
        big = fp >= 1e-6
        w = fw[big]
        j = np.clip(np.searchsorted(bw, -w), 1, bw.size - 1)
        j = np.where(np.abs(bw[j - 1] + w) < np.abs(bw[j] + w), j - 1, j)
        assert np.abs(bw[j] + w).max() <= 1e-12
        log_ratio = flp[big] - blp[j]
        assert np.abs(log_ratio - (beta * w - beta_dF)).max() <= 1e-10


def test_static_wall_ramp_is_diagonal():
    # v = 0: U = exp(-i H tau / hbar) keeps every eigenstate, so P = I
    res = wk.propagate_ramp(LinearRamp(1.0, 0.0, 0.3), 1.0, 10)
    P = res.transition_matrix
    assert np.abs(P - np.eye(P.shape[0])).max() <= 1e-9


def test_ramp_norm_holds_over_many_steps():
    # 19885 steps: 19739.2 from the kinetic phase and 145.6 from the contact.
    # Each contact sub-flow is I + W (exp(-i x mu) - 1) W^T with W the
    # orthonormal factor of an SVD, unitary to roundoff with no polish
    res = wk.propagate_ramp(LinearRamp(1.0, 0.1, 10.0), 1.0, 10, columns=[0])
    assert res.n_rhs_evals == 6 * 19885
    assert res.norm_drift <= 1e-12


def test_ramp_propagation_keeps_no_trajectory():
    # solve_ivp kept every DOP853 step: 43 MiB here, growing with the step count
    ramp = LinearRamp(1.0, 5.0, 0.2)
    tracemalloc.start()
    try:
        wk.propagate_ramp(ramp, 1.0, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sudden_wall_violates_jarzynski():
    # <exp(-beta W)> = Tr(Pi_i exp(-beta H_f))/Z_i, with Pi_i the projector
    # onto states supported in the small box; that span is not the final
    # Hilbert space, so the ratio to exp(-beta dF) stays 0.2204 for final
    # cutoffs 24/48/72.  The per-state deficit max_i (1 - sum_f P(f|i)) is a
    # separate window effect on the top initial states: 0.41 at the default
    # final cutoff 24, 0.002 at 48, while the thermal deficit is below 1e-4
    d = wk.sudden_wall_drive(1.0, 2.0, 1.0, 12).at(1.0)
    dF = d.metadata["ln_z_initial"] - d.metadata["ln_z_final"]
    assert math.exp(d.log_jarzynski_average() + dF) < 0.9
    assert d.metadata["transition_deficit"] > 0.05


def test_sudden_wall_refuses_a_final_cutoff_past_its_cap():
    # refused before either box is diagonalized: the default final cutoff
    # of 4e300 modes is never built
    with pytest.raises(ConfigError, match=r"lambda_f = 1e\+300 from cutoff 4"):
        wk.sudden_wall_drive(1.0, 1e300, 1.0, 4)
    with pytest.raises(ConfigError, match="final cutoff of 129, more than 128"):
        wk.sudden_wall_drive(1.0, 2.0, 1.0, 4, 129)
    with pytest.raises(ConfigError, match="final cutoff of inf"):
        wk.sudden_wall_drive(1e-300, 1e10, 1.0, 4)


def test_sudden_wall_violation_persists_in_hard_core_route():
    # same effect for the hard-core pair, whose levels and overlaps are the
    # exact free-fermion ones: not a Galerkin artifact
    d = wk.sudden_wall_drive(1.0, 2.0, math.inf, 20, 40).at(1.0)
    dF = d.metadata["ln_z_initial"] - d.metadata["ln_z_final"]
    assert math.exp(d.log_jarzynski_average() + dF) < 0.5
    assert d.metadata["transition_deficit"] > 0.05


def test_tg_adiabatic_jarzynski_exact():
    d = wk.adiabatic_box_drive(1.0, 2.0, math.inf, 30).at(0.2)
    assert jarzynski_residual(d) < 1e-12
    assert np.all(d.works < 0)  # expansion lowers every level


# ---------------------------------------------------------------------------
# mean-work identities
# ---------------------------------------------------------------------------


def test_sudden_wall_mean_work_identity_is_zero():
    for coupling in (1.0, math.inf):  # the hard-core pair too
        sp = _pair_box(1.0, coupling, 12, 1.0)
        assert abs(oracles.frozen_mean_work(sp, 1.0)) < 1e-12
        # the truncated atom sum is far from zero: slow algebraic completeness
        d = wk.sudden_wall_drive(1.0, 2.0, coupling, 12, 24).at(1.0)
        assert np.sum(d.works * d.probabilities) < -0.1


@pytest.mark.parametrize("coupling", [1.0, math.inf])
def test_sudden_wall_mean_energy_converges_through_the_embedding(coupling):
    # the frozen state's <H_f> is E_i; through pair_embed_overlaps and the
    # final spectrum, the weight the final cutoff keeps carries a mean
    # energy below it by a gap that halves as the cutoff doubles.  At C = 1
    # the ground state's gap reads -2.46e-2, -1.23e-2, -6.13e-3 at final
    # cutoffs 16, 32, 64; a final spectrum of C = 2 tagged C = 1 reads
    # +4.2 %, +5.4 %, +6.1 % there.
    # The ratios near 2 by the last doubling: 2.002-2.016 there, and up to
    # 2.07 at the first for the hard-core pair's excited levels
    gaps = []
    for cutoff_f in (16, 32, 64):
        d = wk.sudden_wall_drive(1.0, 2.0, coupling, 8, cutoff_f)
        P, e_i = d.P[:, :3], d.energies_i[:3]
        gaps.append((d.energies_f @ P / P.sum(axis=0) - e_i) / e_i)
    gaps = np.array(gaps)
    assert np.all(gaps < 0)
    ratio = gaps[-2] / gaps[-1]
    assert np.all((1.95 <= ratio) & (ratio <= 2.05)), ratio


def test_sudden_coupling_mean_work_matches_distribution():
    contact = oracles.thermal_contact(_pair_box(1.0, 1.0, 14, 1.0), 0.5)
    d = wk.sudden_coupling_drive(1.0, 1.0, 5.0, 14).at(0.5)
    assert (5.0 - 1.0) * contact == pytest.approx(d.moments(1)[0], rel=1e-12)
    assert contact > 0
    # the hard-core start has <delta> = 0 against an infinite C_i: no identity,
    # and no quench route
    with pytest.raises(ConfigError, match="must be finite"):
        wk.sudden_coupling_drive(1.0, math.inf, 5.0, 14)


def test_ndp_reference_matches_equipartition():
    # beta -> 0: ring level sums are Gaussian integrals to machine accuracy
    d = wk.ndp_reference(1.0, 2.0, 1e-3, 2)
    assert d.moments(1)[0] == pytest.approx(oracles.equipartition_mean_work(1.0, 2.0, 2, 1e-3), rel=1e-12)
    d3 = wk.ndp_reference(1.0, 2.0, 1e-3, 3)
    assert d3.moments(1)[0] == pytest.approx(oracles.equipartition_mean_work(1.0, 2.0, 3, 1e-3), rel=1e-12)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
def test_ndp_reference_rejects_beta_not_positive_and_finite(beta):
    with pytest.raises(ConfigError, match="beta must be positive and finite"):
        wk.ndp_reference(1.0, 2.0, beta, 2)


@pytest.mark.parametrize("beta, hbar", [(1.0, 0.5), (0.01, 0.3), (1e-3, 2.0)])
def test_ndp_reference_takes_hbar_only_through_beta_hbar_squared(beta, hbar):
    # levels hbar^2 k^2 on a hbar-free grid: works scale by hbar^2 and the
    # Boltzmann weights see beta hbar^2.  Measured: works within 5.4e-16
    # (relative), log p within 7.2e-15
    d = wk.ndp_reference(1.0, 2.0, beta, 2, hbar=hbar)
    ref = wk.ndp_reference(1.0, 2.0, beta * hbar**2, 2)
    np.testing.assert_allclose(d.works, ref.works * hbar**2, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(d.log_probabilities, ref.log_probabilities, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(d.probabilities, ref.probabilities, rtol=1e-12, atol=0.0)


def test_ndp_exchange_variants():
    db = oracles.ideal_pair_reference(1.0, 2.0, 0.5, 2, "boson")
    df = oracles.ideal_pair_reference(1.0, 2.0, 0.5, 2, "fermion")
    assert db.mass == pytest.approx(1.0, abs=1e-12)
    assert df.mass == pytest.approx(1.0, abs=1e-12)
    # exchange attraction lowers |W| for bosons relative to fermions
    assert abs(db.moments(1)[0]) < abs(df.moments(1)[0])
    with pytest.raises(ConfigError):
        oracles.ideal_pair_reference(1.0, 2.0, 0.5, 3, "boson")
    with pytest.raises(ConfigError):
        oracles.ideal_pair_reference(1.0, 2.0, 0.5, 2, "anyon")


def test_free_momentum_work_scaling():
    def rel_err(base):
        I = np.array([base + 0.5, base + 20.5])
        ki = rs.solve_bethe_batch(I[None, :], 1.0, 1.0)[0][0]
        kf = rs.solve_bethe_batch(I[None, :], 2.0, 1.0)[0][0]
        exact = (kf**2).sum() - (ki**2).sum()
        return abs(oracles.free_momentum_work(I, 1.0, 2.0) - exact) / abs(exact)

    e100, e300 = rel_err(100), rel_err(300)
    assert e100 < 1e-3
    assert e300 < 0.4 * e100  # error falls off with the base quantum number


# ---------------------------------------------------------------------------
# one two-point-measurement assembly for every route
# ---------------------------------------------------------------------------


def assembly_reference(e_i, e_f, beta, tail, P=None):
    """The assembly each route once wrote out by hand, kept as the oracle.

    P = None: populations ride their levels; otherwise atoms sit at
    E_f - E_i with weight P[f, i] p_i.  Returns works, probabilities,
    log-probabilities, tail mass, the ln Z metadata and p_i.
    """
    ln_zi = float(logsumexp(-beta * e_i))
    p_i = np.exp(-beta * e_i - ln_zi)
    meta = {"ln_z_initial": ln_zi, "ln_z_final": float(logsumexp(-beta * e_f))}
    tail_mass = tail * np.exp(-ln_zi)
    if P is None:
        return e_f - e_i, p_i, -beta * e_i - ln_zi, tail_mass, meta, p_i
    W = e_f[:, None] - e_i[None, :]
    with np.errstate(divide="ignore"):
        lp = np.log(P) + (-beta * e_i - ln_zi)[None, :]
    return W.ravel(), (P * p_i[None, :]).ravel(), lp.ravel(), tail_mass, meta, p_i


def _pair_box(lam, coupling, cutoff, hbar):
    return boxspec.diagonalize(BoxPair(lam, coupling, hbar), cutoff)


def _route_levels(lam, coupling, cutoff, hbar):
    """The levels the adiabatic box route solves, block by block."""
    return boxspec.block_levels(BoxPair(lam, coupling, hbar), cutoff)[0]


def _wall_deficits(P, p_i):
    col = P.sum(axis=0)
    return {"transition_deficit": float((1.0 - col).max()),
            "thermal_transition_deficit": float(1.0 - (p_i * col).sum())}


def _unitarity_defect(P):
    return {"unitarity_defect": float(np.abs(P.sum(axis=0) - 1.0).max())}


def _ring_case():
    lam_i, lam_f, c, n, beta, i_max, hbar = 1.0, 2.0, 1.0, 3, 0.5, 5.0, 0.8
    table = rs.enumerate_states(lam_i, c, n, i_max, hbar)
    k_f, _ = rs.solve_bethe_batch(table.quantum_numbers, lam_f, c, hbar)
    tail = rs.spectral_tail_bound(lam_i, n, i_max, beta, hbar)
    ref = assembly_reference(table.energies, hbar**2 * (k_f**2).sum(axis=1), beta, tail)
    meta = {"route": "bethe-adiabatic", "coupling": c, "n_particles": n, "i_max": i_max}
    return wk.adiabatic_ring_drive(lam_i, lam_f, c, n, i_max, hbar).at(beta), ref, meta


def _adiabatic_box_case(c):
    lam_i, lam_f, beta, m, hbar = 1.0, 2.0, 1.0, 8, 0.7
    e_i, e_f = (_route_levels(lam, c, m, hbar) for lam in (lam_i, lam_f))
    ref = assembly_reference(e_i, e_f, beta, wk.box_tail_bound(lam_i, m, beta, hbar))
    meta = {"route": "galerkin-adiabatic", "coupling": c, "cutoff": m}
    return wk.adiabatic_box_drive(lam_i, lam_f, c, m, hbar).at(beta), ref, meta


def _sudden_wall_case(c):
    lam_i, lam_f, beta, m, hbar = 1.0, 2.0, 1.0, 6, 0.9
    sp_i, sp_f = _pair_box(lam_i, c, m, hbar), _pair_box(lam_f, c, 2 * m, hbar)
    O2 = boxspec.pair_embed_overlaps(lam_i, lam_f, sp_i.basis, sp_f.basis)
    P = sp_f.project(sp_i.apply(O2)) ** 2  # the route's block products
    V_i, V_f = oracles.dense_vectors(sp_i), oracles.dense_vectors(sp_f)
    assert np.abs(P - (V_f.T @ O2 @ V_i) ** 2).max() <= 1e-14
    ref = assembly_reference(sp_i.energies, sp_f.energies, beta,
                             wk.box_tail_bound(lam_i, m, beta, hbar), P)
    meta = {"route": "galerkin-sudden-wall", "coupling": c, "cutoff_i": m,
            "cutoff_f": 2 * m, **_wall_deficits(P, ref[-1])}
    return wk.sudden_wall_drive(lam_i, lam_f, c, m, hbar=hbar).at(beta), ref, meta


def _sudden_coupling_case():
    lam, c_i, c_f, beta, m, hbar = 1.0, 1.0, 5.0, 0.5, 8, 1.3
    sp_i, sp_f = _pair_box(lam, c_i, m, hbar), _pair_box(lam, c_f, m, hbar)
    P = sp_f.overlaps(sp_i) ** 2  # the route's block products
    dense = oracles.dense_vectors(sp_f).T @ oracles.dense_vectors(sp_i)
    assert np.abs(P - dense**2).max() <= 1e-14
    ref = assembly_reference(sp_i.energies, sp_f.energies, beta,
                             wk.box_tail_bound(lam, m, beta, hbar), P)
    meta = {"route": "galerkin-sudden-coupling", "cutoff": m, **_unitarity_defect(P)}
    return wk.sudden_coupling_drive(lam, c_i, c_f, m, hbar).at(beta), ref, meta


def _ramp_case():
    ramp, c, beta, m = LinearRamp(1.0, 5.0, 0.2), 1.0, 1.0, 6
    res = wk.propagate_ramp(ramp, c, m)
    P = res.transition_matrix
    ref = assembly_reference(res.energies_i, res.energies_f, beta,
                             wk.box_tail_bound(1.0, m, beta), P)
    meta = {"route": "ramp-propagation", "coupling": c, "cutoff": m,
            "norm_drift": res.norm_drift, **_unitarity_defect(P)}
    return wk.ramp_drive(ramp, c, m).at(beta), ref, meta


# the tg_ cases are the Tonks-Girardeau pair, C = inf, on the same routes
ASSEMBLY_CASES = {
    "adiabatic_ring": _ring_case,
    "adiabatic_box": partial(_adiabatic_box_case, 1.0),
    "sudden_wall": partial(_sudden_wall_case, 1.0),
    "sudden_coupling": _sudden_coupling_case,
    "ramp": _ramp_case,
    "tg_adiabatic_box": partial(_adiabatic_box_case, math.inf),
    "tg_sudden_wall": partial(_sudden_wall_case, math.inf),
}


@pytest.mark.parametrize("route", list(ASSEMBLY_CASES))
def test_route_assembly_equals_hand_written_reference(route):
    dist, (works, probs, log_probs, tail, ln_z, _), meta = ASSEMBLY_CASES[route]()
    assert np.array_equal(dist.works, works)
    assert np.array_equal(dist.probabilities, probs)
    assert np.array_equal(dist.log_probabilities, log_probs)
    assert dist.tail_mass == tail
    assert dist.metadata == {**meta, **ln_z}  # same keys, same values


@pytest.mark.parametrize("coupling", [1.0, 0.0, math.inf])
def test_block_products_match_dense_products(coupling):
    # the routes' products by parity block against the same products on
    # the dense eigenvector matrices, whose zeros only reorder the sums; at
    # the assembly cases' (hbar, m) too, whose references take the routes'
    # own block products
    for hbar, m in ((0.9, 8), (0.9, 6), (1.3, 8)):
        sp_i, sp_f = _pair_box(1.0, coupling, m, hbar), _pair_box(2.0, coupling, 2 * m, hbar)
        V_i, V_f = oracles.dense_vectors(sp_i), oracles.dense_vectors(sp_f)
        O2 = boxspec.pair_embed_overlaps(1.0, 2.0, sp_i.basis, sp_f.basis)
        P = wk.sudden_wall_drive(1.0, 2.0, coupling, m, 2 * m, hbar).P
        assert np.abs(P - (V_f.T @ O2 @ V_i) ** 2).max() <= 1e-14
        if not math.isinf(coupling):
            sp_c = _pair_box(1.0, 7.0, m, hbar)
            P = wk.sudden_coupling_drive(1.0, coupling, 7.0, m, hbar).P
            assert np.abs(P - (oracles.dense_vectors(sp_c).T @ V_i) ** 2).max() <= 1e-14
        # the ramp's two products: the start chirp on some columns, and the
        # final projection
        chirp = boxspec.pair_chirp(-1.25, sp_i.basis)
        cols = [5, 0, 3, 3, 1]
        assert np.abs(sp_i.apply(chirp, cols) - chirp @ V_i[:, cols]).max() <= 1e-14
        Y = chirp @ V_i
        assert np.abs(sp_i.project(Y) - V_i.T @ Y).max() <= 1e-14
        res = wk.propagate_ramp(LinearRamp(1.0, 5.0, 0.2), coupling, m, hbar)
        some = wk.propagate_ramp(LinearRamp(1.0, 5.0, 0.2), coupling, m, hbar, columns=cols)
        assert np.abs(some.amplitudes - res.amplitudes[:, cols]).max() <= 1e-14


def slater_minors(o, rows, cols):
    """<rs| o (x) o |pq> on antisymmetric pairs, o_rp o_sq - o_rq o_sp, for
    the (r, s) in rows and the (p, q) in cols, as 2x2 determinants."""
    (r, s), (p, q) = (np.asarray(rows).T - 1), (np.asarray(cols).T - 1)
    amp = o[r[:, None], p[None, :]] * o[s[:, None], q[None, :]]
    amp -= o[r[:, None], q[None, :]] * o[s[:, None], p[None, :]]
    return amp


def level_pairs(sp):
    """The (p, q) of each level of a spectrum whose levels are single pairs."""
    p, q = sp.basis.labels()
    V = oracles.dense_vectors(sp)
    top = np.abs(V).argmax(axis=0)
    assert np.all(np.abs(V).max(axis=0) == 1.0)
    return np.stack([p[top], q[top]], axis=1)


@pytest.mark.parametrize("cutoff_i, cutoff_f", [(6, 12), (8, 16), (12, 24)])
def test_hard_core_sudden_wall_is_the_slater_minors(cutoff_i, cutoff_f):
    # C = inf: each level is one antisymmetric pair, and the transition
    # amplitudes are the free-fermion 2x2 minors of the one-body overlaps;
    # (1/sqrt(2))^2 rounds to 0.5000000000000001, so they agree to roundoff
    lam_i, lam_f = 1.0, 2.0
    d = wk.sudden_wall_drive(lam_i, lam_f, math.inf, cutoff_i, cutoff_f).at(1.0)
    sp_i, sp_f = _pair_box(lam_i, math.inf, cutoff_i, 1.0), _pair_box(lam_f, math.inf, cutoff_f, 1.0)
    o = boxspec.embed_overlaps(lam_i, lam_f, cutoff_i, cutoff_f)
    P = slater_minors(o, level_pairs(sp_f), level_pairs(sp_i)) ** 2
    p_i = np.exp(-sp_i.energies - d.metadata["ln_z_initial"])
    assert np.abs(d.probabilities - (P * p_i[None, :]).ravel()).max() <= 1e-15


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------


def test_routes_and_rejections():
    d = wk.adiabatic_ring_drive(1.0, 2.0, 1.0, 2, 3.5).at(1.0)
    assert d.metadata["route"] == "bethe-adiabatic"
    assert (
        wk.sudden_coupling_drive(1.0, 1.0, 2.0, 8).at(1.0).metadata["route"]
        == "galerkin-sudden-coupling"
    )
    # the hard-core pair takes the same routes, on its antisymmetric basis
    for drive, route in (
        (wk.adiabatic_box_drive(1.0, 2.0, math.inf, 10), "galerkin-adiabatic"),
        (wk.sudden_wall_drive(1.0, 2.0, math.inf, 10, 20), "galerkin-sudden-wall"),
        (wk.ramp_drive(LinearRamp(1.0, 5.0, 0.2), math.inf, 6), "ramp-propagation"),
    ):
        meta = drive.at(1.0).metadata
        assert (meta["route"], meta["coupling"]) == (route, math.inf)
    with pytest.raises(ConfigError, match="finite"):
        wk.sudden_coupling_drive(1.0, 1.0, math.inf, 8)


@pytest.mark.parametrize("route, refused, message, valid", [
    (wk.sudden_wall_drive, (2.0, 1.0, 1.0, 6), "sudden compression", (1.0, 2.0, 1.0, 6)),
    (wk.sudden_coupling_drive, (1.0, math.inf, 5.0, 6), "must be finite", (1.0, 1.0, 5.0, 6)),
    (wk.sudden_coupling_drive, (1.0, math.inf, math.inf, 6), "must be finite",
     (1.0, 1.0, 5.0, 6)),
])
def test_route_refuses_before_any_diagonalization(monkeypatch, route, refused, message, valid):
    boxes = []
    diagonalize = boxspec.diagonalize

    def counted(model, *args, **kwargs):
        boxes.append(model)
        return diagonalize(model, *args, **kwargs)

    monkeypatch.setattr(boxspec, "diagonalize", counted)
    with pytest.raises(ConfigError, match=message):
        route(*refused)
    assert boxes == []
    route(*valid)  # the counter sees each box the route solves
    assert len(boxes) == 2


# each route's endpoint widths and couplings, refused on entry, naming the
# input, before a box's basis is built or a ring's states are enumerated
ENDPOINT_CASES = [
    pytest.param(route, {**valid, param: value}, label, value, id=f"{route.__name__}-{param}={value}")
    for route, valid, params, values in (
        (wk.adiabatic_ring_drive, dict(lam_i=1.0, lam_f=2.0, coupling=1.0, n_particles=2, i_max=2.5),
         {"lam_i": "lambda_initial", "lam_f": "lambda_final"}, (math.nan, -1.0, 0.0, math.inf)),
        (wk.adiabatic_box_drive, dict(lam_i=1.0, lam_f=2.0, coupling=1.0, cutoff=4),
         {"lam_i": "lambda_initial", "lam_f": "lambda_final"}, (math.nan, -1.0, 0.0, math.inf)),
        (wk.sudden_wall_drive, dict(lam_i=1.0, lam_f=2.0, coupling=1.0, cutoff=4),
         {"lam_i": "lambda_initial", "lam_f": "lambda_final"}, (math.nan, -1.0, 0.0, math.inf)),
        (wk.sudden_coupling_drive, dict(lam=1.0, coupling_i=1.0, coupling_f=2.0, cutoff=4),
         {"coupling_i": "coupling_initial", "coupling_f": "coupling_final"}, (math.nan, -1.0)),
    )
    for param, label in params.items()
    for value in values
] + [
    # and a mode cutoff past the box routes' cap, before a basis is built
    pytest.param(route, {**valid, "cutoff": 129}, "mode cutoff", 129, id=f"{route.__name__}-{tag}")
    for route, valid, tag in (
        (wk.adiabatic_box_drive, dict(lam_i=1.0, lam_f=2.0, coupling=1.0), "cutoff=129"),
        (wk.adiabatic_box_drive, dict(lam_i=1.0, lam_f=2.0, coupling=math.inf), "cutoff=129-hard-core"),
        (wk.sudden_wall_drive, dict(lam_i=1.0, lam_f=1.0, coupling=1.0), "cutoff=129"),
        (wk.sudden_coupling_drive, dict(lam=1.0, coupling_i=1.0, coupling_f=2.0), "cutoff=129"),
        (wk.ramp_drive, dict(ramp=LinearRamp(1.0, 1.0, 0.1), coupling=1.0), "cutoff=129"),
    )
]


@pytest.mark.parametrize("route, kwargs, label, value", ENDPOINT_CASES)
def test_route_refuses_an_endpoint_before_solving_a_spectrum(monkeypatch, route, kwargs, label, value):
    def solve(*args, **kwargs):
        raise AssertionError("a spectrum was solved before the endpoint was checked")

    for module, name in ((boxspec, "diagonalize"), (boxspec, "block_levels"),
                         (boxspec, "unit_pair_operators"), (rs, "enumerate_states")):
        monkeypatch.setattr(module, name, solve)
    with pytest.raises(ConfigError) as err:
        route(**kwargs)
    assert f"{label} must" in str(err.value) and f"got {value}" in str(err.value)


def test_log_probabilities_reach_below_underflow():
    # deep atoms keep finite log p even when exp(log p) underflows
    d = wk.adiabatic_ring_drive(1.0, 2.0, 1.0, 2, 6.5).at(50.0)
    assert np.all(np.isfinite(d.log_probabilities))
    assert (d.probabilities == 0.0).any()  # linear weights underflow
    assert jarzynski_residual(d) < 1e-10
