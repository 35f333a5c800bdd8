import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import logsumexp

from dualgas import boxspec
from dualgas import ringspec as rs
from dualgas import work as wk
from dualgas.core import (
    Adiabatic,
    Box,
    ConfigError,
    LinearRamp,
    ModelSpec,
    Ring,
    SuddenCoupling,
    SuddenWall,
)

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
masses = st.floats(1e-6, 1.0)


def jarzynski_residual(d: wk.WorkDistribution) -> float:
    dF = d.metadata["ln_z_initial"] - d.metadata["ln_z_final"]
    return abs(d.jarzynski_average() / math.exp(-dF) - 1.0)


# ---------------------------------------------------------------------------
# atom bookkeeping
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(finite, masses), min_size=1, max_size=40))
def test_merge_atoms_conserves_mass_and_sorts(atoms):
    w = np.array([a[0] for a in atoms])
    p = np.array([a[1] for a in atoms])
    mw, mp = wk.merge_atoms(w, p, tol=1e-6)
    assert mp.sum() == pytest.approx(p.sum(), rel=1e-12)
    assert np.all(np.diff(mw) > 1e-6)  # merged atoms are separated
    # merging again changes nothing
    mw2, mp2 = wk.merge_atoms(mw, mp, tol=1e-6)
    assert np.array_equal(mw, mw2) and np.array_equal(mp, mp2)


def test_merge_atoms_carries_log_probabilities():
    w = np.array([0.0, 1e-12, 1.0])
    p = np.array([0.25, 0.25, 0.5])
    mw, mp, mlp = wk.merge_atoms(w, p, 1e-9, log_probabilities=np.log(p))
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
    """Shuffled atoms in well separated clusters of 1-20 members each.

    Members sit on exact ties or jitter below the 1e-9 merge tolerance;
    masses span many decades so that summation order shows in the last
    bits, a cluster may carry no mass, and log-probabilities may be -inf.
    """
    w, p, lp = [], [], []
    for c in range(draw(st.integers(1, 8))):
        centre = 1.7 * c + draw(st.floats(0.0, 1.0))
        zero_mass = draw(st.booleans())
        for _ in range(draw(st.integers(1, 20))):
            w.append(centre + draw(st.sampled_from([0.0, 0.0, 1e-13, 2e-10, 9e-10])))
            p.append(0.0 if zero_mass else draw(st.floats(1e-30, 1.0)))
            lp.append(draw(st.one_of(st.just(-np.inf), st.floats(-800.0, 5.0))))
    order = draw(st.permutations(range(len(w))))
    return tuple(np.array(x, dtype=float)[order] for x in (w, p, lp))


@given(clustered_atoms())
def test_merge_atoms_bitwise_equals_reference(atoms):
    w, p, lp = atoms
    got = wk.merge_atoms(w, p, 1e-9, log_probabilities=lp)
    want = merge_atoms_reference(w, p, 1e-9, lp)
    for g, r in zip(got, want):
        assert np.array_equal(g, r)


def test_distribution_validation_and_mass():
    with pytest.raises(ConfigError):
        wk.WorkDistribution(works=[0.0, 1.0], probabilities=[1.0], beta=1.0)
    d = wk.WorkDistribution(works=[0.0, 1.0], probabilities=[0.25, 0.75], beta=1.0)
    assert d.mass == pytest.approx(1.0)
    assert d.mean() == pytest.approx(0.75)
    m1, m2 = d.moments(2)
    assert (m1, m2) == (pytest.approx(0.75), pytest.approx(0.75))
    # characteristic function: phi(0) = 1, |phi| <= 1
    phi = d.characteristic_function([0.0, 0.7, 3.1])
    assert phi[0] == pytest.approx(1.0)
    assert np.all(np.abs(phi) <= 1.0 + 1e-12)


@given(
    st.lists(st.tuples(st.integers(-20, 20), masses), min_size=1, max_size=15),
    st.floats(-0.02, 0.02),
)
def test_kolmogorov_resolution_absorbs_jitter(atoms, shift):
    # atoms on an integer lattice, the copy shifted by < resolution/2
    w = np.array([float(a[0]) for a in atoms])
    p = np.array([a[1] for a in atoms])
    p = p / p.sum()
    a = wk.WorkDistribution(works=w, probabilities=p, beta=1.0)
    b = wk.WorkDistribution(works=w + shift, probabilities=p, beta=1.0)
    assert wk.kolmogorov_distance(a, a) <= 1e-12  # cumsum cancellation noise
    assert wk.kolmogorov_distance(a, b, resolution=0.1) == pytest.approx(0.0, abs=1e-12)


def test_kolmogorov_known_value():
    a = wk.WorkDistribution(works=[0.0], probabilities=[1.0], beta=1.0)
    b = wk.WorkDistribution(works=[1.0], probabilities=[1.0], beta=1.0)
    assert wk.kolmogorov_distance(a, b) == pytest.approx(1.0)
    c = wk.WorkDistribution(works=[0.0, 1.0], probabilities=[0.5, 0.5], beta=1.0)
    assert wk.kolmogorov_distance(a, c) == pytest.approx(0.5)


def test_box_tail_bound_positive_and_decreasing():
    vals = [wk.box_tail_bound(1.0, c, 0.01) for c in (5, 10, 15)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------------------
# fluctuation relations per protocol
# ---------------------------------------------------------------------------


def test_jarzynski_exact_for_adiabatic_box():
    d = wk.adiabatic_box_distribution(1.0, 2.0, 1.0, 1.0, 14)
    assert jarzynski_residual(d) < 1e-12
    assert d.tail_mass < 1e-15


def test_jarzynski_exact_for_sudden_coupling():
    d = wk.sudden_coupling_distribution(1.0, 1.0, 5.0, 0.5, 14)
    assert jarzynski_residual(d) < 1e-10
    assert d.metadata["unitarity_defect"] < 1e-10


def test_jarzynski_exact_for_ramp():
    d = wk.ramp_distribution(LinearRamp(1.0, 1.0, 0.5), 1.0, 1.0, 10)
    assert jarzynski_residual(d) < 1e-10
    assert d.metadata["norm_drift"] < 1e-6


def test_ramp_reuses_external_propagation():
    res = wk.propagate_ramp(LinearRamp(1.0, 1.0, 0.5), 1.0, 10)
    d1 = wk.ramp_distribution(LinearRamp(1.0, 1.0, 0.5), 1.0, 2.0, 10, result=res)
    d2 = wk.ramp_distribution(LinearRamp(1.0, 1.0, 0.5), 1.0, 0.5, 10, result=res)
    assert d1.beta == 2.0 and d2.beta == 0.5
    assert np.array_equal(d1.works, d2.works)
    assert jarzynski_residual(d1) < 1e-10


def test_ramp_stepper_equals_solve_ivp_bitwise():
    ramp, coupling, cutoff = LinearRamp(1.0, 5.0, 0.2), 1.0, 6
    res = wk.propagate_ramp(ramp, coupling, cutoff)

    ops = boxspec.unit_pair_operators(cutoff)
    k1, v1 = ops["k1"], ops["v1"]
    d2 = boxspec.pair_dilation(cutoff)
    sp_i = boxspec.diagonalize(ModelSpec(2, Box(1.0), coupling), cutoff)
    sp_f = boxspec.diagonalize(ModelSpec(2, Box(ramp.lambda_final), coupling), cutoff)
    y0 = sp_i.vectors.astype(complex)
    dim, ncol = y0.shape

    def rhs(t, y):
        Y = y.reshape(dim, ncol)
        lam = 1.0 + ramp.speed * t
        HY = (1.0 / lam**2) * (k1[:, None] * Y) + (coupling / lam) * (v1 @ Y)
        return ((-1j) * HY + (ramp.speed / lam) * (d2 @ Y)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, ramp.duration), y0.ravel(), method="DOP853", rtol=1e-10, atol=1e-12
    )
    assert sol.success
    assert res.n_rhs_evals == sol.nfev
    assert np.array_equal(res.amplitudes, sp_f.vectors.T @ sol.y[:, -1].reshape(dim, ncol))


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
    d = wk.sudden_wall_distribution(1.0, 2.0, 1.0, 1.0, 12)
    dF = d.metadata["ln_z_initial"] - d.metadata["ln_z_final"]
    assert d.jarzynski_average() / math.exp(-dF) < 0.9
    assert d.metadata["transition_deficit"] > 0.05


def test_sudden_wall_violation_persists_in_hard_core_route():
    # same effect in the exact determinant route: not a Galerkin artifact
    d = wk.tg_sudden_wall_distribution(1.0, 2.0, 1.0, 20, 40)
    dF = d.metadata["ln_z_initial"] - d.metadata["ln_z_final"]
    assert d.jarzynski_average() / math.exp(-dF) < 0.5
    assert d.metadata["transition_deficit"] > 0.05


def test_tg_adiabatic_jarzynski_exact():
    d = wk.tg_adiabatic_box_distribution(1.0, 2.0, 0.2, 30)
    assert jarzynski_residual(d) < 1e-12
    assert np.all(d.works < 0)  # expansion lowers every level


# ---------------------------------------------------------------------------
# mean-work identities
# ---------------------------------------------------------------------------


def test_sudden_wall_mean_work_identity_is_zero():
    out = wk.sudden_wall_mean_work(1.0, 2.0, 1.0, 1.0, 12, cutoff_f=24)
    assert abs(out["identity"]) < 1e-12
    # the truncated atom sum is far from zero: slow algebraic completeness
    assert out["atom_sum"] < -0.1


def test_sudden_coupling_mean_work_matches_distribution():
    out = wk.sudden_coupling_mean_work(1.0, 1.0, 5.0, 0.5, 14)
    d = wk.sudden_coupling_distribution(1.0, 1.0, 5.0, 0.5, 14)
    assert out["identity"] == pytest.approx(d.mean(), rel=1e-12)
    assert out["thermal_contact"] > 0


def test_ndp_reference_matches_equipartition():
    # beta -> 0: ring level sums are Gaussian integrals to machine accuracy
    d = wk.ndp_reference(1.0, 2.0, 1e-3, 2)
    assert d.mean() == pytest.approx(wk.equipartition_mean_work(1.0, 2.0, 2, 1e-3), rel=1e-12)
    d3 = wk.ndp_reference(1.0, 2.0, 1e-3, 3)
    assert d3.mean() == pytest.approx(wk.equipartition_mean_work(1.0, 2.0, 3, 1e-3), rel=1e-12)


def test_ndp_exchange_variants():
    db = wk.ndp_reference(1.0, 2.0, 0.5, 2, statistics="boson")
    df = wk.ndp_reference(1.0, 2.0, 0.5, 2, statistics="fermion")
    assert db.mass == pytest.approx(1.0, abs=1e-12)
    assert df.mass == pytest.approx(1.0, abs=1e-12)
    # exchange attraction lowers |W| for bosons relative to fermions
    assert abs(db.mean()) < abs(df.mean())
    with pytest.raises(ConfigError):
        wk.ndp_reference(1.0, 2.0, 0.5, 3, statistics="boson")
    with pytest.raises(ConfigError):
        wk.ndp_reference(1.0, 2.0, 0.5, 2, statistics="anyon")


def test_free_momentum_work_scaling():
    def rel_err(base):
        I = np.array([base + 0.5, base + 20.5])
        ki = rs.solve_bethe(I, 1.0, 1.0).rapidities
        kf = rs.solve_bethe(I, 2.0, 1.0).rapidities
        exact = (kf**2).sum() - (ki**2).sum()
        return abs(wk.free_momentum_work(I, 1.0, 2.0) - exact) / abs(exact)

    e100, e300 = rel_err(100), rel_err(300)
    assert e100 < 1e-3
    assert e300 < 0.4 * e100  # error falls off with the base quantum number


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def test_dispatcher_routes_and_rejections():
    ring = ModelSpec(2, Ring(1.0), 1.0)
    d = wk.tpm_distribution(ring, Adiabatic(1.0, 2.0), 1.0, i_max=3.5)
    assert d.metadata["route"] == "bethe-adiabatic"
    with pytest.raises(ConfigError):
        wk.tpm_distribution(ring, LinearRamp(1.0, 1.0, 1.0), 1.0)

    box = ModelSpec(2, Box(1.0), 1.0)
    assert (
        wk.tpm_distribution(box, SuddenCoupling(1.0, 2.0), 1.0, cutoff=8).metadata["route"]
        == "galerkin-sudden-coupling"
    )
    hard = ModelSpec(2, Box(1.0), math.inf)
    assert (
        wk.tpm_distribution(hard, Adiabatic(1.0, 2.0), 1.0, cutoff=10).metadata["route"]
        == "hardcore-adiabatic"
    )
    assert (
        wk.tpm_distribution(hard, SuddenWall(1.0, 2.0), 1.0, cutoff_i=10, cutoff_f=20).metadata["route"]
        == "hardcore-sudden-wall"
    )
    with pytest.raises(ConfigError):
        wk.tpm_distribution(ModelSpec(3, Box(1.0), 1.0), Adiabatic(1.0, 2.0), 1.0, cutoff=8)


def test_log_probabilities_reach_below_underflow():
    # deep atoms keep finite log p even when exp(log p) underflows
    d = wk.adiabatic_ring_distribution(1.0, 2.0, 1.0, 2, 50.0, 6.5)
    assert d.log_probabilities is not None
    assert np.all(np.isfinite(d.log_probabilities))
    assert (d.probabilities == 0.0).any()  # linear weights underflow
    assert jarzynski_residual(d) < 1e-10
