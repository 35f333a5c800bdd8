"""End-to-end quantitative gates, one test per headline claim.

Four tests carry the suffix ``_known_gap``: they assert target tolerances
that the implemented routes measurably cannot reach.  Each body gives the
measured numbers; the mechanisms are

- sudden second moment: <W^2> after an instant expansion grows without
  bound in the final cutoff (the frozen state has a derivative kink), and
  the Galerkin and hard-core routes still differ at every feasible window;
- sudden-wall Jarzynski: the TPM average is Tr(Pi_i exp(-beta H_f))/Z_i,
  with Pi_i the projector onto states supported in the small box; that span
  is not the final Hilbert space, so the equality fails at any final window;
- coldest sweep: at beta = 0.01 the quantum-statistical correction, of order
  lambda_T/L, moves the moments 10-21% from the distinguishable reference
  at the ideal-Bose (C -> 0) and ideal-Fermi (C -> inf) ends; the coupling
  only moves the gas between them, and C = 100 is 15% off;
- interacting equipartition: the same exchange correction falls off only as
  sqrt(beta) and is still 3.7% at beta = 1e-3.

Those tests fail, and the failure is the finding -- the tolerances are not
loosened to hide it.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from dualgas import boxspec, eos, ringspec, work
from dualgas.core import BoxPair, LinearRamp, alpha_coupling

import oracles
from conftest import run_cli

LAM = 1.0
RING_COUPLINGS = (0.1, 1.0, 10.0, 100.0)
RING_I_MAX = {1.0: 4.5, 0.1: 6.5, 0.01: 12.5}


def moment_gaps(a: work.WorkDistribution, b: work.WorkDistribution):
    (m1a, m2a), (m1b, m2b) = a.moments(2), b.moments(2)
    return (
        abs(m1a - m1b) / max(abs(m1a), abs(m1b)),
        abs(m2a - m2b) / max(m2a, m2b),
    )


def jarzynski_residual(d: work.WorkDistribution) -> float:
    dF = d.metadata["ln_z_initial"] - d.metadata["ln_z_final"]
    return abs(math.expm1(d.log_jarzynski_average() + dF))


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def strong_pair():
    """alpha = 1e4 box pair against its hard-core (free-fermion) dual, the
    same routes at C = inf."""
    coupling = alpha_coupling(1e4, LAM)
    beta = 0.05  # several thermally occupied levels; resolvable atom spacing
    t0 = time.perf_counter()
    out = {
        "galerkin": boxspec.diagonalize(BoxPair(LAM, coupling), 60),
        "free_fermion": boxspec.diagonalize(BoxPair(LAM, math.inf), 60),
        "adiabatic": work.adiabatic_box_drive(LAM, 2.0, coupling, 60).at(beta),
        "adiabatic_dual": work.adiabatic_box_drive(LAM, 2.0, math.inf, 60).at(beta),
        "sudden": work.sudden_wall_drive(LAM, 2.0, coupling, 36, 72).at(beta),
        "sudden_dual": work.sudden_wall_drive(LAM, 2.0, math.inf, 36, 72).at(beta),
    }
    out["build_seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def ramp_v5():
    """One wall ramp at v = 5, weighed across temperatures."""
    return work.ramp_drive(LinearRamp(LAM, 5.0, 0.2), 1.0, 14)


@pytest.fixture(scope="module")
def ring_sweep():
    return {
        beta: {
            c: work.adiabatic_ring_drive(LAM, 2.0, c, 2, RING_I_MAX[beta]).at(beta)
            for c in RING_COUPLINGS
        }
        for beta in RING_I_MAX
    }


# ---------------------------------------------------------------------------
# 1. coupled rapidity solver
# ---------------------------------------------------------------------------


def test_bethe_solver_residuals_and_hard_core_pinning():
    rng = np.random.default_rng(20260825)
    lam = 20.0
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 4))
        offset = 0.5 if n % 2 == 0 else 0.0
        I = np.sort(rng.choice(np.arange(-20, 20), size=n, replace=False)) + offset
        coupling = 10.0 ** rng.uniform(-2.0, 6.0)
        _, res = ringspec.solve_bethe_batch(I[None, :], lam, coupling, tol=1e-13)
        worst = max(worst, float(res[0]))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0

    dev = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 4))
        offset = 0.5 if n % 2 == 0 else 0.0
        I = np.sort(rng.choice(np.arange(-20, 20), size=n, replace=False)) + offset
        K, _ = ringspec.solve_bethe_batch(I[None, :], lam, 1e6, tol=1e-13)
        dev = max(dev, float(np.abs(K[0] - 2.0 * np.pi * I / lam).max()))
    assert dev < 1e-5  # rapidities pin to the free-fermion grid


# ---------------------------------------------------------------------------
# 2. strong-coupling spectral and work duality
# ---------------------------------------------------------------------------


def test_strong_coupling_levels_match_free_fermions(strong_pair):
    e_g = strong_pair["galerkin"].energies[:10]
    e_f = strong_pair["free_fermion"].energies[:10]
    assert float(np.abs(e_g / e_f - 1.0).max()) < 0.01
    assert strong_pair["build_seconds"] < 300.0


def test_strong_coupling_adiabatic_work_duality(strong_pair):
    a, b = strong_pair["adiabatic"], strong_pair["adiabatic_dual"]
    res = oracles.comparison_resolution(a, b)
    assert work.kolmogorov_distance(a, b, res) < 0.02
    g1, g2 = moment_gaps(a, b)
    assert g1 < 0.01
    assert g2 < 0.01


def test_strong_coupling_sudden_work_duality(strong_pair):
    a, b = strong_pair["sudden"], strong_pair["sudden_dual"]
    res = oracles.comparison_resolution(a, b)
    assert work.kolmogorov_distance(a, b, res) < 0.02
    # the exact mean vanishes by the embedding identity, so the two routes'
    # means are compared on the distribution scale, not against ~0
    (m1a, m2a), (m1b, m2b) = a.moments(2), b.moments(2)
    scale = max(abs(m1b), math.sqrt(m2b))
    assert abs(m1a - m1b) / scale < 0.01


def test_strong_coupling_sudden_second_moment_known_gap(strong_pair):
    # <W^2> after an instant expansion grows without bound in the final
    # cutoff (the frozen state leaves the final domain: derivative kink).
    # With the final cutoff twice the initial one, initial cutoffs 24/36/48
    # give a hard-core <W^2> of 2635/3952/5269, about linear in the cutoff,
    # and a Galerkin <W^2> that is still far off it: the asserted g2 is
    # 0.779/0.431/0.206 (rms ratios galerkin/hard-core 2.13/1.33/1.12, i.e.
    # excesses of 1.13/0.33/0.12); the 1% target is out of reach at any
    # feasible basis
    _, g2 = moment_gaps(strong_pair["sudden"], strong_pair["sudden_dual"])
    assert g2 < 0.01


# ---------------------------------------------------------------------------
# 3. one dichotomy: identical spatial profiles, distinct momentum profiles
# ---------------------------------------------------------------------------


def test_density_profile_dichotomy():
    coupling = alpha_coupling(5.0, LAM)
    sp = boxspec.diagonalize(BoxPair(LAM, coupling), 60)
    for idx in (0, 1):
        bose = sp.state(idx, "boson")
        fermi = sp.state(idx, "fermion")
        rb = boxspec.spatial_density(bose)
        rf = boxspec.spatial_density(fermi)
        assert np.array_equal(rb.values, rf.values)  # bit for bit
        nb = boxspec.momentum_density(bose)
        nf = boxspec.momentum_density(fermi)
        assert boxspec.l1_distance(nb, nf) > 0.1


# ---------------------------------------------------------------------------
# 4. fluctuation theorem across protocols
# ---------------------------------------------------------------------------


def test_jarzynski_identity_for_unitary_protocols(ramp_v5):
    for beta in (1.0, 0.1):
        dists = [
            work.adiabatic_box_drive(LAM, 2.0, 1.0, 14).at(beta),
            work.sudden_coupling_drive(LAM, 1.0, 5.0, 14).at(beta),
            ramp_v5.at(beta),
        ]
        for d in dists:
            assert jarzynski_residual(d) < 1e-6
            assert d.tail_mass < 1e-10


def test_ramp_unitary_to_roundoff(ramp_v5):
    # the two pair chirps and the 778 split steps are unitary to roundoff,
    # their contact sub-flows by the SVD's orthonormal factor alone, so the
    # norm and the Jarzynski identity hold far below the 1e-6 gates above at
    # every beta (DOP853 at rtol 1e-10 drifted 1.7e-8 here)
    assert ramp_v5.metadata["norm_drift"] <= 1e-12
    for beta in (1.0, 0.1, 0.01):
        assert jarzynski_residual(ramp_v5.at(beta)) <= 1e-11


def test_jarzynski_identity_sudden_wall_known_gap():
    # the TPM average is exactly <exp(-beta W)> = Tr(Pi_i exp(-beta H_f))/Z_i,
    # where Pi_i projects onto the states supported in the small box.  That
    # span is not the final Hilbert space, so the Jarzynski equality does not
    # hold for an instant wall expansion (compare Quan & Jarzynski, Phys. Rev.
    # E 85, 031102 (2012)), and a larger final window does not help: for
    # final cutoffs 28/60/90 the ratio <exp(-beta W)>/exp(-beta dF) stays
    # 0.22256/0.22258/0.22259 at beta = 1 and 0.27585/0.27587/0.27587 at
    # beta = 0.1 (residuals ~0.78 and ~0.72), while thermal_transition_deficit
    # falls from 5.1e-5 to 1.5e-6
    worst = 0.0
    for beta in (1.0, 0.1):
        d = work.sudden_wall_drive(LAM, 2.0, 1.0, 14).at(beta)
        assert d.tail_mass < 1e-10
        worst = max(worst, jarzynski_residual(d))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# 5. instant expansion does no work on average
# ---------------------------------------------------------------------------


def test_sudden_expansion_mean_work_identity():
    sp = boxspec.diagonalize(BoxPair(LAM, 1.0), 12)
    assert abs(oracles.frozen_mean_work(sp, 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# 6. ramp propagator reaches both limits
# ---------------------------------------------------------------------------


def test_ramp_propagator_adiabatic_and_sudden_limits():
    # slow side: ground survival climbs monotonically toward 1
    survivals = []
    for v in (0.5, 0.1, 0.02):
        res = work.propagate_ramp(
            LinearRamp(LAM, v, 1.0 / v), 1.0, 10, columns=[0]
        )
        assert res.norm_drift < 1e-8
        survivals.append(float(res.transition_matrix[0, 0]))
    assert survivals[0] < survivals[1] < survivals[2]
    assert 1.0 - survivals[-1] < 1e-2

    # fast side: tau = 1e-3 transition matrix equals the frozen-state overlaps
    res = work.propagate_ramp(LinearRamp(LAM, 1.0, 1e-3), 1.0, 10)
    assert res.norm_drift < 1e-8
    sp_i = boxspec.diagonalize(BoxPair(LAM, 1.0), 10)
    lam_f = LAM + 1e-3
    sp_f = boxspec.diagonalize(BoxPair(lam_f, 1.0), 10)
    O2 = boxspec.pair_embed_overlaps(LAM, lam_f, sp_i.basis, sp_f.basis)
    V_i, V_f = oracles.dense_vectors(sp_i), oracles.dense_vectors(sp_f)
    P_sudden = (V_f.T @ O2 @ V_i) ** 2
    assert float(np.abs(res.transition_matrix - P_sudden).max()) < 1e-3


# ---------------------------------------------------------------------------
# 7. interaction sensitivity washes out toward the classical limit
# ---------------------------------------------------------------------------


def test_interaction_sensitivity_decreases_with_temperature(ring_sweep):
    max_k, max_g1, max_g2 = [], [], []
    for beta in (1.0, 0.1, 0.01):
        ds = [ring_sweep[beta][c] for c in RING_COUPLINGS]
        for d in ds:
            assert d.tail_mass < 1e-8
        ks, g1s, g2s = [], [], []
        for a, b in itertools.combinations(ds, 2):
            res = oracles.comparison_resolution(a, b)
            ks.append(work.kolmogorov_distance(a, b, res))
            g1, g2 = moment_gaps(a, b)
            g1s.append(g1)
            g2s.append(g2)
        max_k.append(max(ks))
        max_g1.append(max(g1s))
        max_g2.append(max(g2s))
    for seq in (max_k, max_g1, max_g2):
        assert seq[0] > seq[1] > seq[2]


def test_coldest_sweep_near_distinguishable_reference_known_gap(ring_sweep):
    # the gap is the quantum-statistical correction, of order
    # lambda_T/L = hbar sqrt(4 pi beta)/L = 0.35 here, not an interaction
    # effect.  Relative <W> / <W^2> gaps to the distinguishable reference:
    # C -> 0 (1e-6): +10.0% / -12.5%, the ideal-Bose values;
    # C = 0.1: +9.9% / -12.4%;  C = 100: -13.3% / +15.3%;
    # C -> inf (1e6): -16.7% / +20.9%, the ideal-Fermi values.
    # Every coupling sits between the Bose and Fermi ends, and both ends are
    # well outside the 5% target at beta = 0.01
    ref = oracles.ndp_reference(LAM, 2.0, 0.01, 2)
    r1, r2 = ref.moments(2)
    worst = 0.0
    for c in RING_COUPLINGS:
        m1, m2 = ring_sweep[0.01][c].moments(2)
        worst = max(worst, abs(m1 - r1) / abs(r1), abs(m2 - r2) / abs(r2))
    assert worst < 0.05


def test_classical_reference_reaches_equipartition():
    d = oracles.ndp_reference(LAM, 2.0, 1e-3, 2)
    target = oracles.equipartition_mean_work(LAM, 2.0, 2, 1e-3)
    assert abs(d.moments(1)[0] / target - 1.0) < 0.01


def test_interacting_mean_work_equipartition_known_gap():
    # Bose exchange corrections to <W> fall off only as sqrt(beta): at
    # beta = 1e-3 they still sit near 3.6%, so the 1% target needs
    # beta ~ 1e-4 and is not reachable at the stated temperature
    target = oracles.equipartition_mean_work(LAM, 2.0, 2, 1e-3)
    worst = 0.0
    for c in RING_COUPLINGS:
        d = work.adiabatic_ring_drive(LAM, 2.0, c, 2, 35.5).at(1e-3)
        assert d.tail_mass < 1e-10
        worst = max(worst, abs(d.moments(1)[0] / target - 1.0))
    assert worst < 0.01


# ---------------------------------------------------------------------------
# 8. pinned-momentum shortcut for highly excited states
# ---------------------------------------------------------------------------


def test_pinned_momentum_work_for_high_quantum_numbers():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        base = float(rng.integers(100, 401))
        offs = np.sort(rng.choice(21, size=n, replace=False)).astype(float)
        I = base + offs + (0.5 if n % 2 == 0 else 0.0)
        if rng.random() < 0.5:
            I = -I[::-1]
        ki = ringspec.solve_bethe_batch(I[None, :], LAM, 1.0)[0][0]
        kf = ringspec.solve_bethe_batch(I[None, :], 2.0, 1.0)[0][0]
        exact = float((kf**2).sum() - (ki**2).sum())
        shortcut = oracles.free_momentum_work(I, LAM, 2.0)
        worst = max(worst, abs(shortcut - exact) / abs(exact))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# 9. thermodynamic routes
# ---------------------------------------------------------------------------


def test_eos_coefficients_hard_core_limit_and_classical_trend():
    beta = 1.0
    co = eos.fugacity_coefficients(beta, 1.0)
    assert abs(co["b1_tabulated"] - 2.0 * math.pi / math.sqrt(beta)) < 1e-10
    # the Gaussian integral itself carries 1/sqrt(4 pi) of that weight
    assert co["b1"] == pytest.approx(math.sqrt(math.pi / beta), rel=1e-12)

    # hard-core pressure and density against direct quadrature
    from scipy.integrate import quad

    mu = 0.5
    sol = eos.solve_yang_yang(beta, mu, 1e6)
    p_ref, _ = quad(lambda k: np.logaddexp(0.0, -beta * (-mu + k * k)), -50, 50, limit=400)
    p_ref /= 2.0 * math.pi * beta
    assert abs(sol.pressure / p_ref - 1.0) < 1e-4
    d_ref, _ = quad(lambda k: 0.5 * (1.0 - math.tanh(0.5 * beta * (-mu + k * k))), -50, 50, limit=400)
    d_ref /= 2.0 * math.pi
    assert abs(sol.density / d_ref - 1.0) < 1e-4

    # small-fugacity expansion of the full solution recovers the cluster
    # profiles: eps solved at two small z on one shared grid, coefficients
    # peeled off by Richardson extrapolation
    km, nk = eos.default_grid(beta, 0.0, 1.0, 1.0)
    z1, z2 = 1e-3, 1e-4
    g = {}
    for z in (z1, z2):
        s = eos.solve_yang_yang(beta, math.log(z) / beta, 1.0, k_max=km, n_k=nk)
        g[z] = np.exp(-beta * s.epsilon)
        k_grid = s.k
    r1, r2 = g[z1] / z1, g[z2] / z2
    a1_est = (z1 * r2 - z2 * r1) / (z1 - z2)
    a2_est = (r1 - r2) / (z1 - z2)
    assert float(np.abs(a1_est - oracles.a1_profile(k_grid, beta)).max()) < 1e-3
    a2_ref = oracles.a2_profile(k_grid, beta, 1.0, reading="q")
    assert float(np.abs(a2_est - a2_ref).max()) < 1e-3

    # classical limit: the virial ratio walks toward 1 as hbar shrinks
    gaps = [abs(eos.virial_ratio(beta, 1.0, 0.1, hbar=h)["full"] - 1.0) for h in (1.0, 0.3, 0.1)]
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# 10. determinism of the command-line artifacts
# ---------------------------------------------------------------------------


def test_repeated_runs_byte_identical(tmp_path):
    def run(args, cwd):
        r = run_cli(args, cwd)
        assert r.returncode == 0, r.stderr
        return r

    specs = {
        "ring": (["ring-spectrum", "--n", "2", "--imax", "6.5"], {}),
        "fig2": (
            ["fig2", "--c-list", "0.5,1", "--beta-list", "1,0.1", "--m", "8"],
            {"a": "1", "b": "3"},  # thread counts must not leak into bytes
        ),
        # the isotherm and the hbar sweep both map over threads
        "eos": (
            ["eos", "--mu-grid=-2:0:5", "--hbar-sweep", "1,0.3", "--density", "0.1"],
            {"a": "1", "b": "2"},
        ),
        "fig1": (["fig1", "--m", "8", "--n-grid", "33", "--n-k", "41", "--n-x", "49"], {}),
    }
    for name, (args, threads) in specs.items():
        dirs = []
        for tag in ("a", "b"):
            d = tmp_path / f"{name}_{tag}"
            d.mkdir()
            extra = ["--threads", threads[tag]] if threads else []
            run(args + extra, d)
            dirs.append(d)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes(), fname
