import math

import numpy as np
import pytest
import scipy.fft
import scipy.signal
import scipy.special
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from dualgas import eos, ringspec
from dualgas.core import ConfigError

import oracles

# b2 of free bosons at beta = hbar = 1; the hard-core value is minus this
FREE_BOSON_B2 = 0.5 * math.sqrt(math.pi / 2.0)


def test_coupling_validation():
    with pytest.raises(ConfigError):
        eos.solve_yang_yang(1.0, 0.0, -1.0)
    with pytest.raises(ConfigError):
        eos.solve_yang_yang(1.0, 0.0, 0.0)
    for coupling in (-1.0, math.nan):
        with pytest.raises(ConfigError):
            eos.fugacity_coefficients(1.0, coupling)


@given(
    n=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
    decades=st.floats(0.0, 300.0),
    h=st.floats(1e-4, 1.0),
    coupling=st.floats(1e-3, 1e3),
    hbar=st.floats(0.1, 10.0),
)
def test_same_convolution_bitwise_equals_fftconvolve(n, seed, decades, h, coupling, hbar):
    # the solver's kernel on a grid of n points, against fillings spread
    # over `decades` orders of magnitude down from e^3
    rng = np.random.default_rng(seed)
    f = np.exp(3.0 - rng.uniform(0.0, decades * math.log(10.0), n))
    kern = eos._kernel(h * (np.arange(n) - n // 2), coupling, hbar)
    got = eos._same_convolution(kern, n)(f)
    assert np.array_equal(got, scipy.signal.fftconvolve(f, kern, mode="same"))


def test_next_fast_len_equals_scipy():
    # every small length, then a spread up to the grid cap's full length:
    # n = 400001 points convolved with 2n - 1 kernel taps
    cap = 400001 + 2 * 400001 - 1
    rng = np.random.default_rng(0)
    sizes = [*range(1, 3000), *rng.integers(3000, cap, 300).tolist(),
             2**20, 2**20 + 1, 3**12, 5**8 + 1, cap - 1, cap]
    for n in sizes:
        assert eos._next_fast_len(n) == scipy.fft.next_fast_len(n, True), n


@pytest.mark.parametrize("n", [1, 2, 801, 4096, 4097])
def test_same_convolution_edge_sizes(n):
    f = np.linspace(1e-300, 20.0, n)
    kern = eos._kernel(0.01 * (np.arange(n) - n // 2), 1.0, 1.0)
    conv = eos._same_convolution(kern, n)
    want = scipy.signal.fftconvolve(f, kern, mode="same")
    assert np.array_equal(conv(f), want)
    assert np.array_equal(conv(f), want)  # the kernel transform is reused


def test_hard_core_route_matches_quadrature():
    # C = inf drops the dressing: P is the free-fermion pressure integral
    sol = eos.solve_yang_yang(1.0, 0.5, math.inf)
    ref, _ = quad(lambda k: np.logaddexp(0.0, 0.5 - k * k), -40.0, 40.0, limit=400)
    ref /= 2.0 * math.pi
    assert sol.pressure == pytest.approx(ref, rel=1e-12)
    assert sol.residual == 0.0


def test_large_coupling_converges_to_hard_core():
    s_inf = eos.solve_yang_yang(1.0, 0.5, math.inf)
    s_num = eos.solve_yang_yang(1.0, 0.5, 1e6)
    assert s_num.pressure == pytest.approx(s_inf.pressure, rel=1e-5)


def test_degenerate_point_converges():
    sol = eos.solve_yang_yang(1.0, 0.0, 1.0)
    assert sol.residual < 1e-10
    assert sol.pressure > 0
    f = sol.filling
    assert np.all((f >= 0) & (f <= 1))
    assert f.max() > 0.5  # genuinely degenerate, not a dilute freebie


def test_dressed_energy_even_and_increasing_outward():
    sol = eos.solve_yang_yang(0.5, 0.2, 2.0)
    e = sol.epsilon
    assert np.allclose(e, e[::-1], atol=1e-9)
    mid = e.size // 2
    assert e[-1] > e[mid]  # free quadratic growth wins at the edge


def test_deeply_degenerate_point_converges():
    # the Yang-Yang map contracts at every filling, so plain iteration
    # reaches the solution deep in the degenerate regime too
    sol = eos.solve_yang_yang(1.0, 3.0, 1.0)
    assert sol.residual < 1e-10
    assert 0.0 < sol.pressure < math.inf
    assert 0.0 < sol.density < math.inf


def _richardson_slopes(beta, mu, coupling, hbar):
    # dP/dmu and dD/dmu by Richardson-extrapolated central differences, all
    # solves on one grid sized past the base mu
    km, n = eos.default_grid(beta, max(mu, 0.0) + 2.0 / beta, coupling, hbar)
    step = 1e-4 * max(1.0 / beta, abs(mu))
    sols = [eos.solve_yang_yang(beta, mu + s * step, coupling, hbar, k_max=km, n_k=n)
            for s in (-1.0, -0.5, 0.5, 1.0)]

    def slope(name):
        lo, half_lo, half_hi, hi = (getattr(s, name) for s in sols)
        d1 = (hi - lo) / (2.0 * step)
        d2 = (half_hi - half_lo) / step
        return (4.0 * d2 - d1) / 3.0

    return slope("pressure"), slope("density"), km, n


@pytest.mark.parametrize("beta, mu, hbar", [
    (1.0, -2.0, 1.0), (1.0, 0.0, 1.0), (10.0, 0.1, 1.0), (1.0, 0.0, 0.1),
    (1.0, 3.0, 1.0),
])
def test_density_is_the_mu_derivative_of_pressure(beta, mu, hbar):
    ref, ref_slope, km, n = _richardson_slopes(beta, mu, 1.0, hbar)
    got = eos.solve_yang_yang(beta, mu, 1.0, hbar, k_max=km, n_k=n)
    assert got.density == pytest.approx(ref, rel=1e-8)
    assert got.density_slope == pytest.approx(ref_slope, rel=1e-8)
    own = eos.solve_yang_yang(beta, mu, 1.0, hbar)  # on the default grid
    assert own.density == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("coupling", [0.5, 1.0])
def test_default_window_holds_the_dressed_fermi_sea(coupling):
    # repulsion spreads the Fermi sea past sqrt(mu): at beta = 10, mu = 5 it
    # must still sit inside the default window and the kernel's reach
    beta, mu = 10.0, 5.0
    km, n = eos.default_grid(beta, mu, coupling)
    wide = eos.solve_yang_yang(beta, mu, coupling, k_max=2.0 * km, n_k=2 * n - 1)
    own = eos.solve_yang_yang(beta, mu, coupling)
    assert own.density == pytest.approx(wide.density, rel=1e-8)


def _ring_b2(lam, coupling, beta=1.0):
    # Beth-Uhlenbeck b2 = 2 pi (Z2 - Z1^2 / 2) / L from the ring's pair and
    # one-body spectra, cut where e^{-beta hbar^2 k^2} is below e^{-49}
    i_max = 7.0 * lam / (2.0 * math.pi) + 0.5
    z2 = ringspec.enumerate_states(lam, coupling, 2, i_max).partition_function(beta)
    n = np.arange(-math.floor(i_max), math.floor(i_max) + 1)
    z1 = float(np.exp(-beta * (2.0 * math.pi * n / lam) ** 2).sum())
    return 2.0 * math.pi * (z2 - 0.5 * z1 * z1) / lam


@pytest.mark.parametrize("coupling", [0.1, 1.0, 10.0])
def test_second_cluster_integral_matches_ring_spectrum(coupling):
    # the EOS kernel is the derivative of the ring's phase shift, so the
    # cluster expansion and the Bethe spectrum describe one gas
    b2 = eos.fugacity_coefficients(1.0, coupling)["b2"]
    assert b2 == pytest.approx(_ring_b2(20.0, coupling), abs=1e-9)


@pytest.mark.parametrize("coupling", [0.01, 1.0, 100.0])
def test_second_cluster_integral_between_hard_core_and_free_bosons(coupling):
    b2 = eos.fugacity_coefficients(1.0, coupling)["b2"]
    assert -FREE_BOSON_B2 < b2 < FREE_BOSON_B2


def test_erfcx_matches_scipy():
    # both branches, the switch between them at x = 3, and the limits
    xs = [0.0, *np.geomspace(1e-8, 1e10, 2001), *np.linspace(2.9, 3.1, 2001), math.inf]
    for x in xs:
        want = scipy.special.erfcx(x)
        assert abs(eos._erfcx(x) - want) <= 1e-13 * want, x


def _quad_b2(beta, coupling, hbar):
    # b2 as the integral of a2(q-reading) - a1^2 / 2, the cluster profile
    # itself an adaptive quadrature
    lim = 8.0 / (math.sqrt(beta) * hbar)
    b2, _ = quad(
        lambda k: oracles.a2_profile(k, beta, coupling, hbar)
        - 0.5 * math.exp(-2.0 * beta * hbar**2 * k * k),
        -lim, lim, limit=400,
    )
    return b2


@pytest.mark.parametrize("beta, coupling, hbar", [
    (1.0, 0.01, 1.0), (1.0, 1.0, 1.0), (10.0, 0.3, 1.0), (0.1, 10.0, 0.5),
    (10.0, 1e8, 0.1),
])
def test_second_cluster_integral_closed_form_matches_quadrature(beta, coupling, hbar):
    b2 = eos.fugacity_coefficients(beta, coupling, hbar)["b2"]
    assert b2 == pytest.approx(_quad_b2(beta, coupling, hbar), rel=1e-11)


def test_density_positive_and_monotone_in_mu():
    d = [eos.solve_yang_yang(1.0, m, 1.0).density for m in (-2.0, -1.0, 0.0)]
    assert all(x > 0 for x in d)
    assert d[0] < d[1] < d[2]


def test_first_cluster_integral_is_gaussian():
    co = eos.fugacity_coefficients(1.0, 1.0)
    assert co["b1"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert co["b1_tabulated"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    co2 = eos.fugacity_coefficients(4.0, 1.0, hbar=0.5)
    assert co2["b1"] == pytest.approx(math.sqrt(math.pi / 4.0) / 0.5, rel=1e-12)


def test_second_cluster_integral_reaches_free_fermion_limit():
    exact = -FREE_BOSON_B2
    assert eos.fugacity_coefficients(1.0, math.inf)["b2"] == pytest.approx(exact, rel=1e-12)
    assert eos.fugacity_coefficients(1.0, 1e8)["b2"] == pytest.approx(exact, rel=1e-6)
    # moderate repulsion keeps the bosonic (positive) sign
    assert eos.fugacity_coefficients(1.0, 1.0)["b2"] > 0


def test_a2_readings_disagree_but_share_scale():
    # the two published forms of the pair cluster differ in which argument
    # the Gaussian carries; both peak at k = 0 with opposite signs there
    k = np.array([0.0])
    aq = oracles.a2_profile(k, 1.0, 1.0, reading="q")[0]
    ak = oracles.a2_profile(k, 1.0, 1.0, reading="k")[0]
    assert ak == pytest.approx(-2.0, rel=1e-12)
    assert aq > 0
    with pytest.raises(ConfigError):
        oracles.a2_profile(k, 1.0, 1.0, reading="x")


def test_virial_ratio_coherent_at_low_density():
    out = eos.virial_ratio(1.0, 1.0, 0.05)
    assert 0.9 < out["full"] < 1.0  # repulsive quantum gas below classical
    assert out["expansion"] == pytest.approx(out["full"], abs=0.02)
    # the tabulated shorthand uses the 2 pi normalization and lands elsewhere
    assert abs(out["tabulated"] - out["expansion"]) > 0.01
    assert out["pressure"] > 0 and out["z"] > 0
    with pytest.raises(ConfigError):
        eos.virial_ratio(1.0, 1.0, -0.1)


@pytest.mark.parametrize("target", [1e-12, 1e-16, 1e-18])
def test_virial_ratio_keeps_the_dilute_tail(target):
    # deep in the classical tail, where a filling written as
    # (1 - tanh(beta eps / 2)) / 2 loses its digits and then cancels to 0
    out = eos.virial_ratio(1.0, 1.0, target)
    assert abs(out["full"] - out["expansion"]) <= 1e-9


@pytest.mark.parametrize("beta, coupling, target", [
    (1.0, 1.0, 0.1), (10.0, 1.0, 0.1), (10.0, 1.0, 5.0),
    (1.0, 0.3, 2.0),  # a wide bracket above the root meets a slow contraction
])
def test_virial_ratio_newton_inversion_matches_brentq(monkeypatch, beta, coupling, target):
    solve = eos.solve_yang_yang
    mus = []

    def counted(b, mu, *args, **kwargs):
        mus.append(mu)
        return solve(b, mu, *args, **kwargs)

    monkeypatch.setattr(eos, "solve_yang_yang", counted)
    out = eos.virial_ratio(beta, coupling, target)
    assert len(mus) <= 8
    assert out["mu"] == mus[-1]  # the pressure of the last solve, no extra one
    ref = brentq(lambda m: solve(beta, m, coupling).density - target,
                 out["mu"] - 1.0, out["mu"] + 1.0, xtol=1e-14 / beta)
    assert abs(out["mu"] - ref) <= 1e-12 / beta


def test_default_grid_tracks_coupling_resolution():
    km1, n1 = eos.default_grid(1.0, 0.0, 1.0, 1.0)
    km2, n2 = eos.default_grid(1.0, 0.0, 0.05, 1.0)
    assert km1 == km2  # window set by temperature, not coupling
    assert n2 > n1  # narrow Lorentzian needs the finer mesh
