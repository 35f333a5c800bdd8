import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln

from dualgas import ringspec as rs
from dualgas.core import ConfigError


def solve_one(quantum_numbers, lam, coupling):
    """One state as a one-row stack: (rapidities, residual)."""
    K, res = rs.solve_bethe_batch(np.asarray(quantum_numbers)[None, :], lam, coupling)
    return K[0], float(res[0])


def two_body_oracle(coupling: float, lam: float = 1.0) -> float:
    """Independent root for I = (-1/2, 1/2) at hbar = 1.

    The symmetric pair k = (-k0, k0) sees the relative rapidity 2 k0, so
    the coupled system collapses to k0 lam = pi - 2 atan(4 k0 / C), solved
    here by bisection.
    """

    def f(k0):
        return k0 * lam - math.pi + 2.0 * math.atan(4.0 * k0 / coupling)

    return brentq(f, 1e-12, math.pi / lam, xtol=1e-15, rtol=8.9e-16)


@pytest.mark.parametrize("coupling", [0.1, 1.0, 10.0, 1e6])
def test_ground_pair_matches_scalar_oracle(coupling):
    k, _ = solve_one([-0.5, 0.5], 1.0, coupling)
    k0 = two_body_oracle(coupling)
    assert k == pytest.approx([-k0, k0], abs=1e-12)


def test_tonks_girardeau_is_exact():
    I = np.array([-1.0, 0.0, 1.0])
    k, residual = solve_one(I, 2.5, math.inf)
    assert np.array_equal(k, 2.0 * np.pi * I / 2.5)
    assert residual == 0.0


def test_weak_coupling_pair_scaling():
    # k0 -> sqrt(C/2)/... : for C -> 0+ the pair collapses like sqrt(C)
    for c in (1e-4, 1e-6):
        k0 = solve_one([-0.5, 0.5], 1.0, c)[0][1]
        assert k0 == pytest.approx(math.sqrt(c / 2.0), rel=5e-2)


def test_zero_coupling_rejected():
    with pytest.raises(ConfigError):
        solve_one([-0.5, 0.5], 1.0, 0.0)
    # the phase shift and its slope take the solver's domain, C > 0 or inf
    for fn in (rs.theta, rs.theta_prime):
        with pytest.raises(ConfigError, match="C = 0 rapidities coalesce"):
            fn(0.5, 0.0)


@pytest.mark.parametrize("coupling", [math.nan, -1.0])
def test_nan_or_negative_coupling_rejected(coupling):
    with pytest.raises(ConfigError):
        solve_one([-0.5, 0.5], 1.0, coupling)
    with pytest.raises(ConfigError):
        rs.enumerate_states(1.0, coupling, 2, 2.5)
    with pytest.raises(ConfigError):
        rs.theta(0.5, coupling)


def test_nan_residual_is_not_converged():
    # nan compares False both ways: it must keep Newton running, not stop it
    with pytest.raises(rs.BetheSolverError):
        rs.solve_bethe_batch(np.array([[-0.5, 0.5]]), 1.0, 1.0, hbar=math.nan)


def test_quantum_number_grid_validation():
    # enumerate_states is the only source of quantum numbers: its rows are
    # strictly increasing on the Pauli grid of their particle number
    for n, i_max in ((2, 4.5), (3, 4.0)):
        I = rs.enumerate_states(1.0, 1.0, n, i_max).quantum_numbers
        assert np.all(np.diff(I, axis=1) > 0)
        assert np.all(I - np.floor(I) == (0.5 if n % 2 == 0 else 0.0))
    with pytest.raises(ConfigError):
        solve_one([-0.5, 0.5], -1.0, 1.0)


@given(
    st.integers(1, 3),
    st.floats(math.log(1e-2), math.log(1e6)),
    st.integers(-15, 15),
    st.data(),
)
def test_random_states_residual_and_boost(n, logc, shift, data):
    coupling = math.exp(logc)
    off = 0.0 if n % 2 == 1 else 0.5
    grid = np.arange(-12 + off, 12 + off + 1e-9)
    picks = sorted(
        data.draw(
            st.lists(
                st.integers(0, grid.size - 1), min_size=n, max_size=n, unique=True
            )
        )
    )
    I = grid[picks]
    lam = 1.7
    k, residual = solve_one(I, lam, coupling)
    scale = max(1.0, 2.0 * math.pi * float(np.abs(I).max()))
    assert residual < 1e-11 * scale
    assert float((k**2).sum()) >= 0.0 or I.size > 1
    # Galilean boost: shifting every I by an integer shifts every k by
    # 2 pi shift / lam and leaves relative rapidities fixed.
    boosted, _ = solve_one(I + shift, lam, coupling)
    assert boosted == pytest.approx(k + 2.0 * math.pi * shift / lam, abs=1e-9)


def test_batch_solver_matches_single():
    I = np.array([[-0.5, 0.5], [0.5, 1.5], [-1.5, 2.5]])
    ks, res = rs.solve_bethe_batch(I, 1.0, 3.0)
    assert np.all(res < 1e-12)
    # each row solved alone lands on its row of the stack
    for row, iqn in zip(ks, I):
        assert row == pytest.approx(solve_one(iqn, 1.0, 3.0)[0], abs=1e-12)


def test_enumeration_count_and_order():
    table = rs.enumerate_states(1.0, 1.0, 2, 9.5)
    # 20 half-odd-integer slots with |I| <= 9.5 -> C(20, 2) pair states
    assert len(table) == 190
    e = table.energies
    assert np.all(np.diff(e) >= -1e-12)
    assert table.quantum_numbers[0] == pytest.approx([-0.5, 0.5])


@pytest.mark.parametrize("coupling", [1.0, math.inf])
def test_enumeration_rejects_nonpositive_circumference(coupling):
    # the hard-core enumeration goes through the same checks as any other
    with pytest.raises(ConfigError, match="circumference"):
        rs.enumerate_states(-1.0, coupling, 2, 3)


@pytest.mark.parametrize("coupling", [1.0, math.inf])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_enumeration_rejects_energies_past_double_range(coupling):
    # at lam = 1e-300 every k ~ 1e300 and k^2 overflows: no state is solved,
    # and the overflow reaches its limit without a warning
    with pytest.raises(rs.BetheSolverError, match="15 of 15 states have no finite energy"):
        rs.enumerate_states(1e-300, coupling, 2, 2.5)


def test_enumeration_cap():
    with pytest.raises(ConfigError):
        rs.enumerate_states(1.0, 1.0, 2, 9.5, max_states=10)
    # the cap reads the counted states: C(20, 2) = 190 pairs at i_max = 9.5
    assert len(rs.enumerate_states(1.0, 1.0, 2, 9.5, max_states=190)) == 190
    with pytest.raises(ConfigError, match="max_states = 189"):
        rs.enumerate_states(1.0, 1.0, 2, 9.5, max_states=189)


@pytest.mark.parametrize("n, i_max", [(2, 1e300), (3, 1e300), (3, 1.7e308)])
def test_enumeration_cap_counts_before_building_the_grid(n, i_max):
    # a grid of ~1e300 points is never built: the states are counted first
    with pytest.raises(ConfigError, match="more than max_states"):
        rs.enumerate_states(1.0, 1.0, n, i_max)


@pytest.mark.parametrize("i_max", [math.inf, -math.inf, math.nan])
def test_enumeration_rejects_a_cutoff_that_is_not_finite(i_max):
    with pytest.raises(ConfigError, match=f"i_max = {i_max} is not finite"):
        rs.enumerate_states(1.0, 1.0, 2, i_max)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("i_max", [-1.0, 0.0, 0.5, 1.0, 1.5 - 1e-12, 2.5, 3.0 + 1e-10])
def test_enumeration_counts_its_grid(n, i_max):
    # the counted grid is the built one: every state of it is enumerated
    if n % 2 == 0:
        size = 2 * int(np.arange(0.5, i_max + 1e-9, 1.0).size)
    else:
        size = int(np.arange(-math.floor(i_max + 1e-9), math.floor(i_max + 1e-9) + 1).size)
    if size < n:
        with pytest.raises(ConfigError, match=f"admits only {size} grid values"):
            rs.enumerate_states(1.0, math.inf, n, i_max)
    else:
        assert len(rs.enumerate_states(1.0, math.inf, n, i_max)) == math.comb(size, n)


def test_tail_bound_decreases_and_dominates():
    # beta small enough that exp(-beta E) stays representable out to the
    # deepest window probed; at beta = 1 the bound underflows to 0 by imax ~ 5
    lam, n, beta = 1.0, 2, 0.02
    bounds = [rs.spectral_tail_bound(lam, n, imax, beta) for imax in (3.5, 5.5, 8.5)]
    assert all(b > 0 for b in bounds)
    assert bounds[0] > bounds[1] > bounds[2]
    # the bound must dominate the true excluded mass: compare against a
    # brute enumeration two slots deeper
    imax = 4.5
    inner = rs.enumerate_states(lam, 1e6, n, imax)
    outer = rs.enumerate_states(lam, 1e6, n, imax + 2)
    excluded = np.exp(-beta * outer.energies).sum() - np.exp(-beta * inner.energies).sum()
    assert rs.spectral_tail_bound(lam, n, imax, beta) >= excluded


@pytest.mark.parametrize("n", range(1, 7))
def test_tail_bound_log_count_matches_gammaln(n):
    # the extremal-number count C(L, N-1), L = 2v+1, over every grid value
    # v the bounds above visit; the gammaln difference loses its last digits
    # to cancellation as L grows, the exact integer binomial does not
    for L in range(n - 1, 41):
        want = gammaln(L + 1.0) - gammaln(n) - gammaln(L - n + 2.0)
        assert rs._log_comb(L, n - 1) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert rs._log_comb(5000, 1) == math.log(5000)
    assert rs._log_comb(n - 2, n - 1) == -math.inf  # no such states


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
def test_tail_bound_rejects_beta_not_positive_and_finite(beta):
    with pytest.raises(ConfigError, match="beta must be positive and finite"):
        rs.spectral_tail_bound(1.0, 2, 3.5, beta)


def test_tail_bound_raises_at_its_term_cap():
    # at beta = 1e-8 the series has not closed within its cap, and the
    # partial sum would understate the bound by 0.019 % (58 % at 1e-9)
    with pytest.raises(ArithmeticError, match=r"beta=1e-08, lambda=20, i_max=12"):
        rs.spectral_tail_bound(20.0, 3, 12, 1e-8)
    assert rs.spectral_tail_bound(20.0, 3, 12, 1e-7) == 1808405024717.832
    # a series whose every term underflows closes, with the exact sum 0
    assert rs.spectral_tail_bound(1.0, 2, 4.5, 1.0) == 0.0


def test_theta_limits():
    assert rs.theta(1.3, math.inf) == 0.0
    assert rs.theta(1.3, 1.0) == pytest.approx(math.atan(2.6))
    assert rs.theta_prime(0.0, 2.0) == pytest.approx(1.0)
