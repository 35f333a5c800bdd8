import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
from dualgas import boxspec as bs
from dualgas.core import BoxPair, ConfigError, alpha_coupling

LAM = 1.0


def model(alpha: float, lam: float = LAM) -> BoxPair:
    return BoxPair(lam, alpha_coupling(alpha, lam))


def u(n, lam):
    return lambda x: math.sqrt(2.0 / lam) * math.sin(n * math.pi * x / lam)


# ---------------------------------------------------------------------------
# basis and operator blocks
# ---------------------------------------------------------------------------


@given(st.integers(1, 12), st.integers(1, 12))
def test_pair_index_round_trip(a, b):
    basis = bs.PairBasis(12)
    p, q = min(a, b), max(a, b)
    i = basis.index_of(p, q)
    ps, qs = basis.labels()
    assert (ps[i], qs[i]) == (p, q)


def test_pair_index_rejects_out_of_range():
    basis = bs.PairBasis(4)
    with pytest.raises(ConfigError):
        basis.index_of(2, 5)
    with pytest.raises(ConfigError):
        basis.index_of(3, 2)
    with pytest.raises(ConfigError):
        bs.PairBasis(4, -1).index_of(2, 2)  # no antisymmetric pair at p = q


@pytest.mark.parametrize("cutoff", [2, 3, 12])
def test_antisymmetric_pairs_are_the_strict_upper_triangle(cutoff):
    basis = bs.PairBasis(cutoff, -1)
    p, q = basis.labels()
    assert basis.dim == p.size == cutoff * (cutoff - 1) // 2
    assert np.all(p < q) and np.all(basis.norms() == 1.0 / np.sqrt(2.0))
    assert [basis.index_of(a, b) for a, b in zip(p, q)] == list(range(basis.dim))
    assert np.concatenate(basis.parity_blocks()).size == basis.dim


def full_contact(ops):
    """v1 on every pair, from the route's block primitive."""
    return bs.contact_block(ops, np.arange(ops["basis"].dim))


def test_contact_block_frozen_elements():
    # lam-independent unit-strength elements; quadrature gives
    # int u1^4 = 3/(2 lam) and int u1^2 u2^2 = 1/lam
    ops = bs.unit_pair_operators(4)
    basis = ops["basis"]
    v1 = full_contact(ops)
    assert v1[basis.index_of(1, 1), basis.index_of(1, 1)] == pytest.approx(1.5)
    assert v1[basis.index_of(1, 2), basis.index_of(1, 2)] == pytest.approx(2.0)
    assert np.allclose(v1, v1.T)


def test_contact_block_matches_quadrature():
    cutoff = 5
    ops = bs.unit_pair_operators(cutoff)
    basis = ops["basis"]
    norms = basis.norms()
    rng = np.random.default_rng(7)
    ps, qs = basis.labels()
    v1 = full_contact(ops)
    for _ in range(8):
        i, j = rng.integers(0, basis.dim, size=2)
        f = u(ps[i], LAM)
        g = u(qs[i], LAM)
        h = u(ps[j], LAM)
        w = u(qs[j], LAM)
        # diagonal slice of the symmetrized pair functions
        val, _ = quad(lambda x: 4.0 * norms[i] * norms[j] * f(x) * g(x) * h(x) * w(x), 0.0, LAM)
        assert v1[i, j] == pytest.approx(LAM * val, abs=1e-12)


def test_chirp_matrix_matches_fresnel_integrals():
    # X[p, q] = g(p - q) - g(p + q); g by Fresnel integrals, apart from the
    # route's Gauss-Legendre rule
    from scipy.special import fresnel

    for a, cutoff in ((1.25, 14), (-2.5, 8), (5.0, 40), (40.0, 20)):
        b = abs(a)
        s = math.sqrt(2.0 * b / math.pi)
        k = np.pi * np.arange(2 * cutoff + 1)
        g = 0.0
        for c in (k / (2.0 * b), -k / (2.0 * b)):
            s1, c1 = fresnel(s * (1.0 + c))
            s0, c0 = fresnel(s * c)
            g = g + 0.5 * np.exp(-1j * b * c * c) * ((c1 - c0) + 1j * (s1 - s0)) / s
        g = g if a > 0 else g.conj()
        n = np.arange(1, cutoff + 1)
        ref = g[np.abs(n[:, None] - n[None, :])] - g[n[:, None] + n[None, :]]
        assert np.abs(bs.chirp_matrix(a, cutoff) - ref).max() <= 1e-13


def test_chirp_matrix_refuses_a_rule_past_its_bound():
    # leggauss would hold an order x order matrix; the bound trips before
    # it is asked for one
    for a, cutoff in ((1e300, 4), (-1e300, 4), (4096.0, 1)):
        with pytest.raises(ConfigError, match="Gauss-Legendre nodes, more than 4096"):
            bs.chirp_matrix(a, cutoff)


def test_pair_chirp_is_the_unitary_lift_of_the_polar_factor():
    x = bs.chirp_matrix(2.5, 10)
    assert np.abs(x.conj().T @ x - np.eye(10)).max() > 0.1  # truncated: not unitary
    u, _, vh = np.linalg.svd(x)
    w = u @ vh
    for sign in (1, -1):
        basis = bs.PairBasis(10, sign)
        x2 = bs.pair_chirp(2.5, basis)
        assert x2.dtype == complex
        assert_bitwise(x2, lift_reference(w, basis, basis))
        assert np.abs(x2.conj().T @ x2 - np.eye(x2.shape[0])).max() <= 1e-13
        assert np.abs(bs.pair_chirp(-2.5, basis) @ x2 - np.eye(x2.shape[0])).max() <= 1e-13
        small = bs.PairBasis(6, sign)
        assert np.abs(bs.pair_chirp(0.0, small) - np.eye(small.dim)).max() <= 1e-14


def delta_sum_reference(p, q, m, n):
    """The eight-delta sum as float temporaries, as v1 was first assembled."""
    return (
        (p - q - m + n == 0).astype(float)
        + (p - q + m - n == 0)
        - (p - q - m - n == 0)
        - (p - q + m + n == 0)
        - (p + q - m + n == 0)
        - (p + q + m - n == 0)
        + (p + q - m - n == 0)
        + (p + q + m + n == 0)
    )


def contact_reference(basis):
    """v1 on every pair from the eight-delta sum."""
    p, q = basis.labels()
    c = basis.norms()
    return 2.0 * c[:, None] * c[None, :] * delta_sum_reference(
        p[:, None], q[:, None], p[None, :], q[None, :]
    )


@pytest.mark.parametrize("cutoff", [*range(1, 26), 60])
def test_contact_matrix_bitwise_equals_float_delta_sum(cutoff):
    ref = contact_reference(bs.PairBasis(cutoff))
    v1 = full_contact(bs.unit_pair_operators(cutoff))
    assert np.array_equal(v1, ref)
    assert np.array_equal(np.signbit(v1), np.signbit(ref))


def test_contact_matrix_build_memory_peak():
    # the factor S is 1.8 MiB at M = 60, where v1 itself would be 25.6 MiB
    # and the float delta sum peaked at 102 MiB
    tracemalloc.start()
    try:
        bs.unit_pair_operators(60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def one_body_dilation(cutoff):
    """d[n, m] = <u_m| lam d/dlam |u_n> = (-1)^(n+m) 2nm/(m^2 - n^2): a real
    antisymmetric one-body matrix, whose pair generator is d (x) 1 + 1 (x) d."""
    n = np.arange(1, cutoff + 1, dtype=float)
    num = 2.0 * n[:, None] * n[None, :] * ((-1.0) ** (n[:, None] + n[None, :]))
    den = n[None, :] ** 2 - n[:, None] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        d = num / den
    np.fill_diagonal(d, 0.0)
    return d


def pair_dilation_reference(cutoff):
    """d2 gathered and multiplied by Kronecker deltas, as it was first assembled."""
    basis = bs.PairBasis(cutoff)
    p, q = basis.labels()
    c = basis.norms()
    d1 = one_body_dilation(cutoff)
    dp_m = d1[p[:, None] - 1, p[None, :] - 1]
    dq_n = d1[q[:, None] - 1, q[None, :] - 1]
    dp_n = d1[p[:, None] - 1, q[None, :] - 1]
    dq_m = d1[q[:, None] - 1, p[None, :] - 1]
    del_pm = (p[:, None] == p[None, :]).astype(float)
    del_qn = (q[:, None] == q[None, :]).astype(float)
    del_pn = (p[:, None] == q[None, :]).astype(float)
    del_qm = (q[:, None] == p[None, :]).astype(float)
    return 2.0 * c[:, None] * c[None, :] * (
        dp_m * del_qn + del_pm * dq_n + dp_n * del_qm + del_pn * dq_m
    )


def lift_reference(x, bra, ket):
    """<(pq)| x (x) x |(mn)> from four gathers of the one-body matrix, the
    exchanged term taken with the bases' sign."""
    p, q = bra.labels()
    m, n = ket.labels()
    s = x[p[:, None] - 1, m[None, :] - 1] * x[q[:, None] - 1, n[None, :] - 1]
    s = s + ket.sign * (x[p[:, None] - 1, n[None, :] - 1] * x[q[:, None] - 1, m[None, :] - 1])
    return 2.0 * bra.norms()[:, None] * ket.norms()[None, :] * s


def pair_embed_reference(lam_i, lam_f, basis_i, basis_f):
    """O2 from four gathers of the one-body overlaps, as it was first assembled."""
    o = bs.embed_overlaps(lam_i, lam_f, basis_i.cutoff, basis_f.cutoff)
    return lift_reference(o, basis_f, basis_i)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@pytest.mark.parametrize("cutoff", range(1, 26))
def test_pair_dilation_bitwise_equals_delta_gathers(cutoff):
    # d2 = d (x) 1 + 1 (x) d is the derivative of the one-matrix lift of
    # 1 + i t d at t = 0.  Each entry of 1 + i d is real or imaginary, so
    # every product's imaginary part is the exact first-order term and the
    # lift's imaginary part is d2 with nothing of (x) d mixed in.  Zeros
    # may differ in sign from the gathers'; every other value is bitwise
    basis = bs.PairBasis(cutoff)
    d2 = bs._pair_lift(np.eye(cutoff) + 1j * one_body_dilation(cutoff), basis, basis).imag
    assert np.array_equal(d2, pair_dilation_reference(cutoff))


@pytest.mark.parametrize(
    "lam_i, lam_f, cutoff_i, cutoff_f",
    [(1.0, 2.0, 12, 24), (1.0, 2.0, 36, 72), (1.0, 1.3, 14, 19), (1.0, 1.0, 7, 7)],
)
def test_pair_embed_overlaps_bitwise_equals_gathers(lam_i, lam_f, cutoff_i, cutoff_f):
    for sign in (1, -1):
        basis_i, basis_f = bs.PairBasis(cutoff_i, sign), bs.PairBasis(cutoff_f, sign)
        assert_bitwise(
            bs.pair_embed_overlaps(lam_i, lam_f, basis_i, basis_f),
            pair_embed_reference(lam_i, lam_f, basis_i, basis_f),
        )


def test_pair_embed_overlaps_memory_peak():
    # O2 itself is 13.4 MiB here; the gathers it was first built from
    # peaked at 40.3 MiB, and the lift must not need more
    basis_i, basis_f = bs.PairBasis(36), bs.PairBasis(72)
    tracemalloc.start()
    try:
        bs.pair_embed_overlaps(1.0, 2.0, basis_i, basis_f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40.5 * 2**20


def parity_odd(basis: bs.PairBasis) -> np.ndarray:
    p, q = basis.labels()
    return (p + q) % 2 == 1


@pytest.mark.parametrize("cutoff", [*range(1, 31), 60])
def test_contact_matrix_vanishes_between_parity_blocks(cutoff):
    ops = bs.unit_pair_operators(cutoff)
    odd = parity_odd(ops["basis"])
    assert np.all(full_contact(ops)[np.ix_(~odd, odd)] == 0.0)


def test_spectra_never_build_the_chirp(monkeypatch):
    calls = []

    def counted(real):
        def call(a, size):  # a cutoff, or a pair basis
            calls.append(getattr(size, "cutoff", size))
            return real(a, size)
        return call

    monkeypatch.setattr(bs, "pair_chirp", counted(bs.pair_chirp))
    monkeypatch.setattr(bs, "chirp_matrix", counted(bs.chirp_matrix))
    sp = bs.diagonalize(model(5.0), 11)
    for i in range(3):
        bs.contact_expectation(sp.state(i))
    assert calls == []
    bs.pair_chirp(1.0, bs.PairBasis(3))  # the counters see a build
    assert calls == [3, 3]


def test_diagonalize_memory_peak_without_dilation_generator():
    # the blocks and eigh need about 4.8 MiB here
    tracemalloc.start()
    try:
        bs.diagonalize(BoxPair(1.0, 1.0), 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_diagonalize_residual_and_order():
    sp = bs.diagonalize(model(5.0), 30)
    assert sp.residual < 1e-12
    assert np.all(np.diff(sp.energies) >= -1e-10)


@pytest.mark.parametrize("cutoff", [1, 2, 11, 30])  # cutoff 1: no odd pair
def test_diagonalize_by_parity_block_matches_full_eigh(cutoff):
    m = model(5.0)
    sp = bs.diagonalize(m, cutoff)
    basis = bs.PairBasis(cutoff)
    p, q = basis.labels()
    H = (m.coupling / m.length) * contact_reference(basis)
    H[np.diag_indices_from(H)] += m.hbar**2 * np.pi**2 * (p**2 + q**2) / m.length**2
    full = scipy.linalg.eigh(H, eigvals_only=True)
    assert np.all(np.diff(sp.energies) >= 0.0)
    assert np.abs(sp.energies - full).max() <= 1e-12 * np.abs(full).max()
    eye = np.eye(sp.basis.dim)
    V = oracles.dense_vectors(sp)
    assert np.abs(V.T @ V - eye).max() < 1e-12
    odd = parity_odd(sp.basis)
    on_odd = np.any(V[odd] != 0.0, axis=0)
    on_even = np.any(V[~odd] != 0.0, axis=0)
    parity = oracles.level_parity(sp)
    assert np.array_equal(on_odd, parity == 1)  # each eigenvector in its block
    assert np.array_equal(on_even, parity == 0)
    assert sp.residual < 1e-12


def test_diagonalize_forms_no_dense_hamiltonian():
    # warm, at M = 40: the blocks and their eigenvectors take about 4.8
    # MiB; one eigh of a dense H, with its copy, took about 16
    m = model(5.0)
    bs.diagonalize(m, 40)
    tracemalloc.start()
    try:
        bs.diagonalize(m, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_diagonalize_keeps_no_contact_matrix_across_cutoffs():
    # one process, as `convergence` runs: 22.4 MiB, set by the M = 60 call;
    # a cache of the dense v1 per cutoff took it to 69.8 MiB
    tracemalloc.start()
    try:
        for cutoff in (20, 40, 60):
            bs.diagonalize(BoxPair(1.0, 1.0), cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_diagonalize_keeps_eigenvectors_per_block():
    # warm, at M = 60 (dim 1830): 22.4 MiB peak and 12.8 MiB kept, the two
    # blocks' eigenvectors; a dense dim x dim matrix of them, half zeros,
    # took 40.6 and 25.6
    m = BoxPair(1.0, 10.0)
    bs.diagonalize(m, 60)
    tracemalloc.start()
    try:
        sp = bs.diagonalize(m, 60)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20 and kept < 16 * 2**20

    def arrays(x):
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (list, tuple)):
            for y in x:
                yield from arrays(y)

    # energies, then each block's pairs, vectors and levels
    sizes = [a.size for a in arrays(list(vars(sp).values()))]
    assert len(sizes) == 7 and max(sizes) < sp.basis.dim**2


@pytest.mark.parametrize("cutoff", [8, 20, 40])
@pytest.mark.parametrize("coupling", [0.0, 0.1, 1.0, 10.0, 1e3, math.inf])
def test_block_levels_match_diagonalize_levels(cutoff, coupling):
    # eigvalsh's levels against the eigh levels of the full spectrum, and
    # the same parity block for each; the worst seen is 4.7e-15 relative.
    # Without contact both are the sorted kinetic diagonal, bit for bit
    m = BoxPair(1.0, coupling)
    levels, rows = bs.block_levels(m, cutoff)
    sp = bs.diagonalize(m, cutoff)
    assert all(np.array_equal(r, b[2]) for r, b in zip(rows, sp.blocks, strict=True))
    if coupling in (0.0, math.inf):
        assert np.array_equal(levels, sp.energies)
    else:
        assert np.abs(levels - sp.energies).max() <= 1e-13 * np.abs(sp.energies).max()


@pytest.mark.parametrize("coupling", [0.0, 1.0])
@pytest.mark.parametrize("lam, hbar", [(1e-160, 1.0), (1.0, 1e200)])
def test_block_levels_refuse_a_kinetic_scale_out_of_range(lam, hbar, coupling):
    # without contact no few-level solve runs first to check the scale
    with pytest.raises(ConfigError, match=re.escape(f"lambda = {lam:g}, hbar = {hbar:g}, cutoff 6")):
        bs.block_levels(BoxPair(lam, coupling, hbar), 6)


@pytest.mark.parametrize("alpha", [0.0, 5.0, 50.0, 1e3, math.inf])
@pytest.mark.parametrize("cutoff", [2, 3, 12, 40, 60])
def test_few_levels_are_the_lowest_of_the_full_spectrum(alpha, cutoff):
    # blocks past the Krylov cap (M = 40 and 60 at g > 0) take the
    # shift-invert path; smaller ones and g = 0 take eigh
    full = bs.diagonalize(model(alpha), cutoff)
    V = oracles.dense_vectors(full)
    e = full.energies
    # a level with its degenerate partners, which span its eigenspace
    group = np.cumsum(np.r_[True, np.diff(e) > 1e-10 * e[1:]])
    for k in (1, 6, 10):
        sp = bs.diagonalize(model(alpha), cutoff, n_levels=k)
        n = min(k, len(full))
        assert len(sp) == n
        with pytest.raises(ConfigError, match=f"outside the {n} levels"):
            sp.state(n)
        assert np.abs(sp.energies - e[:n]).max() <= 1e-12 * e[n - 1]
        X = oracles.dense_vectors(sp)
        for gid in np.unique(group[:n]):
            Vg = V[:, group == gid]
            Xg = X[:, group[:n] == gid]
            # |<v_k|v_all>| = 1, or the projector for a degenerate level
            assert np.abs(Xg.T @ Vg @ Vg.T @ Xg - np.eye(Xg.shape[1])).max() <= 1e-10
        assert np.abs(X.T @ X - np.eye(n)).max() <= 1e-12
        again = bs.diagonalize(model(alpha), cutoff, n_levels=k)
        assert np.array_equal(again.energies, sp.energies)
        assert all(np.array_equal(x, y) for (_, x, _), (_, y, _) in zip(sp.blocks, again.blocks))
        assert sp.residual <= 1e-12


@pytest.mark.parametrize("alpha", [1e4, 1e6])
def test_few_levels_at_strong_coupling_stop_at_the_rounding_of_h(monkeypatch, alpha):
    # 1e-13 theta_k is out of reach here, eigh's residual included; the
    # solve stops at the rounding of H x instead of exhausting its basis
    # and raising LinAlgError
    solved = []
    krylov = bs._krylov_lowest

    def spy(*args):
        solved.append(krylov(*args))
        return solved[-1]

    monkeypatch.setattr(bs, "_krylov_lowest", spy)
    full = bs.diagonalize(model(alpha), 60)
    sp = bs.diagonalize(model(alpha), 60, n_levels=10)
    assert len(solved) == 2  # a solve that gives up raises
    e = full.energies[:10]
    assert np.abs(sp.energies - e).max() <= 10.0 * full.residual * e[-1]
    assert sp.residual <= full.residual
    X, V = oracles.dense_vectors(sp), oracles.dense_vectors(full)[:, :10]
    assert np.abs(np.abs(np.sum(X * V, axis=0)) - 1.0).max() <= 1e-10


def test_few_levels_raise_when_the_krylov_solve_reaches_its_cap(monkeypatch):
    # one step never reaches Rayleigh-Ritz, which runs every other step
    monkeypatch.setattr(bs, "_KRYLOV_STEPS", 1)
    with pytest.raises(np.linalg.LinAlgError,
                       match="Krylov solve of the 2 lowest levels did not converge in 1 steps"):
        bs.diagonalize(model(5.0), 60, n_levels=2)


def test_few_levels_raise_when_the_krylov_basis_stops_growing():
    # the first step spans all 3 pairs, so the second finds nothing new
    ops = bs.unit_pair_operators(2)
    b = np.arange(3)
    with pytest.raises(np.linalg.LinAlgError, match="basis stopped growing at step 2"):
        bs._krylov_lowest(ops["k1"], bs._contact_factor(ops, b), 1.0, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_few_levels_raise_when_the_contact_overflows_the_kinetic_units():
    ops = bs.unit_pair_operators(2)
    F = bs._contact_factor(ops, np.arange(3))
    with pytest.raises(np.linalg.LinAlgError,
                       match=re.escape("contact overflows in units of min(kin) = 1e-300")):
        bs._krylov_lowest(np.full(3, 1e-300), F, 1e300, 1)


def test_few_levels_raise_when_the_cholesky_factorization_fails(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(np.linalg.LinAlgError,
                       match="Cholesky factorization failed: Matrix is not positive definite"):
        bs.diagonalize(model(5.0), 60, n_levels=2)


def test_few_levels_reject_a_count_below_one():
    with pytest.raises(ConfigError, match="n_levels must be >= 1, got 0"):
        bs.diagonalize(model(5.0), 4, n_levels=0)


def test_few_levels_memory_peaks():
    # M = 60, ten levels: 22.4 MiB with both dense blocks and their eigh,
    # 6.1 by shift-invert Krylov while it kept F D^-1 and |F| through the
    # solve, about 5.7 without them
    m = model(5.0)
    bs.diagonalize(m, 60, n_levels=10)
    tracemalloc.start()
    try:
        bs.diagonalize(m, 60, n_levels=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.9 * 2**20
    # the sign-mapped transform at M = 40 on the default grids: 17.4 MiB
    # with the whole 481 x 513 phase tables, 4.3 in k-slabs over the
    # n_x x n_x kernel, about 1.9 by tile sums
    state = bs.diagonalize(m, 40, n_levels=2).state(1, "fermion")
    bs.momentum_density(state)
    tracemalloc.start()
    try:
        bs.momentum_density(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("lam, hbar", [(1e-160, 1.0), (1e300, 1.0), (1.0, 1e-200), (1.0, 1e200)])
def test_kinetic_scale_out_of_range_is_a_config_error(lam, hbar):
    # lambda^2 subnormal or overflowed, hbar^2 gone to 0 or inf: the levels
    # came out nan or an OverflowError named no input
    with pytest.raises(ConfigError, match=re.escape(f"lambda = {lam:g}, hbar = {hbar:g}, cutoff 6")):
        bs.diagonalize(BoxPair(lam, 1.0, hbar), 6)


def test_contact_scale_out_of_range_is_a_config_error():
    # C / lambda = inf made every level nan
    with pytest.raises(ConfigError, match=re.escape("C = 1e+300, lambda = 1e-150")):
        bs.diagonalize(BoxPair(1e-150, 1e300), 6)


@pytest.mark.parametrize("lam, hbar", [(1e-150, 1.0), (1e150, 1.0), (1.0, 1e-150)])
def test_few_levels_at_any_kinetic_scale(lam, hbar):
    # the solver works in units of the least kinetic entry: in absolute
    # units its shift-inverse under- or overflowed
    m = BoxPair(lam, alpha_coupling(5.0, lam, hbar), hbar)
    full = bs.diagonalize(m, 40).energies[:6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = bs.diagonalize(m, 40, n_levels=6)
    assert np.abs(sp.energies - full).max() <= 1e-12 * full[-1]


def test_weak_coupling_first_order_shift():
    # E0(C) = 2 pi^2 + C * <delta>_0 + O(C^2) with <delta>_0 = 3/(2 lam)
    C = 1e-4
    sp = bs.diagonalize(BoxPair(LAM, C), 30)
    assert sp.energies[0] - 2.0 * np.pi**2 == pytest.approx(1.5 * C / LAM, rel=1e-4)


def test_strong_coupling_approaches_free_fermions():
    sp = bs.diagonalize(BoxPair(LAM, 1e3), 50)
    ff = bs.diagonalize(BoxPair(LAM, math.inf), 12)
    rel = np.abs(sp.energies[:4] - ff.energies[:4]) / ff.energies[:4]
    assert rel.max() < 1e-3


def test_hard_core_model_rejected_by_galerkin():
    # at cutoff 1, which has no antisymmetric pair
    with pytest.raises(ConfigError, match="cutoff >= 2, got 1"):
        bs.diagonalize(BoxPair(LAM, math.inf), 1)


def test_free_fermion_spectrum_values():
    # the hard-core pair's levels are the free-fermion ones, hbar^2 pi^2
    # (p^2 + q^2) / lam^2 over p < q, each on one antisymmetric pair
    sp = bs.diagonalize(BoxPair(2.0, math.inf), 6)
    assert sp.energies[0] == pytest.approx(np.pi**2 * 5.0 / 4.0)
    assert len(sp) == 15 and sp.residual == 0.0
    p, q = sp.basis.labels()
    V = oracles.dense_vectors(sp)
    top = np.abs(V).argmax(axis=0)
    assert (p[top[0]], q[top[0]]) == (1, 2)
    assert np.all(np.abs(V).max(axis=0) == 1.0)
    assert np.array_equal(sp.energies, np.sort(np.pi**2 * (p**2 + q**2) / 4.0)[:15])


def test_states_and_grids_out_of_range_are_config_errors():
    sp = bs.diagonalize(model(1.0), 2)  # three pair levels
    for index in (-1, 3):
        with pytest.raises(ConfigError, match="outside the 3 levels"):
            sp.state(index)
    with pytest.raises(ConfigError, match="n_grid"):
        bs.spatial_density(sp.state(0), n_grid=1)
    for n_k, n_x in ((1, 9), (9, 1), (9, 0)):
        with pytest.raises(ConfigError, match="n_k and n_x"):
            bs.momentum_density(sp.state(0, "fermion"), n_k=n_k, n_x=n_x)


def test_hard_core_contact_expectation_is_exactly_zero():
    # the antisymmetric pairs vanish at coincidence: their factor is zero
    sp = bs.diagonalize(BoxPair(1.3, math.inf), 12)
    assert all(bs.contact_expectation(sp.state(i)) == 0.0 for i in range(len(sp)))


def test_contact_expectation_positive_and_decreasing_in_alpha():
    vals = []
    for alpha in (0.5, 5.0, 50.0):
        sp = bs.diagonalize(model(alpha), 40)
        vals.append(bs.contact_expectation(sp.state(0)))
    assert all(v > 0 for v in vals)
    # stronger repulsion suppresses the pair amplitude at coincidence
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("coupling, cutoff", [(0.5, 20), (10.0, 30), (200.0, 40)])
def test_contact_expectation_is_the_level_slope(coupling, cutoff):
    # Hellmann-Feynman on the Galerkin matrix: dE_n/dC = <delta>_n exactly,
    # so a central difference of the levels ties the factor's form, and its
    # weight w_0 = 2, to the blocks diagonalize solves, with no dense
    # reference (it agrees to about 1e-8)
    lam, h = 1.3, 1e-4 * coupling

    def levels(c):
        return bs.diagonalize(BoxPair(lam, c), cutoff).energies[:8]

    slope = (levels(coupling + h) - levels(coupling - h)) / (2.0 * h)
    sp = bs.diagonalize(BoxPair(lam, coupling), cutoff)
    delta = np.array([bs.contact_expectation(sp.state(i)) for i in range(8)])
    assert np.abs(slope / delta - 1.0).max() <= 1e-6


def test_cusp_residual_decreases_with_cutoff():
    res = []
    for m in (12, 24, 48):
        sp = bs.diagonalize(model(5.0), m)
        res.append(float(bs.cusp_check(sp.state(0)).max()))
    assert res[0] > res[1] > res[2]


# ---------------------------------------------------------------------------
# densities and the statistical dual
# ---------------------------------------------------------------------------


def test_spatial_density_identical_for_dual_pair():
    for m in (model(5.0), BoxPair(LAM, math.inf)):  # and the hard-core pair
        sp = bs.diagonalize(m, 30)
        rb = bs.spatial_density(sp.state(0))
        rf = bs.spatial_density(sp.state(0, "fermion"))
        # |psi|^2 is blind to the sign map, bit for bit
        assert np.array_equal(rb.values, rf.values)
        assert rb.mass == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("alpha", [5.0, math.inf])
@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_spatial_density_is_the_square_of_the_sign_mapped_amplitude(alpha, statistics):
    # the sign map squares away, so one psi^2 serves both statistics: the
    # dual's density is that of sign(x2 - x1) psi.  The trapezoid rule on
    # 65 nodes is exact for cutoff 12, so the closed form meets it at roundoff
    state = bs.diagonalize(model(alpha), 12).state(1, statistics)
    got = bs.spatial_density(state, n_grid=65)
    x = np.linspace(0.0, LAM, 65)
    psi = oracles.sign_mapped_amplitude(state, x)
    want = 2.0 * np.trapezoid(psi * psi, x, axis=1)
    np.testing.assert_allclose(got.values, want, rtol=0.0, atol=1e-14)
    assert got.mass == pytest.approx(float(np.trapezoid(want, x)), abs=1e-14)


def test_spatial_density_exact_on_a_grid_coarser_than_the_cutoff():
    # the partner integral is closed form: on 9 nodes at cutoff 16 the
    # trapezoid rule was off by 1.2e-2 at a node
    state = bs.diagonalize(model(5.0), 16).state(0)
    coarse = bs.spatial_density(state, 9).values
    np.testing.assert_allclose(coarse, bs.spatial_density(state, 257).values[::32],
                               rtol=0.0, atol=1e-13)


def test_momentum_density_distinguishes_statistics():
    sp = bs.diagonalize(model(5.0), 30)
    g = sp.state(0)
    nb = bs.momentum_density(g, n_k=321, n_x=385)
    nf = bs.momentum_density(sp.state(0, "fermion"), n_k=321, n_x=385)
    assert nb.metadata["contact_tail"] == 0.0  # no jump in the basis's symmetry
    for d in (nb, nf):
        assert np.allclose(d.values, d.values[::-1], atol=1e-12)  # n(k) even
        assert abs(d.mass - 2.0) < 0.02
        assert np.all(d.values >= -1e-15)
    assert bs.l1_distance(nb, nf) > 0.1
    # bosons pile up at k = 0
    mid = nb.values.size // 2
    assert nb.values[mid] > 2.0 * nf.values[mid]


def test_hard_core_fermion_momentum_density_is_the_free_fermion_sum():
    # the ground pair occupies modes 1 and 2: n(k) = (|f_1|^2 + |f_2|^2) / 2 pi
    sp = bs.diagonalize(BoxPair(LAM, math.inf), 10)
    nf = bs.momentum_density(sp.state(0, "fermion"), n_k=161)
    f = bs.box_mode_ft(nf.axis, LAM, 2)
    assert nf.metadata["method"] == "parseval"
    assert np.abs(nf.values - (np.abs(f) ** 2).sum(axis=1) / (2.0 * np.pi)).max() <= 1e-14


@pytest.mark.parametrize("n_k", [41, 65])
@pytest.mark.parametrize("n_x", [2, 63, 64, 65, 129])
@pytest.mark.parametrize("coupling, statistics", [(5.0, "fermion"), (math.inf, "boson")])
def test_sign_mapped_momentum_density_is_the_transform_of_the_amplitude(coupling, statistics,
                                                                         n_x, n_k):
    # the trapezoid rule over x1 of e^{-ikx1} times the sign-mapped
    # amplitude, with the sign map taken as 0 on the diagonal (the mean of
    # its sides) and the rule's leading error on the jump, (ik h^2 / 6)
    # psi(x2, x2) e^{-ikx2}, put back; then the partner x2 by Parseval on
    # the same nodes.  The grids put x2 tile and k slab edges (64 each)
    # below, on and past the last node, and one slab past its first.
    sp = bs.diagonalize(BoxPair(LAM, coupling), 8)
    state = sp.state(1, statistics)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = bs.momentum_density(state, n_k=n_k, n_x=n_x)
    assert got.metadata["method"] == "grid-parseval"
    x = np.linspace(0.0, LAM, n_x)
    h = x[1] - x[0]
    w = np.full(n_x, h)
    w[0] = w[-1] = 0.5 * h
    E = np.exp(-1j * np.outer(got.axis, x))
    psi = oracles.sign_mapped_amplitude(state, x)  # sign +1 on the diagonal
    jump = (1j * h * h / 6.0) * np.outer(got.axis, np.diag(psi)) * E
    psi[np.diag_indices(n_x)] = 0.0
    G = E @ (w[:, None] * psi) + jump
    want = (np.abs(G) ** 2) @ w / np.pi
    assert np.abs(got.values - want).max() <= 1e-12 * want.max()


def test_sign_mapped_momentum_density_memory_peak():
    # the x1 sum is carried along x2 as sums over 64-node tiles, so no
    # n_x x n_x array (8.02 MiB) is formed: about 3.0 MiB here, where the
    # amplitude and the signed kernel on the n_x x n_x grid peaked at 16.3
    state = bs.diagonalize(model(5.0), 16, 2).state(0, "fermion")
    n_x = 1025
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        bs.momentum_density(state, n_x=n_x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < n_x * n_x * 8


@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_sign_mapped_momentum_density_matches_the_exact_partner_integral(alpha):
    # the partner is summed on the x grid, not over the k window: against
    # x1 in closed form on each side of x2 and x2 by Gauss-Legendre, the
    # default grids are off by about 1e-6 (a partner integral over the
    # window was off by 5e-5 to 1.2e-4).  The default k grid steps by
    # pi / 8 and so hits the oracle's removable points k = n pi / lam.
    sp = bs.diagonalize(model(alpha), 20)
    for i in (0, 1):
        state = sp.state(i, "fermion")
        got = bs.momentum_density(state)
        assert np.isclose(got.axis, np.pi).any()
        exact = oracles.sign_mapped_momentum(state, got.axis)
        assert np.abs(got.values - exact).max() <= 4e-6


@pytest.mark.parametrize("cutoff", [20, 40])
@pytest.mark.parametrize("alpha", [1.0, 5.0, 20.0])
def test_sign_mapped_momentum_tail_is_the_contact(alpha, cutoff):
    # the dual fermions' amplitude jumps by 2 psi(x, x) at coincidence, so
    # n_F(k) -> 4<delta>/(pi k^2) and the window |k| <= K misses
    # 8<delta>/(pi K) of the mass (Olshanii & Dunjko, PRL 91, 090401
    # (2003); Sekino, Tan & Nishida, PRA 97, 013621 (2018)).  With the
    # levels' slope test above, this ties momentum, contact and spectrum.
    sp = bs.diagonalize(model(alpha), cutoff)
    for i in range(4):
        state = sp.state(i, "fermion")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the tail explains the loss
            got = bs.momentum_density(state)
        contact = bs.contact_expectation(state)
        k = got.metadata["k_max"]
        assert got.metadata["contact_tail"] == pytest.approx(8.0 * contact / (math.pi * k), rel=1e-14)
        assert abs(got.mass + got.metadata["contact_tail"] - 2.0) <= 1e-3
        assert 0.9 <= k * k * got.values[-1] * math.pi / (4.0 * contact) <= 1.1


def test_momentum_window_warns_only_beyond_the_contact_tail():
    # at cutoff 4 the default window (6 pi / lam) is too narrow for the
    # fourth dual fermion level even after its tail is counted
    sp = bs.diagonalize(model(5.0), 4)
    with pytest.warns(RuntimeWarning, match="contact tail beyond it"):
        got = bs.momentum_density(sp.state(3, "fermion"))
    assert abs(got.mass + got.metadata["contact_tail"] - 2.0) > 0.02
    for k_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="k_max"):
            bs.momentum_density(sp.state(0, "fermion"), k_max=k_max)


def test_l1_distance_requires_shared_axis():
    sp = bs.diagonalize(model(5.0), 12)
    a = bs.spatial_density(sp.state(0), n_grid=65)
    b = bs.spatial_density(sp.state(0), n_grid=129)
    with pytest.raises(ConfigError):
        bs.l1_distance(a, b)


# ---------------------------------------------------------------------------
# box embeddings
# ---------------------------------------------------------------------------


def test_embedding_identity_at_equal_boxes():
    o = bs.embed_overlaps(1.0, 1.0, 8, 8)
    assert np.allclose(o, np.eye(8), atol=1e-12)
    basis = bs.PairBasis(5)
    P = bs.pair_embed_overlaps(1.0, 1.0, basis, basis)
    assert np.allclose(P, np.eye(basis.dim), atol=1e-12)


def test_embedding_rejects_compression():
    with pytest.raises(ConfigError):
        bs.embed_overlaps(2.0, 1.0, 4, 4)


def test_embedding_columns_complete():
    # each small-box mode is fully resolved by enough big-box modes
    o = bs.embed_overlaps(1.0, 2.0, 6, 400)
    norms = (o**2).sum(axis=0)
    assert np.all(norms <= 1.0 + 1e-12)
    assert np.all(norms > 0.9999)
