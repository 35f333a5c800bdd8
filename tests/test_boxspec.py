import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from dualgas import boxspec as bs
from dualgas.core import Box, ConfigError, DimensionlessCoupling, ModelSpec

LAM = 1.0


def model(alpha: float, lam: float = LAM) -> ModelSpec:
    return ModelSpec(2, Box(lam), DimensionlessCoupling(alpha).coupling(lam))


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


def test_contact_block_frozen_elements():
    # lam-independent unit-strength elements; quadrature gives
    # int u1^4 = 3/(2 lam) and int u1^2 u2^2 = 1/lam
    ops = bs.unit_pair_operators(4)
    basis = ops["basis"]
    v1 = ops["v1"]
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
    for _ in range(8):
        i, j = rng.integers(0, basis.dim, size=2)
        f = u(ps[i], LAM)
        g = u(qs[i], LAM)
        h = u(ps[j], LAM)
        w = u(qs[j], LAM)
        # diagonal slice of the symmetrized pair functions
        val, _ = quad(lambda x: 4.0 * norms[i] * norms[j] * f(x) * g(x) * h(x) * w(x), 0.0, LAM)
        assert ops["v1"][i, j] == pytest.approx(LAM * val, abs=1e-12)


def test_dilation_matrix_antisymmetric_and_matches_quadrature():
    d = bs.dilation_matrix(6)
    assert np.allclose(d, -d.T)
    assert d[0, 1] == pytest.approx(-4.0 / 3.0)
    # oracle: d[n, m] = <u_m | lam d/dlam u_n> via central difference in lam
    lam, eps = 1.0, 1e-6
    for n, m in ((1, 2), (2, 5), (3, 4)):
        def integrand(x):
            bra = u(m, lam)(x)
            dn = (u(n, lam + eps)(x) - u(n, lam - eps)(x)) / (2.0 * eps)
            return bra * dn
        val, _ = quad(integrand, 0.0, lam, limit=200)
        assert d[n - 1, m - 1] == pytest.approx(lam * val, abs=1e-6)


def test_pair_dilation_antisymmetric():
    d2 = bs.pair_dilation(8)
    assert np.allclose(d2, -d2.T, atol=1e-13)


def test_pair_operators_built_once_per_cutoff_and_read_only():
    a, b = bs.unit_pair_operators(7), bs.unit_pair_operators(7)
    assert a is not b
    assert a["basis"] == bs.PairBasis(7)
    for key in ("k1", "v1"):
        assert a[key] is b[key]
        with pytest.raises(ValueError):
            a[key][0] = 1.0
    d2 = bs.pair_dilation(7)
    assert bs.pair_dilation(7) is d2
    with pytest.raises(ValueError):
        d2[0, 1] = 1.0
    # rebinding a key of the returned dict leaves the cache alone
    a["v1"] = np.zeros_like(a["v1"])
    assert bs.unit_pair_operators(7)["v1"] is b["v1"]


def test_build_hamiltonian_leaves_cached_contact_matrix_unchanged():
    v1 = bs.unit_pair_operators(9)["v1"].copy()
    h_weak = bs.build_hamiltonian(model(0.5), 9)
    h_strong = bs.build_hamiltonian(model(50.0), 9)
    assert np.array_equal(bs.unit_pair_operators(9)["v1"], v1)
    assert np.array_equal(bs.build_hamiltonian(model(0.5), 9), h_weak)
    assert not np.array_equal(h_weak, h_strong)


def test_spectra_never_build_the_dilation_generator(monkeypatch):
    calls = []

    def counted(real):
        def call(cutoff):
            calls.append(cutoff)
            return real(cutoff)
        return call

    monkeypatch.setattr(bs, "pair_dilation", counted(bs.pair_dilation))
    monkeypatch.setattr(bs, "_pair_dilation", counted(bs._pair_dilation))
    sp = bs.diagonalize(model(5.0), 11)
    for i in range(3):
        bs.contact_expectation(sp.state(i))
    assert calls == []
    bs.pair_dilation(3)  # the counters see a build
    assert calls == [3, 3]


def test_diagonalize_memory_peak_without_dilation_generator():
    # v1 and eigh need about 21 MiB here; building d2 as well needs about 62
    bs._pair_operators.cache_clear()
    tracemalloc.start()
    try:
        bs.diagonalize(ModelSpec(2, Box(1.0), 1.0), 40)
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


def test_weak_coupling_first_order_shift():
    # E0(C) = 2 pi^2 + C * <delta>_0 + O(C^2) with <delta>_0 = 3/(2 lam)
    C = 1e-4
    sp = bs.diagonalize(ModelSpec(2, Box(LAM), C), 30)
    assert sp.energies[0] - 2.0 * np.pi**2 == pytest.approx(1.5 * C / LAM, rel=1e-4)


def test_strong_coupling_approaches_free_fermions():
    sp = bs.diagonalize(ModelSpec(2, Box(LAM), 1e3), 50)
    ff = bs.free_fermion_box_spectrum(LAM, 12)
    rel = np.abs(sp.energies[:4] - ff.energies[:4]) / ff.energies[:4]
    assert rel.max() < 1e-3


def test_hard_core_model_rejected_by_galerkin():
    with pytest.raises(ConfigError):
        bs.build_hamiltonian(ModelSpec(2, Box(LAM), math.inf), 10)


def test_free_fermion_spectrum_values():
    ff = bs.free_fermion_box_spectrum(2.0, 6, hbar=1.0)
    assert ff.energies[0] == pytest.approx(np.pi**2 * 5.0 / 4.0)
    assert np.array_equal(ff.modes[0], [1, 2])
    assert len(ff) == 15


def test_contact_expectation_positive_and_decreasing_in_alpha():
    vals = []
    for alpha in (0.5, 5.0, 50.0):
        sp = bs.diagonalize(model(alpha), 40)
        vals.append(bs.contact_expectation(sp.state(0)))
    assert all(v > 0 for v in vals)
    # stronger repulsion suppresses the pair amplitude at coincidence
    assert vals[0] > vals[1] > vals[2]


def test_cusp_residual_decreases_with_cutoff():
    res = []
    for m in (12, 24, 48):
        sp = bs.diagonalize(model(5.0), m)
        res.append(float(bs.cusp_check(sp.state(0))["residual"].max()))
    assert res[0] > res[1] > res[2]


# ---------------------------------------------------------------------------
# densities and the statistical dual
# ---------------------------------------------------------------------------


def test_spatial_density_identical_for_dual_pair():
    sp = bs.diagonalize(model(5.0), 30)
    g = sp.state(0)
    rb = bs.spatial_density(g)
    rf = bs.spatial_density(bs.fermionize(g))
    # |psi|^2 is blind to the sign map, bit for bit
    assert np.array_equal(rb.values, rf.values)
    assert rb.mass == pytest.approx(2.0, abs=1e-10)


def test_momentum_density_distinguishes_statistics():
    sp = bs.diagonalize(model(5.0), 30)
    g = sp.state(0)
    nb = bs.momentum_density(g, n_k=321, n_x=385)
    nf = bs.momentum_density(bs.fermionize(g), n_k=321, n_x=385)
    for d in (nb, nf):
        assert np.allclose(d.values, d.values[::-1], atol=1e-12)  # n(k) even
        assert abs(d.mass - 2.0) < 0.02
        assert np.all(d.values >= -1e-15)
    assert bs.l1_distance(nb, nf) > 0.1
    # bosons pile up at k = 0
    mid = nb.values.size // 2
    assert nb.values[mid] > 2.0 * nf.values[mid]


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
