import numpy as np
import pytest
from scipy import stats

from clusternull.beamforming import nulling_basis, zf_null_beamformer
from clusternull.channel import complex_gaussian
from clusternull.errors import RankDeficientError


def unit_rows(rng, n, n_t):
    g = complex_gaussian(rng, n, n_t)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def test_zf_already_orthogonal():
    f = zf_null_beamformer(np.array([1.0, 0.0]),
                           nulling_basis(np.array([[0.0, 1.0]])))
    assert np.allclose(f, [1.0, 0.0])


def test_zf_empty_constraint_set():
    h = np.array([0.6, 0.8j])
    f = zf_null_beamformer(h, nulling_basis(np.zeros((0, 2))))
    assert abs(abs(h.conj() @ f) - 1.0) < 1e-12
    assert f[0].imag == pytest.approx(0.0, abs=1e-15)  # phase convention


def test_zf_orthogonality_and_norm():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_t = int(rng.integers(2, 9))
        n = int(rng.integers(1, n_t))
        g = unit_rows(rng, n, n_t)
        h = complex_gaussian(rng, n_t)
        f = zf_null_beamformer(h / np.linalg.norm(h), nulling_basis(g))
        assert np.all(np.abs(g.conj() @ f) < 1e-10)
        assert abs(np.linalg.norm(f) - 1.0) < 1e-12


def test_zf_maximizes_projection():
    # among unit vectors in the null space, f attains ||P h||
    rng = np.random.default_rng(1)
    n_t, n = 6, 3
    g = unit_rows(rng, n, n_t)
    h = complex_gaussian(rng, n_t)
    h /= np.linalg.norm(h)
    f = zf_null_beamformer(h, nulling_basis(g))
    q, _ = np.linalg.qr(g.T)
    p_h = h - q @ (q.conj().T @ h)
    assert abs(abs(h.conj() @ f) - np.linalg.norm(p_h)) < 1e-12
    # random competitors in the null space never beat it
    for _ in range(50):
        w = complex_gaussian(rng, n_t)
        w = w - q @ (q.conj().T @ w)
        w /= np.linalg.norm(w)
        assert abs(h.conj() @ w) <= abs(h.conj() @ f) + 1e-12


def test_zf_permutation_invariant():
    rng = np.random.default_rng(2)
    g = unit_rows(rng, 4, 8)
    h = complex_gaussian(rng, 8)
    f1 = zf_null_beamformer(h, nulling_basis(g))
    f2 = zf_null_beamformer(h, nulling_basis(g[::-1]))
    assert np.allclose(f1, f2, atol=1e-12)


def test_zf_rank_deficient():
    g = np.array([[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]], dtype=complex)
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    with pytest.raises(RankDeficientError):
        nulling_basis(g)
    with pytest.raises(RankDeficientError):
        nulling_basis(unit_rows(np.random.default_rng(0), 3, 3))
    # a desired direction inside the nulled span has nothing left to send
    g = unit_rows(np.random.default_rng(1), 2, 4)
    with pytest.raises(RankDeficientError):
        zf_null_beamformer(g[0], nulling_basis(g))


def test_effective_channel_gamma_law():
    # |h* f|^2 ~ Gamma(n_t - n, 1) with h ~ CN(0, I) and isotropic constraints
    rng = np.random.default_rng(4)
    n_t, n, trials = 6, 2, 100_000
    g = complex_gaussian(rng, trials, n, n_t)
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    h = complex_gaussian(rng, trials, n_t)
    q, _ = np.linalg.qr(np.transpose(g, (0, 2, 1)))
    proj = h - np.einsum("tij,tj->ti", q, np.einsum("tij,ti->tj", q.conj(), h))
    power = np.linalg.norm(proj, axis=1) ** 2
    d, _ = stats.kstest(power, "gamma", args=(n_t - n,))
    assert d < 0.01


def test_mrt_power_gamma_law():
    rng = np.random.default_rng(5)
    h = complex_gaussian(rng, 100_000, 6)
    power = np.linalg.norm(h, axis=1) ** 2
    d, _ = stats.kstest(power, "gamma", args=(6,))
    assert d < 0.01
