import numpy as np
import pytest

from rpca.linalg import gram_spectrum, svd


def test_svd_identity():
    f = svd(np.eye(3))
    assert f.singulars == pytest.approx([1.0, 1.0, 1.0])


def test_svd_diagonal():
    f = svd(np.diag([3.0, 2.0]))
    assert f.singulars == pytest.approx([3.0, 2.0])


def test_svd_reconstruction_residual():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 3))
    f = svd(m)
    err = np.linalg.norm((f.u * f.singulars) @ f.vt - m) / np.linalg.norm(m)
    assert err <= 1e-10


def test_svd_factor_invariants():
    rng = np.random.default_rng(2)
    for shape in [(5, 4), (4, 5), (6, 6), (1, 3)]:
        m = rng.standard_normal(shape)
        u, s, vt = svd(m)
        k = min(shape)
        assert u.shape == (shape[0], k) and vt.shape == (k, shape[1]) and s.shape == (k,)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-8
        assert np.abs(vt @ vt.T - np.eye(k)).max() <= 1e-8


def test_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 4))
    f1 = svd(m)
    f2 = svd(m)
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.vt, f2.vt)
    for j in range(f1.u.shape[1]):
        col = f1.u[:, j]
        nz = np.nonzero(col)[0]
        if nz.size:
            assert col[nz[0]] >= 0


def test_svd_sign_fix_with_leading_zero_entries():
    # every left singular vector of this scaled permutation starts with
    # exact zeros, and two of them lead with a negative entry
    m = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -3.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 4.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
    ])
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    assert (u[0] == 0.0).all()
    for j in range(u.shape[1]):  # the per-column rule, as a reference
        nz = np.nonzero(u[:, j])[0]
        if nz.size and u[nz[0], j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    f = svd(m)
    assert np.array_equal(f.u, u) and np.array_equal(f.singulars, s) and np.array_equal(f.vt, vt)
    assert (f.u >= 0.0).all()


def test_gram_spectrum_matches_svd():
    rng = np.random.default_rng(9)
    for shape in [(7, 4), (4, 7), (5, 5), (0, 3)]:
        m = rng.standard_normal(shape)
        g = gram_spectrum(m)
        k = min(shape)
        assert g.right == (shape[0] >= shape[1])
        assert g.vectors.shape == (shape[1] if g.right else shape[0], k)
        assert np.all(np.diff(g.singulars) <= 0) and np.all(g.singulars >= 0)
        assert np.abs(g.singulars**2 - svd(m).singulars**2).max(initial=0.0) <= g.delta
        assert np.abs(g.vectors.T @ g.vectors - np.eye(k)).max(initial=0.0) <= 1e-12
    assert gram_spectrum(np.zeros((3, 2))).delta == 0.0


def test_gram_spectrum_overflow_is_linalg_error():
    with pytest.raises(np.linalg.LinAlgError):
        gram_spectrum(np.full((3, 2), 1e200))


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_singular_values_unitarily_invariant():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5))
    q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    s1 = svd(m).singulars
    s2 = svd(q1 @ m @ q2.T).singulars
    assert np.abs(s1 - s2).max() <= 1e-8
