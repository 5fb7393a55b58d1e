import numpy as np
import pytest

from rpca.linalg import BLOCK_BYTES, row_blocks, svd


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


def test_svd_is_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 4))
    f1 = svd(m)
    f2 = svd(m)
    assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.vt, f2.vt)
    assert np.array_equal(f1.singulars, f2.singulars)


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


def test_svd_non_convergence_names_the_shape(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(np.linalg.LinAlgError) as exc:
        svd(np.ones((3, 2)))
    assert str(exc.value) == "SVD did not converge for a 3x2 matrix"


BLOCK_COLUMNS = BLOCK_BYTES // 8


@pytest.mark.parametrize("n", [0, 1, 2, BLOCK_COLUMNS + 7])
def test_row_blocks_tile_the_rows_in_order(n):
    # one rule for every width, the one-column array included: at most
    # BLOCK_BYTES of rows per block, and at least one row
    limit = max(1, BLOCK_BYTES // (8 * max(n, 1)))
    for m in (0, 1, 2 * limit + 3):
        blocks = row_blocks(m, n)
        assert [0] + [b.stop for b in blocks] == [b.start for b in blocks] + [m], (m, n)
        assert all(0 < b.stop - b.start <= limit for b in blocks), (m, n)
        assert len(blocks) == -(-m // limit), (m, n)
