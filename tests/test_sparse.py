import numpy as np
import pytest

from helpers import l1_shrink_oracle, l21_shrink_oracle, penalty_value
from rpca.sparse import COLUMNWISE_L21, ENTRYWISE_L1, SparsePenalty, shrink


def test_penalty_kind_validation():
    with pytest.raises(ValueError):
        SparsePenalty("l2")


def test_penalty_values():
    z = np.zeros((3, 3))
    assert penalty_value(z, ENTRYWISE_L1) == 0.0
    assert penalty_value(z, COLUMNWISE_L21) == 0.0
    assert penalty_value(np.array([[1.0, -2.0], [0.0, 2.0]]), ENTRYWISE_L1) == pytest.approx(5.0)
    assert penalty_value(np.array([[3.0, 0.0], [4.0, 1.0]]), COLUMNWISE_L21) == pytest.approx(6.0)


def test_shrink_l1_scalar_cases():
    q = np.array([[0.5, -0.1, -0.7]])
    out = shrink(q, 0.2, ENTRYWISE_L1)
    assert out.ravel() == pytest.approx([0.3, 0.0, -0.5])
    oracle = l1_shrink_oracle(q, 0.2)
    assert np.abs(out - oracle).max() <= 1e-8


def test_shrink_l21_column_cases():
    col = np.array([[3.0], [4.0]])
    out = shrink(col, 2.0, COLUMNWISE_L21)
    assert out.ravel() == pytest.approx([1.8, 2.4])
    oracle = l21_shrink_oracle(col, 2.0)
    assert np.abs(out - oracle).max() <= 1e-8


def test_shrink_l21_small_column_zeroed():
    col = np.array([[0.6], [0.8]])  # unit norm, below the threshold
    assert np.array_equal(shrink(col, 2.0, COLUMNWISE_L21), np.zeros((2, 1)))
    # boundary: norm exactly equal to the threshold also maps to zero
    assert np.array_equal(shrink(col * 2.0, 2.0, COLUMNWISE_L21), np.zeros((2, 1)))


def test_shrink_requires_positive_tau():
    with pytest.raises(ValueError):
        shrink(np.ones((2, 2)), 0.0, ENTRYWISE_L1)


def test_shrink_matches_oracles():
    rng = np.random.default_rng(0)
    for tau in (0.1, 1.0):
        for _ in range(20):
            q = rng.standard_normal((5, 5))
            out1 = shrink(q, tau, ENTRYWISE_L1)
            assert np.abs(out1 - l1_shrink_oracle(q, tau)).max() <= 1e-8
            out21 = shrink(q, tau, COLUMNWISE_L21)
            assert np.abs(out21 - l21_shrink_oracle(q, tau)).max() <= 1e-8


def _objective(w, q, tau, penalty):
    return tau * penalty_value(w, penalty) + 0.5 * float(np.linalg.norm(w - q) ** 2)


def test_shrink_beats_random_candidates():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((5, 5))
    for tau in (0.1, 1.0):
        for penalty in (ENTRYWISE_L1, COLUMNWISE_L21):
            out = shrink(q, tau, penalty)
            base = _objective(out, q, tau, penalty)
            for _ in range(1000):
                w = q + rng.standard_normal((5, 5))
                assert base <= _objective(w, q, tau, penalty) + 1e-12


def test_shrink_nonexpansive():
    rng = np.random.default_rng(2)
    for penalty in (ENTRYWISE_L1, COLUMNWISE_L21):
        for _ in range(50):
            q1 = rng.standard_normal((4, 6))
            q2 = rng.standard_normal((4, 6))
            d_out = np.linalg.norm(shrink(q1, 0.5, penalty) - shrink(q2, 0.5, penalty))
            assert d_out <= np.linalg.norm(q1 - q2) + 1e-12


def test_shrink_preserves_signs_and_directions():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((6, 6)) * 2.0
    out1 = shrink(q, 0.3, ENTRYWISE_L1)
    nz = out1 != 0.0
    assert np.all(np.sign(out1[nz]) == np.sign(q[nz]))
    out21 = shrink(q, 0.3, COLUMNWISE_L21)
    for j in range(q.shape[1]):
        if np.any(out21[:, j] != 0.0):
            ratio = out21[:, j] / q[:, j]
            assert np.all(ratio > 0.0)
            assert np.ptp(ratio) <= 1e-12


def test_shrink_active_set_recovers_input():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((5, 5)) * 5.0
    tau = 0.2
    out1 = shrink(q, tau, ENTRYWISE_L1)
    active = out1 != 0.0
    assert np.abs(out1[active] + tau * np.sign(out1[active]) - q[active]).max() <= 1e-12
    out21 = shrink(q, tau, COLUMNWISE_L21)
    for j in range(q.shape[1]):
        col = out21[:, j]
        n = np.linalg.norm(col)
        if n > 0.0:
            rebuilt = col + tau * col / n
            assert np.abs(rebuilt - q[:, j]).max() <= 1e-12


def test_shrink_zero_entry_stays_zero():
    q = np.array([[0.0, 3.0]])
    out = shrink(q, 1.0, ENTRYWISE_L1)
    assert out[0, 0] == 0.0 and out[0, 1] == pytest.approx(2.0)
