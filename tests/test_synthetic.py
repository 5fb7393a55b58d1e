import dataclasses
import json

import numpy as np
import pytest

from rpca.solver import SolverConfig, solve
from rpca.sparse import COLUMNWISE_L21
from rpca.synthetic import (
    SyntheticSpec,
    anomaly_scores,
    detect_anomalies,
    generate_synthetic,
    rank_estimate,
    recovery_errors,
    stack_frames,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(m=10, n=10, rank=11, sparsity=0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(m=10, n=10, rank=2, sparsity=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1, magnitude_low=2.0, magnitude_high=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1, corruption="rows")
    with pytest.raises(ValueError, match="matrix dimensions must be positive"):
        SyntheticSpec(m=0, n=3, rank=1, sparsity=0.1)
    with pytest.raises(ValueError, match="magnitude_high must be finite"):
        SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1, magnitude_high=np.inf)


@pytest.mark.parametrize("name, value, error", [
    ("m", 100.0, "m must be an integer"),
    ("rank", 2.5, "rank must be an integer"),
    ("sparsity", True, "sparsity must be a real number"),
    ("magnitude_low", np.float32(1), None),
    ("n", np.int64(50), None),
], ids=["float-m", "float-rank", "bool-sparsity", "float32-magnitude", "int64-n"])
def test_spec_checks_its_types(name, value, error):
    # a float size or rank used to construct and then fail in
    # generate_synthetic, and a numpy float made the spec's JSON echo raise.
    # A numpy scalar of the right kind is kept as a Python int or float
    fields = {"m": 100, "n": 50, "rank": 3, "sparsity": 0.05, name: value}
    if error is not None:
        with pytest.raises(ValueError, match=f"^{error}$"):
            SyntheticSpec(**fields)
        return
    spec = SyntheticSpec(**fields)
    assert type(getattr(spec, name)) is type(value.item()) and getattr(spec, name) == value
    assert json.loads(json.dumps(dataclasses.asdict(spec)))[name] == value
    assert generate_synthetic(spec, 0)[0].shape == (100, 50)


def test_generate_exact_counts_and_magnitudes():
    spec = SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1, magnitude_low=1.0, magnitude_high=1.0)
    x, l_star, s_star = generate_synthetic(spec, 123)
    nz = np.nonzero(s_star.ravel())[0]
    assert nz.size == 10
    assert np.abs(np.abs(s_star.ravel()[nz]) - 1.0).max() <= 1e-15
    assert np.array_equal(x, l_star + s_star)


def test_generate_planted_rank():
    spec = SyntheticSpec(m=10, n=10, rank=2, sparsity=0.1)
    _, l_star, _ = generate_synthetic(spec, 5)
    sig = np.linalg.svd(l_star, compute_uv=False)
    assert sig[2] <= 1e-10


def test_generate_deterministic_per_seed():
    spec = SyntheticSpec(m=12, n=8, rank=3, sparsity=0.2)
    a = generate_synthetic(spec, 99)
    b = generate_synthetic(spec, 99)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma, mb)
    c = generate_synthetic(spec, 100)
    assert not np.array_equal(a[0], c[0])


def test_generate_columnwise_mode():
    spec = SyntheticSpec(m=8, n=10, rank=2, sparsity=0.2, corruption="columnwise")
    _, _, s_star = generate_synthetic(spec, 1)
    corrupted = np.nonzero(np.abs(s_star).sum(axis=0))[0]
    assert corrupted.size == 2
    assert np.all(np.abs(s_star[:, corrupted]) >= 1.0)


def test_rank_estimate_matches_planted_rank_over_grid():
    for m, n in ((10, 10), (15, 8), (8, 15), (30, 30)):
        for r in (1, 2, min(m, n) // 2):
            spec = SyntheticSpec(m=m, n=n, rank=r, sparsity=0.1)
            _, l_star, _ = generate_synthetic(spec, seed=m * n + r)
            assert rank_estimate(l_star) == r


def test_rank_estimate_cases():
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    v = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))[0]
    m = u @ np.diag([10.0, 5.0, 1e-9, 0.0, 0.0, 0.0]) @ v
    assert rank_estimate(m) == 2
    assert rank_estimate(np.zeros((4, 4))) == 0
    assert rank_estimate(np.zeros((0, 3))) == 0
    rng = np.random.default_rng(2)
    prod = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 20))
    assert rank_estimate(prod) == 3


def test_recovery_errors_cases():
    rng = np.random.default_rng(3)
    l_star = rng.standard_normal((6, 6))
    s_star = rng.standard_normal((6, 6))
    assert recovery_errors(l_star, l_star, s_star, s_star) == pytest.approx((0.0, 0.0, 1.0))
    l_err, _, _ = recovery_errors(np.zeros((6, 6)), l_star, s_star, s_star)
    assert l_err == pytest.approx(1.0)
    e = rng.standard_normal((6, 6))
    e *= 0.01 * np.linalg.norm(l_star) / np.linalg.norm(e)
    l_err, _, _ = recovery_errors(l_star + e, l_star, s_star, s_star)
    assert l_err == pytest.approx(0.01, abs=1e-10)
    with pytest.raises(ValueError, match="recovered and ground-truth shapes must match"):
        recovery_errors(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_anomaly_scores_cases():
    assert np.array_equal(anomaly_scores(np.zeros((3, 4))), np.zeros(4))
    s = np.zeros((3, 5))
    s[:2, 2] = [3.0, 4.0]
    scores = anomaly_scores(s)
    assert scores[2] == pytest.approx(5.0)
    assert np.count_nonzero(scores) == 1


def test_anomaly_scores_square_sum_is_frobenius():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((7, 9))
    assert np.sum(anomaly_scores(s) ** 2) == pytest.approx(np.linalg.norm(s) ** 2, abs=1e-10)


def test_detect_anomalies_cases():
    scores = np.array([1.0, 5.0, 0.2])
    assert detect_anomalies(scores, 4.0).tolist() == [1]
    assert detect_anomalies(scores, 0.0).tolist() == [0, 1, 2]
    assert detect_anomalies(scores, 10.0).size == 0
    with pytest.raises(ValueError):
        detect_anomalies(scores, -1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        detect_anomalies(scores, float("nan"))  # would flag nothing


def test_injected_subspace_columns_score_highest():
    # 190 columns from one rank-3 subspace, 10 from another; the columnwise
    # penalty should isolate the injected ones. The penalty weight keeps the
    # spectral threshold between the two subspaces' singular values, so the
    # dominant subspace lands in L and the injected columns in S.
    rng = np.random.default_rng(0)
    u1 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    u2 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    x = np.hstack([u1 @ rng.standard_normal((3, 190)), u2 @ rng.standard_normal((3, 10))])
    r = solve(x, SolverConfig(mu0=0.05, penalty=COLUMNWISE_L21))
    assert r.converged
    scores = anomaly_scores(r.s)
    order = np.argsort(scores)[::-1]
    positions = [int(np.where(order == j)[0][0]) for j in range(190, 200)]
    assert max(positions) < 14


def test_stack_frames_shapes_and_order():
    frames = [np.zeros((2, 2)), np.ones((2, 2))]
    out = stack_frames(frames)
    assert out.shape == (4, 2)
    single = stack_frames([np.array([[1.0, 2.0], [3.0, 4.0]])])
    assert single[:, 0].tolist() == [1.0, 3.0, 2.0, 4.0]


def test_stack_frames_mismatch():
    with pytest.raises(ValueError):
        stack_frames([np.zeros((2, 2)), np.zeros((3, 2))])
    with pytest.raises(ValueError):
        stack_frames([])
