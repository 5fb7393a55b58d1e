import warnings

import numpy as np
import pytest

from helpers import (
    central_diff,
    dc_prox_reference,
    grid_prox_min,
    prox_objective,
    random_orthonormal,
)
from rpca.surrogates import (
    RankSurrogate,
    gamma_surrogate,
    nuclear_surrogate,
    prox_matrix,
    prox_vector,
    rank_curve,
    scalar_penalty,
    surrogate_gradient,
    surrogate_value,
)

G001 = gamma_surrogate(0.01)
NUC = nuclear_surrogate()


def test_surrogate_validation():
    with pytest.raises(ValueError):
        RankSurrogate("gamma")
    with pytest.raises(ValueError):
        RankSurrogate("gamma", -1.0)
    with pytest.raises(ValueError):
        RankSurrogate("nuclear", 0.5)
    with pytest.raises(ValueError):
        RankSurrogate("logdet")
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma surrogate requires a finite gamma > 0"):
            RankSurrogate("gamma", bad)


def test_surrogate_value_examples():
    assert surrogate_value([1.0, 1.0, 1.0], G001) == pytest.approx(3.0)
    assert surrogate_value([0.0, 0.0], G001) == 0.0
    # 1.01*5/5.01 + 1.01*0.5/0.51, evaluated at full precision
    assert surrogate_value([5.0, 0.5], G001) == pytest.approx(1.9981801103675003, abs=1e-12)
    assert surrogate_value([7.0, 0.2], NUC) == pytest.approx(7.2)
    with pytest.raises(ValueError):
        surrogate_value([-0.1], G001)


def test_gradient_matches_finite_differences():
    g1 = gamma_surrogate(1.0)
    grad = surrogate_gradient([1.0], g1)
    fd = central_diff(lambda v: (1 + 1.0) * v / (1.0 + v), np.array([1.0]))
    assert grad[0] == pytest.approx(0.5)
    assert grad[0] == pytest.approx(fd[0], rel=1e-8)


def test_gradient_at_zero_uses_endpoint_value():
    assert surrogate_gradient([0.0], G001)[0] == pytest.approx(101.0, abs=0.0)


def test_gradient_nuclear_is_ones():
    assert np.array_equal(surrogate_gradient([7.0, 0.2], NUC), [1.0, 1.0])


def test_gradient_range():
    rng = np.random.default_rng(0)
    sig = rng.uniform(0.0, 10.0, 200)
    grad = surrogate_gradient(sig, G001)
    assert np.all(grad > 0.0) and np.all(grad <= (1.01 / 0.01) + 1e-12)


def test_prox_vector_zero_is_fixed():
    for s in (G001, NUC):
        assert prox_vector([0.0], 3.0, s)[0] == 0.0


def test_prox_vector_nuclear_example():
    out = prox_vector([2.0], 1.0, NUC)
    ref = grid_prox_min(2.0, 1.0, NUC)
    assert out[0] == pytest.approx(1.0)
    assert prox_objective(out[0], 2.0, 1.0, NUC)[0] <= ref + 1e-6


def test_prox_vector_gamma_example():
    out = prox_vector([1.0], 10.0, G001)
    assert out[0] == pytest.approx(0.999008, abs=1e-5)
    ref = grid_prox_min(1.0, 10.0, G001)
    assert prox_objective(out[0], 1.0, 10.0, G001)[0] <= ref + 1e-6


def test_prox_vector_requires_positive_mu():
    with pytest.raises(ValueError):
        prox_vector([1.0], 0.0, G001)


def test_prox_monotone_shrinkage():
    rng = np.random.default_rng(1)
    for _ in range(50):
        sig_a = rng.uniform(0.0, 10.0, 6)
        mu = rng.uniform(0.1, 100.0)
        gam = float(rng.choice([0.01, 0.1, 1.0]))
        out = prox_vector(sig_a, mu, gamma_surrogate(gam))
        assert np.all(out >= 0.0) and np.all(out <= sig_a + 1e-15)


def test_prox_attains_grid_minimum():
    rng = np.random.default_rng(2)
    for _ in range(60):
        sig_a = float(rng.uniform(0.0, 10.0))
        mu = float(rng.uniform(0.1, 100.0))
        s = gamma_surrogate(float(rng.choice([0.01, 0.1, 1.0])))
        out = prox_vector([sig_a], mu, s)[0]
        assert prox_objective(out, sig_a, mu, s)[0] <= grid_prox_min(sig_a, mu, s) + 1e-6


def test_dc_iteration_descends():
    # replay the linearize-then-shrink recurrence and check the true
    # objective never increases along it
    rng = np.random.default_rng(3)
    for _ in range(25):
        sig_a = float(rng.uniform(0.0, 10.0))
        mu = float(rng.uniform(0.1, 100.0))
        s = gamma_surrogate(float(rng.choice([0.01, 0.1, 1.0])))
        sig = sig_a
        prev = prox_objective(sig, sig_a, mu, s)[0]
        for _ in range(30):
            sig = max(sig_a - surrogate_gradient([sig], s)[0] / mu, 0.0)
            cur = prox_objective(sig, sig_a, mu, s)[0]
            assert cur <= prev + 1e-12
            prev = cur


def boundary_sigma_a(gam: float, mu: float) -> float:
    """The sigma_a at which the gamma prox's cubic has a double root (r = 1)."""
    c = (1.0 + gam) * gam / mu
    return 3.0 * np.cbrt(c / 4.0) - gam


@pytest.mark.parametrize("gam", [1e-8, 0.01, 1.0, 1e4])
def test_gamma_prox_kept_values_are_stationary(gam):
    # a kept value solves mu*(sigma - sigma_a) + f'(sigma) = 0; both terms
    # are at most mu*sigma_a, so the residual is measured against that
    s = gamma_surrogate(gam)
    rng = np.random.default_rng(8)
    for mu in np.logspace(-4, 4, 9):
        sig_a = 10.0 ** rng.uniform(-3.0, 4.0, 500)
        out = prox_vector(sig_a, mu, s)
        k = out > 0.0
        assert k.any()
        resid = mu * (out[k] - sig_a[k]) + surrogate_gradient(out[k], s)
        assert np.all(np.abs(resid) <= 1e-12 * mu * sig_a[k]), mu


@pytest.mark.parametrize("gam, mu", [(1e-8, 1e-4), (0.01, 1.0), (0.01, 1e4), (1.0, 1e-2), (1e4, 1e-5)])
def test_gamma_prox_across_the_discriminant_boundary(gam, mu):
    # r < 1 (sigma_a above the boundary) has a stationary point near the
    # double root, r > 1 has none. Near the double root the objective still
    # rises from 0, so both sides drop the component; neither may produce a
    # NaN or a warning on the way
    s = gamma_surrogate(gam)
    a0 = boundary_sigma_a(gam, mu)
    assert a0 > 0.0
    sig_a = a0 * (1.0 + np.array([-1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prox_vector(sig_a, mu, s)
    assert np.array_equal(out, np.zeros_like(sig_a))
    far = [0, 1, 5, 6]  # the reference loop crawls through the double root
    assert np.array_equal(out[far], dc_prox_reference(sig_a[far], mu, s))
    # well above the boundary the stationary point is kept
    assert prox_vector([10.0 * a0 + 10.0 / np.sqrt(mu)], mu, s)[0] > 0.0


@pytest.mark.parametrize("gam", [1e-8, 0.01, 1e4])
def test_gamma_prox_is_finite_over_the_float_range(gam):
    s = gamma_surrogate(gam)
    sig_a = np.logspace(-300, 150, 4501)
    for mu in (1e-4, 1.0, 1e4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox_vector(sig_a, mu, s)
        assert np.isfinite(out).all(), mu
        assert np.all(out >= 0.0) and np.all(out <= sig_a), mu
        # the largest inputs are kept nearly intact, the smallest dropped
        assert out[-1] == sig_a[-1] and out[0] == 0.0, mu
        assert np.all(np.diff(out) >= 0.0), mu


@pytest.mark.parametrize("gam", [1e-8, 0.01, 1.0, 1e4])
def test_gamma_prox_matches_the_dc_iteration(gam):
    # both compute in the cubic's variable t = gamma + sigma, so kept values
    # are compared in units in the last place of gamma + sigma_a
    s = gamma_surrogate(gam)
    rng = np.random.default_rng(9)
    for mu in np.logspace(-4, 4, 9):
        sig_a = 10.0 ** rng.uniform(-3.0, 4.0, 2000)
        out = prox_vector(sig_a, mu, s)
        ref = dc_prox_reference(sig_a, mu, s)
        assert np.array_equal(out > 0.0, ref > 0.0), mu
        assert np.all(np.abs(out - ref) <= 4.0 * np.spacing(gam + sig_a)), mu


def test_prox_matrix_zero():
    out = prox_matrix(np.zeros((3, 2)), 1.0, G001)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_prox_matrix_nuclear_diag():
    out = prox_matrix(np.diag([2.0, 0.0]), 1.0, NUC)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def _matrix_objective(z, a, mu, s):
    sig = np.linalg.svd(z, compute_uv=False)
    return float(scalar_penalty(sig, s).sum()) + 0.5 * mu * float(np.linalg.norm(z - a) ** 2)


def test_prox_matrix_perturbation_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5))
    z = prox_matrix(a, 5.0, G001)
    base = _matrix_objective(z, a, 5.0, G001)
    assert base <= _matrix_objective(a, a, 5.0, G001)
    for _ in range(100):
        e = rng.standard_normal((5, 5))
        e *= 0.01 / np.linalg.norm(e)
        assert base <= _matrix_objective(z + e, a, 5.0, G001) + 1e-12


def test_rank_curve_values():
    pts = rank_curve(G001, [0.0, 1.0])
    assert pts[0] == pytest.approx([0.0, 0.0])
    assert pts[1] == pytest.approx([1.0, 1.0])
    nuc = rank_curve(NUC, [0.0, 2.0, 5.0])
    assert np.allclose(nuc[:, 1], [0.0, 2.0, 5.0])
    tail = rank_curve(G001, [100.0])
    assert tail[0, 1] == pytest.approx(1.0098990100989902, abs=1e-12)
    assert np.all(rank_curve(G001, np.linspace(0, 1e6, 100))[:, 1] <= 1.01)


def test_limit_laws():
    rng = np.random.default_rng(5)
    binary = rng.integers(0, 2, 20).astype(float)
    assert abs(surrogate_value(binary, gamma_surrogate(1e-6)) - binary.sum()) <= 1e-3
    sig = rng.uniform(0.0, 10.0, 30)
    big = gamma_surrogate(1e6)
    assert abs(surrogate_value(sig, big) - sig.sum()) <= 1e-4 * sig.sum()


def test_surrogate_value_unitarily_invariant():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 6))
    u = random_orthonormal(rng, 6)
    v = random_orthonormal(rng, 6)
    s1 = np.linalg.svd(m, compute_uv=False)
    s2 = np.linalg.svd(u @ m @ v.T, compute_uv=False)
    assert surrogate_value(s1, G001) == pytest.approx(surrogate_value(s2, G001), abs=1e-8)


def test_gradient_finite_difference_sweep():
    rng = np.random.default_rng(7)
    for gam in (0.01, 1.0):
        s = gamma_surrogate(gam)
        sig = rng.uniform(0.1, 10.0, 500)
        grad = surrogate_gradient(sig, s)
        fd = central_diff(lambda v: scalar_penalty(v, s), sig)
        rel = np.abs(grad - fd) / np.abs(fd)
        assert rel.max() <= 1e-5
