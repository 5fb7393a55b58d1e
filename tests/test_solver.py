import dataclasses

import numpy as np
import pytest

import rpca.linalg
from helpers import random_orthonormal, reference_lagrangian, reference_solve
from rpca.solver import (
    IterationRecord,
    SolverConfig,
    SolverState,
    kkt_residuals,
    l_step,
    scaled_lambda,
    solve,
    step,
)
from rpca.sparse import COLUMNWISE_L21, penalty_value
from rpca.surrogates import (
    gamma_surrogate,
    nuclear_surrogate,
    prox_matrix,
    surrogate_gradient,
    surrogate_value,
)
from rpca.synthetic import SyntheticSpec, generate_synthetic, rank_estimate, recovery_errors


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.lam == 1e-3
    assert cfg.mu0 == 1e-4
    assert cfg.rho == 1.1
    assert cfg.tol == 1e-3
    assert cfg.max_outer == 500
    assert cfg.mu_max == 1e10
    assert cfg.surrogate.kind == "gamma" and cfg.surrogate.gamma == 0.01
    assert cfg.penalty.kind == "l1"


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu_max=1e-6)
    with pytest.raises(ValueError):
        SolverConfig(max_outer=0)


def test_config_rejects_nan_mu_max():
    # NaN fails every comparison, so it must not pass as "not below mu0"
    with pytest.raises(ValueError, match="mu_max must be >= mu0"):
        SolverConfig(mu_max=float("nan"))


def test_scaled_lambda():
    assert scaled_lambda(200, 100) == pytest.approx(1.0 / np.sqrt(200))


def test_solve_zero_matrix():
    r = solve(np.zeros((4, 5)))
    assert r.converged and r.iterations == 1
    assert np.array_equal(r.l, np.zeros((4, 5)))
    assert np.array_equal(r.s, np.zeros((4, 5)))


def test_solve_non_square():
    rng = np.random.default_rng(13)
    l_star = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 45))
    r = solve(l_star, SolverConfig(mu0=1e-2))
    assert r.converged
    assert rank_estimate(r.l) == 2
    assert np.linalg.norm(r.l - l_star) / np.linalg.norm(l_star) <= 1e-2


def test_solve_does_not_mutate_input():
    spec = SyntheticSpec(m=30, n=30, rank=2, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 0)
    snapshot = x.copy()
    solve(x, SolverConfig(max_outer=5))
    assert np.array_equal(x, snapshot)


def test_solve_rank_one_uncorrupted():
    # sigma_1 of a 20x20 outer product is ~20; at the default mu0 the spectral
    # prox drops components that small, so the penalty weight starts at 1e-2
    # to keep the planted direction from the first iteration on
    rng = np.random.default_rng(7)
    x = np.outer(rng.standard_normal(20), rng.standard_normal(20))
    r = solve(x, SolverConfig(mu0=1e-2))
    assert r.converged
    assert rank_estimate(r.l) == 1
    assert np.linalg.norm(r.l - x) / np.linalg.norm(x) <= 1e-2
    assert np.linalg.norm(r.s) / np.linalg.norm(x) <= 1e-2


def test_solve_synthetic_recovery():
    spec = SyntheticSpec(m=100, n=100, rank=5, sparsity=0.05)
    x, l_star, s_star = generate_synthetic(spec, 0)
    r = solve(x)
    assert r.converged
    l_err, s_err, f1 = recovery_errors(r.l, l_star, r.s, s_star)
    assert l_err <= 1e-2
    assert rank_estimate(r.l) == 5
    assert f1 == pytest.approx(1.0)


def test_solve_history_contract():
    # small instances need the larger initial penalty weight; see the
    # rank-one test above
    spec = SyntheticSpec(m=40, n=40, rank=2, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 1)
    r = solve(x, SolverConfig(mu0=1e-2))
    assert len(r.history) == r.iterations
    assert [rec.iter for rec in r.history] == list(range(1, r.iterations + 1))
    assert r.converged
    assert r.history[-1].residual <= 1e-3
    assert np.linalg.norm(x - r.l - r.s) / np.linalg.norm(x) <= 1e-3


def test_solve_non_convergence_returns_flag():
    spec = SyntheticSpec(m=30, n=30, rank=2, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 2)
    r = solve(x, SolverConfig(max_outer=3))
    assert not r.converged
    assert r.iterations == 3 and len(r.history) == 3


def test_callback_once_per_iteration():
    spec = SyntheticSpec(m=30, n=30, rank=2, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 3)
    seen = []
    r = solve(x, callback=lambda state, rec: seen.append((state, rec)))
    assert [rec.iter for _, rec in seen] == list(range(1, r.iterations + 1))
    assert all(state.iter == rec.iter for state, rec in seen)
    # the callback gets the state the loop continues from, so it is frozen
    last = seen[-1][0]
    assert last.l is r.l and last.s is r.s
    with pytest.raises(dataclasses.FrozenInstanceError):
        last.mu = 1.0


def one_step(x, state, cfg):
    return step(x, state, cfg, float(np.linalg.norm(x)))


def test_update_l_cases():
    cfg = SolverConfig(surrogate=nuclear_surrogate())
    zero = np.zeros((2, 2))
    state = SolverState(l=zero, s=zero, y=zero, mu=1.0)
    assert np.array_equal(one_step(zero, state, cfg)[0].l, zero)
    x = np.diag([2.0, 0.0])
    assert np.allclose(one_step(x, state, cfg)[0].l, np.diag([1.0, 0.0]), atol=1e-12)
    # S = X makes the prox target zero
    state_sx = SolverState(l=zero, s=x, y=zero, mu=1.0)
    assert np.abs(one_step(x, state_sx, cfg)[0].l).max() <= 1e-15


def test_update_s_cases():
    # the previous S is X, so the L-step's target is zero, L stays zero and
    # the S-step shrinks X itself
    cfg = SolverConfig(lam=0.2)
    zero = np.zeros((1, 1))
    state = SolverState(l=zero, s=zero, y=zero, mu=1.0)
    assert np.array_equal(one_step(zero, state, cfg)[0].s, zero)
    x = np.array([[0.5]])
    new, _ = one_step(x, SolverState(l=zero, s=x, y=zero, mu=1.0), cfg)
    assert np.array_equal(new.l, zero)
    assert new.s[0, 0] == pytest.approx(0.3)
    cfg21 = SolverConfig(lam=2.0, penalty=COLUMNWISE_L21)
    z2 = np.zeros((2, 1))
    x21 = np.array([[3.0], [4.0]])
    new21, _ = one_step(x21, SolverState(l=z2, s=x21, y=z2, mu=1.0), cfg21)
    assert np.array_equal(new21.l, z2)
    assert new21.s.ravel() == pytest.approx([1.8, 2.4])


def test_update_duals_cases():
    cfg = SolverConfig()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3))
    # Y moves by mu times the new pair's residual; mu grows by rho
    state = SolverState(l=0.5 * x, s=0.5 * x, y=rng.standard_normal((3, 3)), mu=2.0)
    new, rec = one_step(x, state, cfg)
    assert np.allclose(new.y, state.y + 2.0 * (new.l + new.s - x))
    assert new.mu == pytest.approx(2.2) and rec.mu == 2.0
    r = rng.standard_normal((3, 3))
    state2 = SolverState(l=x + r, s=np.zeros((3, 3)), y=np.zeros((3, 3)), mu=1e-4)
    # at mu = 1e-4 every singular value of X is under the keep-threshold and
    # every entry under lam/mu = 10, so L = S = 0 and Y = mu*(0 + 0 - X)
    new2, _ = one_step(x, state2, cfg)
    assert not new2.l.any() and not new2.s.any()
    assert np.allclose(new2.y, -1e-4 * x)
    assert new2.mu == pytest.approx(1.1e-4)
    # cap saturation
    state3 = SolverState(l=x, s=np.zeros((3, 3)), y=np.zeros((3, 3)), mu=cfg.mu_max)
    assert one_step(x, state3, cfg)[0].mu == cfg.mu_max


def test_lagrangian_cases():
    # the record's Lagrangian is taken at the new pair, the old multiplier
    # and the old mu
    cfg = SolverConfig()
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 4))
    zero = np.zeros((4, 4))
    # at mu = 1e-4 the step returns L = S = 0, so only the quadratic term is left
    new0, rec0 = one_step(x, SolverState(l=zero, s=zero, y=zero, mu=1e-4), cfg)
    assert not new0.l.any() and not new0.s.any()
    assert rec0.lagrangian == pytest.approx(0.5e-4 * np.linalg.norm(x) ** 2, rel=1e-14)
    # at mu = 1 the L-step keeps part of X's spectrum
    new1, rec1 = one_step(x, SolverState(l=zero, s=zero, y=zero, mu=1.0), cfg)
    assert new1.l.any()
    sig = np.linalg.svd(new1.l, compute_uv=False)
    resid = new1.l + new1.s - x
    expect = (
        surrogate_value(sig, cfg.surrogate)
        + cfg.lam * penalty_value(new1.s, cfg.penalty)
        + 0.5 * np.linalg.norm(resid) ** 2
    )
    assert rec1.lagrangian == pytest.approx(expect, abs=1e-10)


def test_lagrangian_term_by_term():
    cfg = SolverConfig(lam=0.3)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 4)) * 10.0
    state = SolverState(
        l=rng.standard_normal((5, 4)),
        s=rng.standard_normal((5, 4)),
        y=rng.standard_normal((5, 4)),
        mu=2.5,
    )
    new, rec = one_step(x, state, cfg)
    assert new.l.any() and new.s.any()
    resid = new.l + new.s - x
    manual = (
        surrogate_value(np.linalg.svd(new.l, compute_uv=False), cfg.surrogate)
        + 0.3 * np.abs(new.s).sum()
        + np.trace(state.y.T @ resid)
        + 1.25 * np.linalg.norm(resid) ** 2
    )
    assert rec.lagrangian == pytest.approx(manual, abs=1e-10)
    assert reference_lagrangian(x, new.l, new.s, state.y, 2.5, cfg) == pytest.approx(manual, abs=1e-10)


def test_kkt_residuals_stationary_pair():
    # a fixed point of step: X = L, S = 0 and Y = -U diag(theta) V^T, the
    # prox's own stationarity term, so the L-step returns L; every |Y_ij| is
    # under lam, so the shrink leaves S at zero and S does not change at all
    cfg = SolverConfig()
    rng = np.random.default_rng(11)
    u, v = random_orthonormal(rng, 2), random_orthonormal(rng, 2)
    sig = np.array([30.0, 10.0])
    theta = surrogate_gradient(sig, cfg.surrogate)
    x = (u * sig) @ v.T
    state = SolverState(l=x, s=np.zeros_like(x), y=-(u * theta) @ v.T, mu=1.0)
    assert np.abs(state.y).max() <= cfg.lam
    nxt, record = step(x, state, cfg, float(np.linalg.norm(x)))
    assert np.array_equal(nxt.s, state.s)
    assert np.linalg.norm(nxt.l - state.l) <= 1e-10 * np.linalg.norm(x)
    assert np.linalg.norm(nxt.y - state.y) <= 1e-10
    primal, dual = kkt_residuals(nxt, record, float(np.linalg.norm(x)))
    assert primal <= 1e-10 and dual <= 1e-12


def test_kkt_residuals_initial_state():
    cfg = SolverConfig()
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 4))
    zero = np.zeros((4, 4))
    state = SolverState(l=zero, s=zero, y=zero, mu=cfg.mu0)
    # the zero start has no previous S, so nothing has changed yet
    record = IterationRecord(
        iter=0, residual=1.0, lagrangian=0.0, rank_estimate=0, y_inf_norm=0.0,
        mu=cfg.mu0, mu_s_change=0.0, l_route="gram",
    )
    nx = float(np.linalg.norm(x))
    primal, dual = kkt_residuals(state, record, nx)
    assert primal == pytest.approx(nx / max(1.0, nx))
    assert dual == 0.0


def test_kkt_primal_small_after_convergence():
    spec = SyntheticSpec(m=60, n=60, rank=3, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 4)
    r = solve(x, SolverConfig(mu0=2e-3))
    assert r.converged
    assert rank_estimate(r.l) == 3
    assert r.kkt_primal <= 1e-3
    assert np.isfinite(r.kkt_dual)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 0.0])
def test_kkt_primal_is_the_final_residual(scale):
    # kkt_primal is read off the last record; it must equal the residual
    # recomputed from the returned pair, bit for bit once ||X||_F >= 1
    spec = SyntheticSpec(m=30, n=30, rank=2, sparsity=0.05)
    x = generate_synthetic(spec, 6)[0] * scale
    r = solve(x, SolverConfig(mu0=1e-2, max_outer=5))
    nx = float(np.linalg.norm(x))
    direct = float(np.linalg.norm(r.l + r.s - x)) / max(1.0, nx)
    if nx >= 1.0:
        assert r.kkt_primal == direct
    else:
        assert r.kkt_primal == pytest.approx(direct, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("penalty_kind", ["l1", "l21"])
def test_iteration_guarantees(penalty_kind):
    from helpers import IterationAuditor

    spec = SyntheticSpec(m=50, n=50, rank=3, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 5)
    cfg = (
        SolverConfig(mu0=1e-2)
        if penalty_kind == "l1"
        else SolverConfig(mu0=1e-2, penalty=COLUMNWISE_L21)
    )
    tracker = IterationAuditor(x, cfg)
    r = solve(x, cfg, callback=tracker)
    assert r.converged
    if penalty_kind == "l1":
        assert tracker.max_y_inf <= cfg.lam + 1e-12
    else:
        assert tracker.max_y_col <= cfg.lam + 1e-12
    assert tracker.worst_l_step <= 1e-8
    assert tracker.worst_s_step <= 1e-8
    assert tracker.worst_identity <= 1e-12
    assert tracker.max_iterate_norm <= 10.0 * np.linalg.norm(x)


def test_history_records_diagnostics():
    spec = SyntheticSpec(m=40, n=40, rank=2, sparsity=0.05)
    x, _, _ = generate_synthetic(spec, 6)
    r = solve(x, SolverConfig(mu0=4e-3))
    for rec in r.history:
        assert rec.residual >= 0.0
        assert rec.mu_s_change >= 0.0
        assert rec.y_inf_norm <= 1e-3 + 1e-12
    assert r.history[-1].rank_estimate == 2


def test_gamma_run_beats_nuclear_shrink_bias():
    # same instance, same stopping rule: the bounded penalty should not do
    # worse than the convex baseline on ground-truth error
    spec = SyntheticSpec(m=100, n=100, rank=5, sparsity=0.05)
    x, l_star, s_star = generate_synthetic(spec, 7)
    r_gamma = solve(x)
    r_nuc = solve(x, SolverConfig(lam=scaled_lambda(100, 100), surrogate=nuclear_surrogate()))
    err_gamma = recovery_errors(r_gamma.l, l_star, r_gamma.s, s_star)[0]
    err_nuc = recovery_errors(r_nuc.l, l_star, r_nuc.s, s_star)[0]
    assert r_gamma.converged and r_nuc.converged
    assert err_gamma <= err_nuc + 1e-3


SURROGATES = [pytest.param(gamma_surrogate(), id="gamma"), pytest.param(nuclear_surrogate(), id="nuclear")]


def planted_spectrum(rng, m, n, singulars):
    u = np.linalg.qr(rng.standard_normal((m, len(singulars))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(singulars))))[0]
    return (u * singulars) @ v.T


@pytest.fixture
def svd_calls(monkeypatch):
    """Count calls to ``rpca.linalg.svd``, the L-step's fallback."""
    calls = []
    original = rpca.linalg.svd

    def counted(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(rpca.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("surrogate", SURROGATES)
def test_l_step_matches_full_svd_prox(surrogate, svd_calls):
    # keep-thresholds sqrt(2/mu) (gamma) and 1/mu (nuclear) both sit near 10,
    # inside each planted spectrum
    mu = 0.02 if surrogate.kind == "gamma" else 0.1
    cfg = SolverConfig(surrogate=surrogate)
    rng = np.random.default_rng(31)
    spread = np.linspace(20.0, 1.0, 12)
    deficient = np.concatenate([np.linspace(20.0, 5.0, 5), np.zeros(7)])
    cases = {
        "tall": planted_spectrum(rng, 40, 12, spread),
        "wide": planted_spectrum(rng, 12, 40, spread),
        "square": planted_spectrum(rng, 12, 12, spread),
        "zero": np.zeros((6, 9)),
        "deficient-tall": planted_spectrum(rng, 40, 12, deficient),
        "deficient-wide": planted_spectrum(rng, 12, 40, deficient),
    }
    for name, a in cases.items():
        l, sig, _ = l_step(a, mu, cfg)
        ref = prox_matrix(a, mu, surrogate)
        assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref), name
        assert np.count_nonzero(sig) == np.linalg.matrix_rank(ref), name
    assert svd_calls == []


@pytest.mark.parametrize("surrogate", SURROGATES)
def test_l_step_falls_back_when_kept_values_are_uncertified(surrogate, svd_calls):
    # at mu = 1e11 both keep-thresholds fall below sqrt(delta) of this
    # twelve-decade spectrum, so the Gram spectrum cannot certify the step
    a = planted_spectrum(np.random.default_rng(32), 30, 20, np.logspace(0, -12, 20))
    l, _, _ = l_step(a, 1e11, SolverConfig(surrogate=surrogate))
    assert np.array_equal(l, prox_matrix(a, 1e11, surrogate))
    assert svd_calls == [a.shape]


def test_l_step_falls_back_when_the_eigensolver_fails(monkeypatch, svd_calls):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    cfg = SolverConfig()
    a = planted_spectrum(np.random.default_rng(33), 20, 15, np.linspace(20.0, 1.0, 15))
    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert np.array_equal(l_step(a, 0.02, cfg)[0], prox_matrix(a, 0.02, cfg.surrogate))
    assert svd_calls == [a.shape]


def test_low_rank_route_falls_back_when_the_eigensolver_fails(monkeypatch, svd_calls):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    cfg = SolverConfig()
    a = planted_spectrum(np.random.default_rng(33), 40, 30, np.linspace(20.0, 1.0, 30))
    monkeypatch.setattr(np.linalg, "eigh", fail)
    l, _, route = l_step(a, 0.02, cfg)
    assert route == "svd"
    assert np.array_equal(l, prox_matrix(a, 0.02, cfg.surrogate))
    assert svd_calls == [a.shape]


def test_l_step_rejects_nonfinite_target():
    with pytest.raises(ValueError, match="finite"):
        l_step(np.array([[1.0, np.nan], [0.0, 1.0]]), 1.0, SolverConfig())


SPEC_200 = SyntheticSpec(m=200, n=200, rank=5, sparsity=0.05, magnitude_low=1.0, magnitude_high=10.0)


def planted_200(seed):
    return generate_synthetic(SPEC_200, seed)[0]


def wide_injected_columns(seed):
    rng = np.random.default_rng(seed)
    u1 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    u2 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    return np.hstack([u1 @ rng.standard_normal((3, 190)), u2 @ rng.standard_normal((3, 10))])


# The acceptance instances: the C05 planted 200x200 runs (gamma, l1), the
# C06 nuclear baseline and the C07 l2,1 config on the same instances, and the
# C09 wide injected-column runs.
EQUIVALENCE_CASES = [
    pytest.param(planted_200, SolverConfig(), id="c05-gamma-l1"),
    pytest.param(
        planted_200,
        SolverConfig(lam=scaled_lambda(200, 200), surrogate=nuclear_surrogate()),
        id="c06-nuclear",
    ),
    pytest.param(planted_200, SolverConfig(penalty=COLUMNWISE_L21), id="c07-l21"),
    pytest.param(wide_injected_columns, SolverConfig(mu0=0.05, penalty=COLUMNWISE_L21), id="c09-wide"),
]


@pytest.mark.parametrize("make_x, cfg", EQUIVALENCE_CASES)
def test_solve_matches_full_svd_reference_loop(make_x, cfg, svd_calls):
    for seed in range(5):
        x = make_x(seed)
        r = solve(x, cfg)
        assert svd_calls == [], seed
        l_ref, s_ref, history_ref = reference_solve(x, cfg)
        assert [rec.rank_estimate for rec in r.history] == history_ref, seed
        assert r.history[-1].rank_estimate == rank_estimate(r.l), seed
        assert np.linalg.norm(r.l - l_ref) <= 1e-10 * np.linalg.norm(l_ref), seed
        assert np.linalg.norm(r.s - s_ref) <= 1e-10 * np.linalg.norm(s_ref), seed


@pytest.mark.parametrize("make_x, cfg", EQUIVALENCE_CASES)
def test_kkt_dual_is_a_subgradient_certificate(make_x, cfg):
    # G = mu*(T - L) from the last L-step, checked on T's own np.linalg.svd
    # factors against the subdifferential of F at L: diag(theta) on L's kept
    # singular pairs, nothing across, spectral norm at most theta(0) on the
    # rest; the reported dual figure must be the norm of G + Y
    theta0 = surrogate_gradient(np.zeros(1), cfg.surrogate)[0]
    for seed in range(5):
        x = make_x(seed)
        zero = np.zeros_like(x)
        states = [SolverState(l=zero, s=zero, y=zero, mu=cfg.mu0)]
        records = []
        r = solve(x, cfg, callback=lambda st, rec: (states.append(st), records.append(rec)))
        prev, last, rec = states[-2], states[-1], records[-1]
        t = x - prev.s - prev.y / rec.mu
        g = rec.mu * (t - last.l)
        u, _, vt = np.linalg.svd(t, full_matrices=False)
        sig_l = np.linalg.svd(last.l, compute_uv=False)
        k = int(np.count_nonzero(sig_l > 1e-12 * sig_l[0]))
        assert k == rec.rank_estimate, seed
        uk, vk = u[:, :k], vt[:k].T
        kept = uk.T @ g @ vk
        assert np.abs(kept - np.diag(surrogate_gradient(sig_l[:k], cfg.surrogate))).max() <= 1e-12, seed
        assert np.abs(g @ vk - uk @ kept).max() <= 1e-12, seed
        assert np.abs(uk.T @ g - kept @ vk.T).max() <= 1e-12, seed
        rest = g - uk @ (uk.T @ g) - (g @ vk) @ vk.T + uk @ kept @ vk.T
        assert np.linalg.norm(rest, 2) <= theta0, seed
        residual = np.linalg.norm(g + last.y)
        assert r.kkt_dual * max(1.0, np.linalg.norm(last.y)) == pytest.approx(residual, rel=1e-10), seed
        if cfg.surrogate.kind == "gamma" and cfg.penalty.kind == "l1":
            assert r.kkt_dual <= 1e-3, seed


@pytest.fixture
def ritz_calls(monkeypatch):
    """Count attempts of the Gram-free L-step and the residuals it takes."""
    calls = {"spectrum": 0, "residual": 0}
    spectrum, residual = rpca.linalg.ritz_spectrum, rpca.linalg.ritz_residual

    def counted_spectrum(a):
        calls["spectrum"] += 1
        return spectrum(a)

    def counted_residual(a, r):
        calls["residual"] += 1
        return residual(a, r)

    monkeypatch.setattr(rpca.linalg, "ritz_spectrum", counted_spectrum)
    monkeypatch.setattr(rpca.linalg, "ritz_residual", counted_residual)
    return calls


@pytest.mark.parametrize("surrogate", SURROGATES)
@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
def test_low_rank_route_matches_full_svd_prox(surrogate, tall, svd_calls):
    # rank 3 plus ten columns from a second rank-3 subspace: singular values
    # near 14 and near 3, and keep-thresholds sqrt(2/mu) (gamma) and 1/mu
    # (nuclear) near 8, between the two groups
    mu = 0.03 if surrogate.kind == "gamma" else 0.125
    cfg = SolverConfig(surrogate=surrogate)
    for seed in range(3):
        a = wide_injected_columns(seed)
        a = a.T if tall else a
        l, sig, route = l_step(a, mu, cfg)
        ref = prox_matrix(a, mu, surrogate)
        assert route == "low_rank", seed
        assert np.count_nonzero(sig) == 3, seed
        assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref), seed
    assert svd_calls == []


def test_low_rank_route_falls_through_on_an_entrywise_bulk(ritz_calls):
    # 5% entrywise corruption spreads its energy over all 200 directions, far
    # above the keep-threshold's square, so the tail check fails before the
    # residual is taken and the Gram path gives its own result unchanged
    cfg = SolverConfig()
    a = planted_200(0)
    l, _, route = l_step(a, cfg.mu0, cfg)
    assert route == "gram"
    assert ritz_calls == {"spectrum": 1, "residual": 0}
    assert np.array_equal(l, l_step(a, cfg.mu0, cfg, low_rank=False).l)


def test_low_rank_route_is_tried_at_most_once_when_it_fails(ritz_calls):
    x = generate_synthetic(SyntheticSpec(m=300, n=300, rank=10, sparsity=0.05), 0)[0]
    r = solve(x)
    certified = sum(rec.l_route == "low_rank" for rec in r.history)
    assert r.iterations > 2
    assert ritz_calls["spectrum"] - certified <= 1


def test_low_rank_route_solves_are_bit_identical():
    cfg = SolverConfig(mu0=0.05, penalty=COLUMNWISE_L21)
    x = wide_injected_columns(0)
    first, second = solve(x, cfg), solve(x, cfg)
    assert all(rec.l_route == "low_rank" for rec in first.history)
    assert np.array_equal(first.l, second.l) and np.array_equal(first.s, second.s)
    assert first.history == second.history


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
def test_low_rank_certificate_boundary_on_the_tail(side):
    # three values of order 1e6 over 57 unit values: the bound on the
    # fourth eigenvalue of the Gram matrix, max(theta_4, rest) + rho, lies
    # far above every single unit value. The nuclear prox keeps sigma
    # exactly when sigma > 1/mu, so putting 1/mu just above the bound (plus
    # its rounding slack) certifies the route, and just below it falls
    # through to the Gram path; both give the prox of the full spectrum
    cfg = SolverConfig(surrogate=nuclear_surrogate())
    a = planted_spectrum(np.random.default_rng(34), 60, 120, np.r_[3e6, 2e6, 1e6, np.ones(57)])
    r = rpca.linalg.ritz_spectrum(a)
    tail = max(r.theta[3], r.rest) + rpca.linalg.ritz_residual(a, r) + r.slack
    assert tail > 20.0
    mu = 1.0 / (np.sqrt(tail) * (1.0 - side * 1e-3))
    l, sig, route = l_step(a, mu, cfg)
    ref = prox_matrix(a, mu, cfg.surrogate)
    assert route == ("low_rank" if side < 0 else "gram")
    assert np.count_nonzero(sig) == 3
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


def test_low_rank_route_needs_accurate_kept_values():
    # the boundary instance with its top values 1000x smaller: 1/mu at twice
    # the tail bound certifies the keep/drop decision, but rho (about 3.4)
    # is far above 1e-8 of the smallest kept theta (1e6), so the step falls
    # through to the Gram path
    cfg = SolverConfig(surrogate=nuclear_surrogate())
    a = planted_spectrum(np.random.default_rng(34), 60, 120, np.r_[3e3, 2e3, 1e3, np.ones(57)])
    r = rpca.linalg.ritz_spectrum(a)
    rho = rpca.linalg.ritz_residual(a, r)
    tail = max(r.theta[3], r.rest) + rho + r.slack
    assert rho > 1e-6 * r.theta[2]
    mu = 1.0 / (2.0 * np.sqrt(tail))
    l, sig, route = l_step(a, mu, cfg)
    assert route == "gram"
    assert np.count_nonzero(sig) == 3
    ref = prox_matrix(a, mu, cfg.surrogate)
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)
