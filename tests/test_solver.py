import dataclasses
import json
import weakref

import numpy as np
import pytest

import rpca.solver
import rpca.spectral
from helpers import (
    SURROGATES,
    penalty_value,
    planted_200,
    random_orthonormal,
    reference_lagrangian,
    reference_solve,
    reference_step,
    traced_peak,
    wide_injected_columns,
)
from rpca.matrixio import config_from_params, config_to_params
from rpca.linalg import BLOCK_BYTES
from rpca.solver import (
    IterationRecord,
    SolverConfig,
    SolverState,
    kkt_residuals,
    scaled_lambda,
    solve,
    step,
    working_start,
)
from rpca.sparse import COLUMNWISE_L21, ENTRYWISE_L1, SparsePenalty
from rpca.surrogates import (
    RankSurrogate,
    nuclear_surrogate,
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
    with pytest.raises(ValueError, match="mu0 must be positive"):
        SolverConfig(mu0=0.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=1"):
        solve([1.0, 2.0])


def test_config_rejects_nan_mu_max():
    # NaN fails every comparison, so it must not pass as "not below mu0"
    with pytest.raises(ValueError, match="mu_max must be >= mu0"):
        SolverConfig(mu_max=float("nan"))


@pytest.mark.parametrize("settings", [
    {"lam": np.inf},
    {"mu0": np.inf, "mu_max": np.inf},
    {"rho": np.inf},
    {"mu_max": np.inf},
    {"tol": np.inf},
], ids=["lam", "mu0", "rho", "mu_max", "tol"])
def test_config_rejects_infinite_settings(settings):
    # each passes the comparisons; the first infinite field in order is named
    name = next(iter(settings))
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        SolverConfig(**settings)


@pytest.mark.parametrize("build, message", [
    (lambda: SolverConfig(lam=-np.inf), "lam must be finite"),
    (lambda: SolverConfig(rho=-np.inf), "rho must be finite"),
    (lambda: SolverConfig(mu_max=-np.inf), "mu_max must be finite"),
    (lambda: RankSurrogate("gamma", "0.01"), "gamma must be a real number"),
    (lambda: RankSurrogate("gamma", None), "gamma must be a real number"),
    (lambda: RankSurrogate("gamma", True), "gamma must be a real number"),
    (lambda: SolverConfig(penalty="l21"), "penalty must be a SparsePenalty"),
    (lambda: SolverConfig(surrogate="nuclear"), "surrogate must be a RankSurrogate"),
], ids=["-inf-lam", "-inf-rho", "-inf-mu_max", "str-gamma", "None-gamma", "bool-gamma",
        "str-penalty", "str-surrogate"])
def test_settings_messages(build, message):
    # an infinite setting is named before the range checks; a setting of the
    # wrong type is refused when it is made, not when the solve first uses it
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("max_outer", [float("inf"), 2.5, True], ids=["inf", "2.5", "True"])
def test_config_rejects_a_non_integer_max_outer(max_outer):
    # each passes the ">= 1" check; an infinite budget is echoed as
    # Infinity, which is not JSON, and a bool as true
    with pytest.raises(ValueError, match="^max_outer must be an integer$"):
        SolverConfig(max_outer=max_outer)


def test_config_takes_a_numpy_integer_max_outer_as_an_int():
    # as an int it is echoed to report.json; json cannot write np.int64
    cfg = SolverConfig(max_outer=np.int64(3))
    assert type(cfg.max_outer) is int and cfg.max_outer == 3
    assert solve(np.arange(12.0).reshape(3, 4) + 1.0, cfg).iterations <= 3


@pytest.mark.parametrize("value", [0, 1, float("nan"), "auto", None], ids=["0", "1", "nan", "auto", "None"])
def test_config_auto_scale_is_a_bool(value):
    with pytest.raises(ValueError) as exc:
        SolverConfig(auto_scale=value)
    assert str(exc.value) == "auto_scale must be True or False"


@pytest.mark.parametrize("shape", [(120, 80), (80, 120), (9, 6), (2, 40)])
def test_working_scale_is_the_nearest_power_of_two(shape):
    # from the Ritz estimate, or from the 2-norm where the block would span
    # every column (9x6, 2x40) or its Gram products overflow (1e200) or
    # underflow (1e-200)
    rng = np.random.default_rng(sum(shape))
    cfg = SolverConfig(auto_scale=True)
    for size in (1e-200, 1e-3, 1.0, 1e4, 1e200):
        x = size * (rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1])))
        c = working_start(x, cfg)[0]
        assert c == 2.0 ** round(np.log2(c))
        assert 236.0 / np.sqrt(2.0) <= c * np.linalg.norm(x, 2) <= 236.0 * np.sqrt(2.0) * (1.0 + 1e-9)
    assert working_start(np.zeros(shape), cfg) == (1.0, cfg.mu0, cfg.surrogate.gamma)


def test_the_start_weight_is_mu0_unless_auto_with_gamma_and_l1():
    # only an auto solve with the gamma and l1 penalties reads its start
    # weight off the spectrum (above mu0 = 1e-8 here; see the commute test);
    # a raw solve, and a nuclear or l2,1 solve at auto, start at mu0
    x = generate_synthetic(SyntheticSpec(m=150, n=90, rank=4, sparsity=0.05), 5)[0]
    mu0 = 1e-8
    for cfg in (SolverConfig(mu0=mu0, max_outer=1),
                SolverConfig(mu0=mu0, max_outer=1, surrogate=nuclear_surrogate()),
                SolverConfig(mu0=mu0, max_outer=1, surrogate=nuclear_surrogate(), auto_scale=True),
                SolverConfig(mu0=mu0, max_outer=1, penalty=COLUMNWISE_L21, auto_scale=True)):
        assert solve(x, cfg).history[0].mu == mu0


@pytest.mark.parametrize("cfg, power_steps", [
    (SolverConfig(), 1),
    (SolverConfig(surrogate=nuclear_surrogate()), 0),
    (SolverConfig(penalty=COLUMNWISE_L21), 0),
], ids=["gamma-l1", "nuclear", "l21"])
def test_only_a_raw_gamma_l1_solve_takes_a_power_step_before_its_first_l_step(
    cfg, power_steps, monkeypatch, ritz_calls
):
    # a raw solve reads its start gamma off one power step of X with the
    # gamma and l1 penalties, the ones the walk is mapped for. At max_outer
    # = 1 the one step is taken certified from the start: only the first
    # L-step counts here
    seen = []
    l_step = rpca.spectral.l_step

    def watched(*args):
        seen.append(ritz_calls["attempts"])
        return l_step(*args)

    monkeypatch.setattr(rpca.spectral, "l_step", watched)
    solve(planted_200(0), dataclasses.replace(cfg, max_outer=1))
    assert seen[:1] == [power_steps]


def test_a_walked_solve_stops_only_on_a_step_at_the_configured_gamma():
    # at 4 times the C05 scale the raw solve starts at gamma 7.7, and its
    # residual meets tol while gamma is still 0.12: the solve goes on to the
    # first step at the configured gamma that meets tol
    r = solve(4.0 * planted_200(0))
    tol, gamma = SolverConfig().tol, SolverConfig().surrogate.gamma
    assert r.converged and r.history[0].gamma > 1.0
    assert any(rec.residual <= tol and rec.gamma > gamma for rec in r.history)
    assert r.history[-1].residual <= tol and r.history[-1].gamma == gamma
    assert all(rec.residual > tol for rec in r.history[:-1] if rec.gamma == gamma)


def test_a_raw_solve_far_above_the_band_does_not_walk():
    # at 1e100 times the C05 scale the bulk asks for a start gamma near
    # 1e199, far above sigma_1: the penalty would weigh every value like the
    # nuclear norm, and the halving would outlast max_outer
    r = solve(1e100 * planted_200(0))
    assert [rec.gamma for rec in r.history] == [SolverConfig().surrogate.gamma] * r.iterations


@pytest.mark.parametrize("c", [2.0**-10, 1.0, 2.0**10], ids=["2^-10", "1", "2^10"])
def test_auto_scale_commutes_with_a_power_of_two(c):
    # the auto solve of c*X is c times the auto solve of X, bit for bit:
    # both loops run on the same matrix from the same start weight, and
    # scaling by a power of two is exact. The start weight sits at the floor
    # mu0 = 1e-4 and above the floor mu0 = 1e-8, where the edge reading sets it.
    x = generate_synthetic(SyntheticSpec(m=150, n=90, rank=4, sparsity=0.05), 5)[0]
    for mu0, at_floor in ((1e-4, True), (1e-8, False)):
        cfg = SolverConfig(mu0=mu0, auto_scale=True)
        base = solve(x, cfg)
        assert base.scale == 2.0
        assert (base.history[0].mu == mu0) == at_floor
        raw = solve(base.scale * x, SolverConfig(mu0=base.history[0].mu))
        assert np.array_equal(base.l, raw.l / base.scale) and np.array_equal(base.s, raw.s / base.scale)
        assert base.history == raw.history
        r = solve(c * x, cfg)
        assert r.scale == base.scale / c
        assert np.array_equal(r.l, c * base.l) and np.array_equal(r.s, c * base.s)
        assert r.history == base.history


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
    state = SolverState(l_factors=None, s=zero, y=zero, mu=1.0)
    assert np.array_equal(one_step(zero, state, cfg)[0].l, zero)
    x = np.diag([2.0, 0.0])
    assert np.allclose(one_step(x, state, cfg)[0].l, np.diag([1.0, 0.0]), atol=1e-12)
    # S = X makes the prox target zero
    state_sx = SolverState(l_factors=None, s=x, y=zero, mu=1.0)
    assert np.abs(one_step(x, state_sx, cfg)[0].l).max() <= 1e-15


def test_update_s_cases():
    # the previous S is X, so the L-step's target is zero, L stays zero and
    # the S-step shrinks X itself
    cfg = SolverConfig(lam=0.2)
    zero = np.zeros((1, 1))
    state = SolverState(l_factors=None, s=zero, y=zero, mu=1.0)
    assert np.array_equal(one_step(zero, state, cfg)[0].s, zero)
    x = np.array([[0.5]])
    new, _ = one_step(x, SolverState(l_factors=None, s=x, y=zero, mu=1.0), cfg)
    assert np.array_equal(new.l, zero)
    assert new.s[0, 0] == pytest.approx(0.3)
    cfg21 = SolverConfig(lam=2.0, penalty=COLUMNWISE_L21)
    z2 = np.zeros((2, 1))
    x21 = np.array([[3.0], [4.0]])
    new21, _ = one_step(x21, SolverState(l_factors=None, s=x21, y=z2, mu=1.0), cfg21)
    assert np.array_equal(new21.l, z2)
    assert new21.s.ravel() == pytest.approx([1.8, 2.4])


def test_update_duals_cases():
    cfg = SolverConfig()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3))
    # Y moves by mu times the new pair's residual; mu grows by rho
    state = SolverState(l_factors=None, s=0.5 * x, y=rng.standard_normal((3, 3)), mu=2.0)
    new, rec = one_step(x, state, cfg)
    assert np.allclose(new.y, state.y + 2.0 * (new.l + new.s - x))
    assert new.mu == pytest.approx(2.2) and rec.mu == 2.0
    r = rng.standard_normal((3, 3))
    state2 = SolverState(l_factors=None, s=np.zeros((3, 3)), y=np.zeros((3, 3)), mu=1e-4)
    # at mu = 1e-4 every singular value of X is under the keep-threshold and
    # every entry under lam/mu = 10, so L = S = 0 and Y = mu*(0 + 0 - X)
    new2, _ = one_step(x, state2, cfg)
    assert not new2.l.any() and not new2.s.any()
    assert np.allclose(new2.y, -1e-4 * x)
    assert new2.mu == pytest.approx(1.1e-4)
    # cap saturation
    state3 = SolverState(l_factors=None, s=np.zeros((3, 3)), y=np.zeros((3, 3)), mu=cfg.mu_max)
    assert one_step(x, state3, cfg)[0].mu == cfg.mu_max


def test_lagrangian_cases():
    # the record's Lagrangian is taken at the new pair, the old multiplier
    # and the old mu
    cfg = SolverConfig()
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 4))
    zero = np.zeros((4, 4))
    # at mu = 1e-4 the step returns L = S = 0, so only the quadratic term is left
    new0, rec0 = one_step(x, SolverState(l_factors=None, s=zero, y=zero, mu=1e-4), cfg)
    assert not new0.l.any() and not new0.s.any()
    assert rec0.lagrangian == pytest.approx(0.5e-4 * np.linalg.norm(x) ** 2, rel=1e-14)
    # at mu = 1 the L-step keeps part of X's spectrum
    new1, rec1 = one_step(x, SolverState(l_factors=None, s=zero, y=zero, mu=1.0), cfg)
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
        l_factors=None,
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
    state = SolverState(l_factors=None, s=np.zeros_like(x), y=-(u * theta) @ v.T, mu=1.0)
    assert np.abs(state.y).max() <= cfg.lam
    nxt, record = step(x, state, cfg, float(np.linalg.norm(x)))
    assert np.array_equal(nxt.s, state.s)
    assert np.linalg.norm(nxt.l - x) <= 1e-10 * np.linalg.norm(x)
    assert np.linalg.norm(nxt.y - state.y) <= 1e-10
    primal, dual = kkt_residuals(nxt, record, float(np.linalg.norm(x)))
    assert primal <= 1e-10 and dual <= 1e-12


def test_kkt_residuals_initial_state():
    cfg = SolverConfig()
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 4))
    zero = np.zeros((4, 4))
    state = SolverState(l_factors=None, s=zero, y=zero, mu=cfg.mu0)
    # the zero start has no previous S, so nothing has changed yet
    record = IterationRecord(
        iter=0, residual=1.0, lagrangian=0.0, rank_estimate=0, y_inf_norm=0.0,
        mu=cfg.mu0, mu_s_change=0.0, l_route="gram", gamma=cfg.surrogate.gamma,
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


def test_a_refused_bound_goes_on_and_certifies_a_later_step_in_place(monkeypatch):
    # the solve takes every step once, uncertified. On a step that meets
    # tol it rebuilds the target and runs the Cholesky tail bound on the
    # Ritz spectrum that step's L-step ended on. The first such bound is
    # refused here: the loop then goes on from the uncertified step, as
    # from any inner step, and certifies a later step in place. The C07
    # and C08 per-iteration checks hold along the run
    from helpers import IterationAuditor

    x = planted_200(0)
    cfg = SolverConfig()
    tail_below, real_step = rpca.spectral.gram_tail_below, rpca.solver.step
    refused, taken = [], []

    def refuse_once(b, r, k, c):
        if refused:
            return tail_below(b, r, k, c)
        refused.append(len(taken))
        return False

    def watched(x, state, cfg, norm_x, certify=True, c=1.0):
        nxt, rec = real_step(x, state, cfg, norm_x, certify, c)
        taken.append((rec.iter, certify, nxt.ritz is None, rec.l_route, rec.residual <= cfg.tol))
        return nxt, rec

    monkeypatch.setattr(rpca.spectral, "gram_tail_below", refuse_once)
    monkeypatch.setattr(rpca.solver, "step", watched)
    auditor = IterationAuditor(x, cfg)
    states = []
    r = solve(x, cfg, callback=lambda state, rec: (auditor(state, rec), states.append(state)))
    j = refused[0]
    assert r.converged and len(refused) == 1 and r.iterations > j
    assert taken[j - 1] == (j, False, False, "low_rank", True) and states[j - 1].ritz is not None
    assert taken[-1] == (r.iterations, False, False, "low_rank", True)
    assert [t[0] for t in taken] == [rec.iter for rec in r.history] == list(range(1, r.iterations + 1))
    assert states[-1].ritz is None and states[-1].l is r.l
    assert r.history[-1].residual <= cfg.tol and r.kkt_primal <= cfg.tol and np.isfinite(r.kkt_dual)
    assert auditor.max_y_inf <= cfg.lam + 1e-12
    assert auditor.worst_l_step <= 1e-8 and auditor.worst_s_step <= 1e-8
    assert auditor.worst_identity <= 1e-12


def test_a_bound_below_the_rounding_slack_is_refused_before_the_target_is_rebuilt(monkeypatch):
    # solve takes the in-place bound's shift from the Ritz spectrum alone:
    # a shift that is not positive refuses the bound before the target is
    # rebuilt, and the loop goes on from the uncertified step. Each step
    # takes one first pass, and only the bound that is run rebuilds one
    tail_shift, first_pass = rpca.spectral.tail_shift, rpca.solver._first_pass
    shifts, passes = [], []

    def refuse_once(r, c):
        shifts.append(tail_shift(r, c) if shifts else 0.0)
        return shifts[-1]

    monkeypatch.setattr(rpca.spectral, "tail_shift", refuse_once)
    monkeypatch.setattr(rpca.solver, "_first_pass", lambda *args: passes.append(1) or first_pass(*args))
    r = solve(planted_200(0))
    assert r.converged and len(shifts) == 2 and shifts[1] > 0.0
    assert len(passes) == r.iterations + 1


@pytest.mark.parametrize("max_outer", [500, 4], ids=["converging", "max-outer"])
def test_solve_takes_each_step_once(monkeypatch, max_outer):
    # no step is taken twice: step runs exactly `iterations` times, each
    # from the state the last one returned, and only the step that uses up
    # max_outer is taken with certify=True
    real_step = rpca.solver.step
    calls = []

    def counted(x, state, cfg, norm_x, certify=True, c=1.0):
        calls.append((state.iter, certify))
        return real_step(x, state, cfg, norm_x, certify, c)

    monkeypatch.setattr(rpca.solver, "step", counted)
    r = solve(planted_200(0), SolverConfig(max_outer=max_outer))
    if max_outer == 4:
        assert not r.converged and r.iterations == 4
    else:
        assert r.converged and r.iterations > 4
    assert calls == [(i, i + 1 == max_outer) for i in range(r.iterations)]


def test_a_solve_that_uses_up_max_outer_ends_on_a_certified_step(ritz_calls):
    # the budget's last step is taken certified, as a step that meets tol
    # is certified in place: the returned L and kkt_dual rest on a
    # certified L-step
    states = []
    r = solve(planted_200(0), SolverConfig(max_outer=2), callback=lambda st, rec: states.append(st))
    assert not r.converged and r.iterations == 2
    assert [st.ritz is None for st in states] == [False, True] and states[-1].l is r.l
    assert [rec.l_route for rec in r.history] == ["low_rank"] * 2 and ritz_calls["tails"] == 1


def test_a_solve_whose_record_overflows_does_not_converge():
    # every entry is finite and the first step meets tol, but at this scale
    # ||S - S_prev||_F overflows: the record's mu_s_change, and so the KKT
    # dual, is infinite, and the loop ends on that step unconverged
    x = np.random.default_rng(0).standard_normal((60, 40)) * 1e200
    r = solve(x)
    assert r.history[0].residual <= SolverConfig().tol and r.history[0].mu_s_change == np.inf
    assert not r.converged and r.iterations == 1 and r.kkt_dual == np.inf


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


@pytest.mark.parametrize("build", [
    lambda: SolverConfig(lam=True),
    lambda: RankSurrogate("gamma", True),
], ids=["lam", "gamma"])
def test_settings_reject_a_bool(build):
    # True passes every comparison: it solved with a weight of 1 and was
    # echoed as true
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("settings, name, value", [
    ({"lam": np.float32(1e-3)}, "lam", np.float32(1e-3)),
    ({"tol": np.float16(0.01)}, "tol", np.float16(0.01)),
    ({"surrogate": RankSurrogate("gamma", np.float32(0.01))}, "gamma", np.float32(0.01)),
], ids=["lam-float32", "tol-float16", "gamma-float32"])
def test_settings_keep_a_numpy_scalar_as_a_float(settings, name, value):
    # json cannot write a float32 or float16, so the echo to report.json
    # failed after the solve
    cfg = SolverConfig(**settings)
    got = cfg.surrogate.gamma if name == "gamma" else getattr(cfg, name)
    assert type(got) is float and got == float(value)
    assert config_from_params(json.loads(json.dumps(config_to_params(cfg)))) == cfg


def planted_300_walked(seed):
    return generate_synthetic(SyntheticSpec(300, 300, rank=10, sparsity=0.2), seed)[0]


# The acceptance instances: the C05 planted 200x200 runs (gamma, l1), the
# C06 nuclear baseline and the C07 l2,1 config on the same instances, the
# C09 wide injected-column runs, and a raw 300x300 instance with 20%
# corruption whose gamma walks down from about 2.8.
EQUIVALENCE_CASES = [
    pytest.param(planted_200, SolverConfig(), id="c05-gamma-l1"),
    pytest.param(
        planted_200,
        SolverConfig(lam=scaled_lambda(200, 200), surrogate=nuclear_surrogate()),
        id="c06-nuclear",
    ),
    pytest.param(planted_200, SolverConfig(penalty=COLUMNWISE_L21), id="c07-l21"),
    pytest.param(wide_injected_columns, SolverConfig(mu0=0.05, penalty=COLUMNWISE_L21), id="c09-wide"),
    pytest.param(planted_300_walked, SolverConfig(), id="300x300-walked"),
]


@pytest.mark.parametrize("make_x, cfg", EQUIVALENCE_CASES)
def test_solve_matches_full_svd_reference_loop(make_x, cfg, svd_calls):
    for seed in range(5):
        x = make_x(seed)
        r = solve(x, cfg)
        assert svd_calls == [], seed
        l_ref, s_ref, history_ref = reference_solve(x, cfg, [rec.gamma for rec in r.history])
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
        states = [SolverState(l_factors=None, s=zero, y=zero, mu=cfg.mu0)]
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


@pytest.mark.parametrize("make_x, cfg", EQUIVALENCE_CASES)
def test_record_lagrangian_matches_the_reference_along_the_acceptance_solves(make_x, cfg):
    # the step takes its sums as dot products over R and the l2,1 penalty
    # from the shrink target's column norms; the reference takes F from an
    # SVD of L and the penalty of S itself
    for seed in range(5):
        x = make_x(seed)
        zero = np.zeros_like(x)
        prev = SolverState(l_factors=None, s=zero, y=zero, mu=cfg.mu0)

        def check(state, rec):
            nonlocal prev
            ref = reference_lagrangian(x, state.l, state.s, prev.y, prev.mu, cfg, rec.gamma)
            assert abs(rec.lagrangian - ref) <= 1e-9 * max(1.0, abs(ref)), (seed, rec.iter)
            prev = state

        solve(x, cfg, callback=check)


def bits(a):
    return a.shape, a.tobytes()


def assert_step_matches_reference(x, state, cfg):
    """Take one step and the whole-array reference step from ``state``; they
    must agree to the bit in L, S, Y and every record field."""
    norm_x = float(np.linalg.norm(x))
    got, rec = step(x, state, cfg, norm_x)
    want, ref = reference_step(x, state, cfg, norm_x)
    for name in ("l", "s", "y"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert (got.mu, got.iter) == (want.mu, want.iter)
    assert bits(got.warm_basis) == bits(want.warm_basis)
    assert repr(rec) == repr(ref)
    return got


# Shapes around the step's row blocks of BLOCK_BYTES: a partial last block,
# rows wider than a block (one row per block), one-column matrices taller
# than a block (two blocks) and than two (a full middle block and a partial
# last one), single rows and columns, and empty matrices.
BLOCK_COLUMNS = BLOCK_BYTES // 8
STEP_SHAPES = {
    "partial-last-block": (100, 1000),
    "row-wider-than-a-block": (3, BLOCK_COLUMNS + 7),
    "column-taller-than-a-block": (BLOCK_COLUMNS + 7, 1),
    "column-taller-than-two-blocks": (2 * BLOCK_COLUMNS + 3, 1),
    "one-row": (1, 50),
    "one-column": (50, 1),
    "no-rows": (0, 5),
    "no-columns": (5, 0),
    "empty": (0, 0),
}


@pytest.mark.parametrize("shape", list(STEP_SHAPES.values()), ids=list(STEP_SHAPES))
@pytest.mark.parametrize("penalty", ["l1", "l21"])
@pytest.mark.parametrize("surrogate", SURROGATES)
def test_step_is_bit_identical_to_the_whole_array_step(shape, penalty, surrogate):
    # every seventh entry of X is -0.0, which the l1 shrink must map to +0.0
    # by multiplying in the sign; mu0 = 0.5 puts S's threshold inside the
    # entries' range, so some are kept and some zeroed
    cfg = SolverConfig(lam=1.0, mu0=0.5, surrogate=surrogate, penalty=SparsePenalty(penalty))
    rng = np.random.default_rng(41)
    x = rng.standard_normal(shape) * rng.uniform(0.1, 10.0, shape)
    x.flat[::7] = -0.0
    zero = np.zeros_like(x)
    state = SolverState(l_factors=None, s=zero, y=zero, mu=cfg.mu0)
    for _ in range(4):
        state = assert_step_matches_reference(x, state, cfg)


@pytest.mark.parametrize("make_x, cfg", EQUIVALENCE_CASES)
def test_step_is_bit_identical_along_the_acceptance_solves(make_x, cfg):
    for seed in range(5):
        x = make_x(seed)
        zero = np.zeros_like(x)
        states = []
        r = solve(x, cfg, callback=lambda st, rec: states.append(st))
        states.insert(0, SolverState(l_factors=None, s=zero, y=zero, mu=cfg.mu0, gamma=r.history[0].gamma))
        for state, after in zip(states, states[1:]):
            got = assert_step_matches_reference(x, state, cfg)
            assert bits(got.l) == bits(after.l) and bits(got.s) == bits(after.s), seed


def test_solve_does_not_depend_on_the_layout_of_x():
    # np.linalg.norm sums a Fortran-ordered X in another order, which moved
    # every residual of the history in its last bits; on this instance the
    # two sums differ
    x = np.random.default_rng(2).standard_normal((60, 40))
    assert np.linalg.norm(x) != np.linalg.norm(np.asfortranarray(x))
    c, f = solve(x), solve(np.asfortranarray(x))
    assert bits(c.l) == bits(f.l) and bits(c.s) == bits(f.s)
    assert repr(c.history) == repr(f.history)


@pytest.mark.parametrize("penalty", [ENTRYWISE_L1, COLUMNWISE_L21], ids=["l1", "l21"])
def test_solve_does_not_overwrite_the_states_it_hands_over(penalty):
    x = planted_200(0)
    copies = []
    handed = []

    def snapshot(state):
        return [bits(a) for a in (state.l, state.s, state.y, state.warm_basis)]

    def keep(state, rec):
        handed.append(state)
        copies.append(snapshot(state))

    r = solve(x, SolverConfig(penalty=penalty), callback=keep)
    assert r.iterations > 3
    assert all(isinstance(state.warm_basis, np.ndarray) for state in handed)
    assert any(state.warm_basis.size for state in handed)
    for state, copy in zip(handed, copies):
        assert snapshot(state) == copy, state.iter


def test_step_rejects_a_nonfinite_target_in_a_late_block(ritz_calls, svd_calls):
    # an infinite entry of S in the last row block makes the L-step's target
    # infinite there; the step must raise before the L-step starts, as before
    x = planted_200(0)
    s = np.zeros_like(x)
    s[-1, -1] = np.inf
    state = SolverState(l_factors=None, s=s, y=np.zeros_like(x), mu=1e-4)
    for take in (step, reference_step):
        with pytest.raises(ValueError, match="finite"):
            take(x, state, SolverConfig(), float(np.linalg.norm(x)))
    assert ritz_calls["attempts"] == 0 and svd_calls == []


@pytest.mark.parametrize("penalty", [ENTRYWISE_L1, COLUMNWISE_L21], ids=["l1", "l21"])
def test_step_rejects_a_nonfinite_shrink_target(penalty):
    # T = (1e308 - 1.5e308) + 1e308 is finite, the nuclear prox at
    # mu = 1e-308 drops it, so the shrink's target (1e308 - 0) + 1e308
    # overflows: the same iteration raises in the S-step. The l1 pass
    # checks the target; the l2,1 pass checks its column norms, which are
    # not finite when the target holds a NaN or an infinity
    x = np.array([[1e308]])
    state = SolverState(l_factors=None, s=np.array([[1.5e308]]), y=np.array([[-1.0]]), mu=1e-308)
    cfg = SolverConfig(surrogate=nuclear_surrogate(), penalty=penalty)
    for take, message in ((step, "^an iterate is not finite"), (reference_step, "finite")):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            take(x, state, cfg, 1e308)


# 2000x400, the CLI's tall benchmark shape: the default solve walks its
# gamma down in 10 steps, on the low-rank route
TALL_SPEC = SyntheticSpec(2000, 400, rank=5, sparsity=0.05)


def test_solve_holds_at_most_five_and_a_half_full_size_arrays():
    # S_prev, Y_prev, S (first the L-step's target), the R buffer and
    # Y_next while a step runs: L is carried as its factors, 5.07 X.nbytes
    # on seeds 0-2
    x = generate_synthetic(TALL_SPEC, 0)[0]
    r, peak = traced_peak(solve, x)
    assert r.iterations >= 10
    assert peak <= 5.5 * x.nbytes, peak / x.nbytes


def test_an_auto_solve_holds_at_most_five_and_a_half_full_size_arrays():
    # the raw solve's arrays and no copy of c X: each pass scales its block
    # of X into a block buffer, 5.11 X.nbytes on seeds 0-2
    x = generate_synthetic(TALL_SPEC, 0)[0]
    r, peak = traced_peak(solve, x, SolverConfig(auto_scale=True))
    assert r.iterations >= 9 and r.scale != 1.0
    assert peak <= 5.5 * x.nbytes, peak / x.nbytes


def column_outliers_200x1600(seed):
    """200x1600: 1520 columns from one rank-3 subspace and the last 80 from
    another, scaled to the Gaussian's RMS norm (the column-outlier benchmark
    instance, scaled down)."""
    rng = np.random.default_rng(seed)
    u1 = np.linalg.qr(rng.standard_normal((200, 3)))[0]
    u2 = np.linalg.qr(rng.standard_normal((200, 3)))[0]
    c2 = rng.standard_normal((3, 80))
    c2 *= np.sqrt(3) / np.linalg.norm(c2, axis=0)
    return np.hstack([u1 @ rng.standard_normal((3, 1520)), u2 @ c2])


def test_an_l21_solve_holds_at_most_five_and_a_half_full_size_arrays():
    # the l2,1 pass forms its target from L's factors too: S_prev, Y_prev,
    # S, the R buffer, Y_next and the block buffer, 5.17 X.nbytes on seeds
    # 0-2 (6.15 with a full-size L)
    x = column_outliers_200x1600(0)
    r, peak = traced_peak(solve, x, SolverConfig(mu0=0.005, penalty=COLUMNWISE_L21))
    assert r.converged and r.iterations >= 3
    assert peak <= 5.5 * x.nbytes, peak / x.nbytes


def test_a_square_solve_holds_at_most_five_and_a_half_full_size_arrays(monkeypatch):
    # at 1000x1000 a p x p array is full-size. The last step's target is
    # rebuilt while S_prev and Y_prev are alive, five arrays as in the step
    # itself; the Cholesky bound's G comes once those two are gone, and its
    # factor once the target is gone too. numpy's Cholesky mallocs a work
    # copy of its input where tracemalloc does not see it, so the wrapper
    # holds an array of that size while it runs. S, Y, G, the copy and the
    # factor are then 5.04 X.nbytes, 6.04 with the target alive through the
    # factor; the solve's peak is the step's own, 5.08
    x = generate_synthetic(SyntheticSpec(1000, 1000, rank=10, sparsity=0.05), 1000)[0]
    first_pass, cholesky = rpca.solver._first_pass, np.linalg.cholesky
    targets, collected = [], []

    def rebuilt(*args):
        out = first_pass(*args)
        targets.append(weakref.ref(out[3]))
        return out

    def charged(m):
        collected.append(targets[-1]() is None)
        work = np.empty_like(m)
        factor = cholesky(m)
        del work
        return factor

    monkeypatch.setattr(rpca.solver, "_first_pass", rebuilt)
    monkeypatch.setattr(np.linalg, "cholesky", charged)
    r, peak = traced_peak(solve, x)
    assert r.converged and r.history[-1].l_route == "low_rank"
    assert collected == [True]
    assert peak <= 5.5 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("penalty", [ENTRYWISE_L1, COLUMNWISE_L21], ids=["l1", "l21"])
def test_step_holds_at_most_three_and_a_half_full_size_arrays(penalty):
    # S (first the L-step's target), the R buffer and Y_next, 3.07
    # X.nbytes; the state's arrays exist before, and L is returned as its
    # factors
    x = generate_synthetic(TALL_SPEC, 0)[0]
    state = SolverState(l_factors=None, s=np.zeros_like(x), y=np.zeros_like(x), mu=1e-4)
    _, peak = traced_peak(step, x, state, SolverConfig(penalty=penalty), float(np.linalg.norm(x)))
    assert peak <= 3.5 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("keep_records", [False, True], ids=["no-callback", "records-only"])
def test_solve_lets_go_of_the_arrays_no_step_reads(monkeypatch, keep_records):
    # while step k+1 runs, step k's L factors and the all-zero start are
    # collected when nothing outside the loop keeps them. The last step
    # meets tol uncertified, and its target is rebuilt while the previous
    # S and Y are alive: they are collected before the Cholesky tail bound
    # runs on it, and the step's own factors, S and Y are kept. No
    # full-size L is formed but the result's, from the last step's factors
    x = planted_200(0)
    real_step = rpca.solver.step
    tail_below = rpca.spectral.gram_tail_below
    dense = rpca.spectral.LowRank.dense
    refs = {}
    alive = []
    bounds = []
    formed = []

    def watched(x, state, cfg, norm_x, certify=True, c=1.0):
        if state.iter == 0:
            refs["start"] = weakref.ref(state.s)
        else:
            taken = tuple(ref() is not None for ref in refs["taken"])
            alive.append((state.iter, certify, taken, refs["start"]() is not None))
        refs["prev"] = [weakref.ref(state.s), weakref.ref(state.y)]
        nxt, rec = real_step(x, state, cfg, norm_x, certify, c)
        refs["taken"] = [weakref.ref(a) for a in (*nxt.l_factors, nxt.s, nxt.y)]
        return nxt, rec

    def bound(b, r, k, c):
        bounds.append(tuple(ref() is not None for ref in refs["prev"] + refs["taken"]))
        return tail_below(b, r, k, c)

    def counted(factors):
        formed.append((factors.left, dense(factors)))
        return formed[-1][1]

    monkeypatch.setattr(rpca.solver, "step", watched)
    monkeypatch.setattr(rpca.spectral, "gram_tail_below", bound)
    monkeypatch.setattr(rpca.spectral.LowRank, "dense", counted)
    records = []
    r = solve(x, callback=(lambda state, rec: records.append(rec)) if keep_records else None)
    n = r.iterations
    assert n > 3
    assert alive == [(k, False, (False, False, True, True), False) for k in range(1, n)]
    assert bounds == [(False, False, True, True, True, True)]
    assert len(formed) == 1 and formed[0][0] is refs["taken"][0]() and formed[0][1] is r.l


def test_an_auto_solve_without_a_callback_forms_one_full_size_l(monkeypatch):
    # as in the raw solve above, the one L formed in full is the result's,
    # here divided by the working scale
    dense = rpca.spectral.LowRank.dense
    formed = []
    monkeypatch.setattr(rpca.spectral.LowRank, "dense", lambda f: formed.append(f) or dense(f))
    x = generate_synthetic(SyntheticSpec(m=150, n=90, rank=4, sparsity=0.05), 5)[0]
    r = solve(x, SolverConfig(auto_scale=True))
    assert r.converged and r.scale == 2.0
    assert len(formed) == 1
    assert bits(r.l) == bits(dense(formed[0]) / r.scale)


@pytest.mark.parametrize("make_x, cfg", EQUIVALENCE_CASES[:4])
def test_a_callback_reads_the_whole_product_l_along_the_acceptance_solves(make_x, cfg):
    # state.l is formed by row blocks; on the C05-C09 shapes each block
    # equals the rows of the whole product left @ right to the bit, the L a
    # step formed before L was carried as factors (the low_rank and gram
    # routes built L as that one product). Formed on first access, it is
    # kept. On the raw 300x300 instance the blocks and the whole product
    # differ in the last bits from k = 7 on, so that solve's L and S moved
    # there, with the same iterations and routes
    for seed in range(5):
        x = make_x(seed)
        seen = []

        def read(state, rec):
            f = state.l_factors
            seen.append((rec.l_route, bits(state.l) == bits(f.left @ f.right), state.l is state.l))

        r = solve(x, cfg, callback=read)
        assert [route for route, _, _ in seen] == [rec.l_route for rec in r.history], seed
        assert all(route != "svd" and same and kept for route, same, kept in seen), seed
