"""End-to-end verification gates.

Each test here is one gate, run at its stated tolerance; the suite summary
prints one PASS/FAIL line per gate (see conftest). The heavyweight solver
runs are shared through module-scoped fixtures so each instance is solved
once.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    IterationAuditor,
    central_diff,
    grid_prox_min,
    l1_shrink_oracle,
    l21_shrink_oracle,
    prox_objective,
)
from rpca.cli import main as cli_main
from rpca.matrixio import write_matrix_csv
from rpca.solver import SolverConfig, scaled_lambda, solve, working_start
from rpca.sparse import COLUMNWISE_L21, ENTRYWISE_L1, shrink
from rpca.surrogates import (
    gamma_surrogate,
    nuclear_surrogate,
    prox_vector,
    scalar_penalty,
    surrogate_gradient,
    surrogate_value,
)
from rpca.synthetic import (
    SyntheticSpec,
    anomaly_scores,
    generate_synthetic,
    rank_estimate,
    recovery_errors,
)

SEEDS = (0, 1, 2, 3, 4)
SPEC_200 = SyntheticSpec(m=200, n=200, rank=5, sparsity=0.05,
                         magnitude_low=1.0, magnitude_high=10.0)


@pytest.fixture(scope="module")
def planted_runs():
    """Default-config solves of the five planted 200x200 instances, audited."""
    runs = []
    for seed in SEEDS:
        x, l_star, s_star = generate_synthetic(SPEC_200, seed)
        cfg = SolverConfig()  # lambda 1e-3, mu0 1e-4, rho 1.1, tol 1e-3, gamma 0.01
        auditor = IterationAuditor(x, cfg)
        t0 = time.perf_counter()
        result = solve(x, cfg, callback=auditor)
        elapsed = time.perf_counter() - t0
        runs.append(
            dict(seed=seed, x=x, l_star=l_star, s_star=s_star, cfg=cfg,
                 result=result, auditor=auditor, elapsed=elapsed)
        )
    return runs


def test_c01_prox_attains_grid_search_minimum():
    """DC prox lands on the 1e-6-step grid-search objective minimum, 1000 cases, <10s."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        sigma_a = float(rng.uniform(0.0, 10.0))
        mu = float(rng.uniform(0.1, 100.0))
        s = gamma_surrogate(float(rng.choice([0.01, 0.1, 1.0])))
        out = prox_vector([sigma_a], mu, s)[0]
        gap = prox_objective(out, sigma_a, mu, s)[0] - grid_prox_min(sigma_a, mu, s)
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"worst objective gap {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c02_shrinkage_matches_numeric_minimization():
    """l1 and l21 shrink equal their per-entry / per-column oracles to 1e-8, <5s."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for i in range(100):
        q = rng.standard_normal((5, 5))
        tau = 0.1 if i % 2 == 0 else 1.0
        gap1 = np.abs(shrink(q, tau, ENTRYWISE_L1) - l1_shrink_oracle(q, tau)).max()
        gap21 = np.abs(shrink(q, tau, COLUMNWISE_L21) - l21_shrink_oracle(q, tau)).max()
        assert gap1 <= 1e-8, f"instance {i}: l1 gap {gap1:.3e}"
        assert gap21 <= 1e-8, f"instance {i}: l21 gap {gap21:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_c03_gradient_matches_finite_differences():
    """Penalty gradient vs central differences, rel 1e-5 at 1000 points, <1s."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for gam in (0.01, 1.0):
        s = gamma_surrogate(gam)
        sig = rng.uniform(0.1, 10.0, 1000) + 1e-12
        grad = surrogate_gradient(sig, s)
        fd = central_diff(lambda v: scalar_penalty(v, s), sig)
        rel = np.abs(grad - fd) / np.abs(fd)
        assert rel.max() <= 1e-5, f"gamma={gam}: max rel error {rel.max():.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c04_limit_laws_and_nuclear_prox_exactness():
    """Small gamma counts rank, huge gamma matches the nuclear norm, nuclear
    prox equals the closed-form soft threshold bit for bit."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        binary = rng.integers(0, 2, 30).astype(float)
        assert abs(surrogate_value(binary, gamma_surrogate(1e-6)) - binary.sum()) <= 1e-3
    for _ in range(20):
        sig = rng.uniform(0.0, 10.0, 30)
        err = abs(surrogate_value(sig, gamma_surrogate(1e6)) - sig.sum())
        assert err <= 1e-4 * sig.sum()
    nuc = nuclear_surrogate()
    for _ in range(1000):
        sig_a = rng.uniform(0.0, 10.0, 4)
        mu = float(rng.uniform(0.1, 100.0))
        out = prox_vector(sig_a, mu, nuc)
        expected = np.maximum(sig_a - 1.0 / mu, 0.0)
        assert np.array_equal(out, expected)


def test_c05_planted_recovery(planted_runs):
    """200x200 rank-5, 5% corruption: converge at 1e-3, recover L to 1e-2,
    rank exactly 5, under 60s, on all five seeds."""
    for run in planted_runs:
        r = run["result"]
        assert r.converged, f"seed {run['seed']} did not converge"
        assert r.history[-1].residual <= 1e-3
        l_err = np.linalg.norm(r.l - run["l_star"]) / np.linalg.norm(run["l_star"])
        assert l_err <= 1e-2, f"seed {run['seed']}: recovery error {l_err:.3e}"
        assert rank_estimate(r.l) == 5, f"seed {run['seed']}: rank {rank_estimate(r.l)}"
        assert run["elapsed"] < 60.0, f"seed {run['seed']}: took {run['elapsed']:.1f}s"


def test_c06_rank_advantage_over_nuclear_baseline(planted_runs):
    """Nuclear baseline (same loop and stopping rule, dimension-scaled lambda)
    should report rank >= the bounded penalty's, strictly larger on 4 of 5
    seeds. The fixed lambda cannot be reused for the baseline: it collapses
    the convex run to L = 0."""
    pairs = []
    for run in planted_runs:
        nuclear_cfg = SolverConfig(
            lam=scaled_lambda(SPEC_200.m, SPEC_200.n), surrogate=nuclear_surrogate()
        )
        r_nuc = solve(run["x"], nuclear_cfg)
        assert r_nuc.converged, f"seed {run['seed']}: baseline did not converge"
        pairs.append((rank_estimate(run["result"].l), rank_estimate(r_nuc.l)))
    assert all(nuc >= gam for gam, nuc in pairs), f"rank pairs (gamma, nuclear): {pairs}"
    strict = sum(nuc > gam for gam, nuc in pairs)
    assert strict >= 4, (
        f"strict rank advantage on {strict}/5 seeds; rank pairs (gamma, nuclear): {pairs}. "
        "These planted instances sit inside the convex exact-recovery regime, where the "
        "nuclear baseline also returns exactly the planted rank."
    )


def test_c07_multiplier_stays_bounded(planted_runs):
    """Every iteration: ||Y||_inf <= lambda (l1); column norms <= lambda (l21)."""
    for run in planted_runs:
        lam = run["cfg"].lam
        assert run["auditor"].max_y_inf <= lam + 1e-12, f"seed {run['seed']}"
    for run in planted_runs:
        cfg21 = SolverConfig(penalty=COLUMNWISE_L21)
        auditor = IterationAuditor(run["x"], cfg21)
        solve(run["x"], cfg21, callback=auditor)
        assert auditor.max_y_col <= cfg21.lam + 1e-12, f"seed {run['seed']} (l21)"


def test_c08_descent_feasibility_and_kkt(planted_runs, tmp_path):
    """Half-step Lagrangian descent, the multiplier/residual identity, the
    damped S-step monitor shrinking over the final quartile, primal KKT at
    the tolerance, and the dual KKT figure present in the run report."""
    for run in planted_runs:
        aud = run["auditor"]
        assert aud.worst_l_step <= 1e-8, f"seed {run['seed']}: L-step rose {aud.worst_l_step:.3e}"
        assert aud.worst_s_step <= 1e-8, f"seed {run['seed']}: S-step rose {aud.worst_s_step:.3e}"
        assert aud.worst_identity <= 1e-12, f"seed {run['seed']}: identity {aud.worst_identity:.3e}"
        ms = [rec.mu_s_change for rec in run["result"].history]
        q0 = int(np.floor(0.75 * len(ms)))
        tail = ms[q0:]
        assert all(b < a for a, b in zip(tail, tail[1:])), (
            f"seed {run['seed']}: mu*|dS| not decreasing over final quartile: {tail}"
        )
        assert run["result"].kkt_primal <= 1e-3
        assert np.isfinite(run["result"].kkt_dual)
    # the dual KKT residual lands in every report.json the tool writes
    x = planted_runs[0]["x"]
    write_matrix_csv(tmp_path / "X.csv", x)
    assert cli_main(["decompose", str(tmp_path / "X.csv"), "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert np.isfinite(report["kkt"]["dual"])
    assert report["kkt"]["primal"] <= 1e-3


def test_c09_injected_columns_rank_in_top_14():
    """190 columns from one rank-3 subspace plus 10 from another: the 10
    injected indices sit inside the top 14 column scores, every seed, <30s."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        u1 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
        u2 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
        x = np.hstack([u1 @ rng.standard_normal((3, 190)), u2 @ rng.standard_normal((3, 10))])
        # mu0 puts the spectral keep-threshold between the dominant subspace's
        # singular values (~12) and the injected ones (~3), the regime the
        # column-outlier setup needs; cf. the per-experiment mu0 flag.
        cfg = SolverConfig(mu0=0.05, penalty=COLUMNWISE_L21)
        t0 = time.perf_counter()
        result = solve(x, cfg)
        elapsed = time.perf_counter() - t0
        assert result.converged, f"seed {seed} did not converge"
        scores = anomaly_scores(result.s)
        order = np.argsort(scores)[::-1]
        positions = [int(np.where(order == j)[0][0]) for j in range(190, 200)]
        assert max(positions) < 14, f"seed {seed}: injected ranks {sorted(positions)}"
        assert elapsed < 30.0, f"seed {seed}: took {elapsed:.1f}s"


def test_c10_cli_runs_are_deterministic(tmp_path):
    """synth + decompose twice with the same seed and flags: byte-identical
    matrices, identical report histories."""
    outs = []
    for name in ("first", "second"):
        d = tmp_path / name
        assert cli_main([
            "synth", "--m", "60", "--n", "60", "--rank", "3", "--sparsity", "0.05",
            "--seed", "11", "--outdir", str(d),
        ]) == 0
        assert cli_main(["decompose", str(d / "X.csv"), "--outdir", str(d)]) == 0
        outs.append(d)
    for fname in ("X.csv", "L_star.csv", "S_star.csv", "L.csv", "S.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
    r0 = json.loads((outs[0] / "report.json").read_text())
    r1 = json.loads((outs[1] / "report.json").read_text())
    assert r0["history"] == r1["history"]
    assert r0["params"] == r1["params"]
    assert r0["rank_estimate"] == r1["rank_estimate"]


def spread_instance(seed, m=400, n=400, rank=10, ratio=0.1):
    """Planted singular values ``geomspace(1, ratio, rank) * 0.3 * sqrt(mn)`` on
    random singular vectors, plus 5% entries of +-U(1, 10)."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    l_star = (u * (np.geomspace(1.0, ratio, rank) * 0.3 * np.sqrt(m * n))) @ v.T
    s_star = np.zeros((m, n))
    count = int(round(0.05 * m * n))
    positions = rng.choice(m * n, size=count, replace=False)
    signs = rng.choice(np.array([-1.0, 1.0]), size=count)
    s_star.flat[positions] = signs * rng.uniform(1.0, 10.0, size=count)
    return l_star + s_star, l_star, s_star, rank


def planted(spec, seed):
    return (*generate_synthetic(spec, seed), spec.rank)


# sigma_1(X) from 67 to 979: the raw defaults recover only inside a band of
# sigma_1 whose top lies between about 250 and 1100, depending on shape
AUTO_LADDER = {
    "60x60-c10": lambda: planted(SyntheticSpec(m=60, n=60, rank=3, sparsity=0.05), 11),
    "200x200-seed0": lambda: planted(SPEC_200, 0),
    "1000x200-r20": lambda: planted(SyntheticSpec(m=1000, n=200, rank=20, sparsity=0.05), 1),
    "2000x400-seed0": lambda: planted(SyntheticSpec(m=2000, n=400, rank=5, sparsity=0.05), 0),
    "2000x400-seed1": lambda: planted(SyntheticSpec(m=2000, n=400, rank=5, sparsity=0.05), 1),
    "400x400-spread": lambda: spread_instance(0),
}


@pytest.mark.parametrize("make", list(AUTO_LADDER.values()), ids=list(AUTO_LADDER))
def test_auto_scale_ladder_recovers(make):
    """auto_scale with every other setting at its default: converged, the
    planted rank, L to 1e-2, support F1 >= 0.99, and no thin-SVD L-step."""
    x, l_star, s_star, rank = make()
    r = solve(x, SolverConfig(auto_scale=True))
    l_err, _, f1 = recovery_errors(r.l, l_star, r.s, s_star)
    assert r.converged
    assert rank_estimate(r.l) == rank, f"rank {rank_estimate(r.l)} (c = {r.scale:g})"
    assert l_err <= 1e-2, f"l_err {l_err:.3e} (c = {r.scale:g})"
    assert f1 >= 0.99, f"support F1 {f1:.4f} (c = {r.scale:g})"
    assert "svd" not in {rec.l_route for rec in r.history}


# raw default solves whose first keep-threshold sqrt(2(1+gamma)/mu0), about
# 142, lies below START_KAPPA times the sparse part's bulk edge (about 85
# here): without the gamma walk the first dual steps push the bulk into L, and
# the 2000x400 solves end at rank 81 and 79 with converged=True, while the
# 1000x1000 one recovers in 15 steps, 10 of them on the gram route
RAW_WALKS = {
    "2000x400-seed0": (SyntheticSpec(m=2000, n=400, rank=5, sparsity=0.05), 0),
    "2000x400-seed1": (SyntheticSpec(m=2000, n=400, rank=5, sparsity=0.05), 1),
    "1000x1000-seed1000": (SyntheticSpec(m=1000, n=1000, rank=10, sparsity=0.05), 1000),
}


@pytest.mark.parametrize("name", list(RAW_WALKS))
def test_raw_gamma_walk_recovers_in_at_most_10_low_rank_steps(name):
    """Raw solves at the default settings, recovered as in the ladder gate,
    in at most 10 iterations, each on the low_rank route, while the records'
    gamma halves from above 0.01 down to exactly 0.01 on the last step."""
    spec, seed = RAW_WALKS[name]
    x, l_star, s_star = generate_synthetic(spec, seed)
    r = solve(x)
    l_err, _, f1 = recovery_errors(r.l, l_star, r.s, s_star)
    assert r.converged and r.iterations <= 10, f"{r.iterations} iterations"
    assert rank_estimate(r.l) == spec.rank, f"rank {rank_estimate(r.l)}"
    assert l_err <= 1e-2 and f1 >= 0.99, f"l_err {l_err:.3e}, F1 {f1:.4f}"
    assert [rec.l_route for rec in r.history] == ["low_rank"] * r.iterations
    gammas = [rec.gamma for rec in r.history]
    assert gammas[0] > 0.01 and gammas[-1] == 0.01, gammas
    assert all(b == max(a / 2, 0.01) for a, b in zip(gammas, gammas[1:])), gammas


@pytest.mark.parametrize("name", ["2000x400-seed0", "1000x1000-seed1000"])
def test_raw_walk_factors_one_cholesky_per_solve(name, ritz_calls):
    """Two raw-walk instances, recovered as in the gate: the solve's inner
    L-steps accept their accurate kept values without the Cholesky tail
    bound, so one Cholesky runs per solve, on the step the solve returns
    (ten, one per step, when every step was certified)."""
    spec, seed = RAW_WALKS[name]
    x, l_star, s_star = generate_synthetic(spec, seed)
    events = ritz_calls["events"]
    marks = [0]
    r = solve(x, callback=lambda state, rec: marks.append(len(events)))
    l_err, _, f1 = recovery_errors(r.l, l_star, r.s, s_star)
    assert r.converged and rank_estimate(r.l) == spec.rank, f"rank {rank_estimate(r.l)}"
    assert l_err <= 1e-2 and f1 >= 0.99, f"l_err {l_err:.3e}, F1 {f1:.4f}"
    tails = [i for i, e in enumerate(events) if e[0] == "tail"]
    assert len(tails) == 1, f"{len(tails)} Cholesky tail checks"
    assert marks[-2] <= tails[0] < marks[-1] and events[tails[0]][3]


def test_auto_scale_keeps_the_exact_rank_4_product():
    """The uncorrupted rank-4 20x20 product at mu0=1e-2: raw, sigma_4 = 12.5
    falls below the first keep-threshold sqrt(2/mu0) = 14.1 and the run
    converges at rank 3 with S holding the rest; at c = 8 the first step
    keeps all four and S stays 0."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 20))
    r = solve(x, SolverConfig(mu0=1e-2, auto_scale=True))
    assert r.scale == 8.0 and r.converged and r.iterations == 1
    assert rank_estimate(r.l) == 4
    assert np.linalg.norm(r.l - x) <= 1e-6 * np.linalg.norm(x)
    assert not r.s.any()


def rank_4_product():
    """The uncorrupted rank-4 20x20 product of the test above."""
    rng = np.random.default_rng(3)
    return (rng.standard_normal((20, 4)) @ rng.standard_normal((4, 20)),)


START_CASES = {**AUTO_LADDER, "zero": lambda: (np.zeros((40, 30)),), "rank-4-product": rank_4_product}


@pytest.mark.parametrize("name", list(START_CASES))
def test_auto_start_weight_lies_between_mu0_and_mu_max(name):
    """The start weight an auto solve reads off the first power step is
    never below mu0 (so the first keep-threshold is never above the raw
    one) nor above mu_max, and the solve starts from it. The exact product
    leaves no energy outside the power step's block, but the edge is never
    taken below its largest entry, so it does not reach mu_max either."""
    x = START_CASES[name]()[0]
    cfg = SolverConfig(auto_scale=True)
    mu = working_start(x, cfg)[1]
    assert cfg.mu0 <= mu < cfg.mu_max
    assert solve(x, replace(cfg, max_outer=1)).history[0].mu == mu


@pytest.mark.parametrize("seed", [0, 1])
def test_auto_start_recovers_2000x400_in_at_most_10_iterations(seed):
    """The 2000x400 rank-5 rungs at auto: recovered as in the ladder gate,
    in at most 10 iterations (19 from the fixed start mu0 = 1e-4)."""
    x, l_star, s_star = generate_synthetic(SyntheticSpec(m=2000, n=400, rank=5, sparsity=0.05), seed)
    r = solve(x, SolverConfig(auto_scale=True))
    l_err, _, f1 = recovery_errors(r.l, l_star, r.s, s_star)
    assert r.converged and r.iterations <= 10, f"{r.iterations} iterations"
    assert rank_estimate(r.l) == 5 and l_err <= 1e-2 and f1 >= 0.99


# corruption sparser than the ladder's 5%: the few spikes of the first two
# (4 and 8) lie inside the power step's block with the planted rank and leave
# no tail, and the other two leave a tail of a few spikes, not a bulk
SPARSE_SPIKES = {
    "200x200-r2-4-spikes": (SyntheticSpec(m=200, n=200, rank=2, sparsity=1e-4), 0),
    "2000x400-r5-8-spikes": (SyntheticSpec(m=2000, n=400, rank=5, sparsity=1e-5), 1),
    "200x200-r5-40-spikes": (SyntheticSpec(m=200, n=200, rank=5, sparsity=1e-3), 0),
    "2000x400-r5-80-spikes": (SyntheticSpec(m=2000, n=400, rank=5, sparsity=1e-4), 1),
}


@pytest.mark.parametrize("name", list(SPARSE_SPIKES))
def test_auto_start_recovers_sparse_spikes(name):
    """Sparse spikes at auto, recovered as in the ladder gate: the start
    weight must not let the first L-step keep the spikes with L."""
    spec, seed = SPARSE_SPIKES[name]
    x, l_star, s_star = generate_synthetic(spec, seed)
    r = solve(x, SolverConfig(auto_scale=True))
    l_err, _, f1 = recovery_errors(r.l, l_star, r.s, s_star)
    assert r.converged and rank_estimate(r.l) == spec.rank
    assert l_err <= 1e-2 and f1 >= 0.99, f"l_err {l_err:.3e}, F1 {f1:.4f}"
