import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rpca.spectral
from helpers import (
    SURROGATES,
    planted_200,
    planted_spectrum,
    prox_matrix,
    tail_reference,
    traced_peak,
    wide_injected_columns,
)
from rpca.linalg import row_blocks, svd
from rpca.solver import SolverConfig, scaled_lambda, solve, working_start
from rpca.sparse import COLUMNWISE_L21
from rpca.spectral import (
    GRAM_ERROR_FACTOR,
    KEPT_REL_ERROR,
    RITZ_BLOCK,
    RITZ_STEPS,
    COLD,
    WARM_BLOCK,
    WARM_RANK_DIVISOR,
    _certified_route,
    _largest_dropped,
    l_step,
    ritz_iterations,
)
from rpca.surrogates import gamma_surrogate, nuclear_surrogate, prox_vector
from rpca.synthetic import SyntheticSpec, generate_synthetic


def dense_l_step(*args):
    """``l_step(*args)`` unpacked, with L formed in full in place of its factors."""
    step = l_step(*args)
    return step.l_factors.dense(), step.proxed, step.route, step.basis


def test_gram_spectrum_matches_svd():
    # p <= 16, so a cold start takes no power step and the walk takes the
    # gram route. The nuclear prox at mu
    # = 1e6 keeps every value above 1e-6, so all of these: the square roots
    # of its theta match the singular values to delta in theta, and its
    # kept vectors are orthonormal
    rng = np.random.default_rng(9)
    nuclear = nuclear_surrogate()
    eps = np.finfo(np.float64).eps
    for shape in [(7, 4), (4, 7), (5, 5), (0, 3)]:
        m = rng.standard_normal(shape)
        b = m if shape[0] >= shape[1] else m.T
        (w, singulars, _), route, ritz = _certified_route(b, 1e6, nuclear, COLD)
        k = min(shape)
        assert route == "gram" and ritz is None
        assert w.shape == (b.shape[1], k) and singulars.shape == (k,)
        assert np.all(np.diff(singulars) <= 0) and np.all(singulars >= 0)
        delta = GRAM_ERROR_FACTOR * b.shape[0] * eps * singulars.max(initial=0.0) ** 2
        assert np.abs(singulars**2 - svd(m).singulars**2).max(initial=0.0) <= delta
        assert np.abs(w.T @ w - np.eye(k)).max(initial=0.0) <= 1e-12
    # delta is 0 on the zero matrix: a tail of any positive double has a
    # square root above 1e-300, which the prox at mu = 1e300 keeps, so only
    # delta = 0 certifies dropping both values
    (w, singulars, sig), route, ritz = _certified_route(np.zeros((3, 2)), 1e300, nuclear, COLD)
    assert route == "gram" and ritz is None and w.shape == (2, 0)
    assert not singulars.any() and not sig.any()


def test_gram_spectrum_overflow_falls_to_svd():
    # B^T B overflows, so the spectrum is not finite and the walk names svd
    assert _certified_route(np.full((3, 2), 1e200), 1.0, gamma_surrogate(), COLD) == (None, "svd", None)


def test_ritz_overflow_is_linalg_error():
    # ||B||_F^2 overflows while the eigensolver on the Ritz block still succeeds
    b = np.random.default_rng(0).standard_normal((1000, 800)) * 2e151
    with pytest.raises(np.linalg.LinAlgError) as exc:
        next(ritz_iterations(b))
    assert str(exc.value) == "Gram products of a 1000x800 matrix are not finite"


def test_gram_tail_below_a_tiny_bound_skips_the_factorization(monkeypatch):
    # a bound below the rounding slack is refused before anything is
    # factored or B^T B is formed. On a rank-3 target the Ritz values past
    # the third are 0, so the nuclear prox at mu = 1e300 keeps three and
    # drops the rest at c = 0: the walk's certified attempt refuses its
    # shift, factors nothing and forms one G, the gram route's own. A bound
    # that is factored holds two p x p arrays at once, B^T B and, in turn,
    # the rank-k product subtracted into it and the factor
    b = np.zeros((40, 30))
    b[:, :3] = np.random.default_rng(4).standard_normal((40, 3))
    square = 30 * 30 * 8
    tail_shift, gram, cholesky = rpca.spectral.tail_shift, rpca.spectral.gram, np.linalg.cholesky
    shifts, grams, calls = [], [], []
    monkeypatch.setattr(rpca.spectral, "tail_shift", lambda r, c: shifts.append(tail_shift(r, c)) or shifts[-1])
    monkeypatch.setattr(rpca.spectral, "gram", lambda a: grams.append(a.shape) or gram(a))
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m.shape) or cholesky(m))
    _certified_route(b, 1e300, nuclear_surrogate(), COLD)
    assert len(shifts) == 1 and shifts[0] <= 0.0
    assert calls == [] and grams == [(40, 30)]
    r = next(ritz_iterations(b))
    _, peak = traced_peak(lambda: rpca.spectral.gram_tail_below(gram(b), r, 3, tail_shift(r, 1e6)))
    assert calls == [(30, 30)] and peak >= 2 * square


@pytest.mark.parametrize("surrogate", [gamma_surrogate(), nuclear_surrogate()], ids=["gamma", "nuclear"])
@pytest.mark.parametrize("lo, hi", [(0.0, 1e6), (3.0, 50.0), (0.0, 1e150)])
def test_largest_dropped_is_exact_to_the_last_bit(surrogate, lo, hi):
    # the keep-thresholds at mu = 0.05, about 6.35 (gamma) and 20 (nuclear),
    # lie in every interval; from 1e150 the bisection needs about 550
    # halvings to reach them
    d = _largest_dropped(lo, hi, 0.05, surrogate)
    assert prox_vector(d, 0.05, surrogate)[0] == 0.0
    assert prox_vector(np.nextafter(d, np.inf), 0.05, surrogate)[0] > 0.0


@pytest.mark.parametrize("offset", [0.5, 1.5], ids=["inside", "outside"])
@pytest.mark.parametrize("value", ["dropped", "kept"])
def test_gram_certificate_boundary(value, offset):
    # the nuclear prox keeps sigma exactly when sigma > 1/mu. Put 1/mu^2 at
    # lambda_6 +- offset*delta, above lambda_6 when it is to be dropped and
    # below when kept: half a delta from it the error interval
    # [lambda_6 - delta, lambda_6 + delta] straddles the threshold and the
    # step falls to the SVD; one and a half deltas away it does not, and the
    # Gram spectrum is certified
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(38), 40, 12, np.linspace(20.0, 1.0, 12))
    lam = np.linalg.eigh(a.T @ a)[0][::-1]  # the walk's theta: a is tall, and none is negative
    delta = GRAM_ERROR_FACTOR * a.shape[0] * np.finfo(np.float64).eps * lam[0]
    sign = 1.0 if value == "dropped" else -1.0
    mu = 1.0 / np.sqrt(lam[5] + sign * offset * delta)
    l, sig, route, _ = dense_l_step(a, mu, nuclear)  # p = 12: a cold start takes no power step
    ref = prox_matrix(a, mu, nuclear)
    assert route == ("svd" if offset < 1.0 else "gram")
    if route == "gram":
        assert np.count_nonzero(sig) == (5 if value == "dropped" else 6)
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


def test_warm_basis_rule(ritz_calls):
    # five values of order 1e6 kept over 55 unit values, p = 60: more than
    # p / WARM_RANK_DIVISOR = 3. A certified step hands on its five kept
    # vectors, and the walk never steps a basis of more than three columns:
    # the next step from them, like one from a p-column basis, takes gram
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(39), 60, 120, np.r_[5e6, 4e6, 3e6, 2e6, 1e6, np.ones(55)])
    assert 5 * WARM_RANK_DIVISOR > 60
    low = l_step(a, 1e-3, nuclear)
    assert (low.route, low.basis.shape) == ("low_rank", (60, 5))
    steps = ritz_calls["steps"]
    warm = l_step(a, 1e-3, nuclear, low.basis)
    full = l_step(a, 1e-3, nuclear, np.eye(60))
    assert ritz_calls["steps"] == steps
    assert (warm.route, warm.basis.shape) == (full.route, full.basis.shape) == ("gram", (60, 5))
    assert np.array_equal(warm.l_factors.dense(), full.l_factors.dense())
    ref = prox_matrix(a, 1e-3, nuclear)
    for step in (low, warm):
        assert np.linalg.norm(step.l_factors.dense() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("surrogate", SURROGATES)
def test_l_step_matches_full_svd_prox(surrogate, svd_calls):
    # keep-thresholds sqrt(2/mu) (gamma) and 1/mu (nuclear) both sit near 10,
    # inside each planted spectrum
    mu = 0.02 if surrogate.kind == "gamma" else 0.1
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
        l, sig, _, _ = dense_l_step(a, mu, surrogate)
        ref = prox_matrix(a, mu, surrogate)
        assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref), name
        assert np.count_nonzero(sig) == np.linalg.matrix_rank(ref), name
    assert svd_calls == []


@pytest.mark.parametrize("surrogate", SURROGATES)
def test_l_step_falls_back_when_kept_values_are_uncertified(surrogate, svd_calls):
    # at mu = 1e11 both keep-thresholds fall below sqrt(delta) of this
    # twelve-decade spectrum, so the Gram spectrum cannot certify the step
    a = planted_spectrum(np.random.default_rng(32), 30, 20, np.logspace(0, -12, 20))
    l, _, _, _ = dense_l_step(a, 1e11, surrogate)
    assert np.array_equal(l, prox_matrix(a, 1e11, surrogate))
    assert svd_calls == [a.shape]


def test_l_step_falls_back_when_the_eigensolver_fails(monkeypatch, svd_calls):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    surrogate = gamma_surrogate()
    a = planted_spectrum(np.random.default_rng(33), 20, 15, np.linspace(20.0, 1.0, 15))
    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert np.array_equal(l_step(a, 0.02, surrogate).l_factors.dense(), prox_matrix(a, 0.02, surrogate))
    assert svd_calls == [a.shape]


def test_low_rank_route_falls_back_when_the_eigensolver_fails(monkeypatch, svd_calls):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    surrogate = gamma_surrogate()
    a = planted_spectrum(np.random.default_rng(33), 40, 30, np.linspace(20.0, 1.0, 30))
    monkeypatch.setattr(np.linalg, "eigh", fail)
    l, _, route, _ = dense_l_step(a, 0.02, surrogate)
    assert route == "svd"
    assert np.array_equal(l, prox_matrix(a, 0.02, surrogate))
    assert svd_calls == [a.shape]


def counts(calls):
    return calls["attempts"], calls["steps"], calls["tails"]


@pytest.mark.parametrize("surrogate", SURROGATES)
@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
def test_low_rank_route_matches_full_svd_prox(surrogate, tall, svd_calls):
    # rank 3 plus ten columns from a second rank-3 subspace: singular values
    # near 14 and near 3, and keep-thresholds sqrt(2/mu) (gamma) and 1/mu
    # (nuclear) near 8, between the two groups
    mu = 0.03 if surrogate.kind == "gamma" else 0.125
    for seed in range(3):
        a = wide_injected_columns(seed)
        a = a.T if tall else a
        l, sig, route, _ = dense_l_step(a, mu, surrogate)
        ref = prox_matrix(a, mu, surrogate)
        assert route == "low_rank", seed
        assert np.count_nonzero(sig) == 3, seed
        assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref), seed
    assert svd_calls == []


def test_low_rank_route_certifies_an_entrywise_bulk(ritz_calls):
    # 5% entrywise corruption spreads its energy over all 200 directions, far
    # above the keep-threshold's square, so the trace outside the block
    # bounds nothing. The power steps converge on the five planted values
    # (the residual falls about 25x per step) and the Cholesky tail bound
    # certifies the step
    cfg = SolverConfig()
    a = planted_200(0)
    l, sig, route, basis = dense_l_step(a, cfg.mu0, cfg.surrogate)
    ref = prox_matrix(a, cfg.mu0, cfg.surrogate)
    assert route == "low_rank"
    assert ritz_calls["attempts"] == 1 and ritz_calls["tails"] == 1
    assert np.count_nonzero(sig) == 5 and basis.shape == (200, 5)
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


def flat_bulk():
    return planted_spectrum(np.random.default_rng(36), 60, 120, np.r_[10.0, 9.9, 9.8, np.full(57, 9.6)])


@pytest.mark.parametrize(
    "target, mu, surrogate, route",
    [
        pytest.param(
            lambda: planted_200(0), SolverConfig().mu0, SolverConfig().surrogate, "low_rank", id="cholesky"
        ),
        pytest.param(flat_bulk, 1.0 / 9.7, nuclear_surrogate(), "gram", id="gram-after-two-steps"),
    ],
)
def test_the_gram_matrix_is_released_before_l_is_rebuilt(monkeypatch, target, mu, surrogate, route):
    # every G the step forms, in the Cholesky tail check or the gram route
    # (the power steps form none), is dead by its last product with the
    # target, the rebuild's B W_k: the memory traced from the step's start
    # is then below one p x p array, though the step held at least one
    # before it
    a = target()
    square = min(a.shape) ** 2 * 8
    seen = []
    times = rpca.spectral._times

    def watched_times(m, y):
        seen.append(tracemalloc.get_traced_memory())
        return times(m, y)

    def stepped():
        seen.append(tracemalloc.get_traced_memory())
        return l_step(a, mu, surrogate)

    monkeypatch.setattr(rpca.spectral, "_times", watched_times)
    step, _ = traced_peak(stepped)
    (start, _), (current, peak) = seen[0], seen[-1]
    assert step.route == route
    assert peak - start >= square and current - start < square


def test_low_rank_route_falls_through_on_a_flat_bulk(ritz_calls):
    # three values over 57 at 9.6, and the nuclear keep-threshold 1/mu = 9.7
    # just above that bulk: the kept block's residual falls by a few percent
    # per power step, so the attempt gives up after two steps, and the Gram
    # path gives its own result unchanged
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(36), 60, 120, np.r_[10.0, 9.9, 9.8, np.full(57, 9.6)])
    mu = 1.0 / 9.7
    l, sig, route, _ = dense_l_step(a, mu, nuclear)
    assert route == "gram" and np.count_nonzero(sig) == 3
    assert np.array_equal(l, l_step(a, mu, nuclear, np.eye(60)).l_factors.dense())  # a p-column basis is never stepped
    assert counts(ritz_calls) == (1, 2, 0)


def test_low_rank_route_gate_and_the_cost_of_failed_attempts(ritz_calls):
    # a step tries the route on the first iteration or after a step that
    # kept at most p/20 values, and nowhere else. An
    # attempt takes at most RITZ_STEPS power steps and at most one Cholesky,
    # and only once the kept block's residual meets KEPT_REL_ERROR. With 20%
    # corruption the nuclear baseline's kept rank climbs to 83 and back,
    # past p/20 = 15; a raw nuclear solve takes no power step before its
    # first L-step. No step is taken twice: the step the solve ends on is
    # certified in place, so every window holds at most one attempt
    x = generate_synthetic(SyntheticSpec(m=300, n=300, rank=10, sparsity=0.2), 0)[0]
    events = ritz_calls["events"]
    marks = [0]
    cfg = SolverConfig(lam=scaled_lambda(300, 300), mu0=1e-2, surrogate=nuclear_surrogate())
    r = solve(x, cfg, callback=lambda st, rec: marks.append(len(events)))
    prev = None
    tried = failed = calls = 0
    for rec, start, stop in zip(r.history, marks, marks[1:]):
        window = events[start:stop]
        gate = prev is None or prev.rank_estimate * WARM_RANK_DIVISOR <= 300
        assert (window[:1] == [("attempt",)]) == gate, rec.iter
        starts = [i for i, e in enumerate(window) if e[0] == "attempt"]
        assert len(starts) <= gate, rec.iter
        for i, j in zip(starts, starts[1:] + [len(window)]):
            attempt = window[i:j]
            steps = [e[1] for e in attempt if e[0] == "step"]
            tails = [e for e in attempt if e[0] == "tail"]
            assert len(steps) <= RITZ_STEPS and len(tails) <= 1, rec.iter
            for _, it, k, _ in tails:
                # in place, the bound reads the spectrum with its vectors cut to the k kept
                assert it.theta is steps[-1].theta, rec.iter
                assert np.linalg.norm(it.residuals[:k]) + it.slack <= KEPT_REL_ERROR * it.theta[k - 1]
        tried += gate
        calls += len(starts)
        failed += gate and rec.l_route != "low_rank"
        prev = rec
    certified = sum(rec.l_route == "low_rank" for rec in r.history)
    assert certified >= 2 and failed >= 1 and tried < r.iterations
    assert ritz_calls["attempts"] == calls


def test_a_warm_attempt_adds_warm_block_columns_to_the_kept_vectors(ritz_calls):
    # a cold attempt, working_start's power step and the first L-step's,
    # starts from RITZ_BLOCK Gaussian columns; every later attempt from the
    # last step's kept vectors plus WARM_BLOCK. An attempt's first power
    # step has as many Ritz vectors as its start block has columns. Every
    # step of the raw 2000x400 solve takes low_rank, and the step it ends
    # on is certified in place, so it takes one attempt like the others
    x = generate_synthetic(SyntheticSpec(2000, 400, rank=5, sparsity=0.05), 0)[0]
    events = ritz_calls["events"]
    marks, kept = [0], []

    def seen(state, rec):
        marks.append(len(events))
        kept.append(state.warm_basis.shape[1])

    r = solve(x, callback=seen)
    assert r.converged and all(rec.l_route == "low_rank" for rec in r.history)
    widths = []
    for start, stop in zip(marks, marks[1:]):
        window = events[start:stop]
        widths.append([
            window[i + 1][1].vectors.shape[1] for i, e in enumerate(window) if e[0] == "attempt"
        ])
    assert widths[0] == [RITZ_BLOCK, RITZ_BLOCK]
    for prev, width in zip(kept, widths[1:]):
        assert width and set(width) == {prev + WARM_BLOCK if prev else RITZ_BLOCK}, (prev, width)
    assert len(widths[-1]) == 1 and sum(map(len, widths)) == ritz_calls["attempts"]
    assert sum(k > 0 for k in kept[:-1]) >= 5


def test_low_rank_route_solves_are_bit_identical(ritz_calls):
    cfg = SolverConfig(mu0=0.05, penalty=COLUMNWISE_L21)
    x = wide_injected_columns(0)
    first, second = solve(x, cfg), solve(x, cfg)
    assert all(rec.l_route == "low_rank" for rec in first.history)
    assert np.array_equal(first.l, second.l) and np.array_equal(first.s, second.s)
    assert first.history == second.history
    # every step is certified by the trace bound at its first power step,
    # which forms no G
    assert ritz_calls["steps"] == ritz_calls["attempts"] and ritz_calls["tails"] == 0


def first_l_step_weights(spec, seed):
    """The raw instance ``(spec, seed)``, the first target of its solve, and the
    weight and surrogate that solve's first L-step takes."""
    x = generate_synthetic(spec, seed)[0]
    _, mu, gamma = working_start(x, SolverConfig())
    return x, mu, gamma_surrogate(gamma)


@pytest.mark.parametrize(
    "spec, seed",
    [
        pytest.param(SyntheticSpec(1000, 1000, rank=10, sparsity=0.05), 1000, id="1000x1000"),
        pytest.param(SyntheticSpec(2000, 400, rank=5, sparsity=0.05), 0, id="2000x400"),
    ],
)
def test_certified_and_uncertified_attempts_take_the_same_power_steps(spec, seed, ritz_calls):
    # a certified and an uncertified attempt differ only in the Cholesky
    # bound on their last step, so on the first L-step of a raw solve,
    # which keeps the planted rank after several power steps and passes
    # that bound, both take the same steps to the bit. The uncertified
    # step's ritz is its last power step, its vectors cut to the kept ones
    # (the basis), and the bound holds on it
    x, mu, surrogate = first_l_step_weights(spec, seed)
    events = ritz_calls["events"]
    start = len(events)
    free = l_step(x, mu, surrogate, certify=False)
    middle = len(events)
    proved = l_step(x, mu, surrogate)
    free_steps = [e[1] for e in events[start:middle] if e[0] == "step"]
    proved_steps = [e[1] for e in events[middle:] if e[0] == "step"]
    assert (free.route, free.ritz is None) == ("low_rank", False) and len(free_steps) > 1
    assert (proved.route, proved.ritz is None) == ("low_rank", True)
    assert not any(e[0] == "tail" for e in events[start:middle])
    assert [e[0] for e in events[middle:]].count("tail") == 1
    assert len(free_steps) == len(proved_steps)
    assert all(np.array_equal(f.theta, p.theta) for f, p in zip(free_steps, proved_steps))
    assert np.count_nonzero(free.proxed) == np.count_nonzero(proved.proxed) == spec.rank
    assert np.array_equal(free.l_factors.dense(), proved.l_factors.dense()) and np.array_equal(free.basis, proved.basis)
    assert free.ritz.theta is free_steps[-1].theta and free.ritz.vectors is free.basis
    assert proved.ritz is None
    shift = rpca.spectral.tail_shift(free.ritz, rpca.spectral.prox_tail(free.ritz, spec.rank, mu, surrogate))
    assert shift > 0.0 and rpca.spectral.gram_tail_below(rpca.spectral.gram(x), free.ritz, spec.rank, shift)


@pytest.mark.parametrize("cols", [0, 1, 14, 26])
@pytest.mark.parametrize("shape", [(300, 40), (40, 300)], ids=["tall", "wide"])
@pytest.mark.parametrize("order", ["C", "F"], ids=["row-major", "column-major"])
def test_times_is_the_product_in_either_layout(order, shape, cols):
    # _times takes m @ y as (y^T m^T)^T whatever m's layout: the same
    # product, to within the rounding bound of a sum of shape[1] products
    rng = np.random.default_rng(8)
    m = np.asarray(rng.standard_normal(shape), order=order)
    y = rng.standard_normal((shape[1], cols))
    out, ref = rpca.spectral._times(m, y), m @ y
    assert out.shape == ref.shape == (shape[0], cols)
    bound = shape[1] * np.finfo(np.float64).eps * (np.abs(m) @ np.abs(y))
    assert np.all(np.abs(out - ref) <= bound)


@pytest.mark.parametrize("shape", [(2000, 400), (300, 300)], ids=["2000x400", "300x300"])
def test_power_steps_hold_no_square_array(shape):
    # every power step takes G Q as B^T (B Q): two steps, where the second
    # would once have been taken with G = B^T B formed, hold less than one
    # p x p array on a tall target and on a square one
    x = generate_synthetic(SyntheticSpec(*shape, rank=5, sparsity=0.05), 0)[0]
    steps, peak = traced_peak(lambda: list(itertools.islice(ritz_iterations(x), 2)))
    assert len(steps) == 2 and peak < shape[1] ** 2 * 8, peak / (shape[1] ** 2 * 8)


def test_a_certified_l_step_holds_at_most_two_and_a_half_square_arrays():
    # G is formed by each of its users and dropped on return, so the
    # 1000x1000 first L-step, whose power steps form none, holds at most
    # the Cholesky tail check's G - P with B^T B or the factor: 2.02 of
    # them. L comes back as two thin factors, and it did not set the peak
    # when the step returned it as one 1000x1000 array either
    x, mu, surrogate = first_l_step_weights(SyntheticSpec(1000, 1000, rank=10, sparsity=0.05), 1000)
    step, peak = traced_peak(l_step, x, mu, surrogate)
    assert (step.route, step.ritz is None) == ("low_rank", True)
    assert peak <= 2.5 * 1000 * 1000 * 8, peak / (1000 * 1000 * 8)


def test_a_certified_300x300_l_step_holds_at_most_two_and_a_half_square_arrays():
    # the power steps form no G, so the 300x300 first L-step holds only
    # the Cholesky tail check's G - P with B^T B or the factor: about two
    # p x p arrays, not three
    x, mu, surrogate = first_l_step_weights(SyntheticSpec(300, 300, rank=5, sparsity=0.05), 0)
    step, peak = traced_peak(l_step, x, mu, surrogate)
    assert (step.route, step.ritz is None) == ("low_rank", True)
    assert peak <= 2.5 * 300 * 300 * 8, peak / (300 * 300 * 8)


@pytest.mark.parametrize(
    "spec, seed, most",
    [
        pytest.param(SyntheticSpec(1000, 1000, rank=10, sparsity=0.05), 1000, 60, id="1000x1000"),
        pytest.param(SyntheticSpec(2000, 400, rank=5, sparsity=0.05), 0, None, id="2000x400"),
    ],
)
def test_an_attempt_ends_once_its_kept_residual_is_below_the_slack(monkeypatch, spec, seed, most, ritz_calls):
    # err = rho_k + slack on each kept value, so once the kept block's
    # residual rho_k is below the rounding slack another power step can at
    # most halve err: every attempt that keeps k >= 1 values ends on the
    # first such step, in a square (1000x1000) and a tall (2000x400)
    # raw solve. working_start's power step is an attempt with no prox
    events = ritz_calls["events"]
    roots_and_prox = rpca.spectral._roots_and_prox

    def logged(theta, mu, surrogate):
        out = roots_and_prox(theta, mu, surrogate)
        events.append(("kept", out[2]))
        return out

    monkeypatch.setattr(rpca.spectral, "_roots_and_prox", logged)
    r = solve(generate_synthetic(spec, seed)[0])
    assert r.converged and all(rec.l_route == "low_rank" for rec in r.history)
    attempts = [i for i, e in enumerate(events) if e[0] == "attempt"]
    ended = 0
    for i, j in zip(attempts, attempts[1:] + [len(events)]):
        window = events[i + 1:j]
        steps = [(e[1], f[1]) for e, f in zip(window, window[1:]) if e[0] == "step" and f[0] == "kept"]
        if not steps or steps[-1][1] == 0:
            continue
        below = [bool(k > 0 and np.linalg.norm(it.residuals[:k]) <= it.slack) for it, k in steps]
        assert below.index(True) == len(steps) - 1, below
        ended += 1
    assert ended >= r.iterations
    if most is not None:
        assert ritz_calls["steps"] <= most, ritz_calls["steps"]


def test_an_attempt_that_keeps_nothing_is_not_cut_short(ritz_calls):
    # a Gaussian target under the nuclear prox with 1/mu between sigma_1
    # and ||T||_F: the prox keeps no value, and the trace outside the block
    # bounds nothing, so the trace bound fails at every step. With k = 0
    # the kept residual is 0 by definition and says nothing about
    # convergence: the attempt stalls at its second step, as it would
    # without the slack rule, and the gram route certifies the empty keep
    nuclear = nuclear_surrogate()
    a = np.random.default_rng(7).standard_normal((300, 300))
    sigma_1, frob = np.linalg.norm(a, 2), np.linalg.norm(a)
    mu = 1.0 / np.sqrt(sigma_1 * frob)
    assert sigma_1 < 1.0 / mu < frob
    step = l_step(a, mu, nuclear)
    assert step.route == "gram" and not step.proxed.any() and step.basis.shape == (300, 0)
    assert counts(ritz_calls) == (1, 2, 0)


def test_gram_routes_get_the_tall_view_of_a_wide_target(monkeypatch):
    # l_step hands the route walk, and so both Gram routes, the target or
    # its transpose, whichever is tall: the l2,1 solve certifies low_rank
    # steps, the entrywise one takes gram steps and Cholesky tail checks.
    # The bound factors the p x p G of the tall view, p = 100 on the
    # 100x200 solve; the wide view's G would be 200x200
    shapes = {"_certified_route": [], "ritz_iterations": [], "gram_tail_below": []}
    for name, calls in shapes.items():
        def recorded(b, *args, original=getattr(rpca.spectral, name), calls=calls):
            calls.append(b.shape)
            return original(b, *args)

        monkeypatch.setattr(rpca.spectral, name, recorded)
    solve(wide_injected_columns(0), SolverConfig(mu0=0.05, penalty=COLUMNWISE_L21))
    solve(generate_synthetic(SyntheticSpec(m=100, n=200, rank=5, sparsity=0.2), 0)[0])
    for name, calls in shapes.items():
        assert calls and all(rows >= cols for rows, cols in calls), name
    assert set(shapes["gram_tail_below"]) == {(100, 100)}


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
def test_low_rank_certificate_boundary_on_the_tail(side, ritz_calls):
    # three values of order 1e6 over 57 unit values: the first power step's
    # bound on the fourth eigenvalue of the Gram matrix, max(theta_4, rest)
    # + rho, lies far above every single unit value. The nuclear prox keeps
    # sigma exactly when sigma > 1/mu, so putting 1/mu just above the bound
    # (plus its rounding slack) certifies the route after one power step,
    # and just below it takes a second step, whose smaller residual
    # certifies; neither forms G, and both give the prox of the full spectrum
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(34), 60, 120, np.r_[3e6, 2e6, 1e6, np.ones(57)])
    r = next(rpca.spectral.ritz_iterations(a.T))
    tail = max(r.theta[3], r.frob2 - r.theta.sum()) + np.linalg.norm(r.residuals) + r.slack
    assert tail > 20.0
    mu = 1.0 / (np.sqrt(tail) * (1.0 - side * 1e-3))
    l, sig, route, _ = dense_l_step(a, mu, nuclear)
    ref = prox_matrix(a, mu, nuclear)
    assert route == "low_rank"
    assert counts(ritz_calls) == (2, 1 + (1 if side < 0 else 2), 0)
    assert np.count_nonzero(sig) == 3
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


def test_low_rank_route_needs_accurate_kept_values(ritz_calls):
    # the boundary instance with its top values 1000x smaller: 1/mu at twice
    # the first step's tail bound certifies the keep/drop decision, but rho
    # (about 3.4) is far above 1e-8 of the smallest kept theta (1e6), so the
    # route takes a second power step, where the residual has fallen by
    # about lambda_4/lambda_3 = 1e-6, before it certifies
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(34), 60, 120, np.r_[3e3, 2e3, 1e3, np.ones(57)])
    r = next(rpca.spectral.ritz_iterations(a.T))
    rho = np.linalg.norm(r.residuals)
    tail = max(r.theta[3], r.frob2 - r.theta.sum()) + rho + r.slack
    assert rho > 1e-6 * r.theta[2]
    mu = 1.0 / (2.0 * np.sqrt(tail))
    l, sig, route, _ = dense_l_step(a, mu, nuclear)
    assert route == "low_rank"
    assert counts(ritz_calls) == (2, 3, 0)
    assert np.count_nonzero(sig) == 3
    ref = prox_matrix(a, mu, nuclear)
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


# three values over lambda_4 = 1 and 56 values of 0.25 in the Gram matrix
# (singular values 0.5): the trace outside a converged block, about 15,
# bounds nothing near 1, so only the Cholesky bound can certify the tail
CHOLESKY_SPECTRUM = np.r_[30.0, 20.0, 10.0, 1.0, np.full(56, 0.5)]


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
def test_cholesky_certificate_boundary_on_the_tail(side, ritz_calls):
    # with c = lambda_4 * (1 + side*1e-3) and the top three Ritz pairs after
    # four power steps, the factorization succeeds exactly when c is above
    # lambda_4, as the full eigh says. The nuclear prox at 1/mu = sqrt(c)
    # then keeps three values above the boundary, certified by the
    # Cholesky, and four below it, where the residual of a block holding
    # lambda_4 falls only 4x per step (lambda_17/lambda_4), so the route
    # gives up and the Gram path takes the step
    nuclear = nuclear_surrogate()
    a = planted_spectrum(np.random.default_rng(35), 60, 120, CHOLESKY_SPECTRUM)
    c = 1.0 + side * 1e-3
    r = list(itertools.islice(rpca.spectral.ritz_iterations(a.T), 4))[-1]
    shift = rpca.spectral.tail_shift(r, c)
    assert (shift > 0.0 and rpca.spectral.gram_tail_below(rpca.spectral.gram(a.T), r, 3, shift)) is (side > 0)
    assert tail_reference(a, 3, c) is (side > 0)
    before = counts(ritz_calls)
    mu = 1.0 / np.sqrt(c)
    l, sig, route, _ = dense_l_step(a, mu, nuclear)
    ref = prox_matrix(a, mu, nuclear)
    assert route == ("low_rank" if side > 0 else "gram")
    assert np.count_nonzero(sig) == (3 if side > 0 else 4)
    assert counts(ritz_calls)[2] - before[2] == (1 if side > 0 else 0)
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cholesky_tail_fails_over_when_the_block_misses_a_value(ritz_calls):
    # a singular value of 2 whose left vector is orthogonal to the fixed
    # Gaussian start block, so no power step sees it: the block converges on
    # 30, 20 and 10 over a bulk of ones, and the nuclear prox at 1/mu = 1.5
    # keeps three Ritz values. lambda_4 = 4 lies above c = 2.25, so the
    # Cholesky fails and the Gram path keeps all four values
    nuclear = nuclear_surrogate()
    rng = np.random.default_rng(37)
    omega = np.random.default_rng(0).standard_normal((60, rpca.spectral.RITZ_BLOCK))
    q = np.linalg.qr(omega)[0]
    hidden = rng.standard_normal(60)
    hidden -= q @ (q.T @ hidden)
    hidden /= np.linalg.norm(hidden)
    rest = rng.standard_normal((60, 59))
    rest -= np.outer(hidden, hidden @ rest)
    u = np.column_stack([np.linalg.qr(rest)[0][:, :3], hidden, np.linalg.qr(rest)[0][:, 3:]])
    v = np.linalg.qr(rng.standard_normal((120, 60)))[0]
    a = (u * np.r_[30.0, 20.0, 10.0, 2.0, np.ones(56)]) @ v.T
    mu = 1.0 / 1.5
    l, sig, route, _ = dense_l_step(a, mu, nuclear)
    tails = [e for e in ritz_calls["events"] if e[0] == "tail"]
    assert [(k, certified) for _, _, k, certified in tails] == [(3, False)]
    assert not tail_reference(a, 3, 2.25)
    assert route == "gram" and np.count_nonzero(sig) == 4
    ref = prox_matrix(a, mu, nuclear)
    assert np.linalg.norm(l - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
def test_cholesky_tail_agrees_with_the_full_eigh(tall):
    # on planted spectra with a flat bulk, each attempt's c between
    # lambda_(k+1) and well above it: the certificate never claims a tail
    # bound that the full eigh refutes, and it holds once c clears
    # lambda_(k+1) by 1e-6
    for seed in range(4):
        rng = np.random.default_rng(40 + seed)
        spectrum = np.r_[rng.uniform(5.0, 20.0, 4), rng.uniform(0.5, 1.0, 40)]
        a = planted_spectrum(rng, 44, 90, spectrum)
        # a row-major tall copy, or the transposed view that l_step passes for a wide target
        a = np.ascontiguousarray(a.T) if tall else a.T
        r = list(itertools.islice(rpca.spectral.ritz_iterations(a), 6))[-1]
        lam5 = np.sort(spectrum)[::-1][4] ** 2
        for c in lam5 * np.r_[0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0]:
            shift = rpca.spectral.tail_shift(r, c)
            certified = shift > 0.0 and rpca.spectral.gram_tail_below(rpca.spectral.gram(a), r, 4, shift)
            assert certified <= tail_reference(a, 4, c), (seed, c)
            assert certified is bool(c > lam5), (seed, c)


# rank 3 over a flat bulk, 400x150: 273 rows to a row block on the tall
# target, 81 on the wide one, so both are formed in two blocks or more
ROUTE_TARGET = planted_spectrum(np.random.default_rng(42), 400, 150, np.r_[50.0, 40.0, 30.0, np.ones(147)])


@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
@pytest.mark.parametrize("route, mu, basis, kept", [
    ("low_rank", 0.1, COLD, 3),
    ("gram", 0.1, np.eye(150), 3),  # a p-column basis is never stepped
    ("svd", 0.1, COLD, 3),  # with the eigensolver failing
    ("low_rank", 1e-3, COLD, 0),  # the nuclear threshold 1000 lies above every value
], ids=["low_rank", "gram", "svd", "k=0"])
def test_the_dense_l_is_the_row_blocks_the_step_forms(monkeypatch, tall, route, mu, basis, kept):
    # one definition of L: the step forms L's row blocks from the factors
    # into one reused buffer, and every dense L, here ``LowRank.dense``, is those
    # blocks to the bit
    if route == "svd":
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
    a = ROUTE_TARGET if tall else ROUTE_TARGET.T
    step = l_step(a, mu, nuclear_surrogate(), basis)
    assert step.route == route and np.count_nonzero(step.proxed) == kept
    l = step.l_factors.dense()
    blocks = row_blocks(*a.shape)
    assert len(blocks) >= 2
    buf = np.empty((blocks[0].stop, a.shape[1]))
    for b in blocks:
        rows = step.l_factors.rows(b, buf[: b.stop - b.start])
        assert rows.tobytes() == l[b].tobytes(), b
    assert l.any() == (kept > 0)


WHOLE_PRODUCT_CHECK = """
import numpy as np
from rpca.solver import SolverConfig, working_start
from rpca.spectral import l_step
from rpca.surrogates import gamma_surrogate, nuclear_surrogate
from rpca.synthetic import SyntheticSpec, generate_synthetic

def first_step(spec, seed):
    x = generate_synthetic(spec, seed)[0]
    _, mu, gamma = working_start(x, SolverConfig())
    return l_step(x, mu, gamma_surrogate(gamma))

rng = np.random.default_rng(5)
u = np.linalg.qr(rng.standard_normal((500, 3)))[0]
v = np.linalg.qr(rng.standard_normal((4000, 3)))[0]
wide = (u * [60.0, 50.0, 40.0]) @ v.T + 0.01 * rng.standard_normal((500, 4000))
steps = [
    first_step(SyntheticSpec(1000, 1000, rank=10, sparsity=0.05), 1000),
    first_step(SyntheticSpec(2000, 400, rank=5, sparsity=0.05), 0),
    l_step(wide, 0.05, nuclear_surrogate()),
]
for step, k in zip(steps, (10, 5, 3)):
    f = step.l_factors
    assert step.route == "low_rank" and f.left.shape[1] == k, (step.route, f.left.shape)
    assert step.l_factors.dense().tobytes() == (f.left @ f.right).tobytes(), f.left.shape
"""


def test_on_the_benchmark_shapes_the_dense_l_is_the_whole_product():
    # at one BLAS thread, on the three benchmark shapes with their kept
    # ranks (1000x1000 with k = 10, 2000x400 with k = 5, 500x4000 with
    # k = 3), the row blocks equal the whole product left @ right, the
    # expression (B W diag(sigma/s)) @ W^T or (W diag(sigma/s)) @ (B W)^T
    # that formed L before L was carried as factors, so the benchmark
    # solves keep their bits. Elsewhere the two can differ in the last bits,
    # at one and at two threads: on 300x300 targets at every k measured (3
    # to 40; the raw 300x300 solve with 20% corruption moves in its last
    # bits), and on narrow tall targets at k >= 20, such as 4000x50,
    # 3000x60 and 3072x100 on the gram route
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", WHOLE_PRODUCT_CHECK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
