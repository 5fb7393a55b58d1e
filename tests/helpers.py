"""Independent numeric oracles shared by the test modules.

Nothing here calls the shrinkage/prox code paths it is used to check: the
prox oracles evaluate the objective on an explicit lattice or run the
difference-of-convex iteration to its fixed point instead of solving the
cubic, the shrink oracles minimize the scalar objectives by interval
shrinking, the reference ALM loop takes its L-step from ``np.linalg.svd``
rather than from the solver's spectral step, and the reference step writes
the S-step, the dual step and the record's sums as whole-array expressions
rather than the solver's row-block passes and shared shrink kernels. The
L-step's oracle ``prox_matrix`` applies the scalar prox to the singular
values of a full SVD instead of taking a certified route, and the tail
oracle reads every eigenvalue of the Gram matrix instead of factoring one
matrix by Cholesky. The reference CSV writer formats one entry at a
time with ``format`` rather than a row at a time with ``%``. The package
has no penalty-value function of its own; ``penalty_value`` here, one
whole-array expression, serves the reference step, the reference
Lagrangian and the tests. The module also holds the instance builders and
the surrogate parameter list that more than one test module uses.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rpca.linalg import as_matrix, svd
from rpca.surrogates import (
    RankSurrogate,
    gamma_surrogate,
    nuclear_surrogate,
    prox_vector,
    scalar_penalty,
    surrogate_gradient,
    surrogate_value,
)
from rpca.synthetic import SyntheticSpec, generate_synthetic


def prox_objective(sigma, sigma_a: float, mu: float, s: RankSurrogate):
    """f(sigma) + (mu/2)(sigma - sigma_a)^2, vectorized over sigma."""
    sig = np.asarray(sigma, dtype=np.float64)
    return scalar_penalty(sig, s) + 0.5 * mu * (sig - sigma_a) ** 2


def grid_prox_min(sigma_a: float, mu: float, s: RankSurrogate, step: float = 1e-6) -> float:
    """Minimum of the prox objective over the lattice ``k*step`` covering [0, sigma_a].

    Beyond sigma_a both objective terms increase, so the lattice minimum over
    [0, sigma_a] is the global lattice minimum. Evaluating every point is
    wasteful: the objective's derivative crosses zero at most three times
    (penalty derivative is convex decreasing, the quadratic's is linear), so
    the function has at most two basins. A coarse pass locates every coarse
    local minimum; refining each of those cells on the fine lattice therefore
    covers the cell containing the fine-lattice argmin.
    """
    hi = int(np.ceil(sigma_a / step)) if sigma_a > 0 else 0
    stride = 1000
    coarse = np.arange(0, hi + 1, stride, dtype=np.int64)
    if coarse[-1] != hi:
        coarse = np.append(coarse, hi)
    vals = prox_objective(coarse * step, sigma_a, mu, s)
    n = coarse.size
    best = np.inf
    for i in range(n):
        left_ok = i == 0 or vals[i] <= vals[i - 1]
        right_ok = i == n - 1 or vals[i] <= vals[i + 1]
        if not (left_ok and right_ok):
            continue
        window = np.arange(coarse[max(0, i - 1)], coarse[min(n - 1, i + 1)] + 1, dtype=np.int64)
        best = min(best, float(prox_objective(window * step, sigma_a, mu, s).min()))
    return best


def dc_prox_reference(sigma_a, mu: float, s: RankSurrogate, max_iters: int = 100_000):
    """The gamma prox by the difference-of-convex iteration, run to its fixed point.

    The penalty is concave on ``sigma >= 0``, so linearizing it at the
    current point gives the update ``sigma <- max(sigma_a - f'(sigma)/mu, 0)``,
    which decreases from ``sigma_a`` onto the largest stationary point. The
    loop stops once no component changes. That point is then compared
    against the origin, as the prox does.
    """
    sig_a = np.asarray(sigma_a, dtype=np.float64)
    sig = sig_a.copy()
    for _ in range(max_iters):
        new = np.maximum(sig_a - surrogate_gradient(sig, s) / mu, 0.0)
        if np.array_equal(new, sig):
            break
        sig = new
    keep = scalar_penalty(sig, s) + 0.5 * mu * (sig - sig_a) ** 2
    drop = 0.5 * mu * sig_a**2
    return np.where(drop < keep, 0.0, sig)


def prox_matrix(a, mu: float, s: RankSurrogate) -> np.ndarray:
    """Minimizer of ``F(Z) + (mu/2)*||Z - A||_F^2`` for a spectral penalty F.

    Both penalties depend on the matrix only through its singular values, so
    the matrix problem reduces to the vector prox applied to the singular
    values of ``A``, keeping A's singular vectors: the oracle for the L-step
    (``rpca.spectral.l_step``), from one full SVD of ``A``.
    """
    f = svd(as_matrix(a))
    return (f.u * prox_vector(f.singulars, mu, s)) @ f.vt


def planted_spectrum(rng, m, n, singulars):
    """An ``m x n`` matrix with the given singular values and random singular vectors."""
    u = np.linalg.qr(rng.standard_normal((m, len(singulars))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(singulars))))[0]
    return (u * singulars) @ v.T


def tail_reference(a, k: int, c: float) -> bool:
    """Whether ``lambda_(k+1)(G) < c`` for ``a``'s smaller Gram matrix ``G``.

    Reads every eigenvalue of ``G`` from ``np.linalg.eigvalsh``, where the
    solver's certificate factors one matrix by Cholesky. ``G`` is
    ``A^T A`` when ``a`` has at least as many rows as columns, else ``A A^T``.
    """
    a = np.asarray(a, dtype=np.float64)
    g = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return bool(np.linalg.eigvalsh(g)[::-1][k] < c)


def bisect_root(h, lo, hi, iters: int = 100):
    """Root of a (vectorized) nondecreasing function by interval halving.

    Minimizing these convex scalar objectives by comparing function values
    cannot resolve the argmin below ~sqrt(machine eps) (the objective is flat
    to rounding there), so the oracles locate the zero of the monotone
    (sub)derivative instead, which bisection pins down to the last bit.
    """
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        go_right = h(mid) < 0.0
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def l1_shrink_oracle(q: np.ndarray, tau: float) -> np.ndarray:
    """Per-entry numeric minimizer of tau*|w| + 0.5*(w - q)^2."""
    def subderiv(w):
        return w - q + tau * np.sign(w)

    return bisect_root(subderiv, np.minimum(0.0, q), np.maximum(0.0, q))


def l21_shrink_oracle(q: np.ndarray, tau: float) -> np.ndarray:
    """Per-column numeric minimizer of tau*||w||_2 + 0.5*||w - q||^2 over scalings of q.

    Restricted to w = c*q with c in [0, 1]; the objective in c is convex with
    derivative tau*n + n^2*(c - 1) for column norm n.
    """
    norms = np.linalg.norm(q, axis=0)

    def deriv(c):
        return tau * norms + norms**2 * (c - 1.0)

    c = bisect_root(deriv, np.zeros_like(norms), np.ones_like(norms))
    c[norms == 0.0] = 0.0
    return q * c


def reference_write_matrix_csv(path, m) -> None:
    """The CSV writer's byte format, one ``format(v, ".17g")`` per entry."""
    a = np.asarray(m, dtype=np.float64)
    lines = [",".join(format(v, ".17g") for v in row) for row in a]
    Path(path).write_text("\n".join(lines) + "\n")


def write_pgm(path, m, maxval: int = 255, binary: bool = True) -> None:
    """Write a [0, 1]-scaled matrix as a PGM image (P5 by default, P2
    otherwise): the frames that ``rpca.matrixio.read_pgm`` and ``rpca stack``
    read in the tests."""
    assert 1 <= maxval <= 65535, maxval
    a = as_matrix(m)
    q = np.clip(np.rint(a * maxval), 0, maxval).astype(np.uint32)
    h, w = a.shape
    header = f"{'P5' if binary else 'P2'}\n{w} {h}\n{maxval}\n".encode("ascii")
    if binary:
        dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
        Path(path).write_bytes(header + q.astype(dtype).tobytes())
    else:
        body = "\n".join(" ".join(str(v) for v in row) for row in q)
        Path(path).write_bytes(header + body.encode("ascii") + b"\n")


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the most bytes it held at once, by ``tracemalloc``.

    Counts only what is allocated during the call: arrays made before it,
    such as the input, are not in the figure. numpy reports its array
    buffers to ``tracemalloc``.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return out, peak


def central_diff(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def random_orthonormal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def step_surrogate(cfg, gamma):
    """The surrogate of a step taken at ``gamma``: ``cfg``'s, or the gamma
    penalty at that gamma."""
    return cfg.surrogate if gamma is None else gamma_surrogate(gamma)


def reference_solve(x, cfg, gammas):
    """The ALM loop with a full ``np.linalg.svd`` in every L-step.

    Same updates and stopping rule as a raw ``rpca.solve``, independent of
    ``rpca.linalg``, with the penalty of iteration ``k`` at ``gammas[k]``
    (the ``gamma`` of the solver's records) and at ``cfg``'s past their
    end. Returns ``(L, S, history)`` where history lists each iteration's
    rank estimate.
    """
    from rpca.linalg import RANK_REL_THRESHOLD
    from rpca.sparse import shrink

    l = np.zeros_like(x)
    s = np.zeros_like(x)
    y = np.zeros_like(x)
    mu = cfg.mu0
    norm_x = float(np.linalg.norm(x))
    history = []
    for k in range(cfg.max_outer):
        gamma = gammas[k] if k < len(gammas) else cfg.surrogate.gamma
        u, sv, vt = np.linalg.svd(x - s - y / mu, full_matrices=False)
        sig = prox_vector(sv, mu, step_surrogate(cfg, gamma))
        l = (u * sig) @ vt
        s = shrink(x - l - y / mu, cfg.lam / mu, cfg.penalty)
        resid = l + s - x
        y = y + mu * resid
        mu = min(cfg.rho * mu, cfg.mu_max)
        top = float(sig.max()) if sig.size else 0.0
        history.append(int(np.count_nonzero(sig > RANK_REL_THRESHOLD * top)))
        resid_norm = float(np.linalg.norm(resid))
        residual = resid_norm / norm_x if norm_x > 0.0 else resid_norm
        if gamma == cfg.surrogate.gamma and residual <= cfg.tol:
            break
    return l, s, history


def penalty_value(s, p) -> float:
    """The sparsity penalty of ``s``: the sum of ``|s_ij|`` for l1, of the
    column 2-norms for l2,1."""
    a = as_matrix(s)
    if p.kind == "l1":
        return float(np.abs(a).sum())
    return float(np.linalg.norm(a, axis=0).sum())


def reference_lagrangian(x, l, s, y, mu: float, cfg, gamma=None) -> float:
    """``F(L) + lam*penalty(S) + <Y, L+S-X> + (mu/2)*||L+S-X||_F^2``, with
    F on the singular values from ``np.linalg.svd``, at ``gamma`` when one
    is given (see ``step_surrogate``)."""
    resid = l + s - x
    return (
        surrogate_value(np.linalg.svd(l, compute_uv=False), step_surrogate(cfg, gamma))
        + cfg.lam * penalty_value(s, cfg.penalty)
        + float(np.sum(y * resid))
        + 0.5 * mu * float(np.sum(resid * resid))
    )


def reference_step(x, state, cfg, norm_x):
    """The ALM step as whole-array expressions, the oracle for ``rpca.solver.step``.

    The step body, shrink and penalty as they were before the step ran in
    row blocks: the same updates and record, each written as one numpy
    expression over full arrays. The L-step is the solver's own
    ``spectral.l_step`` on a target checked for finite entries, as ``step``
    checks it, so the two differ only in how the elementwise work and the
    sums are scheduled, which must not change a bit.
    """
    from rpca import linalg, spectral
    from rpca.solver import GAMMA_RATIO, IterationRecord, SolverState

    def shrink(q, tau, p):
        if not tau > 0.0:
            raise ValueError("tau must be positive")
        a = as_matrix(q)
        if p.kind == "l1":
            return np.sign(a) * np.maximum(np.abs(a) - tau, 0.0)
        norms = np.linalg.norm(a, axis=0)
        safe = np.where(norms > 0.0, norms, 1.0)
        scale = np.where(norms > tau, (norms - tau) / safe, 0.0)
        return a * scale

    def _lagrangian(sig, s, q, y, mu, resid, cfg, surrogate):
        # a shrunk column of norm n has norm n - tau: the l2,1 penalty of S
        # in exact arithmetic, from the shrink target's column norms
        if cfg.penalty.kind == "l1":
            penalty = penalty_value(s, cfg.penalty)
        else:
            penalty = float(np.maximum(np.linalg.norm(q, axis=0) - cfg.lam / mu, 0.0).sum())
        return (
            surrogate_value(sig, surrogate)
            + cfg.lam * penalty
            + float(np.vdot(y, resid))
            + 0.5 * mu * float(np.vdot(resid, resid))
        )

    y, mu = state.y, state.mu
    surrogate = step_surrogate(cfg, state.gamma)
    target = x - state.s - y / mu
    linalg.require_finite(target)
    prox = spectral.l_step(target, mu, surrogate, state.warm_basis)
    l, sig, route, basis = prox.l_factors.dense(), prox.proxed, prox.route, prox.basis
    s = shrink(q := x - l - y / mu, cfg.lam / mu, cfg.penalty)
    resid = l + s - x
    resid_norm = float(np.linalg.norm(resid))
    y_next = y + mu * resid
    record = IterationRecord(
        iter=state.iter + 1,
        residual=resid_norm / norm_x if norm_x > 0.0 else resid_norm,
        lagrangian=_lagrangian(sig, s, q, y, mu, resid, cfg, surrogate),
        rank_estimate=linalg.numerical_rank(sig),
        y_inf_norm=float(np.max(np.abs(y_next))) if y_next.size else 0.0,
        mu=mu,
        mu_s_change=mu * float(np.linalg.norm(s - state.s)),
        l_route=route,
        gamma=surrogate.gamma,
    )
    next_state = SolverState(
        l_factors=prox.l_factors,
        s=s,
        y=y_next,
        mu=min(cfg.rho * mu, cfg.mu_max),
        iter=state.iter + 1,
        warm_basis=basis,
        gamma=None if state.gamma is None else max(GAMMA_RATIO * state.gamma, cfg.surrogate.gamma),
    )
    return next_state, record


class IterationAuditor:
    """Solve callback that replays the iterate sequence against the
    per-iteration guarantees: multiplier bounds, half-step descent of the
    augmented Lagrangian at frozen duals, and the residual/multiplier
    identity. Each step's three Lagrangians take the penalty at that step's
    record's gamma, so a walked gamma compares each step with its own
    objective."""

    def __init__(self, x, cfg):
        from rpca.solver import SolverState
        from rpca.spectral import LowRank

        self.x = x
        self.cfg = cfg
        zero_l = LowRank(np.zeros((x.shape[0], 0)), np.zeros((0, x.shape[1])))
        self.prev = SolverState(
            l_factors=zero_l, s=np.zeros_like(x), y=np.zeros_like(x), mu=cfg.mu0
        )
        self.max_y_inf = 0.0
        self.max_y_col = 0.0
        self.worst_l_step = -np.inf
        self.worst_s_step = -np.inf
        self.worst_identity = 0.0
        self.max_iterate_norm = 0.0

    def __call__(self, state, rec):
        p, g = self.prev, rec.gamma
        lag_prev = reference_lagrangian(self.x, p.l, p.s, p.y, p.mu, self.cfg, g)
        lag_l = reference_lagrangian(self.x, state.l, p.s, p.y, p.mu, self.cfg, g)
        lag_s = reference_lagrangian(self.x, state.l, state.s, p.y, p.mu, self.cfg, g)
        self.worst_l_step = max(self.worst_l_step, lag_l - lag_prev)
        self.worst_s_step = max(self.worst_s_step, lag_s - lag_l)
        ident = np.abs((state.l + state.s - self.x) - (state.y - p.y) / p.mu).max()
        self.worst_identity = max(self.worst_identity, float(ident))
        self.max_y_inf = max(self.max_y_inf, float(np.abs(state.y).max()))
        self.max_y_col = max(self.max_y_col, float(np.linalg.norm(state.y, axis=0).max()))
        self.max_iterate_norm = max(
            self.max_iterate_norm, float(np.linalg.norm(state.l)), float(np.linalg.norm(state.s))
        )
        self.prev = state


SURROGATES = [pytest.param(gamma_surrogate(), id="gamma"), pytest.param(nuclear_surrogate(), id="nuclear")]


SPEC_200 = SyntheticSpec(m=200, n=200, rank=5, sparsity=0.05, magnitude_low=1.0, magnitude_high=10.0)


def planted_200(seed):
    return generate_synthetic(SPEC_200, seed)[0]


def wide_injected_columns(seed):
    rng = np.random.default_rng(seed)
    u1 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    u2 = np.linalg.qr(rng.standard_normal((100, 3)))[0]
    return np.hstack([u1 @ rng.standard_normal((3, 190)), u2 @ rng.standard_normal((3, 10))])
