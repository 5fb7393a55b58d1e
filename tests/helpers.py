"""Independent numeric oracles shared by the test modules.

Nothing here calls the shrinkage/prox code paths it is used to check: the
prox oracles evaluate the objective on an explicit lattice or run the
difference-of-convex iteration to its fixed point instead of solving the
cubic, the shrink oracles minimize the scalar objectives by interval
shrinking, and the reference ALM loop takes its L-step from
``np.linalg.svd`` rather than from the solver's spectral step. The reference
CSV writer formats one entry at a time with ``format`` rather than a row at
a time with ``%``.
"""

from pathlib import Path

import numpy as np

from rpca.surrogates import RankSurrogate, scalar_penalty, surrogate_gradient, surrogate_value


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


def central_diff(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def random_orthonormal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def reference_solve(x, cfg):
    """The ALM loop with a full ``np.linalg.svd`` in every L-step.

    Same updates and stopping rule as ``rpca.solve``, independent of
    ``rpca.linalg``. Returns ``(L, S, history)`` where history lists each
    iteration's rank estimate.
    """
    from rpca.linalg import RANK_REL_THRESHOLD
    from rpca.sparse import shrink
    from rpca.surrogates import prox_vector

    l = np.zeros_like(x)
    s = np.zeros_like(x)
    y = np.zeros_like(x)
    mu = cfg.mu0
    norm_x = float(np.linalg.norm(x))
    history = []
    for _ in range(cfg.max_outer):
        u, sv, vt = np.linalg.svd(x - s - y / mu, full_matrices=False)
        sig = prox_vector(sv, mu, cfg.surrogate)
        l = (u * sig) @ vt
        s = shrink(x - l - y / mu, cfg.lam / mu, cfg.penalty)
        resid = l + s - x
        y = y + mu * resid
        mu = min(cfg.rho * mu, cfg.mu_max)
        top = float(sig.max()) if sig.size else 0.0
        history.append(int(np.count_nonzero(sig > RANK_REL_THRESHOLD * top)))
        resid_norm = float(np.linalg.norm(resid))
        if (resid_norm / norm_x if norm_x > 0.0 else resid_norm) <= cfg.tol:
            break
    return l, s, history


def reference_lagrangian(x, l, s, y, mu: float, cfg) -> float:
    """``F(L) + lam*penalty(S) + <Y, L+S-X> + (mu/2)*||L+S-X||_F^2``, with
    F on the singular values from ``np.linalg.svd``."""
    from rpca.sparse import penalty_value

    resid = l + s - x
    return (
        surrogate_value(np.linalg.svd(l, compute_uv=False), cfg.surrogate)
        + cfg.lam * penalty_value(s, cfg.penalty)
        + float(np.sum(y * resid))
        + 0.5 * mu * float(np.sum(resid * resid))
    )


class IterationAuditor:
    """Solve callback that replays the iterate sequence against the
    per-iteration guarantees: multiplier bounds, half-step descent of the
    augmented Lagrangian at frozen duals, and the residual/multiplier
    identity."""

    def __init__(self, x, cfg):
        from rpca.solver import SolverState

        self.x = x
        self.cfg = cfg
        self.prev = SolverState(
            l=np.zeros_like(x), s=np.zeros_like(x), y=np.zeros_like(x), mu=cfg.mu0
        )
        self.max_y_inf = 0.0
        self.max_y_col = 0.0
        self.worst_l_step = -np.inf
        self.worst_s_step = -np.inf
        self.worst_identity = 0.0
        self.max_iterate_norm = 0.0

    def __call__(self, state, rec):
        p = self.prev
        lag_prev = reference_lagrangian(self.x, p.l, p.s, p.y, p.mu, self.cfg)
        lag_l = reference_lagrangian(self.x, state.l, p.s, p.y, p.mu, self.cfg)
        lag_s = reference_lagrangian(self.x, state.l, state.s, p.y, p.mu, self.cfg)
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
