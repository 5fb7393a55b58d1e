"""Independent numeric oracles shared by the test modules.

Nothing here calls the shrinkage/prox code paths it is used to check: the
prox oracle evaluates the objective on an explicit lattice, the shrink
oracles minimize the scalar objectives by interval shrinking, and the
reference ALM loop takes its L-step from ``np.linalg.svd`` rather than from
the solver's spectral step. The reference CSV writer formats one entry at a
time with ``format`` rather than a row at a time with ``%``.
"""

from pathlib import Path

import numpy as np

from rpca.surrogates import RankSurrogate, scalar_penalty


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
    iteration's ``(rank_estimate, dc_iters)``.
    """
    from rpca.linalg import RANK_REL_THRESHOLD
    from rpca.sparse import shrink
    from rpca.surrogates import prox_vector_with_iters

    l = np.zeros_like(x)
    s = np.zeros_like(x)
    y = np.zeros_like(x)
    mu = cfg.mu0
    norm_x = float(np.linalg.norm(x))
    history = []
    for _ in range(cfg.max_outer):
        u, sv, vt = np.linalg.svd(x - s - y / mu, full_matrices=False)
        sig, dc_iters = prox_vector_with_iters(sv, mu, cfg.surrogate, cfg.dc)
        l = (u * sig) @ vt
        s = shrink(x - l - y / mu, cfg.lam / mu, cfg.penalty)
        resid = l + s - x
        y = y + mu * resid
        mu = min(cfg.rho * mu, cfg.mu_max)
        top = float(sig.max()) if sig.size else 0.0
        history.append((int(np.count_nonzero(sig > RANK_REL_THRESHOLD * top)), dc_iters))
        resid_norm = float(np.linalg.norm(resid))
        if (resid_norm / norm_x if norm_x > 0.0 else resid_norm) <= cfg.tol:
            break
    return l, s, history


class IterationAuditor:
    """Solve callback that replays the iterate sequence against the
    per-iteration guarantees: multiplier bounds, half-step descent of the
    augmented Lagrangian at frozen duals, and the residual/multiplier
    identity."""

    def __init__(self, x, cfg):
        from rpca.solver import SolverState

        self._state_cls = SolverState
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
        from rpca.solver import lagrangian

        p = self.prev
        lag_prev = lagrangian(self.x, self._state_cls(l=p.l, s=p.s, y=p.y, mu=p.mu), self.cfg)
        lag_l = lagrangian(self.x, self._state_cls(l=state.l, s=p.s, y=p.y, mu=p.mu), self.cfg)
        lag_s = lagrangian(self.x, self._state_cls(l=state.l, s=state.s, y=p.y, mu=p.mu), self.cfg)
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
