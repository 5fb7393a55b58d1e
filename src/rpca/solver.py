"""Augmented-Lagrange-multiplier loop for the low-rank + sparse split.

Decomposes ``X = L + S`` by minimizing ``F(L) + lambda * penalty(S)`` subject
to the split, where F is a spectral penalty (see ``surrogates``) and
``penalty`` an entrywise or columnwise sparsity norm (see ``sparse``). Each
outer iteration proxes L against the current residual target, shrinks S, then
takes the standard multiplier step and grows the quadratic penalty weight mu
geometrically. The loop stops when the relative residual
``||X - L - S||_F / ||X||_F`` drops to the configured tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linalg import as_matrix, require_finite
from .sparse import (
    ENTRYWISE_L1,
    L21,
    SparsePenalty,
    check_tau,
    column_norm_total,
    column_scale,
    soft_threshold,
)
from .surrogates import RankSurrogate, gamma_surrogate, prox_vector, surrogate_value
from . import linalg

# Relative accuracy to which every kept squared singular value must be known
# before the L-step uses the Gram spectrum instead of the thin SVD.
KEPT_REL_ERROR = 1e-8

# Bounds on the Gram-free L-step (see ``_low_rank_step``): at most this many
# power steps per attempt, continued while the kept block's residual falls
# at least RITZ_FALL times per step.
RITZ_STEPS = 10
RITZ_FALL = 10.0

# Halvings that place the prox's keep-threshold; the bisection stops sooner
# once its interval stops shrinking.
BISECT_STEPS = 100

# The next L-step tries the Gram-free route after a step that kept at most
# p / WARM_RANK_DIVISOR values, p = min(m, n), or that took the route.
WARM_RANK_DIVISOR = 20

# Bytes of one row block in the step's elementwise passes. The passes are
# memory-bound; a block this size keeps the operands of the whole chain of
# operations on it in a 2 MB L2 cache, so each full-size array crosses the
# memory bus once per pass instead of once per operation.
BLOCK_BYTES = 256 * 1024


def scaled_lambda(m: int, n: int) -> float:
    """Dimension-scaled sparsity weight, ``1/sqrt(max(m, n))``."""
    return 1.0 / np.sqrt(max(m, n))


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for :func:`solve`.

    ``lam`` weighs the sparsity penalty; ``mu0`` and ``rho`` set the initial
    quadratic penalty and its growth per iteration (capped at ``mu_max`` so
    the stopping rule, not overflow, ends the run). ``tol`` is the relative
    residual at which the loop stops, ``max_outer`` the iteration budget.
    """

    lam: float = 1e-3
    mu0: float = 1e-4
    rho: float = 1.1
    mu_max: float = 1e10
    tol: float = 1e-3
    max_outer: int = 500
    surrogate: RankSurrogate = field(default_factory=gamma_surrogate)
    penalty: SparsePenalty = ENTRYWISE_L1

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if not self.mu0 > 0.0:
            raise ValueError("mu0 must be positive")
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")
        if not self.mu_max >= self.mu0:
            raise ValueError("mu_max must be >= mu0")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass(frozen=True)
class SolverState:
    """Iterate: primal pair, multiplier, penalty weight, iteration count."""

    l: np.ndarray
    s: np.ndarray
    y: np.ndarray
    mu: float
    iter: int = 0
    # the start of the next L-step's Gram-free attempt (see ``l_step``): no
    # columns at the start, then the last step's kept vectors on the smaller
    # side, or None to skip the attempt
    warm_basis: np.ndarray | None = field(default_factory=lambda: linalg.COLD)


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics appended to the solve history.

    ``l_route`` names the path the L-step took: ``"low_rank"``, ``"gram"`` or
    ``"svd"`` (see ``l_step``).
    """

    iter: int
    residual: float
    lagrangian: float
    rank_estimate: int
    y_inf_norm: float
    mu: float
    mu_s_change: float
    l_route: str


@dataclass
class SolverResult:
    """Outcome of :func:`solve`: the final pair, its history and stationarity.

    ``kkt_primal`` is the final relative residual ``||L+S-X||_F / max(1, ||X||_F)``.
    ``kkt_dual`` is the last iteration's ``mu*||S - S_prev||_F / max(1, ||Y||_F)``,
    the norm of ``G + Y`` for the subgradient ``G`` of the rank penalty that the
    last L-step's prox certifies at L (see :func:`kkt_residuals`).
    """

    l: np.ndarray
    s: np.ndarray
    iterations: int
    converged: bool
    history: list[IterationRecord]
    elapsed_seconds: float
    kkt_primal: float
    kkt_dual: float


class LStep(NamedTuple):
    """An L-step's result: L, the proxed singular values, the route that produced them
    and the next attempt's start (see :func:`l_step`)."""

    l: np.ndarray
    singulars: np.ndarray
    route: str
    basis: np.ndarray | None


def _keeps_exactly(kept_low, drop_high: float, mu: float, cfg: SolverConfig) -> bool:
    """Whether the prox keeps every square root of ``kept_low`` and drops that of ``drop_high``.

    The prox is monotone in the singular value, so every value in between
    these ends then gets the same decision as the end it is on.
    """
    ends = np.sqrt(np.maximum(np.append(kept_low, drop_high), 0.0))
    keep = prox_vector(ends, mu, cfg.surrogate) > 0.0
    return bool(keep[:-1].all() and not keep[-1])


def _largest_dropped(lo: float, hi: float, mu: float, cfg: SolverConfig) -> float:
    """A value the prox drops, by bisection from ``lo`` (dropped) towards ``hi`` (kept).

    The prox is monotone, so the result is the largest dropped value to
    the last bit once the interval stops shrinking.
    """
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if prox_vector(mid, mu, cfg.surrogate)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    return lo


def _warm(basis: np.ndarray) -> np.ndarray | None:
    """A copy of ``basis`` when it has at most ``p / WARM_RANK_DIVISOR`` columns, else ``None``."""
    return basis.copy() if basis.shape[1] * WARM_RANK_DIVISOR <= basis.shape[0] else None


def _low_rank_step(a: np.ndarray, mu: float, cfg: SolverConfig, basis: np.ndarray) -> LStep | None:
    """The Gram-free L-step from the start block ``basis``, or ``None`` when it cannot be certified.

    Takes at most ``RITZ_STEPS`` power steps of ``linalg.ritz_iterations``
    and proxes the square roots of their Ritz values; ``k`` of them are
    kept. With ``G = [[Theta, E^T], [E, C]]`` in the basis ``[W, W_perp]``,
    ``||E||_2 <= rho = ||G W - W Theta||_F`` and ``lambda_max(C) <= rest =
    ||A||_F^2 - sum(theta)``, so by Weyl's inequality ``lambda_(k+1)(G) <=
    max(theta_(k+1), rest) + rho`` and ``|lambda_i(G) - theta_i| <= rho``
    for the kept values. Each step is certified at once when the prox keeps
    each ``theta_i - rho`` and drops that tail bound (both widened by the
    rounding ``slack``) and ``rho`` is within ``KEPT_REL_ERROR`` of every
    kept value: this bound needs no ``G``.

    Otherwise the steps go on while the kept block's residual ``rho_k =
    ||G W_k - W_k Theta_k||_F`` falls at least ``RITZ_FALL`` times per step,
    which also makes the kept vectors accurate well past the figure the
    certificate needs. The last step is then certified when ``rho_k`` is
    within ``KEPT_REL_ERROR`` of every kept value, the prox keeps each
    ``theta_i - rho_k - slack`` (by Kahan's residual bound ``k`` eigenvalues of
    ``G`` lie within ``rho_k`` of the kept Ritz values) and
    ``linalg.gram_tail_below`` shows ``lambda_(k+1)(G) < c``, ``c`` the
    square of the largest value the prox drops. Then exactly ``k`` values
    are kept, each known as well as on the Gram path. A step whose
    residual did not converge forms no ``G``. An attempt fails when the
    block keeps every Ritz value, which leaves the rest unbounded.
    """
    try:
        prev = np.inf
        for steps, r in enumerate(linalg.ritz_iterations(a, basis), start=1):
            singulars = np.sqrt(np.maximum(r.theta, 0.0))
            sig = prox_vector(singulars, mu, cfg.surrogate)
            k = int(np.count_nonzero(sig))  # the prox is monotone, so it keeps a prefix
            if k == r.theta.size:
                return None  # no dropped Ritz value, so no bound on the rest
            kept = r.theta[:k] - r.slack
            rho = float(np.linalg.norm(r.residuals))
            tail = max(float(r.theta[k]), r.frob2 - float(r.theta.sum())) + rho + r.slack
            accurate = k == 0 or rho + r.slack <= KEPT_REL_ERROR * r.theta[k - 1]
            if accurate and _keeps_exactly(kept - rho, tail, mu, cfg):
                return _ritz_prox(r, k, sig, singulars)
            rho_k = float(np.linalg.norm(r.residuals[:k]))
            if steps == RITZ_STEPS or not rho_k * RITZ_FALL < prev:
                break
            prev = rho_k
        else:
            return None  # no step at all: the block spans everything
        if not k or not rho_k + r.slack <= KEPT_REL_ERROR * r.theta[k - 1]:
            return None
        # the prox is monotone, so keeping the smallest kept end keeps them all
        low = float(np.sqrt(max(kept[-1] - rho_k, 0.0)))
        if not prox_vector(low, mu, cfg.surrogate)[0] > 0.0:
            return None
        c = _largest_dropped(singulars[k], low, mu, cfg) ** 2
        if not linalg.gram_tail_below(a, r, k, c):
            return None
    except np.linalg.LinAlgError:
        return None
    return _ritz_prox(r, k, sig, singulars)


def _ritz_prox(r: linalg.RitzSpectrum, k: int, sig: np.ndarray, singulars: np.ndarray) -> LStep:
    """The certified step from the first ``k`` Ritz pairs of ``r`` and their prox ``sig``."""
    w, aw = r.vectors[:, :k], r.images[:, :k]
    scale = sig[:k] / singulars[:k]
    l = (aw * scale) @ w.T if r.right else (w * scale) @ aw.T
    return LStep(l, sig, "low_rank", w.copy())


def l_step(target, mu: float, cfg: SolverConfig, basis: np.ndarray | None = linalg.COLD) -> LStep:
    """Spectral prox of ``target`` at weight mu.

    Three routes, each used only when its result is the exact prox with a
    certified keep/drop decision. Unless ``basis`` is ``None``, the step
    first tries the Gram-free route (``_low_rank_step``): power steps with
    Rayleigh–Ritz on a block that starts from ``basis`` (the kept vectors of
    a previous step; no columns for a cold start) and a Gaussian block,
    through products with the target. It certifies when the kept rank is
    small and the tail below the keep-threshold is bounded, by the trace
    left outside the block or by a Cholesky factorization. Otherwise the
    singular values come from the eigendecomposition of the smaller Gram
    matrix (``linalg.gram_spectrum``), a fraction of the cost of a thin SVD,
    and only the kept components are rebuilt. That result is used only when
    both ends of each eigenvalue's error interval get the same keep/drop
    decision from the prox as the computed value (the prox is monotone, so
    the whole interval then agrees), and every kept value is known to
    ``KEPT_REL_ERROR``. Otherwise, and when the eigensolver fails, the step
    takes the thin SVD of ``target``.

    The result's ``basis`` is the next step's start: the kept singular
    vectors on the smaller side, a new array, after a step that took the
    Gram-free route or kept at most ``p / WARM_RANK_DIVISOR`` values, and
    ``None`` otherwise.
    """
    return _spectral_prox(as_matrix(target), mu, cfg, basis)


def _spectral_prox(a: np.ndarray, mu: float, cfg: SolverConfig, basis: np.ndarray | None) -> LStep:
    """:func:`l_step` on a finite 2-D float array, which it does not check again."""
    if basis is not None:
        low = _low_rank_step(a, mu, cfg, basis)
        if low is not None:
            return low
    try:
        g = linalg.gram_spectrum(a)
    except np.linalg.LinAlgError:
        pass
    else:
        sig = prox_vector(g.singulars, mu, cfg.surrogate)
        keep = sig > 0.0
        sq = g.singulars**2
        ends = np.sqrt(np.concatenate([np.maximum(sq - g.delta, 0.0), sq + g.delta]))
        ends_keep = prox_vector(ends, mu, cfg.surrogate).reshape(2, -1) > 0.0
        if (ends_keep == keep).all() and (g.delta <= KEPT_REL_ERROR * sq[keep]).all():
            v = g.vectors[:, keep]
            scale = sig[keep] / g.singulars[keep]
            if g.right:
                return LStep(((a @ v) * scale) @ v.T, sig, "gram", _warm(v))
            return LStep((v * scale) @ (v.T @ a), sig, "gram", _warm(v))
    f = linalg.svd(a)
    sig = prox_vector(f.singulars, mu, cfg.surrogate)
    k = int(np.count_nonzero(sig))
    kept = f.vt[:k].T if a.shape[0] >= a.shape[1] else f.u[:, :k]
    return LStep((f.u * sig) @ f.vt, sig, "svd", _warm(kept))


def _row_blocks(m: int, n: int) -> list[slice]:
    """Row slices of about ``BLOCK_BYTES`` each of an ``m x n`` float array.

    A one-column array is one block: numpy sums a single column pairwise,
    not row by row, so ``_add_column_squares`` could not continue its sum.
    """
    rows = max(1, BLOCK_BYTES // (8 * n)) if n > 1 else max(1, m)
    return [slice(i, min(i + rows, m)) for i in range(0, m, rows)]


def _add_column_squares(sums: np.ndarray, a: np.ndarray, buf: np.ndarray, first: bool) -> None:
    """Add the column sums of ``a * a`` to ``sums`` in ``np.linalg.norm(axis=0)``'s order.

    numpy reduces a C-ordered array over axis 0 one row after another, so
    reducing ``[sums; a * a]`` continues the sum over the rows before ``a``
    as one reduction over the whole array would. ``buf`` holds at least one
    more row than ``a``; ``first`` marks the block of row 0.
    """
    lead = 0 if first else 1
    k = a.shape[0]
    buf[0] = sums
    np.multiply(a, a, out=buf[lead : lead + k])
    np.add.reduce(buf[: lead + k], axis=0, out=sums)


def _target(x, a, y, mu: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``out = (x - a) - y/mu``, each entry rounded as the whole-array expression rounds it."""
    np.subtract(x, a, out=out)
    np.divide(y, mu, out=scratch)
    return np.subtract(out, scratch, out=out)


def step(
    x, state: SolverState, cfg: SolverConfig, norm_x: float
) -> tuple[SolverState, IterationRecord]:
    """One multiplier iteration from ``state``: L-step, S-step, dual step.

    L is the spectral prox of ``X - S - Y/mu`` at weight mu (see ``l_step``),
    S the shrink of ``X - L - Y/mu`` at threshold lambda/mu, then
    ``Y + mu*(L + S - X)`` and ``min(rho*mu, mu_max)``. ``x`` must be a
    finite 2-D float array (``solve`` checks it once) and ``norm_x`` its
    Frobenius norm. The L-step tries the Gram-free route from
    ``state.warm_basis`` unless it is ``None``, and the next state carries
    the basis the L-step returns. Returns the next state and
    the iteration's record, whose Lagrangian is evaluated at the new pair
    and the old multiplier and mu.

    The elementwise work runs in row blocks of ``BLOCK_BYTES``: one pass
    forms the L-step's target, and one pass after it forms the shrink's
    target, S, the residual ``R = L + S - X``, the new multiplier and the
    products behind the record's sums. The l2,1 shrink scales whole
    columns, so a pass between the two sums the squares of each column of
    its target, which the last pass forms again. Each entry comes from the
    same floating-point operations as the whole-array expressions above,
    and every scalar sum and norm is still taken over one full-size array,
    so the results are those of the unblocked step to the bit. Each target
    is checked for finite entries once. The L-step target's buffer is
    reused for the shrink's target and then R, and one scratch array holds
    each product in turn. L, S and the multiplier are new arrays;
    ``state``'s arrays are only read.
    """
    y, s_prev, mu = state.y, state.s, state.mu
    m, n = x.shape
    blocks = _row_blocks(m, n)
    rows = blocks[0].stop if blocks else 0
    buf = np.empty((rows + 1, n))
    w = buf[1:]

    t = np.empty((m, n))
    for b in blocks:
        require_finite(_target(x[b], s_prev[b], y[b], mu, t[b], w[: b.stop - b.start]))
    l, sig, route, basis = _spectral_prox(t, mu, cfg, state.warm_basis)

    tau = cfg.lam / mu
    check_tau(tau)
    l21 = cfg.penalty.kind == L21
    if l21:
        q = np.empty((rows, n))
        q_sums = np.zeros(n)
        for b in blocks:
            k = b.stop - b.start
            require_finite(_target(x[b], l[b], y[b], mu, q[:k], w[:k]))
            _add_column_squares(q_sums, q[:k], buf, b.start == 0)
        scale = column_scale(np.sqrt(q_sums), tau)
        s_sums = np.zeros(n)
    s = np.empty((m, n))
    y_next = np.empty((m, n))
    work = np.empty((m, n))
    y_max = []
    for b in blocks:
        r, sb, wb = t[b], s[b], w[: b.stop - b.start]
        _target(x[b], l[b], y[b], mu, r, wb)
        if l21:
            np.multiply(r, scale, out=sb)
            _add_column_squares(s_sums, sb, buf, b.start == 0)
        else:
            require_finite(r)
            soft_threshold(r, tau, sb, wb)
        np.add(l[b], sb, out=r)
        np.subtract(r, x[b], out=r)
        np.multiply(y[b], r, out=work[b])
        np.multiply(mu, r, out=wb)
        np.add(y[b], wb, out=y_next[b])
        if n:
            y_max.append(np.abs(y_next[b], out=wb).max())

    # t now holds R and work holds Y∘R. The record's sums, each over one
    # full-size array (R∘R is formed in t once ||R|| is taken); the
    # Lagrangian is F(L) + lam*penalty(S) + <Y, R> + (mu/2)*||R||_F^2
    resid_norm = float(np.linalg.norm(t))
    y_dot_r = float(np.sum(work))
    r_dot_r = float(np.sum(np.multiply(t, t, out=t)))
    if l21:
        penalty = column_norm_total(s_sums)
    else:
        penalty = float(np.abs(s, out=work).sum())
    s_change = float(np.linalg.norm(np.subtract(s, s_prev, out=work)))
    record = IterationRecord(
        iter=state.iter + 1,
        residual=resid_norm / norm_x if norm_x > 0.0 else resid_norm,
        lagrangian=(
            surrogate_value(sig, cfg.surrogate) + cfg.lam * penalty + y_dot_r + 0.5 * mu * r_dot_r
        ),
        rank_estimate=linalg.numerical_rank(sig),
        y_inf_norm=float(np.max(y_max)) if y_max else 0.0,
        mu=mu,
        mu_s_change=mu * s_change,
        l_route=route,
    )
    next_state = SolverState(
        l=l,
        s=s,
        y=y_next,
        mu=min(cfg.rho * mu, cfg.mu_max),
        iter=state.iter + 1,
        warm_basis=basis,
    )
    return next_state, record


def kkt_residuals(
    state: SolverState, record: IterationRecord, norm_x: float
) -> tuple[float, float]:
    """Normalized stationarity measures at the state a step returned with ``record``.

    ``norm_x`` is ``||X||_F``, as passed to the step. primal:
    ``||L+S-X||_F / max(1, ||X||_F)``, read off the record's relative
    residual (the same figure when ``||X||_F >= 1``). dual:
    ``record.mu_s_change / max(1, ||Y||_F)``, the norm of an explicit
    subgradient residual. The step's L is the exact prox of
    ``T = X - S_prev - Y_prev/mu`` at weight mu, so ``G = mu*(T - L)`` lies in
    the subdifferential of F at L, and ``G + Y = mu*(S - S_prev)``: the figure
    bounds the distance of ``-Y`` to that subdifferential without a
    factorization of L.
    """
    # the record divides by ||X||_F, or by nothing when X = 0
    primal = record.residual * min(1.0, norm_x) if norm_x > 0.0 else record.residual
    dual = record.mu_s_change / max(1.0, float(np.linalg.norm(state.y)))
    return primal, dual


ProgressCallback = Callable[[SolverState, IterationRecord], None]


def solve(x, cfg: SolverConfig | None = None, callback: ProgressCallback | None = None) -> SolverResult:
    """Run the multiplier loop from ``S = 0, Y = 0`` until the residual tolerance.

    Parameters
    ----------
    x : array_like
        Data matrix to decompose.
    cfg : SolverConfig, optional
        Tuning parameters; defaults are the library-wide defaults.
    callback : callable, optional
        Invoked once per outer iteration with the state the loop continues
        from (frozen) and that iteration's record. The arrays handed over are
        not mutated afterwards.

    Returns
    -------
    SolverResult
        Final pair, convergence flag, per-iteration history, wall time, and
        final KKT residuals. Hitting ``max_outer`` without reaching the
        tolerance returns ``converged=False`` with the full history rather
        than raising; the partial decomposition is still useful.
    """
    x = as_matrix(x)
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    zero = np.zeros_like(x)
    state = SolverState(l=zero, s=zero, y=zero, mu=cfg.mu0)
    norm_x = float(np.linalg.norm(x))
    history: list[IterationRecord] = []
    converged = False
    while state.iter < cfg.max_outer:
        state, record = step(x, state, cfg, norm_x)
        history.append(record)
        if callback is not None:
            callback(state, record)
        if record.residual <= cfg.tol:
            converged = True
            break

    kkt_primal, kkt_dual = kkt_residuals(state, record, norm_x)
    return SolverResult(
        l=state.l,
        s=state.s,
        iterations=state.iter,
        converged=converged,
        history=history,
        elapsed_seconds=time.perf_counter() - t0,
        kkt_primal=kkt_primal,
        kkt_dual=kkt_dual,
    )
