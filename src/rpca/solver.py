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

from .linalg import as_matrix
from .sparse import ENTRYWISE_L1, SparsePenalty, penalty_value, shrink
from .surrogates import RankSurrogate, gamma_surrogate, prox_vector, surrogate_value
from . import linalg

# Relative accuracy to which every kept squared singular value must be known
# before the L-step uses the Gram spectrum instead of the thin SVD.
KEPT_REL_ERROR = 1e-8


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
    # the next L-step tries the Gram-free route (see ``l_step``): true at the
    # start and then while the L-step keeps taking it
    low_rank: bool = True


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
    """An L-step's result: L, the proxed singular values and the route that produced them."""

    l: np.ndarray
    singulars: np.ndarray
    route: str


def _keeps_exactly(kept_low, drop_high: float, mu: float, cfg: SolverConfig) -> bool:
    """Whether the prox keeps every square root of ``kept_low`` and drops that of ``drop_high``.

    The prox is monotone in the singular value, so every value in between
    these ends then gets the same decision as the end it is on.
    """
    ends = np.sqrt(np.maximum(np.append(kept_low, drop_high), 0.0))
    keep = prox_vector(ends, mu, cfg.surrogate) > 0.0
    return bool(keep[:-1].all() and not keep[-1])


def _low_rank_step(a: np.ndarray, mu: float, cfg: SolverConfig) -> LStep | None:
    """The Gram-free L-step, or ``None`` when it cannot be certified.

    Proxes the square roots of the Ritz values from ``linalg.ritz_spectrum``.
    With ``rho = ||G W - W Theta||_F`` and ``G = [[Theta, E^T], [E, C]]`` in
    the basis ``[W, W_perp]``, ``||E||_2 <= rho`` and ``lambda_max(C) <=
    rest``, so by Weyl's inequality ``lambda_(k+1)(G) <= max(theta_(k+1),
    rest) + rho`` and ``|lambda_i(G) - theta_i| <= rho`` for the ``k`` kept
    values. The step is certified when the prox keeps each ``theta_i - rho``
    and drops that tail bound (both widened by the rounding ``slack``), and
    ``rho`` is within ``KEPT_REL_ERROR`` of every kept value: then exactly
    ``k`` values are kept, each known as well as on the Gram path. The tail
    is checked with ``rho = 0`` first, so an attempt that fails there skips
    the residual's product.
    """
    try:
        r = linalg.ritz_spectrum(a)
    except np.linalg.LinAlgError:
        return None
    if r is None:
        return None
    singulars = np.sqrt(np.maximum(r.theta, 0.0))
    sig = prox_vector(singulars, mu, cfg.surrogate)
    k = int(np.count_nonzero(sig))  # the prox is monotone, so it keeps a prefix
    if k == r.theta.size:
        return None  # no dropped Ritz value, so no bound on the rest
    kept, tail = r.theta[:k] - r.slack, max(float(r.theta[k]), r.rest) + r.slack
    if not _keeps_exactly(kept, tail, mu, cfg):
        return None
    rho = linalg.ritz_residual(a, r)
    if k and not rho + r.slack <= KEPT_REL_ERROR * r.theta[k - 1]:
        return None
    if not _keeps_exactly(kept - rho, tail + rho, mu, cfg):
        return None
    w, aw = r.vectors[:, :k], r.images[:, :k]
    scale = sig[:k] / singulars[:k]
    l = (aw * scale) @ w.T if r.right else (w * scale) @ aw.T
    return LStep(l, sig, "low_rank")


def l_step(target, mu: float, cfg: SolverConfig, low_rank: bool = True) -> LStep:
    """Spectral prox of ``target`` at weight mu.

    Three routes, each used only when its result is the exact prox with a
    certified keep/drop decision. With ``low_rank``, the step first tries
    the Gram-free route (``_low_rank_step``): one power step on a Gaussian
    block and Rayleigh–Ritz, a few products with the target and no
    eigensolve of size ``min(m, n)``. It certifies when the kept rank is
    small and little spectral mass lies below the keep-threshold.
    Otherwise the singular values come from the eigendecomposition of the
    smaller Gram matrix (``linalg.gram_spectrum``), a fraction of the cost
    of a thin SVD, and only the kept components are rebuilt. That result is
    used only when both ends of each eigenvalue's error interval get the same
    keep/drop decision from the prox as the computed value (the prox is
    monotone, so the whole interval then agrees), and every kept value is
    known to ``KEPT_REL_ERROR``. Otherwise, and when the eigensolver fails,
    the step takes the thin SVD of ``target``.
    """
    a = as_matrix(target)
    if low_rank:
        low = _low_rank_step(a, mu, cfg)
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
                return LStep(((a @ v) * scale) @ v.T, sig, "gram")
            return LStep((v * scale) @ (v.T @ a), sig, "gram")
    f = linalg.svd(a)
    sig = prox_vector(f.singulars, mu, cfg.surrogate)
    return LStep((f.u * sig) @ f.vt, sig, "svd")


def _lagrangian(sig, s, y, mu: float, resid, cfg: SolverConfig) -> float:
    """The augmented Lagrangian from L's singular values ``sig`` and ``resid = L + S - X``.

    ``F(L) + lam*penalty(S) + <Y, L+S-X> + (mu/2)*||L+S-X||_F^2`` with the
    trace inner product.
    """
    return (
        surrogate_value(sig, cfg.surrogate)
        + cfg.lam * penalty_value(s, cfg.penalty)
        + float(np.sum(y * resid))
        + 0.5 * mu * float(np.sum(resid * resid))
    )


def step(
    x, state: SolverState, cfg: SolverConfig, norm_x: float
) -> tuple[SolverState, IterationRecord]:
    """One multiplier iteration from ``state``: L-step, S-step, dual step.

    L is the spectral prox of ``X - S - Y/mu`` at weight mu (see ``l_step``),
    S the shrink of ``X - L - Y/mu`` at threshold lambda/mu, then
    ``Y + mu*(L + S - X)`` and ``min(rho*mu, mu_max)``. ``x`` must be a
    finite 2-D float array (``solve`` checks it once) and ``norm_x`` its
    Frobenius norm. The L-step tries the Gram-free route only when
    ``state.low_rank``, and the next state's flag says whether it took it,
    so a solve makes at most one failed attempt. Returns the next state and
    the iteration's record, whose Lagrangian is evaluated at the new pair
    and the old multiplier and mu.
    """
    y, mu = state.y, state.mu
    l, sig, route = l_step(x - state.s - y / mu, mu, cfg, state.low_rank)
    s = shrink(x - l - y / mu, cfg.lam / mu, cfg.penalty)
    resid = l + s - x
    resid_norm = float(np.linalg.norm(resid))
    y_next = y + mu * resid
    record = IterationRecord(
        iter=state.iter + 1,
        residual=resid_norm / norm_x if norm_x > 0.0 else resid_norm,
        lagrangian=_lagrangian(sig, s, y, mu, resid, cfg),
        rank_estimate=linalg.numerical_rank(sig),
        y_inf_norm=float(np.max(np.abs(y_next))) if y_next.size else 0.0,
        mu=mu,
        mu_s_change=mu * float(np.linalg.norm(s - state.s)),
        l_route=route,
    )
    next_state = SolverState(
        l=l,
        s=s,
        y=y_next,
        mu=min(cfg.rho * mu, cfg.mu_max),
        iter=state.iter + 1,
        low_rank=route == "low_rank",
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
