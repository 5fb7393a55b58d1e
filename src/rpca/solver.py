"""Augmented-Lagrange-multiplier loop for the low-rank + sparse split.

Decomposes ``X = L + S`` by minimizing ``F(L) + lambda * penalty(S)`` subject
to the split, where F is a spectral penalty (see ``surrogates``) and
``penalty`` an entrywise or columnwise sparsity norm (see ``sparse``). Each
outer iteration proxes L against the current residual target, shrinks S, then
takes the standard multiplier step and grows the quadratic penalty weight mu
geometrically. A solve that starts the gamma penalty above its configured
gamma halves gamma every step down to it (see ``working_start``). The loop
stops when the relative residual ``||X - L - S||_F / ||X||_F`` drops to the
configured tolerance on a step taken at the configured gamma. Inner steps
take their L-step uncertified; the step the loop ends on is certified.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import as_matrix, integer, real_number, row_blocks
from .sparse import (
    ENTRYWISE_L1,
    L1,
    L21,
    SparsePenalty,
    check_tau,
    column_scale,
    soft_threshold,
)
from .surrogates import GAMMA, RankSurrogate, gamma_surrogate, surrogate_value
from . import linalg, spectral

# Under ``auto_scale`` the loop runs on ``c * X``, ``c`` the power of two
# that puts the estimate of sigma_1(c * X) within a factor sqrt(2) of this
# value: inside the band of sigma_1 where the default settings recover the
# planted split across the shapes measured (60x60 up to 4000x1000).
SCALE_REF = 236.0

# Under ``auto_scale`` with the gamma and l1 penalties the first
# keep-threshold, about sqrt(2(1+gamma)/mu), is this multiple of the
# estimated spectral edge of c * X's sparse part (see ``working_start``).
# With 5% corruption every measured rung recovers from 1.5 or below up to
# the mu0 floor; with 8 spikes on 2000x400 every seed measured needs 2.5.
START_KAPPA = 3.0

# A walked gamma (see ``working_start``) is multiplied by this every step,
# down to the configured gamma.
GAMMA_RATIO = 0.5


def scaled_lambda(m: int, n: int) -> float:
    """Dimension-scaled sparsity weight, ``1/sqrt(max(m, n))``."""
    return 1.0 / np.sqrt(max(m, n))


_FLOAT_SETTINGS = ("lam", "mu0", "rho", "mu_max", "tol")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs for :func:`solve`.

    ``lam`` weighs the sparsity penalty; ``mu0`` and ``rho`` set the initial
    quadratic penalty and its growth per iteration (capped at ``mu_max`` so
    the stopping rule, not overflow, ends the run). ``tol`` is the relative
    residual at which the loop stops, ``max_outer`` the iteration budget.
    With ``auto_scale`` the solve runs on ``c * X``, ``c`` from
    :func:`working_start`, and its L and S are divided by ``c``; every other
    setting then acts on ``c * X``, and with the gamma and l1 penalties
    ``mu0`` is the floor of a start weight read off ``X``'s spectrum. With
    those penalties a solve can also start at a larger gamma than the
    surrogate's (see :func:`working_start`).
    """

    lam: float = 1e-3
    mu0: float = 1e-4
    rho: float = 1.1
    mu_max: float = 1e10
    tol: float = 1e-3
    max_outer: int = 500
    surrogate: RankSurrogate = field(default_factory=gamma_surrogate)
    penalty: SparsePenalty = ENTRYWISE_L1
    auto_scale: bool = False

    def __post_init__(self):
        # an infinite setting would pass the comparisons below, then give NaN
        # Lagrangians, an overflowing mu, or a report that is not valid JSON
        for name in _FLOAT_SETTINGS:
            value = real_number(name, getattr(self, name))
            if math.isinf(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
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
        object.__setattr__(self, "max_outer", integer("max_outer", self.max_outer))
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not isinstance(self.auto_scale, bool):
            raise ValueError("auto_scale must be True or False")
        if not isinstance(self.surrogate, RankSurrogate):
            raise ValueError("surrogate must be a RankSurrogate")
        if not isinstance(self.penalty, SparsePenalty):
            raise ValueError("penalty must be a SparsePenalty")


@dataclass(frozen=True)
class SolverState:
    """Iterate: primal pair, multiplier, the next step's weights, iteration count, warm basis.

    L is carried as its factors, ``l_factors`` (see ``spectral.LowRank``);
    ``l`` forms it in full on first access and keeps it, so a state whose
    ``l`` is never read holds no full-size L. ``l_factors`` is ``None`` in
    the loop's own copy of a state, whose L no step reads, and ``l`` is then
    ``None`` too. ``gamma`` is the gamma of the next step's penalty,
    ``None`` for the configured surrogate (always with the nuclear
    penalty). ``ritz`` is ``None`` when the L-step that made L certified
    its keep/drop decision; only a step taken with ``certify=False`` can
    leave it set, to that L-step's ``ritz`` (see :func:`solve`).
    """

    l_factors: spectral.LowRank | None
    s: np.ndarray
    y: np.ndarray
    mu: float
    iter: int = 0
    # the next L-step's start basis (see ``spectral.l_step``): no columns at
    # the start, then the last step's kept vectors on the smaller side. The
    # low-rank route steps it only when it has at most p / WARM_RANK_DIVISOR
    # columns
    warm_basis: np.ndarray = field(default_factory=lambda: spectral.COLD)
    gamma: float | None = None
    ritz: spectral.RitzSpectrum | None = None

    @cached_property
    def l(self) -> np.ndarray | None:
        return None if self.l_factors is None else self.l_factors.dense()


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics appended to the solve history.

    ``l_route`` names the path the L-step took: ``"low_rank"``, ``"gram"`` or
    ``"svd"`` (see ``spectral.l_step``). ``mu`` and ``gamma`` are the step's
    weights; ``gamma`` is ``None`` with the nuclear penalty.
    """

    iter: int
    residual: float
    lagrangian: float
    rank_estimate: int
    y_inf_norm: float
    mu: float
    mu_s_change: float
    l_route: str
    gamma: float | None


@dataclass
class SolverResult:
    """Outcome of :func:`solve`: the final pair, its history and stationarity.

    ``kkt_primal`` is the final relative residual ``||L+S-X||_F / max(1, ||X||_F)``.
    ``kkt_dual`` is the last iteration's ``mu*||S - S_prev||_F / max(1, ||Y||_F)``,
    the norm of ``G + Y`` for the subgradient ``G`` of the rank penalty that the
    last L-step's prox certifies at L (see :func:`kkt_residuals`). ``scale``
    is the working scale ``c`` (1 without ``auto_scale``): L and S are the
    solve of ``c * X`` divided by ``c``, while the history and both KKT
    figures are those of ``c * X``. L is the last state's factors formed in
    full (see :class:`SolverState`), the only full-size L a solve forms
    unless its callback reads one.
    """

    l: np.ndarray
    s: np.ndarray
    iterations: int
    converged: bool
    history: list[IterationRecord]
    elapsed_seconds: float
    kkt_primal: float
    kkt_dual: float
    scale: float = 1.0


def _target(x, a, y, mu: float, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``out = (x - a) - y/mu``, each entry rounded as the whole-array expression rounds it."""
    np.subtract(x, a, out=out)
    np.divide(y, mu, out=scratch)
    return np.subtract(out, scratch, out=out)


def _require_finite_iterate(a: np.ndarray) -> None:
    """Raise ``ValueError`` when ``a``, part of an iterate, holds a NaN or an infinity."""
    if not np.isfinite(a).all():
        raise ValueError(
            "an iterate is not finite (NaN/Inf): the solve overflowed at the scale of X; "
            "auto_scale=True, which rpca decompose uses, solves at the working scale"
        )


def _first_pass(x, state: SolverState, c: float):
    """The step's row blocks, its block buffer of one block's rows, the rows of ``c * x`` and its
    first pass: the L-step's target ``c X - S - Y/mu`` from ``state``, checked finite."""
    m, n = x.shape
    blocks = row_blocks(m, n)
    rows = blocks[0].stop if blocks else 0
    w = np.empty((rows, n))
    x_rows = None if c == 1.0 else np.empty((rows, n))

    def x_block(b: slice) -> np.ndarray:
        return x[b] if x_rows is None else np.multiply(x[b], c, out=x_rows[: b.stop - b.start])

    t = np.empty((m, n))
    for b in blocks:
        t_b = _target(x_block(b), state.s[b], state.y[b], state.mu, t[b], w[: b.stop - b.start])
        _require_finite_iterate(t_b)
    return blocks, w, x_block, t


def step(
    x, state: SolverState, cfg: SolverConfig, norm_x: float, certify: bool = True, c: float = 1.0
) -> tuple[SolverState, IterationRecord]:
    """One multiplier iteration from ``state`` on ``c * X``: L-step, S-step, dual step.

    L is the spectral prox of ``X - S - Y/mu`` at weight mu (see
    ``spectral.l_step``), S the shrink of ``X - L - Y/mu`` at threshold
    lambda/mu, then ``Y + mu*(L + S - X)`` and the next weights of
    :func:`next_weights`, with ``c * x`` for X. The prox and the Lagrangian
    take the penalty at ``state.gamma``. ``x`` must be a finite 2-D float
    array (``solve`` checks it once) and ``norm_x`` the Frobenius norm of
    ``c * x``. The L-step starts its low-rank route from
    ``state.warm_basis``, and the next state carries the basis the L-step
    returns. ``state.l_factors`` is not read. Returns the next state and
    the iteration's record, whose Lagrangian is evaluated at the new pair
    and the old multiplier and weights. ``certify`` goes to the L-step:
    when it is false a ``low_rank`` L-step may be accepted without the bound
    on the values it drops, and the next state then carries its ``ritz``.

    The elementwise work runs in row blocks of ``linalg.BLOCK_BYTES``: one
    pass forms the L-step's target (:func:`_first_pass`), and one after it
    the shrink's target, S, the residual ``R = L + S - X`` and the new
    multiplier. The l2,1 shrink scales whole columns, so a pass between the
    two forms its target, whose column norms are then taken over the whole
    array as ``np.linalg.norm(axis=0)`` takes them, and the main pass
    shrinks that target in place. Each pass that reads X scales its block
    into a block buffer when ``c`` is not 1, and L's row block is formed
    from the L-step's factors (``spectral.LowRank.rows``) in the rows of the
    new multiplier, which the main pass writes last, so neither ``c * X``
    nor L exists in full. Each entry comes from the same floating-point
    operations as the whole-array expressions above, with L formed by the
    same row blocks as ``LowRank.dense``, and every sum and norm is taken
    over one full-size array, so the results are those of the unblocked
    step to the bit. The L-step's target and the l1 shrink's target are
    checked for finite entries; the l2,1 shrink's target through its column
    norms, which are not finite when it holds a NaN or an infinity. S's
    buffer holds the L-step's target, then on l2,1 the squares behind the
    column norms, until the main pass writes S over it, and one buffer
    allocated after the L-step holds the shrink's target and R. The
    record's ``||R||_F^2`` and ``<Y, R>`` are dot products over R in that
    buffer, and ``|S|`` and ``S - S_prev`` go through it in turn. The l2,1
    penalty is ``sum(max(n_j - tau, 0))`` over the shrink target's column
    norms ``n_j``: ``||S||_2,1`` in exact arithmetic. The next state
    carries L as the L-step's factors; ``state``'s arrays are only read.
    """
    y, s_prev, mu = state.y, state.s, state.mu
    surrogate = cfg.surrogate if state.gamma is None else replace(cfg.surrogate, gamma=state.gamma)
    m, n = x.shape
    # S's buffer holds the L-step's target, which the main pass overwrites
    # with S once nothing reads the target. The R buffer and Y_next come
    # after the L-step: allocated before it, or Y_next before S, the same
    # arrays left the process's peak RSS one full-size array higher on the
    # column-outlier benchmark, through where the heap placed them
    blocks, w, x_block, s = _first_pass(x, state, c)
    prox = spectral.l_step(s, mu, surrogate, state.warm_basis, certify)
    factors, sig = prox.l_factors, prox.proxed
    t = np.empty((m, n))

    tau = cfg.lam / mu
    check_tau(tau)
    l21 = cfg.penalty.kind == L21
    # each row block of Y_next holds that block of L until the main pass
    # writes Y_next over it, after its last read of L
    y_next = np.empty((m, n))
    if l21:
        for b in blocks:
            _target(x_block(b), factors.rows(b, y_next[b]), y[b], mu, t[b], w[: b.stop - b.start])
        # np.linalg.norm(t, axis=0) by its own expression, with the squares
        # in S's buffer: the L-step's target there is dead
        with np.errstate(over="ignore"):  # an infinite norm is reported below
            q_norms = np.sqrt(np.add.reduce(np.multiply(t, t, out=s), axis=0))
        _require_finite_iterate(q_norms)
        scale = column_scale(q_norms, tau)
    y_max = []
    for b in blocks:
        r, sb, wb = t[b], s[b], w[: b.stop - b.start]
        xb, lb = x_block(b), y_next[b] if l21 else factors.rows(b, y_next[b])
        if l21:
            np.multiply(r, scale, out=sb)
        else:
            _target(xb, lb, y[b], mu, r, wb)
            _require_finite_iterate(r)
            soft_threshold(r, tau, sb, wb)
        np.add(lb, sb, out=r)
        np.subtract(r, xb, out=r)
        np.multiply(mu, r, out=wb)
        np.add(y[b], wb, out=y_next[b])
        if n:
            y_max.append(np.abs(y_next[b], out=wb).max())

    # t now holds R. The Lagrangian is
    # F(L) + lam*penalty(S) + <Y, R> + (mu/2)*||R||_F^2; np.linalg.norm takes
    # ||R||_F as sqrt(<R, R>), and a shrunk column of norm n has norm n - tau
    r_dot_r = float(np.vdot(t, t))
    resid_norm = float(np.sqrt(r_dot_r))
    y_dot_r = float(np.vdot(y, t))
    if l21:
        penalty = float(np.maximum(q_norms - tau, 0.0).sum())
    else:
        penalty = float(np.abs(s, out=t).sum())
    with np.errstate(over="ignore"):
        # a sum of squares overflows above about 1e154; the record then holds
        # an infinity, which ends the solve unconverged (see ``solve``)
        s_change = float(np.linalg.norm(np.subtract(s, s_prev, out=t)))
    record = IterationRecord(
        iter=state.iter + 1,
        residual=resid_norm / norm_x if norm_x > 0.0 else resid_norm,
        lagrangian=(
            surrogate_value(sig, surrogate) + cfg.lam * penalty + y_dot_r + 0.5 * mu * r_dot_r
        ),
        rank_estimate=linalg.numerical_rank(sig),
        y_inf_norm=float(np.max(y_max)) if y_max else 0.0,
        mu=mu,
        mu_s_change=mu * s_change,
        l_route=prox.route,
        gamma=surrogate.gamma,
    )
    mu_next, gamma_next = next_weights(cfg, mu, state.gamma)
    next_state = SolverState(
        l_factors=factors,
        s=s,
        y=y_next,
        mu=mu_next,
        iter=state.iter + 1,
        warm_basis=prox.basis,
        gamma=gamma_next,
        ritz=prox.ritz,
    )
    return next_state, record


def next_weights(cfg: SolverConfig, mu: float, gamma: float | None) -> tuple[float, float | None]:
    """The weights of the step after one taken at ``mu`` and ``gamma``.

    mu grows to ``min(rho * mu, mu_max)``. A gamma above the configured one
    (see :func:`working_start`) is multiplied by ``GAMMA_RATIO``, and never
    falls below the configured gamma; ``None`` stays ``None``.
    """
    if gamma is not None:
        gamma = max(GAMMA_RATIO * gamma, cfg.surrogate.gamma)
    return min(cfg.rho * mu, cfg.mu_max), gamma


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


def working_start(x: np.ndarray, cfg: SolverConfig) -> tuple[float, float, float | None]:
    """The working scale ``c``, the start weight mu and the start gamma of a solve of ``x``.

    ``x`` must be a finite 2-D float array. Without ``cfg.auto_scale``,
    ``c`` is 1 and mu is ``cfg.mu0``. With it, ``c`` is the power of two
    nearest ``SCALE_REF / sigma_1(X)`` on a log scale. ``sigma_1`` is
    estimated by the top Ritz value of one power step of the fixed-seed
    ``spectral.ritz_iterations`` on the tall view of ``x``, or by the 2-norm
    when that block would span every column, or its products overflow or
    underflow to 0. Returns ``(1, cfg.mu0, gamma)`` for a zero ``x``,
    ``gamma`` the configured one (``None`` for the nuclear penalty).

    With the gamma penalty, the entrywise l1 penalty and a Ritz estimate,
    the same step reads the spectral edge of ``c * X``'s sparse part; raw
    solves take it too, at ``c = 1``, and raw nuclear and l2,1 solves take
    no power step. ``bulk`` is ``c`` times the step's energy outside the
    block, ``tail = ||X||_F^2 - sum(theta)``, read as a Bai–Yin edge
    ``sqrt(tail / (m n)) * (sqrt(m) + sqrt(n))`` of a dense bulk. Under
    ``auto_scale`` the edge is the larger of ``bulk`` and ``c`` times the
    largest ``|x_ij|``, the 2-norm of a lone spike, which covers corruption
    too sparse to form a bulk, whose spikes can lie inside the block and
    leave no tail. mu is then the weight whose first keep-threshold, about
    ``sqrt(2(1+gamma)/mu)``, is ``START_KAPPA * edge``, ``2(1+gamma) /
    (START_KAPPA * edge)^2``, clipped to ``[cfg.mu0, cfg.mu_max]``:
    ``cfg.mu0`` stays a floor. Otherwise mu is ``cfg.mu0``: the rule is
    mapped for the gamma penalty, and a few outlier columns of low rank can
    lie inside the power step's block, leaving no tail to read.

    When mu lies above ``mu_bulk = 2(1+gamma) / (START_KAPPA * bulk)^2``,
    the weight read off the bulk alone (always for a raw solve whose first
    threshold lies below ``START_KAPPA * bulk``, and at auto only when the
    ``cfg.mu0`` floor binds), the solve starts at ``(1+gamma) mu / mu_bulk -
    1``, the gamma that puts mu's first threshold there, and
    :func:`next_weights` walks it down to the configured gamma. The walk
    starts only below the estimate ``c * sigma_1``: the penalty weighs
    values far below gamma like the nuclear norm, whose threshold is about
    ``1/mu``, so a larger start reads no threshold (a raw ``X`` far above
    the defaults' band). The largest entry is not read here: a start gamma
    read off it keeps planted directions below it out of L.

    A power of two times ``x`` and the result divided by it are exact. ``c``
    depends only on the binary mantissa of ``SCALE_REF / sigma_1``, and the
    edge of ``2^j * X`` is ``2^j`` times its edge, so the scale of ``2^j *
    X`` is ``2^-j`` times this one and its mu and gamma are these.
    """
    gamma = cfg.surrogate.gamma
    rule = cfg.surrogate.kind == GAMMA and cfg.penalty.kind == L1
    if not (cfg.auto_scale or rule):
        return 1.0, cfg.mu0, gamma
    b = x if x.shape[0] >= x.shape[1] else x.T
    try:
        r = next(spectral.ritz_iterations(b), None)
    except np.linalg.LinAlgError:
        r = None
    top = math.sqrt(max(float(r.theta[0]), 0.0)) if r is not None else 0.0
    ritz = top > 0.0
    c = 1.0
    if cfg.auto_scale:
        if not ritz and x.size:
            top = float(np.linalg.norm(x, 2))
        if not (top > 0.0 and SCALE_REF / top < np.inf):
            return 1.0, cfg.mu0, gamma
        # SCALE_REF / top = mantissa * 2^exp with mantissa in [1/2, 1): its log2
        # rounds to exp when log2(mantissa) >= -1/2
        mantissa, exp = math.frexp(SCALE_REF / top)
        c = math.ldexp(1.0, exp if mantissa >= math.sqrt(0.5) else exp - 1)
    if not (ritz and rule):
        return c, cfg.mu0, gamma
    m, n = x.shape
    tail = max(r.frob2 - float(r.theta.sum()), 0.0)
    bulk = math.sqrt(tail / (m * n)) * (math.sqrt(m) + math.sqrt(n))
    mu = cfg.mu0
    if cfg.auto_scale:
        peak = max(float(x.max()), -float(x.min()))
        edge = c * max(bulk, peak)
        mu = min(max(cfg.mu0, 2.0 * (1.0 + gamma) / (START_KAPPA * edge) ** 2), cfg.mu_max)
    # the weight whose first threshold is START_KAPPA times the bulk reading
    # alone, by the rule's own expression: at auto it is at least mu unless
    # the floor binds, and a raw solve started at a rule weight does not walk
    reach = START_KAPPA * (c * bulk)
    if not 0.0 < reach < math.sqrt(sys.float_info.max):
        return c, mu, gamma
    mu_bulk = 2.0 * (1.0 + gamma) / reach**2
    start = (1.0 + gamma) * mu / mu_bulk - 1.0
    return c, mu, start if mu_bulk < mu and gamma < start < c * top else gamma


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
        not mutated afterwards. The state carries L as factors; reading
        ``state.l`` forms L in full and keeps it with the state. The loop
        holds only the arrays its next step reads, so a callback that keeps
        a state keeps its arrays alive too.

    With ``cfg.auto_scale`` the loop runs on ``c * X``, and the callback
    sees that loop's states. No copy of ``c * X`` is kept: each step scales
    X one row block at a time, by the same multiply, and ``||c * X||_F`` is
    taken from a copy freed before the loop starts. The loop starts at the
    weights of :func:`working_start`; when its gamma lies above the
    configured one, the loop stops only on a step taken at the configured
    gamma.

    Every step but the one that uses up ``max_outer`` is taken with
    ``certify=False`` (see :func:`step`). When such a step meets the stop
    rule uncertified, the loop runs the skipped Cholesky bound on the
    step's ``ritz``, by the route walk's three calls, in an order that
    holds no more than the step's own full-size arrays: the bound's shift
    first (``spectral.tail_shift``), which refuses a bound below the
    rounding slack before anything is rebuilt; then the target, rebuilt by
    the step's first pass while the previous state is alive; then ``G``
    (``spectral.gram``) once that state is let go; then the factor, in
    ``G``'s own buffer once the target is gone too
    (``spectral.gram_tail_below``). At the factor the loop holds S, Y,
    ``G``, numpy's Cholesky result and LAPACK's copy of its input: five
    arrays of ``X``'s size on a square ``X``, as many as the step's main
    pass. If the bound holds, the step is the certified one to the bit and
    the loop stops; otherwise the loop goes on from it. No step is taken
    twice, and the returned L and ``kkt_dual`` rest on a certified L-step.
    A step whose record holds an infinity or a NaN (an overflow at the
    scale of X) ends the loop with ``converged=False``, and no bound runs
    on it.

    Returns
    -------
    SolverResult
        Final pair, convergence flag, per-iteration history, wall time,
        final KKT residuals and the working scale. Hitting ``max_outer``
        without reaching the tolerance returns ``converged=False`` with the
        full history rather than raising; the partial decomposition is still
        useful.
    """
    # a C-ordered copy of any other layout: ||X||_F and the row blocks then
    # read the entries in one order, so the record does not depend on it
    x = np.ascontiguousarray(as_matrix(x))
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    c, mu0, gamma0 = working_start(x, cfg)
    with np.errstate(over="ignore"):  # an X this large leaves a record figure infinite (see ``step``)
        norm_x = float(np.linalg.norm(x if c == 1.0 else x * c))
    zero = np.zeros_like(x)
    state = SolverState(l_factors=None, s=zero, y=zero, mu=mu0, gamma=gamma0)
    del zero
    history: list[IterationRecord] = []
    converged = False
    while state.iter < cfg.max_outer:
        # the step does not read L: drop its factors, and any L the callback
        # formed, unless the callback kept the state
        prev = replace(state, l_factors=None)
        del state
        state, record = step(x, prev, cfg, norm_x, certify=prev.iter + 1 == cfg.max_outer, c=c)
        finite = all(math.isfinite(v) for v in vars(record).values() if isinstance(v, float))
        converged = finite and record.residual <= cfg.tol and record.gamma == cfg.surrogate.gamma
        # the in-place bound (see above): its shift reads only the spectrum.
        # The target is rebuilt while S_prev and Y_prev are alive, the
        # step's own peak; G is formed once they are gone, and factored in
        # its own buffer once the target is gone too
        ritz, k = state.ritz, state.warm_basis.shape[1]
        bound, shift = converged and ritz is not None, 0.0
        if bound:
            shift = spectral.tail_shift(ritz, spectral.prox_tail(ritz, k, record.mu, cfg.surrogate))
        target = _first_pass(x, prev, c)[3] if shift > 0.0 else None
        del prev
        g = None if target is None else spectral.gram(target)
        del target
        if bound:
            converged = g is not None and spectral.gram_tail_below(g, ritz, k, shift)
            state = replace(state, ritz=None) if converged else state
        del g
        history.append(record)
        if callback is not None:
            callback(state, record)
        if converged or not finite:
            break

    kkt_primal, kkt_dual = kkt_residuals(state, record, norm_x)
    return SolverResult(
        l=state.l if c == 1.0 else state.l / c,
        s=state.s if c == 1.0 else state.s / c,
        iterations=state.iter,
        converged=converged,
        history=history,
        elapsed_seconds=time.perf_counter() - t0,
        kkt_primal=kkt_primal,
        kkt_dual=kkt_dual,
        scale=c,
    )
