"""The L-step: the spectral prox of the ALM loop's target, with a certified keep/drop decision.

Two routes give candidate values ``theta``, estimates of the eigenvalues of
the smaller Gram matrix ``G = B^T B`` of the target's tall view ``B`` (the
target or its transpose), so the squared singular values of the target,
plus an error ``err`` on each kept one and a bound ``tail`` on the dropped
ones. One certificate (``_certified``) decides on those ``theta`` for both,
and the prox acts on their square roots. The ``low_rank`` route takes power
steps with Rayleigh–Ritz on a small block (Halko, Martinsson & Tropp,
arXiv:0909.4061): its ``theta`` are the Ritz values. The ``gram`` route
eigendecomposes ``G``: its ``theta`` are the eigenvalues, clipped at 0.
One function, ``_certified_route``, tries them in that order. The power
steps never form ``G``; the Cholesky tail bound and the ``gram`` route form
their own and drop it, so none is alive when the step takes ``B W`` from
the kept vectors ``W``. The step returns L as two factors (:class:`LowRank`)
built from ``W`` and ``B W``, or from the thin SVD (``linalg.svd``, route
``svd``) when neither route certifies. A step taken with ``certify=False``
skips the ``low_rank`` route's Cholesky tail bound and carries the
spectrum that bound needs as :class:`LStep`'s ``ritz``, on which the
bound can run later: :func:`tail_shift`, :func:`gram` and
:func:`gram_tail_below` are its parts, which ``solver.solve`` runs in its
own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .surrogates import RankSurrogate, prox_vector

# Relative accuracy to which every kept squared singular value must be known
# before the L-step uses it instead of the thin SVD.
KEPT_REL_ERROR = 1e-8

# Bounds on the low-rank route (see ``_certified_route``): at most this many
# power steps per attempt, continued while the kept block's residual falls
# at least RITZ_FALL times per step and is still above the rounding slack.
RITZ_STEPS = 10
RITZ_FALL = 10.0

# The route walk tries the low-rank route from a basis of at most
# p / WARM_RANK_DIVISOR columns, p = min(m, n): the last step's kept vectors.
WARM_RANK_DIVISOR = 20

# Multiplier c in the eigenvalue error bound c * max(m, n) * eps * lambda_max:
# rounding from forming the Gram product plus the backward error of the
# symmetric eigensolver.
GRAM_ERROR_FACTOR = 4.0

# Width of the Gaussian block behind ritz_iterations: RITZ_BLOCK columns on
# a cold start, WARM_BLOCK next to a basis of at least one column.
RITZ_BLOCK = 16
WARM_BLOCK = 4

# A basis with no columns: ritz_iterations then starts from the Gaussian
# block alone.
COLD = np.empty((0, 0))
COLD.flags.writeable = False


class RitzSpectrum(NamedTuple):
    """Rayleigh–Ritz pairs of ``G = B^T B`` on a power step of a tall ``B``.

    ``theta`` holds the Ritz values, nonincreasing, and ``vectors`` the
    orthonormal Ritz vectors ``W``. ``residuals`` holds the column norms of
    ``G W - W diag(theta)``. ``frob2 = ||B||_F^2`` is the trace of ``G``, so
    ``frob2 - sum(theta)`` bounds every eigenvalue of ``G`` compressed to the
    complement of ``W``. ``slack`` bounds the rounding in those figures.
    """

    theta: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    frob2: float
    slack: float


class LowRank(NamedTuple):
    """An ``m x n`` matrix held as its factors ``left @ right``, ``m x k`` and ``k x n``.

    Its entries are defined by row blocks: rows ``b`` are ``left[b] @
    right`` (:meth:`rows`), and :meth:`dense` forms the whole matrix by the
    blocks of ``linalg.row_blocks``, the blocks the solver step forms L by.
    On the benchmark shapes a row block equals the rows of the whole
    product ``left @ right`` to the bit; on 300x300 targets, and on narrow
    tall ones at ``k >= 20`` (4000x50, 3000x60, 3072x100), the two differ
    in the last bits. So every dense L is formed here.
    """

    left: np.ndarray
    right: np.ndarray

    def rows(self, b: slice, out: np.ndarray) -> np.ndarray:
        """Rows ``b`` of the matrix, written to ``out`` and returned."""
        return np.matmul(self.left[b], self.right, out=out)

    def dense(self) -> np.ndarray:
        """The matrix as a new array, formed by row blocks."""
        out = np.empty((self.left.shape[0], self.right.shape[1]))
        for b in linalg.row_blocks(*out.shape):
            self.rows(b, out[b])
        return out


@dataclass(frozen=True)
class LStep:
    """An L-step's result: L as factors, the proxed singular values, the route that
    produced them and the next attempt's start (see :func:`l_step`).

    ``ritz`` is ``None`` when the keep/drop decision is certified. On a
    ``low_rank`` step that :func:`l_step`, asked not to certify, accepted
    without a certified bound on the values it drops, it is the spectrum of
    the last power step, which kept ``k = basis.shape[1]`` values, with its
    vectors cut to those ``k``: ``basis`` itself, not a copy. The
    skipped bound (:func:`tail_certified`) can run on it later.
    """

    l_factors: LowRank
    proxed: np.ndarray
    route: str
    basis: np.ndarray
    ritz: RitzSpectrum | None = None


def ritz_iterations(b: np.ndarray, basis: np.ndarray = COLD) -> Iterator[RitzSpectrum]:
    """Ritz pairs of ``G = B^T B`` on successive power steps of a block.

    ``b`` must be a finite 2-D float array with at least as many rows as its
    ``p`` columns. The start block is ``basis`` (``p`` rows, such as the kept
    vectors of a previous target) followed by a Gaussian block drawn from
    ``default_rng(0)``: ``p x RITZ_BLOCK`` on a cold start, where ``basis``
    has no columns, and ``p x WARM_BLOCK`` on a warm one. Oversampling is
    sized for a random start (Halko, Martinsson & Tropp, §4.2); continued
    from converged vectors, the iteration closes in at the rate
    ``lambda_(b+1) / lambda_k`` for a block of width ``b``, which barely
    moves with ``b`` on a flat bulk, while every part of a step grows with
    it. Each step orthonormalizes ``Q = qr(G Y)``, ``Y`` the start block
    and then the last step's Ritz vectors ``W = Q E``, and yields the
    eigenpairs ``Theta, E`` of ``Q^T (G Q)`` with their residuals; ``(G Q)
    E`` is the next ``G Y``. The start costs two products with ``B`` and
    ``||B||_F`` one pass, and every step takes ``G Q = B^T (B Q)``, two
    more: no ``p x p`` array is formed. ``slack`` covers the rounding of
    these and of :func:`gram`'s ``G`` (see :func:`gram_tail_below`). The
    caller stops the iteration. Yields nothing when the block has ``p`` or
    more columns, where it spans everything. Raises ``LinAlgError`` when
    the eigensolver fails or a product overflows.
    """
    rows, p = b.shape
    width = WARM_BLOCK if basis.shape[1] else RITZ_BLOCK
    if basis.shape[1] + width >= p:
        return
    omega = np.random.default_rng(0).standard_normal((p, width))
    block = np.hstack([basis, omega]) if basis.shape[1] else omega
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        gy = _times(b.T, _times(b, block))
        frob2 = float(np.vdot(b.ravel("K"), b.ravel("K")))  # "K": a transposed view is not copied
    # Every computed figure here (||B||_F^2, the entries of B Q, of G, of
    # G Q and of Q^T G Q) is a sum of at most max(m, n) products, whose
    # rounding is at most length * eps times the sum of the magnitudes, and
    # the magnitudes add up to at most ||B||_F^2 >= lambda_max(G). So the
    # formed G is within rows * eps * ||B||_F^2 of G in norm, and by Weyl's
    # inequality so are its eigenvalues. The Gram path's factor bounds the
    # same rounding with lambda_max; ||B||_F^2 also covers the loss of
    # orthogonality of the Householder Q, O(p * eps).
    slack = GRAM_ERROR_FACTOR * rows * np.finfo(np.float64).eps * frob2
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.linalg.qr(gy)[0]
            gq = _times(b.T, _times(b, q))
            theta, e = np.linalg.eigh(q.T @ gq)
            if not (np.isfinite(theta).all() and np.isfinite(frob2)):
                raise np.linalg.LinAlgError(f"Gram products of a {rows}x{p} matrix are not finite")
            theta, e = theta[::-1], e[:, ::-1]
            w = q @ e
            gy = gq @ e
            residuals = np.linalg.norm(gy - w * theta, axis=0)
        yield RitzSpectrum(theta, w, residuals, frob2, slack)


def _times(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``m @ y`` for the target or its transpose ``m`` and a block ``y``, taken as ``(y^T m^T)^T``.

    OpenBLAS runs this form several times faster than ``m @ y`` for a
    column-major ``m``, and a third faster, with the same bits, for a
    row-major one: 1000x1000 times 1000x14 in 0.53–0.58 against 0.78–0.99
    ms at two BLAS threads, 0.91 against 1.24 ms at one (2-core box).
    """
    return (y.T @ m.T).T


def gram(a: np.ndarray) -> np.ndarray:
    """``G = B^T B`` of the tall view ``B`` of ``a`` (``a`` or ``a.T``), a new array; an overflow
    leaves infinities."""
    b = a if a.shape[0] >= a.shape[1] else a.T
    with np.errstate(over="ignore", invalid="ignore"):
        return b.T @ b


def tail_shift(r: RitzSpectrum, c: float) -> float:
    """The shift ``c'`` at which :func:`gram_tail_below` certifies ``lambda_(k+1)(G) < c`` on ``r``.

    ``c' = c - slack - p(p+1) eps (c + ||B||_F^2)``, ``p`` the rows of
    ``r.vectors``; a ``c'`` that is not positive certifies nothing, since
    ``G - P`` keeps ``p - k >= 1`` eigenvalues at least ``lambda_min(G) >=
    0``. It reads only the spectrum, so a caller can refuse such a bound
    before it forms ``G`` or what ``G`` is formed from.
    """
    p = r.vectors.shape[0]
    return float(c - r.slack - p * (p + 1) * np.finfo(np.float64).eps * (c + r.frob2))


def gram_tail_below(g: np.ndarray, r: RitzSpectrum, k: int, shift: float) -> bool:
    """Whether ``lambda_(k+1)(G) < c`` is certified by one Cholesky factorization, written over ``g``.

    ``g`` is the ``p x p`` ``G = B^T B`` (:func:`gram`) and ``shift`` the
    positive ``c' = tail_shift(r, c)``. ``r`` holds Ritz pairs of ``G``
    from a power step of :func:`ritz_iterations` on ``B``, and ``W_k``,
    ``Theta_k`` are its first ``k < p``. ``P = W_k Theta_k W_k^T`` is
    positive semidefinite of rank ``k``, so ``lambda_(k+1)(G) <=
    lambda_max(G - P)`` by Weyl's inequality, whatever ``W_k``. Factors
    ``c' I - G + P``, formed in ``g``. If that succeeds, the matrix plus
    the factorization's backward error is positive definite (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 10.3: the error is
    at most ``(p+1) eps`` times ``||R||_F^2``, the trace of the factored
    matrix, which is at most ``p (c + ||B||_F^2)``). So ``c'`` leaves
    ``lambda_max(G - P) < c``; ``slack`` covers the rounding in ``G``, in
    ``P`` (at most ``k eps sum(theta)``) and in their difference. Besides
    ``g`` the factorization holds two ``p x p`` arrays: numpy's result and
    LAPACK's work copy of its input, which numpy allocates where
    ``tracemalloc`` does not see it.
    """
    w = r.vectors[:, :k]
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract((w * r.theta[:k]) @ w.T, g, out=g)
    g[np.diag_indices(g.shape[0])] += shift
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _certified(theta, k: int, err: float, tail: float, mu: float, surrogate: RankSurrogate) -> bool:
    """Whether keeping the first ``k`` of the squared singular values ``theta`` is the exact prox.

    Each kept ``theta_i`` is known to ``err`` and every dropped one lies
    below ``tail``. The prox is monotone, so it keeps every value in each
    kept interval when it keeps each ``sqrt(theta_i - err)`` and drops every
    value below ``tail`` when it drops ``sqrt(tail)``. The kept values must
    also be known to ``KEPT_REL_ERROR``: ``err <= KEPT_REL_ERROR *
    theta_k``.
    """
    ends = np.sqrt(np.maximum(np.append(theta[:k] - err, tail), 0.0))
    keep = prox_vector(ends, mu, surrogate) > 0.0
    accurate = k == 0 or err <= KEPT_REL_ERROR * theta[k - 1]
    return bool(accurate and keep[:-1].all() and not keep[-1])


def _largest_dropped(lo: float, hi: float, mu: float, surrogate: RankSurrogate) -> float:
    """The largest value the prox drops, by bisection from ``lo`` (dropped) towards ``hi`` (kept).

    Each halving strictly shrinks an interval of finite doubles, so the loop
    ends, when ``hi`` is the double after ``lo``. The prox is monotone, so
    ``lo`` is then the largest dropped value to the last bit.
    """
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if prox_vector(mid, mu, surrogate)[0] > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return lo


def prox_tail(r: RitzSpectrum, k: int, mu: float, surrogate: RankSurrogate) -> float:
    """The square of the largest value the prox at mu drops, when it keeps ``k >= 1`` values of ``r``.

    It lies between ``theta_(k+1)`` and ``theta_k``: the ``c`` that
    :func:`tail_certified` bounds ``lambda_(k+1)(G)`` by. ``r``'s vectors
    may be cut to the first ``k``.
    """
    dropped, kept = np.sqrt(np.maximum(r.theta[[k, k - 1]], 0.0))
    return _largest_dropped(dropped, kept, mu, surrogate) ** 2


def tail_certified(a: np.ndarray, r: RitzSpectrum, k: int, c: float) -> bool:
    """Whether :func:`gram_tail_below` certifies ``lambda_(k+1)(G) < c`` for ``G`` of the target ``a``.

    ``r`` is a power step on the tall view of ``a``. A bound whose
    :func:`tail_shift` is not positive is refused before ``G`` is formed.
    The route walk asks it of a certified attempt, with ``c`` from
    :func:`prox_tail`, and keeps ``a``, from which it forms ``B W`` next.
    ``solver.solve`` runs the same bound on an uncertified :class:`LStep`'s
    ``ritz`` in its own order, so that ``a`` is gone when it factors.
    """
    shift = tail_shift(r, c)
    return shift > 0.0 and gram_tail_below(gram(a), r, k, shift)


def _roots_and_prox(theta, mu: float, surrogate: RankSurrogate) -> tuple[np.ndarray, np.ndarray, int]:
    """The square roots of ``theta`` clipped at 0, their prox and the number ``k`` of values it keeps.

    The prox is monotone, so it keeps the first ``k`` of a nonincreasing
    ``theta``.
    """
    singulars = np.sqrt(np.maximum(theta, 0.0))
    sig = prox_vector(singulars, mu, surrogate)
    return singulars, sig, int(np.count_nonzero(sig))


# A certified route's kept vectors W and the singular values before and after
# the prox.
_Kept = tuple[np.ndarray, np.ndarray, np.ndarray]


def _certified_route(
    b: np.ndarray, mu: float, surrogate: RankSurrogate, basis: np.ndarray, certify: bool = True
) -> tuple[_Kept | None, str, RitzSpectrum | None]:
    """The first certified route of ``low_rank`` and ``gram``: its kept vectors and values, its name
    and, on a step accepted uncertified, the Ritz spectrum it kept from (``None`` when certified).

    They are ``None``, with the name ``svd``, when neither certifies. Both
    routes give eigenvalue estimates ``theta`` of ``G = B^T B``,
    nonincreasing, and hand them to :func:`_certified` with the route's
    error and tail bound; only the prox and L's factors take their roots.

    When ``basis`` has at most ``p / WARM_RANK_DIVISOR`` columns, ``p``
    those of ``b`` (none at a cold start), the ``low_rank`` route is tried
    first, from ``basis`` plus ``RITZ_BLOCK`` Gaussian columns when it is
    empty and ``WARM_BLOCK`` when it is not: at most ``RITZ_STEPS`` power
    steps of :func:`ritz_iterations`, whose Ritz values are its ``theta``.
    With ``G = [[Theta, E^T], [E, C]]`` in the basis ``[W, W_perp]``,
    ``||E||_2 <= rho = ||G W - W Theta||_F`` and ``lambda_max(C) <= rest =
    ||B||_F^2 - sum(theta)``, so by Weyl's inequality ``lambda_(k+1)(G) <=
    max(theta_(k+1), rest) + rho`` and ``|lambda_i(G) - theta_i| <= rho``
    for the kept values. Each step is certified at once by that trace
    bound, both figures widened by the rounding ``slack``.

    Otherwise the steps go on while the kept block's residual ``rho_k =
    ||G W_k - W_k Theta_k||_F`` falls at least ``RITZ_FALL`` times per step,
    and end on the first step that keeps ``k >= 1`` values with ``rho_k <=
    slack``: past the slack a step can at most halve ``err = rho_k +
    slack``. With ``k = 0``, ``rho_k`` is 0 and says nothing, so only the
    stall ends such an attempt. The last step is then certified when its
    kept values are, with that ``err`` (by Kahan's residual bound ``k``
    eigenvalues of ``G`` lie within ``rho_k`` of the kept Ritz values), and
    :func:`tail_certified` shows ``lambda_(k+1)(G) < c``, ``c`` the square
    of the largest value the prox drops. Then exactly ``k`` values are kept,
    each known as well as on the ``gram`` route.

    With ``certify`` false the attempt takes the same steps and accepts
    its last one once the kept values are accurate, without the bound:
    the kept values are then known as well, but a value the block missed
    may lie above the largest one the prox drops. Such a step is the only
    one returned uncertified, with the spectrum the bound needs; the
    trace bound, ``gram`` and ``svd`` are certified as with ``certify``.

    An attempt fails when the block keeps every Ritz value, which leaves
    the rest unbounded, when the residual stalls or the steps run out
    without a certificate, when the eigensolver fails or a product
    overflows, and when the block spans everything, so no step is taken.
    Every failure then takes the ``gram`` route, the eigendecomposition of
    ``B^T B``. Its ``theta`` are the eigenvalues clipped at 0, each known
    to ``delta = GRAM_ERROR_FACTOR * rows * eps * theta_1``, so every
    dropped one lies below ``theta_(k+1) + delta`` (nothing, when all are
    kept). A decision that needs values of the order of ``delta``, a failed
    eigensolver and a non-finite spectrum name ``svd``.
    """
    if basis.shape[1] * WARM_RANK_DIVISOR <= b.shape[1]:
        try:
            prev = np.inf
            for steps, r in enumerate(ritz_iterations(b, basis), start=1):
                singulars, sig, k = _roots_and_prox(r.theta, mu, surrogate)
                if k == r.theta.size:
                    break  # no dropped Ritz value, so no bound on the rest
                kept = r.vectors[:, :k], singulars, sig
                rho = float(np.linalg.norm(r.residuals))
                tail = max(float(r.theta[k]), r.frob2 - float(r.theta.sum())) + rho + r.slack
                if _certified(r.theta, k, rho + r.slack, tail, mu, surrogate):
                    return kept, "low_rank", None
                rho_k = float(np.linalg.norm(r.residuals[:k]))
                last = steps == RITZ_STEPS or not rho_k * RITZ_FALL < prev or (k > 0 and rho_k <= r.slack)
                if last and k and _certified(r.theta, k, rho_k + r.slack, 0.0, mu, surrogate):
                    if not certify:
                        return kept, "low_rank", r
                    if tail_certified(b, r, k, prox_tail(r, k, mu, surrogate)):
                        return kept, "low_rank", None
                if last:
                    break
                prev = rho_k
        except np.linalg.LinAlgError:
            pass
    try:
        lam, vecs = np.linalg.eigh(gram(b))  # an overflow leaves lam non-finite
    except np.linalg.LinAlgError:
        return None, "svd", None
    if not np.isfinite(lam).all():
        return None, "svd", None
    theta = np.maximum(lam[::-1], 0.0)
    delta = GRAM_ERROR_FACTOR * b.shape[0] * np.finfo(np.float64).eps * float(np.max(theta, initial=0.0))
    singulars, sig, k = _roots_and_prox(theta, mu, surrogate)
    tail = theta[k] + delta if k < theta.size else 0.0
    if not _certified(theta, k, delta, tail, mu, surrogate):
        return None, "svd", None
    # boolean indexing: a slice view or a C-ordered copy of these columns
    # rounds B V differently in the last bits
    return (vecs[:, ::-1][:, sig > 0.0], singulars, sig), "gram", None


def l_step(
    a: np.ndarray, mu: float, surrogate: RankSurrogate, basis: np.ndarray = COLD, certify: bool = True
) -> LStep:
    """Spectral prox of the finite 2-D float array ``a`` at weight mu, which it does not check.

    Three routes, each used only when its result is the exact prox with a
    certified keep/drop decision. :func:`_certified_route` tries the two
    that work on ``a`` or its transposed view ``B``, whichever is tall, and
    the smaller Gram matrix: ``low_rank``, power steps from ``basis`` (the
    kept vectors of a previous step, no columns for a cold start), and then
    ``gram``, an eigendecomposition, a fraction of the cost of a thin SVD.
    When neither certifies, the step takes the thin SVD ``U diag(s) V^T``
    of ``a``. L comes back as its factors, with ``sigma`` the kept proxed
    values and ``s`` the singular values they come from: ``(B W
    diag(sigma/s), W^T)`` for a tall ``a``, ``(W diag(sigma/s), (B W)^T)``
    for a wide one, ``W`` the kept vectors, and ``(U diag(sigma), V^T)``
    on the ``svd`` route, over all ``min(m, n)`` columns: the product over
    the kept columns alone rounds L differently in the last bits.

    The result's ``basis`` is the next step's start: the kept singular
    vectors on the smaller side, a new array.

    With ``certify`` false a ``low_rank`` step whose kept values are
    accurate is accepted without the Cholesky bound on the values it drops
    (see :func:`_certified_route`) and returned with the spectrum the bound
    needs as its ``ritz``: each kept value is still known to
    ``KEPT_REL_ERROR``, but the step may keep too few. Its ``route`` still
    reads ``low_rank``. Every other step has no ``ritz``.
    """
    tall = a.shape[0] >= a.shape[1]
    b = a if tall else a.T
    kept, route, ritz = _certified_route(b, mu, surrogate, basis, certify)
    if kept is None:
        f = linalg.svd(a)
        sig = prox_vector(f.singulars, mu, surrogate)
        k = int(np.count_nonzero(sig))
        w = f.vt[:k].T if tall else f.u[:, :k]
        factors = LowRank(f.u * sig, f.vt)
    else:
        w, singulars, sig = kept
        k = w.shape[1]
        bw = _times(b, w)
        scale = sig[:k] / singulars[:k]
        factors = LowRank(bw * scale, w.T) if tall else LowRank(w * scale, bw.T)
    basis = w.copy()
    return LStep(factors, sig, route, basis, None if ritz is None else ritz._replace(vectors=basis))
