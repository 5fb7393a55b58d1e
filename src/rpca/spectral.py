"""The L-step: the spectral prox of the ALM loop's target, with a certified keep/drop decision.

Two routes give candidate values ``theta`` (squared singular values of the
target ``A``), an error ``err`` on each kept one and a bound ``tail`` on the
dropped ones, and one certificate (``_certified``) decides for both. The
Gram-free ``low_rank`` route takes power steps with Rayleigh–Ritz on a
small block (Halko, Martinsson & Tropp, arXiv:0909.4061); the ``gram``
route eigendecomposes the smaller Gram matrix. Both rebuild L from the kept
vectors ``W`` and their images ``A W`` alone. The third route, ``svd``, is
the thin SVD (``linalg.svd``) when neither certifies.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .surrogates import RankSurrogate, prox_vector

# Relative accuracy to which every kept squared singular value must be known
# before the L-step uses it instead of the thin SVD.
KEPT_REL_ERROR = 1e-8

# Bounds on the Gram-free route (see ``_low_rank_step``): at most this many
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

# Multiplier c in the eigenvalue error bound c * max(m, n) * eps * lambda_max:
# rounding from forming the Gram product plus the backward error of the
# symmetric eigensolver.
GRAM_ERROR_FACTOR = 4.0

# Width of the Gaussian block behind ritz_iterations.
RITZ_BLOCK = 16

# A basis with no columns: ritz_iterations then starts from the Gaussian
# block alone.
COLD = np.empty((0, 0))
COLD.flags.writeable = False


class GramSpectrum(NamedTuple):
    """Singular values of ``A`` and one side's singular vectors, from a Gram matrix.

    ``vectors`` holds right singular vectors (columns) when ``right`` is true,
    left ones otherwise. Each eigenvalue ``singulars[i]**2`` of the Gram
    matrix is accurate to ``delta`` in absolute terms.
    """

    singulars: np.ndarray
    vectors: np.ndarray
    right: bool
    delta: float


class RitzSpectrum(NamedTuple):
    """Rayleigh–Ritz pairs of a Gram matrix ``G`` from products with ``A`` alone.

    ``theta`` holds the Ritz values, nonincreasing, and ``vectors`` the
    orthonormal Ritz vectors ``W`` (right singular side when ``right``, as in
    :class:`GramSpectrum`); ``images`` is ``A W`` when ``right`` and
    ``A^T W`` otherwise. ``residuals`` holds the column norms of
    ``G W - W diag(theta)``. ``frob2 = ||A||_F^2`` is the trace of ``G``, so
    ``frob2 - sum(theta)`` bounds every eigenvalue of ``G`` compressed to
    the complement of ``W``. ``slack`` bounds the rounding in those figures.
    """

    theta: np.ndarray
    vectors: np.ndarray
    images: np.ndarray
    residuals: np.ndarray
    right: bool
    frob2: float
    slack: float


class LStep(NamedTuple):
    """An L-step's result: L, the proxed singular values, the route that produced them
    and the next attempt's start (see :func:`l_step`)."""

    l: np.ndarray
    singulars: np.ndarray
    route: str
    basis: np.ndarray | None


def gram_spectrum(a: np.ndarray) -> GramSpectrum:
    """Spectrum of ``A`` from an eigendecomposition of its smaller Gram matrix.

    Forms ``A^T A`` when ``A`` has at least as many rows as columns and
    ``A A^T`` otherwise, so the eigenproblem has size ``min(m, n)``. Returns
    ``sqrt(max(lambda, 0))`` in nonincreasing order with the matching
    eigenvectors, and the error bound ``delta`` on each eigenvalue. Values
    with ``lambda`` of the order of ``delta`` are known only to
    ``sqrt(delta)``; callers that need them exactly use ``linalg.svd``.
    ``a`` must be a finite 2-D float array, as ``linalg.as_matrix`` returns.
    Raises ``LinAlgError`` when the eigensolver fails or the Gram matrix
    overflows.
    """
    rows, cols = a.shape
    right = rows >= cols
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        gram = a.T @ a if right else a @ a.T
    try:
        lam, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Gram eigendecomposition did not converge for a {rows}x{cols} matrix"
        ) from exc
    if not np.isfinite(lam).all():
        raise np.linalg.LinAlgError(f"Gram matrix of a {rows}x{cols} matrix is not finite")
    eps = np.finfo(np.float64).eps
    delta = GRAM_ERROR_FACTOR * max(rows, cols) * eps * float(np.max(lam, initial=0.0))
    return GramSpectrum(np.sqrt(np.maximum(lam[::-1], 0.0)), vecs[:, ::-1], right, delta)


def ritz_iterations(a: np.ndarray, basis: np.ndarray = COLD) -> Iterator[RitzSpectrum]:
    """Ritz pairs of ``A``'s smaller Gram matrix on successive power steps of a block.

    With ``G = A^T A`` (``A`` at least as tall as wide) or ``A A^T``, of size
    ``p = min(m, n)``, the start block is ``basis`` (``p`` rows, such as the
    kept vectors of a previous target) followed by a ``p x RITZ_BLOCK``
    Gaussian block drawn from ``default_rng(0)``. Each step orthonormalizes
    ``Q = qr(G Y)``, ``Y`` the start block and then the last step's Ritz
    vectors, and yields the eigenpairs of ``Q^T G Q`` with their residuals.
    ``G`` itself is never formed: the start costs two products with ``A``,
    every step two more (the last of which, ``G W``, is the next step's
    ``G Y``), and ``||A||_F`` one pass. The caller stops the iteration. Yields
    nothing when the block has ``p`` or more columns, where it spans
    everything. ``a`` must be a finite 2-D float array. Raises
    ``LinAlgError`` when the eigensolver fails or a product overflows.
    """
    rows, cols = a.shape
    right = rows >= cols
    p = min(rows, cols)
    if basis.shape[1] + RITZ_BLOCK >= p:
        return
    omega = np.random.default_rng(0).standard_normal((p, RITZ_BLOCK))
    block = np.hstack([basis, omega]) if basis.shape[1] else omega
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        gy = _times(a, right, _times(a, not right, block))
        frob2 = float(np.vdot(a, a))
    # Every computed figure here (||A||_F^2, the entries of Z and of the
    # residual's Gram product) is a sum of at most max(m, n) products, whose
    # rounding is at most length * eps times the sum of the magnitudes, and
    # the magnitudes add up to at most ||A||_F^2 >= lambda_max(G). The Gram
    # path's factor bounds the same rounding with lambda_max; ||A||_F^2 also
    # covers the loss of orthogonality of the Householder Q, O(p * eps).
    slack = GRAM_ERROR_FACTOR * max(rows, cols) * np.finfo(np.float64).eps * frob2
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.linalg.qr(gy)[0]
            z = _times(a, not right, q)
            try:
                theta, e = np.linalg.eigh(z.T @ z)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"Ritz eigendecomposition did not converge for a {rows}x{cols} matrix"
                ) from exc
        if not (np.isfinite(theta).all() and np.isfinite(frob2)):
            raise np.linalg.LinAlgError(f"Gram products of a {rows}x{cols} matrix are not finite")
        with np.errstate(over="ignore", invalid="ignore"):
            theta, e = theta[::-1], e[:, ::-1]
            w, aw = q @ e, z @ e
            gy = _times(a, right, aw)
            residuals = np.linalg.norm(gy - w * theta, axis=0)
        yield RitzSpectrum(theta, w, aw, residuals, right, frob2, slack)


def _times(a: np.ndarray, transpose: bool, y: np.ndarray) -> np.ndarray:
    """``A^T @ y`` when ``transpose``, taken as ``(y^T A)^T``, else ``A @ y``.

    The transposed form reads ``A`` row by row, which BLAS does several times
    faster than ``A^T @ y`` on a row-major ``A`` with few columns in ``y``.
    """
    return (y.T @ a).T if transpose else a @ y


def gram_tail_below(a: np.ndarray, r: RitzSpectrum, k: int, c: float) -> bool:
    """Whether ``lambda_(k+1)(G) < c`` is certified by one Cholesky factorization.

    ``r`` holds Ritz pairs of ``a``'s Gram matrix ``G`` (see
    :func:`ritz_iterations`) and ``W_k``, ``Theta_k`` its first ``k``.
    ``P = W_k Theta_k W_k^T`` is positive semidefinite of rank ``k``, so
    ``lambda_(k+1)(G) <= lambda_max(G - P)`` by Weyl's inequality, whatever
    ``W_k``. Forms ``G`` and factors ``c' I - G + P``. If that succeeds,
    the matrix plus the factorization's backward error is positive definite
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3: the
    error is at most ``(p+1) eps`` times ``||R||_F^2``, the trace of the
    factored matrix, which is at most ``p (c + ||A||_F^2)``). So
    ``c' = c - slack - p(p+1) eps (c + ||A||_F^2)`` leaves
    ``lambda_max(G - P) < c``; ``slack`` covers the rounding in ``G``, in
    ``P`` (at most ``k eps sum(theta)``) and in their difference. ``p`` is
    ``min(m, n)``; ``k < p``.
    """
    rows, cols = a.shape
    p = min(rows, cols)
    eps = np.finfo(np.float64).eps
    shift = c - r.slack - p * (p + 1) * eps * (c + r.frob2)
    if not shift > 0.0:
        return False  # G - P keeps p - k >= 1 eigenvalues >= lambda_min(G) >= 0
    w = r.vectors[:, :k]
    with np.errstate(over="ignore", invalid="ignore"):
        m = (w * r.theta[:k]) @ w.T
        m -= a.T @ a if r.right else a @ a.T
    m[np.diag_indices(p)] += shift
    try:
        np.linalg.cholesky(m)
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
    """A value the prox drops, by bisection from ``lo`` (dropped) towards ``hi`` (kept).

    The prox is monotone, so the result is the largest dropped value to
    the last bit once the interval stops shrinking.
    """
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if prox_vector(mid, mu, surrogate)[0] > 0.0:
            hi = mid
        else:
            lo = mid
    return lo


# A certified route's kept vectors W, their images (A W when ``right``, else
# A^T W), which side W is on, and the singular values before and after the prox.
_Kept = tuple[np.ndarray, np.ndarray, bool, np.ndarray, np.ndarray]


def _low_rank_step(a: np.ndarray, mu: float, surrogate: RankSurrogate, basis: np.ndarray) -> _Kept | None:
    """The Gram-free route from the start block ``basis``, or ``None`` when it cannot be certified.

    Takes at most ``RITZ_STEPS`` power steps of :func:`ritz_iterations` and
    proxes the square roots of their Ritz values; ``k`` of them are kept.
    With ``G = [[Theta, E^T], [E, C]]`` in the basis ``[W, W_perp]``,
    ``||E||_2 <= rho = ||G W - W Theta||_F`` and ``lambda_max(C) <= rest =
    ||A||_F^2 - sum(theta)``, so by Weyl's inequality ``lambda_(k+1)(G) <=
    max(theta_(k+1), rest) + rho`` and ``|lambda_i(G) - theta_i| <= rho``
    for the kept values. Each step is certified at once by that trace
    bound, both figures widened by the rounding ``slack``: it needs no ``G``.

    Otherwise the steps go on while the kept block's residual ``rho_k =
    ||G W_k - W_k Theta_k||_F`` falls at least ``RITZ_FALL`` times per step,
    which also makes the kept vectors accurate well past the figure the
    certificate needs. The last step is then certified when its kept values
    are, with ``err = rho_k + slack`` (by Kahan's residual bound ``k``
    eigenvalues of ``G`` lie within ``rho_k`` of the kept Ritz values), and
    :func:`gram_tail_below` shows ``lambda_(k+1)(G) < c``, ``c`` the square
    of the largest value the prox drops. Then exactly ``k`` values are kept,
    each known as well as on the Gram path. A step whose residual did not
    converge forms no ``G``. An attempt fails when the block keeps every
    Ritz value, which leaves the rest unbounded.
    """
    try:
        prev = np.inf
        for steps, r in enumerate(ritz_iterations(a, basis), start=1):
            singulars = np.sqrt(np.maximum(r.theta, 0.0))
            sig = prox_vector(singulars, mu, surrogate)
            k = int(np.count_nonzero(sig))  # the prox is monotone, so it keeps a prefix
            if k == r.theta.size:
                return None  # no dropped Ritz value, so no bound on the rest
            rho = float(np.linalg.norm(r.residuals))
            tail = max(float(r.theta[k]), r.frob2 - float(r.theta.sum())) + rho + r.slack
            if _certified(r.theta, k, rho + r.slack, tail, mu, surrogate):
                break
            rho_k = float(np.linalg.norm(r.residuals[:k]))
            if steps == RITZ_STEPS or not rho_k * RITZ_FALL < prev:
                if not (k and _certified(r.theta, k, rho_k + r.slack, 0.0, mu, surrogate)):
                    return None
                c = _largest_dropped(singulars[k], singulars[k - 1], mu, surrogate) ** 2
                if not gram_tail_below(a, r, k, c):
                    return None
                break
            prev = rho_k
        else:
            return None  # no step at all: the block spans everything
    except np.linalg.LinAlgError:
        return None
    return r.vectors[:, :k], r.images[:, :k], r.right, singulars, sig


def _gram_step(a: np.ndarray, mu: float, surrogate: RankSurrogate) -> _Kept | None:
    """The ``gram`` route, or ``None`` when the eigensolver fails or the step cannot be certified.

    Each eigenvalue is known to ``delta``, so every dropped one lies below
    ``theta_(k+1) + delta`` (nothing, when every value is kept).
    """
    try:
        g = gram_spectrum(a)
    except np.linalg.LinAlgError:
        return None
    sig = prox_vector(g.singulars, mu, surrogate)
    keep = sig > 0.0
    theta = g.singulars**2
    k = int(np.count_nonzero(keep))  # a prefix, as on the Gram-free route
    tail = theta[k] + g.delta if k < theta.size else 0.0
    if not _certified(theta, k, g.delta, tail, mu, surrogate):
        return None
    # boolean indexing: a slice view or a C-ordered copy of these columns
    # rounds A V differently in the last bits
    v = g.vectors[:, keep]
    return v, _times(a, not g.right, v), g.right, g.singulars, sig


def l_step(a: np.ndarray, mu: float, surrogate: RankSurrogate, basis: np.ndarray | None = COLD) -> LStep:
    """Spectral prox of the finite 2-D float array ``a`` at weight mu, which it does not check.

    Three routes, each used only when its result is the exact prox with a
    certified keep/drop decision. Unless ``basis`` is ``None``, the step
    first tries the Gram-free route (``_low_rank_step``): power steps with
    Rayleigh–Ritz on a block that starts from ``basis`` (the kept vectors of
    a previous step; no columns for a cold start) and a Gaussian block,
    through products with ``a``. It certifies when the kept rank is small
    and the tail below the keep-threshold is bounded, by the trace left
    outside the block or by a Cholesky factorization. Otherwise the singular
    values come from the eigendecomposition of the smaller Gram matrix
    (:func:`gram_spectrum`), a fraction of the cost of a thin SVD, certified
    by the eigenvalues' error bound. Both rebuild only the kept components.
    Otherwise, and when the eigensolver fails, the step takes the thin SVD
    of ``a``.

    The result's ``basis`` is the next step's start: the kept singular
    vectors on the smaller side, a new array, after a step that took the
    Gram-free route or kept at most ``p / WARM_RANK_DIVISOR`` values, and
    ``None`` otherwise.
    """
    kept = None if basis is None else _low_rank_step(a, mu, surrogate, basis)
    route = "low_rank"
    if kept is None:
        kept, route = _gram_step(a, mu, surrogate), "gram"
    if kept is None:
        f = linalg.svd(a)
        sig = prox_vector(f.singulars, mu, surrogate)
        k = int(np.count_nonzero(sig))
        w = f.vt[:k].T if a.shape[0] >= a.shape[1] else f.u[:, :k]
        l, route = (f.u * sig) @ f.vt, "svd"
    else:
        w, aw, right, singulars, sig = kept
        k = w.shape[1]
        scale = sig[:k] / singulars[:k]
        l = (aw * scale) @ w.T if right else (w * scale) @ aw.T
    warm = route == "low_rank" or k * WARM_RANK_DIVISOR <= w.shape[0]
    return LStep(l, sig, route, w.copy() if warm else None)
