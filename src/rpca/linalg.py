"""Dense-matrix plumbing: thin SVD, Gram spectrum, Ritz pairs and the numerical rank rule."""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np


class SvdFactors(NamedTuple):
    """Thin SVD triple ``u @ diag(singulars) @ vt`` with ``singulars`` nonincreasing."""

    u: np.ndarray
    singulars: np.ndarray
    vt: np.ndarray


# Relative cutoff below which a singular value no longer counts toward a rank.
RANK_REL_THRESHOLD = 1e-6


def numerical_rank(singulars) -> int:
    """Count singular values above ``RANK_REL_THRESHOLD`` times the largest one."""
    top = float(singulars.max()) if singulars.size else 0.0
    return int(np.count_nonzero(singulars > RANK_REL_THRESHOLD * top)) if top > 0.0 else 0


def require_finite(a: np.ndarray) -> None:
    """Raise ``ValueError`` when ``a`` holds a NaN or an infinity."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D float64 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    require_finite(a)
    return a


def svd(m) -> SvdFactors:
    """Thin SVD of a finite matrix, singular values nonincreasing.

    The signs of the singular-vector pairs are whatever LAPACK returns.
    Callers form only ``(u * singulars) @ vt`` or read ``singulars``, and
    flipping the sign of a pair leaves both unchanged.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    return SvdFactors(u, s, vt)


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


# Multiplier c in the eigenvalue error bound c * max(m, n) * eps * lambda_max:
# rounding from forming the Gram product plus the backward error of the
# symmetric eigensolver.
GRAM_ERROR_FACTOR = 4.0


def gram_spectrum(a: np.ndarray) -> GramSpectrum:
    """Spectrum of ``A`` from an eigendecomposition of its smaller Gram matrix.

    Forms ``A^T A`` when ``A`` has at least as many rows as columns and
    ``A A^T`` otherwise, so the eigenproblem has size ``min(m, n)``. Returns
    ``sqrt(max(lambda, 0))`` in nonincreasing order with the matching
    eigenvectors, and the error bound ``delta`` on each eigenvalue. Values
    with ``lambda`` of the order of ``delta`` are known only to
    ``sqrt(delta)``; callers that need them exactly use :func:`svd`. ``a``
    must be a finite 2-D float array, as :func:`as_matrix` returns. Raises
    ``LinAlgError`` when the eigensolver fails or the Gram matrix overflows.
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


# Width of the Gaussian block behind ritz_iterations.
RITZ_BLOCK = 16

# A basis with no columns: ritz_iterations then starts from the Gaussian
# block alone.
COLD = np.empty((0, 0))
COLD.flags.writeable = False


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
