"""Dense-matrix plumbing: thin SVD, Gram spectrum, Ritz pairs and the numerical rank rule."""

from __future__ import annotations

from typing import NamedTuple

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
    ``A^T W`` otherwise. ``rest = ||A||_F^2 - sum(theta)`` is the trace of
    ``G`` outside the span of ``W``, so it bounds every eigenvalue of ``G``
    compressed to that complement. ``slack`` bounds the rounding in ``rest``
    and in :func:`ritz_residual`.
    """

    theta: np.ndarray
    vectors: np.ndarray
    images: np.ndarray
    right: bool
    rest: float
    slack: float


# Width of the Gaussian block behind ritz_spectrum.
RITZ_BLOCK = 16


def ritz_spectrum(a: np.ndarray) -> RitzSpectrum | None:
    """Ritz pairs of ``A``'s smaller Gram matrix on one power step of a Gaussian block.

    With ``G = A^T A`` (``A`` at least as tall as wide) or ``A A^T``, of size
    ``p = min(m, n)``, and a ``p x RITZ_BLOCK`` block ``Omega`` drawn from
    ``default_rng(0)``: ``Q = qr(G Omega)``, then the eigenpairs of
    ``Q^T G Q``. ``G`` itself is never formed; the result costs three
    products with ``A`` and one pass for ``||A||_F``. Returns ``None`` when
    ``p <= RITZ_BLOCK``, where the block spans everything. ``a`` must be a
    finite 2-D float array. Raises ``LinAlgError`` when the eigensolver fails
    or a product overflows.
    """
    rows, cols = a.shape
    right = rows >= cols
    p = min(rows, cols)
    if p <= RITZ_BLOCK:
        return None
    omega = np.random.default_rng(0).standard_normal((p, RITZ_BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        q = np.linalg.qr(_times(a, right, _times(a, not right, omega)))[0]
        z = _times(a, not right, q)
        frob2 = float(np.vdot(a, a))
        try:
            theta, e = np.linalg.eigh(z.T @ z)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"Ritz eigendecomposition did not converge for a {rows}x{cols} matrix"
            ) from exc
    if not (np.isfinite(theta).all() and np.isfinite(frob2)):
        raise np.linalg.LinAlgError(f"Gram products of a {rows}x{cols} matrix are not finite")
    theta, e = theta[::-1], e[:, ::-1]
    # Every computed figure here (||A||_F^2, the entries of Z and of the
    # residual's Gram product) is a sum of at most max(m, n) products, whose
    # rounding is at most length * eps times the sum of the magnitudes, and
    # the magnitudes add up to at most ||A||_F^2 >= lambda_max(G). The Gram
    # path's factor bounds the same rounding with lambda_max; ||A||_F^2 also
    # covers the loss of orthogonality of the Householder Q, O(p * eps).
    slack = GRAM_ERROR_FACTOR * max(rows, cols) * np.finfo(np.float64).eps * frob2
    return RitzSpectrum(theta, q @ e, z @ e, right, frob2 - float(theta.sum()), slack)


def _times(a: np.ndarray, transpose: bool, y: np.ndarray) -> np.ndarray:
    """``A^T @ y`` when ``transpose``, taken as ``(y^T A)^T``, else ``A @ y``.

    The transposed form reads ``A`` row by row, which BLAS does several times
    faster than ``A^T @ y`` on a row-major ``A`` with few columns in ``y``.
    """
    return (y.T @ a).T if transpose else a @ y


def ritz_residual(a: np.ndarray, r: RitzSpectrum) -> float:
    """``||G W - W diag(theta)||_F`` for the Ritz pairs ``r`` of ``a``'s Gram matrix.

    One more product with ``A``. By Weyl's inequality every eigenvalue of
    ``G`` lies within this figure of the eigenvalues of the block-diagonal
    ``diag(diag(theta), C)``, ``C`` the compression of ``G`` to the
    complement of ``W``.
    """
    gw = _times(a, r.right, r.images)
    return float(np.linalg.norm(gw - r.vectors * r.theta))
