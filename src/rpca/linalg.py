"""Dense-matrix plumbing: deterministic thin SVD, Gram spectrum, and the numerical rank rule."""

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


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D float64 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def svd(m) -> SvdFactors:
    """Thin SVD with deterministic factors.

    Singular values come back nonincreasing, and each left singular vector is
    flipped so its first nonzero entry is nonnegative (the matching row of
    ``vt`` is flipped with it). That makes the factors reproducible run to
    run, which the file outputs rely on.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    if u.size:
        flip = u[np.argmax(u != 0, axis=0), np.arange(u.shape[1])] < 0
        u[:, flip] = -u[:, flip]
        vt[flip] = -vt[flip]
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


def gram_spectrum(m) -> GramSpectrum:
    """Spectrum of ``A`` from an eigendecomposition of its smaller Gram matrix.

    Forms ``A^T A`` when ``A`` has at least as many rows as columns and
    ``A A^T`` otherwise, so the eigenproblem has size ``min(m, n)``. Returns
    ``sqrt(max(lambda, 0))`` in nonincreasing order with the matching
    eigenvectors, and the error bound ``delta`` on each eigenvalue. Values
    with ``lambda`` of the order of ``delta`` are known only to
    ``sqrt(delta)``; callers that need them exactly use :func:`svd`.
    Raises ``LinAlgError`` when the eigensolver fails or the Gram matrix
    overflows.
    """
    a = as_matrix(m)
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
