"""Dense-matrix plumbing: input checks, the thin SVD, the numerical rank rule and row blocks."""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np


class SvdFactors(NamedTuple):
    """Thin SVD triple ``u @ diag(singulars) @ vt`` with ``singulars`` nonincreasing."""

    u: np.ndarray
    singulars: np.ndarray
    vt: np.ndarray


# Bytes of one row block in the solver step's elementwise passes, and in the
# rows of L formed from its factors. The passes are memory-bound; a block
# this size keeps the operands of the whole chain of operations on it in a
# 2 MB L2 cache, so each full-size array crosses the memory bus once per
# pass instead of once per operation.
BLOCK_BYTES = 256 * 1024


def row_blocks(m: int, n: int) -> list[slice]:
    """Row slices of about ``BLOCK_BYTES`` each of an ``m x n`` float array.

    A one-column array is one block: numpy sums a single column pairwise,
    not row by row, so the step's column sums could not continue its sum.
    """
    rows = max(1, BLOCK_BYTES // (8 * n)) if n > 1 else max(1, m)
    return [slice(i, min(i + rows, m)) for i in range(0, m, rows)]


# Relative cutoff below which a singular value no longer counts toward a rank.
RANK_REL_THRESHOLD = 1e-6


def numerical_rank(singulars) -> int:
    """Count singular values above ``RANK_REL_THRESHOLD`` times the largest one."""
    top = float(singulars.max()) if singulars.size else 0.0
    return int(np.count_nonzero(singulars > RANK_REL_THRESHOLD * top)) if top > 0.0 else 0


def real_number(name: str, value) -> float:
    """``value`` as a Python float, which JSON can write; a bool or a non-number raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number")
    return float(value)


def integer(name: str, value) -> int:
    """``value`` as a Python int, which JSON can write; a bool or a non-integer raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    return int(value)


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
