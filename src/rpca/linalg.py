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
# rows of L formed from its factors. Each pass forms L's rows from its
# factors, and scales X by the working scale c, one block at a time, so
# neither L nor c * X exists in full. The passes are bound by operation
# count, not by memory traffic, and no other block size measured faster.
BLOCK_BYTES = 256 * 1024


def row_blocks(m: int, n: int) -> list[slice]:
    """Row slices, in order, of about ``BLOCK_BYTES`` each of an ``m x n`` float array."""
    rows = max(1, BLOCK_BYTES // (8 * max(n, 1)))
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
