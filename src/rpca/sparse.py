"""Sparsity penalties for the outlier part and their exact shrinkage maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

L1 = "l1"
L21 = "l21"


@dataclass(frozen=True)
class SparsePenalty:
    """``"l1"`` (entrywise) or ``"l21"`` (sum of column 2-norms)."""

    kind: str

    def __post_init__(self):
        if self.kind not in (L1, L21):
            raise ValueError(f"unknown sparse penalty kind {self.kind!r}")


ENTRYWISE_L1 = SparsePenalty(L1)
COLUMNWISE_L21 = SparsePenalty(L21)


def check_tau(tau: float) -> None:
    if not tau > 0.0:
        raise ValueError("tau must be positive")


def soft_threshold(q: np.ndarray, tau: float, out: np.ndarray, scratch: np.ndarray) -> None:
    """The l1 shrink of ``q`` into ``out``: ``sign(q) * max(|q| - tau, 0)``.

    ``scratch`` is an array of ``q``'s shape that the sign is written to.
    The sign is multiplied in, not copied with ``copysign``, so a ``-0.0``
    entry of ``q`` gives ``+0.0``.
    """
    np.abs(q, out=out)
    np.subtract(out, tau, out=out)
    np.maximum(out, 0.0, out=out)
    np.sign(q, out=scratch)
    np.multiply(scratch, out, out=out)


def column_scale(norms: np.ndarray, tau: float) -> np.ndarray:
    """The l2,1 shrink's factor for each column of 2-norm ``norms``."""
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.where(norms > tau, (norms - tau) / safe, 0.0)


def shrink(q, tau: float, p: SparsePenalty) -> np.ndarray:
    """Exact minimizer of ``tau * penalty(W) + 0.5 * ||W - Q||_F^2``.

    l1: soft-threshold each entry, ``max(|q| - tau, 0) * sign(q)`` (so a zero
    entry stays zero). l21: scale each column by ``(n - tau)/n`` where n is
    its 2-norm, or zero it when ``n <= tau``; the boundary case ``n == tau``
    maps to zero, which keeps the result sparsest.
    """
    check_tau(tau)
    a = as_matrix(q)
    if p.kind == L1:
        out = np.empty(a.shape)
        soft_threshold(a, tau, out, np.empty(a.shape))
        return out
    return a * column_scale(np.linalg.norm(a, axis=0), tau)
