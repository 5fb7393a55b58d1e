"""Ground-truth instance generation, recovery metrics, and anomaly scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, integer, numerical_rank, real_number

ENTRYWISE = "entrywise"
COLUMNWISE = "columnwise"

# Entries/columns of S below this absolute size are treated as off-support.
SUPPORT_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a planted low-rank + sparse instance.

    ``sparsity`` is the corrupted fraction: of all entries for ``entrywise``
    corruption, of the columns for ``columnwise``. Corruption values are drawn
    uniformly from ``+-[magnitude_low, magnitude_high]``.
    """

    m: int
    n: int
    rank: int
    sparsity: float
    magnitude_low: float = 1.0
    magnitude_high: float = 10.0
    corruption: str = ENTRYWISE

    def __post_init__(self):
        for name in ("m", "n", "rank"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        for name in ("sparsity", "magnitude_low", "magnitude_high"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if not 1 <= self.rank <= min(self.m, self.n):
            raise ValueError("rank must lie in [1, min(m, n)]")
        if not 0.0 < self.sparsity < 1.0:
            raise ValueError("sparsity must lie strictly between 0 and 1")
        if not np.isfinite(self.magnitude_high):
            raise ValueError("magnitude_high must be finite")
        if not 0.0 < self.magnitude_low <= self.magnitude_high:
            raise ValueError("need 0 < magnitude_low <= magnitude_high")
        if self.corruption not in (ENTRYWISE, COLUMNWISE):
            raise ValueError(f"unknown corruption mode {self.corruption!r}")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw a planted instance ``(x, l_star, s_star)`` with ``x = l_star + s_star``.

    ``l_star = A @ B.T`` with independent standard-normal factors. The sparse
    part has exactly ``round(sparsity * m * n)`` nonzero entries at uniform
    positions (entrywise) or ``round(sparsity * n)`` fully corrupted columns
    (columnwise). Randomness comes from ``numpy.random.default_rng(seed)``
    (PCG64), so identical seeds reproduce the triple bit for bit.
    """
    rng = np.random.default_rng(seed)
    m, n, r = spec.m, spec.n, spec.rank
    a = rng.standard_normal((m, r))
    b = rng.standard_normal((n, r))
    l_star = a @ b.T
    s_star = np.zeros((m, n))
    if spec.corruption == ENTRYWISE:
        count = int(round(spec.sparsity * m * n))
        positions = rng.choice(m * n, size=count, replace=False)
        magnitudes = rng.uniform(spec.magnitude_low, spec.magnitude_high, size=count)
        signs = rng.choice(np.array([-1.0, 1.0]), size=count)
        s_star.flat[positions] = signs * magnitudes
    else:
        count = int(round(spec.sparsity * n))
        columns = rng.choice(n, size=count, replace=False)
        magnitudes = rng.uniform(spec.magnitude_low, spec.magnitude_high, size=(m, count))
        signs = rng.choice(np.array([-1.0, 1.0]), size=(m, count))
        s_star[:, columns] = signs * magnitudes
    return l_star + s_star, l_star, s_star


def rank_estimate(l) -> int:
    """Numerical rank of ``l`` under the rule of ``linalg.numerical_rank``."""
    a = as_matrix(l)
    if min(a.shape) == 0:
        return 0
    return numerical_rank(np.linalg.svd(a, compute_uv=False))


def recovery_errors(l, l_star, s, s_star) -> tuple[float, float, float]:
    """Ground-truth errors: relative L error, guarded S error, support F1.

    The S denominator is ``max(1, ||S*||_F)`` so the metric stays defined for
    an uncorrupted instance. Support membership uses an absolute entry
    threshold of ``1e-6``; both supports empty counts as perfect agreement.
    """
    l = as_matrix(l)
    l_star = as_matrix(l_star)
    s = as_matrix(s)
    s_star = as_matrix(s_star)
    if l.shape != l_star.shape or s.shape != s_star.shape:
        raise ValueError("recovered and ground-truth shapes must match")
    norm_l_star = float(np.linalg.norm(l_star))
    l_err = float(np.linalg.norm(l - l_star))
    if norm_l_star > 0.0:
        l_err /= norm_l_star
    s_err = float(np.linalg.norm(s - s_star)) / max(1.0, float(np.linalg.norm(s_star)))
    pred = np.abs(s) > SUPPORT_THRESHOLD
    true = np.abs(s_star) > SUPPORT_THRESHOLD
    tp = int(np.count_nonzero(pred & true))
    fp = int(np.count_nonzero(pred & ~true))
    fn = int(np.count_nonzero(~pred & true))
    f1 = 1.0 if (2 * tp + fp + fn) == 0 else 2.0 * tp / (2 * tp + fp + fn)
    return l_err, s_err, f1


def anomaly_scores(s) -> np.ndarray:
    """2-norm of each column of the sparse part; large scores flag outlier columns."""
    return np.linalg.norm(as_matrix(s), axis=0)


def check_threshold(threshold: float) -> None:
    """Reject a negative or NaN anomaly threshold."""
    if not threshold >= 0.0:
        raise ValueError("threshold must be nonnegative")


def detect_anomalies(scores, threshold: float) -> np.ndarray:
    """Ascending indices whose score strictly exceeds ``threshold``."""
    check_threshold(threshold)
    scores = np.asarray(scores, dtype=np.float64)
    return np.nonzero(scores > threshold)[0]


def stack_frames(frames) -> np.ndarray:
    """Vectorize equal-sized frames (column-major within each) into matrix columns."""
    mats = [as_matrix(f) for f in frames]
    if not mats:
        raise ValueError("need at least one frame")
    shape = mats[0].shape
    for i, f in enumerate(mats):
        if f.shape != shape:
            raise ValueError(f"frame {i} has shape {f.shape}, expected {shape}")
    return np.stack([f.flatten(order="F") for f in mats], axis=1)
