"""Robust PCA: split a matrix into a low-rank part plus a sparse part.

The rank of L is promoted through a bounded ratio penalty on singular values
(tighter than the nuclear norm, which is also available as the convex
baseline), the sparsity of S through an entrywise l1 or columnwise l2,1 norm.
An augmented Lagrange multiplier loop alternates a spectral proximal step, an
exact shrinkage step, and the standard dual updates.
"""

from .solver import (
    IterationRecord,
    SolverConfig,
    SolverResult,
    SolverState,
    kkt_residuals,
    scaled_lambda,
    solve,
)
from .sparse import COLUMNWISE_L21, ENTRYWISE_L1, SparsePenalty, penalty_value, shrink
from .surrogates import (
    RankSurrogate,
    gamma_surrogate,
    nuclear_surrogate,
    prox_matrix,
    prox_vector,
    rank_curve,
    surrogate_gradient,
    surrogate_value,
)
from .synthetic import (
    SyntheticSpec,
    anomaly_scores,
    detect_anomalies,
    generate_synthetic,
    rank_estimate,
    recovery_errors,
    stack_frames,
)

__version__ = "0.1.0"

__all__ = [
    "RankSurrogate",
    "gamma_surrogate",
    "nuclear_surrogate",
    "surrogate_value",
    "surrogate_gradient",
    "prox_vector",
    "prox_matrix",
    "rank_curve",
    "SparsePenalty",
    "ENTRYWISE_L1",
    "COLUMNWISE_L21",
    "penalty_value",
    "shrink",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "IterationRecord",
    "solve",
    "kkt_residuals",
    "scaled_lambda",
    "SyntheticSpec",
    "generate_synthetic",
    "rank_estimate",
    "recovery_errors",
    "anomaly_scores",
    "detect_anomalies",
    "stack_frames",
    "__version__",
]
