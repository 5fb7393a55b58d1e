"""Spectral rank penalties and their proximal maps.

Two penalties on the singular-value vector are supported:

* ``"gamma"``: the ratio penalty ``sum (1+gamma)*sigma_i / (gamma+sigma_i)``.
  It interpolates between the matrix rank (gamma -> 0) and the nuclear norm
  (gamma -> inf) and stays bounded by ``1+gamma`` per singular value, so large
  singular values are barely penalized.
* ``"nuclear"``: plain ``sum sigma_i``, the convex baseline.

The proximal map of the gamma penalty has no closed form; it is computed per
component by iterating a linearize-then-shrink step (the penalty splits into
convex quadratic minus convex, so linearizing the concave part yields the
closed-form update ``sigma <- max(sigma_a - f'(sigma)/mu, 0)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, svd

GAMMA = "gamma"
NUCLEAR = "nuclear"


@dataclass(frozen=True)
class RankSurrogate:
    """Choice of spectral penalty: kind ``"gamma"`` (with a scale) or ``"nuclear"``."""

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in (GAMMA, NUCLEAR):
            raise ValueError(f"unknown surrogate kind {self.kind!r}")
        if self.kind == GAMMA:
            if self.gamma is None or not self.gamma > 0.0:
                raise ValueError("gamma surrogate requires gamma > 0")
        elif self.gamma is not None:
            raise ValueError("nuclear surrogate takes no gamma")


def gamma_surrogate(gamma: float = 0.01) -> RankSurrogate:
    return RankSurrogate(GAMMA, gamma)


def nuclear_surrogate() -> RankSurrogate:
    return RankSurrogate(NUCLEAR)


@dataclass(frozen=True)
class DcConfig:
    """Inner-loop control for the gamma prox: iteration cap and absolute tolerance."""

    max_inner: int = 30
    tol: float = 1e-10

    def __post_init__(self):
        if self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


def _checked_sigma(sigma) -> np.ndarray:
    sig = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if sig.ndim != 1:
        raise ValueError("singular values must form a 1-D sequence")
    if sig.size and sig.min() < 0.0:
        raise ValueError("singular values must be nonnegative")
    return sig


def scalar_penalty(sigma, s: RankSurrogate) -> np.ndarray:
    """Per-component penalty values f(sigma_i), vectorized over the input."""
    sig = _checked_sigma(sigma)
    if s.kind == NUCLEAR:
        return sig.copy()
    g = s.gamma
    return (1.0 + g) * sig / (g + sig)


def surrogate_value(sigma, s: RankSurrogate) -> float:
    """Total penalty over a singular-value vector."""
    return float(scalar_penalty(sigma, s).sum())


def surrogate_gradient(sigma, s: RankSurrogate) -> np.ndarray:
    """Componentwise derivative of the penalty.

    For the gamma penalty this is ``(1+gamma)*gamma / (gamma+sigma)^2``; at
    sigma = 0 the value ``(1+gamma)/gamma`` is assigned directly so the
    endpoint is exact rather than computed through the quotient. Every
    component lies in ``(0, (1+gamma)/gamma]``. The nuclear gradient is 1.
    """
    sig = _checked_sigma(sigma)
    if s.kind == NUCLEAR:
        return np.ones_like(sig)
    g = s.gamma
    grad = (1.0 + g) * g / (g + sig) ** 2
    grad[sig == 0.0] = (1.0 + g) / g
    return grad


def prox_vector_with_iters(
    sigma_a, mu: float, s: RankSurrogate, cfg: DcConfig | None = None
) -> tuple[np.ndarray, int]:
    """Proximal map on a singular-value vector, plus the inner-iteration count.

    Minimizes ``f(sigma) + (mu/2)*||sigma - sigma_a||^2`` over ``sigma >= 0``,
    componentwise. Nuclear shrinks in closed form, ``max(sigma_a - 1/mu, 0)``,
    with 0 iterations. The gamma penalty iterates the linearized shrink from
    ``sigma = sigma_a``; that sequence decreases monotonically onto the
    largest stationary point. Collapsing a component to 0 can still be
    cheaper than that stationary point (the penalty saturates near 1 while
    the quadratic term vanishes at 0), so each component is compared against
    the origin and the better of the two is returned. Without that check the
    iteration alone can return a non-global point.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    sig_a = _checked_sigma(sigma_a)
    if s.kind == NUCLEAR:
        return np.maximum(sig_a - 1.0 / mu, 0.0), 0
    if cfg is None:
        cfg = DcConfig()
    sig = sig_a.copy()
    iters = 0
    for _ in range(cfg.max_inner):
        new = np.maximum(sig_a - surrogate_gradient(sig, s) / mu, 0.0)
        iters += 1
        change = float(np.max(np.abs(new - sig))) if new.size else 0.0
        sig = new
        if change <= cfg.tol:
            break
    keep = scalar_penalty(sig, s) + 0.5 * mu * (sig - sig_a) ** 2
    drop = 0.5 * mu * sig_a**2
    return np.where(drop < keep, 0.0, sig), iters


def prox_vector(sigma_a, mu: float, s: RankSurrogate, cfg: DcConfig | None = None) -> np.ndarray:
    """Proximal map on a singular-value vector (see ``prox_vector_with_iters``)."""
    return prox_vector_with_iters(sigma_a, mu, s, cfg)[0]


def prox_matrix(a, mu: float, s: RankSurrogate, cfg: DcConfig | None = None) -> np.ndarray:
    """Minimizer of ``F(Z) + (mu/2)*||Z - A||_F^2`` for a spectral penalty F.

    Because both penalties depend on the matrix only through its singular
    values, the matrix problem reduces to the vector prox applied to the
    singular values of ``A``, keeping A's singular vectors.
    """
    f = svd(as_matrix(a))
    return (f.u * prox_vector(f.singulars, mu, s, cfg)) @ f.vt


def rank_curve(s: RankSurrogate, grid) -> np.ndarray:
    """Tabulate the scalar penalty over ``grid``; rows are (sigma, f(sigma))."""
    pts = _checked_sigma(grid)
    return np.column_stack([pts, scalar_penalty(pts, s)])
