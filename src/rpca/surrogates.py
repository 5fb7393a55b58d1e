"""Spectral rank penalties and their proximal maps.

Two penalties on the singular-value vector are supported:

* ``"gamma"``: the ratio penalty ``sum (1+gamma)*sigma_i / (gamma+sigma_i)``.
  It interpolates between the matrix rank (gamma -> 0) and the nuclear norm
  (gamma -> inf) and stays bounded by ``1+gamma`` per singular value, so large
  singular values are barely penalized.
* ``"nuclear"``: plain ``sum sigma_i``, the convex baseline.

The proximal map of the gamma penalty is computed per component in closed
form: a stationary point is the largest root of a cubic, taken in
trigonometric form (see ``prox_vector``), and is then compared against
collapsing the component to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import real_number

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
            g = real_number("gamma", self.gamma)
            if not 0.0 < g < np.inf:
                raise ValueError("gamma surrogate requires a finite gamma > 0")
            object.__setattr__(self, "gamma", g)
        elif self.gamma is not None:
            raise ValueError("nuclear surrogate takes no gamma")


def gamma_surrogate(gamma: float = 0.01) -> RankSurrogate:
    return RankSurrogate(GAMMA, gamma)


def nuclear_surrogate() -> RankSurrogate:
    return RankSurrogate(NUCLEAR)


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


def prox_vector(sigma_a, mu: float, s: RankSurrogate) -> np.ndarray:
    """Proximal map on a singular-value vector.

    Minimizes ``f(sigma) + (mu/2)*||sigma - sigma_a||^2`` over ``sigma >= 0``,
    componentwise. Nuclear shrinks in closed form, ``max(sigma_a - 1/mu, 0)``.
    For the gamma penalty, with ``t = gamma + sigma``, a stationary point
    solves the cubic ``t^3 - (a+gamma)*t^2 + c = 0``, ``c = (1+gamma)*gamma/mu``,
    and the only local minimum over ``sigma > 0`` is its largest root. With
    ``h = (a+gamma)/3`` and ``r = c/(4h^3)`` the cubic has three real roots
    iff ``r < 1``; that root is then ``sigma = a - 4h*sin^2(theta/2)``,
    ``theta = (2/3)*arcsin(sqrt(r))`` (the trigonometric form used for this
    penalty by GIST, Gong et al., arXiv:1303.4434, and for half-thresholding
    by Xu et al., IEEE TNNLS 2012). Otherwise the objective increases on
    ``sigma >= 0`` and the minimum is 0. Collapsing a component to 0 can
    still be cheaper than the stationary point (the penalty saturates near 1
    while the quadratic term vanishes at 0), so each component is compared
    against the origin and the better of the two is returned.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    sig_a = _checked_sigma(sigma_a)
    if s.kind == NUCLEAR:
        return np.maximum(sig_a - 1.0 / mu, 0.0)
    g = s.gamma
    h = (sig_a + g) / 3.0
    r = (1.0 + g) * g / mu / (4.0 * h) / h / h  # h**3 itself can overflow
    theta = (2.0 / 3.0) * np.arcsin(np.sqrt(np.minimum(r, 1.0)))
    root = np.maximum(sig_a - 4.0 * h * np.sin(0.5 * theta) ** 2, 0.0)
    sig = np.where(r < 1.0, root, 0.0)
    keep = scalar_penalty(sig, s) + 0.5 * mu * (sig - sig_a) ** 2
    with np.errstate(over="ignore"):  # an infinite cost of dropping a value keeps it
        drop = 0.5 * mu * sig_a**2
    return np.where(drop < keep, 0.0, sig)
