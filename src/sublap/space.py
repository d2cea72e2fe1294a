"""Space parameters, gauge functions, and the fundamental-solution exponents.

The ambient space is R^(2n+1) with coordinates (x_1, ..., x_2n, t) and a
distinguished base point x0 = (a_1, ..., a_2n, s).  Everything radial is
driven by

    Sigma = sum_l (x_l - a_l)^2,
    h     = c^2 * Sigma^(2k) + (t - s)^2,
    psi   = h^(1 / (4k)),

with homogeneous dimension Q = 2n + 2k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

# p == Q detection uses a relative tolerance: both are user inputs and exact
# equality is the intent.
LOG_CASE_RTOL = 1e-12


@dataclass(frozen=True)
class SpaceParams:
    """Environment fixing the vector fields and the gauge.

    n is half the horizontal dimension, k > 0 may be non-integer, c != 0,
    and x0 is the base point (a_1, ..., a_2n, s).
    """

    n: int
    k: float
    c: float
    x0: np.ndarray

    def __init__(self, n: int, k: float, c: float, x0=None):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigurationError(f"n must be a positive integer, got {n!r}")
        if not k > 0:
            raise ConfigurationError(f"k must be positive, got {k!r}")
        if c == 0:
            raise ConfigurationError("c must be nonzero")
        dim = 2 * n + 1
        if x0 is None:
            x0 = np.zeros(dim)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (dim,):
            raise ConfigurationError(
                f"x0 must have {dim} coordinates for n={n}, got shape {x0.shape}"
            )
        x0 = x0.copy()
        x0.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "k", float(k))
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "x0", x0)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def Q(self) -> float:
        """Homogeneous dimension 2n + 2k."""
        return 2 * self.n + 2 * self.k

    @property
    def a(self) -> np.ndarray:
        """Horizontal part of the base point."""
        return self.x0[: 2 * self.n]

    @property
    def s(self) -> float:
        """Vertical coordinate of the base point."""
        return float(self.x0[2 * self.n])


@dataclass(frozen=True)
class Exponents:
    """Derived constants for a given p: Q, and (w, alpha) when p != Q.

    In the log case (p == Q up to LOG_CASE_RTOL) w and alpha are None.
    """

    p: float
    Q: float
    w: float | None
    alpha: float | None

    @property
    def is_log_case(self) -> bool:
        return self.w is None


@dataclass(frozen=True)
class GaugeValues:
    """Gauge data at a point: Sigma, tau = t - s, h, and psi = h^(1/(4k))."""

    Sigma: float
    tau: float
    h: float
    psi: float


def as_point(params: SpaceParams, P) -> np.ndarray:
    """Validate and convert a point to a float array of the right dimension."""
    P = np.asarray(P, dtype=float)
    if P.shape != (params.dim,):
        raise ConfigurationError(
            f"point must have {params.dim} coordinates, got shape {P.shape}"
        )
    return P


def as_points(params: SpaceParams, pts) -> np.ndarray:
    """Validate a point (dim,) or a batch of points (N, dim) as a float array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != params.dim:
        raise ConfigurationError(
            f"points must have shape ({params.dim},) or (N, {params.dim}), got {pts.shape}"
        )
    return pts


def is_base_point(params: SpaceParams, P) -> bool:
    """Exact coordinate equality with x0 (callers wanting a tolerance use psi)."""
    return bool(np.all(as_point(params, P) == params.x0))


def _sigma_pow(sigma: float, e: float) -> float:
    # Sigma^e with the Sigma == 0 branch explicit (e > 0 always here).
    if sigma == 0.0:
        return 0.0
    return sigma**e


def gauge(params: SpaceParams, P) -> GaugeValues:
    """Evaluate Sigma, h, psi at P."""
    P = as_point(params, P)
    u = P[: 2 * params.n] - params.a
    tau = float(P[2 * params.n] - params.s)
    sigma = float(u @ u)
    h = params.c**2 * _sigma_pow(sigma, 2 * params.k) + tau * tau
    psi = h ** (1.0 / (4 * params.k)) if h > 0 else 0.0
    return GaugeValues(Sigma=sigma, tau=tau, h=h, psi=psi)


def gauge_regularized(params: SpaceParams, P, eps: float) -> float:
    """h_eps = c^2 (Sigma + eps^2)^(2k) + (t-s)^2; decreases to h as eps -> 0."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    P = as_point(params, P)
    u = P[: 2 * params.n] - params.a
    tau = float(P[2 * params.n] - params.s)
    sigma = float(u @ u)
    return params.c**2 * (sigma + eps * eps) ** (2 * params.k) + tau * tau


def is_log_case(params: SpaceParams, p: float) -> bool:
    return abs(p - params.Q) <= LOG_CASE_RTOL * max(1.0, params.Q)


def exponents(params: SpaceParams, p: float) -> Exponents:
    """Q = 2n + 2k, w = (Q-p)/((1-p) 4k), alpha = 4k w; log case flagged at p == Q."""
    if not (p > 1 and math.isfinite(p)):
        raise DomainError(f"p must lie in (1, inf), got {p!r}")
    Q = params.Q
    if is_log_case(params, p):
        return Exponents(p=float(p), Q=Q, w=None, alpha=None)
    w = (Q - p) / ((1.0 - p) * 4 * params.k)
    alpha = (Q - p) / (1.0 - p)
    return Exponents(p=float(p), Q=Q, w=w, alpha=alpha)


def c1_constant(alpha: float, Q: float, sigma_p: float, p: float) -> float:
    """C1 = alpha^(-1) (Q sigma_p)^(1/(1-p))."""
    if not sigma_p > 0:
        raise DomainError(f"sigma_p must be positive, got {sigma_p!r}")
    return (Q * sigma_p) ** (1.0 / (1.0 - p)) / alpha


def c2_constant(Q: float, sigma_q: float) -> float:
    """C2 = (Q sigma_Q)^(1/(1-Q))."""
    if not sigma_q > 0:
        raise DomainError(f"sigma_p must be positive, got {sigma_q!r}")
    return (Q * sigma_q) ** (1.0 / (1.0 - Q))


def normalization(params: SpaceParams, p: float, sigma_p: float) -> float:
    """The constant making the profile a fundamental solution: C1, or C2 at p == Q."""
    exps = exponents(params, p)
    if exps.is_log_case:
        return c2_constant(exps.Q, sigma_p)
    return c1_constant(exps.alpha, exps.Q, sigma_p, p)


def dilate(params: SpaceParams, P, lam: float) -> np.ndarray:
    """Anisotropic dilation about x0: u -> lam u, tau -> lam^(2k) tau.

    Multiplies psi by lam; useful for scaling checks.
    """
    P = as_point(params, P)
    out = params.x0.copy()
    out[: 2 * params.n] += lam * (P[: 2 * params.n] - params.a)
    out[2 * params.n] += lam ** (2 * params.k) * (P[2 * params.n] - params.s)
    return out
