"""Space parameters, the fundamental-solution exponents and their constants.

The ambient space is R^(2n+1) with coordinates (x_1, ..., x_2n, t) and a
distinguished base point x0 = (a_1, ..., a_2n, s).  Everything radial is
driven by

    Sigma = sum_l (x_l - a_l)^2,
    h     = c^2 * Sigma^(2k) + (t - s)^2,
    psi   = h^(1 / (4k)),

with homogeneous dimension Q = 2n + 2k.  `fields.gauge_parts` evaluates
(Sigma, tau, h) over a batch of points and `fields.GaugePsi` is psi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

# p == Q detection uses a relative tolerance: both are user inputs and exact
# equality is the intent.
LOG_CASE_RTOL = 1e-12
# The largest p accepted.  The capacity problems are conditioned like p (the
# energy scales as (R - r)^(1-p)): `capacity.minimize_radial` is off by a
# relative 5.6e-9 at p = 1e8 but by 5.5e-4 at 1e12 and 5.7e-2 at 1e14.
P_MAX = 1e8


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
        if not 0 < k < math.inf:
            raise ConfigurationError(f"k must be positive and finite, got {k!r}")
        if c == 0 or not math.isfinite(c):
            raise ConfigurationError(f"c must be finite and nonzero, got {c!r}")
        if not math.isfinite(c * c):
            raise ConfigurationError(f"c^2 must be a finite float, got c={c!r}")
        dim = 2 * n + 1
        if x0 is None:
            x0 = np.zeros(dim)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (dim,):
            raise ConfigurationError(
                f"x0 must have {dim} coordinates for n={n}, got shape {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise ConfigurationError(f"x0 must be finite, got {x0.tolist()}")
        x0 = x0.copy()
        x0.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "k", float(k))
        object.__setattr__(self, "c", float(c))
        object.__setattr__(self, "x0", x0)

    def unit(self) -> SpaceParams:
        """The space of the normalized MC run: this n and k, c = 1, x0 = 0."""
        return SpaceParams(self.n, self.k, 1.0)

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


def as_points(params: SpaceParams, pts) -> np.ndarray:
    """Validate a point (dim,) or a batch of points (N, dim) as a float array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != params.dim:
        raise ConfigurationError(
            f"points must have shape ({params.dim},) or (N, {params.dim}), got {pts.shape}"
        )
    return pts


def is_log_case(params: SpaceParams, p: float) -> bool:
    return abs(p - params.Q) <= LOG_CASE_RTOL * max(1.0, params.Q)


def check_p(p: float) -> None:
    """Raise DomainError unless 1 < p <= P_MAX."""
    if not 1 < p <= P_MAX:
        raise DomainError(f"p must exceed 1 and be at most {P_MAX:g}, got {p!r}")


def exponents(params: SpaceParams, p: float) -> Exponents:
    """Q = 2n + 2k, w = (Q-p)/((1-p) 4k), alpha = 4k w; log case flagged at p == Q."""
    check_p(p)
    Q = params.Q
    if is_log_case(params, p):
        return Exponents(p=float(p), Q=Q, w=None, alpha=None)
    w = (Q - p) / ((1.0 - p) * 4 * params.k)
    alpha = (Q - p) / (1.0 - p)
    return Exponents(p=float(p), Q=Q, w=w, alpha=alpha)


def check_integrable(params: SpaceParams, p: float) -> None:
    """Raise DomainError unless 1 < p <= P_MAX (`check_p`) and |grad_0 psi|^p
    is integrable on gauge balls.

    For k < 1/2, |grad_0 psi|^p blows up like Sigma^((2k-1)p/2) on the axis
    {Sigma = 0}, faster than the horizontal volume Sigma^(n-1) dSigma can
    absorb once p >= 2n/(1-2k); the axis crosses every ball and annulus.
    """
    check_p(p)
    if params.k < 0.5:
        # the relative slack keeps the divergent endpoint p == 2n/(1-2k)
        # rejected whichever way the bound rounds
        p_div = 2 * params.n / (1.0 - 2 * params.k)
        if p >= p_div * (1.0 - 1e-12):
            raise DomainError(
                f"the integral of |grad_0 psi|^p diverges for k < 1/2 and "
                f"p >= 2n/(1-2k) = {p_div:g}, got p={p:g}"
            )


def sigma_p_exact(params: SpaceParams, p: float) -> float:
    """sigma_p = V(B_1), the integral of |grad_0 psi|^p over {psi < 1}, in closed form.

    The coarea reduction gives

        sigma_p = omega_(2n-1) |c|^((p-2n)/(2k)) B(1/2, (m+1)/2) / (2(n+k)),

    m = p(2k-1)/(2k) + n/k - 1 and omega_(2n-1) = 2 pi^n / Gamma(n), the
    area of the unit (2n-1)-sphere.  (m+1)/2 reaches 0 exactly at the
    divergence bound of `check_integrable`.  DomainError unless the value
    is a positive normal float (|c|^((p-2n)/(2k)) leaves the floats at
    n = 3, k = 0.1, c = 1e-19, p = 2).
    """
    check_integrable(params, p)
    n, k = params.n, params.k
    m = p * (2 * k - 1) / (2 * k) + n / k - 1
    omega = 2 * math.pi**n / math.gamma(n)
    a, b = 0.5, (m + 1) / 2
    try:
        beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        value = omega * abs(params.c) ** ((p - 2 * n) / (2 * k)) * beta / (2 * (n + k))
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise DomainError(f"sigma_p at p={p!r} is {value!r}, not a positive normal float")
    return value


def normalization(params: SpaceParams, p: float, sigma_p: float) -> float:
    """The constant making the profile a fundamental solution.

    C1 = alpha^(-1) (Q sigma_p)^(1/(1-p)), or C2 = (Q sigma_Q)^(1/(1-Q)) at
    p == Q.  DomainError unless it is a nonzero finite float: near p = 1 the
    power 1/(1-p) takes Q sigma_p out of the float range (to -0.0 at Q = 4,
    p = 1.003).
    """
    exps = exponents(params, p)
    if not sigma_p > 0:
        raise DomainError(f"sigma_p must be positive, got {sigma_p!r}")
    try:
        if exps.is_log_case:
            constant = (exps.Q * sigma_p) ** (1.0 / (1.0 - exps.Q))
        else:
            constant = (exps.Q * sigma_p) ** (1.0 / (1.0 - p)) / exps.alpha
    except OverflowError:
        constant = math.inf
    if constant == 0.0 or not math.isfinite(constant):
        raise DomainError(
            f"the normalization constant at p={p!r} is {constant!r}, "
            "not a nonzero finite float"
        )
    return constant


def dilate(params: SpaceParams, P, lam: float) -> np.ndarray:
    """Anisotropic dilation about x0 of P (dim,), or of each row of P (N, dim):
    u -> lam u, tau -> lam^(2k) tau.

    Multiplies psi by lam; useful for scaling checks.
    """
    out = as_points(params, P) - params.x0
    out[..., : 2 * params.n] *= lam
    out[..., 2 * params.n] *= lam ** (2 * params.k)
    return out + params.x0
