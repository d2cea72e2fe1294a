"""Scalar fields on R^(2n+1) with exact 2-jets and vectorized evaluation.

Each field offers jet(pts) for the calculus, on one point (dim,) or a batch
(N, dim), and values(pts) for bulk work on an (N, dim) array of points.
Fields that depend on the point through h alone (HFunction) write their
formula once, as values_of_h(h), in operations that 2-jets and arrays
share: the Monte Carlo kernel calls it on the h it already holds,
values(pts) computes h first, and jet(pts) applies it to the 2-jet of h.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularPointError
from .jets import Jet2
from .space import SpaceParams, as_points, exponents


class ScalarField:
    """Base class; subclasses set `tag` and implement jet()."""

    tag = "user-composite"
    dim: int
    # True when the field is a function of h alone and defines values_of_h.
    h_only = False

    def jet(self, pts) -> Jet2:
        """2-jet at a point (dim,) or at each row of a batch (N, dim)."""
        raise NotImplementedError

    def value(self, P) -> float:
        return self.jet(P).value

    def values(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts).value

    def __add__(self, other: "ScalarField") -> "LinearCombination":
        return LinearCombination([self, other], [1.0, 1.0])

    def __mul__(self, weight: float) -> "LinearCombination":
        return LinearCombination([self], [float(weight)])

    __rmul__ = __mul__


def column_gauge_parts(params: SpaceParams, cols: np.ndarray, lo=None, width=None):
    """(Sigma, tau, h) of N points, built one coordinate column at a time.

    The points are the rows of `cols` (N, dim) or, given a box, the rows of
    lo + cols * width (then `cols` holds uniform draws in [0, 1)); no
    (N, dim) point array is formed.  Sigma adds the squared horizontal
    offsets in the order of numpy's einsum("ij,ij->i") kernel on its
    two-lane (SSE2) baseline: even and odd columns in separate lanes, each
    run of eight columns folded in last to first, the two lanes added at
    the end.  Sigma is then bit-identical to the einsum of the offsets.
    """
    n2 = 2 * params.n
    x0 = params.x0

    def offset(j):
        if width is None:
            return cols[:, j] - x0[j]
        u = cols[:, j] * width[j]
        u += lo[j]
        u -= x0[j]
        return u

    order = []
    while n2 - len(order) >= 8:
        j = len(order)
        order += [j + 6, j + 4, j + 2, j, j + 7, j + 5, j + 3, j + 1]
    order += range(len(order), n2)
    lanes = [None, None]
    for j in order:
        sq = offset(j)
        sq *= sq
        if lanes[j % 2] is None:
            lanes[j % 2] = sq
        else:
            lanes[j % 2] += sq
    sigma = lanes[0] + lanes[1]
    tau = offset(n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = params.c**2 * sigma ** (2 * params.k) + tau * tau
    return sigma, tau, h


def gauge_parts(params: SpaceParams, pts: np.ndarray):
    """Vectorized (Sigma, tau, h) over an (N, dim) array of points."""
    return column_gauge_parts(params, np.asarray(pts, dtype=float))


def _log(x):
    return x.log() if isinstance(x, Jet2) else np.log(x)


class HFunction(ScalarField):
    """A field that depends on the point through h alone.

    values_of_h(h) takes an array of h values or the 2-jet of h.  jet()
    raises SingularPointError with the message `singular` at the base
    point (h = 0); subclasses that keep their own jet need no message.
    """

    h_only = True
    params: SpaceParams
    singular: str

    def values_of_h(self, h):
        raise NotImplementedError

    def values(self, pts) -> np.ndarray:
        return self.values_of_h(gauge_parts(self.params, pts)[2])

    def jet(self, pts) -> Jet2:
        hj = GaugeH(self.params).jet(pts)
        if np.any(hj.value == 0.0):
            raise SingularPointError(self.singular)
        return self.values_of_h(hj)


class GaugeH(HFunction):
    """h = c^2 Sigma^(2k) + (t-s)^2; polynomial-exact when 2k is an integer."""

    tag = "gauge-h"

    def __init__(self, params: SpaceParams):
        self.params = params
        self.dim = params.dim

    def jet(self, pts) -> Jet2:
        params = self.params
        pts = as_points(params, pts)
        n2, d = 2 * params.n, params.dim
        u = pts[..., :n2] - params.a
        # Sigma = |u|^2: gradient 2u, Hessian 2 on the horizontal diagonal.
        grad = np.zeros(pts.shape)
        grad[..., :n2] = 2.0 * u
        hess = np.zeros(pts.shape + (d,))
        hess[..., range(n2), range(n2)] = 2.0
        sigma = Jet2(np.einsum("...l,...l->...", u, u)[()], grad, hess)
        tau = Jet2.variable(pts[..., n2] - params.s, n2, d)
        return params.c**2 * sigma ** (2 * params.k) + tau * tau

    def values_of_h(self, h):
        return h


class GaugePsi(HFunction):
    """psi = h^(1/(4k)); not differentiable at the base point."""

    tag = "gauge-psi"
    singular = "psi has no 2-jet at the base point"

    def __init__(self, params: SpaceParams):
        self.params = params
        self.dim = params.dim

    def values_of_h(self, h):
        return h ** (1.0 / (4 * self.params.k))


class FundamentalProfile(HFunction):
    """scale * psi^alpha for p != Q, scale * log(psi) for p == Q."""

    singular = "profile is singular at the base point"

    def __init__(self, params: SpaceParams, p: float, scale: float = 1.0):
        self.params = params
        self.dim = params.dim
        self.p = float(p)
        self.scale = float(scale)
        self.exps = exponents(params, p)
        self.tag = "profile-log-psi" if self.exps.is_log_case else "profile-psi-alpha"

    def values_of_h(self, h):
        if self.exps.is_log_case:
            return self.scale / (4 * self.params.k) * _log(h)
        return self.scale * h**self.exps.w

    def eta_prime(self, psi: np.ndarray) -> np.ndarray:
        """d/drho of the radial profile (scale * rho^alpha or scale * log rho)."""
        if self.exps.is_log_case:
            return self.scale / psi
        return self.scale * self.exps.alpha * psi ** (self.exps.alpha - 1.0)


class Constant(ScalarField):
    tag = "polynomial"

    def __init__(self, value: float, dim: int):
        self.c = float(value)
        self.dim = dim

    def jet(self, pts) -> Jet2:
        return Jet2.constant(np.full(np.shape(pts)[:-1], self.c)[()], self.dim)


class Polynomial(ScalarField):
    """Sum of monomials coeff * prod_m x_m^e_m, with exact derivatives.

    terms: iterable of (coeff, exponents) with len(exponents) == dim.
    """

    tag = "polynomial"

    def __init__(self, terms, dim: int):
        self.dim = dim
        self.terms = [(float(c), tuple(int(e) for e in es)) for c, es in terms]
        for _, es in self.terms:
            if len(es) != dim or any(e < 0 for e in es):
                raise DomainError("monomial exponents must be nonnegative, one per coordinate")
        self._coeffs = np.array([c for c, _ in self.terms])
        self._exps = np.array([es for _, es in self.terms], dtype=int).reshape(-1, dim)

    def jet(self, pts) -> Jet2:
        x = np.asarray(pts, dtype=float)[..., None, :]  # (..., 1, d)
        e = self._exps  # (T, d)
        # Per term and coordinate: x^e and its first and second derivatives.
        table = np.stack(
            [x**e, e * x ** np.maximum(e - 1, 0), e * (e - 1) * x ** np.maximum(e - 2, 0)],
            axis=-2,
        )  # (..., T, 3, d)
        eye = np.eye(self.dim, dtype=int)
        r = np.arange(self.dim)
        # A derivative of a monomial is the product over coordinates r of the
        # table entry of order "how often r is differentiated".
        val = table[..., 0, :].prod(-1)
        grad = table[..., eye, r].prod(-1)
        hess = table[..., eye[:, None, :] + eye[None, :, :], r].prod(-1)
        hess = np.einsum("...tmq,t->...mq", hess, self._coeffs)
        return Jet2(
            np.einsum("...t,t->...", val, self._coeffs)[()],
            np.einsum("...tm,t->...m", grad, self._coeffs),
            0.5 * (hess + np.swapaxes(hess, -1, -2)),  # einsum is not bit-symmetric
        )


class CutoffBump(HFunction):
    """Smooth compactly supported bump built from h.

    phi = amplitude * exp(-h / (R0^(4k) - h)) on {h < R0^(4k)}, 0 outside.
    Equals `amplitude` at the base point and is smooth everywhere h is.
    """

    tag = "test-bump"

    def __init__(self, params: SpaceParams, support_radius: float, amplitude: float = 1.0):
        if not support_radius > 0:
            raise DomainError("support radius must be positive")
        self.params = params
        self.dim = params.dim
        self.support_radius = float(support_radius)
        self.amplitude = float(amplitude)
        self.B = self.support_radius ** (4 * params.k)

    def jet(self, pts) -> Jet2:
        hj = GaugeH(self.params).jet(pts)
        outside = hj.value >= self.B * (1.0 - 1e-12)
        # Rows outside the support get h = 0 (where the formula is defined)
        # and then the zero jet.
        inner = hj.select(outside)
        return (self.amplitude * (-(inner / (self.B - inner))).exp()).select(outside)

    def values_of_h(self, h) -> np.ndarray:
        inside = h < self.B
        out = np.zeros_like(h)
        hs = h[inside]
        out[inside] = self.amplitude * np.exp(-hs / (self.B - hs))
        return out

    def d_dh_of_h(self, h) -> np.ndarray:
        """d phi / dh as a function of h."""
        inside = h < self.B * (1.0 - 1e-12)
        out = np.zeros_like(h)
        hs = h[inside]
        out[inside] = (
            -self.amplitude
            * self.B
            / (self.B - hs) ** 2
            * np.exp(-hs / (self.B - hs))
        )
        return out

    def value_at_center(self) -> float:
        return self.amplitude


class LinearCombination(ScalarField):
    tag = "user-composite"

    def __init__(self, fields, weights):
        if len(fields) != len(weights) or not fields:
            raise DomainError("need matching, nonempty fields and weights")
        self.fields = list(fields)
        self.weights = [float(w) for w in weights]
        self.dim = fields[0].dim
        if any(f.dim != self.dim for f in fields):
            raise DomainError("all fields must share a dimension")
        self.h_only = all(f.h_only for f in self.fields)

    def jet(self, pts) -> Jet2:
        out = self.weights[0] * self.fields[0].jet(pts)
        for f, w in zip(self.fields[1:], self.weights[1:]):
            out = out + w * f.jet(pts)
        return out

    def _combine(self, method: str, arg) -> np.ndarray:
        out = self.weights[0] * getattr(self.fields[0], method)(arg)
        for f, w in zip(self.fields[1:], self.weights[1:]):
            out = out + w * getattr(f, method)(arg)
        return out

    def values(self, pts) -> np.ndarray:
        return self._combine("values", pts)

    def values_of_h(self, h) -> np.ndarray:
        return self._combine("values_of_h", h)

    def d_dh_of_h(self, h) -> np.ndarray:
        return self._combine("d_dh_of_h", h)

    def value_at_center(self) -> float:
        return sum(
            w * f.value_at_center() for f, w in zip(self.fields, self.weights)
        )


class AnnulusPotential(HFunction):
    """The explicit p-harmonic potential on the gauge annulus r < psi < R.

    (psi^alpha - R^alpha) / (r^alpha - R^alpha) for p != Q, the log analogue
    at p == Q.  Equals 1 at psi = r and 0 at psi = R.
    """

    tag = "user-composite"
    singular = "potential is singular at the base point"

    def __init__(self, params: SpaceParams, p: float, r: float, R: float):
        if not 0 < r < R:
            raise DomainError(f"need 0 < r < R, got r={r}, R={R}")
        self.params = params
        self.dim = params.dim
        self.p = float(p)
        self.r = float(r)
        self.R = float(R)
        self.exps = exponents(params, p)
        if self.exps.is_log_case:
            self._den = np.log(r) - np.log(R)
        else:
            self._den = r**self.exps.alpha - R**self.exps.alpha

    def values_of_h(self, h):
        k4 = 4 * self.params.k
        if self.exps.is_log_case:
            return (_log(h) / k4 - np.log(self.R)) / self._den
        return (h ** (self.exps.alpha / k4) - self.R**self.exps.alpha) / self._den

    def eta_prime(self, psi: np.ndarray) -> np.ndarray:
        """Radial derivative of the profile at gauge radius psi."""
        if self.exps.is_log_case:
            return 1.0 / (psi * self._den)
        return self.exps.alpha * psi ** (self.exps.alpha - 1.0) / self._den
