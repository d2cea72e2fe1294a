"""Scalar fields on R^(2n+1) with exact 2-jets and vectorized evaluation.

Each field offers jet(pts) for the calculus, on one point (dim,) or a batch
(N, dim), and values(pts) for bulk work on an (N, dim) array of points.
Fields that depend on the point through h alone (HFunction) write their
formula once, as values_of_h(h), in operations that 2-jets and arrays
share: the Monte Carlo kernel calls it on the h it already holds,
values(pts) computes h first, and jet(pts) applies it to the 2-jet of h.
Every HFunction's d_dh_of_h is the 1-D 2-jet of values_of_h; the
hand-written derivatives are eta_prime of the one power profile (which the
annulus potential is, scaled and offset) and the bump's d_dh_of_h.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DomainError, SingularPointError
from .jets import Jet2
from .space import SpaceParams, as_points, check_annulus, exponents


class ScalarField:
    """Base class; subclasses implement jet()."""

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


def sum_of_squares(n2: int, square, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Every Sigma: the sum over j < n2 of square(j, buf), which writes the
    square of coordinate j into `buf`, added in coordinate order into `out`
    and returned; `tmp` is a work array of out's shape."""
    square(0, out)
    for j in range(1, n2):
        square(j, tmp)
        out += tmp
    return out


def squared_norm(u: np.ndarray):
    """sum_l u_l^2 over u's last axis by `sum_of_squares`; one point's is a numpy scalar."""
    out, tmp = np.empty(u.shape[:-1]), np.empty(u.shape[:-1])
    return sum_of_squares(u.shape[-1], lambda j, buf: np.multiply(u[..., j], u[..., j], out=buf),
                          out, tmp)[()]


def gauge_h(params: SpaceParams, sigma: np.ndarray, tau_sq: np.ndarray, out: np.ndarray):
    """h = c^2 Sigma^(2k) + tau^2 into `out`, by the ufuncs of that
    expression: `**=` takes numpy's scalar-exponent shortcuts (2k = 2
    squares) as `**` does."""
    np.copyto(out, sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        out **= 2 * params.k
        out *= params.c**2
        out += tau_sq
    return out


def gauge_parts(params: SpaceParams, pts: np.ndarray):
    """Vectorized (Sigma, tau, h) over an (N, dim) array of points, one
    coordinate column at a time: Sigma is the `sum_of_squares` of the offsets x_l - a_l."""
    pts = as_points(params, pts)
    if pts.ndim != 2:
        raise ConfigurationError(f"points must have shape (N, {params.dim}), got {pts.shape}")
    n2, x0, cols = 2 * params.n, params.x0, pts.T
    work = np.empty((4, pts.shape[0]))
    sigma, tmp, tau, h = work

    def square(j, out):
        np.subtract(cols[j], x0[j], out=out)
        out *= out

    sum_of_squares(n2, square, sigma, tmp)
    np.subtract(cols[n2], x0[n2], out=tau)
    return sigma, tau, gauge_h(params, sigma, np.multiply(tau, tau, out=tmp), h)


def grad_psi_norm_pow(params: SpaceParams, sigma, h, q: float) -> np.ndarray:
    """|grad_0 psi|^q = (c^2 Sigma^(2k-1) h^((1-2k)/(2k)))^(q/2) over arrays, q > 0.

    One exp of q log|c| + q/2 ((2k-1) log Sigma + (1-2k)/(2k) log h); the
    Sigma = 0 (or h = 0) limit is explicit: 0 for k > 1/2, |c|^q at 1/2, inf below.
    """
    k = params.k
    log_cq = q * math.log(abs(params.c))
    a = 0.5 * q * (2 * k - 1.0)
    b = 0.5 * q * (1.0 - 2 * k) / (2 * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(log_cq + a * np.log(sigma) + b * np.log(h))
    degenerate = (sigma == 0.0) | (h == 0.0)
    if np.any(degenerate):
        out[degenerate] = 0.0 if k > 0.5 else math.exp(log_cq) if k == 0.5 else np.inf
    return out


def _log(x):
    return x.log() if isinstance(x, Jet2) else np.log(x)


def _exp(x):
    return x.exp() if isinstance(x, Jet2) else np.exp(x)


def _zero_where(rows, x):
    """x with the rows where `rows` holds set to 0 (for a jet, its derivatives too)."""
    return x.select(rows) if isinstance(x, Jet2) else np.where(rows, 0.0, x)


class HFunction(ScalarField):
    """A field that depends on the point through h alone.

    values_of_h(h) takes an array of h values or the 2-jet of h.  jet()
    raises SingularPointError with the message `singular` at the base
    point (h = 0); a field smooth there leaves `singular` None.
    """

    h_only = True
    singular: str | None = None

    def __init__(self, params: SpaceParams):
        self.params = params
        self.dim = params.dim

    def values_of_h(self, h):
        raise NotImplementedError

    def d_dh_of_h(self, h) -> np.ndarray:
        """d phi / dh as a function of h, from the 1-D 2-jet of values_of_h."""
        return self.values_of_h(Jet2.variable(h, 0, 1)).grad[..., 0]

    def values(self, pts) -> np.ndarray:
        return self.values_of_h(gauge_parts(self.params, pts)[2])

    def jet(self, pts) -> Jet2:
        hj = GaugeH(self.params).jet(pts)
        if self.singular is not None and np.any(hj.value == 0.0):
            raise SingularPointError(self.singular)
        return self.values_of_h(hj)


class GaugeH(HFunction):
    """h = c^2 Sigma^(2k) + (t-s)^2; polynomial-exact when 2k is an integer."""

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
        sigma = Jet2(squared_norm(u), grad, hess)
        tau = Jet2.variable(pts[..., n2] - params.s, n2, d)
        return params.c**2 * sigma ** (2 * params.k) + tau * tau

    def values_of_h(self, h):
        return h


class GaugePsi(HFunction):
    """psi = h^(1/(4k)); not differentiable at the base point."""

    singular = "psi has no 2-jet at the base point"

    def values_of_h(self, h):
        return h ** (1.0 / (4 * self.params.k))


class FundamentalProfile(HFunction):
    """scale * psi^alpha + offset for p != Q, scale * log(psi) + offset for p == Q."""

    singular = "profile is singular at the base point"

    def __init__(self, params: SpaceParams, p: float, scale: float = 1.0, offset: float = 0.0):
        super().__init__(params)
        self.p = float(p)
        self.scale = float(scale)
        self.offset = float(offset)
        self.exps = exponents(params, p)

    def values_of_h(self, h):
        if self.exps.is_log_case:
            return self.scale / (4 * self.params.k) * _log(h) + self.offset
        return self.scale * h**self.exps.w + self.offset

    def eta_prime(self, psi: np.ndarray) -> np.ndarray:
        """d/drho of the radial profile (scale * rho^alpha or scale * log rho)."""
        if self.exps.is_log_case:
            return self.scale / psi
        return self.scale * self.exps.alpha * psi ** (self.exps.alpha - 1.0)

    def check_slope(self, lo: float, hi: float, q: float) -> None:
        """Raise DomainError unless |eta'| and |eta'|^q are nonzero finite
        floats at psi = lo and psi = hi.  |eta'| is monotone in psi, so the
        two ends bound every psi between them.  (At Q = 4 and p = 1.01,
        alpha = -299 and psi^(alpha-1) overflows below psi = 0.094.)"""
        lo, hi = float(lo), float(hi)
        with np.errstate(all="ignore"):
            slope = np.abs(self.eta_prime(np.array([lo, hi])))
            both = np.concatenate([slope, slope**q])
        if not np.all(np.isfinite(both) & (both > 0.0)):
            raise DomainError(
                f"the profile's slope leaves the float range at p={self.p!r}: |eta'| or "
                f"|eta'|^{q:g} at psi = {lo!r} or {hi!r} is not a nonzero finite float"
            )


class Constant(ScalarField):
    def __init__(self, value: float, dim: int):
        self.c = float(value)
        self.dim = dim

    def jet(self, pts) -> Jet2:
        return Jet2.constant(np.full(np.shape(pts)[:-1], self.c)[()], self.dim)


class Polynomial(ScalarField):
    """Sum of monomials coeff * prod_m x_m^e_m, with exact derivatives.

    terms: iterable of (coeff, exponents) with len(exponents) == dim.
    """

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

    phi = exp(-h / (B - h)) on {h < B}, B = R0^(4k), 0 outside.
    Equals 1 at the base point and is smooth everywhere h is.
    """

    def __init__(self, params: SpaceParams, support_radius: float):
        if not support_radius > 0:
            raise DomainError("support radius must be positive")
        super().__init__(params)
        self.support_radius = float(support_radius)
        try:
            self.B = self.support_radius ** (4 * params.k)
        except OverflowError:
            self.B = math.inf
        # 4/(e B) is the largest |d phi / dh|, at h = B/2
        if not (0 < self.B < math.inf and math.isfinite(4.0 / (math.e * self.B))):
            raise DomainError(
                f"support radius {support_radius!r} gives the h bound R0^(4k) = "
                f"{self.B!r}, which is not a positive finite float with a finite "
                "slope 4/(e B)"
            )
        # the support's edge: past it exp(-h/(B - h)) is 0, B/(B - h)^2 may overflow
        self.edge = self.B * (1.0 - 1e-12)

    def values_of_h(self, h):
        outside = (h.value if isinstance(h, Jet2) else h) >= self.edge
        # rows outside get h = 0, where the formula is defined, and then 0
        inner = _zero_where(outside, h)
        return _zero_where(outside, _exp(-(inner / (self.B - inner))))

    def d_dh_of_h(self, h) -> np.ndarray:
        """d phi / dh as a function of h."""
        outside = h >= self.edge
        inner = np.where(outside, 0.0, h)
        gap = self.B - inner
        # B / gap / gap, not B / gap^2: gap^2 underflows once B is below ~1e-154
        return np.where(outside, 0.0, -(self.B / gap) / gap * np.exp(-inner / gap))


class AnnulusPotential(FundamentalProfile):
    """The explicit p-harmonic potential on the gauge annulus r < psi < R.

    (g(psi) - g(R)) / (g(r) - g(R)) with g(rho) = rho^alpha for p != Q and
    log rho at p == Q: the fundamental profile with scale 1/(g(r) - g(R))
    and offset -g(R)/(g(r) - g(R)).  Equals 1 at psi = r and 0 at psi = R.
    Its energy density |eta'|^p must be a nonzero finite float on the
    annulus (`check_slope`), so g, the scale and the offset are finite too.
    """

    def __init__(self, params: SpaceParams, p: float, r: float, R: float):
        check_annulus(r, R)
        alpha, radii = exponents(params, p).alpha, np.array([r, R], dtype=float)
        with np.errstate(all="ignore"):
            g = np.log(radii) if alpha is None else radii**alpha  # g(r), g(R)
            scale = 1.0 / (g[0] - g[1])
            offset = -g[1] * scale
        super().__init__(params, p, scale=float(scale), offset=float(offset))
        self.check_slope(r, R, p)
        self.r = float(r)
        self.R = float(R)
