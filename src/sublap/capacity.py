"""p-capacity of gauge annuli, three independent ways.

All capacities are reported in units of sigma_p: the coarea reduction turns
the energy of any radial profile eta(psi) into

    Q sigma_p * integral_r^R |eta'(rho)|^p rho^(Q-1) drho,

so the sigma_p factor is common to every method and cancels in comparisons.
The radial method minimizes that integral over piecewise-linear profiles,
whose minimizer is explicit (`minimize_radial`).  The full-dimensional MC
energy is divided by the closed-form sigma_p (`space.sigma_p_exact`), so its
stderr is the energy run's alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import AnnulusPotential
from .montecarlo import Band, MCEstimate, STREAM_ENERGY, _mc_over_box, ball_spec
from .space import SpaceParams, exponents, sigma_p_exact

__all__ = [
    "RadialProfile",
    "CapacityResult",
    "closed_form_capacity",
    "AnnulusPotential",
    "radial_energy",
    "minimize_radial",
    "mc_energy",
    "METHODS",
    "annulus_capacity",
]


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear profile of the gauge radius with pinned boundary values.

    knots are increasing radii from r to R; values run from 1 at r to 0 at R.
    """

    knots: np.ndarray
    values: np.ndarray

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 3:
            raise DomainError("profile needs >= 3 matching knots and values")
        if not np.all(np.diff(knots) > 0) or knots[0] <= 0:
            raise DomainError("knots must be positive and strictly increasing")
        if values[0] != 1.0 or values[-1] != 0.0:
            raise DomainError("boundary values must be pinned to 1 and 0")
        knots = knots.copy()
        values = values.copy()
        knots.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def segments(self) -> int:
        return self.knots.size - 1

    @staticmethod
    def linear(r: float, R: float, m: int) -> "RadialProfile":
        knots = np.linspace(r, R, m + 1)
        return RadialProfile(knots, (R - knots) / (R - r))


@dataclass(frozen=True)
class CapacityResult:
    method: str                       # closed-form | radial-variational | mc-energy
    value: float                      # in units of sigma_p
    stderr: float | None = None


def closed_form_capacity(params: SpaceParams, p: float, r: float, R: float) -> CapacityResult:
    """Capacity of the annulus B_r inside B_R, in sigma_p units.

    |alpha|^(p-1) Q (r^alpha - R^alpha)^(1-p) for p < Q (and with r, R
    swapped for p > Q); Q (log R - log r)^(1-Q) at p == Q.  The absolute
    value on alpha is deliberate: the signed power is negative or undefined
    for 1 < p < Q, while |alpha|^(p-1) is exactly the energy of the extremal
    profile computed by the one-dimensional coarea reduction.
    """
    if not 0 < r < R:
        raise DomainError(f"need 0 < r < R, got r={r}, R={R}")
    exps = exponents(params, p)
    Q = exps.Q
    if exps.is_log_case:
        value = Q * (np.log(R) - np.log(r)) ** (1.0 - Q)
    else:
        a = exps.alpha
        gap = r**a - R**a if p < Q else R**a - r**a
        value = abs(a) ** (p - 1.0) * Q * gap ** (1.0 - p)
    return CapacityResult(method="closed-form", value=float(value))


def radial_energy(params: SpaceParams, p: float, profile: RadialProfile) -> float:
    """Energy of the radial profile in sigma_p units: Q int |eta'|^p rho^(Q-1) drho.

    The integrand is constant-slope per segment, so each segment integrates
    in closed form, to |slope|^p diff(rho^Q); no quadrature error.
    """
    slopes = np.diff(profile.values) / np.diff(profile.knots)
    weights = np.diff(profile.knots ** params.Q)
    return float(np.sum(np.abs(slopes) ** p * weights))


def minimize_radial(
    params: SpaceParams, p: float, r: float, R: float, m_knots: int
) -> tuple[RadialProfile, float]:
    """The exact minimizer of the radial energy over m_knots equal segments
    of [r, R] (sigma_p units), and its energy.

    The energy sum_i w_i |s_i|^p, with w_i = diff(rho^Q)_i and the slopes
    tied by sum_i s_i drho_i = -1, is minimized where p w_i |s_i|^(p-1) is
    proportional to drho_i: |s_i| = a_i / S with a_i = (drho_i / w_i)^(1/(p-1))
    and S = sum_j drho_j a_j, at energy S^(1-p).  The drops |s_i| drho_i
    are a softmax of log(drho_i a_i), so p near 1 neither under- nor overflows.
    """
    if m_knots < 8:
        raise DomainError(f"need at least 8 segments, got {m_knots}")
    if not 0 < r < R:
        raise DomainError(f"need 0 < r < R, got r={r}, R={R}")
    if not 1 < p < np.inf:
        raise DomainError(f"p must exceed 1 and be finite, got {p!r}")
    Q = params.Q
    rho = np.linspace(r, R, m_knots + 1)
    drho = np.diff(rho)
    # log w_i, finite where rho^Q overflows
    log_w = Q * np.log(rho[1:]) + np.log(-np.expm1(-Q * np.log1p(drho / rho[:-1])))
    log_drops = np.log(drho) + (np.log(drho) - log_w) / (p - 1.0)
    top = log_drops.max()
    log_s = top + np.log(np.sum(np.exp(log_drops - top)))
    with np.errstate(over="ignore"):  # an inf energy is rejected below
        energy = float(np.exp((1.0 - p) * log_s))
    if not 0.0 < energy < np.inf:
        raise DomainError(f"radial energy {energy} is outside the float range")
    # each value is the drop still to come, so the tail of tiny drops at p
    # near 1 keeps its digits instead of being 1 minus almost 1
    values = np.append(np.cumsum(np.exp(log_drops - log_s)[::-1])[::-1], 0.0)
    values[0] = 1.0
    return RadialProfile(rho, values), energy


def mc_energy(
    params: SpaceParams, p: float, r: float, R: float, samples: int, seed: int,
    threads: int | None = None,
) -> MCEstimate:
    """MC annulus energy of the explicit potential, divided by the closed-form
    sigma_p; mean and stderr are in sigma_p units."""
    potential = AnnulusPotential(params, p, r, R)
    k = params.k

    def weight(h, _):
        return np.abs(potential.eta_prime(h ** (1.0 / (4 * k)))) ** p

    band = Band(p=p, hi=R ** (4 * k), weight=weight, lo=r ** (4 * k))
    mean, stderr, acc = _mc_over_box(
        params, ball_spec(params, R), band, samples, seed, STREAM_ENERGY, threads
    )
    sigma = sigma_p_exact(params, p)
    return MCEstimate(
        mean=mean / sigma, stderr=stderr / sigma, samples=samples, seed=seed, accepted=acc
    )


METHODS = ("closed-form", "radial-variational", "mc-energy")


def annulus_capacity(
    params: SpaceParams, p: float, r: float, R: float, method: str, samples: int,
    seed: int, m_knots: int = 400, threads: int | None = None,
) -> CapacityResult:
    """The capacity of the annulus by one of METHODS, in sigma_p units.

    samples, seed and threads serve mc-energy only, m_knots
    radial-variational only.
    """
    if method == "closed-form":
        return closed_form_capacity(params, p, r, R)
    if method == "radial-variational":
        _, energy = minimize_radial(params, p, r, R, m_knots)
        return CapacityResult(method=method, value=energy)
    if method == "mc-energy":
        est = mc_energy(params, p, r, R, samples, seed, threads)
        return CapacityResult(method=method, value=est.mean, stderr=est.stderr)
    raise DomainError(f"unknown capacity method {method!r}")
