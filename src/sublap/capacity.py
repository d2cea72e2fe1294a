"""p-capacity of gauge annuli, three independent ways.

All capacities are reported in units of sigma_p: the coarea reduction turns
the energy of any radial profile eta(psi) into

    Q sigma_p * integral_r^R |eta'(rho)|^p rho^(Q-1) drho,

so the sigma_p factor is common to every method and cancels in comparisons.
The three methods are plain functions: `closed_form_capacity`, a float
that also takes the limit R = inf; `minimize_radial`, the exact minimizer
of that integral over piecewise-linear profiles on knots that crowd where
the extremal profile falls; and `mc_energy`, the full-dimensional MC
energy over the closed-form sigma_p (`space.sigma_p_exact`), whose stderr
is the energy run's alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import AnnulusPotential
from .montecarlo import MCEstimate, STREAM_ENERGY, band_estimate, rescaled
from .space import SpaceParams, check_annulus, check_p, exponents, sigma_p_exact


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

    @staticmethod
    def linear(r: float, R: float, m: int) -> "RadialProfile":
        knots = np.linspace(r, R, m + 1)
        return RadialProfile(knots, (R - knots) / (R - r))


def closed_form_capacity(params: SpaceParams, p: float, r: float, R: float) -> float:
    """Capacity of the annulus B_r inside B_R, in sigma_p units.

    |alpha|^(p-1) Q (r^alpha - R^alpha)^(1-p) for p < Q (and with r, R
    swapped for p > Q); Q (log R - log r)^(1-Q) at p == Q.  The absolute
    value on alpha is deliberate: the signed power is negative or undefined
    for 1 < p < Q, while |alpha|^(p-1) is exactly the energy of the extremal
    profile computed by the one-dimensional coarea reduction.  Evaluated in
    logs, with the gap as the larger power times -expm1(-|alpha| log(R/r)),
    so radii or p whose powers leave the float range still give the value
    when it is a float, and a DomainError when it is not.
    """
    if not 0 < r < R:  # not `check_annulus`: R = inf gives the limit R -> inf
        raise DomainError(f"need 0 < r < R, got r={r}, R={R}")
    exps = exponents(params, p)
    Q = exps.Q
    log_ratio = np.log(R) - np.log(r)
    if exps.is_log_case:
        log_value = np.log(Q) + (1.0 - Q) * np.log(log_ratio)
    else:
        a = exps.alpha
        log_gap = a * np.log(r if a < 0 else R) + np.log(-np.expm1(-abs(a) * log_ratio))
        log_value = (p - 1.0) * np.log(abs(a)) + np.log(Q) + (1.0 - p) * log_gap
    with np.errstate(over="ignore"):  # an inf capacity is rejected below
        value = float(np.exp(log_value))
    if not 0.0 < value < np.inf:
        raise DomainError(
            f"closed-form capacity exp({log_value:.6g}) is outside the float range"
        )
    return value


def radial_energy(params: SpaceParams, p: float, profile: RadialProfile) -> float:
    """Energy of the radial profile in sigma_p units: Q int |eta'|^p rho^(Q-1) drho.

    The integrand is constant-slope per segment, so each segment integrates
    in closed form, to |slope|^p diff(rho^Q); no quadrature error.
    """
    slopes = np.diff(profile.values) / np.diff(profile.knots)
    weights = np.diff(profile.knots ** params.Q)
    return float(np.sum(np.abs(slopes) ** p * weights))


def _log_knots(params: SpaceParams, p: float, r: float, R: float, m_knots: int) -> np.ndarray:
    """log rho_i of m_knots segments of [r, R] equal in rho^beta, beta =
    alpha / 3, and in log rho at p == Q: log rho_i = log r + log1p(t_i
    expm1(beta log(R/r))) / beta, t_i = i / m_knots, with the ends log r and
    log R exactly.

    A segment of width d at rho adds about d^3 |eta''|^2 |eta'|^(p-2)
    rho^(Q-1) to the energy of the extremal profile eta = rho^alpha, which
    is rho^(alpha - 3) d^3 for every p; equal shares take a knot density
    rho^(alpha/3 - 1), the knots equal in rho^(alpha/3).  They crowd where
    the profile falls, so Q = 202 or R/r = 1e10 keep the accuracy of the
    mild setups (there, knots equal in rho are off by up to 1e104, and
    knots equal in rho^alpha by 3e-3).
    """
    alpha = exponents(params, p).alpha
    log_r, log_ratio = np.log(r), np.log(R) - np.log(r)
    t = np.arange(m_knots + 1) / m_knots
    if alpha is None:
        steps = t * log_ratio
    else:
        beta = alpha / 3.0
        with np.errstate(divide="ignore"):  # log1p(-1) at t = 1 when the ratio underflows
            steps = np.log1p(t * np.expm1(beta * log_ratio)) / beta
    out = log_r + steps
    out[0], out[-1] = log_r, np.log(R)
    return out


def minimize_radial(
    params: SpaceParams, p: float, r: float, R: float, m_knots: int
) -> tuple[RadialProfile, float]:
    """The exact minimizer of the radial energy over the m_knots segments of
    `_log_knots`, in sigma_p units, and its energy.

    The energy sum_i w_i |s_i|^p, with w_i = diff(rho^Q)_i and the slopes
    tied by sum_i s_i drho_i = -1, is minimized where p w_i |s_i|^(p-1) is
    proportional to drho_i: |s_i| = a_i / S with a_i = (drho_i / w_i)^(1/(p-1))
    and S = sum_j drho_j a_j, at energy S^(1-p).  The drops |s_i| drho_i
    are a softmax of log(drho_i a_i), so p near 1 neither under- nor
    overflows, and drho_i and w_i stay in logs, finite where rho^Q overflows.
    """
    if m_knots < 8:
        raise DomainError(f"need at least 8 segments, got {m_knots}")
    check_annulus(r, R)
    check_p(p)
    Q = params.Q
    log_rho = _log_knots(params, p, r, R, m_knots)
    dlog = np.diff(log_rho)
    if not np.all(dlog > 0):
        raise DomainError(f"the knots of [{r!r}, {R!r}] at p={p!r} are not distinct floats")
    log_drho = log_rho[:-1] + np.log(np.expm1(dlog))
    log_w = Q * log_rho[1:] + np.log(-np.expm1(-Q * dlog))
    log_drops = log_drho + (log_drho - log_w) / (p - 1.0)
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
    rho = np.exp(log_rho)
    rho[0], rho[-1] = r, R
    return RadialProfile(rho, values), energy


def mc_energy(
    params: SpaceParams, p: float, r: float, R: float, samples: int, seed: int,
    threads: int | None = None,
) -> MCEstimate:
    """MC annulus energy of the explicit potential over the closed-form
    sigma_p: R^(Q-p) times the unit annulus (r/R, 1)'s, in which c cancels."""
    check_annulus(r, R)
    unit = params.unit()
    potential = AnnulusPotential(unit, p, r / R, 1.0)
    k = params.k

    def weight(h, _):
        return np.abs(potential.eta_prime(h ** (1.0 / (4 * k)))) ** p

    est = band_estimate(params, p, samples, seed, (STREAM_ENERGY, 0), threads, weight, r / R)
    return rescaled(est, (params.Q - p) * math.log(R) - math.log(sigma_p_exact(unit, p)))

