"""p-capacity of gauge annuli, three independent ways.

All capacities are reported in units of sigma_p: the coarea reduction turns
the energy of any radial profile eta(psi) into

    Q sigma_p * integral_r^R |eta'(rho)|^p rho^(Q-1) drho,

so the sigma_p factor is common to every method and cancels in comparisons.
The full-dimensional MC energy is divided by the closed-form sigma_p
(`space.sigma_p_exact`), so its stderr is the energy run's alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConvergenceError, DomainError
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
    "annulus_capacity",
    "capacity_three_way",
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


def radial_energy(
    params: SpaceParams, p: float, profile: RadialProfile, sigma_p: float = 1.0
) -> float:
    """Energy of the radial profile: Q sigma_p int |eta'|^p rho^(Q-1) drho.

    The integrand is constant-slope per segment, so each segment integrates
    in closed form; no quadrature error.
    """
    energy, _, _ = _segment_energy(profile.values, profile.knots, p, params.Q)
    return float(sigma_p * energy)


def _segment_energy(values, rho, p, Q):
    """(energy in sigma_p units, slopes, weights) of the profile values at knots rho.

    weight = diff(rho^Q) is Q times the integral of rho^(Q-1) over a segment.
    """
    slopes = np.diff(values) / np.diff(rho)
    weights = np.diff(rho**Q)
    return float(np.sum(np.abs(slopes) ** p * weights)), slopes, weights


def minimize_radial(
    params: SpaceParams, p: float, r: float, R: float, m_knots: int,
    max_iter: int = 200,
) -> tuple[RadialProfile, float]:
    """Minimize the radial energy over interior knot values (sigma_p units).

    Damped Newton on the strictly convex problem; converged when the max
    gradient component drops below 1e-10 * energy.
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
    x = RadialProfile.linear(r, R, m_knots).values[1:-1].copy()

    def pinned(interior):
        return np.concatenate(([1.0], interior, [0.0]))

    energy, slopes, weights = _segment_energy(pinned(x), rho, p, Q)
    for _ in range(max_iter):
        sgn_pow = np.sign(slopes) * np.abs(slopes) ** (p - 1.0)
        seg_g = p * sgn_pow * weights / drho          # d energy / d slope_i / drho_i
        grad = seg_g[:-1] - seg_g[1:]                 # interior knot j touches segs j-1, j
        residual = float(np.max(np.abs(grad)))
        if residual < 1e-10 * max(energy, 1e-300):
            break
        curv = p * (p - 1.0) * np.maximum(np.abs(slopes), 1e-300) ** (p - 2.0)
        diag_seg = curv * weights / drho**2
        main = diag_seg[:-1] + diag_seg[1:]
        off = -diag_seg[1:-1]
        ab = np.zeros((3, x.size))
        ab[0, 1:] = off
        ab[1] = main
        ab[2, :-1] = off
        step = solve_banded((1, 1), ab, -grad)
        t = 1.0
        for _ in range(60):
            trial = x + t * step
            e_trial, s_trial, _ = _segment_energy(pinned(trial), rho, p, Q)
            if e_trial <= energy + 1e-4 * t * float(grad @ step):
                x, energy, slopes = trial, e_trial, s_trial
                break
            t *= 0.5
        else:
            raise ConvergenceError("radial line search stalled", residual)
    else:
        raise ConvergenceError("radial Newton did not converge", residual)

    profile = RadialProfile(rho, pinned(x))
    return profile, energy


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


def capacity_three_way(
    params: SpaceParams, p: float, r: float, R: float, samples: int, seed: int,
    m_knots: int = 400, threads: int | None = None,
) -> list[CapacityResult]:
    """closed form, radial minimizer, and MC energy, all in sigma_p units."""
    return [
        annulus_capacity(params, p, r, R, method, samples, seed, m_knots, threads)
        for method in METHODS
    ]
