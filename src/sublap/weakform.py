"""Weak-form verification of the Dirac identity for the fundamental solution.

The pairing integral over the annulus {r < psi < R},

    integral of |grad_0 u|^(p-2) <grad_0 u, grad_0 phi>,

equals -phi(h = r^(4k)) at every r when u is the correctly normalized
profile (C1 psi^alpha for p != Q, C2 log psi for p == Q) and phi a
`CutoffBump` supported in B_R.  Integration by parts on the annulus leaves
only boundary terms: u is p-harmonic inside it, phi vanishes on
{psi = R}, phi is the constant phi(h = r^(4k)) on {psi = r}, and the
normalization makes the flux of |grad_0 u|^(p-2) grad_0 u through that
sphere 1.  As r -> 0 the value tends to -phi(x0), the Dirac identity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .extrapolation import decreasing_radii
from .fields import CutoffBump, FundamentalProfile
from .montecarlo import MCEstimate, STREAM_PAIRING, Stream, band_estimate, rescaled
from .space import SpaceParams, normalization, sigma_p_exact


def _check_bump(phi) -> None:
    if not isinstance(phi, CutoffBump):
        raise DomainError("phi must be a CutoffBump")


def weak_pairing(
    params: SpaceParams, p: float, scale: float, phi, r: float, R: float,
    samples: int, seed: int, threads: int | None = None,
    stream: Stream = (STREAM_PAIRING, 0),
) -> MCEstimate:
    """MC estimate of the annulus pairing integral for 0 < r < R, with u the
    fundamental profile of these parameters and p times `scale`.

    It is the unit annulus (r/R, 1)'s against the bump of radius B/R (the
    dilation delta_R leaves it unchanged), times |c|^((p-2n)/(2k)).  The
    slope of u must stay a nonzero finite float on that annulus
    (`FundamentalProfile.check_slope`); phi must be a bump inside B_R.
    """
    if not 0 < r < R:
        raise DomainError(f"need 0 < r < R, got r={r}, R={R}")
    _check_bump(phi)
    u = FundamentalProfile(params, p, scale=scale)
    u.check_slope(r / R, 1.0, p - 1.0)
    k = params.k
    bump = CutoffBump(params.unit(), phi.support_radius / R)

    def weight(h, _):
        psi = h ** (1.0 / (4 * k))
        s_u = u.eta_prime(psi)
        s_phi = bump.d_dh_of_h(h)
        return np.abs(s_u) ** (p - 2.0) * s_u * s_phi * (4 * k) * psi ** (4 * k - 1.0)

    est = band_estimate(params, p, samples, seed, stream, threads, weight, r / R)
    return rescaled(est, (p - 2 * params.n) / (2 * k) * math.log(abs(params.c)))


def dirac_limit(
    params: SpaceParams, p: float, phi, radii, samples: int, seed: int,
    threads: int | None = None,
) -> list[MCEstimate]:
    """Pairing of the normalized fundamental solution against phi, one
    estimate per radius.

    radii must be strictly decreasing and below the bump support, which is
    the annulus' outer radius.  The estimate at r should reach
    -phi(h = r^(4k)), exactly, by integration by parts on the annulus (see
    the module docstring).  The constant is normalized by the closed-form
    sigma_p.  Every input is checked before the first radius draws.
    """
    radii = decreasing_radii(radii)
    _check_bump(phi)
    R = phi.support_radius
    if radii[0] >= R:
        raise DomainError("all radii must sit inside the bump support")
    constant = normalization(params, p, sigma_p_exact(params, p))
    # the smallest radius bounds them all
    FundamentalProfile(params, p, scale=constant).check_slope(radii[-1] / R, 1.0, p - 1.0)
    return [
        weak_pairing(params, p, constant, phi, r, R, samples, seed, threads,
                     stream=(STREAM_PAIRING, idx))
        for idx, r in enumerate(radii)
    ]
