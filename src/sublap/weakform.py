"""Weak-form verification of the Dirac identity for the fundamental solution.

The pairing integral over the annulus {r < psi < R0},

    integral of |grad_0 u|^(p-2) <grad_0 u, grad_0 phi>,

equals -phi(h = r^(4k)) at every r when u is the correctly normalized
profile (C1 psi^alpha for p != Q, C2 log psi for p == Q) and phi a
`CutoffBump` supported in B_R0.  Integration by parts on the annulus leaves
only boundary terms: u is p-harmonic inside it, phi vanishes on
{psi = R0}, phi is the constant phi(h = r^(4k)) on {psi = r}, and the
normalization makes the flux of |grad_0 u|^(p-2) grad_0 u through that
sphere 1.  As r -> 0 the value tends to -phi(x0), the Dirac identity.

The pairing depends only on n, k, p and r / R0: the dilation delta_R0 maps
the unit annulus (r / R0, 1) onto it, and c cancels, since |eta'|^(p-1) is
proportional to 1 / sigma_p, which carries the measure's |c|^((p-2n)/(2k)).
So each radius is one run of the unit band against the unit bump, with no
factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .extrapolation import decreasing_radii
from .fields import CutoffBump, FundamentalProfile
from .montecarlo import MCEstimate, STREAM_PAIRING, band_estimate
from .space import SpaceParams, normalization, sigma_p_exact


def dirac_limit(
    params: SpaceParams, p: float, phi, radii, samples: int, seed: int,
    threads: int | None = None,
) -> list[MCEstimate]:
    """Pairing of the normalized fundamental solution against phi, one
    estimate per radius.

    radii must be strictly decreasing and below the bump support R0, which
    is the annulus' outer radius.  The estimate at r should reach
    -phi(h = r^(4k)), exactly, by integration by parts on the annulus (see
    the module docstring); it is the unit annulus (r / R0, 1)'s, on the
    stream (STREAM_PAIRING, index of r).  The constant is normalized by the
    closed-form sigma_p of the unit space.  Every input is checked before
    the first radius draws.
    """
    radii = decreasing_radii(radii)
    if not isinstance(phi, CutoffBump):
        raise DomainError("phi must be a CutoffBump")
    R0 = phi.support_radius
    if radii[0] >= R0:
        raise DomainError("all radii must sit inside the bump support")
    unit, k4 = params.unit(), 4 * params.k
    u = FundamentalProfile(unit, p, scale=normalization(unit, p, sigma_p_exact(unit, p)))
    # the smallest radius bounds them all
    u.check_slope(radii[-1] / R0, 1.0, p - 1.0)
    bump = CutoffBump(unit, 1.0)

    def weight(h, _):
        psi = h ** (1.0 / k4)
        s_u = u.eta_prime(psi)
        return np.abs(s_u) ** (p - 2.0) * s_u * bump.d_dh_of_h(h) * k4 * psi ** (k4 - 1.0)

    return [band_estimate(params, p, samples, seed, (STREAM_PAIRING, idx), threads, weight,
                          r / R0)
            for idx, r in enumerate(radii)]
