"""Weak-form verification of the Dirac identity for the fundamental solution.

The pairing integral over the annulus {r < psi < R},

    integral of |grad_0 u|^(p-2) <grad_0 u, grad_0 phi>,

tends to -phi(x0) as r -> 0 when u is the correctly normalized profile
(C1 psi^alpha for p != Q, C2 log psi for p == Q).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .extrapolation import LimitTable, decreasing_radii, limit_table
from .fields import CutoffBump, FundamentalProfile, LinearCombination
from .montecarlo import Band, MCEstimate, STREAM_PAIRING, _mc_over_box, ball_spec
from .space import SpaceParams, normalization, sigma_p_exact


def _check_bump(phi) -> None:
    if isinstance(phi, CutoffBump):
        return
    if isinstance(phi, LinearCombination) and all(
        isinstance(f, CutoffBump) for f in phi.fields
    ):
        return
    raise DomainError("phi must be a CutoffBump or a combination of bumps")


def weak_pairing(
    params: SpaceParams, p: float, u: FundamentalProfile, phi, r: float, R: float,
    samples: int, seed: int, threads: int | None = None, stream: int = STREAM_PAIRING,
) -> MCEstimate:
    """MC estimate of the annulus pairing integral for 0 < r < R.

    u must be a FundamentalProfile for the same parameters and p (any scale);
    phi a bump (or combination) supported inside B_R.
    """
    if not 0 < r < R:
        raise DomainError(f"need 0 < r < R, got r={r}, R={R}")
    if not isinstance(u, FundamentalProfile):
        raise DomainError("u must be a FundamentalProfile (psi^alpha or log psi, scaled)")
    if u.params is not params and not (
        u.params.n == params.n and u.params.k == params.k
        and u.params.c == params.c and np.array_equal(u.params.x0, params.x0)
    ):
        raise DomainError("u was built for different space parameters")
    if abs(u.p - p) > 1e-12 * max(1.0, abs(p)):
        raise DomainError(f"u was built for p={u.p}, pairing requested p={p}")
    _check_bump(phi)
    k = params.k

    def weight(h, _):
        psi = h ** (1.0 / (4 * k))
        s_u = u.eta_prime(psi)
        s_phi = phi.d_dh_of_h(h)
        return np.abs(s_u) ** (p - 2.0) * s_u * s_phi * (4 * k) * psi ** (4 * k - 1.0)

    band = Band(p=p, hi=R ** (4 * k), weight=weight, lo=r ** (4 * k))
    mean, stderr, acc = _mc_over_box(
        params, ball_spec(params, R), band, samples, seed, stream, threads
    )
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed, accepted=acc)


def dirac_limit(
    params: SpaceParams, p: float, phi, radii, samples: int, seed: int,
    threads: int | None = None, outer_radius: float | None = None,
) -> LimitTable:
    """Pairing of the normalized fundamental solution against phi, per radius.

    radii must be strictly decreasing (three of them geometrically spaced)
    and below the bump support; the extrapolated r -> 0 limit should reach
    the table's target -phi(x0).
    The constant is normalized by the closed-form sigma_p.
    """
    radii = decreasing_radii(radii)
    _check_bump(phi)
    support = (
        phi.support_radius
        if isinstance(phi, CutoffBump)
        else max(f.support_radius for f in phi.fields)
    )
    if radii[0] >= support:
        raise DomainError("all radii must sit inside the bump support")
    R = support if outer_radius is None else float(outer_radius)
    if R < support:
        raise DomainError("outer radius must contain the bump support")
    constant = normalization(params, p, sigma_p_exact(params, p))
    u = FundamentalProfile(params, p, scale=constant)
    estimates = [
        weak_pairing(
            params, p, u, phi, r, R, samples, seed, threads,
            stream=STREAM_PAIRING + 16 * idx,
        )
        for idx, r in enumerate(radii)
    ]
    return limit_table(radii, estimates, -phi.values(params.x0[None])[0])
