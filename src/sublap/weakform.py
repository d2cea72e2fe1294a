"""Weak-form verification of the Dirac identity for the fundamental solution.

The pairing integral over the annulus {r < psi < R},

    integral of |grad_0 u|^(p-2) <grad_0 u, grad_0 phi>,

tends to -phi(x0) as r -> 0 when u is the correctly normalized profile
(C1 psi^alpha for p != Q, C2 log psi for p == Q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extrapolation import ExtrapolationResult, geometric_limit
from .fields import CutoffBump, FundamentalProfile, LinearCombination
from .montecarlo import (
    Band,
    MCEstimate,
    STREAM_PAIRING,
    STREAM_SIGMA_COMPANION,
    _mc_over_box,
    ball_spec,
    sigma_p,
)
from .space import SpaceParams, normalization


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


@dataclass(frozen=True)
class DiracTable:
    """Convergence table of the pairing integral as the inner radius shrinks."""

    radii: tuple[float, ...]
    estimates: tuple[MCEstimate, ...]
    extrapolation: ExtrapolationResult
    target: float           # -phi(x0)
    sigma: MCEstimate       # companion sigma_p estimate used for the constant
    constant: float         # C1 (p != Q) or C2 (p == Q)

    @property
    def limit(self) -> float:
        return self.extrapolation.limit


def dirac_limit(
    params: SpaceParams, p: float, phi, radii, samples: int, seed: int,
    threads: int | None = None, outer_radius: float | None = None,
) -> DiracTable:
    """Pairing of the normalized fundamental solution against phi, per radius.

    radii must be strictly decreasing and below the bump support; the
    extrapolated r -> 0 limit is compared against -phi(x0) by the caller.
    """
    radii = [float(r) for r in radii]
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])) or radii[-1] <= 0:
        raise DomainError("radii must be strictly decreasing and positive")
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
    sig = sigma_p(params, p, samples, seed, threads, stream=STREAM_SIGMA_COMPANION)
    constant = normalization(params, p, sig.mean)
    u = FundamentalProfile(params, p, scale=constant)
    estimates = [
        weak_pairing(
            params, p, u, phi, r, R, samples, seed, threads,
            stream=STREAM_PAIRING + 16 * idx,
        )
        for idx, r in enumerate(radii)
    ]
    if len(radii) == 3:
        extra = geometric_limit(
            radii, [e.mean for e in estimates], [e.stderr for e in estimates]
        )
    else:
        last = estimates[-1]
        extra = ExtrapolationResult(
            limit=last.mean, stderr=last.stderr, rate=None, fallback=True
        )
    center = phi.value_at_center()
    return DiracTable(
        radii=tuple(radii),
        estimates=tuple(estimates),
        extrapolation=extra,
        target=-center,
        sigma=sig,
        constant=constant,
    )
