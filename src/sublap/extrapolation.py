"""Limit extrapolation for radius sequences."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


# Sigmas a successive difference must reach before a rate is fitted.  The
# samples are independent, so a difference that is only noise passes 2 sigma
# one time in 22 (3 sigma: one in 370), and a rate fitted to noise can move
# the limit by many stderrs.
SIGNIFICANCE = 3.0


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    stderr: float | None
    rate: float | None       # fitted exponent q in a + b x^q, None on fallback
    fallback: bool           # True when noise swamped the fit; limit = finest value


def decreasing_radii(radii) -> list[float]:
    """The radii of a limit sequence as floats; raises DomainError unless they
    are strictly decreasing and positive and, when three (the count that
    `geometric_limit` fits a rate to), geometrically spaced."""
    radii = [float(r) for r in radii]
    if not radii or any(b >= a for a, b in zip(radii, radii[1:])) or radii[-1] <= 0:
        raise DomainError("radii must be strictly decreasing and positive")
    if len(radii) == 3:
        # unlike a scaled difference, isclose never matches a finite ratio to inf
        if not math.isclose(radii[0] / radii[1], radii[1] / radii[2], rel_tol=1e-9):
            raise DomainError(f"three radii must be geometrically spaced, got {radii}")
    return radii


def geometric_limit(xs, values, stderrs=None) -> ExtrapolationResult:
    """Extrapolate a + b x^q -> a from samples at strictly decreasing x > 0.

    Only three samples at geometrically spaced x (else DomainError) fit the
    rate q.  Any other count of samples, a successive difference that is not
    significant (SIGNIFICANCE sigmas) against the supplied stderrs, or an
    ill-posed fit returns the finest value with fallback=True.
    """
    xs = decreasing_radii(xs)
    values = [float(v) for v in values]
    if len(values) != len(xs):
        raise DomainError("geometric_limit needs one value per x")
    s = [0.0] * len(xs) if stderrs is None else [float(e) for e in stderrs]
    finest = ExtrapolationResult(
        limit=values[-1], stderr=(None if stderrs is None else s[-1]),
        rate=None, fallback=True,
    )
    if len(xs) != 3:
        return finest
    rho = xs[0] / xs[1]
    d1 = values[0] - values[1]
    d2 = values[1] - values[2]
    if stderrs is not None:
        sig1 = math.hypot(s[0], s[1])
        sig2 = math.hypot(s[1], s[2])
        if abs(d1) < SIGNIFICANCE * sig1 or abs(d2) < SIGNIFICANCE * sig2:
            return finest
    if d2 == 0.0 or d1 / d2 <= 0.0:
        return finest
    q = math.log(d1 / d2) / math.log(rho)
    if not 0.05 <= q <= 16.0:
        return finest
    factor = rho**q - 1.0
    limit = values[2] - d2 / factor
    if stderrs is None:
        err = None
    else:
        # limit = v2 (1 + 1/factor) - v1 / factor, treating q as fixed
        err = math.hypot(s[2] * (1.0 + 1.0 / factor), s[1] / factor)
    return ExtrapolationResult(limit=limit, stderr=err, rate=q, fallback=False)


@dataclass(frozen=True)
class LimitTable:
    """Estimates at shrinking radii, their r -> 0 limit, and the value the
    limit should reach.

    The paper's two r -> 0 statements are both such a table: the surface
    averages of `montecarlo.density_limit` tend to phi(x0), the pairings of
    `weakform.dirac_limit` to -phi(x0).
    """

    radii: tuple[float, ...]
    estimates: tuple          # one MCEstimate per radius
    extrapolation: ExtrapolationResult
    target: float

    @property
    def limit(self) -> float:
        return self.extrapolation.limit


def limit_table(radii, estimates, target: float) -> LimitTable:
    """The table of `estimates` at `radii`, extrapolated by `geometric_limit`."""
    estimates = tuple(estimates)
    extrapolation = geometric_limit(
        radii, [e.mean for e in estimates], [e.stderr for e in estimates]
    )
    return LimitTable(
        radii=tuple(radii), estimates=estimates,
        extrapolation=extrapolation, target=float(target),
    )
