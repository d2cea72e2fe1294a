"""The radii of the paper's two r -> 0 sequences.

`montecarlo.density_limit` and `weakform.dirac_limit` estimate one value per
radius, and for a bump that depends on the point through h alone each value
is known in closed form at every radius, so no limit is extrapolated:

- the normalized surface average of phi over {psi = R} is phi(h = R^(4k)),
  because phi is constant on the sphere.  It is estimated as the integral
  of (phi + Z phi / Q) |grad_0 psi|^p over B_R, Z phi = 4k h phi'(h), over
  sigma_p R^Q, which is exact: the dilations scale the measure by R^Q and
  leave |grad_0 psi| unchanged (see `montecarlo`);
- the pairing over {r < psi < R0} is -phi(h = r^(4k)): integration by parts
  on the annulus leaves only its boundary terms, as the normalized
  fundamental solution is p-harmonic inside it, phi vanishes on {psi = R0},
  and the flux of |grad_0 Gamma|^(p-2) grad_0 Gamma through {psi = r} is 1.

Both tend to +-phi(x0) as the radius shrinks.
"""

from __future__ import annotations

from .errors import DomainError


def decreasing_radii(radii) -> list[float]:
    """The radii of a limit sequence as floats; raises DomainError unless they
    are strictly decreasing and positive."""
    radii = [float(r) for r in radii]
    if not radii or any(b >= a for a, b in zip(radii, radii[1:])) or radii[-1] <= 0:
        raise DomainError("radii must be strictly decreasing and positive")
    return radii
