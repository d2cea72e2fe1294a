"""The fundamental-solution profile is p-harmonic away from the base point.

Exact 2-jets drive the horizontal operators, so |Delta_p(psi^alpha)| lands at
rounding level (~1e-15) rather than finite-difference level.  The gauge psi
itself is infinity-harmonic.
"""

import numpy as np

from sublap import (
    FundamentalProfile,
    GaugePsi,
    SpaceParams,
    horizontal_gradient,
    infinity_laplacian,
    p_laplacian,
    sample_points,
)
from sublap.fields import gauge_parts

# Every operator takes the whole (N, dim) array of points in one call.
for n, k, c in ((1, 1.0, 1.0), (1, 2.0, 1.0), (2, 1.5, -2.0)):
    params = SpaceParams(n, k, c)
    pts = sample_points(params, 50, seed=7)
    sigma, _, h = gauge_parts(params, pts)
    psi_vals = h ** (1.0 / (4 * k))
    print(f"\nsetup n={n}, k={k}, c={c}  (Q = {params.Q})")

    for p in (1.5, 2.0, 3.0, params.Q):
        field = FundamentalProfile(params, p)
        hg = horizontal_gradient(params, field, pts)
        scale = 1.0 + np.sum(hg * hg, axis=1) ** ((p - 1.0) / 2.0) / psi_vals
        worst = np.max(np.abs(p_laplacian(params, field, pts, p)) / scale)
        label = "log psi " if p == params.Q else "psi^alpha"
        print(f"  p={p:<4g} {label}: max scaled |Delta_p| = {worst:.2e}")

    psi = GaugePsi(params)
    worst = np.max(np.abs(infinity_laplacian(params, psi, pts)))
    print(f"  infinity-Laplacian of psi: max |Delta_inf| = {worst:.2e}")

    # closed form for the horizontal gradient norm, checked at every point
    hg = horizontal_gradient(params, psi, pts)
    closed = c**2 * sigma ** (2 * k - 1.0) * h ** ((1.0 - 2 * k) / (2 * k))
    errs = np.abs(np.sum(hg * hg, axis=1) - closed) / closed
    print(f"  |grad_0 psi|^2 closed form: max rel err = {np.max(errs):.2e}")
