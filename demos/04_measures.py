"""Monte Carlo measures on gauge balls: sigma_p, Ahlfors scaling, densities.

The weighted volume V(B_R) = integral of |grad_0 psi|^p over {psi < R}
scales exactly as sigma_p R^Q, so the sphere {psi = R} carries the measure
Q sigma_p R^(Q-1).  The average of phi over that sphere is one ball
integral: the dilations map B_1 onto B_R, so it is exactly the integral of
(phi + Z phi / Q) |grad_0 psi|^p over B_R divided by sigma_p R^Q, with Z the
dilation generator.  For a bump that depends on h alone the average is
phi(h = R^(4k)), which climbs to the center value phi(x0) as R shrinks; for
phi = x_1^2 it is R^2 M / 2, with M = pi/4 the weighted mean of Sigma on the
unit sphere.
"""

import numpy as np

from sublap import (
    CutoffBump,
    Polynomial,
    SpaceParams,
    density_limit,
    sigma_p,
)
from sublap.montecarlo import STREAM_BALL

params = SpaceParams(n=1, k=1.0, c=1.0)
SAMPLES, SEED = 4 * 10**5, 42

sig = sigma_p(params, 2.0, SAMPLES, SEED)
print(f"sigma_2 = V(B_1) = {sig.mean:.5f} +- {sig.stderr:.5f}"
      f"  (acceptance fraction {sig.accept_fraction:.3f})")

# Ahlfors Q-regularity: the dilation maps B_1 onto B_R, so V(B_R) / R^Q is
# sigma_p exactly, and each radius is its own sigma_p run, on the stream
# (STREAM_BALL, i) as in `sublap ahlfors`: independent runs, so their spread
# checks the stderr
print("\nAhlfors scaling (Q = 4):")
for i, R in enumerate((0.5, 1.0, 2.0)):
    est = sigma_p(params, 2.0, SAMPLES, SEED, stream=(STREAM_BALL, i))
    print(f"  R={R}: V(B_R)/R^Q = {est.mean:.5f} +- {est.stderr:.5f}")

# density limit: each surface average against its exact value phi(h = R^4)
bump = CutoffBump(params, support_radius=1.0)
radii = [0.4, 0.2, 0.1]
rows = density_limit(params, 2.0, bump, radii, SAMPLES, SEED)
print("\ndensity with the standard bump (exact phi(h = R^4), -> phi(x0) = 1):")
for R, row in zip(radii, rows):
    exact = float(bump.values_of_h(R**4))
    print(f"  R={R}: {row.mean:.5f} +- {row.stderr:.5f}   exact {exact:.5f}")

# a field that is not a function of h: Z phi comes from its gradient
x1_squared = Polynomial([(1.0, (2, 0, 0))], params.dim)
rows = density_limit(params, 2.0, x1_squared, radii, SAMPLES, SEED)
print("\ndensity of phi = x_1^2 (exact R^2 pi/8, -> phi(x0) = 0):")
for R, row in zip(radii, rows):
    print(f"  R={R}: {row.mean:.6f} +- {row.stderr:.6f}   exact {R**2 * np.pi / 8:.6f}")
