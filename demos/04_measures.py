"""Monte Carlo measures on gauge balls: sigma_p, Ahlfors scaling, shells.

The weighted volume V(B_R) = integral of |grad_0 psi|^p over {psi < R}
scales exactly as sigma_p R^Q; thin shells approximate the surface measure
Q sigma_p R^(Q-1).  So the normalized surface average of a bump that depends
on h alone is exactly phi(h = R^(4k)) at every radius, which climbs to the
center value phi(x0) as R shrinks.  Three nested shells of halving width,
Richardson-combined, make one MC run per radius.
"""

import numpy as np

from sublap import (
    Constant,
    CutoffBump,
    SpaceParams,
    ball_measure,
    density_limit,
    shell_integral_extrapolated,
    sigma_p,
)
from sublap.montecarlo import STREAM_BALL, STREAM_SHELL

params = SpaceParams(n=1, k=1.0, c=1.0)
SAMPLES, SEED = 4 * 10**5, 42

sig = sigma_p(params, 2.0, SAMPLES, SEED)
print(f"sigma_2 = V(B_1) = {sig.mean:.5f} +- {sig.stderr:.5f}"
      f"  (acceptance fraction {sig.accept_fraction:.3f})")

# Ahlfors Q-regularity: V(B_R) / R^Q is constant
print("\nAhlfors scaling (Q = 4):")
for i, R in enumerate((0.5, 1.0, 2.0)):
    est = ball_measure(params, 2.0, R, SAMPLES, SEED, stream=(STREAM_BALL, i))
    print(f"  R={R}: V(B_R)/R^Q = {est.mean / R**4:.5f} +- {est.stderr / R**4:.5f}")

# surface measure of spheres: S(dB_R) = Q sigma_2 R^(Q-1)
one = Constant(1.0, params.dim)
print("\nthin-shell surface measure (target Q sigma_2 R^(Q-1)):")
for i, R in enumerate((1.0, 2.0)):
    est = shell_integral_extrapolated(params, 2.0, R, one, SAMPLES, SEED,
                                      stream=(STREAM_SHELL, i))
    target = 4.0 * sig.mean * R**3
    print(f"  R={R}: {est.mean:9.4f} +- {est.stderr:.4f}   target {target:9.4f}")

# density limit: each surface average against its exact value phi(h = R^4)
bump = CutoffBump(params, support_radius=1.0)
radii = [0.4, 0.2, 0.1]
rows = density_limit(params, 2.0, bump, radii, SAMPLES, SEED)
print("\ndensity with the standard bump (exact phi(h = R^4), -> phi(x0) = 1):")
for R, row in zip(radii, rows):
    exact = float(bump.values_of_h(R**4))
    print(f"  R={R}: {row.mean:.5f} +- {row.stderr:.5f}   exact {exact:.5f}")
