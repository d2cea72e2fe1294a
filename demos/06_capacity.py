"""p-capacity of gauge annuli, computed three independent ways.

All values are in units of sigma_p (the shared Monte Carlo constant cancels):
  * closed form,
  * the exact minimizer of the 1-D convex energy over piecewise-linear
    radial profiles,
  * full-dimensional Monte Carlo energy of the explicit potential.
"""

from sublap import (
    AnnulusPotential,
    RadialProfile,
    SpaceParams,
    annulus_capacity,
    minimize_radial,
    radial_energy,
)
from sublap.capacity import METHODS

params = SpaceParams(n=1, k=1.0, c=1.0)
r, R = 1.0, 2.0

# the explicit potential interpolates 1 -> 0 across the annulus
print("potential along the t-axis (psi = |t|^(1/2)):")
potential = AnnulusPotential(params, 2.0, r, R)
for t in (1.0, 2.0, 4.0):
    u = potential.value([0.0, 0.0, t])
    print(f"  psi={t**0.5:.4f}: u = {u:.4f}")

# energy of trial profiles vs the minimizer
linear = RadialProfile.linear(r, R, 200)
print(f"\nlinear trial profile energy: {radial_energy(params, 2.0, linear):.4f} sigma_2")
profile, energy = minimize_radial(params, 2.0, r, R, 400)
print(f"minimized radial energy:     {energy:.4f} sigma_2")
print(f"closed form (32/3):          {32/3:.4f} sigma_2")

# three-way comparison across p, including the log case p = Q
print("\nthree-way agreement (sigma_p units):")
for p in (2.0, 3.0, 4.0, 6.0):
    vals = {
        method: annulus_capacity(params, p, r, R, method, samples=4 * 10**5, seed=11)
        for method in METHODS
    }
    mc = vals["mc-energy"]
    print(f"  p={p:g}: closed={vals['closed-form'].value:9.4f}"
          f"  radial={vals['radial-variational'].value:9.4f}"
          f"  mc={mc.value:9.4f} +- {mc.stderr:.4f}")
