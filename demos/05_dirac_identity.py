"""The distributional Dirac identity, verified through the weak form.

Pairing the normalized profile u = C1 psi^alpha (C2 log psi at p = Q)
against a smooth bump phi over the annulus {r < psi < R} gives exactly
-phi(h = r^(4k)) at every inner radius r: integration by parts on the
annulus leaves only the flux through {psi = r}, where phi is constant.  As
r -> 0 it tends to -phi(x0) = -1.  Each row of the table below is one inner
radius, its estimate next to its exact value.
"""

from sublap import CutoffBump, SpaceParams, dirac_limit, normalization, sigma_p_exact

params = SpaceParams(n=1, k=1.0, c=1.0)
bump = CutoffBump(params, support_radius=1.0)
SAMPLES, SEED = 4 * 10**5, 90210

for p in (2.0, 3.0, params.Q):
    radii = [0.2, 0.1, 0.05]
    estimates = dirac_limit(params, p, bump, radii, SAMPLES, SEED)
    kind = "C2 log psi" if p == params.Q else "C1 psi^alpha"
    sigma = sigma_p_exact(params, p)
    print(f"\np = {p:g}  (u = {kind}, constant = {normalization(params, p, sigma):+.6f},"
          f" sigma_p = {sigma:.5f})")
    for r, est in zip(radii, estimates):
        exact = -float(bump.values_of_h(r**4))
        print(f"  r={r:<5g} pairing = {est.mean:+.5f} +- {est.stderr:.5f}   exact {exact:+.5f}")
