"""Tour of the basic geometry: space parameters, the gauge, and exponents.

The space is R^(2n+1) with a distinguished base point x0.  Everything radial
runs through Sigma = |x_horizontal - a|^2, h = c^2 Sigma^(2k) + (t-s)^2, and
the gauge psi = h^(1/(4k)).
"""

import numpy as np

from sublap import FundamentalProfile, GaugePsi, SpaceParams, dilate, exponents
from sublap.fields import gauge_parts

params = SpaceParams(n=1, k=1.0, c=1.0)
print("space: n=1, k=1, c=1  (homogeneous dimension Q =", params.Q, ")")

# the gauge takes a batch of points (N, dim); here a batch of one
P = [1.0, 1.0, 2.0]
sigma, tau, h = gauge_parts(params, np.array([P]))
psi = GaugePsi(params).values(np.array([P]))[0]
print(f"\ngauge at {P}: Sigma={sigma[0]}, h={h[0]}, psi={psi:.6f}")

# psi is homogeneous of degree 1 under the anisotropic dilation
lams = (0.5, 2.0, 3.0)
scaled = np.array([dilate(params, P, lam) for lam in lams])
for lam, psi_lam in zip(lams, GaugePsi(params).values(scaled)):
    print(f"  dilation by {lam}: psi = {psi_lam:.6f}  (= {lam} * {psi:.6f})")

# exponents for a few p, including the log case at p = Q
print("\nexponents:")
for p in (1.5, 2.0, 3.0, 4.0):
    e = exponents(params, p)
    if e.is_log_case:
        print(f"  p={p}: log case (p == Q)")
    else:
        print(f"  p={p}: w={e.w:+.4f}, alpha={e.alpha:+.4f}")

# the fundamental-solution profile psi^alpha (log psi at p = Q)
print("\nprofile values at", P)
for p in (2.0, 3.0, 4.0):
    print(f"  p={p}: {FundamentalProfile(params, p).value(P):+.7f}")

# a second environment with non-integer k and negative c works the same way
params_c = SpaceParams(n=2, k=1.5, c=-2.0)
P5 = np.array([0.3, -0.8, 0.5, 1.1, 0.7])
print(f"\nn=2, k=3/2, c=-2: Q={params_c.Q}, psi({P5.tolist()}) ="
      f" {GaugePsi(params_c).values(P5[None])[0]:.6f}")
