"""Lie brackets of the frame: computed commutator vs the legacy case formulas.

The commutator [X_i, X_j] always points along d/dt.  For k = 1 it is the
constant -4c delta_(i,j-n); for k != 1 it varies with the point and vanishes
at x0.  The legacy case-split formulas (lie_bracket_printed) agree at k = 1
but not for k != 1; the comparison report records the discrepancy instead of
asserting it away.
"""

import numpy as np

from sublap import SpaceParams, bracket_comparison, lie_bracket, lie_bracket_printed

# k = 1: constant brackets, printed formulas agree
params = SpaceParams(n=1, k=1.0, c=1.0)
P = [0.7, -0.4, 1.3]
print("k=1:", "computed", lie_bracket(params, 1, 2, P)[-1],
      " printed", lie_bracket_printed(params, 1, 2, P)[-1])

# k = 2: they differ
params_b = SpaceParams(n=1, k=2.0, c=1.0)
P = [1.0, 2.0, 5.0]
print("k=2 at (1,2,5):",
      "computed", lie_bracket(params_b, 1, 2, P)[-1],
      " printed", lie_bracket_printed(params_b, 1, 2, P)[-1])

# brackets vanish at the base point for k > 1 (not a Carnot-group frame)
print("k=2 at x0:", lie_bracket(params_b, 1, 2, params_b.x0)[-1])

# full comparison report over a few random points
rng = np.random.default_rng(3)
pts = params_b.x0 + rng.uniform(-2, 2, (4, 3))
print("\n[X_1, X_2] over a batch of points:", lie_bracket(params_b, 1, 2, pts)[:, -1])
print("\ncomparison report (k=2):")
for rec in bracket_comparison(params_b, pts):
    print(f"  (i,j)=({rec['i']},{rec['j']})  computed={rec['computed']:+10.4f}"
          f"  printed={rec['printed']:+10.4f}  agree={rec['agree']}")
