#!/usr/bin/env python3
"""Search the Korobov multipliers of `sublap.montecarlo.KOROBOV`.

    python3 tools/korobov_search.py            # the whole table, m = 8..16, n = 1..8
    python3 tools/korobov_search.py 8 3        # one entry: N = 2^8 points in 3 dimensions

A rank-1 lattice of N = 2^m points in d dimensions has points
frac(i z / N), i = 0..N-1; its Korobov generating vector is
z = (1, a, a^2, ..., a^(d-1)) mod N for one odd multiplier a.  For each
(m, d = 2n + 1) the search draws up to CANDIDATES distinct odd multipliers
from a generator seeded by (SEED, m, d), so every entry is reproducible on
its own, and keeps the one with the smallest P_2 criterion

    P_2(z) = -1 + (1/N) sum_i prod_j (1 + GAMMA 2 pi^2 B_2(frac(i z_j / N))),

B_2(x) = x^2 - x + 1/6: the mean-square error of the randomly shifted
lattice over the unit ball of a Korobov space of smoothness 2 (Sloan and
Joe, 1994; Dick, Kuo and Sloan, Acta Numerica 2013).  Every z gives an
unbiased estimate under a random shift; the criterion only picks one of low
variance.  Needs numpy only, and sublap never imports it.
"""

from __future__ import annotations

import sys

import numpy as np

SEED = 20261019
CANDIDATES = 128
# Product weight of every coordinate: below 1 it favours lattices whose
# low-dimensional projections are good, which is where the band integrands
# of sublap keep most of their variance.
GAMMA = 0.3
LOG2_RANGE = range(8, 17)
N_RANGE = range(1, 9)


def korobov_vector(a: int, m: int, dim: int) -> np.ndarray:
    """z = (1, a, ..., a^(dim-1)) mod 2^m."""
    N = 1 << m
    z = np.empty(dim, dtype=np.int64)
    z[0] = 1
    for j in range(1, dim):
        z[j] = z[j - 1] * a % N
    return z


def p2_criterion(z: np.ndarray, m: int) -> float:
    """P_2 of the lattice of 2^m points with generating vector z."""
    N = 1 << m
    x = np.arange(N) / N
    kernel = 1.0 + GAMMA * 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)  # by i z_j mod N
    prod = np.ones(N)
    i = np.arange(N, dtype=np.int64)
    for zj in z:
        prod *= kernel[i * zj % N]
    return float(prod.mean()) - 1.0


def search(m: int, dim: int) -> int:
    """The odd multiplier of smallest P_2 among the candidates of (m, dim)."""
    N = 1 << m
    rng = np.random.default_rng([SEED, m, dim])
    odd = np.arange(3, N, 2)
    candidates = rng.choice(odd, size=min(CANDIDATES, odd.size), replace=False)
    scores = [p2_criterion(korobov_vector(int(a), m, dim), m) for a in candidates]
    return int(candidates[int(np.argmin(scores))])


def main(argv) -> int:
    if argv:
        m, dim = (int(arg) for arg in argv)
        print(search(m, dim))
        return 0
    print("KOROBOV = {")
    for m in LOG2_RANGE:
        row = ", ".join(str(search(m, 2 * n + 1)) for n in N_RANGE)
        print(f"    {m}: ({row}),")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
