"""`horizontal_gradient`, `infinity_laplacian` and `p_laplacian` against a
50-digit oracle built by sympy from the paper's frame (`oracle.py`), which
shares no code with the library, to a relative 1e-10.

The fields are not p-harmonic, so the expected values are not 0: the
polynomial x_1^2 + 3 x_1 x_(n+1) (t - s) + (t - s)/2, whose odd coupling
term sees the sign of each b_i's partner, the gauge h, and a cutoff bump
whose support holds every sampled point.
"""

import math

import numpy as np
import pytest
from oracle import Operators

from sublap import (
    CutoffBump,
    GaugeH,
    GaugePsi,
    Polynomial,
    SpaceParams,
    horizontal_gradient,
    infinity_laplacian,
    p_laplacian,
    sample_points,
)

# (n, k, c, x0) as decimal strings: the oracle reads them as exact
# rationals and the library as the nearest floats.  A, B and C are the
# desk setups of conftest.py, D the offset space of the golden reports.
SPACES = {
    "A": (1, "1", "1", ("0",) * 3),
    "B": (1, "2", "1", ("0",) * 3),
    "C": (2, "1.5", "-2", ("0",) * 5),
    "D": (3, "1.5", "-2", ("0.3", "-0.2", "0.1", "0.5", "-0.4", "0.2", "0.7")),
}
FIELDS = ("polynomial", "gauge_h", "bump")
CASES = [(space, field) for space in SPACES for field in FIELDS]
POINTS = 8
RTOL = 1e-10


def _params(space: str) -> SpaceParams:
    n, k, c, x0 = SPACES[space]
    return SpaceParams(n, float(k), float(c), [float(v) for v in x0])


def _coupled_polynomial(params: SpaceParams) -> Polynomial:
    """x_1^2 + 3 x_1 x_(n+1) (t - s) + (t - s)/2 as monomials."""
    n, d, s = params.n, params.dim, params.s

    def mono(*axes):
        return tuple(axes.count(m) for m in range(d))

    return Polynomial([(1.0, mono(0, 0)), (3.0, mono(0, n, 2 * n)), (-3.0 * s, mono(0, n)),
                       (0.5, mono(2 * n)), (-0.5 * s, mono())], d)


def _case(space: str, field: str):
    """(params, points, library field, oracle operators) of one case."""
    params = _params(space)
    pts = sample_points(params, POINTS, 17)
    if field == "polynomial":
        lib = _coupled_polynomial(params)
    elif field == "gauge_h":
        lib = GaugeH(params)
    else:
        # an integer support radius above every sampled psi
        radius = math.ceil(float(np.max(GaugePsi(params).values(pts)))) + 1
        lib, field = CutoffBump(params, float(radius)), f"bump:{radius}"
    return params, pts, lib, Operators(*SPACES[space], field)


def assert_relative(got, want, rtol=RTOL):
    """Each value (each row, for vectors) of got within rtol of want,
    relative to the largest entry of want's row."""
    got, want = np.asarray(got), np.asarray(want)
    if want.ndim == 1:
        got, want = got[:, None], want[:, None]
    scale = np.max(np.abs(want), axis=-1)
    assert np.all(scale > 0.0)
    err = np.max(np.abs(got - want), axis=-1) / scale
    assert np.all(err <= rtol), f"largest relative error {err.max():.3e}"


@pytest.mark.parametrize("space,field", CASES)
def test_operators_match_the_oracle(space, field):
    params, pts, lib, oracle = _case(space, field)
    for p in (1.5, 2.0, 3.0, params.Q):
        grad, lap_inf, lap_p = zip(*(oracle.at(P, p) for P in pts))
        assert_relative(p_laplacian(params, lib, pts, p), lap_p)
    # grad_0 u and Delta_inf u do not depend on p
    assert_relative(horizontal_gradient(params, lib, pts), grad)
    assert_relative(infinity_laplacian(params, lib, pts), lap_inf)


def test_oracle_hand_value():
    # setup A: b_1 = 2 x_2, b_2 = -2 x_1, and for u = x_1^2 + 3 x_1 x_2 t + t/2
    # X_1 X_1 u = 2 + 12 x_2^2, X_2 X_2 u = -12 x_1^2
    oracle = Operators(*SPACES["A"], "polynomial")
    P = (0.5, -1.25, 0.75)
    want = 2.0 + 12 * P[1] ** 2 - 12 * P[0] ** 2
    assert oracle.at(P)[2] == pytest.approx(want, rel=1e-15)
