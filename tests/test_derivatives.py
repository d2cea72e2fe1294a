"""The hand-written derivatives against the formulas they differentiate.

Each field of h writes its formula once, as values_of_h; the 1-D 2-jet
values_of_h(Jet2.variable(h, 0, 1)) carries its exact d/dh.  d_dh_of_h must
match it, and eta_prime, a d/dpsi, must match it times dh/dpsi =
4k psi^(4k-1).  |grad_0 psi|^q, from Sigma and h alone, must match the
horizontal gradient of GaugePsi that the frame computes, raised to q.
"""

import numpy as np
import pytest

from sublap import (
    AnnulusPotential,
    CutoffBump,
    FundamentalProfile,
    GaugeH,
    GaugePsi,
    Jet2,
    SpaceParams,
    horizontal_gradient,
    sample_points,
)
from sublap.fields import gauge_parts, grad_psi_norm_pow

RTOL = 1e-12

SETUPS = {
    "A": SpaceParams(1, 1.0, 1.0),
    "B": SpaceParams(1, 2.0, 1.0),
    "C": SpaceParams(2, 1.5, -2.0),
    "D": SpaceParams(3, 1.5, -2.0, [0.3, -0.2, 0.1, 0.5, -0.4, 0.2, 0.7]),
}
P = 2.5  # p != Q in every setup


@pytest.fixture(params=list(SETUPS), ids=lambda name: name)
def params(request):
    return SETUPS[request.param]


def d_dh(field, h):
    """d/dh of field.values_of_h at each h, from the formula's 1-D 2-jet."""
    return field.values_of_h(Jet2.variable(h, 0, 1)).grad[..., 0]


def psi_grid(lo, hi):
    return np.geomspace(lo, hi, 41)


@pytest.mark.parametrize("case", ["profile", "log-profile", "potential", "log-potential"])
def test_eta_prime_is_the_derivative_of_the_profile(params, case):
    p = params.Q if case.startswith("log") else P
    if case.endswith("profile"):
        field, psi = FundamentalProfile(params, p, scale=0.7), psi_grid(0.05, 3.0)
    else:
        field, psi = AnnulusPotential(params, p, 0.5, 3.0), psi_grid(0.5, 3.0)
    assert field.exps.is_log_case == case.startswith("log")
    k4 = 4 * params.k
    expected = d_dh(field, psi**k4) * k4 * psi ** (k4 - 1.0)
    np.testing.assert_allclose(field.eta_prime(psi), expected, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("case", ["profile", "log-profile"])
def test_check_slope_bounds_the_slope_between_its_ends(params, case):
    # |eta'| is monotone in psi: a slope checked at the two ends is a
    # nonzero finite float everywhere between them
    field = FundamentalProfile(params, params.Q if case == "log-profile" else P, scale=0.7)
    field.check_slope(0.05, 3.0, P - 1.0)
    slope = np.abs(field.eta_prime(psi_grid(0.05, 3.0)))
    assert np.all(np.isfinite(slope**(P - 1.0)) & (slope > 0.0))


def bump_h(bump):
    """h across the bump's support, its base point and two values outside."""
    return bump.B * np.concatenate([np.linspace(0.0, 0.99, 100), [1.0, 1.5]])


def test_bump_d_dh_is_the_derivative_of_the_bump(params):
    bump = CutoffBump(params, 1.3)
    h = bump_h(bump)
    np.testing.assert_allclose(bump.d_dh_of_h(h), d_dh(bump, h), rtol=RTOL, atol=0.0)
    assert not bump.d_dh_of_h(h)[-2:].any()


def test_bump_d_dh_at_a_tiny_support(params):
    # B = R0^(4k) far below 1e-154, where (B - h)^2 underflows: the slope
    # scales like 1/B, so B d phi/dh matches the undilated bump's
    tiny, unit = CutoffBump(params, 10.0 ** (-40 / params.k)), CutoffBump(params, 1.0)
    assert tiny.B < 1e-154
    ratios = bump_h(unit)
    with np.errstate(all="raise"):
        scaled = tiny.B * tiny.d_dh_of_h(tiny.B * ratios)
    np.testing.assert_allclose(scaled, unit.d_dh_of_h(ratios), rtol=1e-12, atol=0.0)


def test_d_dh_defaults_to_the_jet_of_the_formula(params):
    # h and h^(1/(4k)) have no hand-written d/dh
    h = np.geomspace(0.01, 3.0, 17)
    np.testing.assert_array_equal(GaugeH(params).d_dh_of_h(h), np.ones_like(h))
    k4 = 4 * params.k
    np.testing.assert_allclose(GaugePsi(params).d_dh_of_h(h), h ** (1.0 / k4 - 1.0) / k4,
                               rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, P])
def test_grad_psi_power_matches_the_frame(params, q):
    pts = sample_points(params, 40, 13)
    sigma, _, h = gauge_parts(params, pts)
    hg = horizontal_gradient(params, GaugePsi(params), pts)
    expected = np.sqrt(np.einsum("ij,ij->i", hg, hg)) ** q
    np.testing.assert_allclose(grad_psi_norm_pow(params, sigma, h, q), expected,
                               rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, P])
def test_grad_psi_power_on_the_axis(q):
    # Sigma = 0 with h > 0, and the base point h = 0
    sigma, h = np.array([0.0, 0.0]), np.array([0.7, 0.0])
    half = grad_psi_norm_pow(SpaceParams(1, 0.5, -1.7), sigma, h, q)
    np.testing.assert_allclose(half, 1.7**q, rtol=RTOL, atol=0.0)
    assert not grad_psi_norm_pow(SpaceParams(1, 1.0, -1.7), sigma, h, q).any()
