import math

import numpy as np
import pytest

from sublap import (
    ConfigurationError,
    DomainError,
    FundamentalProfile,
    GaugePsi,
    SingularPointError,
    SpaceParams,
    dilate,
    exponents,
    normalization,
)
from sublap.capacity import minimize_radial
from sublap.fields import gauge_parts
from sublap.space import P_MAX, check_integrable


def batched_gauge(params, pts):
    """(Sigma, h, psi) per row of pts, from the library's batched gauge."""
    pts = np.atleast_2d(pts)
    sigma, _, h = gauge_parts(params, pts)
    return sigma, h, GaugePsi(params).values(pts)


class TestSpaceParams:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            SpaceParams(0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            SpaceParams(1, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            SpaceParams(1, -2.0, 1.0)
        with pytest.raises(ConfigurationError):
            SpaceParams(1, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            SpaceParams(1, 1.0, 1.0, x0=[0.0, 0.0])

    @pytest.mark.parametrize("k,c,x0", [
        (np.inf, 1.0, None), (np.nan, 1.0, None), (1.0, np.inf, None),
        (1.0, np.nan, None), (1.0, 1.0, [0.0, 0.0, np.nan]), (1.0, 1.0, [np.inf, 0.0, 0.0]),
    ])
    def test_rejects_non_finite_inputs(self, k, c, x0):
        with pytest.raises(ConfigurationError):
            SpaceParams(1, k, c, x0)

    def test_homogeneous_dimension(self, setup_a, setup_b, setup_c):
        assert setup_a.Q == 4.0
        assert setup_b.Q == 6.0
        assert setup_c.Q == 7.0

    def test_point_dimension_mismatch(self, setup_a):
        with pytest.raises(ConfigurationError):
            gauge_parts(setup_a, [[1.0, 2.0]])


class TestGauge:
    def test_singular_point(self, setup_a):
        assert batched_gauge(setup_a, [0.0, 0.0, 0.0]) == ([0.0], [0.0], [0.0])

    def test_hand_values_setup_a(self, setup_a):
        (sigma,), (h,), (psi,) = batched_gauge(setup_a, [1.0, 1.0, 2.0])
        assert sigma == 2.0
        assert h == 8.0
        assert psi == pytest.approx(8.0**0.25, rel=1e-15)
        assert psi == pytest.approx(1.681793, abs=1e-6)

    def test_hand_values_setup_b(self, setup_b):
        assert batched_gauge(setup_b, [1.0, 0.0, 0.0]) == ([1.0], [1.0], [1.0])

    def test_psi_power_recovers_h(self, all_setups, rng):
        for params in all_setups:
            pts = params.x0 + rng.uniform(-2, 2, (50, params.dim))
            _, h, psi = batched_gauge(params, pts)
            assert psi ** (4 * params.k) == pytest.approx(h, rel=1e-12)

    def test_psi_vanishes_only_at_x0(self, all_setups, rng):
        for params in all_setups:
            assert batched_gauge(params, params.x0)[2] == [0.0]
            pts = params.x0 + rng.uniform(-2, 2, (20, params.dim))
            pts = pts[np.any(pts != params.x0, axis=1)]
            assert np.all(batched_gauge(params, pts)[2] > 0.0)

    def test_anisotropic_scaling(self, all_setups, rng):
        for params in all_setups:
            for _ in range(20):
                P = params.x0 + rng.uniform(-2, 2, params.dim)
                lam = rng.uniform(0.2, 3.0)
                scaled = dilate(params, P, lam)
                assert batched_gauge(params, scaled)[2][0] == pytest.approx(
                    lam * batched_gauge(params, P)[2][0], rel=1e-12
                )

    def test_translation_invariance(self, rng):
        base = SpaceParams(1, 1.5, -0.7)
        shift = rng.uniform(-1, 1, 3)
        moved = SpaceParams(1, 1.5, -0.7, x0=shift)
        P = rng.uniform(-2, 2, 3)
        assert batched_gauge(moved, P + shift)[1] == pytest.approx(batched_gauge(base, P)[1], rel=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 5)])
    def test_values_reject_a_bad_point_shape(self, setup_a, shape):
        # values takes (N, dim) only, and truncates or broadcasts nothing
        with pytest.raises(ConfigurationError):
            gauge_parts(setup_a, np.ones(shape))
        with pytest.raises(ConfigurationError):
            GaugePsi(setup_a).values(np.ones(shape))


class TestExponents:
    def test_hand_values(self, setup_a, setup_b):
        ea = exponents(setup_a, 2.0)
        assert (ea.Q, ea.alpha, ea.w) == (4.0, -2.0, -0.5)
        eb = exponents(setup_b, 2.0)
        assert (eb.Q, eb.alpha, eb.w) == (6.0, -4.0, -0.5)

    def test_log_case_flagged(self, setup_a):
        e = exponents(setup_a, 4.0)
        assert e.is_log_case
        assert e.w is None and e.alpha is None

    def test_rejects_p_at_most_one(self, setup_a):
        with pytest.raises(DomainError):
            exponents(setup_a, 1.0)
        with pytest.raises(DomainError):
            exponents(setup_a, 0.5)

    def test_one_p_range_with_a_cap(self, setup_a):
        # the radial minimizer loses 5.5e-4 relative at p = 1e12 with exit 0
        checks = (lambda p: exponents(setup_a, p), lambda p: check_integrable(setup_a, p),
                  lambda p: minimize_radial(setup_a, p, 1.0, 2.0, 16))
        for check in checks:
            for p in (1.0, 1e12, math.inf, math.nan):
                with pytest.raises(DomainError, match="p must exceed 1 and be at most 1e"):
                    check(p)
            check(P_MAX)
        assert math.isfinite(minimize_radial(setup_a, P_MAX, 1.0, 2.0, 16)[1])

    def test_consistency_identities(self, all_setups, rng):
        for params in all_setups:
            for _ in range(50):
                p = rng.uniform(1.01, 9.0)
                e = exponents(params, p)
                if e.is_log_case:
                    continue
                assert e.alpha * (1.0 - p) == pytest.approx(e.Q - p, rel=1e-14)
                assert e.alpha == pytest.approx(4 * params.k * e.w, rel=1e-14)


class TestFundamentalProfile:
    def test_hand_values(self, setup_a):
        P = [1.0, 1.0, 2.0]

        def profile(p):
            return FundamentalProfile(setup_a, p).value(P)

        assert profile(2.0) == pytest.approx(8.0**-0.5, rel=1e-14)
        assert profile(3.0) == pytest.approx(8.0**-0.125, rel=1e-14)
        assert profile(4.0) == pytest.approx(math.log(8.0**0.25), rel=1e-14)
        assert profile(3.0) == pytest.approx(0.7711054, abs=1e-6)
        assert profile(4.0) == pytest.approx(0.5198604, abs=1e-6)

    def test_singularity(self, setup_a):
        with pytest.raises(SingularPointError):
            FundamentalProfile(setup_a, 2.0).value([0.0, 0.0, 0.0])


class TestNormalization:
    def test_c1_hand_value(self, setup_a):
        # p=2, Q=4, alpha=-2, sigma=1: C1 = (-1/2) * 4^(-1) = -1/8
        assert normalization(setup_a, 2.0, 1.0) == pytest.approx(-0.125, rel=1e-14)

    def test_c2_hand_value(self, setup_a):
        assert normalization(setup_a, 4.0, 1.0) == pytest.approx(
            4.0 ** (-1.0 / 3.0), rel=1e-14
        )
        assert normalization(setup_a, 4.0, 1.0) == pytest.approx(0.6299605, abs=1e-6)

    def test_identity_case(self, all_setups):
        # Q sigma_p = 1 leaves C1 = 1 / alpha for any p, and C2 = 1
        for params in all_setups:
            for p in (1.5, 2.0, 3.0):
                exps = exponents(params, p)
                assert normalization(params, p, 1.0 / params.Q) == pytest.approx(
                    1.0 / exps.alpha, rel=1e-14
                )
            assert normalization(params, params.Q, 1.0 / params.Q) == 1.0

    def test_rejects_bad_sigma(self, setup_a):
        with pytest.raises(DomainError):
            normalization(setup_a, 2.0, 0.0)
        with pytest.raises(DomainError):
            normalization(setup_a, 4.0, -1.0)

    @pytest.mark.parametrize("sigma_p,constant", [(3.0, "-0.0"), (1e-3, "inf")],
                             ids=["underflow", "overflow"])
    def test_rejects_a_constant_outside_the_float_range(self, setup_a, sigma_p, constant):
        # p = 1.003: the power 1/(1-p) = -333.3 takes Q sigma_p to 0, or
        # raises a Python OverflowError
        with pytest.raises(DomainError, match=f"is {constant}, not a nonzero finite float"):
            normalization(setup_a, 1.003, sigma_p)
