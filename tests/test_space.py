import math

import numpy as np
import pytest

from sublap import (
    ConfigurationError,
    DomainError,
    FundamentalProfile,
    SingularPointError,
    SpaceParams,
    c1_constant,
    c2_constant,
    dilate,
    exponents,
    gauge,
    gauge_regularized,
    normalization,
)


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
            gauge(setup_a, [1.0, 2.0])


class TestGauge:
    def test_singular_point(self, setup_a):
        g = gauge(setup_a, [0.0, 0.0, 0.0])
        assert (g.Sigma, g.h, g.psi) == (0.0, 0.0, 0.0)

    def test_hand_values_setup_a(self, setup_a):
        g = gauge(setup_a, [1.0, 1.0, 2.0])
        assert g.Sigma == 2.0
        assert g.h == 8.0
        assert g.psi == pytest.approx(8.0**0.25, rel=1e-15)
        assert g.psi == pytest.approx(1.681793, abs=1e-6)

    def test_hand_values_setup_b(self, setup_b):
        g = gauge(setup_b, [1.0, 0.0, 0.0])
        assert (g.Sigma, g.h, g.psi) == (1.0, 1.0, 1.0)

    def test_psi_power_recovers_h(self, all_setups, rng):
        for params in all_setups:
            for _ in range(50):
                P = params.x0 + rng.uniform(-2, 2, params.dim)
                g = gauge(params, P)
                assert g.psi ** (4 * params.k) == pytest.approx(g.h, rel=1e-12)

    def test_psi_vanishes_only_at_x0(self, all_setups, rng):
        for params in all_setups:
            assert gauge(params, params.x0).psi == 0.0
            for _ in range(20):
                P = params.x0 + rng.uniform(-2, 2, params.dim)
                if np.all(P == params.x0):
                    continue
                assert gauge(params, P).psi > 0.0

    def test_anisotropic_scaling(self, all_setups, rng):
        for params in all_setups:
            for _ in range(20):
                P = params.x0 + rng.uniform(-2, 2, params.dim)
                lam = rng.uniform(0.2, 3.0)
                scaled = dilate(params, P, lam)
                assert gauge(params, scaled).psi == pytest.approx(
                    lam * gauge(params, P).psi, rel=1e-12
                )

    def test_translation_invariance(self, rng):
        base = SpaceParams(1, 1.5, -0.7)
        shift = rng.uniform(-1, 1, 3)
        moved = SpaceParams(1, 1.5, -0.7, x0=shift)
        P = rng.uniform(-2, 2, 3)
        assert gauge(moved, P + shift).h == pytest.approx(gauge(base, P).h, rel=1e-12)


class TestRegularized:
    def test_hand_values(self, setup_a, setup_b):
        assert gauge_regularized(setup_a, [0.0, 0.0, 0.0], 1.0) == 1.0
        assert gauge_regularized(setup_b, [0.0, 0.0, 0.0], 0.5) == 0.25**4

    def test_monotone_limit(self, setup_a):
        P = [1.0, 1.0, 2.0]
        h = gauge(setup_a, P).h
        values = [gauge_regularized(setup_a, P, eps) for eps in (1.0, 0.5, 0.1, 1e-4)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= h for v in values)
        assert values[-1] == pytest.approx(h, rel=1e-6)

    def test_rejects_bad_eps(self, setup_a):
        with pytest.raises(DomainError):
            gauge_regularized(setup_a, [1.0, 0.0, 0.0], 0.0)
        with pytest.raises(DomainError):
            gauge_regularized(setup_a, [1.0, 0.0, 0.0], -1.0)


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

    def test_identity_case(self):
        # alpha = 1 with Q sigma_p = 1 gives C1 = 1 for any p
        for p, Q in ((2.0, 4.0), (3.0, 6.0)):
            assert c1_constant(1.0, Q, 1.0 / Q, p) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_bad_sigma(self, setup_a):
        with pytest.raises(DomainError):
            normalization(setup_a, 2.0, 0.0)
        with pytest.raises(DomainError):
            c2_constant(4.0, -1.0)
