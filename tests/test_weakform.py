import numpy as np
import pytest
from helpers import pairing_quadrature, sigma_p_quadrature

from sublap import (
    CutoffBump,
    DomainError,
    GaugePsi,
    dirac_limit,
    sample_points,
    weak_pairing,
)

SAMPLES = 2 * 10**5


class TestBumpField:
    def test_center_value_and_support(self, setup_a, rng):
        bump = CutoffBump(setup_a, 1.0)
        assert bump.value(setup_a.x0) == 1.0
        # outside the support everything vanishes identically
        for _ in range(20):
            P = setup_a.x0 + rng.uniform(-3, 3, 3)
            if GaugePsi(setup_a).values(P[None])[0] >= 1.0:
                jet = bump.jet(P)
                assert jet.value == 0.0
                assert not jet.grad.any()

    def test_smooth_across_support_boundary(self, setup_a):
        bump = CutoffBump(setup_a, 1.0)
        # approaching psi = 1 from inside, value and derivatives drop to zero
        vals = []
        for x1 in (0.99, 0.999, 0.9999):
            P = [x1, 0.0, 0.0]
            jet = bump.jet(P)
            vals.append(abs(jet.value) + np.abs(jet.grad).max())
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-300


class TestWeakPairing:
    def test_disjoint_support_is_exactly_zero(self, setup_a):
        bump = CutoffBump(setup_a, 0.3)
        est = weak_pairing(setup_a, 2.0, 1.0, bump, 0.5, 1.0, SAMPLES, 4)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_matches_quadrature_oracle(self, setup_a):
        bump = CutoffBump(setup_a, 1.0)
        oracle = pairing_quadrature(1, 1.0, 1.0, 2.0, -2.0, 1.0, 1.0, 0.3, 1.0)
        est = weak_pairing(setup_a, 2.0, 1.0, bump, 0.3, 1.0, SAMPLES, 21)
        assert abs(est.mean - oracle) <= 4.0 * est.stderr

    def test_small_radius_identity(self, setup_a):
        # pairing(r) = -|alpha|^(p-2) alpha (Q sigma_p) g(r^(4k)) for the bump
        p, alpha = 2.0, -2.0
        bump = CutoffBump(setup_a, 1.0)
        sig = sigma_p_quadrature(1, 1.0, 1.0, p)
        r = 0.1
        g = np.exp(-(r**4) / (1.0 - r**4))
        target = -abs(alpha) ** (p - 2) * alpha * 4.0 * sig * g
        est = weak_pairing(setup_a, p, 1.0, bump, r, 1.0, SAMPLES, 22)
        assert target == pytest.approx(2.0 * 4.0 * sig * g)  # positive for alpha = -2
        assert abs(est.mean - target) <= 4.0 * est.stderr

    def test_normalized_profile_reaches_minus_one(self, setup_a):
        sig = sigma_p_quadrature(1, 1.0, 1.0, 2.0)
        from sublap import normalization

        c1 = normalization(setup_a, 2.0, sig)
        bump = CutoffBump(setup_a, 1.0)
        est = weak_pairing(setup_a, 2.0, c1, bump, 0.05, 1.0, SAMPLES, 23)
        assert abs(est.mean - (-1.0)) <= 4.0 * est.stderr + 1e-3

    def test_validation(self, setup_a):
        bump = CutoffBump(setup_a, 1.0)
        with pytest.raises(DomainError):
            weak_pairing(setup_a, 2.0, 1.0, bump, 1.0, 0.5, SAMPLES, 1)
        with pytest.raises(DomainError):
            weak_pairing(setup_a, 2.0, 1.0, GaugePsi(setup_a), 0.1, 1.0, SAMPLES, 1)

    def test_slope_outside_float_range(self, setup_a):
        # p = 1.01: alpha = -299, and psi^(alpha-1) overflows below psi = 0.094
        bump = CutoffBump(setup_a, 1.0)
        with pytest.raises(DomainError, match="not a nonzero finite float"):
            weak_pairing(setup_a, 1.01, 1.0, bump, 0.05, 1.0, SAMPLES, 1)
        est = weak_pairing(setup_a, 1.01, 1.0, bump, 0.1, 1.0, 10**4, 1)
        assert np.isfinite(est.mean)

    def test_integrand_stable_as_radius_shrinks(self, setup_a):
        # local integrability: the estimate stabilizes instead of diverging
        bump = CutoffBump(setup_a, 1.0)
        means = [
            abs(weak_pairing(setup_a, 2.0, 1.0, bump, r, 1.0, SAMPLES, 41).mean)
            for r in (0.4, 0.2, 0.1, 0.05)
        ]
        assert max(means) <= 1.2 * means[-1] + 1.0


class TestDiracLimit:
    @staticmethod
    def assert_exact_per_radius(params, p):
        # integration by parts on the annulus: the pairing at r is exactly
        # -phi(h = r^(4k)), which tends to -phi(x0) = -1 as r shrinks
        bump, radii = CutoffBump(params, 1.0), [0.2, 0.1, 0.05]
        estimates = dirac_limit(params, p, bump, radii, 4 * 10**5, 33)
        assert len(estimates) == len(radii)
        exact = [-float(bump.values_of_h(r ** (4 * params.k))) for r in radii]
        assert exact[-1] == pytest.approx(-1.0, abs=1e-4)
        for est, value in zip(estimates, exact):
            assert abs(est.mean - value) <= 0.015

    def test_p2_limit(self, setup_a):
        self.assert_exact_per_radius(setup_a, 2.0)

    def test_log_case_limit(self, setup_a):
        self.assert_exact_per_radius(setup_a, 4.0)

    def test_p_near_one_raises_before_any_draw(self, setup_a, monkeypatch):
        import sublap.montecarlo as montecarlo

        draws = []
        monkeypatch.setattr(montecarlo, "_mc_over_box", lambda *args: draws.append(args))
        bump = CutoffBump(setup_a, 1.0)
        # p = 1.01: the slope at the smallest radius, 0.05, leaves the float
        # range; p = 1.003: the normalization constant does
        for p in (1.01, 1.003):
            with pytest.raises(DomainError, match="not a nonzero finite float"):
                dirac_limit(setup_a, p, bump, [0.2, 0.1, 0.05], SAMPLES, 3)
        assert draws == []

    def test_radii_validation(self, setup_a):
        bump = CutoffBump(setup_a, 1.0)
        with pytest.raises(DomainError):
            dirac_limit(setup_a, 2.0, bump, [0.1, 0.2], SAMPLES, 1)
        with pytest.raises(DomainError):
            dirac_limit(setup_a, 2.0, bump, [1.5, 0.5, 0.1], SAMPLES, 1)
