import numpy as np
import pytest
from helpers import pairing_quadrature, sigma_p_quadrature

from sublap import (
    CutoffBump,
    DomainError,
    GaugePsi,
    SpaceParams,
    dirac_limit,
    normalization,
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


def pairing(params, p, r, seed, samples=SAMPLES, R0=1.0):
    """dirac_limit at the one radius r against the bump of radius R0."""
    (est,) = dirac_limit(params, p, CutoffBump(params, R0), [r], samples, seed)
    return est


def minus_bump(params, r):
    """-phi(h = r^(4k)) of the bump of radius 1: the pairing at r."""
    return -float(CutoffBump(params, 1.0).values_of_h(r ** (4 * params.k)))


class TestWeakPairing:
    """The pairing at one radius of `dirac_limit`: by integration by parts
    on the annulus it is exactly -phi(h = r^(4k))."""

    def test_matches_quadrature_oracle(self, setup_a):
        # u the unit space's profile, normalized by the quadrature sigma_p
        scale = normalization(setup_a.unit(), 2.0, sigma_p_quadrature(1, 1.0, 1.0, 2.0))
        oracle = pairing_quadrature(1, 1.0, 1.0, 2.0, -2.0, scale, 1.0, 0.3, 1.0)
        assert oracle == pytest.approx(minus_bump(setup_a, 0.3), rel=1e-6)
        est = pairing(setup_a, 2.0, 0.3, 21)
        assert abs(est.mean - oracle) <= 4.0 * est.stderr

    def test_small_radius_identity(self, setup_a):
        est = pairing(setup_a, 2.0, 0.1, 22)
        assert abs(est.mean - minus_bump(setup_a, 0.1)) <= 4.0 * est.stderr

    def test_normalized_profile_reaches_minus_one(self, setup_a):
        est = pairing(setup_a, 2.0, 0.05, 23)
        assert abs(est.mean - (-1.0)) <= 4.0 * est.stderr + 1e-3

    def test_validation(self, setup_a):
        # the radius must sit inside the bump's support, and phi be a bump
        with pytest.raises(DomainError, match="inside the bump support"):
            pairing(setup_a, 2.0, 1.0, 1, R0=0.5)
        with pytest.raises(DomainError, match="must be a CutoffBump"):
            dirac_limit(setup_a, 2.0, GaugePsi(setup_a), [0.1], SAMPLES, 1)

    def test_slope_outside_float_range(self, setup_a):
        # p = 1.01: alpha = -299, and psi^(alpha-1) overflows below psi = 0.094
        with pytest.raises(DomainError, match="not a nonzero finite float"):
            pairing(setup_a, 1.01, 0.05, 1)
        assert np.isfinite(pairing(setup_a, 1.01, 0.1, 1, samples=10**4).mean)

    def test_integrand_stable_as_radius_shrinks(self, setup_a):
        # local integrability: each estimate stays at -phi(h = r^(4k)), and
        # its stderr does not grow, as r shrinks
        radii = (0.4, 0.2, 0.1, 0.05)
        estimates = dirac_limit(setup_a, 2.0, CutoffBump(setup_a, 1.0), radii, SAMPLES, 41)
        for r, est in zip(radii, estimates):
            assert abs(est.mean - minus_bump(setup_a, r)) <= 4.0 * est.stderr
        assert max(est.stderr for est in estimates) <= 2.0 * estimates[0].stderr


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
        monkeypatch.setattr(montecarlo, "_mc_over_box", lambda *args, **run: draws.append(args))
        bump = CutoffBump(setup_a, 1.0)
        # p = 1.01: the slope at the smallest radius, 0.05, leaves the float
        # range; p = 1.003: the normalization constant does
        for p in (1.01, 1.003):
            with pytest.raises(DomainError, match="not a nonzero finite float"):
                dirac_limit(setup_a, p, bump, [0.2, 0.1, 0.05], SAMPLES, 3)
        assert draws == []

    def test_runs_in_the_unit_space(self):
        # only n, k, p and r / R0 count: setup D (c = -2, an offset x0) gives
        # its unit space's estimates bit for bit, and so do R0 and the radii
        # scaled by 4, a power of two, which keeps each r / R0 exact
        params = SpaceParams(3, 1.5, -2.0, [0.3, -0.2, 0.1, 0.5, -0.4, 0.2, 0.7])

        def run(space, R0):
            radii = [R0 * r for r in (0.2, 0.1, 0.05)]
            return dirac_limit(space, 3.0, CutoffBump(space, R0), radii, 10**4, 5)

        estimates = run(params, 1.0)
        assert estimates == run(params.unit(), 1.0) == run(params, 4.0)

    def test_radii_validation(self, setup_a):
        bump = CutoffBump(setup_a, 1.0)
        with pytest.raises(DomainError):
            dirac_limit(setup_a, 2.0, bump, [0.1, 0.2], SAMPLES, 1)
        with pytest.raises(DomainError):
            dirac_limit(setup_a, 2.0, bump, [1.5, 0.5, 0.1], SAMPLES, 1)
