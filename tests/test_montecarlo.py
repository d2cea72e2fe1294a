import numpy as np
import pytest
from helpers import shell_bump_quadrature, sigma_p_quadrature

from sublap import (
    Constant,
    CutoffBump,
    DomainError,
    FundamentalProfile,
    GaugeH,
    MCEstimate,
    SpaceParams,
    ball_measure,
    ball_spec,
    density_limit,
    mc_energy,
    sample_points,
    shell_integral,
    shell_integral_extrapolated,
    sigma_p,
    weak_pairing,
)
from sublap.fields import gauge_parts
from sublap.montecarlo import STREAM_BALL, grad_psi_norm_sq

SAMPLES = 2 * 10**5


class TestDeterminism:
    def test_bit_identical_across_thread_counts(self, setup_a):
        e1 = sigma_p(setup_a, 2.0, SAMPLES, 42, threads=1)
        e4 = sigma_p(setup_a, 2.0, SAMPLES, 42, threads=4)
        assert e1.mean == e4.mean
        assert e1.stderr == e4.stderr
        assert e1.accepted == e4.accepted

    def test_bit_identical_on_repeat(self, setup_b):
        e1 = ball_measure(setup_b, 3.0, 1.5, SAMPLES, 7)
        e2 = ball_measure(setup_b, 3.0, 1.5, SAMPLES, 7)
        assert e1 == e2

    def test_env_var_thread_override(self, setup_a, monkeypatch):
        monkeypatch.setenv("SUBLAP_THREADS", "2")
        e = sigma_p(setup_a, 2.0, SAMPLES, 42)
        assert e.mean == sigma_p(setup_a, 2.0, SAMPLES, 42, threads=1).mean


class TestSigmaP:
    def test_two_seeds_agree(self, setup_a):
        a = sigma_p(setup_a, 2.0, SAMPLES, 101)
        b = sigma_p(setup_a, 2.0, SAMPLES, 202)
        assert abs(a.mean - b.mean) <= 3.0 * np.hypot(a.stderr, b.stderr)

    def test_stderr_monte_carlo_rate(self, setup_a):
        small = sigma_p(setup_a, 2.0, 10**4, 11)
        large = sigma_p(setup_a, 2.0, 10**6, 11)
        ratio = small.stderr / large.stderr
        assert 7.0 <= ratio <= 14.0

    def test_positive_and_finite(self, setup_b):
        est = sigma_p(setup_b, 2.0, SAMPLES, 5)
        assert 0 < est.mean < np.inf
        assert est.stderr > 0

    @pytest.mark.parametrize(
        "setup,p",
        [("A", 2.0), ("A", 3.0), ("B", 2.0), ("B", 3.0), ("C", 2.0)],
    )
    def test_matches_quadrature_oracle(self, setup, p, setup_a, setup_b, setup_c):
        params = {"A": setup_a, "B": setup_b, "C": setup_c}[setup]
        oracle = sigma_p_quadrature(params.n, params.k, params.c, p)
        est = sigma_p(params, p, SAMPLES, 31)
        assert abs(est.mean - oracle) <= 4.0 * est.stderr

    def test_rejects_tiny_sample_counts(self, setup_a):
        with pytest.raises(DomainError):
            sigma_p(setup_a, 2.0, 10**3, 1)


class TestBallMeasure:
    def test_ahlfors_ratio(self, setup_a, setup_b):
        for params, target in ((setup_a, 16.0), (setup_b, 64.0)):
            one = ball_measure(params, 2.0, 1.0, SAMPLES, 3, stream=STREAM_BALL)
            two = ball_measure(params, 2.0, 2.0, SAMPLES, 3, stream=STREAM_BALL + 1)
            ratio = two.mean / one.mean
            sig = ratio * np.hypot(one.stderr / one.mean, two.stderr / two.mean)
            assert abs(ratio - target) <= 3.0 * sig

    def test_divergent_for_small_k_and_large_p(self):
        # the integral diverges for k < 1/2 and p >= 2n/(1-2k)
        params = SpaceParams(1, 0.4, 1.0)  # bound 2 / 0.2 = 10
        for p in (10.0, 12.0):
            with pytest.raises(DomainError, match="diverges"):
                ball_measure(params, p, 1.0, SAMPLES, 3)
        assert np.isfinite(ball_measure(params, 9.5, 1.0, 10**4, 3).mean)
        # k = 1/2 keeps |grad_0 psi| bounded by |c|: finite for every p
        assert np.isfinite(sigma_p(SpaceParams(1, 0.5, 1.0), 12.0, 10**4, 3).mean)

    def test_vanishing_radius(self, setup_a):
        est = ball_measure(setup_a, 2.0, 1e-3, SAMPLES, 9)
        # V(B_R) = sigma_2 R^4 ~ 3e-12
        assert abs(est.mean) < 1e-10

    def test_integrand_bounded(self, all_setups, rng):
        # |grad_0 psi|^p <= |c|^(p/(2k)) everywhere (k >= 1/2)
        for params in all_setups:
            spec = ball_spec(params, 2.0)
            pts = params.x0 + rng.uniform(-1, 1, (5000, params.dim)) * spec.half_widths
            sigma, _, h = gauge_parts(params, pts)
            for p in (2.0, 3.0):
                vals = grad_psi_norm_sq(params, sigma, h) ** (p / 2.0)
                bound = abs(params.c) ** (p / (2 * params.k))
                assert vals.max() <= bound + 1e-12

    def test_acceptance_ratio_scale_invariant(self, setup_a):
        lo = ball_measure(setup_a, 2.0, 0.5, SAMPLES, 23, stream=STREAM_BALL)
        hi = ball_measure(setup_a, 2.0, 2.0, SAMPLES, 23, stream=STREAM_BALL + 1)
        f_lo, f_hi = lo.accept_fraction, hi.accept_fraction
        sig = np.sqrt(
            f_lo * (1 - f_lo) / lo.samples + f_hi * (1 - f_hi) / hi.samples
        )
        assert abs(f_lo - f_hi) <= 3.0 * sig

    def test_bounding_box_contains_ball(self, all_setups, rng):
        for params in all_setups:
            spec = ball_spec(params, 1.3)
            pts = params.x0 + rng.uniform(-1, 1, (2000, params.dim)) * spec.half_widths
            _, _, h = gauge_parts(params, pts)
            inside = h < 1.3 ** (4 * params.k)
            # no point of the ball can sit outside the box, so the box edge
            # must bound every inside point's coordinates
            sub = np.abs(pts[inside] - params.x0)
            assert np.all(sub <= spec.half_widths + 1e-12)


def _annulus_estimate(name, params, p):
    """One annulus estimator at (params, p) on 1e4 samples, by name."""
    bump = CutoffBump(params, 1.0)
    if name == "shell":
        return shell_integral(params, p, 0.5, 0.05, bump, 10**4, 3)
    if name == "pairing":
        return weak_pairing(params, p, FundamentalProfile(params, p), bump, 0.2, 1.0, 10**4, 3)
    sigma = MCEstimate(mean=1.0, stderr=0.0, samples=10**4, seed=3)
    return mc_energy(params, p, 0.5, 1.0, 10**4, 3, sigma=sigma)


class TestDivergenceGuard:
    """|grad_0 psi|^p diverges on the axis for k < 1/2 and p >= 2n/(1-2k),
    and the axis crosses every annulus, not only every ball."""

    @pytest.mark.parametrize("name", ["shell", "pairing", "energy"])
    def test_annulus_estimators_raise(self, name):
        params = SpaceParams(1, 0.4, 1.0)  # bound 2 / 0.2 = 10
        for p in (10.0, 12.0):
            with pytest.raises(DomainError, match="diverges"):
                _annulus_estimate(name, params, p)

    @pytest.mark.parametrize("name", ["shell", "pairing", "energy"])
    def test_annulus_estimators_run_at_k_one_half(self, name):
        est = _annulus_estimate(name, SpaceParams(1, 0.5, 1.0), 12.0)
        assert np.isfinite(est.mean) and est.mean != 0.0


class TestShellIntegral:
    def test_zero_field(self, setup_a):
        est = shell_integral(setup_a, 2.0, 1.0, 0.05, Constant(0.0, 3), SAMPLES, 2)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_delta_validation(self, setup_a):
        with pytest.raises(DomainError):
            shell_integral(setup_a, 2.0, 1.0, 0.6, Constant(1.0, 3), SAMPLES, 2)
        with pytest.raises(DomainError):
            shell_integral(setup_a, 2.0, 1.0, 0.0, Constant(1.0, 3), SAMPLES, 2)

    def test_surface_ratio(self, setup_a):
        # S(dB_2)/S(dB_1) = 2^(Q-1) = 8 after width extrapolation
        one = shell_integral_extrapolated(setup_a, 2.0, 1.0, Constant(1.0, 3), SAMPLES, 4)
        two = shell_integral_extrapolated(setup_a, 2.0, 2.0, Constant(1.0, 3), SAMPLES, 5)
        ratio = two.mean / one.mean
        sig = ratio * np.hypot(one.stderr / one.mean, two.stderr / two.mean)
        assert abs(ratio - 8.0) <= 3.0 * sig

    def test_matches_radial_derivative_of_ball_measure(self, setup_a):
        # extrapolated shell at R equals Q sigma_p R^(Q-1)
        sig = sigma_p_quadrature(1, 1.0, 1.0, 2.0)
        for R in (1.0, 2.0):
            est = shell_integral_extrapolated(setup_a, 2.0, R, Constant(1.0, 3), SAMPLES, 6)
            target = 4.0 * sig * R**3
            assert abs(est.mean - target) <= 4.0 * est.stderr

    def test_bump_matches_quadrature_oracle(self, setup_a):
        bump = CutoffBump(setup_a, 1.5)
        sig = sigma_p_quadrature(1, 1.0, 1.0, 2.0)
        est = shell_integral(setup_a, 2.0, 1.0, 0.05, bump, SAMPLES, 13)
        target = shell_bump_quadrature(4.0, 1.0, 1.5**4, sig, 1.0, 0.05)
        assert abs(est.mean - target) <= 4.0 * est.stderr


class TestDensityLimit:
    def test_constant_function(self, setup_a):
        rows = density_limit(setup_a, 2.0, Constant(1.0, 3), [1.0, 0.5], SAMPLES, 8)
        for row in rows:
            assert abs(row.mean - 1.0) <= 3.0 * row.stderr + 0.01

    def test_bump_converges_to_center_value(self, setup_a):
        from sublap.extrapolation import geometric_limit

        bump = CutoffBump(setup_a, 1.5)
        radii = [0.4, 0.2, 0.1]
        rows = density_limit(setup_a, 2.0, bump, radii, SAMPLES, 17)
        extra = geometric_limit(radii, [r.mean for r in rows], [r.stderr for r in rows])
        assert abs(extra.limit - 1.0) <= 0.02

    def test_field_vanishing_at_center(self, setup_a):
        # phi = h has phi(x0) = 0; entries scale like R^(4k)
        rows = density_limit(setup_a, 2.0, GaugeH(setup_a), [0.4, 0.1], SAMPLES, 19)
        assert abs(rows[-1].mean) <= abs(rows[0].mean)
        assert abs(rows[-1].mean) <= 3.0 * rows[-1].stderr + 1e-3


class TestSamplePoints:
    def test_deterministic_and_nonsingular(self, all_setups):
        for params in all_setups:
            a = sample_points(params, 50, 3)
            b = sample_points(params, 50, 3)
            assert np.array_equal(a, b)
            sigma, _, h = gauge_parts(params, a)
            assert np.all(h ** (1 / (4 * params.k)) >= 0.05)
            assert np.all(sigma >= 1e-10)
