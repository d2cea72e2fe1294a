import numpy as np
import pytest
from helpers import reference_bump, sigma_p_quadrature

from sublap import (
    ConfigurationError,
    Constant,
    CutoffBump,
    DomainError,
    GaugeH,
    SpaceParams,
    ball_measure,
    closed_form_capacity,
    density_limit,
    mc_energy,
    sample_points,
    sigma_p,
    sigma_p_exact,
    weak_pairing,
)
from sublap.fields import gauge_parts, grad_psi_norm_pow
from sublap.montecarlo import STREAM_BALL, Band, _mc_over_box

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

    def test_seeds_do_not_alias_modulo_two_to_the_64(self, setup_a):
        # SeedSequence takes the seed whole: 1 and 2^64 + 1 are two streams
        one = sigma_p(setup_a, 2.0, 10**4, 1)
        assert one.mean != sigma_p(setup_a, 2.0, 10**4, 2**64 + 1).mean

    def test_negative_seed_raises(self, setup_a):
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            sigma_p(setup_a, 2.0, 10**4, -1)
        with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
            sample_points(setup_a, 5, -1)


class TestSigmaP:
    def test_two_seeds_agree(self, setup_a):
        a = sigma_p(setup_a, 2.0, SAMPLES, 101)
        b = sigma_p(setup_a, 2.0, SAMPLES, 202)
        assert abs(a.mean - b.mean) <= 3.0 * np.hypot(a.stderr, b.stderr)

    def test_stderr_monte_carlo_rate(self, setup_a):
        # 100 times the points: plain MC's stderr falls 10-fold, the
        # lattice's at least as fast (about 24-fold here: N grows from 2^8
        # to 2^14), and no stderr of a discontinuous band falls like 1/n
        small = sigma_p(setup_a, 2.0, 10**4, 11)
        large = sigma_p(setup_a, 2.0, 10**6, 11)
        ratio = small.stderr / large.stderr
        assert 7.0 <= ratio <= 100.0

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_finite_estimate_raises(self, setup_a, threads):
        # a weight past the floats on some rows: an inf or NaN replicate
        # mean, which the kernel rejects after the draws, with no
        # RuntimeWarning.  (The p-power near the axis, which did this for
        # sigma_p at n = 3, k = 0.1, c = -1e10, p = 6.2, now stops at the
        # infinite-variance guard.)  SAMPLES fill three shards, so at two
        # threads a started worker sees them too
        band = Band(p=2.0, weight=lambda h, _: np.where(h < 0.5, np.inf, 1.0))
        with pytest.raises(DomainError, match="MC estimate leaves the float range"):
            _mc_over_box(setup_a, band, samples=SAMPLES, seed=7, stream=(1, 0), threads=threads)


class TestBallMeasure:
    def test_ahlfors_ratio(self, setup_a, setup_b):
        for params, target in ((setup_a, 16.0), (setup_b, 64.0)):
            one = ball_measure(params, 2.0, 1.0, SAMPLES, 3, stream=(STREAM_BALL, 0))
            two = ball_measure(params, 2.0, 2.0, SAMPLES, 3, stream=(STREAM_BALL, 1))
            ratio = two.mean / one.mean
            sig = ratio * np.hypot(one.stderr / one.mean, two.stderr / two.mean)
            assert abs(ratio - target) <= 3.0 * sig

    def test_divergent_for_small_k_and_large_p(self):
        # the integral diverges for k < 1/2 and p >= 2n/(1-2k), and its
        # square, the MC variance, for p >= n/(1-2k)
        params = SpaceParams(1, 0.4, 1.0)  # bounds 2 / 0.2 = 10 and 1 / 0.2 = 5
        for p in (10.0, 12.0):
            with pytest.raises(DomainError, match="diverges"):
                ball_measure(params, p, 1.0, SAMPLES, 3)
        for p in (5.0, 9.5):
            with pytest.raises(DomainError, match="infinite variance"):
                ball_measure(params, p, 1.0, SAMPLES, 3)
        assert np.isfinite(ball_measure(params, 4.5, 1.0, 10**4, 3).mean)
        # k = 1/2 keeps |grad_0 psi| bounded by |c|: finite for every p
        assert np.isfinite(sigma_p(SpaceParams(1, 0.5, 1.0), 12.0, 10**4, 3).mean)

    def test_vanishing_radius(self, setup_a):
        est = ball_measure(setup_a, 2.0, 1e-3, SAMPLES, 9)
        # V(B_R) = sigma_2 R^4 ~ 3e-12
        assert abs(est.mean) < 1e-10

    def test_integrand_bounded(self, all_setups, rng):
        # |grad_0 psi|^p <= |c|^(p/(2k)) everywhere (k >= 1/2): at most 1 on
        # the unit box [-1, 1]^(2n+1) that the kernel samples
        for params in all_setups:
            unit = params.unit()
            pts = rng.uniform(-1, 1, (5000, params.dim))
            sigma, _, h = gauge_parts(unit, pts)
            for p in (2.0, 3.0):
                assert grad_psi_norm_pow(unit, sigma, h, p).max() <= 1.0 + 1e-12

    def test_acceptance_ratio_scale_invariant(self, setup_a):
        lo = ball_measure(setup_a, 2.0, 0.5, SAMPLES, 23, stream=(STREAM_BALL, 0))
        hi = ball_measure(setup_a, 2.0, 2.0, SAMPLES, 23, stream=(STREAM_BALL, 1))
        f_lo, f_hi = lo.accept_fraction, hi.accept_fraction
        sig = np.sqrt(
            f_lo * (1 - f_lo) / lo.samples + f_hi * (1 - f_hi) / hi.samples
        )
        assert abs(f_lo - f_hi) <= 3.0 * sig

    def test_bounding_box_contains_ball(self, all_setups, rng):
        # the unit ball {h < 1} of c = 1 about 0 lies in the kernel's box
        # [-1, 1]^(2n+1): every coordinate of a point of it is below 1, and
        # the box's points just outside reach into it
        for params in all_setups:
            unit = params.unit()
            pts = rng.uniform(-1.5, 1.5, (20000, params.dim))
            inside = gauge_parts(unit, pts)[2] < 1.0
            assert inside.any() and np.all(np.abs(pts[inside]) < 1.0)
            # and no smaller box does: (1 - 1e-9) e_j lies in the ball for every j
            assert np.all(gauge_parts(unit, (1.0 - 1e-9) * np.eye(params.dim))[2] < 1.0)


def _annulus_estimate(name, params, p):
    """One annulus estimator at (params, p) on 1e4 samples, by name; "shell"
    is the average over the sphere {psi = 0.5}, which density_limit takes
    as a weighted ball integral."""
    bump = CutoffBump(params, 1.0)
    if name == "shell":
        return density_limit(params, p, bump, [0.5], 10**4, 3)[0]
    if name == "pairing":
        return weak_pairing(params, p, 1.0, bump, 0.2, 1.0, 10**4, 3)
    return mc_energy(params, p, 0.5, 1.0, 10**4, 3)


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


# n = 1, k = 3: 4k = 12 > Q = 8, so the band top R^(4k) leaves the normal
# floats first.  At R = 2e-38, R^Q = 2.6e-302 is normal but R^12 rounds to
# 0.  The ball and the annulus energy are the unit runs times R^Q and
# R^(Q-p), which are normal; the density's bump and the pairing's dilated
# bump need R^(4k) or its reciprocal, and raise before any draw.
TINY_BAND = SpaceParams(1, 3.0, 1.0)
TINY_BAND_BUMP = CutoffBump(TINY_BAND, 1.0)


@pytest.mark.parametrize("name", ["ball", "energy"])
def test_tiny_band_matches_its_closed_form(name):
    if name == "ball":
        est = ball_measure(TINY_BAND, 2.0, 2e-38, 10**4, 1)
        exact = sigma_p_exact(TINY_BAND, 2.0) * 2e-38**TINY_BAND.Q
    else:
        est = mc_energy(TINY_BAND, 2.0, 1e-38, 2e-38, 10**4, 1)
        exact = closed_form_capacity(TINY_BAND, 2.0, 1e-38, 2e-38).value
    assert abs(est.mean - exact) <= 4.0 * est.stderr


TINY_BAND_ERRORS = {
    "density": (lambda: density_limit(TINY_BAND, 2.0, TINY_BAND_BUMP, [2e-38, 1e-38], 10**4, 1),
                r"R\^\(4k\) at R = 2e-38 leaves the float range"),
    # the unit annulus' bump of radius 1/R = 5e37: B = 5e37^12 is not a float
    "pairing": (lambda: weak_pairing(TINY_BAND, 2.0, 1.0, TINY_BAND_BUMP, 1e-38, 2e-38, 10**4, 1),
                r"support radius 5e\+37 gives the h bound R0\^\(4k\) = inf"),
}


@pytest.mark.parametrize("name", sorted(TINY_BAND_ERRORS))
def test_band_top_below_normal_floats_raises_before_any_draw(name, monkeypatch):
    import sublap.montecarlo as mc

    calls = []
    monkeypatch.setattr(mc, "_mc_over_box", lambda *args, **kwargs: calls.append(args))
    run, message = TINY_BAND_ERRORS[name]
    with pytest.raises(DomainError, match=message):
        run()
    assert calls == []


class TestShellIntegral:
    """The integral over the sphere {psi = R}: Q sigma_p R^(Q-1) times the
    average that density_limit estimates as one ball integral."""

    def test_zero_field(self, setup_a):
        (est,) = density_limit(setup_a, 2.0, Constant(0.0, 3), [1.0], SAMPLES, 2)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_delta_validation(self, setup_a):
        # the ball of each radius needs R > 0
        for R in (0.0, -1.0):
            with pytest.raises(DomainError, match="strictly decreasing and positive"):
                density_limit(setup_a, 2.0, Constant(1.0, 3), [R], SAMPLES, 2)

    def test_surface_ratio(self, setup_a):
        # S(dB_2)/S(dB_1) = 2^(Q-1) = 8: the averages of phi = 1 are both 1
        two, one = density_limit(setup_a, 2.0, Constant(1.0, 3), [2.0, 1.0], SAMPLES, 4)
        ratio = 8.0 * two.mean / one.mean
        sig = ratio * np.hypot(one.stderr / one.mean, two.stderr / two.mean)
        assert abs(ratio - 8.0) <= 3.0 * sig

    def test_matches_radial_derivative_of_ball_measure(self, all_setups):
        # the surface measure at R is Q sigma_p R^(Q-1), the R-derivative of
        # V(B_R), with sigma_p from the quadrature oracle
        for params in all_setups:
            sig = sigma_p_quadrature(params.n, params.k, params.c, 2.0)
            one = Constant(1.0, params.dim)
            radii = [2.0, 1.0]
            for R, est in zip(radii, density_limit(params, 2.0, one, radii, SAMPLES, 6)):
                surface = params.Q * sigma_p_exact(params, 2.0) * R ** (params.Q - 1.0)
                target = params.Q * sig * R ** (params.Q - 1.0)
                assert abs(surface * est.mean - target) <= 4.0 * surface * est.stderr

    def test_bump_matches_quadrature_oracle(self, setup_a):
        # the bump is f(h) = exp(-h / (B - h)) on the sphere: its surface
        # integral at R is Q sigma_p R^(Q-1) f(R^4)
        bump = CutoffBump(setup_a, 1.5)
        sig = sigma_p_quadrature(1, 1.0, 1.0, 2.0)
        (est,) = density_limit(setup_a, 2.0, bump, [1.0], SAMPLES, 13)
        surface = 4.0 * sigma_p_exact(setup_a, 2.0)
        target = 4.0 * sig * float(reference_bump(bump, np.array([1.0]))[0])
        assert abs(surface * est.mean - target) <= 4.0 * surface * est.stderr


class TestDensityLimit:
    def test_constant_function(self, setup_a):
        rows = density_limit(setup_a, 2.0, Constant(1.0, 3), [1.0, 0.5], SAMPLES, 8)
        assert len(rows) == 2
        for row in rows:
            assert abs(row.mean - 1.0) <= 3.0 * row.stderr + 0.01

    def test_bump_converges_to_center_value(self, setup_a):
        # each radius against its exact average phi(h = R^4), which tends to
        # phi(x0) = 1 as R shrinks
        bump = CutoffBump(setup_a, 1.5)
        radii = [0.4, 0.2, 0.1]
        rows = density_limit(setup_a, 2.0, bump, radii, SAMPLES, 17)
        exact = [float(bump.values_of_h(R**4)) for R in radii]
        assert exact == sorted(exact) and exact[-1] == pytest.approx(1.0, abs=1e-4)
        for row, value in zip(rows, exact):
            assert abs(row.mean - value) <= 0.02

    def test_one_kernel_run_per_radius(self, setup_a, monkeypatch):
        import sublap.montecarlo as mc

        calls = []
        kernel = mc._mc_over_box

        def counting(params, band, **run):
            calls.append((run["stream"], band.lo, band.hi))
            return kernel(params, band, **run)

        monkeypatch.setattr(mc, "_mc_over_box", counting)
        radii = [0.4, 0.2, 0.1]
        density_limit(setup_a, 2.0, CutoffBump(setup_a, 1.5), radii, 10**4, 17)
        assert len(calls) == len(radii)
        assert len({c[0] for c in calls}) == len(calls)
        # each radius: one run over the unit ball, whatever R
        assert all(call[1:] == (None, 1.0) for call in calls)

    @pytest.mark.parametrize("radii", [[0.1, 0.2], [0.4, 0.4], [0.4, -0.2], []])
    def test_radii_must_decrease(self, setup_a, radii):
        with pytest.raises(DomainError, match="strictly decreasing"):
            density_limit(setup_a, 2.0, Constant(1.0, 3), radii, 10**4, 8)

    def test_radii_on_their_own_streams(self, setup_a):
        # every radius runs the unit ball: radii sharing a stream would
        # accept the same rows and, for phi = 1, give the same density
        rows = density_limit(setup_a, 2.0, Constant(1.0, 3), [0.4, 0.2, 0.1], SAMPLES, 11)
        assert len({r.accepted for r in rows}) == 3
        means = [r.mean for r in rows]
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            assert abs(means[a] - means[b]) > 1e-9 * abs(means[a])

    def test_bit_identical_across_thread_counts(self, setup_c):
        # 150001 samples: two full shards and a partial last one
        bump = CutoffBump(setup_c, 1.0)
        one = density_limit(setup_c, 2.0, bump, [0.4, 0.2, 0.1], 150001, 5, threads=1)
        two = density_limit(setup_c, 2.0, bump, [0.4, 0.2, 0.1], 150001, 5, threads=2)
        assert one == two

    def test_field_vanishing_at_center(self, setup_a):
        # phi = h has phi(x0) = 0; entries scale like R^(4k)
        rows = density_limit(setup_a, 2.0, GaugeH(setup_a), [0.4, 0.1], SAMPLES, 19)
        assert abs(rows[-1].mean) <= abs(rows[0].mean)
        assert abs(rows[-1].mean) <= 3.0 * rows[-1].stderr + 1e-3


class TestSamplePoints:
    def test_count_must_be_positive(self, setup_a):
        with pytest.raises(DomainError, match="at least one point"):
            sample_points(setup_a, 0, 3)

    def test_deterministic_and_nonsingular(self, all_setups):
        for params in all_setups:
            a = sample_points(params, 50, 3)
            b = sample_points(params, 50, 3)
            assert np.array_equal(a, b)
            sigma, _, h = gauge_parts(params, a)
            assert np.all(h ** (1 / (4 * params.k)) >= 0.05)
            assert np.all(sigma >= 1e-10)
