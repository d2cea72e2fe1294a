"""Monte Carlo against exact values: sigma_p's closed form, every estimate
whose integrand depends on the point only through h, and the sphere
average of a field that does not.

An h-only integral over a band {lo < psi < hi} is a 1-D coarea integral
(`helpers.coarea_quadrature`), and the sphere average of a function of h
is its value there, so each finite-radius estimate has an exact value, and
its error is pure MC error: it must sit within Z stderr.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    coarea_quadrature,
    reference_band,
    reference_bump,
    reference_bump_d_dh,
    reference_mc,
    sigma_p_quadrature,
)

from sublap import (
    CutoffBump,
    DomainError,
    Polynomial,
    SpaceParams,
    ball_measure,
    density_limit,
    exponents,
    mc_energy,
    normalization,
    sigma_p,
    sigma_p_exact,
    weak_pairing,
)
from sublap.fields import grad_psi_norm_pow

SAMPLES = 2 * 10**5
Z = 4.0

# setups A-D of the golden reports, each with its p
SETUPS = {
    "A": (SpaceParams(1, 1.0, 1.0), 2.0),
    "B": (SpaceParams(1, 2.0, 1.0), 3.0),
    "C": (SpaceParams(2, 1.5, -2.0), 2.0),
    "D": (SpaceParams(3, 1.5, -2.0, [0.3, -0.2, 0.1, 0.5, -0.4, 0.2, 0.7]), 3.0),
}


# setups A-D and the 9-D space at n = 4, where the box accepts 0.84% of the points
SEED_SETUPS = dict(SETUPS, n4=(SpaceParams(4, 1.0, 1.0), 2.0))
SEEDS = range(1, 25)
SEED_SAMPLES = 5 * 10**4  # 48 replicates of 1024 points


@pytest.fixture(params=sorted(SETUPS), ids=lambda name: f"setup={name}")
def setup(request):
    return SETUPS[request.param]


def assert_within_z(est, exact):
    assert est.stderr > 0
    assert abs(est.mean - exact) <= Z * est.stderr, (est.mean, exact, est.stderr)


def sigma_mean(params, p):
    """M, the |grad_0 psi|^p-weighted mean of Sigma over the unit sphere:
    |c|^(-1/k) B(1/2, b + 1/(2k)) / B(1/2, b), b = (m + 1)/2 as in
    `sigma_p_exact`.  pi/4 at n = k = c = 1, p = 2."""
    n, k = params.n, params.k
    b = (p * (2 * k - 1) / (2 * k) + n / k) / 2

    def log_beta(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    return abs(params.c) ** (-1.0 / k) * math.exp(log_beta(0.5, b + 0.5 / k) - log_beta(0.5, b))


class TestSigmaPExact:
    @pytest.mark.parametrize(
        "n,k,c,p",
        [
            (1, 1.0, 1.0, 2.0),
            (1, 2.0, 1.0, 6.0),      # p = Q
            (2, 1.5, -2.0, 2.0),     # negative c
            (3, 1.5, -2.0, 3.0),     # n = 3
            (1, 0.4, 1.0, 3.0),      # k < 1/2, below the bound 10
            (1, 0.5, 1.0, 12.0),     # k = 1/2: finite for every p
            (2, 1.0, 0.7, 6.0),      # p = Q
        ],
    )
    def test_matches_quadrature(self, n, k, c, p):
        # the quadrature is accurate to 1.4e-6 at (1, 2, 1, 6)
        exact = sigma_p_exact(SpaceParams(n, k, c), p)
        assert exact == pytest.approx(sigma_p_quadrature(n, k, c, p), rel=1e-5)

    def test_divergence_bound_shared_with_the_kernel(self):
        params = SpaceParams(1, 0.4, 1.0)  # bound 2 / 0.2 = 10
        for p in (10.0, 12.0):
            with pytest.raises(DomainError, match="diverges") as exact:
                sigma_p_exact(params, p)
            with pytest.raises(DomainError, match="diverges") as mc:
                ball_measure(params, p, 1.0, 10**4, 3)
            assert str(exact.value) == str(mc.value)
        assert np.isfinite(sigma_p_exact(params, 9.5))

    def test_rejects_p_at_most_one(self):
        with pytest.raises(DomainError, match="exceed 1"):
            sigma_p_exact(SpaceParams(1, 1.0, 1.0), 1.0)

    @pytest.mark.parametrize("c,value", [(1e-19, "inf"), (1e20, "0.0")],
                             ids=["overflow", "underflow"])
    def test_rejects_a_value_outside_the_normal_floats(self, c, value):
        # n = 3, k = 0.1, p = 2: |c|^((p-2n)/(2k)) = |c|^-20 raised an
        # OverflowError at c = 1e-19 and gave 0.0 at c = 1e20 before
        with pytest.raises(DomainError, match=f"is {value}, not a positive normal float"):
            sigma_p_exact(SpaceParams(3, 0.1, c), 2.0)


class TestFiniteRadiusEstimates:
    def test_ball_measure(self, setup):
        params, p = setup
        exact = coarea_quadrature(params, p, lambda rho: 1.0, 0.0, 0.8)
        assert exact == pytest.approx(sigma_p_exact(params, p) * 0.8**params.Q, rel=1e-10)
        assert_within_z(ball_measure(params, p, 0.8, SAMPLES, 41), exact)

    def test_shell_integral_extrapolated(self, setup):
        # the shell integral of the bump at R = 1, once a three-shell
        # extrapolation, is Q sigma_p R^(Q-1) times the density there; by the
        # coarea formula its exact value is that surface times phi(h = R^(4k))
        params, p = setup
        bump = CutoffBump(params, 1.5)
        R = 1.0
        (density,) = density_limit(params, p, bump, [R], SAMPLES, 42)
        surface = params.Q * sigma_p_exact(params, p) * R ** (params.Q - 1.0)
        est = replace(density, mean=surface * density.mean, stderr=surface * density.stderr)
        assert_within_z(est, surface * reference_bump(bump, np.array([R ** (4 * params.k)]))[0])

    def test_weak_pairing(self, setup):
        params, p = setup
        alpha = exponents(params, p).alpha
        scale = normalization(params, p, sigma_p_exact(params, p))
        bump = CutoffBump(params, 1.0)
        k4 = 4 * params.k
        r, R = 0.2, 1.0

        def g(rho):
            s_u = scale * alpha * rho ** (alpha - 1.0)
            s_phi = reference_bump_d_dh(bump, np.array([rho**k4]))[0]
            return abs(s_u) ** (p - 2.0) * s_u * s_phi * k4 * rho ** (k4 - 1.0)

        est = weak_pairing(params, p, scale, bump, r, R, SAMPLES, 43)
        assert_within_z(est, coarea_quadrature(params, p, g, r, R))

    def test_mc_energy(self, setup):
        params, p = setup
        alpha = exponents(params, p).alpha
        r, R = 1.0, 2.0

        def g(rho):
            return abs(alpha * rho ** (alpha - 1.0) / (r**alpha - R**alpha)) ** p

        est = mc_energy(params, p, r, R, SAMPLES, 44)
        assert_within_z(est, coarea_quadrature(params, p, g, r, R) / sigma_p_exact(params, p))

    def test_density_limit_every_radius(self, setup):
        # the bump is constant on each sphere: its average is phi(h = R^(4k))
        params, p = setup
        bump = CutoffBump(params, 1.5)
        radii = [0.4, 0.2, 0.1]
        estimates = density_limit(params, p, bump, radii, SAMPLES, 45)
        exact = reference_bump(bump, np.array(radii) ** (4 * params.k))
        for row, value in zip(estimates, exact):
            assert_within_z(row, value)

    def test_density_of_a_polynomial(self, setup):
        # phi = (x_1 - a_1)^2 is not a function of h, so its weight comes from
        # its 2-jet at the points.  By symmetry each horizontal coordinate
        # carries 1/(2n) of Sigma, whose average over {psi = R} is R^2 M.
        params, p = setup
        a1 = float(params.x0[0])
        powers = np.zeros((3, params.dim), dtype=int)
        powers[0, 0], powers[1, 0] = 2, 1
        phi = Polynomial([(1.0, powers[0]), (-2.0 * a1, powers[1]), (a1 * a1, powers[2])],
                         params.dim)
        radii = [0.4, 0.2]
        M = sigma_mean(params, p)
        for R, row in zip(radii, density_limit(params, p, phi, radii, SAMPLES, 46)):
            assert_within_z(row, R**2 * M / (2 * params.n))

    def test_sigma_mean_at_setup_a(self):
        assert sigma_mean(SpaceParams(1, 1.0, 1.0), 2.0) == pytest.approx(math.pi / 4, rel=1e-14)


@pytest.mark.parametrize("name", sorted(SEED_SETUPS))
def test_lattice_stderr_is_honest_over_seeds(name):
    # The replicate stderr against the spread of sigma_p over 24 seeds: the
    # mean over seeds sits within 4 of its stderrs of the closed form, and
    # the empirical SD across seeds over the mean reported stderr lies in
    # [0.5, 2].  A stderr that missed the lattice's variance, or a biased
    # shift, fails one of the two.
    params, p = SEED_SETUPS[name]
    exact = sigma_p_exact(params, p)
    ests = [sigma_p(params, p, SEED_SAMPLES, seed, threads=1) for seed in SEEDS]
    means = np.array([e.mean for e in ests])
    reported = np.mean([e.stderr for e in ests])
    assert abs(means.mean() - exact) <= Z * reported / np.sqrt(len(ests))
    assert 0.5 <= means.std(ddof=1) / reported <= 2.0


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_density_stderr_is_honest_over_seeds(name):
    # The same two checks for the bump's average over {psi = 0.2}, whose
    # weight phi + Z phi / Q changes sign inside the ball.
    params, p = SETUPS[name]
    bump = CutoffBump(params, 1.0)
    exact = float(reference_bump(bump, np.array([0.2 ** (4 * params.k)]))[0])
    ests = [density_limit(params, p, bump, [0.2], SEED_SAMPLES, seed, threads=1)[0]
            for seed in SEEDS]
    means = np.array([e.mean for e in ests])
    reported = np.mean([e.stderr for e in ests])
    assert abs(means.mean() - exact) <= Z * reported / np.sqrt(len(ests))
    assert 0.5 <= means.std(ddof=1) / reported <= 2.0


@pytest.mark.parametrize("name", sorted(SEED_SETUPS))
def test_lattice_agrees_with_plain_mc(name):
    # V(B_R), the lattice run of the unit ball times its exact factor R^Q
    # |c|^((p-2n)/(2k)), against plain MC over the box of B_R itself, at
    # R = 1.7, c times -1.3 and a moved x0: the two share no box, no factor
    # and no points
    params, p = SEED_SETUPS[name]
    params, R = SpaceParams(params.n, params.k, -1.3 * params.c, params.x0 + 0.25), 1.7
    lattice = ball_measure(params, p, R, SEED_SAMPLES, 7)
    band = reference_band(params, None, R ** (4 * params.k), lambda pts, sigma, h:
                          grad_psi_norm_pow(params, sigma, h, p))
    mean, stderr, _ = reference_mc(params, R, band, SEED_SAMPLES, 7, (1, 0))
    assert abs(lattice.mean - mean) <= Z * np.hypot(lattice.stderr, stderr)
