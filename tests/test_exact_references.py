"""Monte Carlo against exact values: sigma_p's closed form, and every
estimate whose integrand depends on the point only through h.

Such an integral over a band {lo < psi < hi} is a 1-D coarea integral
(`helpers.coarea_quadrature`), so each finite-radius estimate has an exact
value, and its error is pure MC error: it must sit within Z stderr.
"""

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
    FundamentalProfile,
    SpaceParams,
    ball_measure,
    density_limit,
    exponents,
    mc_energy,
    normalization,
    shell_integral_extrapolated,
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
# the default shell widths and their Richardson weights, coarsest first
DELTA_FRACS = (0.1, 0.05, 0.025)
RICHARDSON = (1.0 / 45.0, -20.0 / 45.0, 64.0 / 45.0)


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


def on_rho(params, fn):
    """g(rho) for a function fn of an h array."""
    return lambda rho: float(fn(np.array([rho ** (4 * params.k)]))[0])


def shell_exact(params, p, g, R):
    """The Richardson combination of the thin-shell integrals of g at R."""
    total = 0.0
    for c, frac in zip(RICHARDSON, DELTA_FRACS):
        d = frac * R
        total += c / (2.0 * d) * coarea_quadrature(params, p, g, R - d, R + d)
    return total


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


class TestFiniteRadiusEstimates:
    def test_ball_measure(self, setup):
        params, p = setup
        exact = coarea_quadrature(params, p, lambda rho: 1.0, 0.0, 0.8)
        assert exact == pytest.approx(sigma_p_exact(params, p) * 0.8**params.Q, rel=1e-10)
        assert_within_z(ball_measure(params, p, 0.8, SAMPLES, 41), exact)

    def test_shell_integral_extrapolated(self, setup):
        params, p = setup
        bump = CutoffBump(params, 1.5)
        g = on_rho(params, lambda h: reference_bump(bump, h))
        est = shell_integral_extrapolated(params, p, 1.0, bump, SAMPLES, 42)
        assert_within_z(est, shell_exact(params, p, g, 1.0))

    def test_weak_pairing(self, setup):
        params, p = setup
        alpha = exponents(params, p).alpha
        scale = normalization(params, p, sigma_p_exact(params, p))
        u = FundamentalProfile(params, p, scale=scale)
        bump = CutoffBump(params, 1.0)
        k4 = 4 * params.k
        r, R = 0.2, 1.0

        def g(rho):
            s_u = scale * alpha * rho ** (alpha - 1.0)
            s_phi = reference_bump_d_dh(bump, np.array([rho**k4]))[0]
            return abs(s_u) ** (p - 2.0) * s_u * s_phi * k4 * rho ** (k4 - 1.0)

        est = weak_pairing(params, p, u, bump, r, R, SAMPLES, 43)
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
        params, p = setup
        bump = CutoffBump(params, 1.5)
        g = on_rho(params, lambda h: reference_bump(bump, h))
        radii = [0.4, 0.2, 0.1]
        estimates = density_limit(params, p, bump, radii, SAMPLES, 45)
        Q_sigma = params.Q * sigma_p_exact(params, p)
        for R, row in zip(radii, estimates):
            assert_within_z(row, R ** (1.0 - params.Q) / Q_sigma * shell_exact(params, p, g, R))


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


@pytest.mark.parametrize("name", sorted(SEED_SETUPS))
def test_lattice_agrees_with_plain_mc(name):
    params, p = SEED_SETUPS[name]
    lattice = sigma_p(params, p, SEED_SAMPLES, 7)
    band = reference_band(params, None, 1.0, lambda pts, sigma, h:
                          grad_psi_norm_pow(params, sigma, h, p))
    mean, stderr, _ = reference_mc(params, 1.0, band, SEED_SAMPLES, 7, (1, 0))
    assert abs(lattice.mean - mean) <= Z * np.hypot(lattice.stderr, stderr)
