import numpy as np
import pytest
from helpers import radial_capacity_quadrature
from scipy.optimize import minimize

from sublap import (
    AnnulusPotential,
    DomainError,
    GaugePsi,
    RadialProfile,
    SpaceParams,
    closed_form_capacity,
    exponents,
    horizontal_gradient,
    mc_energy,
    minimize_radial,
    p_laplacian,
    radial_energy,
    sample_points,
)

GRID_PS = {"A": (2.0, 3.0, 4.0, 6.0), "B": (2.0, 3.0, 6.0, 8.0)}

# the radial problem sees only Q: 4, 6, 7 and 9
RADIAL_SETUPS = {
    "A": SpaceParams(1, 1.0, 1.0),
    "B": SpaceParams(1, 2.0, 1.0),
    "C": SpaceParams(2, 1.5, -2.0),
    "D": SpaceParams(3, 1.5, -2.0),
}
RADIAL_CASES = [
    (name, p)
    for name, params in RADIAL_SETUPS.items()
    for p in (1.01, 1.5, 2.0, 3.0, params.Q, 8.0, 40.0)
]


def optimal_profile(params, p, r, R, m):
    """The annulus potential as a radial profile on m segments of [r, R]."""
    knots = np.linspace(r, R, m + 1)
    vals = AnnulusPotential(params, p, r, R).values_of_h(knots ** (4 * params.k))
    vals[0], vals[-1] = 1.0, 0.0
    return RadialProfile(knots, vals)


class TestClosedForm:
    def test_setup_a_p2_exact_anchor(self, setup_a):
        value = closed_form_capacity(setup_a, 2.0, 1.0, 2.0)
        assert type(value) is float
        assert value == pytest.approx(32.0 / 3.0, rel=1e-14)

    def test_setup_a_log_case(self, setup_a):
        value = closed_form_capacity(setup_a, 4.0, 1.0, 2.0)
        assert value == pytest.approx(4.0 * np.log(2.0) ** -3, rel=1e-14)
        assert value == pytest.approx(12.011123, abs=1e-6)

    def test_p_above_q(self, setup_b):
        # alpha = (6-8)/(1-8) = 2/7
        e = exponents(setup_b, 8.0)
        assert e.alpha == pytest.approx(2.0 / 7.0, rel=1e-14)
        expected = (2.0 / 7.0) ** 7 * 6.0 * (2.0 ** (2.0 / 7.0) - 1.0) ** -7
        assert closed_form_capacity(setup_b, 8.0, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_matches_radial_quadrature_oracle(self, setup_a, setup_b):
        for name, params in (("A", setup_a), ("B", setup_b)):
            for p in GRID_PS[name]:
                e = exponents(params, p)
                oracle = radial_capacity_quadrature(params.Q, p, e.alpha, 1.0, 2.0)
                assert closed_form_capacity(params, p, 1.0, 2.0) == pytest.approx(
                    oracle, rel=1e-10
                )

    @pytest.mark.parametrize("dp", [1e-6, 1e-8, 1e-10, -1e-10, 1e-11, -5e-12])
    def test_continuous_across_log_case(self, setup_a, dp):
        # the gap as the larger power times -expm1(-|alpha| log(R/r)) does
        # not cancel as alpha -> 0; the capacity moves by about 2e-2 |p - Q|
        log_case = closed_form_capacity(setup_a, 4.0, 1.0, 2.0)
        near = closed_form_capacity(setup_a, 4.0 + dp, 1.0, 2.0)
        assert abs(near / log_case - 1.0) <= 0.1 * abs(dp) + 1e-13

    def test_blow_up_as_annulus_shrinks(self, setup_a):
        vals = [
            closed_form_capacity(setup_a, 2.0, 1.0, 1.0 + eps)
            for eps in (0.5, 0.1, 0.001)
        ]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e3

    def test_monotonicity_grid(self, setup_a):
        rs = (0.5, 0.8, 1.1)
        Rs = (1.5, 2.0, 3.0)
        caps = {
            (r, R): closed_form_capacity(setup_a, 3.0, r, R)
            for r in rs
            for R in Rs
        }
        for R in Rs:  # increasing in r at fixed R
            assert caps[(0.5, R)] < caps[(0.8, R)] < caps[(1.1, R)]
        for r in rs:  # decreasing in R at fixed r
            assert caps[(r, 1.5)] > caps[(r, 2.0)] > caps[(r, 3.0)]

    def test_validation(self, setup_a):
        with pytest.raises(DomainError):
            closed_form_capacity(setup_a, 2.0, 2.0, 1.0)

    def test_infinite_R_limit(self, setup_a, setup_b):
        # p < Q: |alpha|^(p-1) Q r^(alpha(1-p)), at A, p = 3, alpha = -1/2
        assert closed_form_capacity(setup_a, 3.0, 2.0, np.inf) == pytest.approx(2.0, rel=1e-14)
        # p >= Q, the log case included: no annulus around B_r has positive
        # capacity, so the limit is exactly 0 (outside the float range before)
        for params, p in ((setup_a, 4.0), (setup_a, 4.0 - 1e-12), (setup_a, 5.0),
                          (setup_b, 6.0), (setup_b, 8.0)):
            assert closed_form_capacity(params, p, 1.0, np.inf) == 0.0
        # which finite R approach: at A, p = 5, alpha = 1/4, 4^-4 * 4 * (R^(1/4) - 1)^-4
        value = closed_form_capacity(setup_a, 5.0, 1.0, 1e100)
        assert value == pytest.approx(4.0**-3 * (1e25 - 1.0) ** -4, rel=1e-12)


ANNULUS_USERS = {
    "potential": lambda params, r, R: AnnulusPotential(params, 2.0, r, R),
    "radial": lambda params, r, R: minimize_radial(params, 2.0, r, R, 16),
    "mc-energy": lambda params, r, R: mc_energy(params, 2.0, r, R, 10**4, 1),
}


@pytest.mark.parametrize("user", sorted(ANNULUS_USERS))
@pytest.mark.parametrize("r,R", [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (1.0, np.inf),
                                 (np.nan, 2.0)], ids=["reversed", "empty", "r-0", "R-inf", "nan"])
def test_one_annulus_check(setup_a, user, r, R):
    # each user of an annulus rejects it by `space.check_annulus`, with one message
    with pytest.raises(DomainError, match=r"need 0 < r < R < inf: each radius must be positive"):
        ANNULUS_USERS[user](setup_a, r, R)


class TestAnnulusPotential:
    def test_boundary_values(self, setup_a):
        # axis points: psi(0,0,t) = |t|^(1/2)
        u = AnnulusPotential(setup_a, 2.0, 1.0, 2.0)
        assert u.value([0.0, 0.0, 1.0]) == pytest.approx(1.0)
        assert u.value([0.0, 0.0, 4.0]) == pytest.approx(0.0)

    def test_hand_midpoint(self, setup_a):
        # psi = sqrt(2) at (0,0,2): u = (1/2 - 1/4)/(1 - 1/4) = 1/3
        u = AnnulusPotential(setup_a, 2.0, 1.0, 2.0)
        assert u.value([0.0, 0.0, 2.0]) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_p_harmonic_inside(self, setup_a, setup_b):
        for params in (setup_a, setup_b):
            for p in GRID_PS["A" if params.k == 1.0 else "B"]:
                field = AnnulusPotential(params, p, 1.0, 2.0)
                pts = sample_points(params, 200, 71)
                psis = GaugePsi(params).values(pts)
                inside = (psis >= 1.05) & (psis < 1.95)  # well inside 1 < psi < 2
                pts, psis = pts[inside][:25], psis[inside][:25]
                assert len(pts) >= 10
                for P, psi in zip(pts, psis):
                    hg = horizontal_gradient(params, field, P)
                    scale = 1.0 + float(hg @ hg) ** ((p - 1.0) / 2.0) / psi
                    assert abs(p_laplacian(params, field, P, p)) <= 1e-8 * scale


class TestRadialEnergy:
    def test_optimal_profile_reaches_closed_form(self, setup_a):
        prof = optimal_profile(setup_a, 2.0, 1.0, 2.0, 400)
        energy = radial_energy(setup_a, 2.0, prof)
        assert energy == pytest.approx(32.0 / 3.0, rel=1e-3)

    def test_linear_profile_hand_integral(self, setup_a):
        # |eta'| = 1 on [1,2]: energy = sigma (2^4 - 1^4) = 15 sigma > 32/3 sigma
        prof = RadialProfile.linear(1.0, 2.0, 50)
        energy = radial_energy(setup_a, 2.0, prof)
        assert energy == pytest.approx(15.0, rel=1e-12)
        assert energy > 32.0 / 3.0

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            RadialProfile([1.0, 2.0], [1.0, 0.0])  # too few knots
        with pytest.raises(DomainError):
            RadialProfile([1.0, 1.5, 2.0], [0.5, 0.2, 0.0])  # boundary not pinned
        with pytest.raises(DomainError):
            RadialProfile([1.0, 0.9, 2.0], [1.0, 0.5, 0.0])  # not increasing


class TestMinimizeRadial:
    @pytest.mark.parametrize("name,p", [(n, p) for n in ("A", "B") for p in GRID_PS[n]])
    def test_grid_reaches_closed_form(self, name, p, setup_a, setup_b):
        params = setup_a if name == "A" else setup_b
        profile, energy = minimize_radial(params, p, 1.0, 2.0, 400)
        closed = closed_form_capacity(params, p, 1.0, 2.0)
        assert abs(energy - closed) / closed <= 5e-3
        assert energy >= closed * (1.0 - 1e-9)  # discrete class can't beat the infimum
        assert profile.knots.size == 401

    def test_trial_profiles_never_beat_optimum(self, setup_a, rng):
        _, optimum = minimize_radial(setup_a, 3.0, 1.0, 2.0, 60)
        base = optimal_profile(setup_a, 3.0, 1.0, 2.0, 60)
        for _ in range(20):
            bumps = rng.normal(scale=0.02, size=base.values.size - 2)
            vals = base.values.copy()
            vals[1:-1] = np.clip(vals[1:-1] + bumps, 0.0, 1.0)
            trial = RadialProfile(base.knots, vals)
            assert radial_energy(setup_a, 3.0, trial) >= optimum * (1.0 - 1e-12)

    def test_validation(self, setup_a):
        with pytest.raises(DomainError):
            minimize_radial(setup_a, 2.0, 1.0, 2.0, 4)
        with pytest.raises(DomainError):
            minimize_radial(setup_a, 2.0, 2.0, 1.0, 100)
        # R one ulp above r: 400 knots cannot be distinct floats
        with pytest.raises(DomainError, match="not distinct floats"):
            minimize_radial(setup_a, 2.0, 2.0, 2.0000000000000004, 400)

    def test_weights_beyond_float_range(self):
        # rho^Q overflows at rho = 2 for Q > 1024; the weights stay in logs
        params = SpaceParams(600, 1.0, 1.0)
        _, energy = minimize_radial(params, 2.0, 1.0, 2.0, 400)
        assert np.isfinite(energy)
        assert energy >= closed_form_capacity(params, 2.0, 1.0, 2.0)

    @pytest.mark.parametrize("n,p,r,R", [
        (100, 2.0, 1.0, 1000.0),   # alpha = -200: 1.1e109 on knots equal in rho
        (1, 1.5, 1e-5, 1e5),       # R/r = 1e10: 9.9e5 against 2.8e-12
        (600, 2.0, 1.0, 2.0),      # Q = 1202: off by 100%
    ])
    def test_knots_follow_the_profile(self, n, p, r, R):
        params = SpaceParams(n, 1.0, 1.0)
        _, energy = minimize_radial(params, p, r, R, 400)
        closed = closed_form_capacity(params, p, r, R)
        assert closed <= energy <= closed * (1.0 + 1e-4)

    @pytest.mark.parametrize("params,p", [
        (SpaceParams(1, 1.0, 1.0), 2.0),
        (SpaceParams(1, 2.0, 1.0), 2.0),
        (SpaceParams(2, 1.5, -2.0), 2.0),
        (SpaceParams(3, 1.5, -2.0), 3.0),
    ], ids=["A", "B", "C", "D"])
    def test_default_setups_within_2e_5(self, params, p):
        # the golden setups at the CLI's r = 1, R = 2 and 400 knots
        _, energy = minimize_radial(params, p, 1.0, 2.0, 400)
        closed = closed_form_capacity(params, p, 1.0, 2.0)
        assert abs(energy - closed) <= 2e-5 * closed

    def test_log_case_knots_are_geometric(self, setup_a):
        # p = Q: knots equal in log rho
        profile, _ = minimize_radial(setup_a, 4.0, 1.0, 2.0, 16)
        ratios = profile.knots[1:] / profile.knots[:-1]
        assert ratios == pytest.approx(np.full(16, 2.0 ** (1 / 16)), rel=1e-13)

    @pytest.mark.parametrize("r,R", [(1e-300, 1e-299), (1e200, 2e200)])
    def test_energy_beyond_float_range(self, setup_a, r, R):
        # the capacity scales as r^(Q-p): it underflows, then overflows
        with pytest.raises(DomainError, match="outside the float range"):
            minimize_radial(setup_a, 2.0, r, R, 400)

    @pytest.mark.parametrize("name,p", RADIAL_CASES)
    def test_perturbations_never_lower_energy(self, name, p, rng):
        params = RADIAL_SETUPS[name]
        profile, _ = minimize_radial(params, p, 1.0, 2.0, 400)
        base = radial_energy(params, p, profile)
        for scale in (1e-3, 1e-6):
            for _ in range(10):
                vals = profile.values.copy()
                vals[1:-1] += rng.normal(scale=scale, size=vals.size - 2)
                trial = RadialProfile(profile.knots, vals)
                assert radial_energy(params, p, trial) >= base

    @pytest.mark.parametrize("name,p", RADIAL_CASES)
    def test_energy_is_that_of_the_profile(self, name, p):
        params = RADIAL_SETUPS[name]
        profile, energy = minimize_radial(params, p, 1.0, 2.0, 400)
        assert np.isfinite(energy)
        assert radial_energy(params, p, profile) == pytest.approx(energy, rel=1e-11)
        assert np.all(np.diff(profile.values) <= 0)

    @pytest.mark.parametrize("name,p", RADIAL_CASES)
    def test_bfgs_never_beats_the_formula(self, name, p):
        # an independent numerical minimizer over the 15 interior values, on
        # the formula's knots
        params = RADIAL_SETUPS[name]
        profile, energy = minimize_radial(params, p, 1.0, 2.0, 16)
        knots = profile.knots
        start = (2.0 - knots[1:-1]) / (2.0 - 1.0)  # the linear profile

        def energy_of(interior):
            values = np.concatenate(([1.0], interior, [0.0]))
            return radial_energy(params, p, RadialProfile(knots, values))

        found = minimize(energy_of, start, method="BFGS")
        assert found.fun >= energy * (1.0 - 1e-12)
        if p >= 1.5:  # near p = 1 BFGS stops short of the minimum
            assert found.fun <= energy * (1.0 + 1e-8)


class TestMCEnergy:
    def test_p2_anchor(self, setup_a):
        est = mc_energy(setup_a, 2.0, 1.0, 2.0, 4 * 10**5, 19)
        assert abs(est.mean - 32.0 / 3.0) <= 3.0 * est.stderr + 0.01 * 32.0 / 3.0

    def test_p3_cross_method(self, setup_a):
        est = mc_energy(setup_a, 3.0, 1.0, 2.0, 4 * 10**5, 19)
        closed = closed_form_capacity(setup_a, 3.0, 1.0, 2.0)
        assert abs(est.mean - closed) <= 3.0 * est.stderr + 0.01 * closed

    def test_rows_stay_in_the_floats(self, setup_a):
        # p = 1.01, r/R = 0.095: |eta'|^p = |s|^p h^(p e/(4k)) with p e = -303,
        # so h^(p e/(4k)) = psi^-303 passes 1e308 near psi = r/R, where |s|^p
        # is about 1e-307; the run takes (h/lo)^(p e/(4k)), at most 1
        est = mc_energy(setup_a, 1.01, 0.095, 1.0, 10**6, 7, threads=1)
        assert 0.0 < est.mean < np.inf and 0.0 < est.stderr < np.inf

    def test_blow_up_near_degenerate_annulus(self, setup_a):
        wide = mc_energy(setup_a, 2.0, 1.0, 2.0, 10**5, 7)
        thin = mc_energy(setup_a, 2.0, 1.9, 2.0, 10**5, 7)
        assert thin.mean > 5.0 * wide.mean


class TestThreeWay:
    def test_pairwise_agreement(self, setup_a):
        closed = closed_form_capacity(setup_a, 2.0, 1.0, 2.0)
        _, radial = minimize_radial(setup_a, 2.0, 1.0, 2.0, 400)
        est = mc_energy(setup_a, 2.0, 1.0, 2.0, 4 * 10**5, 29)
        vals = [closed, radial, est.mean]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vals[i] - vals[j]) / vals[i] <= 0.02
        # the energy run itself, with its points used, replicates and those in the annulus
        assert est.stderr > 0
        assert 0 < est.accepted < est.samples
