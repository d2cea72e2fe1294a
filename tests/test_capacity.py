import numpy as np
import pytest
from helpers import radial_capacity_quadrature
from scipy.optimize import minimize

from sublap import (
    AnnulusPotential,
    DomainError,
    RadialProfile,
    SpaceParams,
    annulus_capacity,
    closed_form_capacity,
    exponents,
    gauge,
    horizontal_gradient,
    mc_energy,
    minimize_radial,
    p_laplacian,
    radial_energy,
    sample_points,
)
from sublap.capacity import METHODS

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
        res = closed_form_capacity(setup_a, 2.0, 1.0, 2.0)
        assert res.value == pytest.approx(32.0 / 3.0, rel=1e-14)
        assert res.method == "closed-form"
        assert res.stderr is None

    def test_setup_a_log_case(self, setup_a):
        res = closed_form_capacity(setup_a, 4.0, 1.0, 2.0)
        assert res.value == pytest.approx(4.0 * np.log(2.0) ** -3, rel=1e-14)
        assert res.value == pytest.approx(12.011123, abs=1e-6)

    def test_p_above_q(self, setup_b):
        # alpha = (6-8)/(1-8) = 2/7
        e = exponents(setup_b, 8.0)
        assert e.alpha == pytest.approx(2.0 / 7.0, rel=1e-14)
        res = closed_form_capacity(setup_b, 8.0, 1.0, 2.0)
        expected = (2.0 / 7.0) ** 7 * 6.0 * (2.0 ** (2.0 / 7.0) - 1.0) ** -7
        assert res.value == pytest.approx(expected, rel=1e-14)

    def test_matches_radial_quadrature_oracle(self, setup_a, setup_b):
        for name, params in (("A", setup_a), ("B", setup_b)):
            for p in GRID_PS[name]:
                e = exponents(params, p)
                oracle = radial_capacity_quadrature(params.Q, p, e.alpha, 1.0, 2.0)
                assert closed_form_capacity(params, p, 1.0, 2.0).value == pytest.approx(
                    oracle, rel=1e-10
                )

    def test_blow_up_as_annulus_shrinks(self, setup_a):
        vals = [
            closed_form_capacity(setup_a, 2.0, 1.0, 1.0 + eps).value
            for eps in (0.5, 0.1, 0.001)
        ]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e3

    def test_monotonicity_grid(self, setup_a):
        rs = (0.5, 0.8, 1.1)
        Rs = (1.5, 2.0, 3.0)
        caps = {
            (r, R): closed_form_capacity(setup_a, 3.0, r, R).value
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
                pts = [
                    P
                    for P in sample_points(params, 200, 71, box_radius=2.0, min_psi=1.05)
                    if gauge(params, P).psi < 1.95
                ][:25]
                assert len(pts) >= 10
                for P in pts:
                    hg = horizontal_gradient(params, field, P)
                    psi = gauge(params, P).psi
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
        closed = closed_form_capacity(params, p, 1.0, 2.0).value
        assert abs(energy - closed) / closed <= 5e-3
        assert energy >= closed * (1.0 - 1e-9)  # discrete class can't beat the infimum
        assert profile.segments == 400

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

    def test_weights_beyond_float_range(self):
        # rho^Q overflows at rho = 2 for Q > 1024; the weights stay in logs
        params = SpaceParams(600, 1.0, 1.0)
        _, energy = minimize_radial(params, 2.0, 1.0, 2.0, 400)
        assert np.isfinite(energy)
        assert energy >= closed_form_capacity(params, 2.0, 1.0, 2.0).value

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
        # an independent numerical minimizer over the 15 interior values
        params = RADIAL_SETUPS[name]
        start = RadialProfile.linear(1.0, 2.0, 16)

        def energy_of(interior):
            values = np.concatenate(([1.0], interior, [0.0]))
            return radial_energy(params, p, RadialProfile(start.knots, values))

        found = minimize(energy_of, start.values[1:-1], method="BFGS")
        _, energy = minimize_radial(params, p, 1.0, 2.0, 16)
        assert found.fun >= energy * (1.0 - 1e-12)
        if p >= 1.5:  # near p = 1 BFGS stops short of the minimum
            assert found.fun <= energy * (1.0 + 1e-8)


class TestMCEnergy:
    def test_p2_anchor(self, setup_a):
        est = mc_energy(setup_a, 2.0, 1.0, 2.0, 4 * 10**5, 19)
        assert abs(est.mean - 32.0 / 3.0) <= 3.0 * est.stderr + 0.01 * 32.0 / 3.0

    def test_p3_cross_method(self, setup_a):
        est = mc_energy(setup_a, 3.0, 1.0, 2.0, 4 * 10**5, 19)
        closed = closed_form_capacity(setup_a, 3.0, 1.0, 2.0).value
        assert abs(est.mean - closed) <= 3.0 * est.stderr + 0.01 * closed

    def test_blow_up_near_degenerate_annulus(self, setup_a):
        wide = mc_energy(setup_a, 2.0, 1.0, 2.0, 10**5, 7)
        thin = mc_energy(setup_a, 2.0, 1.9, 2.0, 10**5, 7)
        assert thin.mean > 5.0 * wide.mean


class TestThreeWay:
    def test_pairwise_agreement(self, setup_a):
        results = [
            annulus_capacity(setup_a, 2.0, 1.0, 2.0, method, 4 * 10**5, 29)
            for method in METHODS
        ]
        values = {res.method: res.value for res in results}
        assert set(values) == {"closed-form", "radial-variational", "mc-energy"}
        vals = list(values.values())
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vals[i] - vals[j]) / vals[i] <= 0.02
        mc = next(r for r in results if r.method == "mc-energy")
        assert mc.stderr is not None
