import numpy as np
import pytest
from helpers import close_scaled, fd_gradient, fd_jacobian

from sublap import (
    ArithmeticDomainError,
    Constant,
    CutoffBump,
    FundamentalProfile,
    GaugeH,
    GaugePsi,
    Jet2,
    Polynomial,
    SingularPointError,
)


class TestJetArithmetic:
    def test_cube_of_coordinate(self):
        x = Jet2.variable(2.0, 0, 1)
        j = x**3
        assert j.value == 8.0
        assert j.grad[0] == 12.0
        assert j.hess[0, 0] == 12.0

    def test_mul_identity(self, rng):
        a = Jet2(rng.normal(), rng.normal(size=3), _sym(rng, 3))
        b = a * 1.0
        assert b.value == a.value
        assert np.array_equal(b.grad, a.grad)
        assert np.array_equal(b.hess, a.hess)

    def test_log_exp_roundtrip(self, rng):
        for _ in range(20):
            a = Jet2(rng.normal(), rng.normal(size=3), _sym(rng, 3))
            b = a.exp().log()
            assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)
            assert np.allclose(b.grad, a.grad, rtol=1e-12, atol=1e-12)
            assert np.allclose(b.hess, a.hess, rtol=1e-11, atol=1e-11)

    def test_product_and_quotient_rules(self, rng):
        for _ in range(10):
            a = Jet2(rng.uniform(0.5, 2.0), rng.normal(size=2), _sym(rng, 2))
            b = Jet2(rng.uniform(0.5, 2.0), rng.normal(size=2), _sym(rng, 2))
            prod = a * b
            assert prod.value == pytest.approx(a.value * b.value)
            assert np.allclose(
                prod.grad, a.value * b.grad + b.value * a.grad, rtol=1e-14
            )
            back = prod / b
            assert back.value == pytest.approx(a.value, rel=1e-13)
            assert np.allclose(back.grad, a.grad, rtol=1e-12, atol=1e-12)
            assert np.allclose(back.hess, a.hess, rtol=1e-11, atol=1e-11)

    def test_domain_errors_name_the_op(self):
        zero = Jet2.constant(0.0, 2)
        neg = Jet2.constant(-1.0, 2)
        with pytest.raises(ArithmeticDomainError, match="div"):
            Jet2.constant(1.0, 2) / zero
        with pytest.raises(ArithmeticDomainError, match="log"):
            zero.log()
        with pytest.raises(ArithmeticDomainError, match="pow"):
            neg**0.5
        with pytest.raises(ArithmeticDomainError, match="pow"):
            Jet2.variable(0.0, 0, 2) ** 1.5  # zero base, nonzero gradient

    def test_pow_at_zero_base(self):
        # integer exponents stay polynomial-exact at 0
        x = Jet2.variable(0.0, 0, 1)
        sq = x**2
        assert sq.value == 0.0 and sq.grad[0] == 0.0 and sq.hess[0, 0] == 2.0
        cube = x**3
        assert cube.hess[0, 0] == 0.0
        # flat jets accept non-integer exponents > 1
        flat = Jet2(0.0, np.zeros(1), np.zeros((1, 1)))
        out = flat**1.75
        assert out.value == 0.0 and not out.grad.any()


def _sym(rng, d):
    m = rng.normal(size=(d, d))
    return m + m.T


def _all_fields(params):
    fields = [
        GaugeH(params),
        GaugePsi(params),
        FundamentalProfile(params, 2.5),
        FundamentalProfile(params, params.Q),
        CutoffBump(params, 1.5),
        Polynomial(
            [(0.7, (2, 0, 1)), (-0.3, (1, 1, 0)), (1.1, (0, 0, 3))], 3
        )
        if params.dim == 3
        else Constant(2.0, params.dim),
    ]
    return fields


class TestGaugeJets:
    def test_gauge_h_hand_jet(self, setup_a):
        jet = GaugeH(setup_a).jet([1.0, 1.0, 2.0])
        assert jet.value == 8.0
        assert np.array_equal(jet.grad, [8.0, 8.0, 4.0])
        assert np.array_equal(
            jet.hess, [[16.0, 8.0, 0.0], [8.0, 16.0, 0.0], [0.0, 0.0, 2.0]]
        )

    def test_gauge_h_critical_at_x0(self, setup_a):
        jet = GaugeH(setup_a).jet([0.0, 0.0, 0.0])
        assert jet.value == 0.0
        assert not jet.grad.any()

    def test_gauge_psi_hand_jet(self, setup_a):
        jet = GaugePsi(setup_a).jet([1.0, 0.0, 0.0])
        assert jet.value == 1.0
        assert jet.grad[0] == pytest.approx(1.0, rel=1e-14)
        assert jet.grad[1] == pytest.approx(0.0, abs=1e-14)

    def test_psi_singularity(self, setup_a):
        with pytest.raises(SingularPointError):
            GaugePsi(setup_a).jet([0.0, 0.0, 0.0])

    def test_psi_power_matches_h_jet(self, all_setups, rng):
        for params in all_setups:
            psi = GaugePsi(params)
            hfield = GaugeH(params)
            for _ in range(20):
                P = params.x0 + rng.uniform(-2, 2, params.dim)
                jp = psi.jet(P) ** (4 * params.k)
                jh = hfield.jet(P)
                assert jp.value == pytest.approx(jh.value, rel=1e-12)
                assert np.allclose(jp.grad, jh.grad, rtol=1e-12, atol=1e-12 * abs(jh.value))
                assert np.allclose(jp.hess, jh.hess, rtol=1e-11, atol=1e-10 * abs(jh.value))

    def test_hessian_symmetry_exact(self, all_setups, rng):
        for params in all_setups:
            for field in _all_fields(params):
                P = params.x0 + rng.uniform(-1.5, 1.5, params.dim)
                jet = field.jet(P)
                assert np.array_equal(jet.hess, jet.hess.T)


class TestFiniteDifferenceCrossChecks:
    # step 1e-5 * scale; value -> grad at relative 1e-6, grad -> hess at 1e-5

    def test_gradients_match_fd(self, all_setups, rng):
        for params in all_setups:
            for field in _all_fields(params):
                for _ in range(16):
                    P = _safe_point(params, rng)
                    step = 1e-5 * (1.0 + np.abs(P).max())
                    jet = field.jet(P)
                    fd = fd_gradient(lambda x: field.jet(x).value, P, step)
                    assert close_scaled(fd, jet.grad, 1e-6)

    def test_hessians_match_fd(self, all_setups, rng):
        for params in all_setups:
            for field in _all_fields(params):
                for _ in range(8):
                    P = _safe_point(params, rng)
                    step = 1e-5 * (1.0 + np.abs(P).max())
                    jet = field.jet(P)
                    fd = fd_jacobian(lambda x: field.jet(x).grad, P, step)
                    assert close_scaled(fd, jet.hess, 1e-5)

    def test_vectorized_values_match_jets(self, all_setups, rng):
        for params in all_setups:
            pts = np.stack([_safe_point(params, rng) for _ in range(32)])
            for field in _all_fields(params):
                vals = field.values(pts)
                ref = np.array([field.jet(P).value for P in pts])
                assert np.allclose(vals, ref, rtol=1e-13, atol=1e-13)


def _safe_point(params, rng):
    # keep away from the singularity and (for k < 2) from the Sigma = 0 axis
    while True:
        P = params.x0 + rng.uniform(-1.5, 1.5, params.dim)
        u = P[: 2 * params.n] - params.a
        if u @ u > 1e-2 and np.abs(P - params.x0).max() > 0.3:
            return P


class TestPolynomialDualRoute:
    def test_direct_rules_match_jet_arithmetic(self, rng):
        # the same cubic assembled through coordinate-jet arithmetic
        for _ in range(10):
            terms = []
            for _ in range(6):
                exps = tuple(rng.integers(0, 3, size=3))
                if sum(exps) > 3:
                    continue
                terms.append((float(rng.normal()), exps))
            if not terms:
                continue
            poly = Polynomial(terms, 3)
            P = rng.uniform(-2, 2, 3)
            xs = [Jet2.variable(x, m, 3) for m, x in enumerate(P)]
            composed = Jet2.constant(0.0, 3)
            for coeff, exps in terms:
                term = Jet2.constant(coeff, 3)
                for m, e in enumerate(exps):
                    for _ in range(e):
                        term = term * xs[m]
                composed = composed + term
            direct = poly.jet(P)
            assert direct.value == pytest.approx(composed.value, rel=1e-12, abs=1e-12)
            assert np.allclose(direct.grad, composed.grad, rtol=1e-11, atol=1e-11)
            assert np.allclose(direct.hess, composed.hess, rtol=1e-11, atol=1e-11)
