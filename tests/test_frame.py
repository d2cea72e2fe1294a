import numpy as np
import pytest
from helpers import close_scaled, fd_jacobian

from sublap import (
    ConfigurationError,
    Constant,
    DegeneratePointError,
    FundamentalProfile,
    GaugePsi,
    Polynomial,
    SpaceParams,
    bracket_comparison,
    exponents,
    frame_matrix,
    gauge,
    horizontal_gradient,
    horizontal_hessian_sym,
    infinity_laplacian,
    lie_bracket,
    lie_bracket_printed,
    p_laplacian,
    p_laplacian_divergence_form,
    sample_points,
)
from sublap.frame import t_coefficient_gradients, t_coefficients


# Constants of the analytic cross-check for the profile's p-Laplacian: the
# prefactor 2n + 2k + 2*chi + 4k*upsilon vanishes identically, which is what
# the operator sweeps verify numerically.

def upsilon_constant(w, p):
    return w * (p - 1.0) - p / 2.0


def chi_constant(k, p):
    return k * p - p / 2.0


class TestFieldCoefficients:
    """Row i-1 of frame_matrix and of t_coefficient_gradients belongs to X_i."""

    def test_hand_values_setup_a(self, setup_a):
        E = frame_matrix(setup_a, [1.0, 2.0, 5.0])
        assert np.array_equal(E[0], [1.0, 0.0, 4.0])
        assert np.array_equal(E[1], [0.0, 1.0, -2.0])

    def test_hand_values_setup_b(self, setup_b):
        E = frame_matrix(setup_b, [1.0, 2.0, 5.0])
        assert np.array_equal(E[0], [1.0, 0.0, 40.0])

    def test_basis_structure(self, setup_c, rng):
        P = sample_points(setup_c, 1, 3)[0]
        E = frame_matrix(setup_c, P)
        grads = t_coefficient_gradients(setup_c, P)
        n2 = 2 * setup_c.n
        assert np.array_equal(E[:, :n2], np.eye(n2))
        assert not grads[:, -1].any()  # t-coefficients are t-independent

    def test_degenerate_point_small_k(self):
        params = SpaceParams(1, 0.5, 1.0)
        with pytest.raises(DegeneratePointError):
            frame_matrix(params, [0.0, 0.0, 1.0])
        with pytest.raises(DegeneratePointError):
            t_coefficient_gradients(params, [0.0, 0.0, 1.0])

    def test_axis_points_fine_for_k_above_one(self, setup_c):
        # on {Sigma = 0} the coefficients and their gradients vanish for k > 1
        P = setup_c.x0.copy()
        P[-1] = 1.0
        assert not frame_matrix(setup_c, P)[:, -1].any()
        assert not t_coefficient_gradients(setup_c, P).any()

    def test_gradients_match_fd(self, all_setups, rng):
        for params in all_setups:
            pts = sample_points(params, 8, 11)
            for P in pts:
                step = 1e-6 * (1.0 + np.abs(P).max())
                fd = fd_jacobian(lambda x: t_coefficients(params, x), P, step)
                grads = t_coefficient_gradients(params, P)
                for i in range(2 * params.n):
                    assert close_scaled(fd[i], grads[i], 1e-6)


class TestHorizontalGradient:
    def test_psi_hand_value(self, setup_a):
        hg = horizontal_gradient(setup_a, GaugePsi(setup_a), [1.0, 0.0, 0.0])
        assert hg[0] == pytest.approx(1.0, rel=1e-14)
        assert hg[1] == pytest.approx(0.0, abs=1e-14)

    def test_constant_field(self, setup_a):
        hg = horizontal_gradient(setup_a, Constant(1.0, 3), [0.4, -0.2, 0.9])
        assert np.array_equal(hg, [0.0, 0.0])

    def test_psi_norm_closed_form(self, all_setups):
        # |grad_0 psi|^2 = c^2 Sigma^(2k-1) h^((1-2k)/(2k))
        for params in all_setups:
            psi = GaugePsi(params)
            for P in sample_points(params, 100, 21):
                g = gauge(params, P)
                hg = horizontal_gradient(params, psi, P)
                closed = (
                    params.c**2
                    * g.Sigma ** (2 * params.k - 1.0)
                    * g.h ** ((1.0 - 2 * params.k) / (2 * params.k))
                )
                assert float(hg @ hg) == pytest.approx(closed, rel=1e-10)

    def test_profile_norm_closed_form(self, all_setups):
        # |grad_0 psi^alpha|^2 = alpha^2 c^2 h^(2w-1) Sigma^(2k-1)
        for params in all_setups:
            for p in (1.5, 2.0, 3.0, 7.0):
                exps = exponents(params, p)
                if exps.is_log_case:
                    continue
                field = FundamentalProfile(params, p)
                for P in sample_points(params, 40, 22):
                    g = gauge(params, P)
                    hg = horizontal_gradient(params, field, P)
                    closed = (
                        exps.alpha**2
                        * params.c**2
                        * g.h ** (2 * exps.w - 1.0)
                        * g.Sigma ** (2 * params.k - 1.0)
                    )
                    assert float(hg @ hg) == pytest.approx(closed, rel=1e-10)


class TestHorizontalHessian:
    def test_vertical_coordinate_field(self, setup_a):
        t_field = Polynomial([(1.0, (0, 0, 1))], 3)
        M = horizontal_hessian_sym(setup_a, t_field, [1.0, 2.0, 5.0])
        assert np.allclose(M, 0.0, atol=1e-15)

    def test_constant_field(self, setup_b):
        M = horizontal_hessian_sym(setup_b, Constant(3.0, 3), [1.0, 2.0, 5.0])
        assert np.array_equal(M, np.zeros((2, 2)))

    def test_x1_squared(self, setup_a):
        field = Polynomial([(1.0, (2, 0, 0))], 3)
        M = horizontal_hessian_sym(setup_a, field, [1.0, 2.0, 5.0])
        assert np.allclose(M, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_symmetry(self, setup_c):
        field = FundamentalProfile(setup_c, 2.0)
        for P in sample_points(setup_c, 5, 31):
            M = horizontal_hessian_sym(setup_c, field, P)
            assert np.array_equal(M, M.T)


class TestPLaplacian:
    def test_profile_harmonic_hand_point(self, setup_a):
        field = FundamentalProfile(setup_a, 2.0)
        assert abs(p_laplacian(setup_a, field, [1.0, 1.0, 2.0], 2.0)) <= 1e-8

    def test_log_profile_harmonic_hand_point(self, setup_a):
        field = FundamentalProfile(setup_a, 4.0)
        assert abs(p_laplacian(setup_a, field, [1.0, 1.0, 2.0], 4.0)) <= 1e-8

    def test_coordinate_harmonic(self, setup_a):
        field = Polynomial([(1.0, (1, 0, 0))], 3)
        assert p_laplacian(setup_a, field, [0.7, -0.4, 1.3], 2.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_critical_point_convention(self, setup_a):
        # grad_0(x1^2) = (2 x1, 0) vanishes on {x1 = 0}
        field = Polynomial([(1.0, (2, 0, 0))], 3)
        P = [0.0, 1.0, 0.5]
        assert p_laplacian(setup_a, field, P, 3.0) == 0.0
        with pytest.raises(DegeneratePointError):
            p_laplacian(setup_a, field, P, 1.5)

    def test_harmonicity_sweep(self, all_setups):
        for params in all_setups:
            pts = sample_points(params, 25, 41)
            for p in (1.5, 2.0, 3.0, 7.0):
                if exponents(params, p).is_log_case:
                    continue
                field = FundamentalProfile(params, p)
                for P in pts:
                    hg = horizontal_gradient(params, field, P)
                    psi = gauge(params, P).psi
                    scale = 1.0 + float(hg @ hg) ** ((p - 1.0) / 2.0) / psi
                    assert abs(p_laplacian(params, field, P, p)) <= 1e-8 * scale

    def test_log_case_sweep(self, all_setups):
        for params in all_setups:
            p = params.Q
            field = FundamentalProfile(params, p)
            for P in sample_points(params, 25, 42):
                hg = horizontal_gradient(params, field, P)
                psi = gauge(params, P).psi
                scale = 1.0 + float(hg @ hg) ** ((p - 1.0) / 2.0) / psi
                assert abs(p_laplacian(params, field, P, p)) <= 1e-8 * scale

    def test_expansions_agree(self, all_setups):
        # trace + (p-2) infinity term versus the assembled divergence form
        for params in all_setups:
            pts = sample_points(params, 10, 43)
            for p in (1.5, 2.0, 3.0, 7.0):
                field = FundamentalProfile(params, p if not exponents(params, p).is_log_case else 2.5)
                for P in pts:
                    a = p_laplacian(params, field, P, p)
                    b = p_laplacian_divergence_form(params, field, P, p)
                    hg = horizontal_gradient(params, field, P)
                    psi = gauge(params, P).psi
                    scale = 1.0 + float(hg @ hg) ** ((p - 1.0) / 2.0) / psi
                    assert abs(a - b) <= 1e-9 * scale

    def test_prefactor_identity(self, all_setups, rng):
        # 2n + 2k + 2 chi + 4k upsilon == 0 for every valid p
        for params in all_setups:
            for _ in range(50):
                p = rng.uniform(1.01, 9.0)
                e = exponents(params, p)
                if e.is_log_case:
                    continue
                total = (
                    2 * params.n
                    + 2 * params.k
                    + 2 * chi_constant(params.k, p)
                    + 4 * params.k * upsilon_constant(e.w, p)
                )
                assert total == pytest.approx(0.0, abs=1e-12)


class TestInfinityLaplacian:
    def test_psi_infinity_harmonic_hand_points(self, setup_a, setup_b):
        assert abs(infinity_laplacian(setup_a, GaugePsi(setup_a), [1.0, 1.0, 2.0])) <= 1e-8
        assert abs(infinity_laplacian(setup_b, GaugePsi(setup_b), [1.0, 2.0, 5.0])) <= 1e-8

    def test_constant(self, setup_a):
        assert infinity_laplacian(setup_a, Constant(5.0, 3), [1.0, 1.0, 2.0]) == 0.0

    def test_psi_sweep(self, all_setups):
        for params in all_setups:
            psi = GaugePsi(params)
            for P in sample_points(params, 25, 44):
                hg = horizontal_gradient(params, psi, P)
                scale = 1.0 + float(hg @ hg) ** 1.5
                assert abs(infinity_laplacian(params, psi, P)) <= 1e-8 * scale


# ------------------------------------------------------------- Lie brackets


def _bcoef(params, i, P):
    # independent implementation of the t-coefficients for the FD oracle
    u = np.asarray(P, dtype=float)[: 2 * params.n] - params.a
    sigma = float(u @ u)
    n, k, c = params.n, params.k, params.c
    if i <= n:
        return 2 * k * c * u[i - 1 + n] * sigma ** (k - 1.0)
    return -2 * k * c * u[i - 1 - n] * sigma ** (k - 1.0)


def _random_cubic(params, rng):
    d = params.dim
    terms = [(float(rng.uniform(0.5, 1.5) * rng.choice([-1, 1])), (0,) * (d - 1) + (1,))]
    for _ in range(8):
        exps = [0] * d
        for _ in range(rng.integers(1, 4)):
            exps[rng.integers(0, d)] += 1
        terms.append((float(rng.normal()), tuple(exps)))
    return Polynomial(terms, d)


def _poly_partial(poly, m):
    terms = []
    for c, es in poly.terms:
        if es[m] == 0:
            continue
        new = list(es)
        new[m] -= 1
        terms.append((c * es[m], tuple(new)))
    if not terms:
        terms = [(0.0, (0,) * poly.dim)]
    return Polynomial(terms, poly.dim)


def _fd_commutator_t_coeff(params, i, j, P, phi, step):
    """[X_i, X_j] phi / (d phi / dt) with the outer derivatives by central FD."""
    d = params.dim
    dphi = [_poly_partial(phi, m) for m in range(d)]

    def xfield(idx, x):
        x = np.asarray(x, dtype=float)
        val = dphi[idx - 1].values(x[None, :])[0]
        dt = dphi[d - 1].values(x[None, :])[0]
        return val + _bcoef(params, idx, x) * dt

    def diff5(fn, x, direction):
        # fourth-order central stencil
        e = np.zeros(d)
        e[direction] = step
        return (
            -fn(x + 2 * e) + 8 * fn(x + e) - 8 * fn(x - e) + fn(x - 2 * e)
        ) / (12 * step)

    def apply_x(idx, fn, x):
        return diff5(fn, x, idx - 1) + _bcoef(params, idx, x) * diff5(fn, x, d - 1)

    P = np.asarray(P, dtype=float)
    commutator = apply_x(i, lambda x: xfield(j, x), P) - apply_x(
        j, lambda x: xfield(i, x), P
    )
    dt_phi = dphi[d - 1].values(P[None, :])[0]
    return commutator / dt_phi


class TestLieBracket:
    def test_setup_a_constant(self, setup_a, rng):
        for _ in range(5):
            P = setup_a.x0 + rng.uniform(-2, 2, 3)
            out = lie_bracket(setup_a, 1, 2, P)
            assert np.allclose(out, [0.0, 0.0, -4.0], atol=1e-12)

    def test_setup_b_hand_value(self, setup_b):
        out = lie_bracket(setup_b, 1, 2, [1.0, 2.0, 5.0])
        assert np.allclose(out, [0.0, 0.0, -80.0], rtol=1e-14)

    def test_vanishes_at_x0_for_k_above_one(self, setup_b, setup_c):
        assert np.array_equal(lie_bracket(setup_b, 1, 2, setup_b.x0), np.zeros(3))
        assert np.array_equal(lie_bracket(setup_c, 1, 3, setup_c.x0), np.zeros(5))

    def test_k_one_exact_delta_structure(self):
        params = SpaceParams(2, 1.0, -3.0)
        rng = np.random.default_rng(5)
        P = params.x0 + rng.uniform(-2, 2, params.dim)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                out = lie_bracket(params, i, j, P)
                expected = -4 * params.c if j - params.n == i else 0.0
                assert abs(out[-1] - expected) <= 1e-12
                assert not out[:-1].any()

    def test_fd_commutator_oracle(self, all_setups):
        rng = np.random.default_rng(77)
        for params in all_setups:
            pts = sample_points(params, 3, 51)
            for _ in range(20 // len(pts) + 1):
                phi = _random_cubic(params, rng)
                for P in pts:
                    step = 1e-4 * (1.0 + np.abs(P).max())
                    for i in range(1, 2 * params.n + 1):
                        for j in range(i + 1, 2 * params.n + 1):
                            want = _fd_commutator_t_coeff(params, i, j, P, phi, step)
                            got = lie_bracket(params, i, j, P)[-1]
                            assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    def test_index_validation(self, setup_a):
        with pytest.raises(ConfigurationError):
            lie_bracket(setup_a, 2, 1, [1.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            lie_bracket(setup_a, 1, 3, [1.0, 0.0, 0.0])


class TestPrintedBracket:
    def test_agrees_at_k_one(self, setup_a, rng):
        for _ in range(5):
            P = setup_a.x0 + rng.uniform(-2, 2, 3)
            assert np.allclose(
                lie_bracket_printed(setup_a, 1, 2, P),
                lie_bracket(setup_a, 1, 2, P),
                atol=1e-12,
            )

    def test_setup_b_hand_value(self, setup_b):
        # 16 (u2^2 - u1^2) - 8 Sigma = 48 - 40 = 8
        out = lie_bracket_printed(setup_b, 1, 2, [1.0, 2.0, 5.0])
        assert np.allclose(out, [0.0, 0.0, 8.0], rtol=1e-14)

    def test_comparison_report(self, setup_a, setup_b):
        pts_a = sample_points(setup_a, 4, 61)
        records = bracket_comparison(setup_a, pts_a)
        assert all(rec["agree"] for rec in records)
        pts_b = sample_points(setup_b, 4, 61)
        records_b = bracket_comparison(setup_b, pts_b)
        assert any(not rec["agree"] for rec in records_b)
        assert {"i", "j", "computed", "printed", "abs_diff", "agree"} <= set(records_b[0])
