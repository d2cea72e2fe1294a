"""Batched evaluation: a jet or operator on an (N, dim) array of points must
equal the per-point results stacked row by row, and a bad row must raise the
same typed error as the per-point call."""

import numpy as np
import pytest

import sublap.frame as frame
from sublap import (
    AnnulusPotential,
    ArithmeticDomainError,
    Constant,
    CutoffBump,
    DegeneratePointError,
    FundamentalProfile,
    GaugeH,
    GaugePsi,
    Jet2,
    Polynomial,
    SingularPointError,
    SpaceParams,
    exponents,
    sample_points,
)

RTOL = 1e-12


def assert_rows_match(batched, pointwise):
    """batched equals the stacked per-point results, relative to their size."""
    stacked = np.stack([np.asarray(x, dtype=float) for x in pointwise])
    batched = np.asarray(batched, dtype=float)
    assert batched.shape == stacked.shape
    assert np.max(np.abs(batched - stacked)) <= RTOL * np.max(np.abs(stacked))


def _polynomial(dim, rng):
    terms = [(float(rng.normal()), tuple(rng.integers(0, 4, size=dim))) for _ in range(6)]
    terms.append((1.5, (0,) * (dim - 1) + (1,)))
    return Polynomial(terms, dim)


def _median_psi(params, pts):
    return float(np.median(GaugePsi(params).values(pts)))


def _fields(params, pts, rng):
    # the bump support splits the points in half
    support = _median_psi(params, pts)
    bump = CutoffBump(params, support)
    p = 2.5 if not exponents(params, 2.5).is_log_case else 3.0
    return {
        "gauge-h": GaugeH(params),
        "gauge-psi": GaugePsi(params),
        "profile": FundamentalProfile(params, p, scale=0.7),
        "log-profile": FundamentalProfile(params, params.Q),
        "bump": bump,
        "constant": Constant(2.0, params.dim),
        "polynomial": _polynomial(params.dim, rng),
        "potential": AnnulusPotential(params, p, 0.5, 3.0),
        "log-potential": AnnulusPotential(params, params.Q, 0.5, 3.0),
    }


@pytest.fixture
def setup_points(all_setups):
    return [(params, sample_points(params, 40, 5)) for params in all_setups]


class TestFieldJets:
    def test_batched_jets_match_pointwise(self, setup_points, rng):
        for params, pts in setup_points:
            for name, field in _fields(params, pts, rng).items():
                batched = field.jet(pts)
                rows = [field.jet(P) for P in pts]
                assert batched.shape == (len(pts),), name
                assert_rows_match(batched.value, [j.value for j in rows])
                assert_rows_match(batched.grad, [j.grad for j in rows])
                assert_rows_match(batched.hess, [j.hess for j in rows])
                assert np.array_equal(batched.hess, np.swapaxes(batched.hess, -1, -2))

    def test_bump_batch_straddles_its_support(self, setup_points):
        for params, pts in setup_points:
            support = _median_psi(params, pts)
            bump = CutoffBump(params, support)
            outside = GaugePsi(params).values(pts) >= support
            assert outside.any() and not outside.all()
            jet = bump.jet(pts)
            assert not jet.value[outside].any()
            assert not jet.grad[outside].any() and not jet.hess[outside].any()
            assert np.all(jet.value[~outside] > 0.0)

    def test_base_point_row_raises_like_the_point(self, setup_a):
        pts = sample_points(setup_a, 5, 7)
        pts[3] = setup_a.x0
        for field in (GaugePsi(setup_a), FundamentalProfile(setup_a, 2.0),
                      FundamentalProfile(setup_a, setup_a.Q)):
            with pytest.raises(SingularPointError):
                field.jet(setup_a.x0)
            with pytest.raises(SingularPointError):
                field.jet(pts)


class TestJetArithmetic:
    def test_domain_errors_on_one_bad_row(self):
        good = Jet2(np.array([1.0, 2.0, 3.0]), np.ones((3, 2)), np.zeros((3, 2, 2)))
        bad = Jet2(np.array([1.0, 0.0, 3.0]), np.ones((3, 2)), np.zeros((3, 2, 2)))
        neg = Jet2(np.array([1.0, -2.0, 3.0]), np.ones((3, 2)), np.zeros((3, 2, 2)))
        good / good
        good.log()
        with pytest.raises(ArithmeticDomainError, match="div"):
            good / bad
        with pytest.raises(ArithmeticDomainError, match="log"):
            bad.log()
        with pytest.raises(ArithmeticDomainError, match="pow"):
            neg**0.5
        with pytest.raises(ArithmeticDomainError, match="pow"):
            bad**1.5  # zero base with a nonzero gradient

    def test_flat_row_of_pow(self, rng):
        # a zero row with a flat jet gives the zero jet; other rows are untouched
        value = np.array([0.7, 0.0, 1.3])
        grad = rng.normal(size=(3, 2))
        grad[1] = 0.0
        hess = np.zeros((3, 2, 2))
        out = Jet2(value, grad, hess) ** 1.75
        assert out.value[1] == 0.0 and not out.grad[1].any() and not out.hess[1].any()
        for row in (0, 2):
            one = Jet2(value[row], grad[row], hess[row]) ** 1.75
            assert out.value[row] == one.value
            assert np.array_equal(out.grad[row], one.grad)
            assert np.array_equal(out.hess[row], one.hess)

    def test_scalar_batch_mix_broadcasts(self):
        x = Jet2.variable(np.array([1.0, 2.0]), 0, 2)
        y = Jet2.variable(3.0, 1, 2)
        out = x * y + 1.0
        assert np.array_equal(out.value, [4.0, 7.0])
        assert np.array_equal(out.grad, [[3.0, 1.0], [3.0, 2.0]])
        assert np.array_equal(out.hess[:, 0, 1], [1.0, 1.0])


def _operator_scale(params, field, pts, p=None):
    """Per row, the operator applied to |grad_0 f| and |(D^2 f)*|: the size of
    its summands, which bounds their rounding (the operator itself may cancel
    to rounding level, e.g. on a p-harmonic field)."""
    g = np.abs(frame.horizontal_gradient(params, field, pts))
    M = np.abs(frame.horizontal_hessian_sym(params, field, pts))
    inf = np.einsum("...i,...ij,...j->...", g, M, g)
    if p is None:
        return inf
    gn2 = np.einsum("...i,...i->...", g, g)
    trace = np.trace(M, axis1=-2, axis2=-1)
    return gn2 ** ((p - 2.0) / 2.0) * trace + abs(p - 2.0) * gn2 ** ((p - 4.0) / 2.0) * inf


def assert_operator_rows_match(batched, pointwise, scale):
    """Row by row within RTOL of the size of the operator's summands."""
    stacked = np.array([float(x) for x in pointwise])
    assert np.shape(batched) == stacked.shape
    assert np.all(np.abs(batched - stacked) <= RTOL * scale)


def _profile(params):
    return FundamentalProfile(params, 3.0 if not exponents(params, 3.0).is_log_case else 2.5)


class TestFrameOperators:
    def test_coefficients_match_pointwise(self, setup_points):
        for params, pts in setup_points:
            for fn in (frame.t_coefficients, frame.t_coefficient_gradients):
                assert_rows_match(fn(params, pts), [fn(params, P) for P in pts])

    def test_operators_match_pointwise(self, setup_points, rng):
        for params, pts in setup_points:
            fields = [GaugePsi(params), _profile(params),
                      FundamentalProfile(params, params.Q), _polynomial(params.dim, rng)]
            for field in fields:
                for fn in (frame.horizontal_gradient, frame.horizontal_hessian_sym):
                    assert_rows_match(fn(params, field, pts), [fn(params, field, P) for P in pts])
                assert_operator_rows_match(
                    frame.infinity_laplacian(params, field, pts),
                    [frame.infinity_laplacian(params, field, P) for P in pts],
                    _operator_scale(params, field, pts),
                )
                for p in (1.5, 2.0, 3.0, params.Q):
                    scale = _operator_scale(params, field, pts, p)
                    assert_operator_rows_match(
                        frame.p_laplacian(params, field, pts, p),
                        [frame.p_laplacian(params, field, P, p) for P in pts], scale
                    )

    def test_single_point_gives_a_float(self, setup_b):
        P = [1.0, 2.0, 5.0]
        assert isinstance(frame.p_laplacian(setup_b, _profile(setup_b), P, 3.0), float)
        assert isinstance(frame.infinity_laplacian(setup_b, GaugePsi(setup_b), P), float)

    def test_blocks_match_one_pass(self, setup_c, monkeypatch):
        pts = sample_points(setup_c, 25, 9)
        field = _profile(setup_c)
        ops = (
            lambda: frame.horizontal_gradient(setup_c, field, pts),
            lambda: frame.horizontal_hessian_sym(setup_c, field, pts),
            lambda: frame.p_laplacian(setup_c, field, pts, 3.0),
        )
        whole = [op() for op in ops]
        monkeypatch.setattr(frame, "BLOCK_ROWS", 7)  # blocks of 7, 7, 7, 4 rows
        for op, ref in zip(ops, whole):
            assert_rows_match(op(), ref)

    def test_one_field_jet_per_call(self, setup_a, monkeypatch):
        calls = []
        field = _profile(setup_a)
        jet = field.jet
        monkeypatch.setattr(field, "jet", lambda P: calls.append(np.shape(P)) or jet(P))
        pts = sample_points(setup_a, 30, 9)
        frame.p_laplacian(setup_a, field, pts, 3.0)
        frame.infinity_laplacian(setup_a, field, pts)
        assert calls == [(30, 3), (30, 3)]

    def test_critical_row_convention(self, setup_a):
        # grad_0(x1^2) = (2 x1, 0) vanishes on {x1 = 0}
        field = Polynomial([(1.0, (2, 0, 0))], 3)
        pts = np.array([[0.5, 1.0, 0.5], [0.0, 1.0, 0.5], [-1.0, 0.2, 0.1]])
        out = frame.p_laplacian(setup_a, field, pts, 3.0)
        assert out[1] == 0.0
        assert_rows_match(out, [frame.p_laplacian(setup_a, field, P, 3.0) for P in pts])
        with pytest.raises(DegeneratePointError):
            frame.p_laplacian(setup_a, field, pts, 1.5)

    def test_axis_row_raises_like_the_point_for_small_k(self):
        # the frame is undefined at Sigma = 0 for k < 1
        params = SpaceParams(1, 0.75, 1.0)
        pts = sample_points(params, 6, 4)
        pts[2] = [0.0, 0.0, 1.0]
        psi = GaugePsi(params)
        for call in (
            lambda P: frame.t_coefficients(params, P),
            lambda P: frame.t_coefficient_gradients(params, P),
            lambda P: frame.horizontal_gradient(params, psi, P),
            lambda P: frame.p_laplacian(params, psi, P, 3.0),
        ):
            with pytest.raises(DegeneratePointError):
                call(pts[2])
            with pytest.raises(DegeneratePointError):
                call(pts)

    def test_axis_rows_vanish_for_k_above_one(self, setup_c):
        pts = sample_points(setup_c, 4, 4)
        pts[1, :-1] = setup_c.a
        grads = frame.t_coefficient_gradients(setup_c, pts)
        assert not grads[1].any()
        assert_rows_match(grads, [frame.t_coefficient_gradients(setup_c, P) for P in pts])
