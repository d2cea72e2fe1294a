"""The block MC kernel against the point-array pipeline it replaced.

Every estimator must give exactly the mean, stderr and accepted count of
the reference in helpers.py, at 1 and 2 threads, with a sample count that
is a multiple of neither BLOCK_ROWS nor SHARD_SIZE and an offset base point.
"""

import numpy as np
import pytest
from helpers import (
    reference_band,
    reference_bump,
    reference_bump_d_dh,
    reference_gauge_parts,
    reference_mc,
    reference_sample_points,
)

from sublap import (
    CutoffBump,
    FundamentalProfile,
    LinearCombination,
    Polynomial,
    SpaceParams,
    annulus_capacity,
    ball_measure,
    mc_energy,
    normalization,
    sample_points,
    shell_integral,
    sigma_p_exact,
    weak_pairing,
)
from sublap import capacity as capacity_module
from sublap import frame
from sublap.fields import AnnulusPotential, column_gauge_parts, gauge_parts
from sublap.montecarlo import BLOCK_ROWS, SHARD_SIZE, STREAM_ENERGY, grad_psi_norm_sq

SAMPLES = 2 * SHARD_SIZE + BLOCK_ROWS + 2545  # a partial shard ending in a partial block
SEED = 77
P = 2.5

SPACES = {
    1: SpaceParams(1, 0.75, 1.3, [0.4, -0.3, 0.2]),
    2: SpaceParams(2, 1.5, -2.0, [0.1, 0.2, -0.3, 0.4, -0.5]),
    3: SpaceParams(3, 2.0, 0.7, [0.3, -0.2, 0.1, 0.5, -0.4, 0.2, 0.7]),
}


def assert_same(est, ref):
    assert (est.mean, est.stderr, est.accepted) == ref


def power(params, p):
    return lambda pts, sigma, h: grad_psi_norm_sq(params, sigma, h) ** (p / 2.0)


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"n={n}")
def params(request):
    return SPACES[request.param]


@pytest.fixture(params=[1, 2], ids=lambda t: f"threads={t}")
def threads(request):
    return request.param


def test_samples_split_into_partial_shard_and_block():
    assert SAMPLES % BLOCK_ROWS and SAMPLES % SHARD_SIZE
    assert SAMPLES % SHARD_SIZE > BLOCK_ROWS


def test_ball_measure(params, threads):
    est = ball_measure(params, P, 1.3, SAMPLES, SEED, threads, stream=4)
    ref = reference_mc(params, 1.3, reference_band(params, None, 1.3 ** (4 * params.k),
                                                   power(params, P)), SAMPLES, SEED, 4)
    assert_same(est, ref)


def shell_reference(params, phi_values, R, delta, stream):
    k4 = 4 * params.k
    band = reference_band(
        params, (R - delta) ** k4, (R + delta) ** k4,
        lambda pts, sigma, h: phi_values(pts, h) * power(params, P)(pts, sigma, h),
    )
    mean, stderr, acc = reference_mc(params, R + delta, band, SAMPLES, SEED, stream)
    scale = 1.0 / (2.0 * delta)
    return scale * mean, scale * stderr, acc


def test_shell_integral_with_bump(params, threads):
    bump = CutoffBump(params, 1.1, amplitude=1.7)
    est = shell_integral(params, P, 1.0, 0.1, bump, SAMPLES, SEED, threads, stream=6)
    ref = shell_reference(params, lambda pts, h: reference_bump(bump, h), 1.0, 0.1, 6)
    assert_same(est, ref)


def test_shell_integral_with_polynomial(params, threads):
    # not a function of h: the kernel rebuilds the accepted points
    e = np.zeros((2, params.dim), dtype=int)
    e[0, 0], e[1, -1], e[1, 1] = 1, 2, 1
    phi = Polynomial([(1.0, e[0]), (-0.5, e[1])], params.dim)
    est = shell_integral(params, P, 1.0, 0.1, phi, SAMPLES, SEED, threads, stream=6)
    ref = shell_reference(params, lambda pts, h: phi.values(pts), 1.0, 0.1, 6)
    assert_same(est, ref)
    assert est.mean != 0.0


def test_weak_pairing(params, threads):
    u = FundamentalProfile(params, P, scale=normalization(params, P, 1.9))
    phi = LinearCombination([CutoffBump(params, 1.0), CutoffBump(params, 0.8)], [1.0, 0.5])
    r, R, k, k4 = 0.2, 1.2, params.k, 4 * params.k

    def weight(pts, sigma, h):
        psi = h ** (1.0 / k4)
        s_u = u.eta_prime(psi)
        s_phi = reference_bump_d_dh(phi.fields[0], h) + 0.5 * reference_bump_d_dh(
            phi.fields[1], h)
        return (np.abs(s_u) ** (P - 2.0) * s_u * s_phi * k4 * psi ** (4 * k - 1.0)
                * grad_psi_norm_sq(params, sigma, h) ** (P / 2.0))

    est = weak_pairing(params, P, u, phi, r, R, SAMPLES, SEED, threads, stream=8)
    ref = reference_mc(params, R, reference_band(params, r**k4, R**k4, weight),
                       SAMPLES, SEED, 8)
    assert_same(est, ref)


def energy_reference(params, r, R, samples):
    """The annulus energy in sigma_p units: the reference MC run over the
    exact sigma_p."""
    k4 = 4 * params.k
    potential = AnnulusPotential(params, P, r, R)

    def weight(pts, sigma, h):
        psi = h ** (1.0 / k4)
        return (np.abs(potential.eta_prime(psi)) ** P
                * grad_psi_norm_sq(params, sigma, h) ** (P / 2.0))

    mean, stderr, acc = reference_mc(params, R, reference_band(params, r**k4, R**k4, weight),
                                     samples, SEED, STREAM_ENERGY)
    sigma = sigma_p_exact(params, P)
    return mean / sigma, stderr / sigma, acc


def test_mc_energy(params, threads):
    est = mc_energy(params, P, 0.6, 1.4, SAMPLES, SEED, threads)
    assert_same(est, energy_reference(params, 0.6, 1.4, SAMPLES))


def test_sample_points_match_reference(params):
    for count in (7, 300):
        assert np.array_equal(sample_points(params, count, 5),
                              reference_sample_points(params, count, 5))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sigma_matches_einsum(n, rng):
    params = SpaceParams(n, 1.0, 1.0, rng.uniform(-1, 1, 2 * n + 1))
    pts = rng.uniform(-3, 3, (5000, params.dim))
    sigma, tau, h = gauge_parts(params, pts)
    ref = reference_gauge_parts(params, pts)
    assert np.array_equal(sigma, ref[0])
    assert np.array_equal(tau, ref[1])
    assert np.array_equal(h, ref[2])
    # the box form maps lo + U * width with the same roundings
    lo, width = params.x0 - 1.5, np.full(params.dim, 3.0)
    U = rng.random((5000, params.dim))
    boxed = column_gauge_parts(params, U, lo, width)
    for got, want in zip(boxed, reference_gauge_parts(params, lo + U * width)):
        assert np.array_equal(got, want)


def test_capacity_normalizes_by_exact_sigma(monkeypatch):
    # one kernel run, the energy's; sigma_p is the closed form
    params = SPACES[1]
    streams = []
    kernel = capacity_module._mc_over_box

    def counted(params, spec, band, samples, seed, stream, threads):
        streams.append(stream)
        return kernel(params, spec, band, samples, seed, stream, threads)

    monkeypatch.setattr(capacity_module, "_mc_over_box", counted)
    results = [
        annulus_capacity(params, P, 0.6, 1.4, method, 2 * 10**4, SEED, m_knots=16)
        for method in capacity_module.METHODS
    ]
    assert streams == [STREAM_ENERGY]
    mc = results[-1]
    mean, stderr, _ = energy_reference(params, 0.6, 1.4, 2 * 10**4)
    assert (mc.value, mc.stderr) == (mean, stderr)


def test_bracket_comparison_builds_frame_once_per_point(monkeypatch, setup_c):
    pts = sample_points(setup_c, 3, 4)
    counts = {"frame_matrix": 0, "t_coefficient_gradients": 0}
    for name in counts:
        real = getattr(frame, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(frame, name, counted)
    records = frame.bracket_comparison(setup_c, pts)
    assert counts == {"frame_matrix": 3, "t_coefficient_gradients": 3}
    for rec, P_ in zip(records, np.repeat(pts, 6, axis=0)):
        want = frame.lie_bracket(setup_c, rec["i"], rec["j"], P_)[setup_c.dim - 1]
        assert rec["computed"] == want
