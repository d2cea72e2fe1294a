"""The shard lattice kernel against a whole-replicate reference.

Every estimator must give exactly the mean, stderr and accepted count of
`helpers.reference_lattice`, which builds each replicate of the unit box as
one array of centred offsets, times the estimator's exact factor, at 1 and
2 threads, with a sample count that rounds down to R N points filling
neither a whole shard nor a whole chunk of the integrand, and c != 1 and an
offset base point, which only the factors and the weights see.
"""

import math
import sys
import threading

import numpy as np
import pytest
from helpers import (
    reference_band,
    reference_bump,
    reference_bump_d_dh,
    reference_centred_parts,
    reference_gauge_parts,
    reference_lattice,
    reference_sample_points,
)

from sublap import (
    ConfigurationError,
    CutoffBump,
    DomainError,
    FundamentalProfile,
    GaugeH,
    Polynomial,
    SpaceParams,
    ball_measure,
    closed_form_capacity,
    density_limit,
    dirac_limit,
    mc_energy,
    minimize_radial,
    normalization,
    sample_points,
    sigma_p_exact,
)
from sublap import frame
from sublap import montecarlo
from sublap.fields import AnnulusPotential, gauge_parts, grad_psi_norm_pow
from sublap.montecarlo import (
    CHUNK_ROWS,
    SHARD_SIZE,
    STREAM_DENSITY,
    STREAM_ENERGY,
    STREAM_PAIRING,
    _mc_over_box,
    _shard_gauge,
    lattice_shape,
    unshifted_lattice,
)

# 37 replicates of 4096 points: a partial last shard, which a band that
# accepts every row maps in whole chunks and a partial one
SAMPLES = 37 * 4096 + 2545
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
    return lambda pts, sigma, h: grad_psi_norm_pow(params.unit(), sigma, h, p)


def times(ref, log_factor):
    """A reference run times the exact factor exp(log_factor)."""
    mean, stderr, acc = ref
    factor = math.exp(log_factor)
    return mean * factor, stderr * factor, acc


def log_c_factor(params, p):
    """log |c|^((p-2n)/(2k)), the factor c brings to every band integral."""
    return (p - 2 * params.n) / (2 * params.k) * math.log(abs(params.c))


def ball_reference(params, R, samples, stream):
    """V(B_R): the unit ball's reference run times R^Q |c|^((P-2n)/(2k))."""
    ref = reference_lattice(params, reference_band(params, None, 1.0, power(params, P)),
                            samples, SEED, stream)
    return times(ref, params.Q * math.log(R) + log_c_factor(params, P))


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"n={n}")
def params(request):
    return SPACES[request.param]


@pytest.fixture(params=[1, 2], ids=lambda t: f"threads={t}")
def threads(request):
    return request.param


def test_samples_split_into_partial_shard_and_block():
    # the last shard is partial, and its accepted rows, when a band accepts
    # them all, fill whole chunks of the integrand and part of another
    points, reps = lattice_shape(SAMPLES)
    used = points * reps
    assert (points, reps) == (4096, 37) and used < SAMPLES
    last = used % SHARD_SIZE
    assert last and last % CHUNK_ROWS
    assert last > CHUNK_ROWS


def test_ball_measure(params, threads):
    est = ball_measure(params, P, 1.3, SAMPLES, SEED, threads, stream=(4, 0))
    assert_same(est, ball_reference(params, 1.3, SAMPLES, (4, 0)))


def density_reference(params, phi_weight):
    """The sphere average of density_limit's first radius as one unit ball
    integrand: phi + Z phi / Q from phi_weight(pts, h) at the unit ball's
    points and h, times |grad_0 psi|^P, on the stream (STREAM_DENSITY, 0),
    divided by sigma_P of the unit space."""

    def weight(pts, sigma, h):
        return phi_weight(pts, h) * power(params, P)(pts, sigma, h)

    band = reference_band(params, None, 1.0, weight)
    mean, stderr, acc = reference_lattice(params, band, SAMPLES, SEED, (STREAM_DENSITY, 0))
    sigma = sigma_p_exact(params.unit(), P)
    return mean / sigma, stderr / sigma, acc


def bump_weight(params, bump, R):
    """phi + Z phi / Q of the bump at h = R^(4k) h_1, Z phi = 4k h phi'(h)."""
    scale, top = 4 * params.k / params.Q, float(np.exp(4 * params.k * math.log(R)))

    def weight(pts, h):
        h = top * h
        return reference_bump(bump, h) + scale * h * reference_bump_d_dh(bump, h)

    return weight


def polynomial_weight(params, phi, R):
    """phi + Z phi / Q from phi's 2-jet at x0 + D y, D the half-widths
    R |c|^(-1/(2k)) and R^(2k) of the box of B_R."""
    generator = np.full(params.dim, 1.0 / params.Q)
    generator[-1] = 2 * params.k / params.Q
    log_half = np.full(params.dim, math.log(R) - math.log(abs(params.c)) / (2 * params.k))
    log_half[-1] = 2 * params.k * math.log(R)
    half = np.exp(log_half)

    def weight(pts, h):
        jet = phi.jet(params.x0 + pts * half)
        return jet.value + (pts * half * generator * jet.grad).sum(axis=1)

    return weight


def polynomial(params):
    e = np.zeros((2, params.dim), dtype=int)
    e[0, 0], e[1, -1], e[1, 1] = 1, 2, 1
    return Polynomial([(1.0, e[0]), (-0.5, e[1])], params.dim)


def test_shell_integral_with_bump(params, threads):
    # the bump's average over {psi = 0.8}
    bump = CutoffBump(params, 1.1)
    (est,) = density_limit(params, P, bump, [0.8], SAMPLES, SEED, threads)
    assert_same(est, density_reference(params, bump_weight(params, bump, 0.8)))


def test_shell_integral_with_polynomial(params, threads):
    # not a function of h: the kernel rebuilds the accepted points
    phi = polynomial(params)
    (est,) = density_limit(params, P, phi, [0.8], SAMPLES, SEED, threads)
    assert_same(est, density_reference(params, polynomial_weight(params, phi, 0.8)))
    assert est.mean != 0.0


def test_weak_pairing(params, threads):
    # the unit annulus (r/R0, 1) against the unit bump, with no factor: u is
    # the unit space's profile, and c cancels
    unit, k4, R0 = params.unit(), 4 * params.k, 1.25
    u = FundamentalProfile(unit, P, scale=normalization(unit, P, sigma_p_exact(unit, P)))
    phi = CutoffBump(unit, 1.0)

    def weight(pts, sigma, h):
        psi = h ** (1.0 / k4)
        s_u = u.eta_prime(psi)
        s_phi = reference_bump_d_dh(phi, h)
        return (np.abs(s_u) ** (P - 2.0) * s_u * s_phi * k4 * psi ** (k4 - 1.0)
                * power(params, P)(pts, sigma, h))

    (est,) = dirac_limit(params, P, CutoffBump(params, R0), [0.25], SAMPLES, SEED, threads)
    ref = reference_lattice(params, reference_band(params, (0.25 / R0) ** k4, 1.0, weight),
                            SAMPLES, SEED, (STREAM_PAIRING, 0))
    assert_same(est, ref)


def energy_reference(params, r, R, samples):
    """The annulus energy in sigma_p units: R^(Q-p) times the reference run
    of the unit annulus (r/R, 1) over the unit space's exact sigma_p."""
    k4, unit = 4 * params.k, params.unit()
    potential = AnnulusPotential(unit, P, r / R, 1.0)

    def weight(pts, sigma, h):
        psi = h ** (1.0 / k4)
        return np.abs(potential.eta_prime(psi)) ** P * power(params, P)(pts, sigma, h)

    ref = reference_lattice(params, reference_band(params, (r / R) ** k4, 1.0, weight),
                            samples, SEED, (STREAM_ENERGY, 0))
    return times(ref, (params.Q - P) * math.log(R) - math.log(sigma_p_exact(unit, P)))


def test_mc_energy(params, threads):
    est = mc_energy(params, P, 0.6, 1.4, SAMPLES, SEED, threads)
    assert_same(est, energy_reference(params, 0.6, 1.4, SAMPLES))


def test_back_to_back_runs_match_reference(monkeypatch):
    # Each worker reuses one set of buffers for every shard of a run, and
    # the next run reuses the set.  On one thread, a run that fills its
    # shard values, then a sparse band in another dimension and a run
    # shorter than one shard; then more
    # threads than shards, on a machine that claims eight CPUs.  A value
    # left from an earlier shard, or a buffer kept from a run in another
    # dimension, would move a bit.
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 8)
    seven, three = SPACES[3], SPACES[1]
    # the unit ball of R^3 at k = 0.75, 58% of the box: more than CHUNK_ROWS rows per shard
    mean, stderr, acc = _mc_over_box(three, P, samples=SAMPLES, seed=SEED, stream=(4, 0),
                                     threads=1)
    ref = reference_lattice(three, reference_band(three, None, 1.0, power(three, P)),
                            SAMPLES, SEED, (4, 0))
    assert (mean, stderr, acc) == ref
    assert acc > 0.55 * np.prod(lattice_shape(SAMPLES)) and 0.55 * SHARD_SIZE > CHUNK_ROWS

    # a thin weighted band 0.98 < psi < 1 in R^7
    bump = CutoffBump(seven, 1.1)
    k4 = 4 * seven.k
    est = _mc_over_box(seven, P, lambda h, _: bump.values_of_h(h), lo=0.98**k4,
                       samples=SAMPLES, seed=SEED, stream=(6, 0), threads=1)
    ref = reference_lattice(seven, reference_band(
        seven, 0.98**k4, 1.0,
        lambda pts, sigma, h: reference_bump(bump, h) * power(seven, P)(pts, sigma, h)),
        SAMPLES, SEED, (6, 0))
    assert est == ref
    assert 0 < est[2] < 0.05 * SAMPLES

    for params, samples, threads in ((three, 10**4, 1), (seven, SAMPLES, 8)):
        est = ball_measure(params, P, 1.3, samples, SEED, threads, stream=(4, 0))
        assert_same(est, ball_reference(params, 1.3, samples, (4, 0)))
    assert 10**4 < SHARD_SIZE and 8 > -(-SAMPLES // SHARD_SIZE)


def test_more_threads_than_cores_match_reference(monkeypatch):
    # every worker thread must write only its own buffers and shards, also
    # with two runs at once; switching threads every few microseconds
    # interleaves their shards.  A run caps its workers at the usable CPUs,
    # so claim six of them.
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 6)
    params, samples = SPACES[2], 6 * SHARD_SIZE + 321
    refs = [ball_reference(params, 1.3, samples, (4, i)) for i in (0, 1)]
    ests = [None, None]

    def run(i):
        ests[i] = ball_measure(params, P, 1.3, samples, SEED, 6, stream=(4, i))

    runs = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in runs:
            thread.start()
        for thread in runs:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in runs)
    for est, ref in zip(ests, refs):
        assert_same(est, ref)


@pytest.mark.parametrize("threads, workers", [(2, 2), (3, 2), (100000, 2)])
def test_workers_capped_at_usable_cpus(monkeypatch, threads, workers):
    # no thread starts: on a machine that claims two CPUs, a serial
    # stand-in for the pool records the thread count it is given, one less
    # than the workers, since the calling thread is worker 0
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    params, samples = SPACES[1], 5 * SHARD_SIZE
    est = _mc_over_box(params, P, samples=samples, seed=SEED, stream=(4, 0), threads=threads)
    assert est == _mc_over_box(params, P, samples=samples, seed=SEED, stream=(4, 0), threads=1)
    assert sizes == [workers - 1]  # one thread maps without a pool


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    assert montecarlo.usable_cpus() == 3
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert montecarlo.usable_cpus() == 1


def test_thread_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
    assert montecarlo.resolve_threads(None) == 3
    assert montecarlo.resolve_threads(5) == 5
    for bad in (0, -2):
        with pytest.raises(ConfigurationError, match="thread count must be >= 1"):
            montecarlo.resolve_threads(bad)


@pytest.mark.parametrize("chunk_rows", [1000, 4096, 1 << 16])
def test_block_size_changes_no_bit(monkeypatch, threads, chunk_rows):
    # the integrand sees a shard's accepted rows in chunks of CHUNK_ROWS: a
    # chunk boundary moves where they are gathered, weighted (the density's
    # polynomial rebuilds its points) and scattered, never which rows or in
    # what order; a chunk of 2^16 rows holds every accepted row of a shard
    params = SPACES[2]
    phi = polynomial(params)
    monkeypatch.setattr(montecarlo, "CHUNK_ROWS", chunk_rows)
    ball = ball_measure(params, P, 1.3, SAMPLES, SEED, threads, stream=(4, 0))
    assert_same(ball, ball_reference(params, 1.3, SAMPLES, (4, 0)))
    (density,) = density_limit(params, P, phi, [0.8], SAMPLES, SEED, threads)
    assert_same(density, density_reference(params, polynomial_weight(params, phi, 0.8)))


def test_blocks_accepting_no_row_or_every_row(params, threads):
    # the band top is 1, so lo = 1 accepts no row, and a run that accepts
    # none has no estimate; no band of the unit ball accepts every row of
    # the box; the densest, n = 1's, fills whole chunks in
    # test_back_to_back_runs_match_reference
    run = {"samples": SAMPLES, "seed": SEED, "stream": (4, 0), "threads": threads}
    with pytest.raises(DomainError, match="none of the run's"):
        _mc_over_box(params, P, lo=1.0, **run)


def test_sample_points_match_reference(params):
    for count in (7, 300):
        assert np.array_equal(sample_points(params, count, 5),
                              reference_sample_points(params, count, 5))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sigma_matches_einsum(n, rng):
    # one Sigma, the squares of the offsets added in coordinate order: the
    # library's arrays, the 2-jet of h and the frame give the same bits
    params = SpaceParams(n, 1.0, 1.0, rng.uniform(-1, 1, 2 * n + 1))
    pts = rng.uniform(-3, 3, (5000, params.dim))
    sigma, tau, h = gauge_parts(params, pts)
    ref = reference_gauge_parts(params, pts)
    assert np.array_equal(sigma, ref[0])
    assert np.array_equal(tau, ref[1])
    assert np.array_equal(h, ref[2])
    assert np.array_equal(GaugeH(params).jet(pts).value, h)
    assert np.array_equal(frame._horizontal_offsets(params, pts)[1], sigma)
    # the kernel maps a shard's replicates one coordinate column at a time,
    # from the centred offsets y: Sigma = 4 sum_l y_l^2, into the first 3 N
    # columns of a larger work array, whatever it held before
    lattice = unshifted_lattice(1024, params.dim)
    shifts = rng.random((3, params.dim)) - 0.5
    work = np.full((3, 4000), np.nan)
    sigma, h = _shard_gauge(params, lattice, shifts, work, np.empty(3 * 1024, bool))
    Y = np.concatenate([lattice.T + shift for shift in shifts])
    Y -= np.rint(Y)
    ref = reference_centred_parts(params, Y)
    assert np.array_equal(sigma, ref[0])
    assert np.array_equal(h, ref[2])
    # the unit box's points 2y: each square is 4 y_l^2 exactly
    assert np.array_equal(sigma, gauge_parts(params.unit(), 2.0 * Y)[0])


def test_capacity_normalizes_by_exact_sigma(monkeypatch):
    # one kernel run, the energy's; sigma_p is the closed form
    params = SPACES[1]
    streams = []
    kernel = montecarlo._mc_over_box

    def counted(*args, **run):
        streams.append(run["stream"])
        return kernel(*args, **run)

    monkeypatch.setattr(montecarlo, "_mc_over_box", counted)
    closed_form_capacity(params, P, 0.6, 1.4)
    minimize_radial(params, P, 0.6, 1.4, 16)
    mc = mc_energy(params, P, 0.6, 1.4, 2 * 10**4, SEED)
    assert streams == [(STREAM_ENERGY, 0)]
    mean, stderr, _ = energy_reference(params, 0.6, 1.4, 2 * 10**4)
    assert (mc.mean, mc.stderr) == (mean, stderr)


def test_bracket_comparison_builds_frame_once(monkeypatch, setup_c):
    pts = sample_points(setup_c, 3, 4)
    counts = {"t_coefficient_gradients": 0}
    for name in counts:
        real = getattr(frame, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(frame, name, counted)
    records = frame.bracket_comparison(setup_c, pts)
    assert counts == {"t_coefficient_gradients": 1}
    assert len(records) == 3 * 6
    for row, rec in enumerate(records):
        a, i, j = row // 6, rec["i"], rec["j"]
        assert rec["point"] == pts[a].tolist()
        assert rec["computed"] == frame.lie_bracket(setup_c, i, j, pts)[a, -1]
        assert rec["printed"] == frame.lie_bracket_printed(setup_c, i, j, pts)[a, -1]
