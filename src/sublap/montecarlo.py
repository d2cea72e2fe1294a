"""Seeded, shard-parallel randomized quasi-Monte Carlo over the unit gauge ball.

Every estimate is one band integral: a radial weight times |grad_0 psi|^p
(the coarea measure of the gauge) on a band of gauge radii.  The gauge is
homogeneous: y -> x0 + (R |c|^(-1/(2k)) y_h, R^(2k) y_t) maps the unit ball
B_1 of c = 1 about 0 onto B_R, multiplies h by R^(4k) and the measure by
R^Q |c|^((p-2n)/(2k)), exactly.  So the one kernel, `_mc_over_box`, samples
only the unit band r^(4k) < h < 1 (no lower bound for a ball) of
`SpaceParams.unit()`, from the box [-1, 1]^(2n+1) of B_1, and sees no R, c
or x0.  Each estimator forms its exact factor in logs and checks only that
the value it reports is a normal float (`rescaled`).  A weight of h sees
the unit h, which its estimator maps; one that needs points gets the unit
ball's.  The kernel owns |grad_0 psi|^p (`fields.grad_psi_norm_pow`) and
its axis singularity: for k < 1/2 it grows like Sigma^((2k-1)p/2) near
{Sigma = 0}, which crosses every band, so its integral diverges for p >=
2n/(1-2k) (`space.check_integrable`) and its square for p >= n/(1-2k),
where the stderr bounds nothing; every estimator raises there.  The average
of phi over a sphere {psi = R} (`density_limit`) is one ball band too,
exactly: the R-derivative of the ball integral of phi, the sphere's
integral, is Q/R times the ball integral of phi + Z phi / Q, Z the
generator of the dilation delta_R.

The points in the box's unit cube are a randomly shifted rank-1 lattice: R
replicates of N = 2^m points, point i of replicate j at frac(i z / N +
shift_j).  z is the Korobov vector (1, a, a^2, ...) mod N of the multiplier
`KOROBOV[m][n - 1]` (n > 8 extends the n = 8 vector), which
tools/korobov_search.py found by the P_2 criterion.  Each shift makes its
replicate mean an unbiased estimate, and the R means are independent, so
the stderr is their sample standard deviation over sqrt(R).  A run asked
for `samples` points uses R N of them (`lattice_shape`): N the largest power
of two, up to 2^16, with R = samples // N at least MIN_REPLICATES, so more
than 96% of those asked for, and that count is what an MCEstimate reports.

The R shifts are drawn at once, (R, dim), by one SFC64 generator per run,
seeded by numpy's SeedSequence from the nonnegative user seed, taken whole,
with the spawn key (purpose, index), and 1/2 is subtracted from them once.
The unshifted lattice (dim, N) is built once per process for each (N, dim)
(`unshifted_lattice`, a small cache) and shared read-only by every run and
worker.  A run's R N points are cut into fixed-size shards, each holding
whole replicates, reduced in index order, so results are bit-identical for
a given seed regardless of the worker count.  A run has at most one worker
per shard and per usable CPU, whatever thread count it is given: its
calling thread and the threads it starts, worker w running shards w, w +
workers, ...

A shard holds R_s = SHARD_SIZE / N whole replicates and is mapped in one
pass.  A point of the box is 2y, y = frac(L + s) - 1/2 its centred offset,
L the lattice point and s the shift.  Coordinate j of a shard's offsets is
one broadcast add of the lattice's row j and the replicates' centred shifts
into an (R_s, N) view of a shard-length row, wrapped into [-1/2, 1/2] by
subtracting the mask y > 1/2 (bit for bit y - rint(y)), then squared into
numpy's einsum lane order (`fields.einsum_sum_of_squares`): Sigma = 4 sum_l
y_l^2 and tau = 2 y_t, with no point array.  The band's weight sees the
accepted rows (`np.flatnonzero` of its mask) CHUNK_ROWS at a time, their
Sigma and h gathered with `take`; a weight that needs points rebuilds them
from each row's replicate and lattice index.  The values are scattered by
index into a shard-length row, and each replicate's values are summed once,
by numpy's pairwise reduction over its N contiguous values, not a BLAS dot,
so neither the chunk size nor the BLAS thread count changes a bit.

Each worker of a run makes one set of buffers when it starts and passes it
to each of its shards: three shard-length float rows (two einsum lanes, and
a temporary that holds tau^2 and then the shard's values) and two bool
masks, about 1.7 MB in any dimension.  The set goes when the worker ends.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError
from .extrapolation import decreasing_radii
from .fields import (
    ScalarField, einsum_sum_of_squares, gauge_h, gauge_parts, grad_psi_norm_pow,
)
from .space import SpaceParams, check_integrable, sigma_p_exact

SHARD_SIZE = 1 << 16
# The band's weight sees a shard's accepted rows at most CHUNK_ROWS at a
# time, which bounds its temporaries.
CHUNK_ROWS = 1 << 13
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_FLOAT_TINY = float(np.finfo(float).tiny)

# The lattice of a run has N = 2^m points, 8 <= m <= LATTICE_MAX_LOG2 (N
# divides SHARD_SIZE, so a shard holds whole replicates), and at least
# MIN_REPLICATES replicates, so that a z-gate on the replicate stderr (a t
# statistic with R - 1 degrees of freedom) keeps near-Gaussian tails:
# P(|t_31| > 4) is about 4e-4.
LATTICE_MAX_LOG2 = 16
MIN_REPLICATES = 32
# KOROBOV[m][n - 1]: the odd multiplier a of the generating vector
# (1, a, a^2, ...) mod 2^m in 2n + 1 dimensions, printed by
# `python3 tools/korobov_search.py`.
KOROBOV = {
    8: (55, 21, 221, 243, 213, 243, 219, 219),
    9: (119, 477, 203, 109, 285, 221, 373, 221),
    10: (393, 131, 821, 563, 981, 43, 291, 373),
    11: (1669, 899, 153, 615, 1755, 109, 109, 773),
    12: (563, 805, 1191, 3687, 2263, 3893, 3863, 3261),
    13: (4533, 2899, 567, 6893, 293, 6491, 1731, 5773),
    14: (13169, 1705, 12249, 11851, 451, 13715, 10565, 3123),
    15: (22627, 29387, 7309, 11837, 14539, 24323, 31395, 19531),
    16: (5907, 40245, 26393, 4201, 6573, 14573, 64565, 25883),
}

# A stream is (purpose, index): the purpose names what a run estimates, the
# index tells apart the runs of one purpose in one check (the i-th radius of
# ahlfors, density or dirac takes (STREAM_BALL, i), (STREAM_DENSITY, i) or
# (STREAM_PAIRING, i)).  It is the SeedSequence spawn key of a run's shifts
# (with the shard, of sample_points' draws), so the estimates of one check
# are independent of each other while still fully determined by the user
# seed.  Nothing re-estimates sigma_p to normalize a check: density, dirac
# and capacity take `space.sigma_p_exact`.
STREAM_BALL = 1
STREAM_DENSITY = 2
STREAM_PAIRING = 3
STREAM_ENERGY = 5
STREAM_POINTS = 9
Stream = tuple[int, int]

# sample_points draws from the box of the gauge ball of radius
# POINTS_BOX_RADIUS and keeps the points with psi >= POINTS_MIN_PSI and
# Sigma >= POINTS_MIN_SIGMA, where the full horizontal calculus is defined
# for every k.
POINTS_BOX_RADIUS = 2.0
POINTS_MIN_PSI = 0.05
POINTS_MIN_SIGMA = 1e-10


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo integral: mean, standard error, the points used, the
    accepted points and the replicates whose means give the stderr."""

    mean: float
    stderr: float
    samples: int
    accepted: int
    replicates: int

    @property
    def accept_fraction(self) -> float:
        return self.accepted / self.samples


def lattice_shape(samples: int) -> tuple[int, int]:
    """(N, R) of a run asked for `samples` points: N = 2^m the largest power
    of two with samples / N >= MIN_REPLICATES, m capped at LATTICE_MAX_LOG2,
    and R = samples // N replicates.  Any samples >= 1e4 gives m >= 8."""
    m = min(LATTICE_MAX_LOG2, (samples // MIN_REPLICATES).bit_length() - 1)
    return 1 << m, samples // (1 << m)


def generating_vector(points: int, dim: int) -> np.ndarray:
    """The Korobov vector z = (1, a, a^2, ...) mod N of the lattice of N =
    `points` points in `dim` = 2n + 1 dimensions (the n = 8 multiplier for n > 8)."""
    a = KOROBOV[points.bit_length() - 1][min((dim - 1) // 2, 8) - 1]
    z = np.empty(dim, dtype=np.int64)
    z[0] = 1
    for j in range(1, dim):
        z[j] = z[j - 1] * a % points
    return z


# a pass runs a few (N, dim); one lattice takes 8 dim N bytes
@functools.lru_cache(maxsize=4)
def unshifted_lattice(points: int, dim: int) -> np.ndarray:
    """The lattice's points i z / N mod 1, one contiguous row per coordinate:
    (dim, N).  Built once per (points, dim) and returned read-only, the same
    array to every run and worker thread."""
    i = np.arange(points, dtype=np.int64)
    lattice = (generating_vector(points, dim)[:, None] * i % points) / points
    lattice.setflags(write=False)
    return lattice


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def resolve_threads(threads: int | None = None) -> int:
    """The thread count asked for, or the usable CPUs when None."""
    if threads is None:
        return usable_cpus()
    if threads < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {threads}")
    return threads


def _check_seed(seed: int) -> None:
    """Raise ConfigurationError unless the seed is nonnegative: SeedSequence
    takes every nonnegative integer whole, so distinct seeds draw distinct
    streams."""
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")


def _shard_rng(seed: int, stream: Stream, shard: int) -> np.random.Generator:
    key = np.random.SeedSequence(seed, spawn_key=(*stream, shard))
    return np.random.Generator(np.random.SFC64(key))


def _stream_rng(seed: int, stream: Stream) -> np.random.Generator:
    """The generator of a kernel run's shifts."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=stream)))


@dataclass(frozen=True)
class Band:
    """An MC integrand of the unit space: weight * |grad_0 psi|^p on the
    band lo < h < hi, 0 elsewhere.

    weight(h, points) gets the accepted rows' h; points() returns those
    rows' points, for weights that need them.  weight None means 1, lo None
    no lower bound.
    """

    p: float
    hi: float = 1.0
    weight: Callable | None = None
    lo: float | None = None


def _wrap(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """x - rint(x) in place for x in [-1/2, 3/2), where rint(x) is 1 exactly
    when x > 1/2: minus the bools x > 1/2 (into `mask`), faster than `where=`."""
    return np.subtract(x, np.greater(x, 0.5, out=mask), out=x)


def _shard_column(lattice, shifts, j: int, out, mask):
    """`out` = coordinate j of the centred offsets of the replicates whose
    centred shifts are `shifts` (R_s, dim): one broadcast add into out's
    (R_s, N) view, then the wrap.  `mask` holds out.size bools."""
    np.add(lattice[j], shifts[:, j, None], out=out.reshape(len(shifts), -1))
    return _wrap(out, mask)


def _shard_gauge(params, lattice, shifts, work, mask):
    """(Sigma, h) at the box points 2y of the replicates whose centred
    shifts are `shifts` (R_s, dim), one column at a time, in the first R_s N
    columns of `work` (3, >= R_s N): Sigma = 4 sum_l y_l^2 in work[0], h in
    work[1]; `mask` holds R_s N bools."""
    n2 = 2 * params.n
    rows = len(shifts) * lattice.shape[1]
    lanes, tmp = work[:2, :rows], work[2, :rows]

    def square(j, out):
        _shard_column(lattice, shifts, j, out, mask)
        out *= out

    sigma = einsum_sum_of_squares(n2, square, lanes, tmp)
    sigma *= 4.0
    tau_sq = _shard_column(lattice, shifts, n2, tmp, mask)
    tau_sq *= 2.0
    tau_sq *= tau_sq
    return sigma, gauge_h(params, sigma, tau_sq, lanes[1])


def _mc_over_box(params, integrand, *, samples, seed, stream, threads):
    """Lattice MC of the band `integrand` of `params.unit()` (only n and k
    count) over the box [-1, 1]^(2n+1); returns (mean, stderr, accepted).

    Runs the R N points of `lattice_shape(samples)`.  Shards are reduced in
    index order.  Raises DomainError where the integral diverges
    (`space.check_integrable`) or its square does, and ConfigurationError
    for a negative seed, before any draw; DomainError after the draws when a
    replicate mean is not a finite float.
    """
    params, p = params.unit(), integrand.p
    check_integrable(params, p)
    # the square's axis integral, Sigma^((2k-1)p + n - 1) dSigma, with check_integrable's slack
    if params.k < 0.5 and p >= params.n / (1.0 - 2 * params.k) * (1.0 - 1e-12):
        raise DomainError(f"the MC integrand has infinite variance for k < 1/2 and p >= "
                          f"n/(1-2k) = {params.n / (1.0 - 2 * params.k):g}, got p={p:g}")
    if samples < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {samples}")
    _check_seed(seed)
    weight = integrand.weight
    points, reps = lattice_shape(samples)
    total = points * reps
    lattice = unshifted_lattice(points, params.dim)
    shifts = _stream_rng(seed, stream).random((reps, params.dim))
    shifts -= 0.5
    n_shards = (total + SHARD_SIZE - 1) // SHARD_SIZE
    rep_sums = np.zeros(reps)
    accepted = np.zeros(n_shards, dtype=np.int64)

    def run_shard(idx: int, floats, bools):
        first = idx * SHARD_SIZE
        count = min(SHARD_SIZE, total - first)
        work, (inside, above_lo) = floats[:, :count], bools[:, :count]
        sigma, h = _shard_gauge(params, lattice, shifts[first // points :][: count // points],
                                work, inside)
        np.less(h, integrand.hi, out=inside)
        if integrand.lo is not None:
            inside &= np.greater(h, integrand.lo, out=above_lo)
        rows_in = np.flatnonzero(inside)
        vals = work[2]  # free once h is formed
        vals.fill(0.0)
        for start in range(0, rows_in.size, CHUNK_ROWS):
            rows = rows_in[start : start + CHUNK_ROWS]
            h_in = h.take(rows)
            val = grad_psi_norm_pow(params, sigma.take(rows), h_in, p)
            if weight is not None:
                val = weight(h_in, lambda: shard_points(first + rows)) * val
            vals[rows] = val
        # a shard holds whole replicates; numpy's own pairwise sum of each,
        # since a BLAS dot's bits depend on its thread count
        return idx, vals.reshape(-1, points).sum(axis=1), rows_in.size

    def shard_points(index):
        """The run's points of these indices, 2y."""
        rep, i = np.divmod(index, points)
        return 2.0 * _wrap(lattice[:, i].T + shifts[rep])

    def store(idx, sums, acc):
        rep_sums[idx * SHARD_SIZE // points :][: sums.size] = sums
        accepted[idx] = acc

    # more workers than CPUs only add threads and buffers: no bit depends on the count
    workers = min(resolve_threads(threads), usable_cpus(), n_shards)

    def run_worker(w: int):
        floats, bools = np.empty((3, SHARD_SIZE)), np.empty((2, SHARD_SIZE), dtype=bool)
        # a row outside the floats makes its replicate's mean inf or NaN: rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in range(w, n_shards, workers):
                store(*run_shard(idx, floats, bools))

    # the calling thread is worker 0, so a one-thread run starts no thread
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            helpers = pool.map(run_worker, range(1, workers))
            run_worker(0)
            list(helpers)  # raises what a helper raised
    else:
        run_worker(0)

    with np.errstate(over="ignore", invalid="ignore"):
        means = rep_sums * (2.0**params.dim / points)  # the box's volume over N
        mean = float(means.sum()) / reps
    if not math.isfinite(mean):
        raise DomainError(f"the MC estimate leaves the float range: a replicate mean "
                          f"or their mean, {mean!r}, is not a finite float")
    means -= mean
    # scaled by a power of two, which is exact, so that the deviations of a
    # tiny weight (means near 1e-164) do not square to 0
    exp = math.frexp(float(np.abs(means).max()))[1]
    np.ldexp(means, -exp, out=means)
    stderr = math.ldexp(math.sqrt(float((means * means).sum()) / (reps * (reps - 1.0))), exp)
    return mean, stderr, int(accepted.sum())


def band_estimate(
    params: SpaceParams, p: float, samples: int, seed: int, stream: Stream,
    threads: int | None, weight: Callable | None = None, r: float | None = None,
) -> MCEstimate:
    """The integral of weight * |grad_0 psi|^p over the unit band r^(4k) < h
    < 1 (the unit ball when r is None) of `params.unit()`, for its caller's
    exact factor.  weight(h, points) is a `Band` weight, None for 1."""
    lo = None if r is None else _normal(r ** (4 * params.k), "the unit band's r^(4k)")
    mean, stderr, accepted = _mc_over_box(params, Band(p=p, weight=weight, lo=lo),
                                          samples=samples, seed=seed, stream=stream,
                                          threads=threads)
    points, replicates = lattice_shape(samples)
    return MCEstimate(mean=mean, stderr=stderr, samples=points * replicates,
                      accepted=accepted, replicates=replicates)


def _normal(x, name: str):
    """x, a float or an array; DomainError unless each value is a normal float."""
    if not np.all((np.abs(x) >= _FLOAT_TINY) & (np.abs(x) < np.inf)):
        raise DomainError(f"{name} leaves the float range: {x} is not a normal float")
    return x


def rescaled(est: MCEstimate, log_factor: float) -> MCEstimate:
    """est times exp(log_factor), an exact factor formed in logs.  The one
    check on a reported value: DomainError unless its mean is a normal
    float, or 0 from a unit run of 0."""
    with np.errstate(over="ignore"):
        factor = float(np.exp(log_factor))
    if est.mean != 0.0 or factor == math.inf:
        _normal(est.mean * factor, "the MC estimate")
    return replace(est, mean=est.mean * factor, stderr=est.stderr * factor)


def check_radius(R: float) -> None:
    if not 0 < R < math.inf:
        raise DomainError(f"radius must be positive and finite, got {R!r}")


def sigma_p(
    params: SpaceParams, p: float, samples: int, seed: int, threads: int | None = None,
    stream: Stream = (STREAM_BALL, 0),
) -> MCEstimate:
    """sigma_p = V(B_1), the normalizing constant of the Ahlfors scaling."""
    return ball_measure(params, p, 1.0, samples, seed, threads, stream)


def ball_measure(
    params: SpaceParams, p: float, R: float, samples: int, seed: int,
    threads: int | None = None, stream: Stream = (STREAM_BALL, 0),
) -> MCEstimate:
    """V(B_R) = integral over {psi < R} of |grad_0 psi|^p: the unit ball's
    run times R^Q |c|^((p-2n)/(2k)).

    Diverges for k < 1/2 and p >= 2n/(1-2k) (see `space.check_integrable`).
    """
    check_radius(R)
    est = band_estimate(params, p, samples, seed, stream, threads)
    log_c_factor = (p - 2 * params.n) / (2 * params.k) * math.log(abs(params.c))
    return rescaled(est, params.Q * math.log(R) + log_c_factor)


def _dilation_weight(params: SpaceParams, phi: ScalarField, R: float) -> Callable:
    """The weight phi + Z phi / Q, Z = sum_l (x_l - a_l) d_l + 2k (t - s) d_t,
    at the point of B_R that each row of the unit ball maps to: Z f(h) = 4k h
    f'(h) at h = R^(4k) h_1, and any other field dots its 2-jet's gradient
    with Z at x0 + D y, D the half-widths of B_R's box."""
    k, Q = params.k, params.Q
    log_half = np.full(params.dim, math.log(R) - math.log(abs(params.c)) / (2 * k))
    log_half[-1] = 2 * k * math.log(R)
    with np.errstate(over="ignore"):
        half, top = np.exp(log_half), np.exp(4 * k * math.log(R))
    if phi.h_only:
        top, scale = _normal(top, f"R^(4k) at R = {R!r}"), 4 * k / Q

        def weight_of_h(h, _):
            h = top * h
            return phi.values_of_h(h) + scale * h * phi.d_dh_of_h(h)

        return weight_of_h
    _normal(half, f"the half-widths of the box of B_R at R = {R!r}")
    generator = np.full(params.dim, 1.0 / Q)
    generator[-1] = 2 * k / Q

    def weight(h, points):
        offsets = points() * half
        jet = phi.jet(params.x0 + offsets)
        return jet.value + (offsets * generator * jet.grad).sum(axis=1)

    return weight


def density_limit(
    params: SpaceParams, p: float, phi: ScalarField, radii, samples: int, seed: int,
    threads: int | None = None,
) -> list[MCEstimate]:
    """The |grad_0 psi|^p-weighted average of phi over the sphere {psi = R},
    one estimate per R in radii, which must be strictly decreasing: exactly
    phi(h = R^(4k)) when phi is a function of h alone, and phi(x0) in the
    limit R -> 0 for any continuous phi.

    Each is one ball run, exact for every C^1 phi (see the module
    docstring): (sigma_p R^Q)^(-1) times the integral of (phi + Z phi / Q)
    |grad_0 psi|^p over B_R, so the unit ball's run of the dilated weight
    over the closed-form sigma_p of the unit space, and its stderr its own.
    """
    radii = decreasing_radii(radii)
    sigma = sigma_p_exact(params.unit(), p)
    out = []
    for idx, R in enumerate(radii):
        weight = _dilation_weight(params, phi, R)
        # one stream per radius: the unit run is the same for every radius,
        # so a shared stream would give every radius the same points
        est = band_estimate(params, p, samples, seed, (STREAM_DENSITY, idx), threads, weight)
        out.append(replace(est, mean=est.mean / sigma, stderr=est.stderr / sigma))
    return out


def sample_points(params: SpaceParams, count: int, seed: int) -> np.ndarray:
    """Random points in the bounding box of B_POINTS_BOX_RADIUS, away from the gauge axis.

    Rejects psi < POINTS_MIN_PSI and Sigma < POINTS_MIN_SIGMA so that every
    returned point supports the full horizontal calculus for any k.  Before
    any draw: DomainError when no point of the box reaches POINTS_MIN_SIGMA
    or its largest Sigma, Sigma^(2k) or h is not a finite float,
    ConfigurationError for a negative seed.
    """
    if count < 1:
        raise DomainError(f"need at least one point, got {count}")
    _check_seed(seed)
    # the box's largest Sigma, 2n R^2 |c|^(-1/k), Sigma^(2k) (formed before
    # the factor c^2) and h, in logs
    k, log_c, log_r = params.k, math.log(abs(params.c)), math.log(POINTS_BOX_RADIUS)
    log_sigma = math.log(2 * params.n) + 2 * log_r - log_c / k
    if log_sigma < math.log(POINTS_MIN_SIGMA):
        raise DomainError(f"the box of B_{POINTS_BOX_RADIUS!r} holds no point with "
                          f"Sigma >= {POINTS_MIN_SIGMA!r}")
    log_h = np.logaddexp(2 * log_c + 2 * k * log_sigma, 4 * k * log_r)
    if max(log_sigma, 2 * k * log_sigma, log_h) >= _LOG_FLOAT_MAX:
        raise DomainError(f"the box of B_{POINTS_BOX_RADIUS!r} leaves the float range: "
                          "its largest Sigma, Sigma^(2k) or h is not a finite float")
    half = np.empty(params.dim)
    half[: 2 * params.n] = POINTS_BOX_RADIUS * abs(params.c) ** (-1.0 / (2 * k))
    half[2 * params.n] = POINTS_BOX_RADIUS ** (2 * k)
    lo, width = params.x0 - half, 2.0 * half
    out = np.empty((count, params.dim))
    have = 0
    shard = 0
    while have < count:
        rows = max(count, 256)
        pts = lo + _shard_rng(seed, (STREAM_POINTS, 0), shard).random((rows, params.dim)) * width
        sigma, _, h = gauge_parts(params, pts)
        psi = h ** (1.0 / (4 * params.k))
        keep = np.flatnonzero((psi >= POINTS_MIN_PSI) & (sigma >= POINTS_MIN_SIGMA))
        keep = keep[: count - have]
        out[have : have + keep.size] = pts[keep]
        have += keep.size
        shard += 1
    return out
