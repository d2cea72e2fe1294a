"""Seeded, shard-parallel Monte Carlo over gauge balls and shells.

Sampling is rejection from the anisotropic bounding box of a gauge ball:
{psi < R} sits inside |x_l - a_l| <= R |c|^(-1/(2k)), |t - s| <= R^(2k).
Every run draws from counter-based Philox streams keyed by (seed, stream,
shard), in fixed-size shards reduced in index order, so results are
bit-identical for a given seed regardless of the worker count.

Every estimator is one band integrand (a `Band`) fed to one kernel,
`_mc_over_box`.  A band is a radial weight on lo < h < hi times the measure
|grad_0 psi|^p that every estimate integrates against (the coarea measure
of the gauge); the kernel owns that factor and the one place where it
diverges: for k < 1/2 and p >= 2n/(1-2k) it blows up on the axis
{Sigma = 0}, which crosses every band, so every estimator raises there.
The Richardson limit of the thin-shell surface integrals is one band too:
the shells of halving widths are nested, so a step weight over the widest
shell combines them in one run, on one set of draws.

A shard draws its uniforms in blocks of BLOCK_ROWS rows; Philox yields the
same doubles in the same order whatever the block size.  Each block goes
straight to (Sigma, tau, h) one coordinate column at a time
(`fields.column_gauge_parts`), with no (N, dim) point array.  The band
selects the accepted rows, and the band's weight sees only their h; a
weight that needs the points themselves (a field that is not a function of
h) rebuilds them for the accepted rows alone.  The values of a shard land
in one shard-length array, summed once, so the block size does not change a
bit of the result.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .extrapolation import LimitTable, decreasing_radii, limit_table, richardson_weights
from .fields import ScalarField, column_gauge_parts, gauge_parts  # noqa: F401 (re-exported)
from .space import SpaceParams, check_integrable, sigma_p_exact

SHARD_SIZE = 1 << 16
# Rows drawn and mapped at a time: a block's columns stay in cache.
BLOCK_ROWS = 1 << 14
_MASK64 = (1 << 64) - 1

# Stream ids keep the estimates of one check independent of each other while
# still fully determined by the user seed.  The radii of one ahlfors,
# density or dirac check take STREAM_BALL + idx, STREAM_SHELL + 16 * idx and
# STREAM_PAIRING + 16 * idx.  Nothing re-estimates sigma_p to normalize a
# check: density, dirac and capacity divide by `space.sigma_p_exact`.
STREAM_BALL = 1
STREAM_SHELL = 2
STREAM_PAIRING = 3
STREAM_ENERGY = 5
STREAM_POINTS = 9

THREADS_ENV_VAR = "SUBLAP_THREADS"


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo integral: mean, standard error, sample count, seed."""

    mean: float
    stderr: float
    samples: int
    seed: int
    accepted: int = 0

    @property
    def accept_fraction(self) -> float:
        return self.accepted / self.samples


@dataclass(frozen=True)
class BallSpec:
    """Bounding box of the gauge ball {psi < R}."""

    R: float
    half_widths: np.ndarray  # (2n+1,)

    @property
    def volume(self) -> float:
        return float(np.prod(2.0 * self.half_widths))


def ball_spec(params: SpaceParams, R: float) -> BallSpec:
    if not R > 0:
        raise DomainError(f"radius must be positive, got {R!r}")
    hw = np.empty(params.dim)
    hw[: 2 * params.n] = R * abs(params.c) ** (-1.0 / (2 * params.k))
    hw[2 * params.n] = R ** (2 * params.k)
    hw.setflags(write=False)
    return BallSpec(R=float(R), half_widths=hw)


def resolve_threads(threads: int | None = None) -> int:
    if threads is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{THREADS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            threads = os.cpu_count() or 1
    if threads < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {threads}")
    return threads


def _shard_rng(seed: int, stream: int, shard: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed & _MASK64), np.uint64(((stream & 0xFFFF) << 40) | shard)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Band:
    """An MC integrand: weight * |grad_0 psi|^p on the band lo < h < hi, 0 elsewhere.

    weight(h, points) gets the accepted rows' h; points() returns those
    rows' points, for weights that need them.  weight None means 1, lo None
    no lower bound.
    """

    p: float
    hi: float
    weight: Callable | None = None
    lo: float | None = None


def _box(params: SpaceParams, spec: BallSpec):
    """Lower corner and widths of the box; its points are lo + U * width."""
    return params.x0 - spec.half_widths, 2.0 * spec.half_widths


def _draw(params: SpaceParams, rng: np.random.Generator, rows: int, lo, width):
    """rows uniform draws U in the box and the (Sigma, tau, h) of lo + U * width."""
    U = rng.random((rows, params.dim))
    return (U, *column_gauge_parts(params, U, lo, width))


def _mc_over_box(params, spec, integrand, samples, seed, stream, threads):
    """Plain MC of the band `integrand` over the box; returns (mean, stderr, accepted).

    Shards are reduced in index order.  Raises DomainError where the
    integral diverges (`space.check_integrable`).
    """
    p = integrand.p
    check_integrable(params, p)
    if samples < 10**4:
        raise DomainError(f"need at least 1e4 samples, got {samples}")
    lo, width = _box(params, spec)
    weight, half_p = integrand.weight, p / 2.0
    n_shards = (samples + SHARD_SIZE - 1) // SHARD_SIZE
    sums = np.zeros(n_shards)
    sqsums = np.zeros(n_shards)
    accepted = np.zeros(n_shards, dtype=np.int64)

    def run_shard(idx: int):
        count = min(SHARD_SIZE, samples - idx * SHARD_SIZE)
        rng = _shard_rng(seed, stream, idx)
        vals = np.zeros(count)
        acc = 0
        for start in range(0, count, BLOCK_ROWS):
            U, sigma, _, h = _draw(params, rng, min(BLOCK_ROWS, count - start), lo, width)
            inside = h < integrand.hi
            if integrand.lo is not None:
                inside &= h > integrand.lo
            hits = int(np.count_nonzero(inside))
            if hits:
                h_in = h[inside]
                val = grad_psi_norm_sq(params, sigma[inside], h_in) ** half_p
                if weight is not None:
                    val = weight(h_in, lambda: lo + U[inside] * width) * val
                vals[start : start + U.shape[0]][inside] = val
                acc += hits
        return idx, float(vals.sum()), float(np.dot(vals, vals)), acc

    workers = resolve_threads(threads)
    if workers > 1 and n_shards > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for idx, s, ss, acc in pool.map(run_shard, range(n_shards)):
                sums[idx], sqsums[idx], accepted[idx] = s, ss, acc
    else:
        for idx in range(n_shards):
            _, s, ss, acc = run_shard(idx)
            sums[idx], sqsums[idx], accepted[idx] = s, ss, acc

    vol = spec.volume
    raw_mean = float(sums.sum()) / samples
    raw_var = max(float(sqsums.sum()) / samples - raw_mean**2, 0.0)
    if samples > 1:
        raw_var *= samples / (samples - 1.0)
    mean = vol * raw_mean
    stderr = vol * float(np.sqrt(raw_var / samples))
    return mean, stderr, int(accepted.sum())


def grad_psi_norm_sq(params: SpaceParams, sigma, h) -> np.ndarray:
    """|grad_0 psi|^2 = c^2 Sigma^(2k-1) h^((1-2k)/(2k)), vectorized.

    Bounded by |c|^(1/k) for k >= 1/2; the Sigma = 0 limit is taken
    explicitly (0 for k > 1/2, c^2 at k = 1/2).
    """
    k, c = params.k, params.c
    sigma = np.asarray(sigma, dtype=float)
    h = np.asarray(h, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c**2 * sigma ** (2 * k - 1.0) * h ** ((1.0 - 2 * k) / (2 * k))
    degenerate = (sigma == 0.0) | (h == 0.0)
    if np.any(degenerate):
        out = np.where(degenerate, 0.0 if k > 0.5 else c**2 if k == 0.5 else np.inf, out)
    return out


def ball_measure(
    params: SpaceParams, p: float, R: float, samples: int, seed: int,
    threads: int | None = None, stream: int = STREAM_BALL,
) -> MCEstimate:
    """V(B_R) = integral over {psi < R} of |grad_0 psi|^p.

    Diverges for k < 1/2 and p >= 2n/(1-2k) (see `space.check_integrable`).
    """
    spec = ball_spec(params, R)
    band = Band(p=p, hi=R ** (4 * params.k))
    mean, stderr, acc = _mc_over_box(params, spec, band, samples, seed, stream, threads)
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed, accepted=acc)


def sigma_p(
    params: SpaceParams, p: float, samples: int, seed: int,
    threads: int | None = None, stream: int = STREAM_BALL,
) -> MCEstimate:
    """sigma_p = V(B_1), the normalizing constant of the Ahlfors scaling."""
    return ball_measure(params, p, 1.0, samples, seed, threads, stream=stream)


def _phi_values(phi: ScalarField, h, points):
    """phi on the accepted rows: from their h when phi is a function of h alone."""
    return phi.values_of_h(h) if phi.h_only else phi.values(points())


def shell_integral(
    params: SpaceParams, p: float, R: float, delta: float, phi: ScalarField,
    samples: int, seed: int, threads: int | None = None, stream: int = STREAM_SHELL,
) -> MCEstimate:
    """Thin-shell estimate of the surface integral of phi over {psi = R}.

    (1/(2 delta)) * integral over {R-delta < psi < R+delta} of
    phi |grad_0 psi|^p, an O(delta^2)-biased approximation of the coarea
    disintegration.
    """
    if not 0 < delta < R / 2:
        raise DomainError(f"need 0 < delta < R/2, got delta={delta}, R={R}")
    spec = ball_spec(params, R + delta)
    band = Band(p=p, hi=(R + delta) ** (4 * params.k),
                weight=lambda h, points: _phi_values(phi, h, points),
                lo=(R - delta) ** (4 * params.k))
    mean, stderr, acc = _mc_over_box(params, spec, band, samples, seed, stream, threads)
    scale = 1.0 / (2.0 * delta)
    return MCEstimate(
        mean=scale * mean, stderr=scale * stderr, samples=samples, seed=seed, accepted=acc
    )


def shell_integral_extrapolated(
    params: SpaceParams, p: float, R: float, phi: ScalarField,
    samples: int, seed: int, threads: int | None = None,
    delta_fracs: tuple[float, ...] = (0.1, 0.05, 0.025), stream: int = STREAM_SHELL,
) -> MCEstimate:
    """Richardson limit of `shell_integral` over halving widths d_i, in one MC run.

    The shells R - d_i < psi < R + d_i are nested, so one run over the box
    of the widest shell covers them all: the band is the widest shell and
    its weight is phi times the step function that sums c_i / (2 d_i) over
    the shells holding the row, c the Richardson weights.  Its mean is
    exactly the Richardson combination of the shell integrals, and its
    stderr is the plain MC stderr of one integrand; the widths share their
    draws, so no independence between them is assumed.
    """
    deltas = [frac * R for frac in delta_fracs]
    coeffs = richardson_weights(len(deltas))
    if not 0 < deltas[0] < R / 2:
        raise DomainError(f"need 0 < delta < R/2, got delta={deltas[0]}, R={R}")
    if any(abs(2.0 * b - a) > 1e-12 * a for a, b in zip(deltas, deltas[1:])):
        raise DomainError(f"shell widths must halve, got fractions {delta_fracs}")
    four_k = 4 * params.k
    # (lo, hi, step) per shell; every accepted row lies in the widest one
    shells = [((R - d) ** four_k, (R + d) ** four_k, c / (2.0 * d))
              for c, d in zip(coeffs, deltas)]

    def weight(h, points):
        step = np.full(h.shape, shells[0][2])
        for lo, hi, s in shells[1:]:
            step[(h > lo) & (h < hi)] += s
        return step * _phi_values(phi, h, points)

    band = Band(p=p, hi=shells[0][1], weight=weight, lo=shells[0][0])
    mean, stderr, acc = _mc_over_box(
        params, ball_spec(params, R + deltas[0]), band, samples, seed, stream, threads
    )
    return MCEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed, accepted=acc)


def density_limit(
    params: SpaceParams, p: float, phi: ScalarField, radii, samples: int, seed: int,
    threads: int | None = None,
) -> LimitTable:
    """R^(1-Q)/(Q sigma_p) * surface integral of phi, for each R in radii.

    The sequence converges to phi(x0) as R -> 0; radii must be strictly
    decreasing, and three radii geometrically spaced.  sigma_p is the closed
    form, so each radius' stderr is its own shell run's, and the radii stay
    independent.
    """
    radii = decreasing_radii(radii)
    Q = params.Q
    Q_sigma = Q * sigma_p_exact(params, p)
    out = []
    for idx, R in enumerate(radii):
        # one stream per radius: the box sampler is scale-equivariant, so a
        # shared stream would give every radius the same points
        shell = shell_integral_extrapolated(
            params, p, R, phi, samples, seed, threads, stream=STREAM_SHELL + 16 * idx
        )
        scale = R ** (1.0 - Q) / Q_sigma
        out.append(
            MCEstimate(
                mean=scale * shell.mean, stderr=scale * shell.stderr, samples=samples,
                seed=seed, accepted=shell.accepted,
            )
        )
    return limit_table(radii, out, phi.values(params.x0[None])[0])


def sample_points(
    params: SpaceParams, count: int, seed: int,
    box_radius: float = 2.0, min_psi: float = 0.05, min_sigma: float = 1e-10,
) -> np.ndarray:
    """Random points in the bounding box of B_box_radius, away from the gauge axis.

    Rejects psi < min_psi and Sigma < min_sigma so that every returned point
    supports the full horizontal calculus for any k.
    """
    if count < 1:
        raise DomainError(f"need at least one point, got {count}")
    lo, width = _box(params, ball_spec(params, box_radius))
    out = np.empty((count, params.dim))
    have = 0
    shard = 0
    while have < count:
        rng = _shard_rng(seed, STREAM_POINTS, shard)
        U, sigma, _, h = _draw(params, rng, max(count, 256), lo, width)
        psi = h ** (1.0 / (4 * params.k))
        keep = np.flatnonzero((psi >= min_psi) & (sigma >= min_sigma))[: count - have]
        out[have : have + keep.size] = lo + U[keep] * width
        have += keep.size
        shard += 1
    return out
