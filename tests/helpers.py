"""Shared oracles for the test suite: finite differences and deterministic
quadrature, kept independent of the library code paths they check."""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, dblquad, quad

# ---------------------------------------------------------------- finite differences


def fd_gradient(fn, P, step):
    """Central-difference gradient of a scalar callable."""
    P = np.asarray(P, dtype=float)
    out = np.zeros(P.size)
    for m in range(P.size):
        hi = P.copy()
        lo = P.copy()
        hi[m] += step
        lo[m] -= step
        out[m] = (fn(hi) - fn(lo)) / (2 * step)
    return out


def fd_jacobian(vec_fn, P, step):
    """Central-difference Jacobian of a vector callable; rows index outputs."""
    P = np.asarray(P, dtype=float)
    cols = []
    for m in range(P.size):
        hi = P.copy()
        lo = P.copy()
        hi[m] += step
        lo[m] -= step
        cols.append((np.asarray(vec_fn(hi)) - np.asarray(vec_fn(lo))) / (2 * step))
    return np.stack(cols, axis=-1)


def close_scaled(a, b, rtol):
    """max |a - b| <= rtol * (1 + max |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) <= rtol * (1.0 + np.max(np.abs(b)))


# ---------------------------------------------------------------- quadrature oracles
#
# Every integrand in the library depends on the point only through
# (Sigma, tau), so volume integrals reduce to 2-D quadrature:
#   integral f dL = omega_{2n-1} * int int f(rho^2, tau) rho^(2n-1) drho dtau
# with omega the surface area of the unit (2n-1)-sphere.


def sphere_area(n):
    from math import gamma, pi

    return 2 * pi**n / gamma(n)


def grad_psi_sq_closed(n, k, c, rho, tau):
    h = c**2 * rho ** (4 * k) + tau * tau
    return c**2 * rho ** (4 * k - 2.0) * h ** ((1.0 - 2 * k) / (2 * k))


def sigma_p_quadrature(n, k, c, p, epsrel=1e-9):
    """sigma_p by deterministic 2-D quadrature over the unit gauge ball."""
    rho_max = abs(c) ** (-1.0 / (2 * k))

    def integrand(tau, rho):
        return grad_psi_sq_closed(n, k, c, rho, tau) ** (p / 2.0) * rho ** (2 * n - 1)

    def tau_max(rho):
        return np.sqrt(max(1.0 - c**2 * rho ** (4 * k), 0.0))

    with warnings.catch_warnings():
        # the inner integral has a square-root edge; accuracy is fine
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = dblquad(integrand, 0.0, rho_max, 0.0, tau_max, epsrel=epsrel)
    return 2.0 * sphere_area(n) * val


def pairing_quadrature(n, k, c, p, alpha, scale_u, bump_B, r, R, epsrel=1e-9):
    """The annulus pairing integral for u = scale_u * psi^alpha against the
    standard bump of support h < bump_B, by deterministic quadrature."""
    rho_max = R * abs(c) ** (-1.0 / (2 * k))
    r4, R4 = r ** (4 * k), R ** (4 * k)

    def integrand(tau, rho):
        h = c**2 * rho ** (4 * k) + tau * tau
        if not (r4 < h < R4):
            return 0.0
        psi = h ** (1.0 / (4 * k))
        s_u = scale_u * alpha * psi ** (alpha - 1.0)
        if h < bump_B:
            s_phi = -bump_B / (bump_B - h) ** 2 * np.exp(-h / (bump_B - h))
        else:
            s_phi = 0.0
        m2 = grad_psi_sq_closed(n, k, c, rho, tau)
        return (
            abs(s_u) ** (p - 2.0)
            * s_u
            * s_phi
            * (4 * k)
            * psi ** (4 * k - 1.0)
            * m2 ** (p / 2.0)
            * rho ** (2 * n - 1)
        )

    def tau_hi(rho):
        return np.sqrt(max(R4 - c**2 * rho ** (4 * k), 0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = dblquad(integrand, 0.0, rho_max, 0.0, tau_hi, epsrel=epsrel)
    return 2.0 * sphere_area(n) * val


def radial_capacity_quadrature(Q, p, alpha_or_none, r, R):
    """1-D coarea oracle: Q int_r^R |eta'|^p rho^(Q-1) drho for the explicit
    extremal profile (capacity in sigma_p units)."""
    if alpha_or_none is None:
        den = np.log(r) - np.log(R)

        def eta_prime(rho):
            return 1.0 / (rho * den)

    else:
        a = alpha_or_none
        den = r**a - R**a

        def eta_prime(rho):
            return a * rho ** (a - 1.0) / den

    val, _ = quad(lambda rho: abs(eta_prime(rho)) ** p * rho ** (Q - 1.0), r, R,
                  epsrel=1e-12)
    return Q * val


def coarea_quadrature(params, p, g, lo, hi):
    """1-D coarea oracle: the integral of g(psi) |grad_0 psi|^p over the band
    {lo < psi < hi}.

    The measure |grad_0 psi|^p dx gives the ball {psi < R} exactly
    sigma_p R^Q, so the band integral is Q sigma_p int_lo^hi g(rho) rho^(Q-1)
    drho, with sigma_p the closed form (itself checked against
    `sigma_p_quadrature`).  g takes a scalar rho.
    """
    from sublap import sigma_p_exact

    Q = params.Q
    val, _ = quad(lambda rho: g(rho) * rho ** (Q - 1.0), lo, hi, epsrel=1e-11, limit=200)
    return Q * sigma_p_exact(params, p) * val


# ---------------------------------------------------------------- MC reference pipeline
#
# The Monte Carlo estimators as whole arrays, without the shard kernel.
# `reference_mc` and `reference_sample_points` draw a whole (N, dim) uniform
# array per shard, map it to the point array lo + U * width of a box of the
# physical space (x0, c and all), and take (Sigma, tau, h) from the points,
# Sigma's squares added in coordinate order (`in_order_sum_of_squares`).
# `reference_lattice` builds each replicate of the unit box [-1, 1]^(2n+1)
# (c = 1, about 0) as one array of centred offsets y and takes (Sigma, tau,
# h) from them (`reference_centred_parts`).  The library
# must reproduce `reference_lattice` and `reference_sample_points` bit for
# bit; `reference_mc` checks its exact factors statistically.


def in_order_sum_of_squares(u):
    """sum_l u_l^2 over u's last axis, one square at a time in coordinate order."""
    total = u[..., 0] * u[..., 0]
    for j in range(1, u.shape[-1]):
        total = total + u[..., j] * u[..., j]
    return total


def reference_gauge_parts(params, pts):
    u = pts[:, : 2 * params.n] - params.a
    tau = pts[:, 2 * params.n] - params.s
    sigma = in_order_sum_of_squares(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = params.c**2 * sigma ** (2 * params.k) + tau * tau
    return sigma, tau, h


def reference_centred_parts(params, Y):
    """(Sigma, tau, h) of the unit space at the points 2Y of the unit box,
    from their centred offsets Y (N, dim): Sigma = 4 sum_l y_l^2, added in
    coordinate order, tau = 2 y_t and h = Sigma^(2k) + tau^2; only n and k
    of params count."""
    n2 = 2 * params.n
    sigma = 4.0 * in_order_sum_of_squares(Y[:, :n2])
    tau = 2.0 * Y[:, n2]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = sigma ** (2 * params.k) + tau * tau
    return sigma, tau, h


def reference_box(params, R):
    """(lo, width) of the box of the gauge ball B_R of params: half-widths
    R |c|^(-1/(2k)) horizontally and R^(2k) vertically, about x0."""
    half = np.full(params.dim, R * abs(params.c) ** (-1.0 / (2 * params.k)))
    half[-1] = R ** (2 * params.k)
    return params.x0 - half, 2.0 * half


def reference_mc(params, R, integrand, samples, seed, stream):
    """(mean, stderr, accepted) of integrand(pts) -> (values, accepted) over
    the bounding box of B_R of params, one whole point array per shard."""
    from sublap.montecarlo import SHARD_SIZE, _rng

    lo, width = reference_box(params, R)
    n_shards = (samples + SHARD_SIZE - 1) // SHARD_SIZE
    sums, sqsums, accepted = np.zeros(n_shards), np.zeros(n_shards), 0
    for idx in range(n_shards):
        count = min(SHARD_SIZE, samples - idx * SHARD_SIZE)
        pts = lo + _rng(seed, (*stream, idx)).random((count, params.dim)) * width
        vals, acc = integrand(pts)
        sums[idx], sqsums[idx] = float(vals.sum()), float((vals * vals).sum())
        accepted += acc
    raw_mean = float(sums.sum()) / samples
    raw_var = max(float(sqsums.sum()) / samples - raw_mean**2, 0.0)
    raw_var *= samples / (samples - 1.0)
    vol = float(np.prod(width))
    return vol * raw_mean, vol * float(np.sqrt(raw_var / samples)), accepted


def reference_lattice(params, integrand, samples, seed, stream):
    """(mean, stderr, accepted) of integrand(pts, parts) -> (values, accepted)
    over the unit box [-1, 1]^(2n+1) of params' n and k by the randomly
    shifted lattice, one whole array of centred offsets per replicate: point
    i of replicate j is 2y, y = i z / N + shift_j - 1/2 wrapped into
    [-1/2, 1/2] by rint, and parts its (Sigma, tau, h) from
    `reference_centred_parts`."""
    from sublap.montecarlo import _rng, generating_vector, lattice_shape

    N, reps = lattice_shape(samples)
    lattice = np.outer(np.arange(N), generating_vector(N, params.dim)) % N / N  # (N, dim)
    shifts = _rng(seed, stream).random((reps, params.dim)) - 0.5
    sums, accepted = np.zeros(reps), 0
    for j in range(reps):
        Y = lattice + shifts[j]
        Y -= np.rint(Y)
        vals, acc = integrand(2.0 * Y, reference_centred_parts(params, Y))
        sums[j] = vals.sum()
        accepted += acc
    means = sums * (2.0**params.dim / N)
    mean = float(means.sum()) / reps
    dev = means - mean
    return mean, float(np.sqrt(float((dev * dev).sum()) / (reps * (reps - 1.0)))), accepted


def reference_band(params, lo_h, hi_h, weight):
    """Integrand of the band lo_h < h < hi_h (lo_h None: h < hi_h) with
    weight(pts, Sigma, h) on the accepted points; (Sigma, tau, h) are the
    given parts, or those of the points."""

    def integrand(pts, parts=None):
        sigma, _, h = reference_gauge_parts(params, pts) if parts is None else parts
        inside = h < hi_h if lo_h is None else (h > lo_h) & (h < hi_h)
        vals = np.zeros(pts.shape[0])
        vals[inside] = weight(pts[inside], sigma[inside], h[inside])
        return vals, int(inside.sum())

    return integrand


def reference_bump(bump, h):
    out = np.zeros_like(h)
    inside = h < bump.B
    hs = h[inside]
    out[inside] = np.exp(-hs / (bump.B - hs))
    return out


def reference_bump_d_dh(bump, h):
    out = np.zeros_like(h)
    inside = h < bump.B * (1.0 - 1e-12)
    hs = h[inside]
    gap = bump.B - hs
    out[inside] = -(bump.B / gap) / gap * np.exp(-hs / gap)
    return out


def reference_sample_points(params, count, seed):
    """`sample_points` by whole point arrays: the box of B_2, psi >= 0.05, Sigma >= 1e-10."""
    from sublap.montecarlo import STREAM_POINTS, _rng

    lo, width = reference_box(params, 2.0)
    out = np.empty((count, params.dim))
    have = shard = 0
    while have < count:
        rng = _rng(seed, (STREAM_POINTS, 0, shard))
        pts = lo + rng.random((max(count, 256), params.dim)) * width
        sigma, _, h = reference_gauge_parts(params, pts)
        psi = h ** (1.0 / (4 * params.k))
        good = pts[(psi >= 0.05) & (sigma >= 1e-10)]
        take = min(count - have, good.shape[0])
        out[have : have + take] = good[:take]
        have += take
        shard += 1
    return out
