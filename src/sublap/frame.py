"""Horizontal calculus for the frame X_1, ..., X_2n.

The frame on R^(2n+1) is

    X_i = d/dx_i + b_i(x) d/dt,
    b_i = +2kc (x_(i+n) - a_(i+n)) Sigma^(k-1)   for 1 <= i <= n,
    b_i = -2kc (x_(i-n) - a_(i-n)) Sigma^(k-1)   for n < i <= 2n.

The t-coefficients are t-independent, so the frame is divergence-free for
Lebesgue measure and second-order operators reduce to Euclidean 2-jets plus
the closed-form coefficient gradients below.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError, DegeneratePointError
from .fields import ScalarField
from .space import SpaceParams, as_point, as_points

# Rows per block when an operator runs over a batch of points: bounds the
# (rows, d, d) jet temporaries to about a megabyte whatever the batch size.
BLOCK_ROWS = 1024


def _over_blocks(fn, P: np.ndarray):
    """fn over row blocks of at most BLOCK_ROWS points, outputs concatenated."""
    if P.ndim == 1 or P.shape[0] <= BLOCK_ROWS:
        return fn(P)
    parts = [fn(P[i : i + BLOCK_ROWS]) for i in range(0, P.shape[0], BLOCK_ROWS)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


def _sigma_power(sigma: float, e: float, where: str) -> float:
    # Sigma^e for e possibly negative or zero at Sigma == 0.
    if e == 0.0:
        return 1.0
    if sigma == 0.0:
        if e > 0.0:
            return 0.0
        raise DegeneratePointError(f"{where}: undefined at Sigma = 0 for this k")
    return sigma**e


def _horizontal_offsets(params: SpaceParams, P: np.ndarray):
    u = P[..., : 2 * params.n] - params.a
    # matmul sums like the dot product of one point, bit for bit; a single
    # point gives a numpy scalar, whose powers round like Python floats
    sigma = _scalar((u[..., None, :] @ u[..., :, None])[..., 0, 0])
    return u, sigma


@functools.lru_cache(maxsize=None)
def _partners(n: int):
    """Partner coordinate and sign of each b_i, and the partner permutation matrix.

    Cached and shared between calls, so the arrays are read-only.
    """
    partner = np.r_[n : 2 * n, 0:n]
    out = partner, np.r_[np.ones(n), -np.ones(n)], np.eye(2 * n)[partner]
    for a in out:
        a.setflags(write=False)
    return out


def _scalar(x):
    # 0-d results become numpy scalars, so single points give plain floats.
    return np.asarray(x)[()]


def _any(mask) -> bool:
    # np.any costs microseconds on a numpy scalar; bool() does not.
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def t_coefficients(params: SpaceParams, P) -> np.ndarray:
    """All 2n t-coefficients b_i at P (dim,), or per row of P (N, dim)."""
    P = as_points(params, P)
    u, sigma = _horizontal_offsets(params, P)
    n, k, c = params.n, params.k, params.c
    if k < 1.0 and _any(sigma == 0.0):
        raise DegeneratePointError("t-coefficients undefined at Sigma = 0 for k < 1")
    sk1 = (sigma ** (k - 1.0))[..., None]  # 0^0 = 1 at k = 1
    b = np.empty(u.shape)
    b[..., :n] = 2 * k * c * u[..., n:] * sk1
    b[..., n:] = -2 * k * c * u[..., :n] * sk1
    return b


def t_coefficient_gradients(params: SpaceParams, P) -> np.ndarray:
    """(2n, 2n+1) array (per row of a batch): row i is the gradient of b_(i+1).

    d b_i / d x_m = +-2kc [ delta_(m,partner) Sigma^(k-1)
                            + 2(k-1) u_partner u_m Sigma^(k-2) ],
    d b_i / d t = 0.  At Sigma = 0 the gradients vanish for k > 1 (both
    terms are O(Sigma^(k-1))), are the constant delta terms at k = 1, and
    are undefined for k < 1.
    """
    P = as_points(params, P)
    u, sigma = _horizontal_offsets(params, P)
    n, k, c = params.n, params.k, params.c
    n2 = 2 * n
    axis = sigma == 0.0
    if _any(axis):
        if k < 1.0:
            raise DegeneratePointError("coefficient gradients: undefined at Sigma = 0 for this k")
        # evaluate the axis rows at Sigma = 1 (u = 0 there), then fix them below
        sigma = _scalar(np.where(axis, 1.0, sigma))
    sk1 = sigma ** (k - 1.0)
    if k == 1.0:
        sk2_term = np.zeros(u.shape + (n2,))
    else:
        sk2 = sigma ** (k - 2.0)
        sk2_term = (2 * (k - 1.0) * sk2)[..., None, None] * (u[..., :, None] * u[..., None, :])
    partner, sign, swap = _partners(n)
    coef = 2 * k * c * sign
    grads = np.zeros(u.shape + (params.dim,))
    grads[..., :n2] = (coef[:, None] * sk2_term[..., partner, :]
                       + (coef * sk1[..., None])[..., None] * swap)
    if k > 1.0 and _any(axis):
        grads[axis] = 0.0
    return grads


def frame_matrix(params: SpaceParams, P) -> np.ndarray:
    """(2n, 2n+1) matrix (per row of a batch) whose rows are the coefficients of X_i."""
    b = t_coefficients(params, P)
    E = np.zeros(b.shape + (params.dim,))
    E[..., : 2 * params.n] = np.eye(2 * params.n)
    E[..., 2 * params.n] = b
    return E


def _frame_jet(params: SpaceParams, field: ScalarField, P: np.ndarray):
    """(E, grads, jet): frame matrix, coefficient gradients, and the field's jet."""
    return frame_matrix(params, P), t_coefficient_gradients(params, P), field.jet(P)


def _horizontal_parts(params: SpaceParams, field: ScalarField, P):
    """(grad_0 f, (D^2 f)*) from one field jet per point, shapes (..., 2n), (..., 2n, 2n)."""
    n2 = 2 * params.n

    def block(P):
        E, grads, jet = _frame_jet(params, field, P)
        core = E @ jet.hess @ np.swapaxes(E, -1, -2)
        core = 0.5 * (core + np.swapaxes(core, -1, -2))  # matmul is not bit-symmetric
        # X_i b_j = E_i . grad b_j  (the t-component of grad b_j is zero)
        xb = E @ np.swapaxes(grads, -1, -2)
        gt = jet.grad[..., n2, None, None]
        hess = core + 0.5 * gt * (xb + np.swapaxes(xb, -1, -2))
        return (E @ jet.grad[..., None])[..., 0], hess

    return _over_blocks(block, as_points(params, P))


def _quadratic_form(g: np.ndarray, M: np.ndarray):
    return _scalar(np.einsum("...i,...ij,...j->...", g, M, g))


def horizontal_gradient(params: SpaceParams, field: ScalarField, P) -> np.ndarray:
    """(X_1 f, ..., X_2n f) at P (dim,), or per row of P (N, dim)."""
    return _horizontal_parts(params, field, P)[0]


def horizontal_hessian_sym(params: SpaceParams, field: ScalarField, P) -> np.ndarray:
    """Symmetrized second-order matrix (X_i X_j f + X_j X_i f) / 2, for i,j = 1..2n."""
    return _horizontal_parts(params, field, P)[1]


def infinity_laplacian(params: SpaceParams, field: ScalarField, P):
    """<grad_0 f, (D^2 f)* grad_0 f> at P, or per row of a batch."""
    return _quadratic_form(*_horizontal_parts(params, field, P))


def p_laplacian(params: SpaceParams, field: ScalarField, P, p: float):
    """div(|grad_0 f|^(p-2) grad_0 f) via the trace expansion, at P or per row.

    Uses |g|^(p-2) tr(D^2 f)* + (p-2) |g|^(p-4) <g, (D^2 f)* g>.  At points
    where grad_0 f vanishes exactly this returns 0 by convention for p >= 2
    and raises for p < 2.
    """
    hg, M = _horizontal_parts(params, field, P)
    gn2 = _scalar(np.einsum("...i,...i->...", hg, hg))
    trace = _scalar(np.trace(M, axis1=-2, axis2=-1))
    critical = gn2 == 0.0
    if _any(critical):
        if p < 2.0:
            raise DegeneratePointError(
                "p-Laplacian undefined where the horizontal gradient vanishes (p < 2)"
            )
        gn2 = np.where(critical, 1.0, gn2)  # the rows are set to 0 below
    if p == 2.0:
        out = trace
    else:
        out = (gn2 ** ((p - 2.0) / 2.0) * trace
               + (p - 2.0) * gn2 ** ((p - 4.0) / 2.0) * _quadratic_form(hg, M))
    return _scalar(np.where(critical, 0.0, out)) if _any(critical) else out


def p_laplacian_divergence_form(params: SpaceParams, field: ScalarField, P, p: float):
    """Same operator assembled as sum_i X_i(|grad_0 f|^(p-2) X_i f).

    Builds the Euclidean gradient of each flux component through the
    closed-form coefficient gradients; cross-checks the trace expansion.
    Requires grad_0 f != 0.
    """
    n2 = 2 * params.n

    def block(P):
        E, grads, jet = _frame_jet(params, field, P)
        gt = jet.grad[..., n2, None, None]
        xif = (E @ jet.grad[..., None])[..., 0]
        q = np.einsum("...i,...i->...", xif, xif)
        if _any(q == 0.0):
            raise DegeneratePointError("divergence form needs a nonvanishing gradient")
        # Euclidean gradient of X_i f, rows (..., 2n, d)
        grad_xf = E @ jet.hess + gt * grads
        grad_q = 2.0 * (xif[..., None, :] @ grad_xf)[..., 0, :]
        w = q ** ((p - 2.0) / 2.0)
        dw = (p - 2.0) / 2.0 * q ** ((p - 4.0) / 2.0)
        grad_flux = (dw[..., None, None] * xif[..., :, None] * grad_q[..., None, :]
                     + w[..., None, None] * grad_xf)
        return _scalar(np.einsum("...id,...id->...", E, grad_flux))

    return _over_blocks(block, as_points(params, P))


def lie_bracket(params: SpaceParams, i: int, j: int, P) -> np.ndarray:
    """[X_i, X_j] at P as a (2n+1)-coefficient vector; only d/dt survives.

    Computed from the closed-form coefficient gradients:
    [X_i, X_j] = (X_i b_j - X_j b_i) d/dt.
    """
    if not 1 <= i < j <= 2 * params.n:
        raise ConfigurationError(f"need 1 <= i < j <= {2 * params.n}, got ({i}, {j})")
    P = as_point(params, P)
    out = np.zeros(params.dim)
    out[2 * params.n] = _bracket_t(
        frame_matrix(params, P), t_coefficient_gradients(params, P), i, j
    )
    return out


def _bracket_t(E: np.ndarray, grads: np.ndarray, i: int, j: int) -> float:
    """t-coefficient of [X_i, X_j] from the frame matrix and coefficient gradients."""
    return float(E[i - 1] @ grads[j - 1] - E[j - 1] @ grads[i - 1])


def lie_bracket_printed(params: SpaceParams, i: int, j: int, P) -> np.ndarray:
    """Legacy case-split bracket formulas, evaluated verbatim.

    Kept for comparison reporting only: they agree with lie_bracket at k = 1
    but are known to disagree for k != 1 (see bracket_comparison).
    """
    if not 1 <= i < j <= 2 * params.n:
        raise ConfigurationError(f"need 1 <= i < j <= {2 * params.n}, got ({i}, {j})")
    P = as_point(params, P)
    u, sigma = _horizontal_offsets(params, P)
    n, k, c = params.n, params.k, params.c
    ii, jj = i - 1, j - 1

    def us(idx: int) -> float:
        return float(u[idx])

    if k == 1.0:
        lead = 0.0
    else:
        sk2 = _sigma_power(sigma, k - 2.0, "printed bracket")
        if j <= n:
            lead = 8 * k * c * (k - 1) * sk2 * (us(jj + n) * us(ii) - us(ii + n) * us(jj))
        elif i > n:
            lead = 8 * k * c * (k - 1) * sk2 * (us(ii - n) * us(jj) - us(jj - n) * us(ii))
        else:
            lead = 8 * k * c * (k - 1) * sk2 * (us(ii + n) * us(jj) - us(jj - n) * us(ii))
    out = np.zeros(params.dim)
    out[2 * params.n] = lead
    if i <= n < j and i == j - n:
        sk1 = _sigma_power(sigma, k - 1.0, "printed bracket")
        out[2 * params.n] -= 4 * k * c * sk1
    return out


def bracket_comparison(params: SpaceParams, points) -> list[dict]:
    """Compare lie_bracket with lie_bracket_printed over all pairs and points.

    Returns one record per (i, j, point) with both t-coefficients and an
    agreement flag at relative 1e-9.
    """
    records = []
    for P in points:
        P = as_point(params, P)
        E = frame_matrix(params, P)
        grads = t_coefficient_gradients(params, P)
        for i in range(1, 2 * params.n + 1):
            for j in range(i + 1, 2 * params.n + 1):
                computed = _bracket_t(E, grads, i, j)
                printed = float(lie_bracket_printed(params, i, j, P)[2 * params.n])
                diff = abs(computed - printed)
                records.append(
                    {
                        "i": i,
                        "j": j,
                        "point": [float(x) for x in P],
                        "computed": computed,
                        "printed": printed,
                        "abs_diff": diff,
                        "agree": bool(diff <= 1e-9 * (1.0 + abs(computed))),
                    }
                )
    return records
