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
import itertools

import numpy as np

from .errors import ConfigurationError, DegeneratePointError
from .fields import ScalarField, squared_norm
from .space import SpaceParams, as_points

# Rows per block when an operator runs over a batch of points: bounds the
# (rows, d, d) jet temporaries to about a megabyte whatever the batch size.
BLOCK_ROWS = 1024


def _over_blocks(fn, P: np.ndarray):
    """fn over row blocks of at most BLOCK_ROWS points, each output of its tuple concatenated."""
    if P.ndim == 1 or P.shape[0] <= BLOCK_ROWS:
        return fn(P)
    parts = [fn(P[i : i + BLOCK_ROWS]) for i in range(0, P.shape[0], BLOCK_ROWS)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _horizontal_offsets(params: SpaceParams, P: np.ndarray):
    u = P[..., : 2 * params.n] - params.a
    return u, squared_norm(u)


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


def _horizontal_parts(params: SpaceParams, field: ScalarField, P):
    """(grad_0 f, (D^2 f)*) from one field jet per point, shapes (..., 2n), (..., 2n, 2n):
    X_i f = f_i + b_i f_t and, as d_t b_j = 0, X_i X_j f = f_ij + b_i f_tj + b_j f_ti
    + b_i b_j f_tt + (d_i b_j) f_t, symmetrized in groups that are exactly symmetric."""
    n2 = 2 * params.n

    def block(P):
        b, grads, jet = t_coefficients(params, P), t_coefficient_gradients(params, P), field.jet(P)
        g, H = jet.grad, jet.hess
        gt = g[..., n2, None]
        s = b[..., :, None] * H[..., n2, None, :n2]  # s_ij = b_i f_tj
        # X_i b_j + X_j b_i = d_i b_j + d_j b_i, from the gradients' horizontal columns
        xb_sym = grads[..., :n2] + np.swapaxes(grads[..., :n2], -1, -2)
        hess = (H[..., :n2, :n2] + (s + np.swapaxes(s, -1, -2))
                + H[..., n2, n2, None, None] * (b[..., :, None] * b[..., None, :])
                + 0.5 * gt[..., None] * xb_sym)
        return g[..., :n2] + b * gt, hess

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


def _check_pair(params: SpaceParams, i: int, j: int) -> None:
    if not 1 <= i < j <= 2 * params.n:
        raise ConfigurationError(f"need 1 <= i < j <= {2 * params.n}, got ({i}, {j})")


def _along_t(params: SpaceParams, coeff) -> np.ndarray:
    """The field coeff * d/dt as (2n+1)-coefficient vectors, one per entry of coeff."""
    out = np.zeros(np.shape(coeff) + (params.dim,))
    out[..., 2 * params.n] = coeff
    return out


def _bracket_coefficients(params: SpaceParams, P: np.ndarray) -> np.ndarray:
    """(2n, 2n) array (per row of a batch): entry (i-1, j-1) is the
    t-coefficient X_i b_j - X_j b_i of [X_i, X_j]."""
    # X_i b_j = d_i b_j, entry (j, i) of the gradients: b_j has no t-dependence
    grads = t_coefficient_gradients(params, P)[..., : 2 * params.n]
    return np.swapaxes(grads, -1, -2) - grads


def lie_bracket(params: SpaceParams, i: int, j: int, P) -> np.ndarray:
    """[X_i, X_j] at P (dim,), or per row of P (N, dim), as (2n+1)-coefficient
    vectors; only d/dt survives.

    Computed from the closed-form coefficient gradients:
    [X_i, X_j] = (X_i b_j - X_j b_i) d/dt.
    """
    _check_pair(params, i, j)
    coeffs = _bracket_coefficients(params, as_points(params, P))
    return _along_t(params, coeffs[..., i - 1, j - 1])


def lie_bracket_printed(params: SpaceParams, i: int, j: int, P) -> np.ndarray:
    """Legacy case-split bracket formulas at P (dim,), or per row of P (N, dim).

    Kept for comparison reporting only: they agree with lie_bracket at k = 1
    but are known to disagree for k != 1 (see bracket_comparison).  Their
    three index cases share one cross term, negated when j <= n.
    """
    _check_pair(params, i, j)
    u, sigma = _horizontal_offsets(params, as_points(params, P))
    n, k, c = params.n, params.k, params.c
    a, b = i - 1, j - 1

    def sigma_power(e: float):
        # 0^0 = 1 and 0^e = 0 for e > 0; a Sigma = 0 row has no negative power
        if e < 0.0 and _any(sigma == 0.0):
            raise DegeneratePointError("printed bracket: undefined at Sigma = 0 for this k")
        return sigma**e

    t = np.zeros(np.shape(sigma))
    if k != 1.0:
        partner = _partners(n)[0]
        cross = u[..., partner[a]] * u[..., b] - u[..., partner[b]] * u[..., a]
        t = 8 * k * c * (k - 1) * sigma_power(k - 2.0) * (-cross if j <= n else cross)
    if i == j - n:
        t = t - 4 * k * c * sigma_power(k - 1.0)
    return _along_t(params, t)


def bracket_comparison(params: SpaceParams, points) -> list[dict]:
    """Compare lie_bracket with lie_bracket_printed over all pairs and points.

    Returns one record per (point, i, j) with both t-coefficients and an
    agreement flag at relative 1e-9.  The frame is evaluated once, over all
    points together.
    """
    pts = np.atleast_2d(as_points(params, points))
    n2 = 2 * params.n
    computed = _bracket_coefficients(params, pts)
    pairs = list(itertools.combinations(range(1, n2 + 1), 2))
    printed = {(i, j): lie_bracket_printed(params, i, j, pts)[:, n2] for i, j in pairs}
    records = []
    for row, P in enumerate(pts):
        for i, j in pairs:
            comp = float(computed[row, i - 1, j - 1])
            prnt = float(printed[i, j][row])
            diff = abs(comp - prnt)
            records.append(
                {
                    "i": i,
                    "j": j,
                    "point": P.tolist(),
                    "computed": comp,
                    "printed": prnt,
                    "abs_diff": diff,
                    "agree": bool(diff <= 1e-9 * (1.0 + abs(comp))),
                }
            )
    return records
