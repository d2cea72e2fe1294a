"""A 50-digit oracle for the horizontal calculus, built by sympy from the
paper's frame and sharing no code with the library.

The frame on R^(2n+1), with base point x0 = (a_1, ..., a_2n, s), is

    X_i = d/dx_i + b_i d/dt,
    b_i = +2kc (x_(i+n) - a_(i+n)) Sigma^(k-1)   for 1 <= i <= n,
    b_i = -2kc (x_(i-n) - a_(i-n)) Sigma^(k-1)   for n < i <= 2n,
    Sigma = sum_l (x_l - a_l)^2.

For a function u, sympy forms grad_0 u = (X_1 u, ..., X_2n u), the
infinity-Laplacian sum_ij X_i u X_j u X_i X_j u and the p-Laplacian in
divergence form, sum_i X_i(|grad_0 u|^(p-2) X_i u), with p a symbol.  u
enters as symbols for its Euclidean partials up to order two, which the
chain rule differentiates.  So the operators are expressions in the
point, p and that jet, shared by every field of the space, and the jet
of each field comes from sympy differentiating its formula, written
below.  Every expression is lambdified to mpmath, built once per process
and evaluated at 50 digits.  The space parameters are exact rationals,
and nothing here imports `sublap`.
"""

import functools

import mpmath
import sympy as sp

DPS = 50
# use_imps=False skips a walk of the whole expression tree, unshared, for
# implemented functions, of which there are none here
LAMBDIFY = dict(modules="mpmath", cse=True, use_imps=False)


def _polynomial(x, t, n, k, c, a, s):
    """x_1^2 + 3 x_1 x_(n+1) (t - s) + (t - s)/2: the odd coupling term sees
    the sign of each b_i's partner coordinate."""
    return x[0] ** 2 + 3 * x[0] * x[n] * (t - s) + (t - s) / 2


def _gauge_h(x, t, n, k, c, a, s):
    """h = c^2 Sigma^(2k) + (t - s)^2."""
    sigma = sum((xl - al) ** 2 for xl, al in zip(x, a))
    return c**2 * sigma ** (2 * k) + (t - s) ** 2


def _bump(support_radius: str):
    """exp(-h / (B - h)) with B = R0^(4k), inside the support {h < B}."""

    def field(x, t, n, k, c, a, s):
        B = sp.Rational(support_radius) ** (4 * k)
        h = _gauge_h(x, t, n, k, c, a, s)
        # the same exponent as 1 - B/(B - h), whose derivatives are smaller;
        # unevaluated, as exp's simplification of its argument costs most
        return sp.exp(1 - B / (B - h), evaluate=False)

    return field


def _field(name: str):
    if name.startswith("bump:"):
        return _bump(name.split(":", 1)[1])
    return {"polynomial": _polynomial, "gauge_h": _gauge_h}[name]


def _rationals(n: int, k: str, c: str, x0: tuple):
    x0 = [sp.Rational(v) for v in x0]
    if len(x0) != 2 * n + 1:
        raise ValueError(f"x0 needs {2 * n + 1} entries for n={n}")
    return sp.Rational(k), sp.Rational(c), x0[: 2 * n], x0[2 * n]


def _coordinates(n: int):
    return sp.symbols(f"x1:{2 * n + 1}") + (sp.Symbol("t"),)


def _second_orders(coords):
    """(m, q) with m <= q: the order of the second partials in a jet."""
    return [(m, q) for m in range(len(coords)) for q in range(m, len(coords))]


def _total_derivative(coords, v: int, f, partials: dict):
    """d f / d coords[v], for f an expression in the coordinates and in the
    symbols of `partials`, each of which maps to its own partials along
    coords (the chain rule)."""
    return sp.diff(f, coords[v]) + sum(sp.diff(f, sym) * d_sym[v]
                                       for sym, d_sym in partials.items())


@functools.lru_cache(maxsize=None)
def _frame_operators(n: int, k: str, c: str, x0: tuple):
    """[grad_0 u..., Delta_inf u, Delta_p u], lambdified over (point, jet, p)."""
    k, c, a, s = _rationals(n, k, c, x0)
    coords = _coordinates(n)
    x, d = coords[:-1], len(coords)
    off = [xl - al for xl, al in zip(x, a)]
    sigma = sum(ul**2 for ul in off)
    b = [2 * k * c * off[i + n] * sigma ** (k - 1) for i in range(n)]
    b += [-2 * k * c * off[i - n] * sigma ** (k - 1) for i in range(n, 2 * n)]

    def X(i, f, partials):
        return (_total_derivative(coords, i, f, partials)
                + b[i] * _total_derivative(coords, d - 1, f, partials))

    # u by its jet: first partials du_m and symmetric second partials du_mq
    u, du = sp.Symbol("u"), sp.symbols(f"u0:{d}")
    ddu = {}
    for m, q in _second_orders(coords):
        ddu[m, q] = ddu[q, m] = sp.Symbol(f"u{m}_{q}")
    u_jet = {dm: [ddu[m, q] for q in range(d)] for m, dm in enumerate(du)}
    grad = [X(j, u, {u: du}) for j in range(2 * n)]
    # both operators over symbols G_j for X_j u, whose partials dG_j are put
    # in after: sympy differentiates each X_j u once, not once for each term
    # of the flux
    G = sp.symbols(f"G0:{2 * n}")
    dG = [sp.symbols(f"G{j}_0:{d}") for j in range(2 * n)]
    G_jet = dict(zip(G, dG))
    p = sp.Symbol("p")
    norm_sq = sum(g**2 for g in G)
    lap_inf = sum(G[i] * G[j] * X(i, G[j], G_jet) for i in range(2 * n) for j in range(2 * n))
    lap_p = sum(X(i, norm_sq ** ((p - 2) / 2) * G[i], G_jet) for i in range(2 * n))
    swap = dict(zip(G, grad))
    swap.update({dG[j][v]: _total_derivative(coords, v, grad[j], u_jet)
                 for j in range(2 * n) for v in range(d)})
    jet = (*du, *(ddu[mq] for mq in _second_orders(coords)))
    return sp.lambdify((*coords, *jet, p), [*grad, lap_inf.xreplace(swap), lap_p.xreplace(swap)],
                       **LAMBDIFY)


@functools.lru_cache(maxsize=None)
def _jet(n: int, k: str, c: str, x0: tuple, field: str):
    """The first and second partials of the field, lambdified over the point."""
    kr, cr, a, s = _rationals(n, k, c, x0)
    coords = _coordinates(n)
    u = _field(field)(coords[:-1], coords[-1], n, kr, cr, a, s)
    # one variable at a time: a multi-variable diff runs factor_terms on the result
    first = [sp.diff(u, v) for v in coords]
    second = [sp.diff(first[m], coords[q]) for m, q in _second_orders(coords)]
    return sp.lambdify(coords, first + second, **LAMBDIFY)


class Operators:
    """grad_0 u, Delta_inf u and Delta_p u of one field at 50 digits.

    k, c and the 2n + 1 entries of x0 are read as exact rationals
    (`sympy.Rational("0.3")` is 3/10).  field is "polynomial", "gauge_h" or
    "bump:R0" (the cutoff bump of support radius R0).
    """

    def __init__(self, n: int, k: str, c: str, x0: tuple, field: str):
        self._ops = _frame_operators(n, k, c, tuple(x0))
        self._jet = _jet(n, k, c, tuple(x0), field)

    def at(self, P, p: float = 2.0):
        """(grad_0 u, Delta_inf u, Delta_p u) at the point P, as floats."""
        with mpmath.workdps(DPS):
            P = [mpmath.mpf(float(v)) for v in P]  # exact: every float is an mpf
            *grad, lap_inf, lap_p = self._ops(*P, *self._jet(*P), mpmath.mpf(float(p)))
            return [float(g) for g in grad], float(lap_inf), float(lap_p)
