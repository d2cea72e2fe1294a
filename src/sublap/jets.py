"""Forward-mode 2-jets: value, gradient, and Hessian, exact to rounding.

A Jet2 carries f(P), grad f(P), and the full symmetric Hessian of a scalar
field at a point, or at a batch of points: the value has shape (...), the
gradient (..., d) and the Hessian (..., d, d), with the same leading batch
axes.  Batch shape () is a single point.  Arithmetic follows the product and
chain rules row by row, so any composite built from coordinates evaluates
without truncation error; a domain check fails if any row violates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArithmeticDomainError

Number = (int, float, np.floating, np.integer)


def _col(x):
    # Broadcast a batch-shaped factor against a gradient (..., d).
    return np.asarray(x)[..., None]


def _mat(x):
    # Broadcast a batch-shaped factor against a Hessian (..., d, d).
    return np.asarray(x)[..., None, None]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _batch_value(value):
    # A number stays a float (one point); an array sets the batch shape.
    return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)


def _first(values, bad) -> float:
    # The first offending value, for error messages.
    return float(np.asarray(values)[bad].flat[0])


@dataclass(frozen=True)
class Jet2:
    value: float | np.ndarray  # (...)
    grad: np.ndarray  # (..., d)
    hess: np.ndarray  # (..., d, d), symmetric

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        """Batch shape; () for a single point."""
        return self.grad.shape[:-1]

    # ---------- constructors ----------

    @staticmethod
    def constant(value, dim: int) -> "Jet2":
        """Constant jet; value is a number or an array giving the batch shape."""
        value = _batch_value(value)
        shape = np.shape(value)
        return Jet2(value, np.zeros(shape + (dim,)), np.zeros(shape + (dim, dim)))

    @staticmethod
    def variable(value, index: int, dim: int) -> "Jet2":
        """Coordinate `index`; value is a number or an array of batch shape."""
        value = _batch_value(value)
        shape = np.shape(value)
        g = np.zeros(shape + (dim,))
        g[..., index] = 1.0
        return Jet2(value, g, np.zeros(shape + (dim, dim)))

    def select(self, rows, value: float = 0.0) -> "Jet2":
        """This jet with the rows where `rows` is true replaced by a constant."""
        return Jet2(
            np.where(rows, value, self.value)[()],
            np.where(_col(rows), 0.0, self.grad),
            np.where(_mat(rows), 0.0, self.hess),
        )

    # ---------- arithmetic ----------

    def __add__(self, other) -> "Jet2":
        if isinstance(other, Number):
            return Jet2(self.value + other, self.grad, self.hess)
        o = self._check(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other) -> "Jet2":
        return self + (-other if isinstance(other, Number) else -self._check(other))

    def __rsub__(self, other) -> "Jet2":
        return (-self) + other

    def __mul__(self, other) -> "Jet2":
        if isinstance(other, Number):
            return Jet2(self.value * other, self.grad * other, self.hess * other)
        o = self._check(other)
        cross = _outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            _col(self.value) * o.grad + _col(o.value) * self.grad,
            _mat(self.value) * o.hess + _mat(o.value) * self.hess
            + (cross + np.swapaxes(cross, -1, -2)),  # grouped: exactly symmetric
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        if isinstance(other, Number):
            other = Jet2.constant(other, self.dim)
        o = self._check(other)
        if np.any(o.value == 0.0):
            raise ArithmeticDomainError("div", "division by a jet with zero value")
        inv = o._chain(1.0 / o.value, -1.0 / o.value**2, 2.0 / o.value**3)
        return self * inv

    def __rtruediv__(self, other) -> "Jet2":
        return Jet2.constant(other, self.dim) / self

    def _check(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        raise TypeError(f"cannot combine Jet2 with {type(other).__name__}")

    def _chain(self, f, fp, fpp) -> "Jet2":
        # 2-jet of g(a) given g, g', g'' at a.value, row by row.
        return Jet2(
            f,
            _col(fp) * self.grad,
            _mat(fp) * self.hess + _mat(fpp) * _outer(self.grad, self.grad),
        )

    def __pow__(self, e) -> "Jet2":
        if not isinstance(e, Number):
            raise TypeError("jet exponent must be a real number")
        e = float(e)
        v = self.value
        if e == 0.0:
            return Jet2.constant(np.ones(self.shape)[()], self.dim)
        if e == 1.0:
            return self
        flat = None
        zero = v == 0.0
        # 0^(e-1) = 0 and 0^(e-2) in {1, 0}: integer e >= 2 is exact at 0.
        if np.any(zero) and not (e.is_integer() and e >= 2.0):
            if e > 1.0 and not self.grad[zero].any():
                # Smooth composite with a flat 2-jet (e.g. Sigma^q at Sigma = 0).
                flat = zero
            else:
                raise ArithmeticDomainError(
                    "pow", f"base 0 with exponent {e} has no 2-jet here"
                )
        if not e.is_integer() and np.any(v < 0.0):
            raise ArithmeticDomainError(
                "pow", f"negative base {_first(v, v < 0.0)} with non-integer exponent {e}"
            )
        base = self if flat is None else self.select(flat, 1.0)
        v = base.value
        out = base._chain(v**e, e * v ** (e - 1.0), e * (e - 1.0) * v ** (e - 2.0))
        return out if flat is None else out.select(flat, 0.0)

    def log(self) -> "Jet2":
        v = self.value
        if np.any(v <= 0.0):
            raise ArithmeticDomainError("log", f"argument {_first(v, v <= 0.0)} not positive")
        return self._chain(np.log(v), 1.0 / v, -1.0 / v**2)

    def exp(self) -> "Jet2":
        ev = np.exp(self.value)
        return self._chain(ev, ev, ev)
