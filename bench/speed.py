"""Machine-speed references for the end-to-end timings.

On a shared host the same work takes tens of percent more or less time from
one minute to the next.  Fixed reference kernels, timed just before and just
after each measurement, track that drift.  End-to-end times are scaled to
the speed at which each kernel takes its nominal time, its median on the
machine the baseline was set on (a 2-vCPU Intel Xeon VM, Python 3.11,
numpy 2.4), so they read as seconds on that machine.

The drift does not hit all work alike: pure-Python object arithmetic, which
the calculus checks are made of, swings more than array arithmetic.  So
there are two kernels, built from three timed parts:

- array: shard-sized array arithmetic plus an integer loop, for the MC
  checks and the set-up probes;
- interpreter: the same integer loop plus arithmetic on small objects, for
  the calculus checks.

Over 35 s windows of the mc-highdim checks the interpreter kernel cut the
spread left in the calculus timings by about a quarter against the array
kernel, and did worse than it on the MC checks.  Arrays are preallocated,
so the kernels' times do not depend on the allocator state that earlier work
left behind.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_REPEATS = 7
NOMINAL_S = {"array": 0.019, "interpreter": 0.0237}
_BUFFERS = np.linspace(0.0, 1.0, 1 << 16), np.empty(1 << 16), np.empty(1 << 16)


def array_part() -> float:
    a, b, c = _BUFFERS
    for _ in range(30):
        np.sqrt(a, out=b)
        np.multiply(b, a, out=c)
        np.multiply(a, a, out=b)
        np.add(c, b, out=c)
    return float(c[-1])


def loop_part() -> int:
    total = 0
    for i in range(200_000):
        total += i * i
    return total


class _Dual:
    """A value with first and second derivative, as small as a jet gets."""

    __slots__ = ("v", "d", "dd")

    def __init__(self, v, d, dd):
        self.v, self.d, self.dd = v, d, dd

    def __add__(self, other):
        return _Dual(self.v + other.v, self.d + other.d, self.dd + other.dd)

    def __mul__(self, other):
        return _Dual(self.v * other.v, self.v * other.d + self.d * other.v,
                     self.v * other.dd + 2 * self.d * other.d + self.dd * other.v)


def object_part() -> float:
    x, y, acc = _Dual(1.0, 0.5, 0.25), _Dual(0.999, 0.1, 0.01), _Dual(0.0, 0.0, 0.0)
    recent = {}
    for i in range(10_000):
        x = x * y + acc
        recent[i & 255] = x
        acc = _Dual(x.v * 1e-6, x.d * 1e-6, 0.0)
    return x.v


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def reference_times() -> dict[str, list[float]]:
    """REF_REPEATS timings of each kernel, its parts timed back to back."""
    times = {"array": [], "interpreter": []}
    for _ in range(REF_REPEATS):
        arr, loop, obj = _timed(array_part), _timed(loop_part), _timed(object_part)
        times["array"].append(arr + loop)
        times["interpreter"].append(loop + obj)
    return times


class NominalClock:
    """Measures calls between reference timings.

    measure(fn) returns (fn's result, scales), where scales maps each kernel
    to the factor that converts durations measured inside the call to
    seconds at the nominal speed: its nominal time over the median of its
    timings just before and just after the call.  The timings after one call
    serve as those before the next.
    """

    def __init__(self):
        self._last = reference_times()

    def measure(self, fn):
        before = self._last
        result = fn()
        self._last = reference_times()
        return result, {kernel: nominal / statistics.median(before[kernel] + self._last[kernel])
                        for kernel, nominal in NOMINAL_S.items()}
