"""Property tests over every command: every input the CLI accepts gives a
finite report or a typed error.

Each example draws |c| from 1e-60 to 1e60 of either sign, x0 in
[-2, 2]^(2n+1), p in (1, 60] or Q, and any seed; the calculus commands
draw n in 1..4 and k in [0.1, 6] at 10 points, the Monte Carlo commands n
in 1..3 and k in [0.1, 6] at 10^4 samples on one thread, with their radii:
two or three for `ahlfors`, decreasing ones below the bump's support for
`density` and `dirac` (whose bump radius is drawn too), and r < R with
`--method mc` or `all` for `capacity`.  A run exits 0 or 2 with every value
finite, or exits 1 with an empty stdout and a stderr that starts `error:`;
a warning or an uncaught exception fails the test.  The examples are
derandomized and no example database is kept, so the test is deterministic
and writes no files.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublap.cli import main

CALCULUS = ("verify-fundamental", "verify-infinity", "bracket-report")
MONTE_CARLO = ("sigma", "ahlfors", "density", "dirac", "capacity")


def _space_flags(draw, n_max: int) -> list[str]:
    n = draw(st.integers(1, n_max))
    k = draw(st.floats(0.1, 6.0))
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-60.0, 60.0))
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n + 1, max_size=2 * n + 1))
    p = draw(st.one_of(st.floats(1.0, 60.0, exclude_min=True), st.just(2 * n + 2 * k)))
    seed = draw(st.integers(min_value=0, max_value=2**64))
    # --flag=value, since argparse reads "--c -4e-30" as two flags
    return [f"--n={n}", f"--k={k!r}", f"--c={c!r}", "--x0=" + ",".join(map(repr, x0)),
            f"--p={p!r}", f"--seed={seed}"]


def _floats(values) -> str:
    return ",".join(map(repr, values))


@st.composite
def calculus_flags(draw) -> list[str]:
    return _space_flags(draw, 4) + ["--points=10"]


@st.composite
def monte_carlo_flags(draw, command: str) -> list[str]:
    flags = _space_flags(draw, 3) + ["--samples=10000", "--threads=1"]
    if command == "ahlfors":
        radii = draw(st.lists(st.floats(1e-2, 1e2), min_size=2, max_size=3))
        flags.append(f"--radii={_floats(radii)}")
    elif command in ("density", "dirac"):
        bump = 10.0 ** draw(st.floats(-2.0, 2.0))
        fractions = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True))
        radii = [bump * f for f in sorted(fractions, reverse=True)]
        flags += [f"--bump-radius={bump!r}", f"--radii={_floats(radii)}"]
    elif command == "capacity":
        r = 10.0 ** draw(st.floats(-3.0, 3.0))
        R = r * 10.0 ** draw(st.floats(0.01, 3.0))
        flags += [f"--r={r!r}", f"--R={R!r}", "--method=" + draw(st.sampled_from(["mc", "all"]))]
    return flags


def assert_finite_report_or_typed_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        return
    assert code in (0, 2)
    assert err.getvalue() == ""
    values = [v for rec in json.loads(out.getvalue())["results"] for v in rec.values()
              if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("command", CALCULUS)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(flags=calculus_flags())
def test_finite_report_or_typed_error(command, flags):
    assert_finite_report_or_typed_error([command, *flags])


@pytest.mark.parametrize("command", MONTE_CARLO)
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_monte_carlo_finite_report_or_typed_error(command, data):
    assert_finite_report_or_typed_error([command, *data.draw(monte_carlo_flags(command))])
