"""Property test over the calculus commands: every input the CLI accepts
gives a finite report or a typed error.

Each example draws n in 1..4, k in [0.1, 6], |c| from 1e-60 to 1e60 of
either sign, x0 in [-2, 2]^(2n+1), p in (1, 60] or Q, and any seed, at 10
points.  A run exits 0 or 2 with every value finite, or exits 1 with an
empty stdout and a stderr that starts `error:`; a warning or an uncaught
exception fails the test.  The examples are derandomized and no example
database is kept, so the test is deterministic and writes no files.
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

COMMANDS = ("verify-fundamental", "verify-infinity", "bracket-report")


@st.composite
def calculus_flags(draw) -> list[str]:
    n = draw(st.integers(1, 4))
    k = draw(st.floats(0.1, 6.0))
    c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-60.0, 60.0))
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n + 1, max_size=2 * n + 1))
    p = draw(st.one_of(st.floats(1.0, 60.0, exclude_min=True), st.just(2 * n + 2 * k)))
    seed = draw(st.integers(min_value=0, max_value=2**64))
    # --flag=value, since argparse reads "--c -4e-30" as two flags
    return [f"--n={n}", f"--k={k!r}", f"--c={c!r}", "--x0=" + ",".join(map(repr, x0)),
            f"--p={p!r}", f"--seed={seed}", "--points=10"]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(flags=calculus_flags())
def test_finite_report_or_typed_error(command, flags):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *flags])
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        return
    assert code in (0, 2)
    assert err.getvalue() == ""
    values = [v for rec in json.loads(out.getvalue())["results"] for v in rec.values()
              if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)
