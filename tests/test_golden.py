"""Golden reports: every subcommand's JSON report is byte-identical, apart
from `duration_s`, to the checked-in one for a fixed seed.

The reports in tests/golden/ are small runs (2e4 samples, 20 points) over
setups A, B and C and an offset base point in R^7.  A change that moves a
seeded number on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from sublap.cli import COMMANDS, main, render_json

GOLDEN = Path(__file__).parent / "golden"

SPACES = {
    "A": ("--n", "1", "--k", "1.0", "--c", "1.0"),
    "B": ("--n", "1", "--k", "2.0", "--c", "1.0"),
    "C": ("--n", "2", "--k", "1.5", "--c", "-2.0"),
    "D": ("--n", "3", "--k", "1.5", "--c", "-2.0", "--p", "3.0",
          "--x0", "0.3,-0.2,0.1,0.5,-0.4,0.2,0.7"),
}
COMMON = ("--seed", "20261018", "--samples", "20000", "--points", "20", "--threads", "2")

CASES = [(space, command) for space in SPACES for command in COMMANDS]


def report_text(space: str, command: str) -> tuple[str, int]:
    """The report of one run, with `duration_s` removed, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, *SPACES[space], *COMMON])
    report = json.loads(out.getvalue())
    del report["duration_s"]
    return render_json(report), code


def golden_path(space: str, command: str) -> Path:
    return GOLDEN / f"{space}_{command}.json"


@pytest.mark.parametrize("space,command", CASES)
def test_report_matches_golden(space, command):
    text, code = report_text(space, command)
    golden = json.loads(golden_path(space, command).read_text(encoding="utf-8"))
    assert code == golden.pop("exit_code")
    assert text == render_json(golden)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for space, command in CASES:
        text, code = report_text(space, command)
        report = json.loads(text)
        report["exit_code"] = code
        golden_path(space, command).write_text(render_json(report), encoding="utf-8")
        print(f"{space} {command}: exit {code}")
