"""Golden reports: every subcommand's JSON report is byte-identical, apart
from `duration_s`, to the checked-in one for a fixed seed.

The reports in tests/golden/ are small runs (2e4 samples, 20 points) over
setups A, B and C and an offset base point in R^7.  A change that moves a
seeded number on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.  Before it overwrites a golden, that command
prints whether the report moved, the records added, removed and changed
(matched by name), the largest relative change of a kept record's `value`,
and any change of the exit code, so the list of moved goldens comes from
the tool.
"""

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import sublap
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


def golden_text(space: str, command: str) -> tuple[str, int]:
    """The checked-in report and its exit code, in the form of `report_text`."""
    golden = json.loads(golden_path(space, command).read_text(encoding="utf-8"))
    code = golden.pop("exit_code")
    return render_json(golden), code


def mismatches() -> list[str]:
    """The cases whose report or exit code differs from the golden one."""
    return [f"{space}_{command}" for space, command in CASES
            if report_text(space, command) != golden_text(space, command)]


def record_changes(old: dict, new: dict) -> dict:
    """How the records of report old became those of new, matched by `name`:
    the names added, removed and changed in any key, and the largest
    relative change of a kept record's `value`."""
    before = {r["name"]: r for r in old["results"]}
    after = {r["name"]: r for r in new["results"]}
    kept = [name for name in after if name in before]
    worst = 0.0
    for name in kept:
        x, y = before[name]["value"], after[name]["value"]
        if x != y:
            worst = max(worst, abs(y - x) / abs(x) if x else math.inf)
    return {
        "added": [name for name in after if name not in before],
        "removed": [name for name in before if name not in after],
        "changed": [name for name in kept if before[name] != after[name]],
        "largest_value_change": worst,
    }


def regenerate(space: str, command: str) -> str:
    """Write the golden of one case anew; return how it changed."""
    text, code = report_text(space, command)
    path = golden_path(space, command)
    note = f"{space}_{command}: exit {code}"
    lists = ""
    if not path.exists():
        note += ", new"
    else:
        old_text, old_code = golden_text(space, command)
        if old_text == text:
            note += ", unchanged"
        else:
            changes = record_changes(json.loads(old_text), json.loads(text))
            note += (f", moved (largest relative value change "
                     f"{changes['largest_value_change']:.2g})")
            for kind in ("added", "removed", "changed"):
                if changes[kind]:
                    lists += f"\n  {kind}: {', '.join(changes[kind])}"
        if old_code != code:
            note += f", exit code was {old_code}"
    report = json.loads(text)
    report["exit_code"] = code
    path.write_text(render_json(report), encoding="utf-8")
    return note + lists


def test_record_changes_match_records_by_name():
    old = {"results": [{"name": "a", "value": 1.0}, {"name": "b", "value": 2.0},
                       {"name": "c", "value": 3.0}]}
    new = {"results": [{"name": "a", "value": 1.0}, {"name": "x", "value": 9.0},
                       {"name": "c", "value": 3.3, "stderr": 0.1}]}
    changes = record_changes(old, new)
    assert changes["added"] == ["x"] and changes["removed"] == ["b"]
    assert changes["changed"] == ["c"]
    # by position, b -> x would have read as a change of 3.5
    assert changes["largest_value_change"] == pytest.approx(0.1)


@pytest.mark.parametrize("space,command", CASES)
def test_report_matches_golden(space, command):
    text, code = report_text(space, command)
    golden, golden_code = golden_text(space, command)
    assert code == golden_code
    assert text == golden


@pytest.mark.parametrize("blas_env", [
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
    # an SSE4.2 kernel in place of the one OpenBLAS picks for this CPU;
    # numpy's x86-64 baseline already requires SSE4.2
    pytest.param({"OPENBLAS_CORETYPE": "Nehalem"}, marks=pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"), reason="an x86-64 kernel")),
], ids=["1", "2", "Nehalem"])
def test_goldens_hold_at_any_blas_thread_count(blas_env):
    # OpenBLAS sizes its pool and picks its kernels when numpy loads, so each
    # setting needs a process
    paths = [str(Path(sublap.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **blas_env)
    code = "import test_golden; print(*test_golden.mismatches())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for space, command in CASES:
        print(regenerate(space, command))
