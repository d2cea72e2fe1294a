"""What the MC subcommands run: one kernel run per estimate, each on its own
stream, and no run that only re-estimates sigma_p."""

import sys

import pytest

from sublap import montecarlo
from sublap.cli import main

COMMON = ["--samples", "10000", "--seed", "3", "--threads", "1"]

# argv -> kernel runs of its report
RUNS = {
    "sigma": (["sigma"], 1),
    "ahlfors": (["ahlfors", "--radii", "0.5,1,2"], 3),
    "density": (["density", "--radii", "0.4,0.2,0.1"], 3),
    "density-two-radii": (["density", "--radii", "0.4,0.2"], 2),
    "dirac": (["dirac", "--radii", "0.2,0.1,0.05"], 3),
    "dirac-log-case": (["dirac", "--p", "4", "--radii", "0.2,0.1,0.05"], 3),
    "capacity-all": (["capacity", "--method", "all", "--knots", "16"], 1),
    "capacity-mc": (["capacity", "--method", "mc"], 1),
    "capacity-closed-form": (["capacity", "--method", "closed-form"], 0),
}


@pytest.fixture
def kernel_streams(monkeypatch):
    """The stream of every `_mc_over_box` run, whichever module calls it."""
    streams = []
    kernel = montecarlo._mc_over_box

    def counted(params, spec, band, samples, seed, stream, threads):
        streams.append(stream)
        return kernel(params, spec, band, samples, seed, stream, threads)

    for name, module in list(sys.modules.items()):
        if name.startswith("sublap") and getattr(module, "_mc_over_box", None) is kernel:
            monkeypatch.setattr(module, "_mc_over_box", counted)
    return streams


@pytest.mark.parametrize("case", sorted(RUNS))
def test_one_run_per_estimate_on_distinct_streams(case, kernel_streams, capsys):
    argv, runs = RUNS[case]
    assert main(argv + COMMON) in (0, 2)
    capsys.readouterr()
    assert len(kernel_streams) == runs
    assert len(set(kernel_streams)) == len(kernel_streams)


@pytest.mark.parametrize("command,radii", [
    ("density", "0.4,0.3,0.1"),
    ("dirac", "0.2,0.15,0.05"),
])
def test_radii_spacing_checked_before_any_run(command, radii, kernel_streams, capsys):
    assert main([command, "--radii", radii] + COMMON) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: three radii must be geometrically spaced")
    assert kernel_streams == []
