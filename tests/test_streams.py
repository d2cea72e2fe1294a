"""The MC streams: what a key draws, and what the MC subcommands run (one
kernel run per estimate, each on its own stream, and no run that only
re-estimates sigma_p)."""

import sys

import numpy as np
import pytest

from sublap import SpaceParams, montecarlo, sigma_p, sigma_p_exact
from sublap.cli import main
from sublap.montecarlo import STREAM_BALL, STREAM_DENSITY, _shard_rng

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

    def counted(params, band, **run):
        streams.append(run["stream"])
        return kernel(params, band, **run)

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


@pytest.mark.parametrize("command,radii,unordered", [
    ("density", "0.4,0.3,0.1", "0.1,0.2,0.4"),
    ("dirac", "0.2,0.15,0.05", "0.05,0.1,0.2"),
], ids=["density-0.4,0.3,0.1", "dirac-0.2,0.15,0.05"])
def test_radii_spacing_checked_before_any_run(command, radii, unordered, kernel_streams,
                                              capsys):
    # only the order is checked: radii out of order exit 1 before any run,
    # and decreasing radii run whatever their spacing, one stream each
    assert main([command, "--radii", unordered] + COMMON) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: radii must be strictly decreasing")
    assert kernel_streams == []
    assert main([command, "--radii", radii] + COMMON) in (0, 2)
    assert len(set(kernel_streams)) == len(kernel_streams) == 3


def draws(seed, stream, shard, rows=1000):
    return _shard_rng(seed, stream, shard).random((rows, 3))


def test_same_key_gives_identical_draws():
    assert np.array_equal(draws(7, (STREAM_BALL, 2), 3), draws(7, (STREAM_BALL, 2), 3))


@pytest.mark.parametrize("seed,stream,shard", [
    (8, (STREAM_BALL, 2), 3),   # seed
    (7, (STREAM_DENSITY, 2), 3),  # purpose
    (7, (STREAM_BALL, 0), 3),   # index
    (7, (STREAM_BALL, 2), 4),   # shard
])
def test_any_other_key_gives_other_draws(seed, stream, shard):
    base = draws(7, (STREAM_BALL, 2), 3)
    other = draws(seed, stream, shard)
    assert not np.any(base == other)


@pytest.mark.parametrize("params,p", [
    (SpaceParams(1, 1.0, 1.0), 2.0),
    (SpaceParams(3, 1.5, -2.0, [0.3, -0.2, 0.1, 0.5, -0.4, 0.2, 0.7]), 3.0),
], ids=["A", "n=3-offset"])
def test_sigma_z_scores_over_seeds(params, p):
    # the MC against the closed form over seeds 1-64: the z-scores must look
    # like draws of a standard normal (mean 0, SD 1)
    exact = sigma_p_exact(params, p)
    z = []
    for seed in range(1, 65):
        est = sigma_p(params, p, 10**4, seed, threads=1)
        z.append((est.mean - exact) / est.stderr)
    assert abs(np.mean(z)) <= 0.5
    assert 0.65 <= np.std(z, ddof=1) <= 1.35
