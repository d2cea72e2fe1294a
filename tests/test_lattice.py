"""The randomly shifted rank-1 lattice of the MC kernel: its sizes, its
generating vectors, the table's search script, and the counts a run reports."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sublap import SpaceParams, sigma_p
from sublap.montecarlo import (
    KOROBOV,
    LATTICE_MAX_LOG2,
    MIN_REPLICATES,
    SHARD_SIZE,
    _shard_column,
    _wrap,
    generating_vector,
    lattice_shape,
    unshifted_lattice,
)

SEARCH = Path(__file__).resolve().parents[1] / "tools" / "korobov_search.py"


@pytest.mark.parametrize("samples,shape", [
    (10**6, (1 << 14, 61)),
    (5 * 10**5, (1 << 13, 61)),
    (2 * 10**5, (1 << 12, 48)),
    (2 * 10**4, (1 << 9, 39)),
    (10**4, (1 << 8, 39)),
    (1 << 13, (1 << 8, 32)),
    (10**8, (1 << 16, 1525)),
])
def test_lattice_shape(samples, shape):
    assert lattice_shape(samples) == shape


@pytest.mark.parametrize("samples", [10**4, 12345, 33 * 512 - 1, 2 * 10**5, 10**6, 3 * 10**6])
def test_shape_rules(samples):
    points, reps = lattice_shape(samples)
    m = points.bit_length() - 1
    assert points == 1 << m and 8 <= m <= LATTICE_MAX_LOG2
    assert reps == samples // points >= MIN_REPLICATES
    assert SHARD_SIZE % points == 0  # a shard holds whole replicates
    # N is the largest power of two that leaves MIN_REPLICATES, below the cap
    assert m == LATTICE_MAX_LOG2 or samples // (2 * points) < MIN_REPLICATES
    assert points * reps > 0.96 * samples


def test_table_covers_every_size_and_dimension():
    assert sorted(KOROBOV) == list(range(8, LATTICE_MAX_LOG2 + 1))
    for m, row in KOROBOV.items():
        assert len(row) == 8
        assert all(a % 2 == 1 and 1 < a < 1 << m for a in row)


@pytest.mark.parametrize("m", [8, 12, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_korobov_vector(m, n):
    points, dim = 1 << m, 2 * n + 1
    a = KOROBOV[m][n - 1]
    z = generating_vector(points, dim)
    assert z.tolist() == [pow(a, j, points) for j in range(dim)]
    lattice = unshifted_lattice(points, dim)
    assert lattice.shape == (dim, points) and lattice.flags.c_contiguous
    # z_j is odd, so every coordinate visits each of the N levels k / N once
    for row in lattice:
        assert np.array_equal(np.sort(row), np.arange(points) / points)
    assert np.array_equal(lattice[:, 5], (5 * z % points) / points)
    # built once and shared read-only by every run
    assert unshifted_lattice(points, dim) is lattice
    with pytest.raises(ValueError, match="read-only"):
        lattice[0, 0] = 0.5
    assert np.array_equal(lattice, (z[:, None] * np.arange(points) % points) / points)


def test_centred_wrap_is_the_shifted_lattice_minus_half(rng):
    # the shard columns of 2 replicates of N = 256 points in R^5: y = L +
    # (s - 1/2) wrapped lies in [-1/2, 1/2] and is frac(L + s) - 1/2 on the
    # torus, to within one rounding of either sum (an ulp of 1); the second
    # shift puts L + s at exactly 1 for one point, the tie rint rounds to 0
    points, dim = 256, 5
    lattice = unshifted_lattice(points, dim)
    shifts = rng.random((2, dim))
    shifts[1] = 1.0 - lattice[:, 3]
    rows = 2 * points
    mask = np.empty(rows, bool)
    y = np.array([_shard_column(lattice, shifts - 0.5, j, np.empty(rows), mask)
                  for j in range(dim)])
    assert np.all((-0.5 <= y) & (y <= 0.5))
    frac = np.concatenate([lattice + shifts[0][:, None], lattice + shifts[1][:, None]], axis=1)
    frac -= np.floor(frac)
    gap = y - (frac - 0.5)
    gap -= np.rint(gap)  # the same point of the torus
    assert np.max(np.abs(gap)) <= np.spacing(1.0)
    assert np.array_equal(y[:, points + 3], np.full(dim, 0.5))


@pytest.mark.parametrize("points", [256, 1 << 16])
def test_masked_wrap_is_x_minus_rint(rng, points):
    # x = L + s - 1/2 lies in [-1/2, 3/2 - 1/N]: the ends, the tie at 1/2,
    # its neighbours, and uniform draws, bit for bit, signed zeros included
    ends = [-0.5, 0.5, 1.5 - 1.0 / points, 0.0, np.nextafter(0.5, 1), np.nextafter(0.5, 0)]
    x = np.concatenate([ends, rng.uniform(-0.5, 1.5 - 1.0 / points, 10**4)])
    want = x - np.rint(x)
    got = _wrap(x.copy(), np.empty(x.size, bool))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(_wrap(x.copy()), got)
    assert np.all((-0.5 <= got) & (got <= 0.5))


def test_dimensions_past_the_table_extend_the_n8_vector():
    points = 1 << 10
    z17, z41 = generating_vector(points, 17), generating_vector(points, 41)
    assert np.array_equal(z41[:17], z17)
    a = KOROBOV[10][7]
    assert z41[-1] == pow(a, 40, points)


def test_search_script_reproduces_the_table():
    # each entry has its own seed, so one entry re-runs alone
    out = subprocess.run([sys.executable, str(SEARCH), "8", "3"], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert int(out) == KOROBOV[8][0]


def test_estimate_reports_the_points_used():
    est = sigma_p(SpaceParams(1, 1.0, 1.0), 2.0, 2 * 10**4, 3)
    assert (est.samples, est.replicates) == (512 * 39, 39)
    assert est.accept_fraction == est.accepted / (512 * 39)
