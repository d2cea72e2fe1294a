"""The benchmark's workloads: each is a list of sublap CLI invocations.

A workload is one closed-loop client that runs its checks one at a time, in
order, from one process.  The benchmark seed only picks the CLI `--seed`;
the program receives nothing but the generated argument lists.

Every workload runs every check kind, so that every end-to-end metric is
measured on every workload; what differs is which layer carries the time
(see README.md).  Where a statistical gate's default (3 sigma for ahlfors,
2% for density, dirac and capacity) is under five times the RMS of the
checked error at that configuration, measured over 40 seeds, the workload
passes `--tol` at five times that RMS or more (5 sigma for ahlfors), so a
correct program fails a check with negligible probability.  README.md lists
the measured RMS values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("mc-checks", "mc-highdim", "calculus-sweep")

MC_KINDS = ("sigma", "ahlfors", "density", "dirac", "capacity")
CALCULUS_KINDS = ("verify-fundamental", "verify-infinity", "bracket-report")
CHECK_KINDS = MC_KINDS + CALCULUS_KINDS

# The three desk setups of tests/conftest.py: (n, k, c).
SETUPS = {"A": (1, 1.0, 1.0), "B": (1, 2.0, 1.0), "C": (2, 1.5, -2.0)}

# calculus-sweep points per check: enough that per-point loops dominate,
# few enough that a 35 s run holds four to six passes.
POINTS = "400"
# Points of the calculus checks on the MC workloads: at the CLI default of
# 100 a check lasts ~60 ms, short enough that host noise spread its median
# by 0.3 between runs; at 300 they take a fifth to a third of the pass.
MC_POINTS = "300"
# Times the short checks run per pass: `sigma` and the calculus checks on
# mc-checks, the MC checks on calculus-sweep.  Once per pass gave a run only
# 5 to 10 timings of them, too few against this host's sub-second speed
# swings: their medians spread by up to 0.27 between runs.  mc-highdim runs
# its MC checks at 5e5 samples instead, for seven to nine passes per run.
REPEATS = {"mc-checks": 2, "mc-highdim": 1, "calculus-sweep": 2}

# mc-highdim: an offset base point in R^7 (n = 3).
HIGHDIM_X0 = "0.3,-0.2,0.1,0.5,-0.4,0.2,0.7"


@dataclass(frozen=True)
class Check:
    """One CLI invocation: its check kind and full argument list."""

    kind: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class MCConfig:
    """The five MC checks at one space configuration."""

    space: tuple[str, ...]
    samples: int
    threads: int
    tol: dict  # check kind -> --tol, for the kinds that override the default

    def checks(self, seed: int) -> list[Check]:
        common = self.space + (
            "--samples", str(self.samples), "--seed", str(seed),
            "--threads", str(self.threads),
        )
        out = []
        for kind in MC_KINDS:
            argv = (kind,) + common
            if kind == "capacity":
                argv += ("--method", "all")
            if kind in self.tol:
                argv += ("--tol", repr(self.tol[kind]))
            out.append(Check(kind, argv))
        return out


def space_args(n: int, k: float, c: float, p: float, x0: str | None = None) -> tuple[str, ...]:
    args = ("--n", str(n), "--k", repr(k), "--c", repr(c), "--p", repr(p))
    return args + (("--x0", x0) if x0 else ())


def cli_seed(seed: int) -> int:
    """The CLI --seed used by every check of a run with benchmark seed `seed`."""
    return random.Random(seed).randrange(1, 2**31)


def mc_config(workload: str, nproc: int) -> MCConfig:
    """The MC configuration of a workload (also used by the determinism check)."""
    if workload == "mc-checks":
        # CLI defaults: n = k = c = 1, p = 2, 1e6 samples; box acceptance 0.62.
        return MCConfig(space_args(1, 1.0, 1.0, 2.0), 10**6, nproc,
                        {"ahlfors": 5.0, "density": 0.03})
    if workload == "mc-highdim":
        # Box acceptance 0.054: the 7-D draw and box map dominate.
        return MCConfig(space_args(3, 1.5, -2.0, 3.0, HIGHDIM_X0), 5 * 10**5, 1,
                        {"ahlfors": 5.0, "density": 0.10, "dirac": 0.06, "capacity": 0.24})
    if workload == "calculus-sweep":
        # A small MC share, so every MC metric is still measured here.
        return MCConfig(space_args(1, 1.0, 1.0, 2.0), 2 * 10**5, 1,
                        {"ahlfors": 5.0, "density": 0.07, "dirac": 0.03, "capacity": 0.03})
    raise ValueError(f"unknown workload {workload!r}")


def interleave(main: list[Check], extra: list[Check], times: int) -> list[Check]:
    """`main` split into `times` runs of checks, with `extra` after each one.

    The short checks of a workload repeat within each pass, spread over it,
    so that a run times them often enough for a steady median; the
    benchmark pools the repeats of a check (same argument list).
    """
    cuts = [round(i * len(main) / times) for i in range(times + 1)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        out += main[lo:hi] + extra
    return out


def build(workload: str, seed: int, nproc: int) -> list[Check]:
    """The checks of one pass of `workload`, in the order they run."""
    s = str(cli_seed(seed))
    mc = mc_config(workload, nproc).checks(int(s))
    repeats = REPEATS[workload]
    if workload == "mc-checks":
        # The README's calculus commands.
        calculus = [
            Check("verify-fundamental", ("verify-fundamental",)
                  + space_args(2, 1.5, -2.0, 2.0) + ("--points", MC_POINTS, "--seed", s)),
            Check("verify-infinity", ("verify-infinity", "--points", MC_POINTS, "--seed", s)),
            Check("bracket-report", ("bracket-report", "--k", "2", "--seed", s)),
        ]
        return interleave(mc[1:], mc[:1] + calculus, repeats)
    if workload == "mc-highdim":
        space = space_args(3, 1.5, -2.0, 3.0, HIGHDIM_X0)
        calculus = [Check(kind, (kind,) + space + ("--points", MC_POINTS, "--seed", s))
                    for kind in ("verify-fundamental", "verify-infinity", "bracket-report")]
        return interleave(mc[1:], mc[:1] + calculus, repeats)
    calculus = []
    for n, k, c in SETUPS.values():
        Q = 2 * n + 2 * k
        for p in (2.0, 3.0, Q):  # p = Q is the log case
            calculus.append(Check("verify-fundamental", ("verify-fundamental",)
                                  + space_args(n, k, c, p) + ("--points", POINTS, "--seed", s)))
        for kind in ("verify-infinity", "bracket-report"):
            calculus.append(Check(kind, (kind,) + space_args(n, k, c, 2.0)
                                  + ("--points", POINTS, "--seed", s)))
    return interleave(calculus, mc, repeats)
