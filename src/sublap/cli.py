"""Command-line entry point: every verification and computation as a subcommand.

Exit codes: 0 all checks passed, 1 invalid configuration or an input outside
the domain of the command's computation, 2 a check exceeded its tolerance.
Reports are JSON (default) or a flat CSV projection, and are byte-identical
across runs with the same configuration apart from the duration field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .capacity import closed_form_capacity, mc_energy, minimize_radial
from .errors import ConfigurationError, DomainError
from .fields import CutoffBump, FundamentalProfile, GaugePsi, gauge_parts, grad_psi_norm_pow
from .frame import bracket_comparison, infinity_laplacian, p_laplacian
from .montecarlo import (
    STREAM_BALL,
    MCEstimate,
    density_limit,
    resolve_threads,
    sample_points,
    sigma_p,
)
from .space import SpaceParams, check_radius, is_log_case, normalization, sigma_p_exact
from .weakform import dirac_limit

REPORT_SCHEMA = "sublap-report-v1"

# The capacity records each --method reports, mc-energy (the random one) last.
CAPACITY_RUNS = {
    "closed-form": ("closed-form",),
    "radial": ("radial-variational",),
    "mc": ("mc-energy",),
    "all": ("closed-form", "radial-variational", "mc-energy"),
}


@dataclass
class RunConfig:
    command: str
    n: int = 1
    k: float = 1.0
    c: float = 1.0
    x0: list[float] | None = None
    p: float = 2.0
    seed: int = 12345
    samples: int = 10**6
    points: int = 100
    r: float = 1.0
    R: float = 2.0
    radii: list[float] | None = None  # None: the command's default in COMMANDS
    bump_radius: float = 1.0
    knots: int = 400
    method: str = "all"
    threads: int | None = None
    tol: float | None = None  # None: the command's default in COMMANDS
    format: str = "json"
    out: str | None = None

    def space(self) -> SpaceParams:
        return SpaceParams(self.n, self.k, self.c, self.x0)

    def echo(self) -> dict:
        d = {k: v for k, v in self.__dict__.items()}
        d["x0"] = list(self.x0) if self.x0 is not None else [0.0] * (2 * self.n + 1)
        return d


# The default of every config field but the command, read off RunConfig.
DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.name != "command"}


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"bad config line (expected key=value): {line!r}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            out[key] = val
    return out


# Every config key, in flag order: the type that parses its flag and its
# config-file value, and the flag's other argparse keywords.  Config-file
# values are checked against `choices` too.
_FLAGS = {
    "n": (int, {}), "k": (float, {}), "c": (float, {}),
    "x0": (_parse_floats, {"help": "comma-separated coordinates; "
                           "write --x0=-1,0,0 when the first is negative"}),
    "p": (float, {}), "seed": (int, {}), "samples": (int, {}), "points": (int, {}),
    "r": (float, {}), "R": (float, {}),
    "radii": (_parse_floats, {"help": "comma-separated radii"}),
    "bump_radius": (float, {}), "knots": (int, {}),
    "method": (str, {"choices": list(CAPACITY_RUNS)}),
    "threads": (int, {}), "tol": (float, {}),
    "format": (str, {"choices": ["json", "csv"]}),
    "out": (str, {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and shared by every
    `main` call after it.  `parse_args` leaves a parser as it was, and help
    and usage text go to the sys.stdout or sys.stderr of the call, so the
    shared parser answers each call as a fresh one would.  Callers must not
    modify it."""
    parser = argparse.ArgumentParser(
        prog="sublap",
        description="Verify gauge operators, measures, the Dirac identity, "
        "and annulus capacities for the horizontal frame.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        for key, (kind, extra) in _FLAGS.items():
            cmd.add_argument("--" + key.replace("_", "-"), type=kind, **extra)
        cmd.add_argument("--config", type=str, help="flat key=value file")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < flags, then validate."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            key = key.replace("-", "_")
            if key not in _FLAGS:
                raise ConfigurationError(f"unknown config key {key!r}")
            kind, extra = _FLAGS[key]
            try:
                merged[key] = kind(raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key!r}: {raw!r}") from exc
            if "choices" in extra and merged[key] not in extra["choices"]:
                raise ConfigurationError(f"unknown {key} {merged[key]!r}")
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    _, tol, radii = COMMANDS[args.command]
    if merged["radii"] is None:
        merged["radii"] = list(radii)
    if merged["tol"] is None:
        merged["tol"] = tol
    cfg = RunConfig(command=args.command, **merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The checks that no library function makes.  Every other value is
    checked by the library on the path that uses it, and its error exits 1
    the same way."""
    if not 0 <= cfg.tol < math.inf:
        raise ConfigurationError(f"tol must be nonnegative and finite, got {cfg.tol!r}")
    resolve_threads(cfg.threads)  # so a bad --threads exits 1 for every command


def _record(name, value, stderr=None, tol=None, passed=None, exact=False, run=None) -> dict:
    """One report record; `run`, an MC estimate, adds the points it used,
    its replicates and its accepted points."""
    rec = {"name": name, "value": float(value)}
    if stderr is not None:
        rec["stderr"] = float(stderr)
    else:
        rec["exact"] = bool(exact)
    if run is not None:
        rec["samples"] = int(run.samples)
        rec["replicates"] = int(run.replicates)
        rec["accepted"] = int(run.accepted)
    if tol is not None:
        rec["tol"] = float(tol)
    if passed is not None:
        rec["pass"] = bool(passed)
    return rec


def _radius_records(name: str, symbol: str, radii, estimates, exact, tol: float) -> list[dict]:
    """Per radius: the estimate `name@symbol=radius`, its closed-form value
    from `exact` (`name_exact@...`), and the gated distance between them
    (`name_error@...`), which carries the estimate's stderr."""
    out = []
    for radius, est, value in zip(radii, estimates, exact):
        at = f"@{symbol}={radius:g}"
        err = abs(est.mean - value)
        out += [
            _record(f"{name}{at}", est.mean, stderr=est.stderr, run=est),
            _record(f"{name}_exact{at}", value, exact=True),
            _record(f"{name}_error{at}", err, stderr=est.stderr, tol=tol, passed=err <= tol),
        ]
    return out


# ---------------------------------------------------------------- commands

def _cmd_verify_fundamental(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    pts = sample_points(params, cfg.points, cfg.seed)
    profile = FundamentalProfile(params, cfg.p)
    log_case = is_log_case(params, cfg.p)
    sigma, _, h = gauge_parts(params, pts)
    psi = h ** (1.0 / (4 * params.k))
    # near p = 1, alpha = (Q - p)/(1 - p) takes the slope of psi^alpha out of
    # the float range before any jet is formed (Q = 4, p = 1.003), or only the
    # p-Laplacian's powers of |grad_0 f| at some rows (Q = 4, p = 1.01):
    # either way the run has no residual to report
    profile.check_slope(psi.min(), psi.max(), 2.0)
    with np.errstate(all="ignore"):
        lap = p_laplacian(params, profile, pts, cfg.p)
        # scale 1 + |grad_0 f|^(p-1) / psi, with |grad_0 f| = |eta'(psi)| |grad_0 psi|
        q = cfg.p - 1.0
        grad_pow = np.abs(profile.eta_prime(psi))**q * grad_psi_norm_pow(params, sigma, h, q)
        scaled = np.abs(lap) / (1.0 + grad_pow / psi)
    if not np.all(np.isfinite(scaled)):
        raise DomainError(f"the scaled p-Laplacian of the profile leaves the float range "
                          f"at p={cfg.p!r}")
    worst = float(np.max(scaled))
    name = "max_scaled_p_laplacian_log_profile" if log_case else "max_scaled_p_laplacian_profile"
    return [_record(name, worst, tol=cfg.tol, passed=worst <= cfg.tol, exact=True)]


def _cmd_verify_infinity(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    pts = sample_points(params, cfg.points, cfg.seed)
    lap = infinity_laplacian(params, GaugePsi(params), pts)
    sigma, _, h = gauge_parts(params, pts)
    scale = 1.0 + grad_psi_norm_pow(params, sigma, h, 3.0)
    worst = float(np.max(np.abs(lap) / scale))
    return [_record("max_scaled_infinity_laplacian_psi", worst, tol=cfg.tol,
                    passed=worst <= cfg.tol, exact=True)]


def _cmd_bracket_report(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    pts = sample_points(params, min(cfg.points, 25), cfg.seed)
    records = bracket_comparison(params, pts)
    max_diff = max(r["abs_diff"] for r in records)
    agree_all = all(r["agree"] for r in records)
    # both records are informational: neither has a gate, so the report passes
    return [
        _record("printed_vs_computed_max_abs_diff", max_diff, exact=True),
        _record("printed_matches_computed", 1.0 if agree_all else 0.0, exact=True),
    ]


def _cmd_sigma(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    est = sigma_p(params, cfg.p, cfg.samples, cfg.seed, cfg.threads)
    return [_record("sigma_p", est.mean, stderr=est.stderr, run=est)]


def _cmd_ahlfors(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    radii = cfg.radii
    if len(radii) < 2:
        raise ConfigurationError(f"ahlfors needs at least two radii, got {len(radii)}")
    for R in radii:
        check_radius(R)
    # V(B_R) / R^Q is sigma_p exactly (the dilation delta_R), so each radius
    # is a sigma_p run, on its own stream: a shared one would repeat the
    # estimate and make the constancy check vacuous
    ests = [sigma_p(params, cfg.p, cfg.samples, cfg.seed, cfg.threads, stream=(STREAM_BALL, idx))
            for idx in range(len(radii))]
    out = [_record(f"ball_measure_over_R^Q@R={R:g}", e.mean, stderr=e.stderr, run=e)
           for R, e in zip(radii, ests)]
    for (Ra, a), (Rb, b) in itertools.pairwise(zip(radii, ests)):
        gap, sigma = abs(a.mean - b.mean), float(np.hypot(a.stderr, b.stderr))
        out.append(_record(f"constancy_gap@R={Ra:g}vs{Rb:g}", gap, stderr=sigma,
                           tol=cfg.tol * sigma, passed=gap <= cfg.tol * sigma))
    return out


def _bump_at_radii(params: SpaceParams, bump: CutoffBump, radii) -> list[float]:
    """phi(h = radius^(4k)) at each radius: the closed-form density there,
    and minus the closed-form pairing (see `weakform`)."""
    return [float(bump.values_of_h(radius ** (4 * params.k))) for radius in radii]


def _cmd_density(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    bump = CutoffBump(params, cfg.bump_radius)
    ests = density_limit(params, cfg.p, bump, cfg.radii, cfg.samples, cfg.seed, cfg.threads)
    exact = _bump_at_radii(params, bump, cfg.radii)
    return _radius_records("density", "R", cfg.radii, ests, exact, cfg.tol)


def _cmd_dirac(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    bump = CutoffBump(params, cfg.bump_radius)
    # the reported constant needs sigma_p of params, which dirac_limit does
    # not: form it before any draw
    constant = normalization(params, cfg.p, sigma_p_exact(params, cfg.p))
    ests = dirac_limit(params, cfg.p, bump, cfg.radii, cfg.samples, cfg.seed, cfg.threads)
    exact = [-v for v in _bump_at_radii(params, bump, cfg.radii)]
    return _radius_records("pairing", "r", cfg.radii, ests, exact, cfg.tol) + [
        _record("normalization_constant", constant, exact=True)
    ]


def _cmd_capacity(cfg: RunConfig) -> list[dict]:
    params, p, r, R = cfg.space(), cfg.p, cfg.r, cfg.R
    # each name is looked up at call time, so a tracer that rebinds it sees the call
    calls = {
        "closed-form": lambda: closed_form_capacity(params, p, r, R),
        "radial-variational": lambda: minimize_radial(params, p, r, R, cfg.knots)[1],
        "mc-energy": lambda: mc_energy(params, p, r, R, cfg.samples, cfg.seed, cfg.threads),
    }
    records = {}
    for method in CAPACITY_RUNS[cfg.method]:
        value, name = calls[method](), f"capacity[{method}]"
        records[method] = (_record(name, value.mean, stderr=value.stderr, run=value)
                           if isinstance(value, MCEstimate) else _record(name, value, exact=True))
    out = list(records.values())
    if cfg.method == "all":
        for (a, ra), (b, rb) in itertools.combinations(records.items(), 2):
            rel = abs(ra["value"] - rb["value"]) / abs(ra["value"])
            # only b, when it is mc-energy, has a stderr
            stderr = rb["stderr"] / abs(ra["value"]) if "stderr" in rb else None
            out.append(
                _record(f"relative_gap[{a}|{b}]", rel, stderr=stderr,
                        tol=cfg.tol, passed=rel <= cfg.tol, exact=True)
            )
    return out


# Every command: its runner, default --tol and default --radii.  The
# tolerances are scaled 1e-8 for AD operator checks, 3 sigma for MC
# consistency, 0.02 absolute for each density and pairing against its closed
# form, 2% for capacity cross-checks, and 0 where nothing is gated.
COMMANDS = {
    "verify-fundamental": (_cmd_verify_fundamental, 1e-8, ()),
    "verify-infinity": (_cmd_verify_infinity, 1e-8, ()),
    "bracket-report": (_cmd_bracket_report, 0.0, ()),
    "sigma": (_cmd_sigma, 0.0, ()),
    "ahlfors": (_cmd_ahlfors, 3.0, (0.5, 1.0, 2.0)),  # tol in sigmas
    "density": (_cmd_density, 0.02, (0.4, 0.2, 0.1)),
    "dirac": (_cmd_dirac, 0.02, (0.2, 0.1, 0.05)),
    "capacity": (_cmd_capacity, 0.02, ()),
}


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute a validated config; returns (report, exit code)."""
    start = time.perf_counter()
    results = COMMANDS[cfg.command][0](cfg)
    duration = time.perf_counter() - start
    passed = all(rec.get("pass", True) for rec in results)
    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": cfg.command,
        "config": cfg.echo(),
        "results": results,
        "passed": passed,
        "duration_s": duration,
    }
    return report, 0 if passed else 2


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["command", "name", "value", "stderr", "tol", "pass"])
    for rec in report["results"]:
        writer.writerow(
            [
                report["command"],
                rec["name"],
                repr(rec["value"]),
                repr(rec["stderr"]) if "stderr" in rec else "",
                repr(rec["tol"]) if "tol" in rec else "",
                rec.get("pass", ""),
            ]
        )
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for failed checks
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = build_config(args)
        report, code = run(cfg)
        text = render_json(report) if cfg.format == "json" else render_csv(report)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError) as exc:  # ConfigurationError and DomainError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
