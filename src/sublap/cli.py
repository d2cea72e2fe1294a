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
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .capacity import METHODS, annulus_capacity
from .errors import ConfigurationError, DomainError
from .extrapolation import LimitTable
from .fields import CutoffBump, FundamentalProfile, GaugePsi, gauge_parts
from .frame import bracket_comparison, infinity_laplacian, p_laplacian
from .montecarlo import (
    STREAM_BALL,
    ball_measure,
    density_limit,
    grad_psi_norm_sq,
    resolve_threads,
    sample_points,
    sigma_p,
)
from .space import SpaceParams, is_log_case, normalization, sigma_p_exact
from .weakform import dirac_limit

REPORT_SCHEMA = "sublap-report-v1"

COMMANDS = (
    "verify-fundamental",
    "verify-infinity",
    "bracket-report",
    "sigma",
    "ahlfors",
    "density",
    "dirac",
    "capacity",
)

RADII_DEFAULTS = {
    "ahlfors": [0.5, 1.0, 2.0],
    "density": [0.4, 0.2, 0.1],
    "dirac": [0.2, 0.1, 0.05],
}

# The capacity methods each --method runs.
CAPACITY_RUNS = {
    "closed-form": ("closed-form",),
    "radial": ("radial-variational",),
    "mc": ("mc-energy",),
    "all": METHODS,
}

# Default tolerances: scaled 1e-8 for AD operator checks, 3 sigma for MC
# consistency, 2% for extrapolated limits and capacity cross-checks.
TOL_DEFAULTS = {
    "verify-fundamental": 1e-8,
    "verify-infinity": 1e-8,
    "bracket-report": 1e-6,
    "ahlfors": 3.0,      # sigmas
    "density": 0.02,
    "dirac": 0.02,
    "capacity": 0.02,
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
    radii: list[float] | None = None  # None: RADII_DEFAULTS of the command
    bump_radius: float = 1.0
    knots: int = 400
    method: str = "all"
    threads: int | None = None
    tol: float | None = None  # None: TOL_DEFAULTS of the command
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublap",
        description="Verify gauge operators, measures, the Dirac identity, "
        "and annulus capacities for the horizontal frame.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--n", type=int)
        cmd.add_argument("--k", type=float)
        cmd.add_argument("--c", type=float)
        cmd.add_argument("--x0", type=str, help="comma-separated coordinates")
        cmd.add_argument("--p", type=float)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--samples", type=int)
        cmd.add_argument("--points", type=int)
        cmd.add_argument("--r", type=float)
        cmd.add_argument("--R", type=float)
        cmd.add_argument("--radii", type=str, help="comma-separated radii")
        cmd.add_argument("--bump-radius", dest="bump_radius", type=float)
        cmd.add_argument("--knots", type=int)
        cmd.add_argument("--method", choices=list(CAPACITY_RUNS))
        cmd.add_argument("--threads", type=int)
        cmd.add_argument("--tol", type=float)
        cmd.add_argument("--format", choices=["json", "csv"])
        cmd.add_argument("--out", type=str)
        cmd.add_argument("--config", type=str, help="flat key=value file")
    return parser


_COERCERS = {
    "n": int, "seed": int, "samples": int, "points": int, "knots": int,
    "threads": int,
    "k": float, "c": float, "p": float, "r": float, "R": float,
    "bump_radius": float, "tol": float,
    "x0": _parse_floats, "radii": _parse_floats,
    "method": str, "format": str, "out": str,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < flags, then validate."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            key = key.replace("-", "_")
            if key not in _COERCERS:
                raise ConfigurationError(f"unknown config key {key!r}")
            try:
                merged[key] = _COERCERS[key](raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key!r}: {raw!r}") from exc
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _COERCERS[key](flag) if isinstance(flag, str) and key in ("x0", "radii") else flag
    command = args.command
    if merged["radii"] is None:
        merged["radii"] = list(RADII_DEFAULTS.get(command, []))
    if merged["tol"] is None:
        merged["tol"] = TOL_DEFAULTS.get(command, 0.0)
    cfg = RunConfig(command=command, **merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The checks that no library function makes.  Every other value is
    checked by the library on the path that uses it, and its error exits 1
    the same way.  method and format are checked here too because
    config-file values bypass argparse's choices."""
    if not 0 <= cfg.tol < math.inf:
        raise ConfigurationError(f"tol must be nonnegative and finite, got {cfg.tol!r}")
    if cfg.method not in CAPACITY_RUNS:
        raise ConfigurationError(f"unknown method {cfg.method!r}")
    if cfg.format not in ("json", "csv"):
        raise ConfigurationError(f"unknown format {cfg.format!r}")
    resolve_threads(cfg.threads)  # also checks SUBLAP_THREADS when --threads is absent


def _record(name, value, stderr=None, tol=None, passed=None, exact=False) -> dict:
    rec = {"name": name, "value": float(value)}
    if stderr is not None:
        rec["stderr"] = float(stderr)
    else:
        rec["exact"] = bool(exact)
    if tol is not None:
        rec["tol"] = float(tol)
    if passed is not None:
        rec["pass"] = bool(passed)
    return rec


def _limit_records(table: LimitTable, label: str, error_name: str, tol: float,
                   notes=()) -> list[dict]:
    """The estimate at each radius, `notes`, the gated distance of the
    extrapolated limit from the target, whether the extrapolation fell back
    to the finest radius, and the fitted rate when it did not (a fallback
    has none)."""
    out = [
        _record(f"{label}={r:g}", e.mean, stderr=e.stderr)
        for r, e in zip(table.radii, table.estimates)
    ]
    out += notes
    err = abs(table.limit - table.target)
    out.append(_record(error_name, err, tol=tol, passed=err <= tol, exact=True))
    extra = table.extrapolation
    out.append(_record("extrapolation_fallback", 1.0 if extra.fallback else 0.0, exact=True))
    if not extra.fallback:
        out.append(_record("extrapolation_rate", extra.rate, exact=True))
    return out


# ---------------------------------------------------------------- commands

def _cmd_verify_fundamental(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    pts = sample_points(params, cfg.points, cfg.seed)
    profile = FundamentalProfile(params, cfg.p)
    log_case = is_log_case(params, cfg.p)
    lap = p_laplacian(params, profile, pts, cfg.p)
    # scale 1 + |grad_0 f|^(p-1) / psi, with |grad_0 f| = |eta'(psi)| |grad_0 psi|
    sigma, _, h = gauge_parts(params, pts)
    psi = h ** (1.0 / (4 * params.k))
    grad_norm = np.abs(profile.eta_prime(psi)) * np.sqrt(grad_psi_norm_sq(params, sigma, h))
    scale = 1.0 + grad_norm ** (cfg.p - 1.0) / psi
    worst = float(np.max(np.abs(lap) / scale))
    name = "max_scaled_p_laplacian_log_profile" if log_case else "max_scaled_p_laplacian_profile"
    return [_record(name, worst, tol=cfg.tol, passed=worst <= cfg.tol, exact=True)]


def _cmd_verify_infinity(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    pts = sample_points(params, cfg.points, cfg.seed)
    lap = infinity_laplacian(params, GaugePsi(params), pts)
    sigma, _, h = gauge_parts(params, pts)
    scale = 1.0 + grad_psi_norm_sq(params, sigma, h) ** 1.5
    worst = float(np.max(np.abs(lap) / scale))
    return [_record("max_scaled_infinity_laplacian_psi", worst, tol=cfg.tol,
                    passed=worst <= cfg.tol, exact=True)]


def _cmd_bracket_report(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    pts = sample_points(params, min(cfg.points, 25), cfg.seed)
    records = bracket_comparison(params, pts)
    max_diff = max(r["abs_diff"] for r in records)
    agree_all = all(r["agree"] for r in records)
    out = [
        _record("printed_vs_computed_max_abs_diff", max_diff, exact=True),
        _record("printed_matches_computed", 1.0 if agree_all else 0.0, exact=True),
    ]
    # comparison is informational; the command passes unless the FD-style
    # consistency of the computed bracket itself is broken (checked in tests)
    return out


def _cmd_sigma(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    est = sigma_p(params, cfg.p, cfg.samples, cfg.seed, cfg.threads)
    return [_record("sigma_p", est.mean, stderr=est.stderr)]


def _cmd_ahlfors(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    Q = params.Q
    radii = cfg.radii
    if len(radii) < 2:
        raise ConfigurationError(f"ahlfors needs at least two radii, got {len(radii)}")
    # one substream per radius: the box sampler is scale-equivariant, so a
    # shared stream would make the constancy check vacuous
    ests = [
        ball_measure(params, cfg.p, R, cfg.samples, cfg.seed, cfg.threads,
                     stream=STREAM_BALL + idx)
        for idx, R in enumerate(radii)
    ]
    out = []
    normalized = [(e.mean / R**Q, e.stderr / R**Q) for e, R in zip(ests, radii)]
    for Ri, (vi, si) in zip(radii, normalized):
        out.append(_record(f"ball_measure_over_R^Q@R={Ri:g}", vi, stderr=si))
    for idx in range(len(radii) - 1):
        (va, sa), (vb, sb) = normalized[idx], normalized[idx + 1]
        gap = abs(va - vb)
        lim = cfg.tol * float(np.hypot(sa, sb))
        out.append(
            _record(
                f"constancy_gap@R={radii[idx]:g}vs{radii[idx+1]:g}", gap,
                tol=lim, passed=gap <= lim, exact=True,
            )
        )
    return out


def _cmd_density(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    bump = CutoffBump(params, cfg.bump_radius)
    table = density_limit(params, cfg.p, bump, cfg.radii, cfg.samples, cfg.seed, cfg.threads)
    return _limit_records(table, "density@R", "extrapolated_density_error", cfg.tol)


def _cmd_dirac(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    bump = CutoffBump(params, cfg.bump_radius)
    table = dirac_limit(params, cfg.p, bump, cfg.radii, cfg.samples, cfg.seed, cfg.threads)
    constant = normalization(params, cfg.p, sigma_p_exact(params, cfg.p))
    return _limit_records(
        table, "pairing@r", "extrapolated_limit_error", cfg.tol,
        [_record("normalization_constant", constant, exact=True)],
    )


def _cmd_capacity(cfg: RunConfig) -> list[dict]:
    params = cfg.space()
    results = [
        annulus_capacity(params, cfg.p, cfg.r, cfg.R, method, cfg.samples, cfg.seed,
                         cfg.knots, cfg.threads)
        for method in CAPACITY_RUNS[cfg.method]
    ]
    out = [
        _record(f"capacity[{res.method}]", res.value, stderr=res.stderr,
                exact=res.stderr is None)
        for res in results
    ]
    if cfg.method == "all":
        values = {res.method: res.value for res in results}
        for a, b in itertools.combinations(METHODS, 2):
            rel = abs(values[a] - values[b]) / abs(values[a])
            out.append(
                _record(f"relative_gap[{a}|{b}]", rel, tol=cfg.tol,
                        passed=rel <= cfg.tol, exact=True)
            )
    return out


_RUNNERS = {
    "verify-fundamental": _cmd_verify_fundamental,
    "verify-infinity": _cmd_verify_infinity,
    "bracket-report": _cmd_bracket_report,
    "sigma": _cmd_sigma,
    "ahlfors": _cmd_ahlfors,
    "density": _cmd_density,
    "dirac": _cmd_dirac,
    "capacity": _cmd_capacity,
}


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute a validated config; returns (report, exit code)."""
    start = time.perf_counter()
    results = _RUNNERS[cfg.command](cfg)
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
    except (ConfigurationError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
