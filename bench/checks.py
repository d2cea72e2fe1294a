"""Output checks the benchmark applies to every report it receives."""

from __future__ import annotations

import json
import math

SIGMA_Z_LIMIT = 4.0


def sigma_p_exact(n: int, k: float, c: float, p: float) -> float:
    """Closed form of sigma_p = V(B_1) from the coarea reduction.

    sigma_p = omega_(2n-1) |c|^((p-2n)/(2k)) B(1/2, (m+1)/2) / (2(n+k)),
    m = p(2k-1)/(2k) + n/k - 1, omega_(2n-1) = 2 pi^n / Gamma(n).
    """
    m = p * (2 * k - 1) / (2 * k) + n / k - 1
    omega = 2 * math.pi**n / math.gamma(n)
    a, b = 0.5, (m + 1) / 2
    beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    return omega * abs(c) ** ((p - 2 * n) / (2 * k)) * beta / (2 * (n + k))


def sigma_z_score(report: dict) -> float:
    """|MC sigma_p - closed form| / stderr for a `sigma` report."""
    cfg = report["config"]
    rec = next(r for r in report["results"] if r["name"] == "sigma_p")
    exact = sigma_p_exact(cfg["n"], cfg["k"], cfg["c"], cfg["p"])
    return abs(rec["value"] - exact) / rec["stderr"]


def canonical(report: dict) -> str:
    """The report minus its timing, as compared across repeats."""
    return json.dumps({k: v for k, v in report.items() if k != "duration_s"}, sort_keys=True)


def verify(kind: str, code: int, text: str) -> tuple[dict | None, list[str]]:
    """Parse one CLI output and list what is wrong with it (empty: correct)."""
    try:
        report = json.loads(text)
    except ValueError:
        return None, [f"{kind}: exit {code}, output is not a JSON report"]
    problems = []
    if code != 0:
        problems.append(f"{kind}: exit code {code}")
    if report.get("passed") is not True:
        failed = [r["name"] for r in report.get("results", []) if r.get("pass") is False]
        problems.append(f"{kind}: report not passed ({', '.join(failed)})")
    if not all(math.isfinite(r["value"]) for r in report.get("results", [])):
        problems.append(f"{kind}: non-finite value in report")
    if kind == "sigma" and not problems:
        z = sigma_z_score(report)
        if not z <= SIGMA_Z_LIMIT:
            problems.append(f"sigma: z = {z:.2f} against the closed form")
    return report, problems


# Records that estimate sigma_p with the full sample count: the sigma check,
# ahlfors' normalized ball measures (the box sampler is scale-equivariant, so
# each is a sigma_p estimate on its own stream) and dirac's companion run.
SIGMA_RECORDS = ("sigma_p", "ball_measure_over_R^Q@")
CAPACITY_RECORDS = ("capacity[mc-energy]",)


def rel_var(reports, prefixes) -> float:
    """Mean (stderr / value)^2 over the records whose name starts with a prefix
    (0 when there is none, as after a failed check)."""
    values = [(r["stderr"] / r["value"]) ** 2 for report in reports
              for r in report["results"] if r["name"].startswith(prefixes)]
    return sum(values) / len(values) if values else 0.0
