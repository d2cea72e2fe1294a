"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Sample counts and
tolerances are pinned here and are not meant to be tuned.
"""

import json
import time

import numpy as np
import pytest

from sublap import (
    Constant,
    CutoffBump,
    FundamentalProfile,
    GaugePsi,
    SpaceParams,
    annulus_capacity,
    ball_measure,
    bracket_comparison,
    closed_form_capacity,
    density_limit,
    dirac_limit,
    exponents,
    gauge,
    horizontal_gradient,
    infinity_laplacian,
    lie_bracket,
    lie_bracket_printed,
    p_laplacian,
    sample_points,
    sigma_p,
    shell_integral_extrapolated,
)
from sublap.capacity import METHODS
from sublap.montecarlo import STREAM_BALL

from test_frame import _fd_commutator_t_coeff, _random_cubic

SETUPS = {
    "A": SpaceParams(1, 1.0, 1.0),
    "B": SpaceParams(1, 2.0, 1.0),
    "C": SpaceParams(2, 1.5, -2.0),
}
OPERATOR_TOL = 1e-8
GRADIENT_TOL = 1e-10
MC_SAMPLES = 10**6
LIMIT_TOL = 0.02
SEED = 90210


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _points(params, count=100, seed=SEED):
    return sample_points(params, count, seed)


def test_criterion_1_fundamental_solution_harmonicity():
    start = time.perf_counter()
    worst = 0.0
    for params in SETUPS.values():
        pts = _points(params)
        p_values = [p for p in (1.5, 2.0, 3.0, 7.0) if not exponents(params, p).is_log_case]
        p_values.append(params.Q)  # log case
        for p in p_values:
            field = FundamentalProfile(params, p)
            for P in pts:
                hg = horizontal_gradient(params, field, P)
                psi = gauge(params, P).psi
                scale = 1.0 + float(hg @ hg) ** ((p - 1.0) / 2.0) / psi
                worst = max(worst, abs(p_laplacian(params, field, P, p)) / scale)
        psi_field = GaugePsi(params)
        for P in pts:
            hg = horizontal_gradient(params, psi_field, P)
            scale = 1.0 + float(hg @ hg) ** 1.5
            worst = max(worst, abs(infinity_laplacian(params, psi_field, P)) / scale)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= OPERATOR_TOL,
        f"max scaled |Delta_p profile|, |Delta_Q log|, |Delta_inf psi| = "
        f"{worst:.2e} <= {OPERATOR_TOL:.0e} ({elapsed:.1f}s)",
    )


def test_criterion_2_closed_form_gradient_identities():
    worst = 0.0
    for params in SETUPS.values():
        pts = _points(params)
        psi_field = GaugePsi(params)
        for P in pts:
            g = gauge(params, P)
            hg = horizontal_gradient(params, psi_field, P)
            closed = (
                params.c**2
                * g.Sigma ** (2 * params.k - 1.0)
                * g.h ** ((1.0 - 2 * params.k) / (2 * params.k))
            )
            worst = max(worst, abs(float(hg @ hg) - closed) / closed)
        for p in (1.5, 2.0, 3.0, 7.0):
            e = exponents(params, p)
            if e.is_log_case:
                continue
            field = FundamentalProfile(params, p)
            for P in pts[:40]:
                g = gauge(params, P)
                hg = horizontal_gradient(params, field, P)
                closed = (
                    e.alpha**2
                    * params.c**2
                    * g.h ** (2 * e.w - 1.0)
                    * g.Sigma ** (2 * params.k - 1.0)
                )
                worst = max(worst, abs(float(hg @ hg) - closed) / closed)
    _verdict(
        2,
        worst <= GRADIENT_TOL,
        f"max relative error of |grad_0 psi|^2 and |grad_0 psi^alpha|^2 closed "
        f"forms = {worst:.2e} <= {GRADIENT_TOL:.0e}",
    )


def test_criterion_3_bracket_oracle_and_report():
    rng = np.random.default_rng(SEED)
    worst_fd = 0.0
    for params in SETUPS.values():
        pts = _points(params, count=3, seed=SEED + 1)
        cubics = [_random_cubic(params, rng) for _ in range(20)]
        for phi in cubics:
            for P in pts:
                step = 1e-4 * (1.0 + np.abs(P).max())
                for i in range(1, 2 * params.n + 1):
                    for j in range(i + 1, 2 * params.n + 1):
                        want = _fd_commutator_t_coeff(params, i, j, P, phi, step)
                        got = lie_bracket(params, i, j, P)[-1]
                        worst_fd = max(worst_fd, abs(got - want) / (1.0 + abs(want)))
    ok_fd = worst_fd <= 1e-6

    worst_k1 = 0.0
    for params in (SETUPS["A"], SpaceParams(2, 1.0, -3.0)):
        for P in sample_points(params, 5, SEED + 2):
            for i in range(1, 2 * params.n + 1):
                for j in range(i + 1, 2 * params.n + 1):
                    expected = -4 * params.c if j - params.n == i else 0.0
                    got = lie_bracket(params, i, j, P)[-1]
                    worst_k1 = max(worst_k1, abs(got - expected))
                    printed = lie_bracket_printed(params, i, j, P)[-1]
                    worst_k1 = max(worst_k1, abs(printed - expected))
    ok_k1 = worst_k1 <= 1e-12

    report_a = bracket_comparison(SETUPS["A"], sample_points(SETUPS["A"], 5, SEED + 3))
    report_b = bracket_comparison(SETUPS["B"], sample_points(SETUPS["B"], 5, SEED + 3))
    ok_report = all(r["agree"] for r in report_a) and any(
        not r["agree"] for r in report_b
    )
    _verdict(
        3,
        ok_fd and ok_k1 and ok_report,
        f"FD-commutator max rel err {worst_fd:.2e} <= 1e-6; k=1 max abs err "
        f"{worst_k1:.2e} <= 1e-12; comparison report: k=1 agrees, k=2 "
        f"discrepancy recorded",
    )


def test_criterion_4_ahlfors_regularity():
    start = time.perf_counter()
    ok = True
    details = []
    for name, params in SETUPS.items():
        Q = params.Q
        radii = (0.5, 1.0, 2.0)
        ests = [
            ball_measure(params, 2.0, R, MC_SAMPLES, SEED, stream=STREAM_BALL + i)
            for i, R in enumerate(radii)
        ]
        norm = [(e.mean / R**Q, e.stderr / R**Q) for e, R in zip(ests, radii)]
        for (va, sa), (vb, sb) in zip(norm[:-1], norm[1:]):
            ok = ok and abs(va - vb) <= 3.0 * np.hypot(sa, sb)
        ratio = ests[2].mean / ests[1].mean
        sig = ratio * np.hypot(
            ests[2].stderr / ests[2].mean, ests[1].stderr / ests[1].mean
        )
        ok = ok and abs(ratio - 2.0**Q) <= 3.0 * sig
        details.append(f"{name}: V(B2)/V(B1)={ratio:.2f} (target {2.0**Q:g})")
    elapsed = time.perf_counter() - start
    _verdict(4, ok, "; ".join(details) + f"; constancy within 3 sigma ({elapsed:.1f}s)")


def test_criterion_5_surface_and_density():
    start = time.perf_counter()
    ok = True
    details = []
    for name, params in SETUPS.items():
        one = Constant(1.0, params.dim)
        s1 = shell_integral_extrapolated(params, 2.0, 1.0, one, MC_SAMPLES, SEED)
        s2 = shell_integral_extrapolated(params, 2.0, 2.0, one, MC_SAMPLES, SEED + 1)
        ratio = s2.mean / s1.mean
        target = 2.0 ** (params.Q - 1.0)
        sig = ratio * np.hypot(s1.stderr / s1.mean, s2.stderr / s2.mean)
        ok = ok and abs(ratio - target) <= 3.0 * sig
        details.append(f"{name}: S(dB2)/S(dB1)={ratio:.2f} (target {target:g})")
    for name in ("A", "C"):
        params = SETUPS[name]
        bump = CutoffBump(params, 1.0)
        radii = [0.4, 0.2, 0.1]
        table = density_limit(params, 2.0, bump, radii, MC_SAMPLES, SEED)
        err = abs(table.limit - 1.0)
        ok = ok and err <= LIMIT_TOL
        details.append(f"{name}: density limit err {err:.3f}")
    elapsed = time.perf_counter() - start
    _verdict(5, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_6_dirac_identity():
    start = time.perf_counter()
    params = SETUPS["A"]
    bump = CutoffBump(params, 1.0)
    ok = True
    details = []
    for p in (2.0, 3.0, params.Q):
        table = dirac_limit(params, p, bump, [0.2, 0.1, 0.05], MC_SAMPLES, SEED)
        err = abs(table.limit - (-1.0))
        ok = ok and err <= LIMIT_TOL
        details.append(f"p={p:g}: limit {table.limit:+.4f} (err {err:.3f})")
    elapsed = time.perf_counter() - start
    _verdict(6, ok, "; ".join(details) + f"; tol {LIMIT_TOL} ({elapsed:.1f}s)")


def test_criterion_7_capacity_three_way():
    start = time.perf_counter()
    ok = True
    details = []
    anchor = closed_form_capacity(SETUPS["A"], 2.0, 1.0, 2.0).value
    ok = ok and anchor == pytest.approx(32.0 / 3.0, rel=1e-12)
    for name, params in (("A", SETUPS["A"]), ("B", SETUPS["B"])):
        Q = params.Q
        for p in (2.0, 3.0, Q, Q + 2.0):
            vals = {
                method: annulus_capacity(params, p, 1.0, 2.0, method, 4 * 10**5, SEED, 400)
                for method in METHODS
            }
            closed = vals["closed-form"].value
            radial = vals["radial-variational"].value
            mc = vals["mc-energy"]
            ok = ok and abs(radial - closed) / closed <= 5e-3
            ok = ok and abs(mc.value - closed) <= 3.0 * mc.stderr + 0.01 * closed
            pair = max(
                abs(closed - radial) / closed,
                abs(closed - mc.value) / closed,
                abs(radial - mc.value) / radial,
            )
            ok = ok and pair <= LIMIT_TOL
            details.append(f"{name},p={p:g}: max pairwise gap {pair:.4f}")
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        ok,
        f"anchor 32/3 sigma_2 exact; " + "; ".join(details[:4]) + f"; ... ({elapsed:.1f}s)",
    )


def test_criterion_8_determinism(tmp_path):
    from sublap.cli import main

    params = SETUPS["C"]
    a = sigma_p(params, 2.0, 2 * 10**5, SEED, threads=1)
    b = sigma_p(params, 2.0, 2 * 10**5, SEED, threads=4)
    ok = a == b

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["sigma", "--p", "2", "--samples", "100000", "--seed", "11"]
    main(argv + ["--out", str(out1), "--threads", "1"])
    main(argv + ["--out", str(out2), "--threads", "3"])
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    for rep in (r1, r2):
        rep.pop("duration_s")
        # the two invocations differ only in the fields varied here
        rep["config"].pop("threads")
        rep["config"].pop("out")
    ok = ok and r1 == r2
    _verdict(
        8,
        ok,
        "estimates bit-identical and reports byte-identical (minus duration) "
        "across parallelism degrees",
    )
