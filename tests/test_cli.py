import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from test_golden import SPACES

import sublap
from sublap import CutoffBump, SpaceParams, closed_form_capacity, sigma_p_exact
from sublap.cli import COMMANDS, build_parser, main

FAST = ["--samples", "10000", "--points", "20", "--seed", "7"]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1

    def test_config_error_zero_samples(self, capsys):
        assert main(["sigma", "--p", "2", "--samples", "0"]) == 1

    def test_config_error_bad_p(self, capsys):
        assert main(["sigma", "--p", "0.5"] + FAST) == 1

    def test_config_error_bad_space(self, capsys):
        assert main(["sigma", "--c", "0"] + FAST) == 1

    def test_divergent_sigma_exits_one(self, capsys):
        # k < 1/2 and p >= 2n/(1-2k): the measure diverges, no estimate
        assert main(["sigma", "--k", "0.4", "--p", "12"] + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "diverges" in captured.err

    @pytest.mark.parametrize("command", ["density", "dirac"])
    def test_increasing_radii_exit_one(self, capsys, command):
        # the library checks the order; the CLI reports its error
        assert main([command, "--radii", "0.05,0.1"] + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: radii must be strictly decreasing and positive\n"

    # Each input is rejected by the library function that uses it; the CLI
    # maps the error to exit 1 without a check of its own.
    @pytest.mark.parametrize("argv,message", [
        (["sigma", "--p", "1"] + FAST, "p must exceed 1"),
        (["sigma", "--samples", "9999", "--seed", "7"], "at least 1e4 samples"),
        (["ahlfors", "--radii", "0,1"] + FAST, "radius must be positive"),
        (["density", "--radii", "0.4,0"] + FAST, "strictly decreasing and positive"),
        (["dirac", "--radii", "1.5,0.1"] + FAST, "inside the bump support"),
        (["capacity", "--r", "2", "--R", "1"] + FAST, "need 0 < r < R"),
        (["density", "--bump-radius", "0"] + FAST, "support radius must be positive"),
        (["dirac", "--bump-radius", "-1"] + FAST, "support radius must be positive"),
        (["capacity", "--method", "radial", "--knots", "4"] + FAST, "at least 8 segments"),
        (["verify-fundamental", "--points", "0", "--seed", "7"], "at least one point"),
        (["capacity", "--p", "1e12"] + FAST, "p must exceed 1"),
        # checked for every command, whether it runs threads or not
        (["sigma", "--threads", "0"] + FAST, "thread count must be >= 1"),
        (["verify-fundamental", "--threads", "-2"] + FAST, "thread count must be >= 1"),
        # SeedSequence takes a seed whole; a negative one has no stream
        (["sigma", "--samples", "10000", "--seed", "-1"], "seed must be nonnegative"),
        (["verify-fundamental", "--points", "20", "--seed", "-1"], "seed must be nonnegative"),
    ])
    def test_library_domain_error_exits_one(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err

    def test_ignored_flag_is_not_validated(self, capsys):
        # verify-fundamental draws no MC samples
        code, _ = run_cli(capsys, ["verify-fundamental", "--samples", "0", "--points", "20"])
        assert code == 0

    @pytest.mark.parametrize("space,p", [
        (("--n", "2", "--k", "1.5", "--c", "-2"), "1.5"),
        (("--n", "2", "--k", "1.5", "--c", "-2"), "1.1"),
        ((), "1.01"),
        ((), "40"),
    ], ids=["C-1.5", "C-1.1", "A-1.01", "A-40"])
    def test_radial_capacity_is_finite(self, capsys, space, p):
        values = []
        for method in ("radial", "closed-form"):
            assert main(["capacity", *space, "--p", p, "--method", method] + FAST) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            values.append(json.loads(captured.out)["results"][0]["value"])
        radial, closed = values
        assert math.isfinite(radial)
        assert abs(radial - closed) <= 5e-3 * closed

    @pytest.mark.parametrize("argv", [
        ["--r", "1e-300", "--R", "1e-299"],          # 8.1e-600
        ["--r", "1e100", "--R", "2e100", "--p", "40"],  # 1.3e-3599
    ], ids=["tiny-radii", "huge-radii-p40"])
    def test_closed_form_capacity_beyond_float_range_exits_one(self, capsys, argv):
        assert main(["capacity", *argv, "--method", "closed-form"] + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: closed-form capacity")
        assert "outside the float range" in captured.err

    def test_closed_form_capacity_p_near_one_is_finite(self, capsys):
        argv = ["capacity", "--r", "0.001", "--R", "0.002", "--p", "1.01",
                "--method", "closed-form"]
        code, out = run_cli(capsys, argv + FAST)
        assert code == 0
        # |alpha|^(p-1) Q (r^alpha - R^alpha)^(1-p) at 50 digits, from the
        # float p the CLI reads; n = k = 1, so Q = 4
        with mpmath.workdps(50):
            p, r, R, Q = mpmath.mpf(1.01), mpmath.mpf(0.001), mpmath.mpf(0.002), 4
            alpha = (Q - p) / (1 - p)
            exact = float(abs(alpha) ** (p - 1) * Q * (r**alpha - R**alpha) ** (1 - p))
        value = json.loads(out)["results"][0]["value"]
        assert value == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("argv,message", [
        (["capacity", "--R", "inf", "--method", "mc"], "radius must be positive and finite"),
        (["capacity", "--R", "inf", "--method", "radial"], "need 0 < r < R < inf"),
        (["ahlfors", "--radii", "1,inf"], "radius must be positive and finite"),
    ], ids=["capacity-mc", "capacity-radial", "ahlfors"])
    def test_infinite_radius_exits_one(self, capsys, recwarn, argv, message):
        # rejected before any array sees the radius: no NaN, no numpy warning
        assert main(argv + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err
        assert not recwarn.list

    @pytest.mark.parametrize("argv,message", [
        # |c|^((p-2n)/(2k)) = |c|^-8 of the reported V(B_R) / R^Q = sigma_p
        # underflows: NaN warnings and an uncaught OverflowError before
        (["ahlfors", "--n", "3", "--k", "0.25", "--c", "1e100", "--radii", "2e140,1e140"],
         "MC estimate leaves the float range"),
        # c^-8 = 1e-400 again: exit 0 and measures of 0.0 before
        (["ahlfors", "--n", "3", "--k", "0.25", "--c", "1e50", "--radii", "2e46,1e46"],
         "MC estimate leaves the float range"),
        # the density's bump takes h = R^(4k) h_1, which underflows
        # (1.6e-451) or overflows (1e800): exit 2 with two measures of 0.0,
        # and an uncaught OverflowError, before
        (["density", "--n", "1", "--k", "3", "--radii", "2e-38,1e-38"], "R^(4k)"),
        (["density", "--radii", "1e200,1e100,1"], "leaves the float range"),
        # the unit annulus (1e-100, 1): |eta'|^2 = 4e-400 at psi = 1
        (["capacity", "--R", "1e100", "--method", "mc"], "leaves the float range"),
        (["density", "--bump-radius", "1e100"], "not a positive finite float"),
        (["dirac", "--bump-radius", "1e100"], "not a positive finite float"),
        (["density", "--bump-radius", "1e-100"], "not a positive finite float"),
        # B = 1e-312 is a float, its slope 4/(e B) is not
        (["density", "--bump-radius", "1e-78"], "with a finite slope 4/(e B)"),
        (["dirac", "--bump-radius", "1e-78"], "with a finite slope 4/(e B)"),
        # Python float overflows: c^2, and r^alpha at alpha = -299
        (["sigma", "--c", "1e200"], "c^2 must be a finite float"),
        (["capacity", "--r", "1e-5", "--p", "1.01", "--method", "mc"], "leaves the float range"),
        (["capacity", "--r", "1e-5", "--p", "1.01", "--method", "all"], "leaves the float range"),
        # near p = 1: the slope psi^(alpha-1) at r = 0.05 (a NaN pairing
        # before), and the normalization constant itself (-0.0 before)
        (["dirac", "--p", "1.01", "--seed", "3"], "not a nonzero finite float"),
        (["dirac", "--p", "1.003"], "normalization constant"),
        # the profile's slope at some sampled psi, and |grad_0 f|^(p-4) at
        # some rows (NaN with exit 2 and a RuntimeWarning before)
        (["verify-fundamental", "--p", "1.003"], "slope leaves the float range"),
        (["verify-fundamental", "--p", "1.01"], "leaves the float range"),
        # |eta'|^p of the annulus potential leaves the floats at psi = r or R:
        # exit 0 with Infinity/NaN (p = 1.01 at --samples 1000000 --seed 2),
        # 0.0 +- 0.0 against a closed form of 6.78 (p = 1.2) and 8.3e-259
        # against 4.90 (p = 1.05, default samples and seed) before, and exit
        # 2 with --method all
        (["capacity", "--p", "1.01", "--r", "0.0933", "--R", "1", "--method", "mc"],
         "slope leaves the float range"),
        (["capacity", "--p", "1.2", "--r", "1", "--R", "1e40", "--method", "mc"],
         "slope leaves the float range"),
        (["capacity", "--p", "1.05", "--r", "1", "--R", "1e6", "--method", "mc"],
         "slope leaves the float range"),
        (["capacity", "--p", "1.01", "--r", "0.0933", "--R", "1", "--method", "all"],
         "slope leaves the float range"),
        (["capacity", "--p", "1.2", "--r", "1", "--R", "1e40", "--method", "all"],
         "slope leaves the float range"),
        (["capacity", "--p", "1.05", "--r", "1", "--R", "1e6", "--method", "all"],
         "slope leaves the float range"),
        # exit 1 before too, after a RuntimeWarning from the old g/scale check
        (["capacity", "--n", "3", "--k", "2", "--c=-0.0117", "--p", "1.006", "--r", "4.735",
          "--R", "30.28", "--method", "mc"], "slope leaves the float range"),
        # k < 1/2 and p >= n/(1-2k): the MC integrand's square diverges on
        # the axis.  Before, rows near the axis overflowed |grad_0 psi|^p (an
        # inf estimate at p = 6.2), the box overflowed (k = 0.25, c = 1e-150,
        # p = 2, the bound itself), or sigma exited 0 with 17.996 +- 2.14
        # against 28.458 (k = 0.25, p = 3.8, default samples and seed)
        (["sigma", "--n", "3", "--k", "0.1", "--c=-1e10", "--p", "6.2"], "infinite variance"),
        (["sigma", "--k", "0.25", "--c", "1e-150"], "infinite variance"),
        (["sigma", "--k", "0.25", "--p", "3.8"], "infinite variance"),
        # |c|^((p-2n)/(2k)) = 1e16^26 of the reported sigma_p overflows: a
        # RuntimeWarning and an inf estimate with exit 2 before
        (["ahlfors", "--n", "1", "--k", "0.5", "--c", "1e16", "--p", "28"],
         "MC estimate leaves the float range"),
        # |c|^((p-2n)/(2k)) of the closed-form sigma_p, which the pairing's
        # normalization needs: an uncaught OverflowError before
        (["dirac", "--n", "3", "--k", "0.1", "--c", "1e-19", "--p", "2"],
         "not a positive normal float"),
    ], ids=["ahlfors-R^Q-overflow", "ahlfors-width-product", "density-R^(4k)-underflow",
            "density-huge-radii", "capacity-mc-huge-R", "density-huge-bump", "dirac-huge-bump",
            "density-tiny-bump", "density-bump-slope", "dirac-bump-slope", "sigma-c-1e200",
            "capacity-mc-tiny-r-p-1.01", "capacity-all-tiny-r-p-1.01", "dirac-p-1.01",
            "dirac-p-1.003", "verify-fundamental-p-1.003", "verify-fundamental-p-1.01",
            "capacity-mc-p-1.01-r-0.0933", "capacity-mc-p-1.2-R-1e40", "capacity-mc-p-1.05-R-1e6",
            "capacity-all-p-1.01-r-0.0933", "capacity-all-p-1.2-R-1e40",
            "capacity-all-p-1.05-R-1e6", "capacity-mc-annulus-warning", "sigma-inf-estimate",
            "sigma-k-0.25", "sigma-k-0.25-p-3.8", "ahlfors-inf-estimate",
            "dirac-sigma-p-overflow"])
    def test_overflowing_input_exits_one(self, capsys, recwarn, argv, message):
        assert main(argv + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.err.count("\n") == 1
        assert not recwarn.list

    # Each input exited 1 while the kernel sampled B_R itself: a box, volume,
    # R^Q or R^(4k) left the normal floats, although the value reported is
    # a normal float.  Each is now the unit run times its exact factor, and
    # each estimate sits within 4 stderr of its closed form.
    @pytest.mark.parametrize("argv,exact", [
        (["sigma", "--c", "1e-300"], lambda: [math.pi]),
        (["sigma", "--c", "1e-200"], lambda: [math.pi]),
        (["capacity", "--c", "1e-300", "--method", "mc"],
         lambda: [closed_form_capacity(SpaceParams(1, 1.0, 1e-300), 2.0, 1.0, 2.0).value]),
        (["ahlfors", "--n", "3", "--k", "0.5", "--radii", "1e100,1e101"],
         lambda: [sigma_p_exact(SpaceParams(3, 0.5, 1.0), 2.0)] * 2),
        (["ahlfors", "--radii", "1e100,1e101"], lambda: [math.pi] * 2),
        (["ahlfors", "--radii", "2e-80,1e-80"], lambda: [math.pi] * 2),
        (["ahlfors", "--n", "3", "--k", "0.5", "--c", "1e-10", "--radii", "2e-50,1e-50"],
         lambda: [sigma_p_exact(SpaceParams(3, 0.5, 1e-10), 2.0)] * 2),
        (["ahlfors", "--n", "1", "--k", "3", "--radii", "2e-38,1e-38"],
         lambda: [sigma_p_exact(SpaceParams(1, 3.0, 1.0), 2.0)] * 2),
        (["capacity", "--n", "1", "--k", "3", "--r", "1e-38", "--R", "2e-38", "--method", "mc"],
         lambda: [closed_form_capacity(SpaceParams(1, 3.0, 1.0), 2.0, 1e-38, 2e-38).value]),
        (["density", "--n", "3", "--k", "0.1", "--c", "1e-19", "--p", "2"],
         lambda: [float(CutoffBump(SpaceParams(3, 0.1, 1e-19), 1.0).values_of_h(R**0.4))
                  for R in (0.4, 0.2, 0.1)]),
    ], ids=["sigma-c-1e-300", "sigma-c-1e-200", "capacity-mc-c-1e-300", "ahlfors-volume-R7",
            "ahlfors-huge-radii", "ahlfors-tiny-radii", "ahlfors-R^Q-underflow",
            "ahlfors-R^(4k)-underflow", "capacity-mc-R^(4k)-underflow",
            "density-sigma-p-overflow"])
    def test_value_in_the_floats_is_reported(self, capsys, recwarn, argv, exact):
        code, out = run_cli(capsys, argv + FAST)
        assert code == 0
        assert not recwarn.list
        estimates = [rec for rec in json.loads(out)["results"] if "samples" in rec]
        values = exact()
        assert len(estimates) == len(values)
        for rec, value in zip(estimates, values):
            assert abs(rec["value"] - value) <= 4.0 * rec["stderr"], (rec, value)

    def test_pairing_at_huge_c_is_finite(self, capsys, recwarn):
        # |c| = 1e42: rows near the axis took |grad_0 psi|^p past the floats,
        # a RuntimeWarning and a NaN pairing before (exit 1 since the
        # non-finite guard); the unit run and its factor 1e42 are finite
        argv = ["dirac", "--n", "2", "--k", "0.3125", "--c=-1e42", "--p", "4.625",
                "--radii", "2,1", "--bump-radius", "3"]
        code, out = run_cli(capsys, argv + FAST)
        assert code in (0, 2)
        assert not recwarn.list
        values = [v for rec in json.loads(out)["results"] for v in rec.values()
                  if isinstance(v, float)]
        assert values and all(math.isfinite(v) for v in values)

    def test_closed_form_capacity_at_tiny_r_and_p_near_one(self, capsys):
        # the annulus potential leaves the float range here, the closed form not
        argv = ["capacity", "--r", "1e-5", "--p", "1.01", "--method", "closed-form"]
        code, out = run_cli(capsys, argv + FAST)
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == 4.751346499732997e-15

    @pytest.mark.parametrize("argv", [
        ["verify-fundamental", "--c", "1e150"],
        ["verify-infinity", "--k", "0.1", "--c", "1e60"],
    ], ids=["verify-fundamental-c-1e150", "verify-infinity-k-0.1-c-1e60"])
    def test_box_without_off_axis_points_exits_one(self, argv):
        # No point of the box reaches Sigma >= 1e-10: sample_points used to
        # redraw forever, so the run gets its own process and a timeout.
        env = dict(os.environ, PYTHONPATH=str(Path(sublap.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "sublap.cli", *argv, *FAST],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "holds no point" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_small_c_still_runs(self, capsys):
        code, out = run_cli(capsys, ["sigma", "--c", "1e-100"] + FAST)
        assert code == 0
        assert 3.0 < json.loads(out)["results"][0]["value"] < 3.3

    def test_closed_form_capacity_at_infinite_R_is_its_limit(self, capsys):
        # A, p = 2: |alpha|^(p-1) Q r^(alpha (1-p)) = 2 * 4 * 1
        code, out = run_cli(capsys, ["capacity", "--R", "inf", "--method", "closed-form"] + FAST)
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("flag,value", [
        ("--c", "nan"), ("--c", "inf"), ("--k", "inf"), ("--x0", "0,0,nan"),
        ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_non_finite_input_exits_one(self, capsys, flag, value):
        assert main(["sigma", flag, value] + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_ahlfors_needs_two_radii(self, capsys):
        assert main(["ahlfors", "--radii", "1"] + FAST) == 1
        assert capsys.readouterr().err == "error: ahlfors needs at least two radii, got 1\n"

    def test_unwritable_out_exits_one(self, capsys, tmp_path):
        assert main(["sigma", "--out", str(tmp_path / "missing" / "r.json")] + FAST) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_k_one_half_sigma_is_finite(self, capsys):
        code, out = run_cli(capsys, ["sigma", "--k", "0.5", "--p", "12"] + FAST)
        assert code == 0
        assert json.loads(out)["results"][0]["value"] > 0

    def test_verification_failure_exits_two(self, capsys):
        code, out = run_cli(capsys, ["verify-fundamental", "--tol", "1e-30"] + FAST)
        assert code == 2
        report = json.loads(out)
        assert report["passed"] is False

    def test_pass_exits_zero(self, capsys):
        code, out = run_cli(capsys, ["verify-fundamental"] + FAST)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True


class TestCommands:
    def test_verify_fundamental_log_case(self, capsys):
        code, out = run_cli(capsys, ["verify-fundamental", "--p", "4"] + FAST)
        assert code == 0
        report = json.loads(out)
        assert "log" in report["results"][0]["name"]

    def test_verify_infinity(self, capsys):
        code, out = run_cli(capsys, ["verify-infinity", "--n", "1", "--k", "2"] + FAST)
        assert code == 0

    def test_bracket_report_flags_discrepancy(self, capsys):
        code, out = run_cli(capsys, ["bracket-report", "--k", "2"] + FAST)
        assert code == 0
        report = json.loads(out)
        recs = {r["name"]: r for r in report["results"]}
        assert recs["printed_matches_computed"]["value"] == 0.0
        code, out = run_cli(capsys, ["bracket-report", "--k", "1"] + FAST)
        recs = {r["name"]: r for r in json.loads(out)["results"]}
        assert recs["printed_matches_computed"]["value"] == 1.0

    def test_sigma_reports_stderr(self, capsys):
        code, out = run_cli(capsys, ["sigma", "--p", "2"] + FAST)
        assert code == 0
        rec = json.loads(out)["results"][0]
        assert rec["name"] == "sigma_p"
        assert rec["value"] > 0 and rec["stderr"] > 0

    def test_ahlfors(self, capsys):
        code, out = run_cli(
            capsys, ["ahlfors", "--radii", "0.5,1,2", "--samples", "50000", "--seed", "3"]
        )
        assert code == 0

    def test_density(self, capsys):
        # at the default 1e6 samples: the finest radius' stderr is 0.0047,
        # so the default 2% gate sits above 4 sigma
        code, out = run_cli(
            capsys,
            ["density", "--radii", "0.4,0.2,0.1", "--bump-radius", "1.5", "--seed", "5"],
        )
        assert code == 0

    @pytest.mark.parametrize("radii", ["0.4,0.2", "0.8,0.4,0.2,0.1"])
    def test_density_gated_at_any_radius_count(self, capsys, radii):
        # every radius is gated against its own exact value
        code, out = run_cli(capsys, ["density", "--radii", radii, "--bump-radius", "1.5",
                                     "--samples", "200000", "--seed", "5"])
        recs = {r["name"]: r for r in json.loads(out)["results"]}
        for R in radii.split(","):
            est, exact = recs[f"density@R={R}"], recs[f"density_exact@R={R}"]
            err = recs[f"density_error@R={R}"]
            assert err["value"] == abs(est["value"] - exact["value"])
            assert err["stderr"] == est["stderr"] and "exact" not in err
            assert err["tol"] == 0.02 and err["pass"] is True
        assert len(recs) == 3 * len(radii.split(",")) and code == 0

    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("command,name,symbol,sign", [
        ("density", "density", "R", 1.0), ("dirac", "pairing", "r", -1.0),
    ])
    def test_errors_against_the_bump_at_each_radius(self, capsys, space, command,
                                                    name, symbol, sign):
        # density(R) = phi(h = R^(4k)) and pairing(r) = -phi(h = r^(4k)) exactly,
        # for the bump phi = exp(-h / (B - h)), B = R0^(4k), R0 = --bump-radius 1
        code, out = run_cli(capsys, [command, *SPACES[space], *FAST])
        report = json.loads(out)
        k = report["config"]["k"]
        recs = {r["name"]: r for r in report["results"]}
        phis = []
        for radius in report["config"]["radii"]:
            at = f"@{symbol}={radius:g}"
            h = radius ** (4 * k)
            value = sign * math.exp(-h / (1.0 - h))
            assert recs[f"{name}_exact{at}"]["value"] == pytest.approx(value, rel=1e-14)
            est, err = recs[f"{name}{at}"], recs[f"{name}_error{at}"]
            assert err["value"] == pytest.approx(abs(est["value"] - value), abs=1e-15)
            assert err["pass"] == (err["value"] <= err["tol"])
            phis.append(sign * value)
        # phi(h = r^(4k)) climbs to phi(x0) = 1 as the radius shrinks
        assert phis == sorted(phis) and 1.0 - phis[-1] < 1e-3
        assert code == (0 if report["passed"] else 2)

    @pytest.mark.parametrize("command,radii", [
        ("density", (0.4, 0.2, 0.1)), ("dirac", (0.1, 0.01)),
    ])
    def test_dilated_bump_gives_the_same_numbers(self, capsys, recwarn, command, radii):
        # the bump's support and the radii shrink together by 1e-40, B to
        # 1e-160, below where (B - h)^2 underflows: the box sampler is
        # scale-equivariant and every estimate dilation-invariant
        runs = []
        for scale in (1.0, 1e-40):
            argv = [command, "--bump-radius", repr(scale),
                    "--radii", ",".join(repr(r * scale) for r in radii), *FAST]
            code, out = run_cli(capsys, argv)
            runs.append((code, json.loads(out)["results"]))
        (code, plain), (dilated_code, dilated) = runs
        assert dilated_code == code and len(dilated) == len(plain)
        for a, b in zip(plain, dilated):
            if "stderr" in a:
                assert abs(b["value"] - a["value"]) <= 1e-6 * a["stderr"]
                assert b["stderr"] == pytest.approx(a["stderr"], rel=1e-9)
            else:
                assert b["value"] == pytest.approx(a["value"], rel=1e-12)
        assert not recwarn.list

    def test_dirac(self, capsys):
        code, out = run_cli(
            capsys, ["dirac", "--p", "2", "--samples", "200000", "--seed", "9"]
        )
        assert code == 0
        names = [r["name"] for r in json.loads(out)["results"]]
        assert "normalization_constant" in names

    def test_dirac_near_p_one_is_finite(self, capsys):
        # alpha = -149: the slope psi^(alpha-1) is a float down to r = 0.05
        assert main(["dirac", "--p", "1.02", "--seed", "3", "--samples", "10000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        values = [r["value"] for r in json.loads(captured.out)["results"]]
        assert all(math.isfinite(v) for v in values)

    def test_capacity_all_methods(self, capsys):
        code, out = run_cli(
            capsys,
            ["capacity", "--p", "2", "--r", "1", "--R", "2", "--method", "all",
             "--samples", "200000", "--seed", "13", "--knots", "200"],
        )
        assert code == 0
        report = json.loads(out)
        values = {r["name"]: r["value"] for r in report["results"]}
        assert values["capacity[closed-form]"] == pytest.approx(32.0 / 3.0, rel=1e-12)

    def test_capacity_single_method(self, capsys):
        code, out = run_cli(
            capsys, ["capacity", "--method", "closed-form", "--p", "3"] + FAST
        )
        assert code == 0
        assert len(json.loads(out)["results"]) == 1

    @pytest.mark.parametrize("method", ["closed-form", "radial", "mc"])
    def test_capacity_record_same_alone_and_in_all(self, capsys, method):
        argv = ["capacity", "--p", "3", "--samples", "20000", "--seed", "13",
                "--knots", "64", "--tol", "1"]
        _, out = run_cli(capsys, argv + ["--method", method])
        (alone,) = json.loads(out)["results"]
        _, out = run_cli(capsys, argv + ["--method", "all"])
        assert alone in json.loads(out)["results"]

    def test_x0_flag(self, capsys):
        code, out = run_cli(capsys, ["sigma", "--x0", "0.5,-0.5,1.0"] + FAST)
        assert code == 0
        assert json.loads(out)["config"]["x0"] == [0.5, -0.5, 1.0]

    def test_negative_first_x0_coordinate(self, capsys, tmp_path):
        # argparse takes a bare "-1,0,0" for an option; "--x0=-1,0,0" is a value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x0 = -1,0,0\n")
        reports = []
        for argv in (["--x0=-1,0,0"], ["--config", str(cfg)]):
            code, out = run_cli(capsys, ["verify-infinity"] + argv + FAST)
            assert code == 0
            reports.append(json.loads(out))
            del reports[-1]["duration_s"]
        assert reports[0] == reports[1]
        assert reports[0]["config"]["x0"] == [-1.0, 0.0, 0.0]


class TestReports:
    def test_deterministic_apart_from_duration(self, capsys):
        _, out1 = run_cli(capsys, ["sigma"] + FAST)
        _, out2 = run_cli(capsys, ["sigma"] + FAST + ["--threads", "2"])
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("duration_s"), r2.pop("duration_s")
        r1["config"].pop("threads"), r2["config"].pop("threads")
        assert r1 == r2

    def test_schema_fields(self, capsys):
        _, out = run_cli(capsys, ["sigma"] + FAST)
        report = json.loads(out)
        assert report["schema"] == "sublap-report-v1"
        assert {"command", "config", "results", "passed", "duration_s", "version"} <= set(report)
        for rec in report["results"]:
            assert "stderr" in rec or rec.get("exact") is not None

    @pytest.mark.parametrize("argv,mc_records", [
        (["sigma"], 1),
        (["ahlfors"], 3),
        (["density"], 3),
        (["dirac"], 3),
        (["capacity"], 1),
        (["verify-fundamental"], 0),
    ])
    def test_mc_records_carry_points_and_replicates(self, capsys, argv, mc_records):
        # 10000 samples: 39 replicates of 256 points
        _, out = run_cli(capsys, argv + FAST)
        counted = [r for r in json.loads(out)["results"] if "samples" in r]
        assert len(counted) == mc_records
        for rec in counted:
            assert "stderr" in rec
            assert (rec["samples"], rec["replicates"]) == (256 * 39, 39)
            assert 0 < rec["accepted"] < rec["samples"]

    def test_csv_projection(self, capsys):
        code, out = run_cli(capsys, ["sigma", "--format", "csv"] + FAST)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["command", "name", "value", "stderr", "tol", "pass"]
        assert rows[1][0] == "sigma" and rows[1][1] == "sigma_p"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run_cli(capsys, ["sigma", "--out", str(target)] + FAST)
        assert code == 0
        assert json.loads(target.read_text())["command"] == "sigma"

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 3.0\nsamples = 10000\nseed = 21\n# comment\n")
        _, out = run_cli(capsys, ["sigma", "--config", str(cfg)])
        assert json.loads(out)["config"]["p"] == 3.0
        _, out = run_cli(capsys, ["sigma", "--config", str(cfg), "--p", "2"])
        assert json.loads(out)["config"]["p"] == 2.0

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense line\n")
        assert main(["sigma", "--config", str(cfg)]) == 1
        cfg.write_text("unknown_key = 3\n")
        assert main(["sigma", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("line, message", [
        ("method = foo", "unknown method 'foo'"),
        ("format = xml", "unknown format 'xml'"),
    ], ids=["method", "format"])
    def test_config_value_outside_choices(self, capsys, tmp_path, line, message):
        # argparse checks the flags' choices; the config file's are checked
        # where its values are read
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["capacity", "--config", str(cfg)] + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestSharedParser:
    """One parser serves every main call of a process; no call leaves state in it."""

    def test_flags_do_not_carry_over(self, capsys):
        code, _ = run_cli(capsys, ["sigma", "--n", "2", "--tol", "0.5"] + FAST)
        assert code == 0
        code, out = run_cli(capsys, ["sigma"] + FAST)
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["n"], config["tol"]) == (1, 0.0)

    @pytest.mark.parametrize("bad", [["--bogus"], ["--method", "nope"]])
    def test_usage_error_after_good_call_exits_one(self, capsys, bad):
        assert main(["sigma"] + FAST) == 0
        assert main(["sigma"] + bad + FAST) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: sublap") and "error:" in captured.err

    def test_help_is_that_of_a_fresh_parser(self, capsys):
        assert main(["sigma"] + FAST) == 0
        capsys.readouterr()
        for command in COMMANDS:
            assert main([command, "--help"]) == 0
            shared = capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                build_parser.__wrapped__().parse_args([command, "--help"])
            assert exc.value.code == 0
            fresh = capsys.readouterr()
            assert shared.out == fresh.out and shared.out.startswith(f"usage: sublap {command}")
            assert shared.err == fresh.err == ""

    def test_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        assert main(["verify-infinity"] + FAST) == 0
        assert len(built) == 1 + len(COMMANDS)  # the parser and one per command
        assert main(["sigma"] + FAST) == 0
        assert len(built) == 1 + len(COMMANDS)


def test_import_builds_no_parser():
    # the parser is built by the first main call, so importing the CLI
    # (part of the benchmark's setup time) formats no argparse help
    src = str(Path(sublap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *a, **kw):\n"
            "    built.append(1); init(self, *a, **kw)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import sublap, sublap.cli\n"
            "print(len(built))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"


def test_import_does_not_load_quadrature():
    # scipy costs most of the import time (scipy.integrate about half a
    # second); it, sympy, mpmath and hypothesis serve the tests only
    src = str(Path(sublap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, sublap, sublap.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'sympy', 'mpmath', 'hypothesis')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
