import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sublap
from sublap.cli import main

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

    @pytest.mark.parametrize("threads", ["0", "abc"])
    def test_bad_threads_env_var_exits_one(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("SUBLAP_THREADS", threads)
        assert main(["sigma"] + FAST) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

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

    def test_extrapolation_is_reported(self, capsys):
        # the default density radii fall back to the finest radius; these
        # dirac radii fit a rate
        for argv, fallback in (
            (["density", "--samples", "200000", "--seed", "11"], 1.0),
            (["dirac", "--radii", "0.8,0.4,0.2", "--samples", "200000", "--seed", "11"], 0.0),
        ):
            code, out = run_cli(capsys, argv)
            assert code == 0
            values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
            assert values["extrapolation_fallback"] == fallback
            assert ("extrapolation_rate" in values) == (fallback == 0.0)
            assert all(math.isfinite(v) for v in values.values())

    @pytest.mark.parametrize("radii", ["0.4,0.2", "0.8,0.4,0.2,0.1"])
    def test_density_gated_at_any_radius_count(self, capsys, radii):
        # two or four radii fall back to the finest one, which is then gated
        code, out = run_cli(capsys, ["density", "--radii", radii, "--bump-radius", "1.5",
                                     "--samples", "200000", "--seed", "5"])
        recs = {r["name"]: r for r in json.loads(out)["results"]}
        finest = recs[f"density@R={radii.split(',')[-1]}"]["value"]
        err = recs["extrapolated_density_error"]
        assert err["value"] == abs(finest - 1.0)
        assert err["tol"] == 0.02 and err["pass"] is True and code == 0
        assert recs["extrapolation_fallback"]["value"] == 1.0
        assert "extrapolation_rate" not in recs

    def test_dirac(self, capsys):
        code, out = run_cli(
            capsys, ["dirac", "--p", "2", "--samples", "200000", "--seed", "9"]
        )
        assert code == 0
        names = [r["name"] for r in json.loads(out)["results"]]
        assert "normalization_constant" in names

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


def test_import_does_not_load_quadrature():
    # scipy costs most of the import time (scipy.integrate about half a
    # second); only tests use it
    src = str(Path(sublap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, sublap, sublap.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
