import csv
import io
import json

import pytest

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
        code, out = run_cli(
            capsys,
            ["density", "--radii", "0.4,0.2,0.1", "--bump-radius", "1.5",
             "--samples", "100000", "--seed", "5"],
        )
        assert code == 0

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
