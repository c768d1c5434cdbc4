"""CLI contract: exit codes, JSON schema round trips, CSV shape."""

import json
import sys

import pytest

from entropath import cli
from entropath.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_worked_instance_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "0.5,0.5", "--slopes", "1,1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["holds"] is True
        assert report["uk"]["terms"][0]["u"] == pytest.approx(1.22741, abs=1e-5)
        names = [c["name"] for c in report["checks"]]
        assert "condition4" in names and "hessian_psd" in names

    def test_out_of_range_parameter_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--p", "0.5,1.2", "--slopes", "1,1")
        assert code == 2
        assert "error" in err

    def test_mixed_signs_record_branch(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "0.5,0.5", "--slopes", "1,-1", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["uk"]["terms"][0]["branch"] == "h_nonpositive"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "0.5,0.5", "--slopes", "1,1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "instance_id,inequality,k,margin"
        assert len(lines) > 5

    def test_human_output_renders(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "0.5,0.5", "--slopes", "1,1")
        assert code == 0
        assert "verify" in out

    def test_single_component(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "0.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["uk"] is None

    def test_wrong_slope_count_exits_two(self, capsys):
        result = run_cli(capsys, "verify", "--p", "0.2,0.5,0.7", "--slopes", "1,2")
        assert result == (2, "", "error: expected 3 slopes, got shape (2,)\n")

    def test_t_shift(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--p", "0.2,0.8", "--slopes", "1,-1", "--t", "0.1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["p"] == pytest.approx([0.3, 0.7])


class TestScan:
    def test_inline_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--seed", "42", "--n-range", "2,5", "--instances", "50",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["certificate_count"] == 0
        assert report["config"]["seed"] == 42

    def test_config_file_and_determinism(self, capsys, tmp_path):
        cfg = {
            "seed": 7,
            "n_range": [2, 4],
            "instance_count": 40,
            "inequality_set": ["log_concavity", "condition4"],
        }
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(cfg))
        code1, out1, _ = run_cli(capsys, "scan", "--config", str(path), "--format", "json")
        code2, out2, _ = run_cli(capsys, "scan", "--config", str(path), "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_a_field_set_inline_and_in_the_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({"seed": 7, "instance_count": 10}))
        result = run_cli(capsys, "scan", "--config", str(path), "--instances", "5",
                         "--seed", "99", "--n-range", "2,3")
        assert result == (2, "", "error: set both inline and in --config: seed, instance_count\n")

    def test_inline_and_config_fields_merge(self, capsys, tmp_path):
        fields = {"n_range": [2, 4], "instance_count": 10}
        without_seed, with_seed = tmp_path / "a.json", tmp_path / "b.json"
        without_seed.write_text(json.dumps(fields))
        with_seed.write_text(json.dumps({**fields, "seed": 3}))
        merged = run_cli(capsys, "scan", "--config", str(without_seed), "--seed", "3",
                         "--format", "json")
        whole = run_cli(capsys, "scan", "--config", str(with_seed), "--format", "json")
        assert merged[0] == 0
        assert merged == whole

    def test_toml_config_reports_like_json(self, capsys, tmp_path):
        pytest.importorskip("tomllib")
        cfg = {"seed": 7, "n_range": [2, 4], "instance_count": 40, "interior_margin": 0.01,
               "inequality_set": ["log_concavity", "condition4"]}
        toml_path, json_path = tmp_path / "scan.toml", tmp_path / "scan.json"
        toml_path.write_text(
            'seed = 7\nn_range = [2, 4]\ninstance_count = 40\ninterior_margin = 0.01\n'
            'inequality_set = ["log_concavity", "condition4"]\n'
        )
        json_path.write_text(json.dumps(cfg))
        reports = [run_cli(capsys, "scan", "--config", str(path), "--format", fmt)
                   for fmt in ("json", "csv") for path in (toml_path, json_path)]
        assert reports[0][0] == 0
        assert reports[0] == reports[1]
        assert reports[2] == reports[3]

    def test_toml_config_without_tomllib_exits_two(self, capsys, tmp_path, monkeypatch):
        # Python 3.10 has no tomllib; a None entry makes the import fail the same way.
        monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / "scan.toml"
        path.write_text("seed = 7\n")
        result = run_cli(capsys, "scan", "--config", str(path))
        assert result == (2, "", "error: TOML configs need Python 3.11+; use JSON\n")

    @pytest.mark.parametrize("argv, extra", [
        (("scan", "--seed", "1", "--strict"), "--strict"),
        (("verify", "--p", "0.5", "--suite", "shannon"), "--suite shannon"),
    ])
    def test_removed_flags_exit_two(self, capsys, argv, extra):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {extra}\n" in err

    def test_violation_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--seed", "1", "--family", "bernoulli", "--n-range", "1,1",
            "--instances", "25", "--checks", "renyi_concavity", "--q-grid", "2.5",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["certificate_count"] >= 1

    def test_missing_seed(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--instances", "5")
        assert code == 2

    def test_csv_margin_dump(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--seed", "5", "--instances", "10", "--n-range", "2,3",
            "--checks", "log_concavity,condition4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "instance_id,inequality,k,margin"
        assert len(lines) > 20

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "scan", "--seed", "3", "--instances", "10", "--n-range", "2,3",
            "--format", "json", "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["config"]["seed"] == 3


class TestCriticalQ:
    def test_binomial2_tsallis_probe(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "critical-q", "--family", "binomial2", "--kind", "tsallis",
            "--bracket", "3.5,3.8", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["family"] == "binomial2_tsallis"
        # The exact kernel's root: mpmath's root of 2 - 4q + 2^q, within the bisection tolerance.
        assert abs(report["root"] - 3.6598611779191823) <= 1e-7

    def test_analytic_probe(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "critical-q", "--family", "analytic", "--kind", "tsallis",
            "--bracket", "3.5,3.8", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["root"] == pytest.approx(3.65986, abs=1e-5)

    def test_analytic_probe_bracket_past_two_to_the_1024(self, capsys):
        # 2^q overflows a float at q = 1024; the probe never forms it.
        code, out, err = run_cli(
            capsys,
            "critical-q", "--family", "analytic", "--kind", "tsallis",
            "--bracket", "3.5,2000", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["root"] - 3.6598611779191823) <= 1e-7

    def test_scan_estimator(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "critical-q", "--family", "binomial2", "--kind", "tsallis",
            "--bracket", "3.5,3.8", "--estimator", "scan", "--seed", "3",
            "--instances", "49", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["root"] == pytest.approx(3.65986, abs=1e-3)
        assert report["caveat"]

    def test_unknown_combination(self, capsys):
        code, _, err = run_cli(
            capsys,
            "critical-q", "--family", "binomial2", "--kind", "renyi",
            "--bracket", "1.5,2.5",
        )
        assert code == 2
        assert err == (
            "error: no probe for family 'binomial2' with kind 'renyi'; known combinations: "
            "[('analytic', 'tsallis'), ('bernoulli', 'renyi'), ('binomial2', 'tsallis')]\n"
        )

    def test_no_sign_change(self, capsys):
        code, _, err = run_cli(
            capsys,
            "critical-q", "--family", "analytic", "--kind", "tsallis",
            "--bracket", "1.0,2.0",
        )
        assert code == 2

    def test_no_sign_change_names_the_constant_predicate(self, capsys):
        # 2 - 4q + 2^q is 0 at q = 1 and -2 at q = 2: no sign change to bisect.
        code, out, err = run_cli(
            capsys,
            "critical-q", "--family", "analytic", "--kind", "tsallis", "--bracket", "1,2",
        )
        assert code == 2
        assert out == ""
        assert err == "error: violation predicate is constant over the bracket\n"


    @pytest.mark.parametrize("flags, named", [
        (("--seed", "5"), "--seed"),
        (("--instances", "3"), "--instances"),
        (("--seed", "5", "--instances", "3"), "--seed, --instances"),
    ])
    def test_probe_estimator_refuses_the_scan_flags(self, capsys, flags, named):
        # The probe is a fixed point: a seed or an instance count would be ignored.
        code, out, err = run_cli(
            capsys,
            "critical-q", "--family", "binomial2", "--kind", "tsallis",
            "--bracket", "3.5,3.8", *flags, "--format", "json",
        )
        assert (code, out, err) == (2, "", f"error: only the scan estimator takes {named}\n")

    @pytest.mark.parametrize("family, kind, bracket, message", [
        # Both ends cut nothing, so the bisection never reaches the midpoint q = 1.
        ("bernoulli", "renyi", "0.5,1.5", "violation predicate is constant over the bracket"),
        ("binomial2", "tsallis", "0.5,1", "q = 1 is the Shannon point; use kind='shannon'"),
    ])
    def test_scan_estimator_bracket_reaching_q_one(self, capsys, family, kind, bracket, message):
        code, out, err = run_cli(
            capsys,
            "critical-q", "--family", family, "--kind", kind, "--bracket", bracket,
            "--estimator", "scan", "--seed", "0", "--format", "json",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestHessian:
    def test_one_dimensional(self, capsys):
        code, out, _ = run_cli(capsys, "hessian", "--p", "0.5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["matrix"] == [[-4.0]]
        assert report["holds"] is True

    def test_boundary_rejected(self, capsys):
        code, _, err = run_cli(capsys, "hessian", "--p", "0.0,0.5")
        assert code == 2


class TestLemmaCheck:
    def test_worked_margin(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lemma-check", "--A", "0.5", "--B", "0", "--C", "0.5",
            "--alpha", "1", "--beta", "0", "--gamma", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["margin"] == pytest.approx(0.30685, abs=1e-5)

    def test_hypothesis_violation_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "lemma-check", "--A", "0.9", "--B", "0.9", "--C", "0.5",
            "--alpha", "1", "--beta", "1", "--gamma", "1",
        )
        assert code == 2
        assert "B_square" in err


class TestInvalidInputsNameTheInput:
    @pytest.mark.parametrize("argv, message", [
        (["scan", "--seed", "1", "--n-range", "2.7,3.9"], "n_range must be integral, got 2.7"),
        (["scan", "--seed", "1", "--n-range", "3"],
         "--n-range takes two comma-separated values, got '3'"),
        (["scan", "--seed", "1", "--checks", "log_concavity", "--q-grid", "nan,inf",
          "--format", "json"], "q must be a finite nonnegative real"),
        (["scan", "--seed", "1", "--checks", "log_concavity", "--q-grid", "2,1"],
         "q = 1 is the Shannon point; use kind='shannon'"),
        (["critical-q", "--family", "analytic", "--kind", "tsallis", "--bracket", "1,2,3"],
         "--bracket takes two comma-separated values, got '1,2,3'"),
        (["lemma-check", "--A", "0.5", "--B", "0", "--C", "0.5", "--alpha", "1",
          "--beta", "0", "--gamma", "1", "--grid", "0"], "grid_points must be at least 1"),
        (["verify", "--p", "0.2,0.3", "--slopes", "1,nan"], "slopes must be finite"),
        (["scan", "--seed", "1", "--n-range", "1e20,1e20", "--instances", "2"],
         "n_range must fit in int64, got [100000000000000000000, 100000000000000000000]"),
        # Integral text is parsed as an int, so a bound past 2^53 is not rounded.
        (["scan", "--seed", "1", "--n-range", "1,9223372036854775809"],
         "n_range must fit in int64, got [1, 9223372036854775809]"),
    ])
    def test_exits_two_with_the_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("field, value", [
        ("instance_count", 2.5), ("seed", 7.5), ("n_range", [2, 3.5]), ("n_range", [3])
    ])
    def test_config_file_fields_are_not_truncated(self, capsys, tmp_path, field, value):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({"seed": 7, "instance_count": 3, field: value}))
        code, out, err = run_cli(capsys, "scan", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize("config, message", [
        ('{"seed": 1, "interior_margin": "0.1"}',
         "interior_margin must be a real number, got '0.1'"),
        ('{"seed": 1, "inequality_set": 5}', "inequality_set must be a list of checker ids, got 5"),
        ('{"seed": 1, "inequality_set": "log_concavity"}',
         "inequality_set must be a list of checker ids, got 'log_concavity'"),
        ('{"seed": 1, "q_grid": 5}', "q_grid must be a list of q values, got 5"),
        ('{"seed": 1, "q_grid": "4"}', "q_grid must be a list of q values, got '4'"),
        ('{"seed": 1, "q_grid": [null]}', "q_grid entry must be a real number, got None"),
        ('{"seed": 1, "instance_count": null}', "instance_count must be an integer, got None"),
        ('{"seed": 1, "n_range": "25"}', "n_range must be two integers, got '25'"),
        ('{"seed": true}', "seed must be an integer, got True"),
        ("[1, 2]", "a config must map field names to values, got [1, 2]"),
    ])
    def test_config_file_fields_of_the_wrong_type(self, capsys, tmp_path, config, message):
        path = tmp_path / "scan.json"
        path.write_text(config)
        code, out, err = run_cli(capsys, "scan", "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_config_q_past_the_float_range_exits_two(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text('{"seed": 1, "inequality_set": ["renyi_concavity"], "q_grid": [1'
                        + "0" * 400 + "]}")
        code, out, err = run_cli(capsys, "scan", "--config", str(path))
        assert (code, out, err) == (2, "", "error: q must be a finite nonnegative real\n")

    def test_integral_floats_stay_valid(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        outs = []
        for cfg in ({"seed": 7, "n_range": [2, 3], "instance_count": 3},
                    {"seed": 7.0, "n_range": [2.0, 3.0], "instance_count": 3.0}):
            path.write_text(json.dumps(cfg))
            code, out, _ = run_cli(capsys, "scan", "--config", str(path), "--format", "json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestParserReuse:
    """main builds its parser once per process; no call sees an earlier call's arguments."""

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_scan_seed_does_not_carry_over(self, capsys):
        code, _, _ = run_cli(
            capsys, "scan", "--seed", "1", "--instances", "2", "--n-range", "2,3",
            "--format", "json",
        )
        assert code == 0
        code, out, err = run_cli(capsys, "scan", "--n-range", "2,3")
        assert code == 2
        assert out == ""
        assert "scan needs --seed or --config" in err

    def test_verify_slopes_do_not_carry_over(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--p", "0.5,0.5", "--slopes", "1,-1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["slopes"] == [1.0, -1.0]
        code, out, _ = run_cli(capsys, "verify", "--p", "0.5,0.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["slopes"] == [0.0, 0.0]

    def test_critical_q_seed_falls_back_to_zero(self, capsys):
        argv = (
            "critical-q", "--family", "random_affine", "--kind", "renyi",
            "--bracket", "1.5,2.5", "--estimator", "scan", "--format", "json",
        )
        seeded = run_cli(capsys, *argv, "--seed", "5")
        unseeded = run_cli(capsys, *argv)
        seed_zero = run_cli(capsys, *argv, "--seed", "0")
        assert seeded[0] == unseeded[0] == 0
        assert unseeded == seed_zero
        assert json.loads(unseeded[1])["root"] != json.loads(seeded[1])["root"]

    def test_usage_errors_repeat(self, capsys):
        first = run_cli(capsys, "scan", "--instances", "many")
        second = run_cli(capsys, "scan", "--instances", "many")
        assert first == second
        code, out, err = first
        assert code == 2
        assert out == ""
        assert err.startswith("usage: entropath scan")
        assert "invalid int value: 'many'" in err

    def test_help_repeats(self, capsys):
        for argv in (("--help",), ("scan", "--help")):
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second
            code, out, err = first
            assert code == 0
            assert out.startswith("usage: entropath")
            assert err == ""


def test_json_reports_round_trip(capsys):
    for argv in (
        ["verify", "--p", "0.3,0.6", "--slopes", "0.5,-1", "--format", "json"],
        ["hessian", "--p", "0.4,0.6", "--format", "json"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert json.loads(json.dumps(json.loads(out))) == json.loads(out)
