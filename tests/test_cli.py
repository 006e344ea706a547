"""Command line surface: exit codes, file outputs, scenario parsing."""

import json
import subprocess
import sys

import pytest

from tourney import ParameterError, parse_scenario

RATIO_SCENARIO = {
    "prize": 80.0,
    "csf": {"type": "tullock", "r": 1.0},
    "cost": {"exponent": 3.0, "divisor": 12.0},
    "bracket": [["H", "D"], ["H", "D"]],
    "sim": {"trials": 1000000, "seed": 42, "mode": "direct"},
}

CSV_HEADER = "player,type,stage1_x,stage1_s,stage1_b,stage1_p,win_prob,payoff"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tourney", *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(RATIO_SCENARIO))
    return path


class TestSolve:
    def test_writes_solution_files(self, tmp_path, scenario_path):
        out_json = tmp_path / "solution.json"
        out_csv = tmp_path / "solution.csv"
        proc = run_cli("solve", str(scenario_path), "--json", str(out_json),
                       "--csv", str(out_csv))
        assert proc.returncode == 0, proc.stderr
        assert "semifinal" in proc.stdout

        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

        text = out_json.read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["matches"][0]["types"] == ["H", "D"]
        assert len(payload["win_probs"]) == 4

    def test_tiny_prize_exits_three(self, tmp_path):
        bad = dict(RATIO_SCENARIO, prize=1.0)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 3
        assert "existence gate failed" in proc.stderr

    def test_unknown_key_exits_two(self, tmp_path):
        bad = dict(RATIO_SCENARIO, budget=10)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2
        assert "budget" in proc.stderr

    def test_invalid_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2

    def test_missing_file_exits_two(self, tmp_path):
        proc = run_cli("solve", str(tmp_path / "nope.json"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("text", [
        '{"prize": 20.0, "csf": {"type": "probit_uniform", "half_width": NaN, '
        '"f_exponent": 0.5}, "cost": {"exponent": 3.0, "divisor": 27.0}}',
        '{"prize": 80.0, "csf": {"type": "tullock"}, '
        '"cost": {"exponent": 3.0, "divisor": Infinity}}',
    ], ids=["nan-half-width", "infinite-divisor"])
    def test_non_finite_literal_exits_two(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr

    def test_float_range_overflow_exits_three(self, tmp_path):
        bad = {"prize": 1.13e4,
               "csf": {"type": "probit_uniform", "half_width": 0.025,
                       "f_exponent": 0.986},
               "cost": {"exponent": 3.0, "divisor": 27.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
    def test_underflowing_efforts_exit_three(self, tmp_path, command):
        bad = {"prize": 1e-06,
               "csf": {"type": "probit_uniform", "half_width": 1e+150,
                       "f_exponent": 0.9},
               "cost": {"exponent": 1.5, "divisor": 1e-12}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli(command, str(path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "float range" in proc.stderr

    def test_unknown_csf_type_exits_two(self, tmp_path):
        bad = dict(RATIO_SCENARIO, csf={"type": "logit"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2
        assert "logit" in proc.stderr


class TestVerify:
    def test_accepts_the_ratio_scenario(self, scenario_path):
        proc = run_cli("verify", str(scenario_path))
        assert proc.returncode == 0, proc.stderr
        assert "accepted" in proc.stdout

    def test_rejects_the_bundled_noise_scenario(self, tmp_path):
        noise = {
            "prize": 20.0,
            "csf": {"type": "probit_uniform", "half_width": 5.0,
                    "f_exponent": 0.5},
            "cost": {"exponent": 3.0, "divisor": 27.0},
        }
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(noise))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 1
        assert "REJECTED" in proc.stdout

    def test_effort_below_an_ulp_of_sabotage_is_rejected(self, tmp_path):
        # the dove's effort is far below one ulp of its padded outlay, so the
        # audit's effective effort is 0.0 and its partial is not finite
        tiny = {"prize": 1e150,
                "csf": {"type": "probit_uniform", "half_width": 4e153,
                        "f_exponent": 0.9},
                "cost": {"exponent": 1.5, "divisor": 1e-12}}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny))
        out = tmp_path / "report.json"
        proc = run_cli("verify", str(path), "--json", str(out))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "REJECTED" in proc.stdout

        def refuse(literal):
            raise ValueError(f"non-finite literal {literal}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["interior_ok"] is False
        assert None in payload["foc_residuals"].values()
        assert any(note.startswith("first-order residual")
                   for note in payload["notes"])

    def test_all_dove_bracket_has_no_corner_to_report(self, tmp_path):
        doves = dict(RATIO_SCENARIO, bracket=[["D", "D"], ["D", "D"]])
        path = tmp_path / "doves.json"
        path.write_text(json.dumps(doves))
        out = tmp_path / "report.json"
        proc = run_cli("verify", str(path), "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "corner deviation gain (max): n/a (no hawk)" in proc.stdout
        assert "accepted" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload["interior_ok"] is True
        assert payload["corner_gains"] == {}


class TestSimulate:
    def test_runs_with_overrides(self, tmp_path, scenario_path):
        out = tmp_path / "sim.json"
        proc = run_cli("simulate", str(scenario_path), "--trials", "50000",
                       "--seed", "9", "--mode", "structural",
                       "--json", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["trials"] == 50000
        assert payload["seed"] == 9
        assert payload["mode"] == "structural"
        assert sum(payload["wins"]) == 50000

    def test_rejects_bad_mode_choice(self, scenario_path):
        proc = run_cli("simulate", str(scenario_path), "--mode", "exact")
        assert proc.returncode == 2


class TestReplicate:
    def test_exit_zero_and_reports_both_scenarios(self):
        proc = run_cli("replicate")
        assert proc.returncode == 0, proc.stderr
        assert "asserted rows: all match" in proc.stdout
        assert "recorded" in proc.stdout
        assert proc.stdout.count("MISMATCH") == 0


class TestScenarioParsing:
    def test_defaults(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({
            "prize": 80.0,
            "csf": {"type": "tullock"},
            "cost": {"exponent": 3.0, "divisor": 12.0},
        }))
        spec, config = parse_scenario(path)
        assert spec.csf.r == 1.0
        assert spec.bracket == (("H", "D"), ("H", "D"))
        assert config.trials == 1_000_000
        assert config.seed == 42
        assert config.mode == "direct"

    def test_solver_overrides(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO,
                                        solver={"tolerance": 1e-8,
                                                "oracle_grid": 100})))
        spec, _ = parse_scenario(path)
        assert spec.solver.tolerance == 1e-8
        assert spec.solver.oracle_grid == 100

    def test_unknown_solver_key(self, tmp_path):
        # damping and max_iterations are retired keys, unknown like any typo
        for key, value in (("newton", True), ("damping", 0.5),
                           ("max_iterations", 100)):
            path = tmp_path / "s.json"
            path.write_text(json.dumps(dict(RATIO_SCENARIO,
                                            solver={key: value})))
            with pytest.raises(ParameterError, match=key):
                parse_scenario(path)

    def test_rejects_boolean_prize(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO, prize=True)))
        with pytest.raises(ParameterError):
            parse_scenario(path)
