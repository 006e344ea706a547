"""Command line surface: exit codes, file outputs, scenario parsing.

The contract runs in process through cli.run, with stdout and stderr
captured; two tests run `python -m tourney` as a process.
"""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys

import pytest

from tourney import (ParameterError, SimConfig, SolverSettings, TullockCsf,
                     cli, parse_scenario, simulate, solve_tournament,
                     verification)

RATIO_SCENARIO = {
    "prize": 80.0,
    "csf": {"type": "tullock", "r": 1.0},
    "cost": {"exponent": 3.0, "divisor": 12.0},
    "bracket": [["H", "D"], ["H", "D"]],
    "sim": {"trials": 1000000, "seed": 42, "mode": "direct"},
}

CSV_HEADER = "player,type,stage1_x,stage1_s,stage1_b,stage1_p,win_prob,payoff"


def run_cli(*args):
    """cli.run(args) in this process, with its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(args))
        except SystemExit as exc:  # argparse exits on a bad flag
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def run_process(*args):
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
        # solve runs no existence gate, so the label names what failed
        assert proc.stderr.startswith("error: no interior candidate: prize too small:")

    def test_noise_prize_above_the_window_is_too_large(self, tmp_path):
        # b(v) = (beta v / 2a)^2 = 40000 outgrows v/2 = 200, so the dove
        # against dove payoff falls in v and is 200 - 40000 = -39800
        big = dict(RATIO_SCENARIO, prize=400.0,
                   csf={"type": "probit_uniform", "half_width": 0.5, "f_exponent": 0.5})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(big))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 3
        assert proc.stderr == ("error: no interior candidate: prize too large: "
                               "expected final payoff dove against dove is -39800, "
                               "so finalists would rather drop out\n")

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

    @pytest.mark.parametrize("content", [
        b"[" * 100000 + b"]" * 100000,
        b"\xff\xfe" + json.dumps(RATIO_SCENARIO).encode("utf-16-le"),
        json.dumps(RATIO_SCENARIO).replace("80.0", "9" * 5000).encode(),
        json.dumps(dict(RATIO_SCENARIO, prize=10 ** 400)).encode(),
        json.dumps(dict(RATIO_SCENARIO, cost={"exponent": 3.0,
                                              "divisor": 10 ** 400})).encode(),
    ], ids=["deeply-nested", "not-utf-8", "integer-past-the-digit-limit",
            "prize-too-large-for-a-float", "divisor-too-large-for-a-float"])
    def test_hostile_file_exits_two_with_one_error_line(self, tmp_path, capsys,
                                                         content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        assert cli.run(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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

    def test_sabotage_cost_past_the_power_solves_without_warnings(self, tmp_path):
        # s*^2 overflows, but c(s*) = s*/2 = 3e200 is finite
        big = dict(RATIO_SCENARIO, prize=8e201,
                   cost={"exponent": 2, "divisor": 1.2e201})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(big))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert ("final menu: DD 2e+201 | H vs D 1.7e+201 | D vs H 1.4e+201 "
                "| HH 1.1e+201") in proc.stdout
        # the audit's numpy cost is inf at the candidate's own sabotage, so
        # it cannot certify, and says so without a RuntimeWarning
        proc = run_cli("verify", str(path))
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "is nan, not negative" in proc.stdout
        assert proc.stdout.endswith("interior equilibrium: REJECTED\n")

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

    def test_overflowing_noise_marginal_exits_three_naming_the_effort(self, tmp_path):
        # the hawk's semifinal effort is subnormal, so b**(beta - 1) overflows
        bad = {"prize": 1.17899697664905e-289,
               "csf": {"type": "probit_uniform", "half_width": 9.874721158009316e+17,
                       "f_exponent": 0.04213301543363942},
               "cost": {"exponent": 1.0176127334995588,
                        "divisor": 3.3636355226570527e-270},
               "bracket": [["D", "H"], ["H", "H"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "semifinal hawk effort" in proc.stderr
        assert "overflows" in proc.stderr

    @pytest.mark.parametrize("kind", ["logit", [], {}],
                             ids=["unknown-name", "list", "object"])
    def test_unknown_csf_type_exits_two(self, tmp_path, kind):
        # a list or an object is unhashable: it must not reach a dict lookup
        bad = dict(RATIO_SCENARIO, csf={"type": kind})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: csf: unknown CSF type {kind!r}")
        assert proc.stderr.count("\n") == 1


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

    @pytest.mark.parametrize("grid", [2 ** 70, 10 ** 400])
    def test_huge_oracle_grid_exits_two_with_one_error_line(self, tmp_path,
                                                            grid):
        # refused before the search allocates its n x n arrays
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO,
                                        solver={"oracle_grid": grid})))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: solver: oracle_grid must be an "
                                      "integer from 50 to 4096")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

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

    def test_huge_prize_is_rejected_without_warnings(self, tmp_path):
        # the curvature stencil and the sabotage costs overflow to inf
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO, prize=1e300)))
        out = tmp_path / "report.json"
        proc = run_cli("verify", str(path), "--json", str(out))
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "REJECTED" in proc.stdout

        def refuse(literal):
            raise ValueError(f"non-finite literal {literal}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["interior_ok"] is False

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

    def test_repeated_in_process_runs_keep_no_options(self, tmp_path,
                                                      scenario_path):
        # one parser serves every run; options of an earlier run must not leak
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert cli.run(["simulate", str(scenario_path), "--trials", "3000",
                        "--mode", "structural", "--json", str(first)]) == 0
        assert cli.run(["simulate", str(scenario_path), "--seed", "5",
                        "--json", str(second)]) == 0
        payload = json.loads(second.read_text())
        assert (payload["trials"], payload["seed"], payload["mode"]) == (
            RATIO_SCENARIO["sim"]["trials"], 5, RATIO_SCENARIO["sim"]["mode"])

    def test_rejects_bad_mode_choice(self, scenario_path):
        proc = run_cli("simulate", str(scenario_path), "--mode", "exact")
        assert proc.returncode == 2

    def test_rejects_trials_past_the_cap(self, monkeypatch, tmp_path,
                                         scenario_path):
        # the config is refused before any solve or draw
        def refuse(*_args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "solve_tournament", refuse)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO,
                                        sim={"trials": 10 ** 30})))
        # the file's sim block is named, the flag is not
        for args, prefix in ((("simulate", str(path)), "error: sim: trials"),
                             (("simulate", str(scenario_path), "--trials",
                               str(simulate.MAX_TRIALS + 1)), "error: trials")):
            proc = run_cli(*args)
            assert proc.returncode == 2
            assert proc.stderr.startswith(prefix)
            assert proc.stderr.count("\n") == 1


class TestArithmeticFailures:
    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError,
                                       FloatingPointError])
    def test_exit_three_with_one_error_line(self, monkeypatch, capsys,
                                            scenario_path, error):
        def simulate_tournament(*_args):
            raise error("float range left")

        monkeypatch.setattr(cli, "simulate_tournament", simulate_tournament)
        assert cli.run(["simulate", str(scenario_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.splitlines() == [err.rstrip("\n")]
        assert "float range left" in err

    def test_a_simulate_worker_failure_exits_three(self, monkeypatch, capsys,
                                                   scenario_path):
        # chunk 1 runs in a worker thread when two CPUs are usable
        def chunk_rng(seed, chunk):
            if chunk == 1:
                raise FloatingPointError("overflow in a worker")
            return draw(seed, chunk)

        draw = simulate._chunk_rng
        monkeypatch.setattr(simulate, "_chunk_rng", chunk_rng)
        monkeypatch.setattr(simulate.os, "sched_getaffinity",
                            lambda _pid: {0, 1})
        assert cli.run(["simulate", str(scenario_path), "--trials",
                        str(2 * simulate.CHUNK)]) == 3
        err = capsys.readouterr().err
        assert err == "error: arithmetic failure: overflow in a worker\n"


class TestReplicate:
    def test_exit_zero_and_reports_both_scenarios(self):
        proc = run_cli("replicate")
        assert proc.returncode == 0, proc.stderr
        assert "asserted rows: all match" in proc.stdout
        assert "recorded" in proc.stdout
        assert proc.stdout.count("MISMATCH") == 0


def _stock_solution(solution):
    """A solution's JSON view from dataclasses.asdict: the spec's CSF block
    names its type, and the derived probabilities and payoffs are added."""
    view = dataclasses.asdict(solution)
    kind = ("tullock" if isinstance(solution.spec.csf, TullockCsf)
            else "probit_uniform")
    view["spec"]["csf"] = {"type": kind, **view["spec"]["csf"]}
    view.update(semifinal_win_probs=solution.semifinal_win_probs,
                payoffs=solution.payoffs,
                type_win_probs=solution.type_win_probs)
    return view


def _stock_bytes(payload):
    """payload written as strict JSON with every non-finite float as null,
    indented by two spaces, keys sorted, one newline at the end."""

    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {key: finite(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(item) for item in value]
        return value

    text = json.dumps(finite(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    return (text + "\n").encode()


class TestJsonViews:
    @pytest.mark.parametrize("scenario, verify_code", [
        (RATIO_SCENARIO, 0),
        ({"prize": 20.0,
          "csf": {"type": "probit_uniform", "half_width": 5.0,
                  "f_exponent": 0.5},
          "cost": {"exponent": 3.0, "divisor": 27.0},
          "bracket": [["D", "H"], ["H", "H"]]}, 1),
        # the dove's effective effort is 0.0 in the audit: inf and NaN
        # residuals, written as null
        ({"prize": 1e150,
          "csf": {"type": "probit_uniform", "half_width": 4e153,
                  "f_exponent": 0.9},
          "cost": {"exponent": 1.5, "divisor": 1e-12}}, 1),
    ], ids=["ratio-accepted", "noise-rejected", "non-finite-residuals"])
    def test_bytes_equal_the_asdict_views(self, tmp_path, scenario,
                                          verify_code):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        spec, sim = parse_scenario(path)
        solution = solve_tournament(spec)
        report = verification.verify_solution(solution)
        result = simulate.simulate_tournament(
            solution, dataclasses.replace(sim, trials=5000))
        want = {
            "solve": _stock_solution(solution),
            "verify": dict(dataclasses.asdict(report),
                           solution=_stock_solution(solution)),
            "simulate": dataclasses.asdict(result),
        }
        codes = {"solve": 0, "verify": verify_code, "simulate": 0}
        for command, payload in want.items():
            out = tmp_path / f"{command}.json"
            trials = ("--trials", "5000") if command == "simulate" else ()
            proc = run_cli(command, str(path), "--json", str(out), *trials)
            assert proc.returncode == codes[command], proc.stderr
            assert out.read_bytes() == _stock_bytes(payload)
        if spec.prize == 1e150:
            residuals = list(report.foc_residuals.values())
            assert not all(math.isfinite(value) for value in residuals)
            written = json.loads((tmp_path / "verify.json").read_text())
            assert None in written["foc_residuals"].values()


class TestProcess:
    """`python -m tourney` as a process: the entry point, and the exit code
    and stderr a shell sees."""

    def test_module_entry_point(self, tmp_path, scenario_path):
        out_json = tmp_path / "solution.json"
        proc = run_process("solve", str(scenario_path), "--json", str(out_json))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "semifinal" in proc.stdout
        assert json.loads(out_json.read_text())["matches"][0]["types"] == [
            "H", "D"]

    def test_no_traceback_at_process_level(self, tmp_path):
        # the final's sabotage level (1e300/1.001)^1000 overflows
        bad = dict(RATIO_SCENARIO, prize=8e201,
                   cost={"exponent": 1.001, "divisor": 1e300})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        proc = run_process("solve", str(path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr


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

    @pytest.mark.parametrize("csf", [
        {"type": "tullock", "r": 0.5},
        {"type": "probit_uniform", "half_width": 5.0, "f_exponent": 0.5},
    ], ids=["tullock", "probit_uniform"])
    def test_solution_spec_reads_back_as_the_scenario(self, tmp_path, csf):
        # every field of the five input records away from its default
        scenario = {
            "prize": 40.0, "csf": csf,
            "cost": {"exponent": 2.5, "divisor": 20.0},
            "bracket": [["D", "H"], ["H", "H"]],
            "solver": {"tolerance": 1e-9, "oracle_grid": 60},
            "sim": {"trials": 5000, "seed": 3, "mode": "structural"},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "solution.json"
        assert cli.run(["solve", str(path), "--json", str(out)]) == 0
        written = json.loads(out.read_text())["spec"]
        again = tmp_path / "again.json"
        again.write_text(json.dumps(dict(written, sim=scenario["sim"])))
        assert parse_scenario(again) == parse_scenario(path)
        spec, sim = parse_scenario(path)
        assert spec.solver != SolverSettings() and sim != SimConfig()

    @pytest.mark.parametrize("block, value, named", [
        ("csf", {"type": "probit_uniform", "f_exponent": 0.5}, "half_width"),
        ("csf", {"type": "probit_uniform", "half_width": 5.0}, "f_exponent"),
        ("csf", {"type": "tullock", "half_width": 5.0}, "half_width"),
        ("csf", {"type": "probit_uniform", "half_width": 5.0,
                 "f_exponent": 0.5, "r": 1.0}, "'r'"),
        ("cost", {"divisor": 12.0}, "exponent"),
        ("cost", {"exponent": 3.0}, "divisor"),
        ("cost", {"exponent": 3.0, "divisor": 12.0, "scale": 1.0}, "scale"),
        ("solver", {"tolerance": 1e-9, "grid": 60}, "grid"),
        ("sim", {"trials": 10, "runs": 2}, "runs"),
    ], ids=["probit-missing-half-width", "probit-missing-f-exponent",
            "tullock-unknown", "probit-unknown", "cost-missing-exponent",
            "cost-missing-divisor", "cost-unknown", "solver-unknown",
            "sim-unknown"])
    def test_missing_or_unknown_key_is_named(self, tmp_path, block, value,
                                             named):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO, **{block: value})))
        with pytest.raises(ParameterError) as info:
            parse_scenario(path)
        message = str(info.value)
        assert message.startswith(f"{block}: ")
        assert ("missing key(s)" in message) != ("unknown key(s)" in message)
        assert named in message

    @pytest.mark.parametrize("change, message", [
        ({"cost": {"exponent": "3", "divisor": 12.0}},
         "cost: exponent must be a number, got '3'"),
        ({"sim": {"trials": 1.5}}, "sim: trials must be an integer, got 1.5"),
        ({"sim": {"trials": True}}, "sim: trials must be an integer, got True"),
        ({"sim": {"seed": 1.5}}, "sim: seed must be an integer, got 1.5"),
        ({"sim": {"seed": True}}, "sim: seed must be an integer, got True"),
        ({"sim": {"mode": 3}}, "sim: mode must be a string, got 3"),
        ({"cost": {"exponent": 3.0, "divisor": 10 ** 400}},
         "cost: divisor is an integer too large for a float"),
        ({"prize": "80"}, "{path}: prize must be a number, got '80'"),
    ], ids=["float-given-a-string", "int-given-a-float", "int-given-a-bool",
            "seed-given-a-float", "seed-given-a-bool", "str-given-an-int",
            "float-past-the-range", "prize-given-a-string"])
    def test_a_value_of_the_wrong_type_is_named(self, tmp_path, change,
                                                message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO, **change)))
        proc = run_cli("solve", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message.format(path=path)}\n"
        assert proc.stdout == ""

    def test_rejects_boolean_prize(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO, prize=True)))
        with pytest.raises(ParameterError):
            parse_scenario(path)

    @pytest.mark.parametrize("change, prefix, message", [
        ({"csf": {"type": "tullock", "r": 2.0}}, "csf", "decisiveness exponent"),
        ({"csf": {"type": "probit_uniform", "half_width": -1.0,
                  "f_exponent": 0.5}}, "csf", "noise half width"),
        ({"cost": {"exponent": 1.0, "divisor": 12.0}}, "cost", "cost exponent"),
        ({"solver": {"oracle_grid": 10}}, "solver", "oracle_grid must be"),
        ({"solver": {"tolerance": -1.0}}, "solver", "tolerance must be"),
        ({"solver": {"tolerance": 1e-16}}, "solver", "tolerance must be at least"),
        ({"csf": {"type": "probit_uniform", "half_width": 5e-324,
                  "f_exponent": 0.5}}, "csf", "noise half width must keep 4"),
        ({"sim": {"trials": 0}}, "sim", "trials must be"),
        ({"sim": {"mode": "fast"}}, "sim", "mode must be"),
        ({"prize": -1.0}, None, "prize must be"),
        ({"bracket": [["H", "X"], ["H", "D"]]}, None, "player types must be"),
    ], ids=["tullock", "probit", "cost", "solver-grid", "solver-tolerance",
            "solver-tolerance-floor", "probit-width-floor", "sim-trials",
            "sim-mode", "prize", "bracket"])
    def test_a_record_error_names_its_block(self, tmp_path, change, prefix,
                                            message):
        # the record's own validation is prefixed as the readers' errors
        # are: a block by its name, the spec itself by the file
        path = tmp_path / "s.json"
        path.write_text(json.dumps(dict(RATIO_SCENARIO, **change)))
        proc = run_cli("verify", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {prefix or path}: {message}")
        assert proc.stderr.count("\n") == 1
