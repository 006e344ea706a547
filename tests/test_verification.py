"""Global equilibrium audit: residuals, curvature, corners, grid oracle."""

import dataclasses
import math

import pytest

from tourney import (Effort, ParameterError, PowerCost, ProbitUniformCsf,
                     SolverSettings, TournamentSpec, TullockCsf,
                     best_response_oracle, continuation_values,
                     corner_deviation_gain, existence_gate, foc_residuals,
                     soc_check, solve_tournament, verify_solution)
from tourney.verification import _candidate_ok, _local_notes, _oracle_notes

RATIO_SPEC = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                            cost=PowerCost(3.0, 12.0))
NOISE_SPEC = TournamentSpec(prize=20.0,
                            csf=ProbitUniformCsf(half_width=5.0, f_exponent=0.5),
                            cost=PowerCost(3.0, 27.0))
NOISE_SPEC_LARGE = TournamentSpec(prize=100.0,
                                  csf=ProbitUniformCsf(half_width=5.0,
                                                       f_exponent=0.5),
                                  cost=PowerCost(3.0, 0.27))


@pytest.fixture(scope="module")
def ratio_report():
    return verify_solution(solve_tournament(RATIO_SPEC))


@pytest.fixture(scope="module")
def noise_report():
    return verify_solution(solve_tournament(NOISE_SPEC))


class TestRatioScenarioAccepted:
    def test_accepted_without_notes(self, ratio_report):
        assert ratio_report.interior_ok
        assert ratio_report.notes == ()

    def test_first_order_residuals_vanish(self, ratio_report):
        worst = max(abs(v) for v in ratio_report.foc_residuals.values())
        assert worst <= 1e-10

    def test_second_order_curvature_negative(self, ratio_report):
        assert max(ratio_report.soc_values.values()) < 0.0
        assert ratio_report.soc_values["final_HH_sabotage"] == pytest.approx(
            -0.9499956377112538, abs=1e-4)
        assert ratio_report.soc_values["semifinal0_player0_sabotage"] == (
            pytest.approx(-0.7756631140008569, abs=1e-3))

    def test_dropping_out_burns_value(self, ratio_report):
        for gain in ratio_report.corner_gains.values():
            assert gain < 0.0
        assert ratio_report.corner_gains["semifinal0_player0"] == pytest.approx(
            -10.703851055609186, abs=1e-6)

    def test_grid_search_finds_no_improvement(self, ratio_report):
        for gain in ratio_report.oracle_gains.values():
            assert gain <= 1e-6
            assert gain >= -1e-3


class TestNoiseScenarioRejected:
    def test_rejected_with_sabotage_curvature_note_first(self, noise_report):
        assert not noise_report.interior_ok
        assert "semifinal0_player0_sabotage" in noise_report.notes[0]

    def test_sabotage_curvature_is_convex(self, noise_report):
        assert noise_report.soc_values["semifinal0_player0_sabotage"] == (
            pytest.approx(2.5967889767718038, abs=1e-4))

    def test_final_dropout_gains(self, noise_report):
        # a dove facing a hawk keeps the coin flip for free by playing zero
        assert noise_report.oracle_gains["final_HD_dove"] == pytest.approx(
            2.1, abs=1e-9)
        assert noise_report.oracle_argmax["final_HD_dove"] == (0.0, 0.0)
        # a hawk in the all-hawk final keeps sabotage but drops the race
        assert noise_report.oracle_gains["final_HH"] == pytest.approx(
            71.0 / 27.0, abs=1e-9)
        assert noise_report.oracle_argmax["final_HH"] == (0.0, 4.0)

    def test_semifinal_deviations(self, noise_report):
        assert noise_report.oracle_gains["semifinal0_player1"] == pytest.approx(
            2.6561336634016477, abs=1e-6)
        assert noise_report.oracle_gains["semifinal0_player0"] >= 0.112


class TestCornerGains:
    def test_matches_report(self, ratio_report):
        sol = solve_tournament(RATIO_SPEC)
        gain = corner_deviation_gain(0, sol)
        assert gain == pytest.approx(
            ratio_report.corner_gains["semifinal0_player0"], abs=1e-12)

    def test_final_stage_corner(self):
        sol = solve_tournament(RATIO_SPEC)
        gain = corner_deviation_gain(0, sol, stage=2, pairing="HH")
        assert gain < 0.0

    def test_only_defined_for_hawks(self):
        sol = solve_tournament(RATIO_SPEC)
        with pytest.raises(ParameterError):
            corner_deviation_gain(1, sol)


class TestOracle:
    def test_baseline_matches_candidate_payoff(self):
        sol = solve_tournament(RATIO_SPEC)
        result = best_response_oracle(0, sol, grid=100)
        assert result.baseline == pytest.approx(sol.matches[0].payoffs[0],
                                                abs=1e-9)
        assert result.best_payoff - result.baseline == result.gain

    def test_rejects_coarse_grids(self):
        sol = solve_tournament(RATIO_SPEC)
        with pytest.raises(ParameterError):
            best_response_oracle(0, sol, grid=10)

    @pytest.mark.parametrize("grid", [1, True, 10, 49, 128.9, 128.0, "128"])
    @pytest.mark.parametrize("entry", ["verify_solution", "existence_gate",
                                       "best_response_oracle"])
    def test_grid_override_follows_the_settings_rule(self, entry, grid):
        # the rule SolverSettings.oracle_grid applies: an int, not a bool,
        # of at least 50
        sol = solve_tournament(RATIO_SPEC)
        calls = {
            "verify_solution": lambda g: verify_solution(sol, grid=g),
            "existence_gate": lambda g: existence_gate(RATIO_SPEC, grid=g),
            "best_response_oracle": lambda g: best_response_oracle(0, sol, grid=g),
        }
        with pytest.raises(ParameterError, match="oracle grid"):
            calls[entry](grid)
        with pytest.raises(ParameterError):
            SolverSettings(oracle_grid=grid)

    def test_dove_search_is_one_dimensional(self):
        sol = solve_tournament(RATIO_SPEC)
        result = best_response_oracle(1, sol, grid=100)
        assert result.best_s == 0.0


class TestNoiseLargePrizeAccepted:
    def test_clean_report(self):
        report = verify_solution(solve_tournament(NOISE_SPEC_LARGE))
        assert report.interior_ok
        assert report.notes == ()
        assert max(report.soc_values.values()) < 0.0


class TestExistenceGate:
    def test_accepts_the_ratio_scenario(self):
        result = existence_gate(RATIO_SPEC, grid=128)
        assert result.interior_ok
        assert result.minimal_v_estimate == pytest.approx(47.515188237374343,
                                                          rel=0.011)

    def test_walks_up_from_a_rejected_prize(self):
        tiny = dataclasses.replace(RATIO_SPEC, prize=1.0)
        result = existence_gate(tiny, grid=128)
        assert not result.interior_ok
        assert result.minimal_v_estimate == pytest.approx(47.515188237374343,
                                                          rel=0.011)
        assert any("rejected" in note for note in result.notes)

    def test_threshold_brackets_the_flip(self):
        threshold = 47.515188237374343
        low = dataclasses.replace(RATIO_SPEC, prize=40.0)
        high = dataclasses.replace(RATIO_SPEC, prize=50.0)
        low_report = verify_solution(solve_tournament(low), grid=128)
        assert not low_report.interior_ok
        assert any("corner deviation" in note for note in low_report.notes)
        assert verify_solution(solve_tournament(high), grid=128).interior_ok
        assert 40.0 < threshold < 50.0


def test_alternative_seedings_pass_the_audit():
    for bracket in ((("H", "D"), ("H", "H")), (("H", "D"), ("D", "D"))):
        spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                              cost=PowerCost(3.0, 12.0), bracket=bracket,
                              solver=SolverSettings(oracle_grid=128))
        report = verify_solution(solve_tournament(spec))
        assert report.interior_ok, report.notes


def _player_args(key):
    """(player, stage, pairing) addressing one report key's choice problem."""
    if key.startswith("semifinal"):
        return 2 * int(key[9]) + int(key[-1]), 1, None
    pairing = key.split("_")[1]
    return (1 if key.endswith("dove") else 0), 2, pairing


@pytest.mark.parametrize("spec", [
    RATIO_SPEC,
    NOISE_SPEC,
    dataclasses.replace(RATIO_SPEC, bracket=(("H", "D"), ("H", "H"))),
], ids=["ratio", "noise", "ratio-HD-HH"])
def test_per_player_functions_match_the_report_exactly(spec):
    sol = solve_tournament(spec)
    report = verify_solution(sol, grid=128)
    assert foc_residuals(sol) == report.foc_residuals
    assert soc_check(sol) == report.soc_values
    corners = {}
    for key, gain in report.oracle_gains.items():
        player, stage, pairing = _player_args(key)
        result = best_response_oracle(player, sol, grid=128, stage=stage,
                                      pairing=pairing)
        assert result.gain == gain
        assert (result.best_x, result.best_s) == report.oracle_argmax[key]
        assert result.best_payoff - result.baseline == result.gain
        if key in report.corner_gains:
            corners[key] = corner_deviation_gain(player, sol, stage=stage,
                                                 pairing=pairing)
    assert corners == report.corner_gains


@pytest.mark.parametrize("spec, prizes, oracle_only", [
    (RATIO_SPEC, (20.0, 40.0, 47.6, 80.0, 160.0), ()),
    (dataclasses.replace(RATIO_SPEC, csf=TullockCsf(r=0.5)), (30.0, 95.0, 120.0), ()),
    # prize 20 fails on sabotage curvature; 80 and 120 only on the oracle
    (NOISE_SPEC, (20.0, 40.0, 80.0, 120.0), (80.0, 120.0)),
    (NOISE_SPEC_LARGE, (20.0, 50.0, 100.0), (20.0,)),
], ids=["ratio", "ratio-r0.5", "noise", "noise-large"])
def test_gate_verdict_equals_the_full_audit(spec, prizes, oracle_only):
    for prize in prizes:
        report = verify_solution(solve_tournament(dataclasses.replace(spec, prize=prize)),
                                 grid=128)
        assert _candidate_ok(spec, prize, 128) == report.interior_ok, prize
        only_oracle = bool(report.notes) and all(
            note.startswith("oracle") for note in report.notes)
        assert only_oracle == (prize in oracle_only), prize


@pytest.mark.parametrize("where", ["semifinal_x", "semifinal_s", "final_x"])
def test_nan_effort_is_never_accepted(where):
    sol = solve_tournament(RATIO_SPEC)
    if where == "final_x":
        hawk, dove = sol.stage2.profiles["HD"]
        profiles = dict(sol.stage2.profiles, HD=(hawk, Effort(x=math.nan, s=0.0)))
        sol = dataclasses.replace(
            sol, stage2=dataclasses.replace(sol.stage2, profiles=profiles))
    else:
        match = sol.matches[0]
        hawk = match.efforts[0]
        bad = (Effort(x=math.nan, s=hawk.s) if where == "semifinal_x"
               else Effort(x=hawk.x, s=math.nan))
        sol = dataclasses.replace(sol, matches=(
            dataclasses.replace(match, efforts=(bad, match.efforts[1])),
            sol.matches[1]))
    try:
        report = verify_solution(sol, grid=64)
    except ParameterError:
        return
    assert not report.interior_ok


def test_nan_values_fail_every_layer():
    nan = math.nan
    assert len(_local_notes({"a_effort": nan}, {"a_effort": nan}, {"a": nan})) == 3
    assert len(_oracle_notes({"a": nan}, {"a": (0.0, 0.0)})) == 1
