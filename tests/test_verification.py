"""Global equilibrium audit: residuals, curvature, corners, grid oracle."""

import collections
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (Effort, InteriorityError, ParameterError, PowerCost,
                     ProbitUniformCsf, SolverError, SolverSettings,
                     TournamentSpec, TullockCsf, existence_gate,
                     parse_scenario, solve_tournament, verify_solution)
from tourney import verification
from tourney.stage1 import MAX_ORACLE_GRID
from tourney.stage2 import stage2_sabotage
from tourney.verification import (_baseline, _candidate_ok, _corner,
                                  _corner_notes, _foc_notes, _oracle,
                                  _oracle_notes, _soc_notes, _Table, _table,
                                  foc_residuals, soc_check)

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
    @pytest.mark.parametrize("spec", [RATIO_SPEC, NOISE_SPEC_LARGE],
                             ids=["ratio", "noise"])
    def test_matches_report(self, spec):
        sol = solve_tournament(spec)
        report = verify_solution(sol)
        t = _table(sol)
        assert _corner(spec, t, _baseline(spec.csf, spec.cost, t)) == report.corner_gains
        # wipe out the rival's outlay: a sure win under the ratio CSF, a
        # coin flip under bounded noise, for the rival's whole outlay
        match = sol.matches[0]
        p_corner = 1.0 if isinstance(spec.csf, TullockCsf) else 0.5
        bound = p_corner * match.values[0] - spec.cost.cost(match.efforts[1].x)
        assert report.corner_gains["semifinal0_player0"] == pytest.approx(
            bound - match.payoffs[0], rel=1e-12)

    def test_final_stage_corner(self, ratio_report):
        assert ratio_report.corner_gains["final_HH"] < 0.0
        assert ratio_report.corner_gains["final_HD_hawk"] < 0.0

    def test_only_defined_for_hawks(self, ratio_report):
        assert set(ratio_report.corner_gains) == {
            "semifinal0_player0", "semifinal1_player0", "final_HD_hawk", "final_HH"}


class TestOracle:
    def test_baseline_matches_candidate_payoff(self):
        sol = solve_tournament(RATIO_SPEC)
        t = _table(sol)
        row = t.of[t.keys.index("semifinal0_player0")]
        base = _baseline(RATIO_SPEC.csf, RATIO_SPEC.cost, t)
        assert base[row] == pytest.approx(sol.matches[0].payoffs[0], abs=1e-9)
        best, best_x, best_s = _oracle(RATIO_SPEC, t, 100)
        report = verify_solution(sol, grid=100)
        assert report.oracle_gains["semifinal0_player0"] == best[row] - base[row]
        assert report.oracle_argmax["semifinal0_player0"] == (best_x[row], best_s[row])

    @pytest.mark.parametrize("grid", [1, True, 10, 49, 128.9, 128.0, "128",
                                      MAX_ORACLE_GRID + 1, 2 ** 70, 10 ** 400])
    @pytest.mark.parametrize("entry", ["verify_solution", "existence_gate",
                                       "scenario_file"])
    def test_grid_override_follows_the_settings_rule(self, entry, grid, tmp_path):
        # the rule SolverSettings.oracle_grid applies: an int, not a bool,
        # from 50 to MAX_ORACLE_GRID
        sol = solve_tournament(RATIO_SPEC)

        def scenario(g):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps({
                "prize": 80.0, "csf": {"type": "tullock", "r": 1.0},
                "cost": {"exponent": 3.0, "divisor": 12.0},
                "solver": {"oracle_grid": g}}))
            return parse_scenario(path)

        calls = {
            "verify_solution": lambda g: verify_solution(sol, grid=g),
            "existence_gate": lambda g: existence_gate(RATIO_SPEC, grid=g),
            "scenario_file": scenario,
        }
        with pytest.raises(ParameterError, match="oracle.grid"):
            calls[entry](grid)
        with pytest.raises(ParameterError):
            SolverSettings(oracle_grid=grid)

    def test_grid_cap_is_admitted(self):
        # settings only: an audit at the cap would fill 256 MiB
        assert MAX_ORACLE_GRID == 4096
        assert SolverSettings(oracle_grid=MAX_ORACLE_GRID).oracle_grid == 4096

    def test_dove_search_is_one_dimensional(self, ratio_report):
        for key, (_, best_s) in ratio_report.oracle_argmax.items():
            if key not in ratio_report.corner_gains:
                assert best_s == 0.0, key


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


def _player_problem(sol, key):
    """(hawk, value, x, s, x_rival, s_rival) of one report key, read from
    the solution."""
    if key.startswith("semifinal"):
        match = sol.matches[int(key[len("semifinal")])]
        slot = int(key[-1])
        own, rival = match.efforts[slot], match.efforts[1 - slot]
        kind, value = match.types[slot], match.values[slot]
    else:
        pairing = key.split("_")[1]
        role = 1 if key.endswith("_dove") else 0
        efforts = sol.stage2.profiles[pairing]
        own, rival = efforts[role], efforts[1 - role]
        kind, value = pairing[role], sol.spec.prize
    return (kind == "H", value, own.x, own.s, rival.x, rival.s)


def _per_key_table(sol, keys):
    """A table with one row for each of the keys, read from the solution
    without _table's sharing."""
    rows = [_player_problem(sol, key) for key in keys]
    cols = np.array([row[1:] for row in rows], dtype=float).T
    return _Table(tuple(keys), tuple(range(len(keys))),
                  np.array([row[0] for row in rows]), *cols)


def _report_of(spec, t, n):
    """The report's five per-key dicts, computed from the table t, as
    lists of items, so that the order of the keys is compared too."""
    base = _baseline(spec.csf, spec.cost, t)
    best, best_x, best_s = _oracle(spec, t, n)
    gains, argmax = {}, {}
    for key, p in zip(t.keys, t.of):
        gains[key] = best.tolist()[p] - base.tolist()[p]
        argmax[key] = (best_x.tolist()[p], best_s.tolist()[p])
    return [list(d.items()) for d in (foc_residuals(spec, t), soc_check(spec, t),
                                       _corner(spec, t, base), gains, argmax)]


def _assert_per_player(sol, report, n):
    """The report, a table with one row per player, and every player's
    problem on its own give the same numbers under the same keys."""
    spec = sol.spec
    t = _table(sol)
    layers = [list(d.items()) for d in (
        report.foc_residuals, report.soc_values, report.corner_gains,
        report.oracle_gains, report.oracle_argmax)]
    assert _report_of(spec, t, n) == layers
    assert _report_of(spec, _per_key_table(sol, t.keys), n) == layers
    for key in t.keys:
        own = [[(k, v) for k, v in items if k == key or k.startswith(key + "_")]
               for items in layers]
        assert _report_of(spec, _per_key_table(sol, [key]), n) == own, key


def _assert_one_row_per_problem(sol):
    """Every key's row is its own problem, no two rows are alike, and every
    row is some key's."""
    t = _table(sol)
    rows = list(zip(*(col.tolist() for col in (t.hawk, t.value, t.x, t.s,
                                                t.x_rival, t.s_rival))))
    assert [rows[p] for p in t.of] == [_player_problem(sol, key) for key in t.keys]
    assert len(set(rows)) == len(rows) == len(set(t.of))
    return t


@pytest.mark.parametrize("spec", [
    RATIO_SPEC,
    NOISE_SPEC,
    dataclasses.replace(RATIO_SPEC, bracket=(("H", "D"), ("H", "H"))),
    dataclasses.replace(RATIO_SPEC, bracket=(("H", "H"), ("H", "H"))),
], ids=["ratio", "noise", "ratio-HD-HH", "ratio-HH-HH"])
def test_per_player_functions_match_the_report_exactly(spec):
    # the report measures each distinct problem once
    sol = solve_tournament(spec)
    _assert_per_player(sol, verify_solution(sol, grid=128), 128)


def _perturbed(where):
    """The ratio H-D / H-D solution with its second semifinal changed so
    that two players' problems differ in one field only."""
    sol = solve_tournament(dataclasses.replace(RATIO_SPEC,
                                               bracket=(("H", "D"), ("H", "D"))))
    first, second = sol.matches
    hawk, dove = second.efforts
    if where == "s_rival":
        # the second semifinal's dove differs from the first's only in the
        # sabotage its rival chose
        second = dataclasses.replace(second, efforts=(Effort(hawk.x, 2.0 * hawk.s), dove))
    else:
        # a hawk that does not sabotage, against a dove of its own value
        # and outlay: the two differ only in the hawk flag
        second = dataclasses.replace(second, values=(second.values[1],) * 2,
                                     efforts=(Effort(dove.x, 0.0),) * 2)
    return dataclasses.replace(sol, matches=(first, second))


@pytest.mark.parametrize("where", ["s_rival", "hawk"])
def test_problems_differing_in_one_field_stay_apart(where):
    sol = _perturbed(where)
    t = _assert_one_row_per_problem(sol)
    # the unperturbed seeding's 8 keys pose 6 problems; here the second
    # semifinal's two are its own
    assert (len(t.keys), t.hawk.size) == (8, 8)
    _assert_per_player(sol, verify_solution(sol, grid=50), 50)


_BRACKETS = [((a, b), (c, d)) for a, b, c, d in itertools.product("HD", repeat=4)]


@pytest.mark.parametrize("spec", [RATIO_SPEC, NOISE_SPEC_LARGE], ids=["ratio", "noise"])
def test_one_row_per_distinct_problem_in_every_bracket(spec):
    keys = problems = 0
    for bracket in _BRACKETS:
        sol = solve_tournament(dataclasses.replace(spec, bracket=bracket))
        t = _assert_one_row_per_problem(sol)
        keys += len(t.keys)
        problems += t.hawk.size
        # keys that share a problem get identical entries in every dict
        report = verify_solution(sol, grid=50)
        for a, b in itertools.combinations(range(len(t.keys)), 2):
            if t.of[a] != t.of[b]:
                continue
            for entries in (report.foc_residuals, report.soc_values):
                for coordinate in ("_effort", "_sabotage"):
                    assert (entries.get(t.keys[a] + coordinate)
                            == entries.get(t.keys[b] + coordinate)), bracket
            for entries in (report.corner_gains, report.oracle_gains,
                            report.oracle_argmax):
                assert entries.get(t.keys[a]) == entries.get(t.keys[b]), bracket
        if bracket in ((("H", "H"), ("H", "H")), (("D", "D"), ("D", "D"))):
            assert (len(t.keys), t.hawk.size) == (5, 2)
    assert (keys, problems) == (110, 84)


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


def _audit_ok(spec, prize):
    try:
        sol = solve_tournament(dataclasses.replace(spec, prize=prize))
    except (InteriorityError, SolverError):
        return False
    return verify_solution(sol, grid=128).interior_ok


@st.composite
def _acceptance_draws(draw):
    """A spec drawn as the acceptance grid draws them, in one of the sixteen
    seedings, and a prize within a decade either side of the grid's
    reference prize."""
    exponent = draw(st.floats(1.5, 4.0))
    if draw(st.booleans()):
        r = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
        cost = PowerCost(exponent, draw(st.floats(0.5, 30.0)))
        s2 = stage2_sabotage(cost)
        spec = TournamentSpec(prize=1.0, csf=TullockCsf(r=r), cost=cost)
        reference = 40.0 * (s2 + cost.cost(s2)) / (2.0 - r)
    else:
        beta = draw(st.sampled_from([0.3, 0.5, 0.7]))
        width = draw(st.floats(2.0, 8.0))
        reference = (((1.0 - beta) / 2.0) ** ((1.0 - beta) / beta)
                     * (2.0 * width / beta) ** (1.0 / beta))
        b_star = (beta * reference / (2.0 * width)) ** (1.0 / (1.0 - beta))
        b_ref = (beta * (reference / 2.0 - b_star) / (2.0 * width)) ** (
            1.0 / (1.0 - beta))
        s_target = draw(st.floats(0.25, 0.55)) * b_ref * (1.0 - beta) / beta
        spec = TournamentSpec(
            prize=1.0, csf=ProbitUniformCsf(half_width=width, f_exponent=beta),
            cost=PowerCost(exponent, exponent * s_target ** (exponent - 1.0)))
    spec = dataclasses.replace(spec, bracket=draw(st.sampled_from(_BRACKETS)))
    return spec, reference * 10.0 ** draw(st.floats(-1.0, 1.0))


@settings(deadline=None, max_examples=80)
@given(_acceptance_draws())
def test_gate_verdict_equals_the_full_audit_on_drawn_specs(draw):
    spec, prize = draw
    assert _candidate_ok(spec, prize, 128) == _audit_ok(spec, prize)


# Probes that fail from one point of the gate's probe on and at no earlier
# point: (csf, cost, prize, the layers the full audit flags, the steps the
# probe runs).  The oracle searches the doves' 1-D lines, then the hawks'
# 2-D grids; a refinement step shows as a search that stops with no coarse
# grid failing.
_CHEAP = ["stage", "corner", "foc", "soc"]
_STAGE_SPEC = TournamentSpec(prize=0.8820256300338674,
                             csf=TullockCsf(r=0.7615166753151847),
                             cost=PowerCost(5.676083605281502, 0.0023272175838974945))
_FIRST_FAILURES = {
    # the semifinal doves expect a negative payoff
    "stage": (_STAGE_SPEC.csf, _STAGE_SPEC.cost, _STAGE_SPEC.prize,
              {"second-order", "corner", "oracle", "semifinal0_player1",
               "semifinal1_player1"}, ["stage"]),
    "corner": (TullockCsf(r=1.0),
               PowerCost(2.5655850431357674, 26.15807766971548),
               139.48713838548846, {"corner"}, ["stage", "corner"]),
    "soc": (ProbitUniformCsf(half_width=2.3563247235469946, f_exponent=0.3),
            PowerCost(3.1647937634526313, 1442.2606838204467),
            1676.235506917709, {"second-order", "oracle"}, _CHEAP),
    "coarse-1d": (ProbitUniformCsf(half_width=5.2355482776477285, f_exponent=0.7),
                  PowerCost(2.8623781256598075, 0.0010877118539106615),
                  10.575147554030194, {"oracle"},
                  _CHEAP + ["coarse-1d", "oracle"]),
    "coarse-2d": (ProbitUniformCsf(half_width=2.3563247235469946, f_exponent=0.3),
                  PowerCost(3.1647937634526313, 1442.2606838204467),
                  838.1177534588545, {"oracle"},
                  _CHEAP + ["coarse-1d", "coarse-2d", "oracle"]),
    # the semifinal hawks' coarse grids pass, their refinements gain
    "oracle": (ProbitUniformCsf(half_width=6.2213488869224784, f_exponent=0.5),
               PowerCost(2.268346625621469, 3.094183601246863),
               93.56469338730298, {"oracle"},
               _CHEAP + ["coarse-1d", "coarse-2d", "oracle"]),
}


@pytest.mark.parametrize("where", list(_FIRST_FAILURES))
def test_probe_stops_at_its_first_failing_layer(where, monkeypatch):
    csf, cost, prize, flagged, run = _FIRST_FAILURES[where]
    spec = TournamentSpec(prize=prize, csf=csf, cost=cost)
    steps = []

    def spy(fn, name_of, failed):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            steps.append((name_of(args), failed(result)))
            return result
        return wrapped

    for name, attr, notes in zip(_CHEAP, ("_stage_notes", "_corner", "foc_residuals",
                                          "soc_check"),
                                 (list, _corner_notes, _foc_notes, _soc_notes)):
        monkeypatch.setattr(verification, attr, spy(
            getattr(verification, attr), lambda args, name=name: name,
            lambda result, notes=notes: bool(notes(result))))
    monkeypatch.setattr(verification, "_coarse", spy(
        verification._coarse,
        lambda args: "coarse-1d" if args[5].shape[1] == 1 else "coarse-2d",
        lambda result: result is None))
    monkeypatch.setattr(verification, "_oracle", spy(
        verification._oracle, lambda args: "oracle", lambda result: result is None))

    assert not _candidate_ok(spec, prize, 128)
    assert [name for name, _ in steps] == run
    assert [name for name, failed in steps if failed][0] == where

    report = verify_solution(solve_tournament(spec), grid=128)
    assert not report.interior_ok
    assert {note.split()[0] for note in report.notes} == flagged
    _note_layers(report)


# The layer each note comes from, by its first word; a stage note names a
# semifinal player or the final-stage menu.
_NOTE_LAYERS = {"first-order": "foc", "second-order": "soc", "corner": "corner",
                "oracle": "oracle"}
_REPORT_ORDER = ["foc", "soc", "corner", "oracle", "stage"]


def _note_layers(report) -> list[str]:
    """The layer of each of the report's notes, asserted never to move
    backwards in the order the report lists its layers."""
    layers = [_NOTE_LAYERS.get(note.split()[0], "stage") for note in report.notes]
    ranks = [_REPORT_ORDER.index(layer) for layer in layers]
    assert ranks == sorted(ranks), layers
    return layers


def test_report_lists_its_notes_layer_by_layer():
    report = verify_solution(solve_tournament(_STAGE_SPEC), grid=128)
    assert _note_layers(report) == (["soc"] * 2 + ["corner"] * 2 + ["oracle"] * 4
                                    + ["stage"] * 2)


def test_gate_probes_each_prize_once(monkeypatch):
    probed = collections.Counter()
    candidate_ok = verification._candidate_ok

    def counted(spec, prize, n):
        probed[prize] += 1
        return candidate_ok(spec, prize, n)

    monkeypatch.setattr(verification, "_candidate_ok", counted)
    # 1 fails, 64 is the first passing prize of the outward scan, and the
    # halving run from it comes back to 32, which the scan has rejected
    result = existence_gate(dataclasses.replace(RATIO_SPEC, prize=1.0), grid=128)
    assert result.minimal_v_estimate == pytest.approx(47.515188237374343, rel=0.011)
    assert probed[64.0] == 1 and probed[32.0] == 1
    assert max(probed.values()) == 1


@pytest.mark.parametrize("prize", [1e305, 5e-324])
@pytest.mark.parametrize("spec", [RATIO_SPEC, NOISE_SPEC], ids=["ratio", "noise"])
def test_gate_probes_beyond_the_float_range_fail(spec, prize):
    # the outward scan's 2**20 overflows to inf and its 0.5 underflows to 0
    result = existence_gate(dataclasses.replace(spec, prize=prize), grid=128)
    assert (result.interior_ok, result.minimal_v_estimate) == (False, None)
    assert any(note.startswith("no admissible prize") for note in result.notes)


def test_audit_of_a_huge_prize_leaks_no_warning():
    # pytest turns a RuntimeWarning into an error, so an overflow in the
    # curvature stencil, the corner bound or the oracle would fail here
    spec = dataclasses.replace(RATIO_SPEC, prize=1e300)
    report = verify_solution(solve_tournament(spec), grid=128)
    assert not report.interior_ok
    assert not _candidate_ok(spec, spec.prize, 128)


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
    assert len(_foc_notes({"a_effort": nan})) == 1
    assert len(_soc_notes({"a_effort": nan})) == 1
    assert len(_corner_notes({"a": nan})) == 1
    assert len(_oracle_notes({"a": nan}, {"a": (0.0, 0.0)})) == 1
