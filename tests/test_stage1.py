"""Semifinal solvers and full tournament backward induction."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (InteriorityError, ParameterError, PowerCost,
                     ProbitUniformCsf, SolverError, SolverSettings,
                     TournamentSpec, TullockCsf, existence_gate,
                     solve_tournament)
from tourney import stage1
from tourney.stage1 import (_brent, _continuation_values, _noise_root,
                            _ratio_root, _title_probs)
from tourney.stage2 import _sabotage_level, solve_stage2

RATIO_MENU = solve_stage2(TullockCsf(r=1.0), PowerCost(3.0, 12.0), 80.0).menu

# one seeding of each shape: both semifinals mixed, one mixed (hawk or
# dove slot first) against either pure pool, none mixed
SEEDINGS = [(("H", "D"), ("H", "D")), (("H", "D"), ("H", "H")),
            (("D", "H"), ("D", "D")), (("H", "H"), ("H", "D")),
            (("H", "H"), ("D", "D"))]
SEEDING_IDS = ["-".join(a + b for a, b in bracket) for bracket in SEEDINGS]

RATIO_SPEC = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                            cost=PowerCost(3.0, 12.0))
NOISE_SPEC = TournamentSpec(prize=20.0,
                            csf=ProbitUniformCsf(half_width=5.0, f_exponent=0.5),
                            cost=PowerCost(3.0, 27.0))
# same noise CSF with cheap enough sabotage to survive every global check
NOISE_SPEC_LARGE = TournamentSpec(prize=100.0,
                                  csf=ProbitUniformCsf(half_width=5.0,
                                                       f_exponent=0.5),
                                  cost=PowerCost(3.0, 0.27))


class TestRatioScenario:
    def test_semifinal_candidate(self):
        sol = solve_tournament(RATIO_SPEC)
        match = sol.matches[0]
        assert match.types == ("H", "D")
        assert match.hawk_advance_prob == pytest.approx(0.49107995363148747,
                                                        abs=2e-11)
        assert match.effective[0] == pytest.approx(4.5863332045319096, rel=1e-9)
        assert match.effective[1] == pytest.approx(4.752946826380432, rel=1e-9)
        assert match.efforts[0].s == pytest.approx(1.9646324801237498, rel=1e-9)
        assert match.efforts[0].x == match.effective[0]
        assert match.efforts[1].x == pytest.approx(
            match.effective[1] + match.efforts[0].s, rel=1e-12)
        assert match.values[0] == pytest.approx(18.351173426070358, rel=1e-9)
        assert match.values[1] == pytest.approx(19.017840092737025, rel=1e-9)
        assert match.payoffs[0] == pytest.approx(3.7936392997602276, rel=1e-8)
        assert match.payoffs[1] == pytest.approx(2.9609807553205015, rel=1e-8)

    def test_dove_type_advantage(self):
        sol = solve_tournament(RATIO_SPEC)
        assert sol.type_win_probs["D"] == pytest.approx(0.50892004636851253,
                                                        abs=2e-11)
        assert sol.type_win_probs["D"] > 0.5 > sol.type_win_probs["H"]
        assert sol.matches[0].effective[0] < sol.matches[0].effective[1]

    def test_value_spread_is_the_sabotage_cost(self):
        sol = solve_tournament(RATIO_SPEC)
        match = sol.matches[0]
        spread = match.values[1] - match.values[0]
        assert spread == pytest.approx(RATIO_SPEC.cost.cost(2.0), abs=1e-12)

    def test_semifinal_sabotage_below_final_sabotage(self):
        sol = solve_tournament(RATIO_SPEC)
        assert sol.matches[0].efforts[0].s < sol.stage2.sabotage


class TestNoiseScenario:
    def test_semifinal_candidate(self):
        sol = solve_tournament(NOISE_SPEC)
        match = sol.matches[0]
        assert match.effective[0] == pytest.approx(0.10505623338351853, rel=1e-9)
        assert match.effective[1] == pytest.approx(0.13978254335277901, rel=1e-9)
        assert match.hawk_advance_prob == pytest.approx(0.49503725155317938,
                                                        abs=2e-11)
        assert match.efforts[0].s == pytest.approx(2.7932735991806192, rel=1e-9)
        assert match.values[0] == pytest.approx(6.5148882453404619, rel=1e-9)
        assert match.values[1] == pytest.approx(7.5148882453404619, rel=1e-9)
        assert match.payoffs[0] == pytest.approx(2.3128644784353171, rel=1e-8)
        assert match.payoffs[1] == pytest.approx(0.86168248010442671, rel=1e-8)

    def test_value_spread_is_the_sabotage_cost(self):
        sol = solve_tournament(NOISE_SPEC)
        match = sol.matches[0]
        assert match.values[1] - match.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_large_prize_variant(self):
        sol = solve_tournament(NOISE_SPEC_LARGE)
        match = sol.matches[0]
        assert match.effective[0] == pytest.approx(1.5298945216482875, rel=1e-9)
        assert match.effective[1] == pytest.approx(1.5422822058109912, rel=1e-9)
        assert match.hawk_advance_prob == pytest.approx(0.49950037475015616,
                                                        abs=2e-11)
        assert match.efforts[0].s == pytest.approx(0.29939577342753869, rel=1e-9)
        assert match.payoffs[0] == pytest.approx(10.733417632741588, rel=1e-8)
        assert match.payoffs[1] == pytest.approx(10.595812726895183, rel=1e-8)


class TestContinuationValues:
    def test_pool_pins_the_mixing_weight(self):
        menu = RATIO_MENU
        assert _continuation_values(menu, 0.3, ("H", "H")) == (
            menu.hawk_vs_hawk, menu.dove_vs_hawk)
        assert _continuation_values(menu, 0.3, ("D", "D")) == (
            menu.hawk_vs_dove, menu.dove_vs_dove)

    def test_mixed_pool_is_affine_in_probability(self):
        for p in (0.0, 0.25, 0.466, 0.75, 1.0):
            hawk, dove = _continuation_values(RATIO_MENU, p, ("H", "D"))
            assert hawk == pytest.approx(58.0 / 3.0 - 2.0 * p, abs=1e-12)
            assert dove == pytest.approx(20.0 - 2.0 * p, abs=1e-12)

    def test_menu_value_lookup(self):
        # a mixed pool at its ends reads one column of the menu exactly
        menu = RATIO_MENU
        assert _continuation_values(menu, 1.0, ("H", "D")) == (
            menu.hawk_vs_hawk, menu.dove_vs_hawk)
        assert _continuation_values(menu, 0.0, ("D", "H")) == (
            menu.hawk_vs_dove, menu.dove_vs_dove)


class TestMixedSemifinalSolvers:
    def test_constant_values_have_analytic_fixed_point(self):
        a0, b0 = 52.0 / 3.0, 18.0
        _, _, p, a_val, b_val = _ratio_root(lambda _p: (a0, b0), 1.0, SolverSettings())
        assert p == pytest.approx(a0 / (a0 + b0), abs=1e-11)
        assert (a_val, b_val) == (a0, b0)

    def test_effort_ratio_equals_value_ratio(self):
        # holds for every decisiveness level, not just the linear case
        for r in (0.25, 0.5, 0.75, 1.0):
            a0, b0 = 15.0, 19.0
            bh, bd, p, *_ = _ratio_root(lambda _p: (a0, b0), r, SolverSettings())
            assert bh / bd == pytest.approx(a0 / b0, rel=1e-10)
            assert p == pytest.approx(a0 ** r / (a0 ** r + b0 ** r), abs=1e-10)

    def test_brent_converges_to_known_roots(self):
        def f(x):
            return x ** 3 - 2.0

        root = _brent(f, 0.0, 2.0, f(0.0), f(2.0))
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=4e-16)
        # a steep root near zero is found to relative, not absolute, precision
        root = _brent(lambda x: 1e-9 - x, 0.0, 1.0, 1e-9, 1e-9 - 1.0)
        assert root == pytest.approx(1e-9, rel=4e-16)
        # either endpoint may be the root itself
        assert _brent(lambda x: x, 0.0, 1.0, 0.0, 1.0) == 0.0
        assert _brent(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0
        assert _brent(math.cos, 0.0, 3.0, 1.0, math.cos(3.0)) == pytest.approx(
            math.pi / 2.0, rel=4e-16)

    def test_unit_kappa_noise_spec_solves(self):
        # A/B rounds so that kappa^beta == 1: the dove's root sits on the
        # zero-gap end of its bracket and the match is an even contest
        spec = TournamentSpec(prize=428.07,
                              csf=ProbitUniformCsf(half_width=4.5509,
                                                   f_exponent=0.2076),
                              cost=PowerCost(1.1169, 0.016197),
                              bracket=(("D", "H"), ("H", "H")))
        match = solve_tournament(spec).matches[0]
        assert match.hawk_advance_prob == pytest.approx(0.5, abs=1e-12)
        assert match.effective[0] == pytest.approx(match.effective[1], rel=1e-12)
        assert match.effective[0] == pytest.approx(6.6309318278, rel=1e-9)

    def test_huge_prize_does_not_overflow(self):
        spec = TournamentSpec(prize=1e300, csf=TullockCsf(r=1.0),
                              cost=PowerCost(3.0, 12.0))
        match = solve_tournament(spec).matches[0]
        assert match.hawk_advance_prob == 0.5
        assert match.effective[0] == pytest.approx(6.25e298, rel=1e-12)
        assert match.effective[1] == pytest.approx(6.25e298, rel=1e-12)

    @settings(deadline=None, max_examples=150)
    @given(prize=st.floats(0.05, 1e5), exponent=st.floats(1.05, 6.0),
           divisor=st.floats(0.005, 200.0), noise=st.booleans(),
           r=st.floats(0.02, 1.0), half_width=st.floats(0.3, 30.0),
           beta=st.floats(0.05, 0.95))
    def test_mixed_semifinals_certify_or_refuse(self, prize, exponent, divisor,
                                                noise, r, half_width, beta):
        csf = ProbitUniformCsf(half_width, beta) if noise else TullockCsf(r)
        spec = TournamentSpec(prize=prize, csf=csf,
                              cost=PowerCost(exponent, divisor))
        try:
            match = solve_tournament(spec).matches[0]
        except InteriorityError:
            return
        p = match.hawk_advance_prob
        assert 0.0 <= p <= 1.0
        assert match.win_probs[0] == pytest.approx(csf.win_prob(*match.effective),
                                                   abs=1e-12)
        (d_hawk, _), (d_dove, _) = (csf.win_prob_partials(*match.effective),
                                    csf.win_prob_partials(*match.effective[::-1]))
        assert abs(d_hawk * match.values[0] - 1.0) <= spec.solver.tolerance
        assert abs(d_dove * match.values[1] - 1.0) <= spec.solver.tolerance

    def test_hawk_win_probability_declines_with_parallel_hawks(self):
        probs = []
        for q in (0.0, 0.5, 1.0):
            hawk, dove = _continuation_values(RATIO_MENU, q, ("H", "D"))
            probs.append(hawk / (hawk + dove))
        assert probs[0] > probs[1] > probs[2]


class TestAlternativeSeedings:
    def test_three_hawks_one_dove(self):
        spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                              cost=PowerCost(3.0, 12.0),
                              bracket=(("H", "D"), ("H", "H")))
        sol = solve_tournament(spec)
        assert sol.matches[0].hawk_advance_prob == pytest.approx(26.0 / 53.0,
                                                                 abs=1e-11)
        expected = (13.0 / 53.0, 27.0 / 106.0, 0.25, 0.25)
        for got, want in zip(sol.win_probs, expected):
            assert got == pytest.approx(want, abs=1e-11)
        dove_prob = sol.win_probs[1]
        for player, kind in enumerate(sol.types):
            if kind == "H":
                assert dove_prob > sol.win_probs[player]

    def test_one_hawk_three_doves(self):
        spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                              cost=PowerCost(3.0, 12.0),
                              bracket=(("D", "H"), ("D", "D")))
        sol = solve_tournament(spec)
        assert sol.matches[0].types == ("D", "H")
        assert sol.matches[0].hawk_advance_prob == pytest.approx(29.0 / 59.0,
                                                                 abs=1e-11)
        expected = (15.0 / 59.0, 29.0 / 118.0, 0.25, 0.25)
        for got, want in zip(sol.win_probs, expected):
            assert got == pytest.approx(want, abs=1e-11)
        hawk_prob = sol.win_probs[1]
        for player, kind in enumerate(sol.types):
            if kind == "D":
                assert sol.win_probs[player] > hawk_prob

    def test_hawks_seeded_against_hawks(self):
        spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                              cost=PowerCost(3.0, 12.0),
                              bracket=(("H", "H"), ("D", "D")))
        sol = solve_tournament(spec)
        hawks, doves = sol.matches
        assert hawks.values[0] == pytest.approx(58.0 / 3.0, rel=1e-12)
        assert hawks.efforts[0] == hawks.efforts[1]
        assert hawks.efforts[0].x == pytest.approx(58.0 / 12.0 + 2.0, rel=1e-12)
        assert hawks.payoffs[0] == pytest.approx(13.0 / 6.0, rel=1e-12)
        assert doves.values[0] == pytest.approx(18.0, rel=1e-12)
        assert doves.efforts[0].x == pytest.approx(4.5, rel=1e-12)
        assert doves.payoffs[0] == pytest.approx(4.5, rel=1e-12)
        assert sol.win_probs == pytest.approx((0.25,) * 4)
        assert sol.type_win_probs["D"] == pytest.approx(0.5)


class TestBracketArithmetic:
    def test_even_semifinals_give_quarter_each(self):
        assert _title_probs((0.5, 0.5, 0.5, 0.5)) == (0.25, 0.25, 0.25, 0.25)

    def test_degenerate_semifinals(self):
        assert _title_probs((1.0, 0.0, 0.0, 1.0)) == (0.5, 0.0, 0.0, 0.5)

    @pytest.mark.parametrize("bracket", SEEDINGS, ids=SEEDING_IDS)
    def test_title_probabilities_add_up(self, bracket):
        sol = solve_tournament(dataclasses.replace(RATIO_SPEC, bracket=bracket))
        assert sol.win_probs == _title_probs(sol.semifinal_win_probs)
        for match in sol.matches:
            assert sum(match.win_probs) == 1.0
        assert sum(sol.win_probs) == pytest.approx(1.0, abs=1e-15)
        assert sum(sol.type_win_probs.values()) == pytest.approx(1.0, abs=1e-15)


class TestSpecValidation:
    def test_rejects_nonpositive_prize(self):
        for prize in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                TournamentSpec(prize=prize, csf=TullockCsf(), cost=PowerCost(3.0, 12.0))

    def test_rejects_malformed_brackets(self):
        with pytest.raises(ParameterError):
            TournamentSpec(prize=1.0, csf=TullockCsf(), cost=PowerCost(3.0, 12.0),
                           bracket=(("H",), ("H", "D")))
        with pytest.raises(ParameterError):
            TournamentSpec(prize=1.0, csf=TullockCsf(), cost=PowerCost(3.0, 12.0),
                           bracket=(("H", "X"), ("H", "D")))

    def test_normalizes_list_brackets(self):
        spec = TournamentSpec(prize=1.0, csf=TullockCsf(), cost=PowerCost(3.0, 12.0),
                              bracket=[["H", "D"], ["D", "D"]])
        assert spec.bracket == (("H", "D"), ("D", "D"))
        assert spec.types == ("H", "D", "D", "D")

    # a field of the wrong type is refused with its repr when the spec is
    # built, not left to fail inside the solve
    def test_rejects_a_csf_of_the_wrong_type(self):
        for bad in ("x", None, PowerCost(3.0, 12.0)):
            with pytest.raises(ParameterError, match="csf must be") as caught:
                TournamentSpec(prize=80.0, csf=bad, cost=PowerCost(3.0, 12.0))
            assert str(caught.value).endswith(f"got {bad!r}")

    def test_rejects_a_cost_of_the_wrong_type(self):
        for bad in ("x", None, TullockCsf()):
            with pytest.raises(ParameterError, match="cost must be") as caught:
                TournamentSpec(prize=80.0, csf=TullockCsf(), cost=bad)
            assert str(caught.value).endswith(f"got {bad!r}")

    def test_rejects_solver_settings_of_the_wrong_type(self):
        for bad in (None, 1e-10, {"tolerance": 1e-10}):
            with pytest.raises(ParameterError, match="solver must be") as caught:
                TournamentSpec(prize=80.0, csf=TullockCsf(), cost=PowerCost(3.0, 12.0),
                               solver=bad)
            assert str(caught.value).endswith(f"got {bad!r}")

    def test_solver_settings_validation(self):
        with pytest.raises(ParameterError):
            SolverSettings(tolerance=0.0)
        with pytest.raises(ParameterError):
            SolverSettings(oracle_grid=10)
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                SolverSettings(tolerance=bad)
        # below the floor no semifinal could certify
        for bad in (9.9e-15, 1e-16, 5e-324):
            with pytest.raises(ParameterError, match="at least 1e-14") as caught:
                SolverSettings(tolerance=bad)
            assert str(caught.value).endswith(f"got {bad!r}")
        assert SolverSettings(tolerance=1e-14).tolerance == 1e-14
        for bad in (math.nan, 400.0, True):
            with pytest.raises(ParameterError, match="integer"):
                SolverSettings(oracle_grid=bad)


def test_small_prize_fails_the_existence_gate():
    spec = TournamentSpec(prize=1.0, csf=TullockCsf(r=1.0),
                          cost=PowerCost(3.0, 12.0))
    with pytest.raises(InteriorityError, match="prize too small"):
        solve_tournament(spec)


@pytest.mark.parametrize("prize", [0.25, 0.5, 0.99, 1.01, 1.5, 2.0, 400.0])
def test_refused_prize_names_the_side_its_payoff_moves_to(prize):
    # b(v) = v**2 / 4 at a = beta = 1/2, so a final payoff v/2 - b(v) - k
    # peaks at v = 1; with c(s*) = 1 hawk against dove pays at most -0.75
    # (dove against dove is 0 at v = 2), and the message says which way the
    # prize must move to raise the failing payoff
    csf, cost = ProbitUniformCsf(half_width=0.5, f_exponent=0.5), PowerCost(3.0, 27.0)
    menus = [solve_stage2(csf, cost, v).menu for v in (prize, prize * 1.001)]
    side = "small" if menus[1].hawk_vs_dove > menus[0].hawk_vs_dove else "large"
    assert side == ("small" if prize < 1.0 else "large")
    with pytest.raises(InteriorityError, match=f"prize too {side}: "):
        solve_tournament(TournamentSpec(prize=prize, csf=csf, cost=cost))


def test_symmetric_seedings_share_one_solution():
    sol = solve_tournament(RATIO_SPEC)
    assert sol.matches[0] == sol.matches[1]
    flipped = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                             cost=PowerCost(3.0, 12.0),
                             bracket=(("D", "H"), ("H", "D")))
    sol2 = solve_tournament(flipped)
    assert sol2.matches[0].types == ("D", "H")
    assert sol2.matches[0].win_probs[1] == pytest.approx(
        sol.matches[0].win_probs[0], abs=1e-12)
    assert sol2.type_win_probs["D"] == pytest.approx(sol.type_win_probs["D"],
                                                     abs=1e-12)


# Full-precision figures of the scalar solve, pinned with == so that a
# change in any float operation of stage 1 or stage 2 shows up:
# (hawk_advance_prob, effective, efforts[0].s, win_probs[0]).
PINNED_SOLUTIONS = [
    (100.0, ProbitUniformCsf(5.0, 0.5), PowerCost(3.0, 0.27), (("H", "D"), ("H", "D")),
     (0.49950037475015613, (1.5298945216482869, 1.542282205810991),
      0.2993957734275387, 0.2497501873750781)),
    (100.0, ProbitUniformCsf(5.0, 0.5), PowerCost(3.0, 0.27), (("H", "D"), ("D", "D")),
     (0.49950037475015613, (1.5484761367442215, 1.560938671094238),
      0.29939939879699157, 0.24975018737507806)),
    (80.0, TullockCsf(0.5), PowerCost(3.0, 12.0), (("H", "D"), ("H", "H")),
     (0.49698784249285727, (3.416542667731079, 3.49987297670013),
      1.9760470401187074, 0.24849392124642863)),
    (30.0, ProbitUniformCsf(4.0, 0.3), PowerCost(2.5, 1.0), (("H", "D"), ("H", "D")),
     (0.49935498674360157, (0.37096436086555623, 0.3796285545347564),
      0.5370658549731447, 0.24967749337180078)),
]


@pytest.mark.parametrize("prize, csf, cost, bracket, pinned", PINNED_SOLUTIONS)
def test_solutions_are_bit_identical_to_pinned_values(prize, csf, cost, bracket, pinned):
    sol = solve_tournament(TournamentSpec(prize=prize, csf=csf, cost=cost,
                                          bracket=bracket))
    match = sol.matches[0]
    assert (match.hawk_advance_prob, match.effective, match.efforts[0].s,
            sol.win_probs[0]) == pinned


@pytest.mark.parametrize("bracket", SEEDINGS, ids=SEEDING_IDS)
def test_match_values_are_the_continuation_values(bracket):
    # each semifinal is played for the final-stage values its parallel
    # pool sends up; both mixed, the parallel hawk wins with the match's
    # own probability
    sol = solve_tournament(dataclasses.replace(RATIO_SPEC, bracket=bracket))
    menu = sol.stage2.menu
    for i, match in enumerate(sol.matches):
        hawk, dove = _continuation_values(
            menu, sol.matches[1 - i].hawk_advance_prob, sol.spec.bracket[1 - i])
        assert match.values == tuple(hawk if t == "H" else dove
                                     for t in match.types)


@pytest.mark.parametrize("spec", [
    RATIO_SPEC,
    NOISE_SPEC_LARGE,
    dataclasses.replace(RATIO_SPEC, bracket=(("H", "D"), ("H", "H"))),
    dataclasses.replace(NOISE_SPEC_LARGE, bracket=(("H", "D"), ("D", "D"))),
], ids=["ratio", "noise", "ratio-HD-HH", "noise-HD-DD"])
def test_two_callback_solvers_match_the_tournament_exactly(spec):
    # the roots called with the continuation values as their callback give
    # the tournament's mixed semifinal to the bit, and the values they
    # certified give its hawk's sabotage
    sol = solve_tournament(spec)
    menu = sol.stage2.menu
    pool = spec.bracket[1]

    def values(p):
        return _continuation_values(menu, p, pool)

    if isinstance(spec.csf, TullockCsf):
        got = _ratio_root(values, spec.csf.r, spec.solver)
    else:
        got = _noise_root(values, spec.csf, spec.solver)
    match = sol.matches[0]
    assert got == (*match.effective, match.hawk_advance_prob, *match.values)
    assert _sabotage_level(spec.cost, got[3] / got[4]) == match.efforts[0].s


def test_underflowing_noise_efforts_are_a_solver_error():
    # base effort (beta v / 2a)^(1/(1-beta)) underflows to 0.0 at a huge
    # noise width; certification's 0.0 ** (beta - 1) must not be reached
    for prize in (1e-6, 1e-3, 1.0, 1e3):
        spec = TournamentSpec(prize=prize,
                              csf=ProbitUniformCsf(half_width=1e150, f_exponent=0.9),
                              cost=PowerCost(1.5, 1e-12))
        with pytest.raises(SolverError, match="effort left the float range"):
            solve_tournament(spec)
    # every gate probe there fails cleanly instead of crashing the gate
    gate = existence_gate(spec, grid=64)
    assert gate.minimal_v_estimate is None


@pytest.mark.parametrize("bracket", [(("H", "D"), ("D", "D")), (("D", "H"), ("H", "H")),
                                     (("H", "H"), ("H", "D")), (("D", "D"), ("D", "H"))])
def test_one_mixed_noise_bracket_runs_two_brent_roots(monkeypatch, bracket):
    # the values are constant in p, so every outer step reuses one inner
    # root: one inner and one outer Brent call
    calls = []

    def spy(*args):
        calls.append(args[1:3])
        return _brent(*args)

    monkeypatch.setattr(stage1, "_brent", spy)
    spec = TournamentSpec(prize=NOISE_SPEC_LARGE.prize, csf=NOISE_SPEC_LARGE.csf,
                          cost=NOISE_SPEC_LARGE.cost, bracket=bracket)
    solve_tournament(spec)
    assert len(calls) == 2


def test_semifinal_roots_refuse_nonpositive_values():
    with pytest.raises(InteriorityError, match="prize too small"):
        _ratio_root(lambda p: (-1.0, 2.0), 1.0, RATIO_SPEC.solver)
    with pytest.raises(InteriorityError, match="prize too small"):
        _noise_root(lambda p: (2.0, -1.0), NOISE_SPEC.csf, NOISE_SPEC.solver)


def test_overflowing_noise_marginal_is_a_solver_error():
    # the hawk's effort rounds to a subnormal, and its marginal performance
    # b**(beta - 1) leaves the float range during certification
    spec = TournamentSpec(prize=1.17899697664905e-289,
                          csf=ProbitUniformCsf(9.874721158009316e+17,
                                               0.04213301543363942),
                          cost=PowerCost(1.0176127334995588, 3.3636355226570527e-270),
                          bracket=(("D", "H"), ("H", "H")))
    with pytest.raises(SolverError, match="semifinal hawk effort .* overflows"):
        solve_tournament(spec)
