"""Shipping gate: one test per release criterion, run in order.

Every test here freezes a criterion at its stated tolerance.  The conftest
hook prints a one-line PASS/FAIL verdict per criterion after the run.  Where
the reference tables quote a figure the model does not reproduce (the
semifinal fixed point 0.466, the final-stage curvature shortcut
1/(4rv) - c''(s*)), the test checks the correct value and records the quoted
one with the size of the gap.  See the README section on known
discrepancies.
"""

import math
import time

import numpy as np
import pytest

from tourney import (InteriorityError, PowerCost, ProbitUniformCsf,
                     SimConfig, SolverError, SolverSettings, TournamentSpec,
                     TullockCsf, existence_gate, simulate_tournament,
                     solve_tournament, verify_solution)
from tourney.stage1 import _continuation_values
from tourney.stage2 import solve_stage2, stage2_sabotage
from tourney.verification import _table, soc_check

RATIO_SPEC = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                            cost=PowerCost(3.0, 12.0))
NOISE_SPEC = TournamentSpec(prize=20.0,
                            csf=ProbitUniformCsf(half_width=5.0, f_exponent=0.5),
                            cost=PowerCost(3.0, 27.0))
NOISE_SPEC_LARGE = TournamentSpec(prize=100.0,
                                  csf=ProbitUniformCsf(half_width=5.0,
                                                       f_exponent=0.5),
                                  cost=PowerCost(3.0, 0.27))
FAST = SolverSettings(oracle_grid=128)


def test_noise_scenario_replication():
    started = time.perf_counter()
    sol = solve_tournament(NOISE_SPEC)
    elapsed = time.perf_counter() - started

    assert sol.stage2.base_effort == 1.0
    assert sol.stage2.sabotage == 3.0

    match = sol.matches[0]
    assert math.sqrt(match.effective[0]) == pytest.approx(0.324124, abs=5e-4)
    assert math.sqrt(match.effective[1]) == pytest.approx(0.373875, abs=5e-4)
    assert match.hawk_advance_prob == pytest.approx(0.495, abs=5e-4)
    assert match.values[0] == pytest.approx(6.515, abs=1e-3)
    assert match.values[1] == pytest.approx(7.515, abs=1e-3)
    assert match.efforts[0].s == pytest.approx(2.79, abs=5e-3)
    assert match.payoffs[0] == pytest.approx(2.3, abs=5e-2)
    assert match.payoffs[1] == pytest.approx(0.86, abs=5e-2)
    assert elapsed < 1.0


def test_ratio_scenario_replication():
    started = time.perf_counter()
    sol = solve_tournament(RATIO_SPEC)
    report = verify_solution(sol)
    elapsed = time.perf_counter() - started

    assert sol.stage2.base_effort == 20.0
    assert sol.stage2.sabotage == 2.0

    menu = sol.stage2.menu
    for p in (0.0, 0.25, 0.466, 0.5, 0.75, 1.0):
        hawk, dove = _continuation_values(menu, p, ("H", "D"))
        assert hawk == pytest.approx(58.0 / 3.0 - 2.0 * p, abs=1e-12)
        assert dove == pytest.approx(20.0 - 2.0 * p, abs=1e-12)

    def phi(p):
        hawk, dove = _continuation_values(menu, p, ("H", "D"))
        return hawk / (hawk + dove)

    p_star = sol.matches[0].hawk_advance_prob
    assert abs(phi(p_star) - p_star) <= 1e-10

    for gain in report.oracle_gains.values():
        assert gain <= 1e-6

    # the reference tables list 0.466 here; the self-consistent root is not
    # that number, and the gap is large enough to be a real disagreement
    recorded = 0.466
    discrepancy = p_star - recorded
    print(f"computed semifinal fixed point {p_star:.9f}; recorded value "
          f"{recorded}; discrepancy {discrepancy:+.6f}")
    assert abs(discrepancy) > 0.02, (p_star, recorded)
    assert p_star == pytest.approx(0.49107995363148747, abs=1e-9), (
        f"computed fixed point {p_star:.12f} vs recorded {recorded} "
        f"(discrepancy {discrepancy:+.6f})")
    assert elapsed < 5.0


def _draw_tullock(rng):
    r = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
    cost = PowerCost(float(rng.uniform(1.5, 4.0)), float(rng.uniform(0.5, 30.0)))
    s2 = stage2_sabotage(cost)
    seed_prize = 40.0 * (s2 + cost.cost(s2)) / (2.0 - r)
    probe = TournamentSpec(prize=seed_prize, csf=TullockCsf(r=r), cost=cost,
                           solver=FAST)
    gate = existence_gate(probe, grid=128)
    if gate.minimal_v_estimate is None:
        return None
    prize = gate.minimal_v_estimate * float(rng.uniform(1.1, 4.0))
    return TournamentSpec(prize=prize, csf=TullockCsf(r=r), cost=cost,
                          solver=FAST)


def _draw_probit(rng):
    beta = float(rng.choice([0.3, 0.5, 0.7]))
    width = float(rng.uniform(2.0, 8.0))
    exponent = float(rng.uniform(1.5, 4.0))
    # prize scaled so the final-stage effort sits at an interior level, then
    # the sabotage cost tuned to keep sabotage a fraction of semifinal effort
    v_ref = (((1.0 - beta) / 2.0) ** ((1.0 - beta) / beta)
             * (2.0 * width / beta) ** (1.0 / beta))
    csf = ProbitUniformCsf(half_width=width, f_exponent=beta)
    b_star = (beta * v_ref / (2.0 * width)) ** (1.0 / (1.0 - beta))
    continue_value = v_ref / 2.0 - b_star
    b_ref = (beta * continue_value / (2.0 * width)) ** (1.0 / (1.0 - beta))
    share = float(rng.uniform(0.25, 0.55))
    s_target = share * b_ref * (1.0 - beta) / beta
    divisor = exponent * s_target ** (exponent - 1.0)
    return TournamentSpec(prize=v_ref, csf=csf,
                          cost=PowerCost(exponent, divisor), solver=FAST)


def test_dove_advantage_across_parameter_grid():
    started = time.perf_counter()
    rng = np.random.default_rng(20260816)
    accepted = 0
    attempts = 0
    while accepted < 200:
        attempts += 1
        assert attempts <= 1200, f"only {accepted} admissible sets found"
        draw = _draw_tullock(rng) if attempts % 2 else _draw_probit(rng)
        if draw is None:
            continue
        try:
            sol = solve_tournament(draw)
        except (InteriorityError, SolverError):
            continue
        if not verify_solution(sol).interior_ok:
            continue
        accepted += 1
        match = sol.matches[0]
        label = f"{draw.csf!r} cost={draw.cost!r} prize={draw.prize:.4g}"
        assert sol.type_win_probs["D"] > 0.5, label
        assert match.effective[0] < match.effective[1], label
        assert match.hawk_advance_prob < 0.5, label
    assert time.perf_counter() - started < 120.0


def test_sabotage_unaffected_by_prize():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cost = PowerCost(float(rng.uniform(1.5, 4.0)),
                         float(rng.uniform(0.5, 30.0)))
        csf = TullockCsf(r=1.0)
        s2 = stage2_sabotage(cost)
        probe = TournamentSpec(prize=40.0 * (s2 + cost.cost(s2)), csf=csf,
                               cost=cost, solver=FAST)
        threshold = existence_gate(probe, grid=128).minimal_v_estimate
        assert threshold is not None
        levels = [solve_stage2(csf, cost, threshold * k).sabotage
                  for k in (1.1, 10.0, 1000.0)]
        assert levels[0] == levels[1] == levels[2]


def test_payoff_menu_ordering():
    rng = np.random.default_rng(11)
    costs = [PowerCost(3.0, 12.0), PowerCost(3.0, 27.0)]
    costs += [PowerCost(float(rng.uniform(1.05, 5.0)),
                        float(rng.uniform(0.1, 50.0))) for _ in range(40)]
    csfs = [TullockCsf(r=0.5), TullockCsf(r=1.0),
            ProbitUniformCsf(half_width=5.0, f_exponent=0.5)]
    for cost in costs:
        s2 = stage2_sabotage(cost)
        assert 0.0 < cost.cost(s2) < s2
        for csf in csfs:
            for prize in (25.0, 400.0):
                menu = solve_stage2(csf, cost, prize).menu
                assert menu.ordered


def test_no_profitable_deviation_at_accepted_equilibria():
    specs = [
        RATIO_SPEC,
        NOISE_SPEC_LARGE,
        TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                       cost=PowerCost(3.0, 12.0),
                       bracket=(("H", "D"), ("H", "H"))),
        TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                       cost=PowerCost(3.0, 12.0),
                       bracket=(("H", "D"), ("D", "D"))),
    ]
    for spec in specs:
        sol = solve_tournament(spec)
        report = verify_solution(sol)
        assert report.interior_ok, (spec.bracket, report.notes)
        for key, gain in report.oracle_gains.items():
            assert gain <= 1e-6, (spec.bracket, key, gain)
        for key, gain in report.corner_gains.items():
            assert gain <= 1e-6, (spec.bracket, key, gain)

    # dropout payoff at the recorded semifinal figures: full sabotage against
    # the rival dove's gross effort buys a win worth A but costs far more
    menu = solve_stage2(RATIO_SPEC.csf, RATIO_SPEC.cost, RATIO_SPEC.prize).menu
    recorded_p = 0.466
    hawk_value, dove_value = _continuation_values(menu, recorded_p, ("H", "D"))
    dove_effective = recorded_p * (1.0 - recorded_p) * dove_value
    sabotage = RATIO_SPEC.cost.marginal_inverse(hawk_value / dove_value)
    corner_payoff = hawk_value - RATIO_SPEC.cost.cost(dove_effective + sabotage)
    assert corner_payoff == pytest.approx(-6.8, abs=0.1)


def test_simulation_matches_analytic_probabilities():
    started = time.perf_counter()
    for spec in (RATIO_SPEC, NOISE_SPEC):
        sol = solve_tournament(spec)
        for mode in ("direct", "structural"):
            config = SimConfig(trials=1_000_000, seed=42, mode=mode)
            result = simulate_tournament(sol, config)
            expected = result.type_expected["D"]
            band = 3.0 * math.sqrt(expected * (1.0 - expected) / config.trials)
            assert abs(result.type_freq["D"] - expected) <= band, (spec, mode)
            again = simulate_tournament(sol, config)
            assert again == result
    assert time.perf_counter() - started < 30.0


def test_alternative_seedings_favor_doves():
    cases = {
        (("H", "D"), ("H", "H")): (13.0 / 53.0, 27.0 / 106.0, 0.25, 0.25),
        (("H", "D"), ("D", "D")): (29.0 / 118.0, 15.0 / 59.0, 0.25, 0.25),
    }
    for bracket, expected in cases.items():
        spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                              cost=PowerCost(3.0, 12.0), bracket=bracket)
        sol = solve_tournament(spec)
        for got, want in zip(sol.win_probs, expected):
            assert got == pytest.approx(want, abs=1e-9)

        hawk_probs = [sol.win_probs[i] for i, t in enumerate(sol.types)
                      if t == "H"]
        dove_probs = [sol.win_probs[i] for i, t in enumerate(sol.types)
                      if t == "D"]
        for dove in dove_probs:
            for hawk in hawk_probs:
                assert dove > hawk

        result = simulate_tournament(sol, SimConfig(trials=1_000_000, seed=42))
        for freq, want in zip(result.freq, expected):
            band = 3.0 * math.sqrt(want * (1.0 - want) / 1_000_000)
            assert abs(freq - want) <= band, bracket


def _final_sabotage_curvature(spec):
    """Correct shortcut, quoted shortcut and audited curvature of the final.

    At the final effort b* = rv/4 the Tullock share contributes
    r v / (4 b*^2) = 4/(rv) to the sabotage curvature of the all-hawk payoff;
    the reference tables quote 1/(4rv), which is 16 times too small.
    """
    cost = spec.cost
    r, v = spec.csf.r, spec.prize
    curvature = cost.curvature(stage2_sabotage(cost))
    shortcut = 4.0 / (r * v) - curvature
    quoted = 1.0 / (4.0 * r * v) - curvature
    measured = soc_check(spec, _table(solve_tournament(spec)))["final_HH_sabotage"]
    return shortcut, quoted, measured


def test_curvature_shortcut_consistency():
    # expected values are the shortcut lines tools/independent_checks.py
    # prints in its scenario 1 block
    shortcut, quoted, measured = _final_sabotage_curvature(RATIO_SPEC)
    assert shortcut == pytest.approx(-0.95, abs=1e-9)
    assert quoted == pytest.approx(-0.996875, abs=1e-9)
    tolerance = 1e-4 * abs(shortcut)
    assert abs(measured - shortcut) <= tolerance, (
        f"curvature shortcut 4/(rv) - c'' = {shortcut} is not the measured "
        f"second difference {measured}")
    print(f"measured final-stage sabotage curvature {measured:.9f}; quoted "
          f"shortcut 1/(4rv) - c'' = {quoted}; discrepancy "
          f"{measured - quoted:+.6f}")
    assert abs(measured - quoted) > tolerance, (measured, quoted)

    # at low decisiveness and a flat cost the quoted formula reads concave
    # where the payoff is convex
    sign_flip = TournamentSpec(prize=80.0, csf=TullockCsf(r=0.25),
                               cost=PowerCost(1.5, 5.0))
    shortcut, quoted, measured = _final_sabotage_curvature(sign_flip)
    assert shortcut == pytest.approx(0.155, abs=1e-9)
    assert quoted == pytest.approx(-0.0325, abs=1e-9)
    assert abs(measured - shortcut) <= 1e-4 * abs(shortcut), (
        f"curvature shortcut 4/(rv) - c'' = {shortcut} is not the measured "
        f"second difference {measured}")
    assert quoted < 0.0 < measured, (measured, quoted)
