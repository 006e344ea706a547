"""Final-stage closed forms: base effort, sabotage and the payoff menu."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tourney import (Effort, ParameterError, PayoffMenu, PowerCost,
                     ProbitUniformCsf, SolverError, TournamentSpec, TullockCsf,
                     existence_gate, solve_tournament)
from tourney.stage2 import (_sabotage_cost, _sabotage_level, base_effort,
                            solve_stage2, stage2_sabotage)

RATIO_CSF = TullockCsf(r=1.0)
RATIO_COST = PowerCost(3.0, 12.0)
NOISE_CSF = ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
NOISE_COST = PowerCost(3.0, 27.0)

costs = st.builds(PowerCost, exponent=st.floats(1.05, 6.0),
                  divisor=st.floats(0.01, 100.0))
prizes = st.floats(0.01, 1e6)


def test_ratio_scenario_closed_forms():
    sol = solve_stage2(RATIO_CSF, RATIO_COST, 80.0)
    assert sol.base_effort == pytest.approx(20.0, rel=1e-15)
    assert sol.sabotage == pytest.approx(2.0, rel=1e-15)
    menu = sol.menu
    assert menu.dove_vs_dove == pytest.approx(20.0, rel=1e-12)
    assert menu.hawk_vs_dove == pytest.approx(58.0 / 3.0, rel=1e-12)
    assert menu.dove_vs_hawk == pytest.approx(18.0, rel=1e-12)
    assert menu.hawk_vs_hawk == pytest.approx(52.0 / 3.0, rel=1e-12)


def test_noise_scenario_closed_forms():
    sol = solve_stage2(NOISE_CSF, NOISE_COST, 20.0)
    assert sol.base_effort == pytest.approx(1.0, rel=1e-15)
    assert sol.sabotage == pytest.approx(3.0, rel=1e-15)
    assert sol.menu.dove_vs_dove == pytest.approx(9.0, rel=1e-12)
    assert sol.menu.hawk_vs_dove == pytest.approx(8.0, rel=1e-12)
    assert sol.menu.dove_vs_hawk == pytest.approx(6.0, rel=1e-12)
    assert sol.menu.hawk_vs_hawk == pytest.approx(5.0, rel=1e-12)


def test_profiles_pad_the_sabotaged_side():
    profiles = solve_stage2(RATIO_CSF, RATIO_COST, 80.0).profiles
    hawk, dove = profiles["HD"]
    assert (hawk.x, hawk.s) == (20.0, 2.0)
    assert (dove.x, dove.s) == (22.0, 0.0)
    both = profiles["HH"]
    assert both[0] == both[1]
    assert (both[0].x, both[0].s) == (22.0, 2.0)
    dd = profiles["DD"]
    assert (dd[0].x, dd[0].s) == (20.0, 0.0)
    assert set(profiles) == {"DD", "HD", "HH"}


@given(r=st.floats(0.05, 1.0), v=prizes)
def test_ratio_base_effort_formula(r, v):
    assert base_effort(TullockCsf(r=r), v) == pytest.approx(r * v / 4.0, rel=1e-12)


@given(a=st.floats(0.5, 20.0), beta=st.floats(0.1, 0.9), v=prizes)
def test_noise_base_effort_satisfies_first_order_condition(a, beta, v):
    csf = ProbitUniformCsf(half_width=a, f_exponent=beta)
    b = base_effort(csf, v)
    marginal_win = csf.noise_diff_density(0.0) * beta * b ** (beta - 1.0)
    assert marginal_win * v == pytest.approx(1.0, rel=1e-9)


def test_base_effort_rejects_nonpositive_prize():
    with pytest.raises(ParameterError):
        base_effort(RATIO_CSF, 0.0)
    with pytest.raises(ParameterError):
        base_effort(NOISE_CSF, -1.0)


def test_base_effort_overflow_is_a_solver_error():
    # (beta v / 2a)^(1/(1-beta)) leaves the float range as beta nears 1
    spec = TournamentSpec(prize=1.13e4,
                          csf=ProbitUniformCsf(half_width=0.025, f_exponent=0.986),
                          cost=NOISE_COST)
    with pytest.raises(SolverError, match="float range"):
        base_effort(spec.csf, spec.prize)
    with pytest.raises(SolverError, match="float range"):
        solve_tournament(spec)
    # every gate probe there fails cleanly instead of crashing the gate
    gate = existence_gate(spec, grid=50)
    assert not gate.interior_ok
    assert gate.minimal_v_estimate is None


def test_base_effort_quotient_overflow_is_the_same_solver_error():
    # beta v / 2a = 0.9e300 / 2e-150 is inf before the power, and Python's
    # float division returns inf where its power would raise OverflowError
    spec = TournamentSpec(prize=1e300, csf=ProbitUniformCsf(1e-150, 0.9),
                          cost=PowerCost(2.0, 1.0))
    message = ("final-stage base effort (beta v / 2a)^(1/(1-beta)) exceeds the "
               "float range at beta=0.9, a=1e-150, v=1e+300")
    for solve in (lambda: base_effort(spec.csf, spec.prize),
                  lambda: solve_stage2(spec.csf, spec.cost, spec.prize),
                  lambda: solve_tournament(spec)):
        with pytest.raises(SolverError) as excinfo:
            solve()
        assert type(excinfo.value) is SolverError
        assert str(excinfo.value) == message


@pytest.mark.parametrize("csf, v", [(RATIO_CSF, 8e201), (NOISE_CSF, 20.0)])
def test_sabotage_cost_overflow_is_a_solver_error(csf, v):
    # s = 6e200 is finite, but s**2 leaves the float range before the division
    cost = PowerCost(2.0, 1.2e201)
    with pytest.raises(SolverError, match="sabotage cost .* float range"):
        solve_stage2(csf, cost, v)
    with pytest.raises(SolverError, match="sabotage cost .* float range"):
        solve_tournament(TournamentSpec(prize=v, csf=csf, cost=cost))


def test_sabotage_overflow_is_a_solver_error():
    # (divisor/exponent)^(1/(exponent-1)) = (1e300/1.001)^1000
    cost = PowerCost(1.001, 1e300)
    with pytest.raises(SolverError, match="sabotage .* float range"):
        stage2_sabotage(cost)
    with pytest.raises(SolverError, match="sabotage .* float range"):
        solve_stage2(RATIO_CSF, cost, 80.0)


@pytest.mark.parametrize("csf, cost, v", [
    (RATIO_CSF, RATIO_COST, 80.0), (NOISE_CSF, NOISE_COST, 20.0),
    (TullockCsf(r=0.37), PowerCost(2.3, 0.7), 913.25),
    (ProbitUniformCsf(half_width=0.8, f_exponent=0.3), PowerCost(1.7, 4.1), 3.3)])
def test_solve_stage2_equals_the_validated_closed_forms_exactly(csf, cost, v):
    sol = solve_stage2(csf, cost, v)
    b, s = base_effort(csf, v), cost.marginal_inverse(1.0)
    c = cost.cost(s)
    assert (sol.base_effort, sol.sabotage) == (b, s) == (b, stage2_sabotage(cost))
    assert sol.menu == PayoffMenu(v / 2.0 - b, v / 2.0 - b - c, v / 2.0 - b - s,
                                  v / 2.0 - b - s - c)
    assert sol.profiles == {"DD": (Effort(b, 0.0),) * 2,
                            "HD": (Effort(b, s), Effort(b + s, 0.0)),
                            "HH": (Effort(b + s, s),) * 2}


def _gaps_resolvable(cost, v):
    # menu entries are O(v + s); differences below float resolution at that
    # scale cannot be asserted, only the representable regime is a theorem
    s = stage2_sabotage(cost)
    c_s = cost.cost(s)
    scale = max(1.0, v, s, c_s)
    return min(c_s, s - c_s) > 1e-9 * scale


@given(cost=costs, v=prizes)
def test_menu_is_strictly_ordered_for_any_cost(cost, v):
    assume(_gaps_resolvable(cost, v))
    menu = solve_stage2(TullockCsf(r=1.0), cost, v).menu
    assert menu.ordered


@given(cost=costs, v=prizes)
def test_menu_spreads_are_the_sabotage_quantities(cost, v):
    # being sabotaged costs the victim s, sabotaging costs the attacker c(s)
    assume(_gaps_resolvable(cost, v))
    menu = solve_stage2(TullockCsf(r=1.0), cost, v).menu
    s = stage2_sabotage(cost)
    c_s = cost.cost(s)
    slack = 1e-12 * max(1.0, v, s)
    assert menu.dove_vs_dove - menu.hawk_vs_dove == pytest.approx(c_s, abs=slack)
    assert menu.dove_vs_dove - menu.dove_vs_hawk == pytest.approx(s, abs=slack)
    assert menu.hawk_vs_dove - menu.hawk_vs_hawk == pytest.approx(s, abs=slack)


@given(cost=costs, v1=prizes, v2=prizes)
def test_sabotage_is_a_cost_property_only(cost, v1, v2):
    s1 = solve_stage2(TullockCsf(r=1.0), cost, v1).sabotage
    s2 = solve_stage2(NOISE_CSF, cost, v2).sabotage
    assert s1 == s2 == stage2_sabotage(cost)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300)
@given(exponent=st.floats(1.0, 6.0, exclude_min=True),
       divisor=st.floats(1e-30, 1e300), y=st.floats(1e-12, 1e12))
# near the float range: inf, and a finite level within e of the range
@example(exponent=1.001, divisor=1e300, y=1.0)
@example(exponent=2.0, divisor=1e300, y=1.6e8)
def test_float_closed_forms_equal_the_validated_methods(exponent, divisor, y):
    cost = PowerCost(exponent, divisor)
    with np.errstate(over="ignore"):
        level = cost.marginal_inverse(y)
    if math.isinf(level) and math.isfinite(divisor * y / exponent):
        # the power overflows.  A base m y / a that overflows by itself
        # needs y > 1, which no solve asks for, and gives inf as the method
        with pytest.raises(SolverError, match="overflows the float range"):
            _sabotage_level(cost, y)
        return
    assert _bits(_sabotage_level(cost, y)) == _bits(level)
    # the cost is Python's float ** float, libm pow, or a SolverError where
    # that power overflows
    try:
        expected = level ** exponent / divisor
    except OverflowError:
        with pytest.raises(SolverError, match="sabotage cost .* float range"):
            _sabotage_cost(cost, level)
        return
    assert _bits(_sabotage_cost(cost, level)) == _bits(expected)


def test_level_near_the_float_range_equals_the_validated_method():
    # (m y / a)^(1/(a-1)) = 8e307, within a factor e of the largest float
    cost = PowerCost(2.0, 1e300)
    level = _sabotage_level(cost, 1.6e8)
    assert np.finfo(float).max / math.e < level < math.inf
    assert _bits(level) == _bits(cost.marginal_inverse(1.6e8))


def test_public_cost_methods_still_reject_negative_inputs():
    cost = PowerCost(3.0, 12.0)
    for method in (cost.cost, cost.marginal, cost.marginal_inverse):
        with pytest.raises(ParameterError):
            method(-1.0)
        with pytest.raises(ParameterError):
            method(np.array([1.0, -1e-300]))
