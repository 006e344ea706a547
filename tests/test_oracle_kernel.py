"""The grid oracle's pruned, in-place coarse search against the plain
full-grid search it replaces, which is kept here as the reference."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourney import (PowerCost, ProbitUniformCsf, TournamentSpec, TullockCsf,
                     solve_tournament, verification)
from tourney.verification import (_DOVE_REFINE, _HAWK_REFINE, GAIN_TOLERANCE,
                                  _argmax_rows, _around, _baseline,
                                  _grid_payoff, _kept_columns, _kept_rows,
                                  _linspace_rows, _oracle, _payoff, _Table)


def _reference_2d(csf, cost, t, rows, prize, n):
    """Every hawk's full n x n coarse grid from _payoff, one problem at a
    time, then two 21 x 21 refinements around the incumbent best cell."""
    k = rows.size
    at = np.arange(k)
    x_rival = t.x_rival[rows]
    xs = np.broadcast_to(np.linspace(0.0, prize, n), (k, n))
    ss = np.array([np.linspace(0.0, top, n) for top in x_rival])
    best = np.full(k, -np.inf)
    best_x = np.zeros(k)
    best_s = np.zeros(k)
    for step in range(3):
        if step == 0:
            cells = [_argmax_rows(_payoff(csf, cost, t.frozen(rows[[r]], 2),
                                          xs[r, None, :, None], ss[r, None, None, :]))
                     for r in range(k)]
            flat, top = (np.concatenate(c) for c in zip(*cells))
        else:
            xs = _around(x_at, xs[:, 1] - xs[:, 0], prize, _HAWK_REFINE)
            ss = _around(s_at, ss[:, 1] - ss[:, 0], x_rival, _HAWK_REFINE)
            flat, top = _argmax_rows(_payoff(csf, cost, t.frozen(rows, 2),
                                             xs[:, :, None], ss[:, None, :]))
        i, j = np.divmod(flat, ss.shape[1])
        x_at, s_at = xs[at, i], ss[at, j]
        better = top > best
        best = np.where(better, top, best)
        best_x = np.where(better, x_at, best_x)
        best_s = np.where(better, s_at, best_s)
    return best, best_x, best_s


def _reference_1d(csf, cost, t, rows, prize, n):
    """Every problem's full 40 n + 1 point line from _payoff, stacked, then
    two 201-point refinements."""
    k = rows.size
    at = np.arange(k)
    frozen = t.frozen(rows, 1)
    xs = np.broadcast_to(np.linspace(0.0, prize, 40 * n + 1), (k, 40 * n + 1))
    best = np.full(k, -np.inf)
    best_x = np.zeros(k)
    for step in range(3):
        if step:
            xs = _around(x_at, xs[:, 1] - xs[:, 0], prize, _DOVE_REFINE)
        i, top = _argmax_rows(_payoff(csf, cost, frozen, xs, 0.0))
        x_at = xs[at, i]
        better = top > best
        best = np.where(better, top, best)
        best_x = np.where(better, x_at, best_x)
    return best, best_x, np.zeros(k)


def _reference_oracle(spec, t, n):
    """(best, best_x, best_s) over the table's problems."""
    found = tuple(np.empty(t.hawk.size) for _ in range(3))
    two_d = t.hawk & (t.x_rival > 0.0)
    for rows, search in ((np.flatnonzero(two_d), _reference_2d),
                         (np.flatnonzero(~two_d), _reference_1d)):
        if rows.size:
            for column, value in zip(found, search(spec.csf, spec.cost, t, rows,
                                                   spec.prize, n)):
                column[rows] = value
    return found


def _table(rows):
    """A table of the problems rows, each (hawk, value, x, s, x_rival,
    s_rival), every problem one key's."""
    cols = np.array([row[1:] for row in rows], dtype=float).T
    return _Table(tuple(f"problem{i}" for i in range(len(rows))),
                  tuple(range(len(rows))), np.array([row[0] for row in rows]),
                  *cols)


def _assert_matches_reference(spec, t, n):
    got = _oracle(spec, t, n)
    want = _reference_oracle(spec, t, n)
    for g, w in zip(got, want, strict=True):
        assert g.tolist() == w.tolist()
    # every cell of every coarse grid, not only the argmax
    xs = np.linspace(0.0, spec.prize, n)
    out = np.empty((n, n))
    for r in range(t.hawk.size):
        frozen = (t.value[r], t.x_rival[r], t.s_rival[r])
        ss = np.linspace(0.0, t.x_rival[r], n)
        want = _payoff(spec.csf, spec.cost, frozen, xs[:, None], ss)
        got = _grid_payoff(spec.csf, spec.cost._cost(ss), frozen, xs[:, None],
                           ss, out, np.empty_like(out))
        np.testing.assert_array_equal(got, want)


RATIO = TullockCsf(r=1.0)
NOISE = ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
COST = PowerCost(3.0, 12.0)
# a steep cost: two of the hawk's 50 sabotage columns are kept, and the
# coarse argmax sits in the second
STEEP = (TournamentSpec(prize=80.0,
                        csf=ProbitUniformCsf(half_width=0.01, f_exponent=0.5),
                        cost=PowerCost(4.0, 0.01)),
         _table([(True, 40.0, 16.3, 0.0, 16.5, 0.0)]), 50)


@pytest.mark.parametrize("n", [50, 128, 400])
@pytest.mark.parametrize("csf", [RATIO, TullockCsf(r=0.3), NOISE],
                         ids=["ratio", "ratio-r0.3", "noise"])
def test_edge_problems_match_the_full_grid(csf, n):
    prize = 80.0
    t = _table([
        (True, 18.35, 0.0, 1.9, 4.6, 1.9),      # hawk at the grid's low end
        (True, prize, prize, 2.0, 20.0, 2.0),   # hawk at the grid's high end
        (True, prize, 22.0, 0.0, 0.0, 0.0),     # hawk whose rival spends nothing
        (False, 19.0, 3 * prize, 0.0, 6.7, 1.9),  # dove beyond the grid
        (False, 0.0, 5.0, 0.0, 6.7, 0.0),       # nothing to win
        (True, -3.0, 1.0, 0.5, 6.7, 0.0),       # negative value, a hawk
        (False, -3.0, 0.0, 0.0, 0.0, 0.0),      # negative value, a dove
    ])
    _assert_matches_reference(TournamentSpec(prize=prize, csf=csf, cost=COST),
                              t, n)


_share = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.5))


@st.composite
def _problems(draw):
    prize = draw(st.floats(0.1, 1e3))
    if draw(st.booleans()):
        csf = TullockCsf(r=draw(st.floats(0.05, 1.0)))
    else:
        csf = ProbitUniformCsf(half_width=draw(st.floats(0.1, 50.0)),
                               f_exponent=draw(st.floats(0.05, 0.95)))
    cost = PowerCost(draw(st.floats(1.05, 4.0)), draw(st.floats(0.01, 100.0)))
    rows = draw(st.lists(st.tuples(
        st.booleans(),
        st.one_of(st.sampled_from([1.0, 0.0, -0.25]), st.floats(-0.5, 1.0)),
        _share, _share, _share, _share), min_size=1, max_size=4))
    table = _table([(hawk, v * prize, x * prize, hawk * s * prize / 4,
                     xr * prize, sr * prize / 4)
                    for hawk, v, x, s, xr, sr in rows])
    spec = TournamentSpec(prize=prize, csf=csf, cost=cost)
    return spec, table, draw(st.sampled_from([50, 128, 400]))


@settings(deadline=None, max_examples=60)
@given(_problems())
@example((TournamentSpec(prize=100.0, csf=NOISE, cost=PowerCost(3.0, 0.27)),
          _table([(True, 24.75, 1.53, 2.0, 1.53, 2.0),
                  (False, 24.85, 1.84, 0.0, 1.53, 2.0)]), 400))
@example(STEEP)
def test_pruned_oracle_equals_the_full_grid_search(problem):
    _assert_matches_reference(*problem)


@settings(deadline=None, max_examples=60)
@given(_problems())
# an infinite value makes the grid cells with p = 0 NaN: the first row's
# argmax is NaN, its running best stays -inf and it passes; the second
# row's gain is -inf - (-inf), a NaN, and it fails
@example((TournamentSpec(prize=80.0, csf=RATIO, cost=COST),
          _table([(True, math.inf, 5.0, 1.0, 6.7, 1.9)]), 50))
@example((TournamentSpec(prize=80.0, csf=RATIO, cost=COST),
          _table([(True, math.inf, 5.0, 1.0, 6.7, 1.9),
                  (True, -math.inf, 5.0, 1.0, 6.7, 1.9)]), 50))
def test_early_rejection_agrees_with_the_finished_search(problem):
    # the gate's oracle stops at the first row whose running best gains;
    # it must reject (None) exactly the tables the finished search rejects
    spec, t, n = problem
    with np.errstate(invalid="ignore"):
        best, _, _ = _oracle(spec, t, n)
        base = _baseline(spec.csf, spec.cost, t)
        early = _oracle(spec, t, n, need=base)
    gains = any(not pay - b <= GAIN_TOLERANCE
                for pay, b in zip(best.tolist(), base.tolist()))
    assert (early is None) == gains


@pytest.mark.parametrize("csf", [RATIO, NOISE], ids=["ratio", "noise"])
def test_duplicate_problems_share_one_search(csf, monkeypatch):
    # in the symmetric H-D / H-D seeding both semifinals pose the same two
    # problems: eight players' keys, six problems
    spec = TournamentSpec(prize=80.0, csf=csf, cost=COST,
                          bracket=(("H", "D"), ("H", "D")))
    sol = solve_tournament(spec)
    t = verification._table(sol)
    assert (len(t.keys), t.hawk.size) == (8, 6)
    assert t.of[:4] == (0, 1, 0, 1)
    grids = []

    def spy(csf, c, frozen, *args):
        grids.append(frozen)
        return _grid_payoff(csf, c, frozen, *args)

    monkeypatch.setattr(verification, "_grid_payoff", spy)
    report = verification.verify_solution(sol, grid=50)
    # one coarse grid per distinct problem, the doves' lines first
    two_d = (t.hawk & (t.x_rival > 0.0)).tolist()
    order = [p for p in range(6) if not two_d[p]] + [p for p in range(6) if two_d[p]]
    assert grids == [(t.value[p], t.x_rival[p], t.s_rival[p]) for p in order]
    for entries in (report.oracle_gains, report.oracle_argmax):
        assert entries["semifinal0_player0"] == entries["semifinal1_player0"]
        assert entries["semifinal0_player1"] == entries["semifinal1_player1"]


@pytest.mark.parametrize("points", [50, 128, 400, 5121])
def test_linspace_rows_equal_np_linspace(points):
    # the hawks' sabotage grids start at 0, the refinement grids anywhere
    rng = np.random.default_rng(points)
    lo = np.concatenate([np.zeros(1000), 10.0 ** rng.uniform(-300, 300, 1000)])
    hi = lo + 10.0 ** rng.uniform(-300, 300, 2000)
    want = np.array([np.linspace(a, b, points) for a, b in zip(lo, hi)])
    np.testing.assert_array_equal(_linspace_rows(lo, hi, points), want)


def test_kept_rows_never_cut_at_or_above_the_floor():
    xs = np.linspace(0.0, 80.0, 128)
    top = 30.0
    bounds = top - xs
    for row in (0, 5, 37, 127):
        # the row whose bound equals the floor is kept, the next is not
        assert _kept_rows(top, xs, bounds[row]) == row + 1
    assert _kept_rows(top, xs, -math.inf) == xs.size
    assert _kept_rows(top, xs, math.inf) == 0


def test_nan_floor_keeps_every_row():
    xs = np.linspace(0.0, 80.0, 5121)
    for top in (0.0, 30.0, math.nan):
        assert _kept_rows(top, xs, math.nan) == xs.size


def _kept_rows_by_bisection(top, xs, floor):
    """The bisection _kept_rows replaced: the first outlay whose bound
    fl(top - x) is below floor, found through a key over numpy scalars."""
    return bisect.bisect_left(xs, True, key=lambda x: top - x < floor)


_special = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _kept_rows_cases(draw):
    points = draw(st.sampled_from([128, 5121]))
    xs = np.linspace(0.0, draw(st.floats(1e-300, 1e300)), points)
    scaled = st.floats(-2.0, 2.0).map(lambda u: u * xs[-1])
    top = draw(st.one_of(_special, scaled))
    # a floor equal to some outlay's bound is an exact tie
    floor = draw(st.one_of(_special, scaled, st.integers(0, points - 1).map(
        lambda i: float(top - xs[i]))))
    return top, xs, floor


@settings(deadline=None, max_examples=300)
@given(_kept_rows_cases())
def test_kept_rows_count_equals_the_bisection(case):
    assert _kept_rows(*case) == _kept_rows_by_bisection(*case)


def test_kept_columns_never_cut_at_or_above_the_floor():
    c = COST._cost(np.linspace(0.0, 6.7, 128))
    top = 30.0
    bounds = top - c
    assert (np.diff(bounds) < 0.0).all()
    for column in (0, 5, 37, 127):
        # the column whose bound equals the floor is kept, the next is not
        assert _kept_columns(top, c, bounds[column]) == column + 1
    assert _kept_columns(top, c, -math.inf) == c.size
    assert _kept_columns(top, c, math.inf) == 0


def test_nan_floor_keeps_every_column_and_an_infinite_cost_is_cut():
    c = np.array([0.0, 1.0, 2.0, math.inf])
    for top in (0.0, 30.0):
        assert _kept_columns(top, c, math.nan) == c.size
    assert _kept_columns(30.0, c, 0.0) == 3
    assert _kept_columns(30.0, np.array([0.0, math.inf, 1.0]), 0.0) == 3


def test_cost_row_need_not_be_monotone():
    # bounds 30, 25, 29, -10, 28, -20, -30 against the floor 25: the kept
    # columns are 0, 1, 2 and 4, and the cut falls after the last of them
    c = np.array([0.0, 5.0, 1.0, 40.0, 2.0, 50.0, 60.0])
    assert _kept_columns(30.0, c, 25.0) == 5
    assert _kept_columns(30.0, c[:4], 25.0) == 3


def _kept_columns_by_scan(top, c, floor):
    """One past the last sabotage level whose bound fl(top - c) is not
    below floor, found by a scan over Python floats."""
    return max((j + 1 for j, cost in enumerate(c.tolist())
                if not top - cost < floor), default=0)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(_special, st.floats(0.0, 1e3)), min_size=1,
                max_size=60),
       st.one_of(_special, st.floats(-1e3, 1e3)),
       st.one_of(_special, st.floats(-1e3, 1e3)))
def test_kept_columns_equal_the_scan(costs, top, floor):
    c = np.array(costs)
    with np.errstate(invalid="ignore"):
        assert _kept_columns(top, c, floor) == _kept_columns_by_scan(top, c, floor)


def test_steep_cost_evaluates_the_kept_columns_only(monkeypatch):
    spec, t, n = STEEP
    frozen = (t.value[0], t.x_rival[0], t.s_rival[0])
    xs = np.linspace(0.0, spec.prize, n)
    ss = np.linspace(0.0, t.x_rival[0], n)
    pay = _payoff(spec.csf, spec.cost, frozen, xs[:, None], ss)
    # the grid's own maximum is the highest floor: two columns reach it,
    # and the first argmax is in the second
    assert _kept_columns(t.value[0], spec.cost._cost(ss), pay.max()) == 2
    assert pay.argmax() % n == 1
    shapes = []

    def spy(csf, c, frozen, x, s, out, tmp):
        shapes.append(out.shape)
        # the kernel reads the cost row of exactly its kept sabotage levels
        np.testing.assert_array_equal(c, spec.cost._cost(s))
        return _grid_payoff(csf, c, frozen, x, s, out, tmp)

    monkeypatch.setattr(verification, "_grid_payoff", spy)
    _assert_matches_reference(*STEEP)
    assert shapes[0][1] == 2


@pytest.mark.parametrize("r", [1.0, 0.3])
@pytest.mark.parametrize("xs, ss, frozen", [
    # every row has zero own power, the last column zero rival power
    (np.linspace(0.0, 80.0, 50), np.linspace(0.0, 6.7, 50), (20.0, 6.7, 90.0)),
    # the one column has zero rival power, rows up to s_rival zero own power
    (np.linspace(0.0, 80.0, 50), np.zeros(1), (20.0, 0.0, 10.0)),
    # both: every cell is a tie
    (np.linspace(0.0, 80.0, 50), np.zeros(1), (20.0, 0.0, 90.0)),
    # neither: no zero power anywhere
    (np.linspace(5.0, 80.0, 50), np.linspace(0.0, 3.0, 50), (20.0, 6.7, 1.9)),
], ids=["zero-own-rows", "zero-rival-column", "both", "neither"])
def test_tie_cells_match_the_payoff(r, xs, ss, frozen):
    csf = TullockCsf(r=r)
    out = np.empty((xs.size, ss.size))
    got = _grid_payoff(csf, COST._cost(ss), frozen, xs[:, None], ss, out,
                       np.empty_like(out))
    np.testing.assert_array_equal(got, _payoff(csf, COST, frozen, xs[:, None], ss))
