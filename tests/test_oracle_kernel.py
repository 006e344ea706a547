"""The grid oracle's pruned, in-place coarse search against the plain
full-grid search it replaces, which is kept here as the reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourney import PowerCost, ProbitUniformCsf, TournamentSpec, TullockCsf
from tourney.verification import (_DOVE_REFINE, _HAWK_REFINE, OracleResult,
                                  _argmax_rows, _around, _baseline,
                                  _grid_payoff, _kept_rows, _oracle, _payoff,
                                  _Table)


def _reference_2d(csf, cost, t, prize, n):
    """Every hawk's full n x n coarse grid from _payoff, one problem at a
    time, then two 21 x 21 refinements around the incumbent best cell."""
    k = len(t.keys)
    at = np.arange(k)
    xs = np.broadcast_to(np.linspace(0.0, prize, n), (k, n))
    ss = np.array([np.linspace(0.0, top, n) for top in t.x_rival])
    best = np.full(k, -np.inf)
    best_x = np.zeros(k)
    best_s = np.zeros(k)
    for step in range(3):
        if step == 0:
            cells = [_argmax_rows(_payoff(csf, cost, t.frozen([r], 2),
                                          xs[r, None, :, None], ss[r, None, None, :]))
                     for r in range(k)]
            flat, top = (np.concatenate(c) for c in zip(*cells))
        else:
            xs = _around(x_at, xs[:, 1] - xs[:, 0], prize, _HAWK_REFINE)
            ss = _around(s_at, ss[:, 1] - ss[:, 0], t.x_rival, _HAWK_REFINE)
            flat, top = _argmax_rows(_payoff(csf, cost, t.frozen(at, 2),
                                             xs[:, :, None], ss[:, None, :]))
        i, j = np.divmod(flat, ss.shape[1])
        x_at, s_at = xs[at, i], ss[at, j]
        better = top > best
        best = np.where(better, top, best)
        best_x = np.where(better, x_at, best_x)
        best_s = np.where(better, s_at, best_s)
    return best, best_x, best_s


def _reference_1d(csf, cost, t, prize, n):
    """Every problem's full 40 n + 1 point line from _payoff, stacked, then
    two 201-point refinements."""
    k = len(t.keys)
    at = np.arange(k)
    frozen = t.frozen(at, 1)
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
    best = np.empty(len(t.keys))
    best_x = np.empty(len(t.keys))
    best_s = np.empty(len(t.keys))
    two_d = t.hawk & (t.x_rival > 0.0)
    for rows, search in ((np.flatnonzero(two_d), _reference_2d),
                         (np.flatnonzero(~two_d), _reference_1d)):
        if rows.size:
            best[rows], best_x[rows], best_s[rows] = search(
                spec.csf, spec.cost, t.take(rows), spec.prize, n)
    base = _baseline(spec.csf, spec.cost, t)
    return [OracleResult(pay - b, x, s, pay, b) for pay, b, x, s in zip(
        best.tolist(), base.tolist(), best_x.tolist(), best_s.tolist())]


def _table(rows):
    """rows of (hawk, value, x, s, x_rival, s_rival)."""
    cols = np.array([row[1:] for row in rows], dtype=float).T
    return _Table(tuple(f"problem{i}" for i in range(len(rows))),
                  np.array([row[0] for row in rows]), *cols)


def _assert_matches_reference(spec, t, n):
    got = _oracle(spec, t, n)
    want = _reference_oracle(spec, t, n)
    for g, w in zip(got, want):
        assert (g.gain, g.best_x, g.best_s) == (w.gain, w.best_x, w.best_s)
        assert (g.best_payoff, g.baseline) == (w.best_payoff, w.baseline)
    # every cell of every coarse grid, not only the argmax
    xs = np.linspace(0.0, spec.prize, n)
    out = np.empty((n, n))
    for r in range(len(t.keys)):
        frozen = (t.value[r], t.x_rival[r], t.s_rival[r])
        ss = np.linspace(0.0, t.x_rival[r], n)
        want = _payoff(spec.csf, spec.cost, frozen, xs[:, None], ss)
        got = _grid_payoff(spec.csf, spec.cost, frozen, xs[:, None], ss,
                           out, np.empty_like(out))
        np.testing.assert_array_equal(got, want)


RATIO = TullockCsf(r=1.0)
NOISE = ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
COST = PowerCost(3.0, 12.0)


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
def test_pruned_oracle_equals_the_full_grid_search(problem):
    _assert_matches_reference(*problem)


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
