"""Global scrutiny of interior equilibrium candidates.

The solvers hand back stationary points.  Stationarity is cheap; what makes
a candidate an equilibrium is that nobody gains from any feasible move,
including the rough ones a derivative never sees: dropping out entirely,
burning the whole budget on sabotage, or jumping past the kink where the
rival's effective effort hits zero.  This module checks all of it.

Every player's unilateral problem is reduced to the same primitive: pick a
productive outlay x and (hawks only) a sabotage level s against a frozen
opponent, collect p * value - cost(s) - x.  On top of that one primitive
sit four layers:

* analytic first-order residuals,
* finite-difference second-order curvature,
* a closed-form bound for the full-sabotage corner,
* a brute-force grid oracle with local refinement.

Identical players face identical problems: both players of a same-type
semifinal, both semifinals of a symmetric seeding, both roles of a
symmetric final.  The table of problems holds each distinct problem once
and maps every player's key to its row, so every layer measures each
problem once, and one expansion step keys the results per player for the
report.

The table holds Python floats, at most eight problems.  At that size
numpy's per-call cost outweighs the arithmetic, so the cheap layers (the
baseline payoffs, the corner bound, first and second order) run on the
floats through the primitives' float kernels, which give the array
kernels' bits wherever numpy's power is libm pow.  The first-order layer
prices the hawks' sabotage with one validated `PowerCost.marginal` call
on an array.  The oracle turns the table into arrays once and runs on
them.

The oracle runs one search per problem: a coarse grid of outlays
crossed with sabotage levels, then two refinements around the best cell.  A
hawk against a positive rival outlay crosses n outlays with n sabotage
levels and refines on 21 x 21 cells.  A dove, or a hawk whose rival spends
nothing, crosses 40 n + 1 outlays with one zero-sabotage column, which is
never refined, and refines on 201 outlays.  Every grid the oracle touches
goes through one in-place kernel, _grid_payoff, which has the CSF write
its win probability in place (_win_prob_into), so this module holds no
CSF arithmetic: each search's floor rows and both refinements, stacked
over its problems, and each problem's coarse grid, the bulk, in two
buffers that every problem of a search reuses.  Outlays whose payoff bound
max(value, 0) - x is below a payoff the grid attains are skipped, since
they cannot hold the argmax, and so are the sabotage levels past the last
one whose bound max(value, 0) - c(s) reaches that payoff.  One cut, _kept,
finds both from the last kept entry; it reads the cost row numpy computes,
once per search, and needs no monotone cost.  Every reported number is the
one the full grid gives.

A candidate is accepted only when every layer comes back clean, and one
gain test, _gains, decides for the corner bound, the oracle and the gate.
The existence gate then maps out the smallest prize for which that
happens, which is genuinely useful under the noise CSF: bounded noise lets
weak players free-ride on luck, so admissibility can vanish even where the
interior formulas still produce numbers.  One sequence, _layers, runs the
layers in one order for both the report and the gate's probes: the
semifinal payoff signs and the menu order, the corner bound, first order,
second order, then the oracle, cheapest and likeliest to fail first.  The
report drains it and lists the notes in its own order; a probe needs only
the verdict, so it stops at the first failing layer, and its oracle stops
at the first problem whose running best already gains more than the
tolerance; the finished search would report that gain too.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import InteriorityError, ParameterError, SolverError
# effective_effort is unused here, but perfbench's tracer patches it by
# this module's name
from .primitives import HAWK, TullockCsf, effective_effort  # noqa: F401
from .stage1 import (_REACHABLE_PAIRINGS, SpeSolution, TournamentSpec,
                     solve_tournament)
from .stage2 import _record

FOC_TOLERANCE = 1e-8
GAIN_TOLERANCE = 1e-6
_SOC_STEP = 1e-5
_HAWK_REFINE = 21
_DOVE_REFINE = 201


@_record
class _Table:
    """Every distinct unilateral choice problem at the candidate, one row
    each: pick an outlay x and (hawks only) a sabotage level s against the
    frozen rival outlay (x_rival, s_rival) and collect p * value - c(s) - x.
    keys are the report's keys in order, and of[i] is the row of keys[i]'s
    problem: players with identical data share one row.  Each column is a
    tuple with one Python float (a bool for hawk) per row."""

    keys: tuple[str, ...]
    of: tuple[int, ...]
    hawk: tuple[bool, ...]
    value: tuple[float, ...]
    x: tuple[float, ...]
    s: tuple[float, ...]
    x_rival: tuple[float, ...]
    s_rival: tuple[float, ...]


def _table(solution: SpeSolution) -> _Table:
    """The candidate's choice problems, one row per distinct
    (hawk, value, x, s, x_rival, s_rival), first occurrence first."""
    rows = []
    for mi, match in enumerate(solution.matches):
        for slot in (0, 1):
            own, rival = match.efforts[slot], match.efforts[1 - slot]
            rows.append((f"semifinal{mi}_player{slot}", match.types[slot],
                         match.values[slot], own.x, own.s, rival.x, rival.s))
    profiles = solution.stage2.profiles
    for pairing in _REACHABLE_PAIRINGS[solution.spec.bracket]:
        efforts = profiles[pairing]
        if pairing == "HD":
            roles = ((0, "final_HD_hawk"), (1, "final_HD_dove"))
        else:
            # symmetric pairing, one role stands for both
            roles = ((0, f"final_{pairing}"),)
        for role, key in roles:
            own, rival = efforts[role], efforts[1 - role]
            rows.append((key, pairing[role], solution.spec.prize,
                         own.x, own.s, rival.x, rival.s))
    index: dict[tuple, int] = {}
    of = tuple(index.setdefault((row[1] == HAWK, *row[2:]), len(index))
               for row in rows)
    for p, problem in enumerate(index):
        if not (all(map(math.isfinite, problem[1:])) and min(problem[2:]) >= 0.0):
            row = rows[of.index(p)]
            raise ParameterError(
                f"choice problem {row[0]} needs a finite value and finite, "
                f"nonnegative efforts, got {row[2:]}")
    hawk, *cols = zip(*index)
    return _Table(tuple(row[0] for row in rows), of, hawk,
                  *(tuple(map(float, col)) for col in cols))


def _payoff_float(csf, cost, frozen, x: float, s: float) -> float:
    """The deviation payoff p * value - c(s) - x against the frozen rival
    on Python floats, with _grid_payoff's bits wherever numpy's power is
    libm pow; a huge outlay's cost is inf, a payoff the gain tests read."""
    value, x_rival, s_rival = frozen
    bo, br = x - s_rival, x_rival - s
    # np.maximum(0.0, b), as no effective effort is NaN
    p = csf._win_prob_float(bo if bo > 0.0 else 0.0, br if br > 0.0 else 0.0)
    return p * value - cost._cost_float(s) - x


def _frozen(t: _Table) -> list[tuple[float, float, float]]:
    """Every problem's (value, x_rival, s_rival)."""
    return list(zip(t.value, t.x_rival, t.s_rival))


def _baseline(csf, cost, t: _Table) -> list[float]:
    return [_payoff_float(csf, cost, frozen, x, s)
            for frozen, x, s in zip(_frozen(t), t.x, t.s)]


def _expand(t: _Table, values: list, rows=None) -> dict:
    """Per-problem values keyed by the report's keys in order: values[i]
    belongs to problem rows[i] (to problem i when rows is None), and a key
    whose problem has no value is left out."""
    entry = dict(zip(range(len(values)) if rows is None else rows, values))
    return {key: entry[p] for key, p in zip(t.keys, t.of) if p in entry}


def _hawks(t: _Table) -> list[int]:
    return [p for p, hawk in enumerate(t.hawk) if hawk]


def _per_coordinate(t: _Table, effort: list, sabotage: list) -> dict[str, float]:
    """Entries keyed in report order: each key's effort, then its sabotage
    when it is a hawk (`sabotage` holds the hawk problems only)."""
    sabotage = _expand(t, sabotage, _hawks(t))
    out = {}
    for key, value in _expand(t, effort).items():
        out[key + "_effort"] = value
        if key in sabotage:
            out[key + "_sabotage"] = sabotage[key]
    return out


def _grid_size(spec: TournamentSpec, grid) -> int:
    """The oracle grid: the spec's setting, or an override that
    SolverSettings accepts as its oracle_grid."""
    if grid is None:
        return spec.solver.oracle_grid
    return replace(spec.solver, oracle_grid=grid).oracle_grid


# ----------------------------------------------------------------------
# First and second order conditions.
# ----------------------------------------------------------------------

def foc_residuals(spec: TournamentSpec, t: _Table) -> dict[str, float]:
    """Analytic stationarity residuals for every choice variable of the
    table, keyed per player.

    Each productive entry is d(win prob)/d(own effort) * value - 1, each
    sabotage entry is the marginal win-probability gain from weakening the
    rival minus the marginal sabotage cost.  All vanish at an interior
    candidate.
    """
    hawks = _hawks(t)
    marginal = spec.cost.marginal(np.array([t.s[p] for p in hawks])).tolist()
    # a zero effective effort has no finite partial: its residual comes out
    # inf or NaN, which the first-order test rejects
    partials = []
    for x, s, x_rival, s_rival in zip(t.x, t.s, t.x_rival, t.s_rival):
        bo, br = x - s_rival, x_rival - s
        partials.append(spec.csf._partials_float(bo if bo > 0.0 else 0.0,
                                                 br if br > 0.0 else 0.0))
    return _per_coordinate(
        t, [d_own * value - 1.0 for (d_own, _), value in zip(partials, t.value)],
        [-partials[p][1] * t.value[p] - m for p, m in zip(hawks, marginal)])


def soc_check(spec: TournamentSpec, t: _Table) -> dict[str, float]:
    """Finite-difference own-second-partials of every payoff of the table
    at the candidate, keyed per player.

    Negative values mean the stationary point is a local maximum along that
    coordinate.  The step is absolute-floored so that curvature is measured
    at a scale deviations actually live on, not lost to round-off.
    """
    csf, cost = spec.csf, spec.cost

    def curvature(frozen, x: float, s: float, on_x: bool) -> float:
        z = x if on_x else s
        h = _SOC_STEP * abs(z)
        h = h if h >= _SOC_STEP else _SOC_STEP
        # one-sided stencil for coordinates too close to the boundary
        stencil = (z, z + h, z + 2.0 * h) if z - h < 0.0 else (z - h, z, z + h)
        pay = ([_payoff_float(csf, cost, frozen, u, s) for u in stencil] if on_x
               else [_payoff_float(csf, cost, frozen, x, u) for u in stencil])
        return (pay[2] - 2.0 * pay[1] + pay[0]) / (h * h)

    # one three-point stencil per coordinate: productive effort for every
    # row, then sabotage for the hawk rows.  At huge outlays the cost and
    # h * h overflow to inf, and a payoff of -inf at the candidate itself
    # leaves a NaN curvature; the curvature test reads either as it reads
    # any other number
    frozen = _frozen(t)
    return _per_coordinate(
        t, [curvature(*problem, True) for problem in zip(frozen, t.x, t.s)],
        [curvature(frozen[p], t.x[p], t.s[p], False) for p in _hawks(t)])


# ----------------------------------------------------------------------
# Corner bound and grid oracle.
# ----------------------------------------------------------------------

def _corner(spec: TournamentSpec, t: _Table, base: list[float]) -> dict[str, float]:
    """Every hawk's corner gain over its baseline, keyed per player; base
    holds the baselines of all problems."""
    # wiping out the rival's entire outlay and entering with token effort
    # wins outright under the ratio CSF and a coin flip under bounded noise
    rows = _hawks(t)
    p_corner = 1.0 if isinstance(spec.csf, TullockCsf) else 0.5
    # a baseline of -inf, where the candidate's own cost overflows, leaves a
    # NaN gain, which the gain test refuses as it refuses a positive one
    return _expand(t, [p_corner * t.value[p] - spec.cost._cost_float(t.x_rival[p])
                       - base[p] for p in rows], rows)


def _linspace_rows(lo: np.ndarray, hi, points: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], points) for every row i, rounded as
    np.linspace rounds a single row whose step does not underflow to 0."""
    grid = np.arange(points) * ((hi - lo) / (points - 1))[:, None] + lo[:, None]
    grid[:, -1] = hi
    return grid


def _around(center: np.ndarray, cell: np.ndarray, hi, points: int) -> np.ndarray:
    """Refinement grids spanning one coarse cell either side of each center,
    clipped to [0, hi]."""
    return _linspace_rows(np.maximum(0.0, center - cell),
                          np.minimum(hi, center + cell), points)


def _grid_payoff(csf, c, frozen, x, s, out, tmp):
    """The deviation payoff p * value - c - x against the frozen rival
    (value, x_rival, s_rival), for nonnegative outlays x and sabotage
    levels s with their costs c, written into out (the broadcast shape)
    with tmp as scratch, and returned.  The CSF's _win_prob_into writes
    the win probability in place, so no float temporary has the grid's
    size.  Every grid the oracle evaluates goes through here: a problem's
    coarse block (x a column, s and c rows, frozen three floats) and a
    search's stacked floor rows and refinements (problems on a leading
    axis, frozen three k x 1 x 1 arrays)."""
    value, x_rival, s_rival = frozen
    csf._win_prob_into(np.maximum(0.0, x - s_rival), np.maximum(0.0, x_rival - s),
                       out, tmp)
    np.multiply(out, value, out=out)
    np.subtract(out, c, out=out)
    return np.subtract(out, x, out=out)


def _stacked(csf, c: np.ndarray, frozen: np.ndarray, xs: np.ndarray,
             ss: np.ndarray) -> np.ndarray:
    """Each problem i's grid xs[i] x ss[i] with the cost rows c[i] and the
    i-th (value, x_rival, s_rival) column of frozen, one flat row per
    problem."""
    out = np.empty((len(xs), xs.shape[1], ss.shape[1]))
    return _grid_payoff(csf, c[:, None, :], frozen[:, :, None, None], xs[:, :, None],
                        ss[:, None, :], out, np.empty_like(out)).reshape(len(xs), -1)


def _kept(top: float, c: np.ndarray, floor: float) -> int:
    """How many leading entries of c reach the last one that leaves a
    payoff bound fl(top - c) not below floor (all of them for a NaN floor).
    The cut is found from the last such entry, not by a count, so it
    stays exact where c is not monotone, as a computed cost row need not
    be; on the ascending outlays, whose bound never rises, it is the count
    of the kept prefix."""
    kept = ~(top - c < floor)
    return c.size - int(kept[::-1].argmax()) if kept.any() else 0


def _gains(gain: float) -> bool:
    """Whether a deviation gains more than GAIN_TOLERANCE (a NaN gain does):
    the one gain test of the corner and oracle notes and of the gate's
    running bests.  A running best never falls and fl(best - base) is
    monotone in best, so once a running best gains, the finished search
    reports a gain as well."""
    return not gain <= GAIN_TOLERANCE


def _coarse(csf, c: np.ndarray, x: np.ndarray, frozen: np.ndarray,
            xs: np.ndarray, ss: np.ndarray, need=None):
    """Each problem's first flat argmax over the grid xs x ss[i], for the
    i-th problem of the outlays x, the (value, x_rival, s_rival) rows of
    frozen and the cost rows c of ss, and the payoff there (a list of
    floats), computed in two buffers that every problem reuses.  With need
    (their baselines), it returns None as soon as a problem _gains.

    Only cells that can hold the argmax are evaluated.  The grid rows
    nearest the candidates' own outlays go first, stacked: each maximum is
    a floor its grid attains.  Every payoff has p <= 1, x >= 0 and
    c(s) >= 0, and rounding is monotone, so a payoff at outlay x and
    sabotage level s is at most fl(max(value, 0) - x) and at most
    fl(max(value, 0) - c(s)).  A grid row or column whose bound is below
    the floor lies strictly below the grid maximum and can neither be nor
    tie the first argmax.  One cut, _kept, drops the rows and the columns
    past the last whose bound reaches the floor; it reads the cost row
    itself, so it needs no monotone cost and is exact whatever numpy's **
    rounds.  The kept rows by kept columns are one contiguous slice of the
    buffers, and the argmax maps back to the full grid's flat index.
    """
    nearest = np.minimum(np.searchsorted(xs, x), xs.size - 1)
    floor = _stacked(csf, c, frozen, xs[nearest, None], ss).max(axis=1).tolist()
    m = ss.shape[1]
    out = np.empty(xs.size * m)
    tmp = np.empty_like(out)
    col = xs[:, None]
    flat, top = [], []
    for i, (problem, s, c_i, low) in enumerate(zip(zip(*frozen.tolist()), ss, c, floor)):
        bound = max(problem[0], 0.0)
        kept = _kept(bound, xs, low)
        width = _kept(bound, c_i, low)
        size = kept * width
        pay = _grid_payoff(csf, c_i[:width], problem, col[:kept], s[:width],
                           out[:size].reshape(kept, width),
                           tmp[:size].reshape(kept, width)).reshape(-1)
        cell = int(pay.argmax())
        flat.append(cell // width * m + cell % width)
        top.append(float(pay[cell]))
        if need is not None:
            # the running best the search makes of the top: a NaN never
            # replaces the initial -inf
            running = top[-1] if top[-1] > -math.inf else -math.inf
            if _gains(running - need[i]):
                return None
    return np.array(flat), top


def _search(csf, cost, x: np.ndarray, frozen: np.ndarray, prize: float, n: int,
            two_d: bool, need=None):
    """The best deviation of each problem, given by its outlay x and its
    (value, x_rival, s_rival) row of frozen, as (payoff, x, s) lists.  With
    two_d (hawks against a positive rival outlay): an n x n grid of
    productive effort on [0, prize] crossed with sabotage on [0, x_rival],
    then two 21 x 21 refinements around the incumbent best cell.  Otherwise
    (doves, and hawks whose rival spends nothing): 40 n + 1 outlays against
    one zero-sabotage column, which is never refined, then two 201-point
    refinements.  With need (their baselines), it returns None as soon as a
    problem's running best _gains."""
    k = x.size
    at = np.arange(k)
    x_rival = frozen[1]
    if two_d:
        xs = np.linspace(0.0, prize, n)
        ss = _linspace_rows(np.zeros(k), x_rival, n)
        cell_s = ss[:, 1] - ss[:, 0]
        points = _HAWK_REFINE
    else:
        xs = np.linspace(0.0, prize, 40 * n + 1)
        ss = np.zeros((k, 1))
        points = _DOVE_REFINE
    cell_x = xs[1] - xs[0]
    c = cost._cost(ss)
    best, best_x, best_s = [-math.inf] * k, [0.0] * k, [0.0] * k
    for step in range(3):
        if step == 0:
            # one problem at a time, so that memory holds one coarse grid
            # (and its scratch) and not k of them
            coarse = _coarse(csf, c, x, frozen, xs, ss, need)
            if coarse is None:
                return None
            flat, top = coarse
            i, j = np.divmod(flat, ss.shape[1])
            x_at, s_at = xs[i], ss[at, j]
        else:
            xs = _around(x_at, cell_x, prize, points)
            cell_x = xs[:, 1] - xs[:, 0]
            if two_d:
                ss = _around(s_at, cell_s, x_rival, points)
                cell_s = ss[:, 1] - ss[:, 0]
                c = cost._cost(ss)
            pay = _stacked(csf, c, frozen, xs, ss)
            flat = pay.argmax(axis=1)
            top = pay[at, flat].tolist()
            i, j = np.divmod(flat, ss.shape[1])
            x_at, s_at = xs[at, i], ss[at, j]
        # a NaN top never replaces the running best
        for p, found in enumerate(zip(top, x_at.tolist(), s_at.tolist())):
            if found[0] > best[p]:
                best[p], best_x[p], best_s[p] = found
        if need is not None and any(_gains(run - b) for run, b in zip(best, need)):
            return None
    return best, best_x, best_s


def _oracle(spec: TournamentSpec, t: _Table, n: int, need: list[float] | None = None):
    """Grid-search every problem's deviation space once: the best payoff
    and its (x, s), as (best, best_x, best_s) lists over the problems.

    With need (the problems' baselines) the call returns None as soon as
    one problem's running best gains more than GAIN_TOLERANCE, which the
    finished search would report too.  The doves' lines, the cheapest
    search and the likeliest to find a gain, run first.  The table's
    columns become arrays once, here.
    """
    two_d = [hawk and x_rival > 0.0 for hawk, x_rival in zip(t.hawk, t.x_rival)]
    x = np.array(t.x)
    frozen = np.array((t.value, t.x_rival, t.s_rival))
    found = [[0.0] * len(two_d) for _ in range(3)]
    # a huge outlay's cost overflows to inf, a payoff the gain tests read
    with np.errstate(over="ignore"):
        for hawks in (False, True):
            rows = [p for p, d in enumerate(two_d) if d == hawks]
            if rows:
                got = _search(spec.csf, spec.cost, x[rows], frozen[:, rows], spec.prize,
                              n, hawks, None if need is None else [need[p] for p in rows])
                if got is None:
                    return None
                for column, values in zip(found, got):
                    for p, value in zip(rows, values):
                        column[p] = value
    return tuple(found)


# ----------------------------------------------------------------------
# The verdict.
# ----------------------------------------------------------------------

@_record
class VerificationReport:
    """Everything measured about one candidate, plus the verdict."""

    foc_residuals: dict[str, float]
    soc_values: dict[str, float]
    corner_gains: dict[str, float]
    oracle_gains: dict[str, float]
    oracle_argmax: dict[str, tuple[float, float]]
    interior_ok: bool
    notes: tuple[str, ...]


# Each failure test is written so that a NaN fails it.

def _foc_notes(foc) -> list[str]:
    return [f"first-order residual {key} is {value:.3e}"
            for key, value in foc.items() if not abs(value) <= FOC_TOLERANCE]


def _soc_notes(soc) -> list[str]:
    return [f"second-order curvature {key} is {value:.6g}, not negative"
            for key, value in soc.items() if not value < 0.0]


def _corner_notes(corner) -> list[str]:
    return [f"corner deviation {key} gains {value:.6g}"
            for key, value in corner.items() if _gains(value)]


def _oracle_notes(gains, argmax) -> list[str]:
    return [f"oracle deviation {key} gains {value:.6g} at "
            f"x={argmax[key][0]:.6g}, s={argmax[key][1]:.6g}"
            for key, value in gains.items() if _gains(value)]


def _stage_notes(solution: SpeSolution) -> list[str]:
    notes = [f"semifinal{mi}_player{slot} expects negative payoff "
             f"{match.payoffs[slot]:.6g}"
             for mi, match in enumerate(solution.matches) for slot in (0, 1)
             if not match.payoffs[slot] >= 0.0]
    if not solution.stage2.menu.ordered:
        notes.append("final-stage payoff menu is not strictly ordered")
    return notes


# The layers in the order the report lists their notes.
_REPORT_ORDER = ("foc", "soc", "corner", "oracle", "stage")


def _layers(solution: SpeSolution, n: int, gate: bool):
    """The audit of a candidate as (layer, report fields, notes), one layer
    at a time, in the one order both verify_solution and the gate's probe
    run them: cheapest and likeliest to fail first (stage notes, corner
    bound, FOC, SOC, then the oracle), all on one table.  With gate, the
    oracle stops at the first problem whose running best gains, and its
    layer has no fields and one failing note when it stops, none when it
    finishes.  The table is built before the first layer, so a table the
    audit refuses raises ParameterError from the first step."""
    spec = solution.spec
    t = _table(solution)
    yield "stage", {}, _stage_notes(solution)
    base = _baseline(spec.csf, spec.cost, t)
    corner = _corner(spec, t, base)
    yield "corner", {"corner_gains": corner}, _corner_notes(corner)
    foc = foc_residuals(spec, t)
    yield "foc", {"foc_residuals": foc}, _foc_notes(foc)
    soc = soc_check(spec, t)
    yield "soc", {"soc_values": soc}, _soc_notes(soc)
    found = _oracle(spec, t, n, need=base if gate else None)
    if gate:
        # the probe needs only the verdict: its search stops exactly when a
        # running best gains, which the finished search would report too
        yield "oracle", {}, ["oracle deviation gains"] if found is None else []
        return
    best, best_x, best_s = found
    gains = _expand(t, [pay - b for pay, b in zip(best, base)])
    argmax = _expand(t, list(zip(best_x, best_s)))
    yield ("oracle", {"oracle_gains": gains, "oracle_argmax": argmax},
           _oracle_notes(gains, argmax))


def verify_solution(solution: SpeSolution, *, grid: int | None = None,
                    ) -> VerificationReport:
    """Run every acceptance layer against a candidate and report honestly.

    The verdict is interior_ok only when first-order residuals are zero to
    tolerance, every own-coordinate curvature is strictly negative, no
    corner deviation pays, the grid oracle finds no profitable move for
    anyone, semifinal payoffs are nonnegative and the final-stage menu is
    strictly ordered.  Notes name each failure, layer by layer in that
    order.  grid, when given, replaces the spec's oracle_grid.
    """
    fields, notes = {}, {}
    # the loop files each layer's notes under its name as it unpacks them
    for layer, values, notes[layer] in _layers(
            solution, _grid_size(solution.spec, grid), gate=False):
        fields.update(values)
    notes = [note for layer in _REPORT_ORDER for note in notes[layer]]
    return VerificationReport(**fields, interior_ok=not notes, notes=tuple(notes))


# ----------------------------------------------------------------------
# Existence gate.
# ----------------------------------------------------------------------

@_record
class GateResult:
    """Admissibility verdict at the requested prize, with a threshold map."""

    interior_ok: bool
    minimal_v_estimate: float | None
    notes: tuple[str, ...]


def _candidate_ok(spec: TournamentSpec, prize: float, n: int) -> bool:
    """verify_solution(...).interior_ok at this prize, without the report.
    Any failing layer rejects the candidate, so the probe runs the same
    sequence of layers as the report, _layers, and stops at its first
    failing layer."""
    try:
        solution = solve_tournament(replace(spec, prize=prize))
    except (InteriorityError, SolverError):
        return False
    return not any(notes for _, _, notes in _layers(solution, n, gate=True))


def existence_gate(spec: TournamentSpec, grid: int | None = None) -> GateResult:
    """Decide whether the prize supports a verified equilibrium and estimate
    the smallest prize nearby that does.

    The search runs in three phases, each noting what it decides:
    1. Scan.  If the requested prize fails, the first passing prize of
       2**k and 2**-k times it, for k = 1..20 in that order, takes its
       place; a note names both, and if none passes, a note says so and
       the gate returns no estimate.
    2. Halving.  From the passing prize hi, hi / 2 replaces hi while it
       passes, at most 60 times.  If it never fails, a note says the
       estimate hi is only an upper bound.
    3. Bisection.  The bracket [hi / 2, hi] is bisected geometrically to
       one percent.
    The estimate is always the passing end of the final bracket.  Under
    bounded noise admissibility need not be monotone in the prize, so the
    estimate maps the edge of the window that was found, and the notes say
    when the requested prize itself was rejected.

    verdicts, the probe record, maps each probed prize to its verdict in
    probe order, so no prize is probed twice.  A probe runs the same
    sequence of layers as verify_solution, so it gives the same verdict,
    but stops at its first failing layer.  A probe prize the float range
    cannot hold (a product overflowing to inf or underflowing to 0) fails
    without being solved.
    """
    n = _grid_size(spec, grid)
    verdicts: dict[float, bool] = {}

    def ok(prize: float) -> bool:
        if prize not in verdicts:
            verdicts[prize] = 0.0 < prize < math.inf and _candidate_ok(spec, prize, n)
        return verdicts[prize]

    ok_here = ok(spec.prize)
    hi, notes = spec.prize, ()
    if not ok_here:
        hi = next((probe for k in range(1, 21)
                   for probe in (spec.prize * 2.0 ** k, spec.prize * 2.0 ** -k)
                   if ok(probe)), None)
        if hi is None:
            return GateResult(False, None, (
                f"no admissible prize within a factor of 2**20 of {spec.prize:g}",))
        notes = (f"prize {spec.prize:g} is rejected, but {hi:g} admits an equilibrium",)
    for _ in range(60):
        if not ok(hi * 0.5):
            break
        hi *= 0.5
    else:
        return GateResult(ok_here, hi, notes + (
            f"no failing prize found down to {hi:g}; the estimate is an upper bound",))
    lo = hi * 0.5
    while hi / lo > 1.01:
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return GateResult(ok_here, hi, notes)
