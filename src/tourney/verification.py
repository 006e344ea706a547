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

The oracle runs one search per problem: a coarse grid of outlays
crossed with sabotage levels, then two refinements around the best cell.  A
hawk against a positive rival outlay crosses n outlays with n sabotage
levels and refines on 21 x 21 cells.  A dove, or a hawk whose rival spends
nothing, crosses 40 n + 1 outlays with one zero-sabotage column, which is
never refined, and refines on 201 outlays.  The coarse grids are the bulk.
Each is computed in two buffers that every problem of a search reuses, by
an in-place kernel that gives the primitive's payoff bit for bit: the ratio
CSF's ufuncs with a tie fix that writes one prefix-by-suffix slice, or the
noise CSF's own in-place CDF, so this module holds no CDF arithmetic.
Outlays whose payoff bound max(value, 0) - x is below a payoff the grid
attains are skipped, since they cannot hold the argmax; one vectorised
count finds how many are kept.  Sabotage levels past the last one whose
bound max(value, 0) - c(s) reaches that payoff are skipped too; the cut
reads the cost row numpy computes and needs no monotone cost.  Every
reported number is the one the full grid gives.

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
    problem: players with identical data share one row."""

    keys: tuple[str, ...]
    of: tuple[int, ...]
    hawk: np.ndarray
    value: np.ndarray
    x: np.ndarray
    s: np.ndarray
    x_rival: np.ndarray
    s_rival: np.ndarray

    def frozen(self, rows, dims: int) -> tuple[np.ndarray, ...]:
        """(value, x_rival, s_rival) of the rows, shaped to broadcast over
        grids with `dims` trailing axes."""
        shape = (-1,) + (1,) * dims
        return tuple(col[rows].reshape(shape)
                     for col in (self.value, self.x_rival, self.s_rival))


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
    cols = np.array([problem[1:] for problem in index], dtype=float).T
    bad = ~(np.isfinite(cols).all(axis=0) & (cols[1:] >= 0).all(axis=0))
    if bad.any():
        row = rows[of.index(int(np.argmax(bad)))]
        raise ParameterError(
            f"choice problem {row[0]} needs a finite value and finite, "
            f"nonnegative efforts, got {row[2:]}")
    return _Table(tuple(row[0] for row in rows), of,
                  np.array([problem[0] for problem in index]), *cols)


def _payoff(csf, cost, frozen, x, s):
    """Deviation payoff p * value - c(s) - x against the frozen rival, for
    nonnegative x and s; unchecked, broadcasts over grids."""
    value, x_rival, s_rival = frozen
    p = csf._win_prob(np.maximum(0.0, x - s_rival), np.maximum(0.0, x_rival - s))
    return p * value - cost._cost(s) - x


def _baseline(csf, cost, t: _Table) -> np.ndarray:
    # a huge outlay's cost overflows to inf, a payoff the gain tests read
    with np.errstate(over="ignore"):
        return _payoff(csf, cost, t.frozen(slice(None), 0), t.x, t.s)


def _expand(t: _Table, values: list, rows=None) -> dict:
    """Per-problem values keyed by the report's keys in order: values[i]
    belongs to problem rows[i] (to problem i when rows is None), and a key
    whose problem has no value is left out."""
    entry = dict(zip(range(len(values)) if rows is None else rows, values))
    return {key: entry[p] for key, p in zip(t.keys, t.of) if p in entry}


def _per_coordinate(t: _Table, effort: np.ndarray, sabotage: np.ndarray) -> dict[str, float]:
    """Entries keyed in report order: each key's effort, then its sabotage
    when it is a hawk (`sabotage` holds the hawk problems only)."""
    sabotage = _expand(t, sabotage.tolist(), np.flatnonzero(t.hawk).tolist())
    out = {}
    for key, value in _expand(t, effort.tolist()).items():
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
    h = t.hawk
    # a zero effective effort has no finite partial: its residual comes out
    # inf or NaN, which the first-order test rejects
    with np.errstate(all="ignore"):
        d_own, d_rival = spec.csf._partials(np.maximum(0.0, t.x - t.s_rival),
                                            np.maximum(0.0, t.x_rival - t.s))
        effort = d_own * t.value - 1.0
        sabotage = -d_rival[h] * t.value[h] - spec.cost.marginal(t.s[h])
    return _per_coordinate(t, effort, sabotage)


def soc_check(spec: TournamentSpec, t: _Table) -> dict[str, float]:
    """Finite-difference own-second-partials of every payoff of the table
    at the candidate, keyed per player.

    Negative values mean the stationary point is a local maximum along that
    coordinate.  The step is absolute-floored so that curvature is measured
    at a scale deviations actually live on, not lost to round-off.
    """
    # one three-point stencil per coordinate: productive effort for every
    # row, then sabotage for the hawk rows, all evaluated in one call
    k = t.hawk.size
    rows = np.concatenate([np.arange(k), np.flatnonzero(t.hawk)])
    on_x = np.arange(rows.size) < k
    z = np.where(on_x, t.x[rows], t.s[rows])
    h = np.maximum(_SOC_STEP * np.abs(z), _SOC_STEP)
    # one-sided stencil for coordinates too close to the boundary
    one_sided = z - h < 0.0
    stencil = np.stack([np.where(one_sided, z, z - h),
                        np.where(one_sided, z + h, z),
                        np.where(one_sided, z + 2.0 * h, z + h)])
    # at huge outlays the cost and h * h overflow to inf, and a payoff of
    # -inf at the candidate itself leaves a NaN curvature; the curvature
    # test reads either as it reads any other number
    with np.errstate(over="ignore", invalid="ignore"):
        pay = _payoff(spec.csf, spec.cost, t.frozen(rows, 0),
                      np.where(on_x, stencil, t.x[rows]),
                      np.where(on_x, t.s[rows], stencil))
        curvature = (pay[2] - 2.0 * pay[1] + pay[0]) / (h * h)
    return _per_coordinate(t, curvature[on_x], curvature[~on_x])


# ----------------------------------------------------------------------
# Corner bound and grid oracle.
# ----------------------------------------------------------------------

def _corner(spec: TournamentSpec, t: _Table, base: np.ndarray) -> dict[str, float]:
    """Every hawk's corner gain over its baseline, keyed per player; base
    holds the baselines of all problems."""
    # wiping out the rival's entire outlay and entering with token effort
    # wins outright under the ratio CSF and a coin flip under bounded noise
    rows = np.flatnonzero(t.hawk)
    p_corner = 1.0 if isinstance(spec.csf, TullockCsf) else 0.5
    # a baseline of -inf, where the candidate's own cost overflows, leaves a
    # NaN gain, which the gain test refuses as it refuses a positive one
    with np.errstate(over="ignore", invalid="ignore"):
        bound = p_corner * t.value[rows] - spec.cost._cost(t.x_rival[rows])
        gain = bound - base[rows]
    return _expand(t, gain.tolist(), rows.tolist())


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


def _argmax_rows(pay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row flat argmax of a stack of grids (first maximum wins) and the
    payoff there."""
    flat = pay.reshape(len(pay), -1)
    idx = flat.argmax(axis=1)
    return idx, flat[np.arange(len(flat)), idx]


def _grid_payoff(csf, cost, frozen, x, s, out, tmp):
    """_payoff(csf, cost, frozen, x, s) for an ascending outlay column x
    (K x 1) and an ascending sabotage row s, written into out (K x len(s))
    with tmp as scratch, with no temporary of the grid's size.  The ratio
    CSF runs _win_prob's ufuncs on the same operands in the same order and
    the noise CSF overwrites the gaps with its _cdf_into, so every cell is
    bit-identical to _payoff's."""
    value, x_rival, s_rival = frozen
    bo = np.maximum(0.0, x - s_rival)
    br = np.maximum(0.0, x_rival - s)
    if isinstance(csf, TullockCsf):
        po = bo ** csf.r
        pr = br ** csf.r
        np.add(po, pr, out=out)
        with np.errstate(invalid="ignore"):
            np.divide(po, out, out=out)
        # 0/0 only where both powers are zero, a tie at one half.  With
        # r > 0 a power rises with its effort, so the zero own powers are a
        # prefix of the ascending outlays and the zero rival powers a
        # suffix of the ascending sabotage levels.
        out[:np.count_nonzero(po == 0.0),
            pr.size - np.count_nonzero(pr == 0.0):] = 0.5
    else:
        np.subtract(csf._performance(bo), csf._performance(br), out=out)
        csf._cdf_into(out, tmp)
    np.multiply(out, value, out=out)
    np.subtract(out, cost._cost(s), out=out)
    return np.subtract(out, x, out=out)


def _kept_rows(top: float, xs: np.ndarray, floor: float) -> int:
    """How many leading outlays of the ascending xs have a payoff bound
    fl(top - x) that is not below floor (all of them for a NaN floor).
    fl(top - x) falls as x rises, so those outlays are a prefix and one
    vectorised count of them gives its length."""
    return int(np.count_nonzero(~(top - xs < floor)))


def _kept_columns(top: float, c: np.ndarray, floor: float) -> int:
    """How many leading sabotage levels reach the last one whose cost c
    leaves a payoff bound fl(top - c) that is not below floor (all of them
    for a NaN floor).  The cut is found from the last such level, not by a
    count, so it stays exact where the computed cost row is not monotone."""
    kept = ~(top - c < floor)
    return c.size - int(kept[::-1].argmax()) if kept.any() else 0


def _gains(gain: float) -> bool:
    """Whether a deviation gains more than GAIN_TOLERANCE (a NaN gain does):
    the one gain test of the corner and oracle notes and of the gate's
    running bests.  A running best never falls and fl(best - base) is
    monotone in best, so once a running best gains, the finished search
    reports a gain as well."""
    return not gain <= GAIN_TOLERANCE


def _coarse(csf, cost, t: _Table, rows: np.ndarray, xs: np.ndarray,
            ss: np.ndarray, need=None):
    """Each problem's first flat argmax over the grid xs x ss[i], for the
    i-th of the table's rows, and the payoff there, computed in two buffers
    that every problem reuses.  With need (their baselines), it returns
    None as soon as a problem _gains.

    Only cells that can hold the argmax are evaluated.  The grid row
    nearest each candidate's own outlay goes first, through _payoff: its
    maximum is a floor the grid attains.  Every payoff has p <= 1, x >= 0
    and c(s) >= 0, and rounding is monotone, so a payoff at outlay x and
    sabotage level s is at most fl(max(value, 0) - x) and at most
    fl(max(value, 0) - c(s)).  A grid row or column whose bound is below
    the floor lies strictly below the grid maximum and can neither be nor
    tie the first argmax.  The row bound falls as x grows, so those rows
    are a suffix, which _kept_rows counts in one vectorised pass.  The
    columns past the last one whose bound reaches the floor are cut too,
    read off the problem's cost row: cutting after the last kept column,
    not counting them, needs no monotone cost, so the cut is exact whatever
    numpy's ** rounds.  The kept rows by kept columns are one contiguous
    slice of the buffers, and the argmax maps back to the full grid's flat
    index.
    """
    nearest = np.minimum(np.searchsorted(xs, t.x[rows]), xs.size - 1)
    floor = _payoff(csf, cost, t.frozen(rows, 1), xs[nearest, None],
                    ss).max(axis=1).tolist()
    m = ss.shape[1]
    out = np.empty(xs.size * m)
    tmp = np.empty_like(out)
    col = xs[:, None]
    flat, top = [], []
    for i, (frozen, s, low) in enumerate(zip(
            zip(*(c.tolist() for c in t.frozen(rows, 0))), ss, floor)):
        bound = max(frozen[0], 0.0)
        kept = _kept_rows(bound, xs, low)
        width = _kept_columns(bound, cost._cost(s), low)
        size = kept * width
        pay = _grid_payoff(csf, cost, frozen, col[:kept], s[:width],
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
    return np.array(flat), np.array(top)


def _search(csf, cost, t: _Table, rows: np.ndarray, prize: float, n: int,
            two_d: bool, need=None):
    """The best deviation of each problem in the table's rows as (payoff, x,
    s) arrays.  With two_d (hawks against a positive rival outlay): an n x n
    grid of productive effort on [0, prize] crossed with sabotage on
    [0, x_rival], then two 21 x 21 refinements around the incumbent best
    cell.  Otherwise (doves, and hawks whose rival spends nothing): 40 n + 1
    outlays against one zero-sabotage column, which is never refined, then
    two 201-point refinements.  With need (their baselines), it returns
    None as soon as a problem's running best _gains."""
    k = rows.size
    at = np.arange(k)
    frozen = t.frozen(rows, 2)
    x_rival = t.x_rival[rows]
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
    best = np.full(k, -np.inf)
    best_x = np.zeros(k)
    best_s = np.zeros(k)
    for step in range(3):
        if step == 0:
            # one problem at a time, so that memory holds one coarse grid
            # (and its scratch) and not k of them
            coarse = _coarse(csf, cost, t, rows, xs, ss, need)
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
            flat, top = _argmax_rows(_payoff(csf, cost, frozen,
                                             xs[:, :, None], ss[:, None, :]))
            i, j = np.divmod(flat, ss.shape[1])
            x_at, s_at = xs[at, i], ss[at, j]
        better = top > best
        best = np.where(better, top, best)
        best_x = np.where(better, x_at, best_x)
        best_s = np.where(better, s_at, best_s)
        if need is not None and any(_gains(run - b) for run, b
                                    in zip(best.tolist(), need)):
            return None
    return best, best_x, best_s


def _oracle(spec: TournamentSpec, t: _Table, n: int, need: np.ndarray | None = None):
    """Grid-search every problem's deviation space once: the best payoff
    and its (x, s), as (best, best_x, best_s) arrays over the problems.

    With need (the problems' baselines) the call returns None as soon as
    one problem's running best gains more than GAIN_TOLERANCE, which the
    finished search would report too.  The doves' lines, the cheapest
    search and the likeliest to find a gain, run first.
    """
    two_d = t.hawk & (t.x_rival > 0.0)
    best, best_x, best_s = (np.empty(two_d.size) for _ in range(3))
    # a huge outlay's cost overflows to inf, a payoff the gain tests read
    with np.errstate(over="ignore"):
        for hawks in (False, True):
            rows = np.flatnonzero(two_d == hawks)
            if rows.size:
                found = _search(spec.csf, spec.cost, t, rows, spec.prize, n, hawks,
                                None if need is None else need[rows].tolist())
                if found is None:
                    return None
                best[rows], best_x[rows], best_s[rows] = found
    return best, best_x, best_s


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
    gains = _expand(t, [pay - b for pay, b in zip(best.tolist(), base.tolist())])
    argmax = _expand(t, list(zip(best_x.tolist(), best_s.tolist())))
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

    If the requested prize fails, prizes are probed geometrically outward
    (factors of two, up to 2**20 both ways) for any that passes; from a
    passing prize the boundary below it is bracketed by halving and then
    bisected to one percent.  The estimate is always the passing end of the
    final bracket.  Under bounded noise admissibility need not be monotone
    in the prize, so the estimate maps the edge of the window that was
    found, and the notes say when the requested prize itself was rejected.
    A probe runs the same sequence of layers as verify_solution, so it
    gives the same verdict, but stops at its first failing layer, and no
    prize is probed twice.  A probe prize the float range cannot hold (a
    product overflowing to inf or underflowing to 0) fails without being
    solved.
    """
    n = _grid_size(spec, grid)
    verdicts: dict[float, bool] = {}

    def ok(prize: float) -> bool:
        if prize not in verdicts:
            verdicts[prize] = 0.0 < prize < math.inf and _candidate_ok(spec, prize, n)
        return verdicts[prize]

    notes = []
    ok_here = ok(spec.prize)
    passing = spec.prize if ok_here else None
    if passing is None:
        for k in range(1, 21):
            for factor in (2.0 ** k, 2.0 ** -k):
                probe = spec.prize * factor
                if ok(probe):
                    passing = probe
                    break
            if passing is not None:
                break
        if passing is None:
            notes.append(
                f"no admissible prize within a factor of 2**20 of {spec.prize:g}")
            return GateResult(False, None, tuple(notes))
        notes.append(
            f"prize {spec.prize:g} is rejected, but {passing:g} admits an equilibrium")

    hi = passing
    lo = None
    probe = passing
    for _ in range(60):
        probe *= 0.5
        if ok(probe):
            hi = probe
        else:
            lo = probe
            break
    if lo is None:
        notes.append(
            f"no failing prize found down to {probe:g}; the estimate is an upper bound")
        return GateResult(ok_here, hi, tuple(notes))
    while hi / lo > 1.01:
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return GateResult(ok_here, hi, tuple(notes))
