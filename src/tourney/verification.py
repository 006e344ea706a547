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

The oracle's coarse grids are its bulk.  Each is computed in two buffers
that every problem of a search reuses, by an in-place kernel that gives the
primitive's payoff bit for bit.  Outlays whose payoff bound max(value, 0) - x
is below a payoff the grid attains are skipped, since they cannot hold the
argmax; every reported number is the one the full grid gives.

A candidate is accepted only when every layer comes back clean.  The
existence gate then maps out the smallest prize for which that happens,
which is genuinely useful under the noise CSF: bounded noise lets weak
players free-ride on luck, so admissibility can vanish even where the
interior formulas still produce numbers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InteriorityError, ParameterError, SolverError
# effective_effort is unused here, but perfbench's tracer patches it by
# this module's name
from .primitives import HAWK, TullockCsf, effective_effort  # noqa: F401
from .stage1 import (SpeSolution, TournamentSpec, _reachable_pairings,
                     solve_tournament)

FOC_TOLERANCE = 1e-8
GAIN_TOLERANCE = 1e-6
_SOC_STEP = 1e-5
_HAWK_REFINE = 21
_DOVE_REFINE = 201


@dataclass(frozen=True)
class _Table:
    """Every player's unilateral choice problem at the candidate, one row
    each: pick an outlay x and (hawks only) a sabotage level s against the
    frozen rival outlay (x_rival, s_rival) and collect p * value - c(s) - x."""

    keys: tuple[str, ...]
    hawk: np.ndarray
    value: np.ndarray
    x: np.ndarray
    s: np.ndarray
    x_rival: np.ndarray
    s_rival: np.ndarray

    def take(self, rows) -> _Table:
        return _Table(tuple(self.keys[i] for i in rows), self.hawk[rows],
                      self.value[rows], self.x[rows], self.s[rows],
                      self.x_rival[rows], self.s_rival[rows])

    def frozen(self, rows, dims: int) -> tuple[np.ndarray, ...]:
        """(value, x_rival, s_rival) of the rows, shaped to broadcast over
        grids with `dims` trailing axes."""
        shape = (-1,) + (1,) * dims
        return tuple(col[rows].reshape(shape)
                     for col in (self.value, self.x_rival, self.s_rival))


def _table(solution: SpeSolution) -> _Table:
    rows = []
    for mi, match in enumerate(solution.matches):
        for slot in (0, 1):
            own, rival = match.efforts[slot], match.efforts[1 - slot]
            rows.append((f"semifinal{mi}_player{slot}", match.types[slot],
                         match.values[slot], own.x, own.s, rival.x, rival.s))
    profiles = solution.stage2.profiles
    for pairing in sorted(_reachable_pairings(solution.spec.bracket)):
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
    cols = np.array([row[2:] for row in rows], dtype=float).T
    bad = ~(np.isfinite(cols).all(axis=0) & (cols[1:] >= 0).all(axis=0))
    if bad.any():
        row = rows[int(np.argmax(bad))]
        raise ParameterError(
            f"choice problem {row[0]} needs a finite value and finite, "
            f"nonnegative efforts, got {row[2:]}")
    return _Table(tuple(row[0] for row in rows),
                  np.array([row[1] == HAWK for row in rows]), *cols)


def _payoff(csf, cost, frozen, x, s):
    """Deviation payoff p * value - c(s) - x against the frozen rival, for
    nonnegative x and s; unchecked, broadcasts over grids."""
    value, x_rival, s_rival = frozen
    p = csf._win_prob(np.maximum(0.0, x - s_rival), np.maximum(0.0, x_rival - s))
    return p * value - cost._cost(s) - x


def _baseline(csf, cost, t: _Table) -> np.ndarray:
    return _payoff(csf, cost, t.frozen(slice(None), 0), t.x, t.s)


def _per_coordinate(t: _Table, effort: np.ndarray, sabotage: np.ndarray) -> dict[str, float]:
    """Entries keyed in report order: each problem's effort, then its
    sabotage when it is a hawk (`sabotage` holds the hawk rows only)."""
    out = {}
    hawk_values = iter(sabotage.tolist())
    for key, hawk, value in zip(t.keys, t.hawk.tolist(), effort.tolist()):
        out[key + "_effort"] = value
        if hawk:
            out[key + "_sabotage"] = next(hawk_values)
    return out


def _grid_size(spec: TournamentSpec, grid) -> int:
    """The oracle grid: the spec's setting, or an override held to the rule
    SolverSettings.oracle_grid applies (an int, not a bool, at least 50)."""
    n = spec.solver.oracle_grid if grid is None else grid
    if type(n) is not int or n < 50:
        raise ParameterError(f"oracle grid must be an integer of at least 50, got {n!r}")
    return n


def _find_problem(t: _Table, player, stage, pairing) -> int:
    if stage == 1:
        if player not in (0, 1, 2, 3):
            raise ParameterError(f"player must be a bracket slot 0..3, got {player!r}")
        key = f"semifinal{player // 2}_player{player % 2}"
    elif stage == 2:
        if pairing not in ("DD", "HD", "HH"):
            raise ParameterError(f"pairing must be DD, HD or HH, got {pairing!r}")
        if pairing == "HD":
            key = "final_HD_hawk" if player in (None, 0) else "final_HD_dove"
        else:
            key = f"final_{pairing}"
    else:
        raise ParameterError(f"stage must be 1 or 2, got {stage!r}")
    if key not in t.keys:
        raise ParameterError(f"no such choice problem in this solution: {key}")
    return t.keys.index(key)


# ----------------------------------------------------------------------
# First and second order conditions.
# ----------------------------------------------------------------------

def _foc(spec: TournamentSpec, t: _Table) -> dict[str, float]:
    h = t.hawk
    # a zero effective effort has no finite partial: its residual comes out
    # inf or NaN, which the first-order test rejects
    with np.errstate(all="ignore"):
        d_own, d_rival = spec.csf._partials(np.maximum(0.0, t.x - t.s_rival),
                                            np.maximum(0.0, t.x_rival - t.s))
        effort = d_own * t.value - 1.0
        sabotage = -d_rival[h] * t.value[h] - spec.cost.marginal(t.s[h])
    return _per_coordinate(t, effort, sabotage)


def foc_residuals(solution: SpeSolution, spec: TournamentSpec | None = None,
                  ) -> dict[str, float]:
    """Analytic stationarity residuals for every choice variable.

    Each productive entry is d(win prob)/d(own effort) * value - 1, each
    sabotage entry is the marginal win-probability gain from weakening the
    rival minus the marginal sabotage cost.  All vanish at an interior
    candidate.
    """
    spec = solution.spec if spec is None else spec
    return _foc(spec, _table(solution))


def _soc(spec: TournamentSpec, t: _Table) -> dict[str, float]:
    # one three-point stencil per coordinate: productive effort for every
    # row, then sabotage for the hawk rows, all evaluated in one call
    hawks = np.flatnonzero(t.hawk)
    rows = np.concatenate([np.arange(len(t.keys)), hawks])
    on_x = np.arange(len(rows)) < len(t.keys)
    z = np.where(on_x, t.x[rows], t.s[rows])
    h = np.maximum(_SOC_STEP * np.abs(z), _SOC_STEP)
    # one-sided stencil for coordinates too close to the boundary
    one_sided = z - h < 0.0
    stencil = np.stack([np.where(one_sided, z, z - h),
                        np.where(one_sided, z + h, z),
                        np.where(one_sided, z + 2.0 * h, z + h)])
    pay = _payoff(spec.csf, spec.cost, t.frozen(rows, 0),
                  np.where(on_x, stencil, t.x[rows]),
                  np.where(on_x, t.s[rows], stencil))
    curvature = (pay[2] - 2.0 * pay[1] + pay[0]) / (h * h)
    return _per_coordinate(t, curvature[on_x], curvature[~on_x])


def soc_check(solution: SpeSolution, spec: TournamentSpec | None = None,
              ) -> dict[str, float]:
    """Finite-difference own-second-partials of every payoff at the candidate.

    Negative values mean the stationary point is a local maximum along that
    coordinate.  The step is absolute-floored so that curvature is measured
    at a scale deviations actually live on, not lost to round-off.
    """
    spec = solution.spec if spec is None else spec
    return _soc(spec, _table(solution))


# ----------------------------------------------------------------------
# Corner bound and grid oracle.
# ----------------------------------------------------------------------

def _corner(spec: TournamentSpec, t: _Table) -> dict[str, float]:
    # wiping out the rival's entire outlay and entering with token effort
    # wins outright under the ratio CSF and a coin flip under bounded noise
    hawks = t.take(np.flatnonzero(t.hawk))
    p_corner = 1.0 if isinstance(spec.csf, TullockCsf) else 0.5
    bound = p_corner * hawks.value - spec.cost._cost(hawks.x_rival)
    gain = bound - _baseline(spec.csf, spec.cost, hawks)
    return dict(zip(hawks.keys, gain.tolist()))


def corner_deviation_gain(player, solution: SpeSolution,
                          spec: TournamentSpec | None = None, *,
                          stage: int = 1, pairing: str | None = None) -> float:
    """Payoff gain from the most violent feasible deviation a hawk has:
    sabotage the rival down to zero and win on a token positive effort.

    Positive gain disqualifies the candidate.  Only hawks can play this
    card, so `player` must point at one (stage 1: bracket slot; stage 2:
    hawk role of `pairing`).
    """
    spec = solution.spec if spec is None else spec
    t = _table(solution)
    key = t.keys[_find_problem(t, player, stage, pairing)]
    corner = _corner(spec, t)
    if key not in corner:
        raise ParameterError(f"{key} is a dove; corner deviations need sabotage")
    return corner[key]


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a brute-force search of one player's deviation space."""

    gain: float
    best_x: float
    best_s: float
    best_payoff: float
    baseline: float


def _linspace_rows(lo: np.ndarray, hi, points: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], points) for every row i, rounded as
    np.linspace rounds a single row."""
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


def _noise_cdf(csf, t: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Overwrite t with csf._cdf(t), bit for bit, using tmp (t's shape) as
    scratch.  One branch: q = (2a - min(|t|, 2a))^2 / (8a^2), then
    |[t > 0] - q|, which is 1 - q where t > 0 and q elsewhere."""
    a = csf.half_width
    np.absolute(t, out=tmp)
    np.minimum(tmp, 2.0 * a, out=tmp)
    np.subtract(2.0 * a, tmp, out=tmp)
    np.square(tmp, out=tmp)
    np.divide(tmp, 8.0 * a * a, out=tmp)
    np.greater(t, 0.0, out=t)
    np.subtract(t, tmp, out=t)
    return np.absolute(t, out=t)


def _grid_payoff(csf, cost, frozen, x, s, out, tmp):
    """_payoff(csf, cost, frozen, x, s) for an outlay column x (K x 1) and a
    sabotage row s, written into out (K x len(s)) with tmp as scratch, with
    no temporary of the grid's size.  The ratio CSF runs _win_prob's ufuncs
    on the same operands in the same order and the noise CSF takes
    _noise_cdf, so every cell is bit-identical to _payoff's."""
    value, x_rival, s_rival = frozen
    bo = np.maximum(0.0, x - s_rival)
    br = np.maximum(0.0, x_rival - s)
    if isinstance(csf, TullockCsf):
        po = bo ** csf.r
        pr = br ** csf.r
        np.add(po, pr, out=out)
        with np.errstate(invalid="ignore"):
            np.divide(po, out, out=out)
        # 0/0 only where both efforts are zero, a tie at one half
        out[np.ix_(po[:, 0] == 0.0, pr == 0.0)] = 0.5
    else:
        np.subtract(csf._performance(bo), csf._performance(br), out=out)
        _noise_cdf(csf, out, tmp)
    np.multiply(out, value, out=out)
    np.subtract(out, cost._cost(s), out=out)
    return np.subtract(out, x, out=out)


def _kept_rows(top: float, xs: np.ndarray, floor: float) -> int:
    """How many leading outlays of the ascending xs have a payoff bound
    fl(top - x) that is not below floor (all of them for a NaN floor)."""
    return bisect.bisect_left(xs, True, key=lambda x: top - x < floor)


def _coarse(csf, cost, t: _Table, xs: np.ndarray, ss: np.ndarray):
    """Each row's first flat argmax over the grid xs x ss[row] and the
    payoff there, computed in two buffers that every row reuses.

    Only outlays that can hold the argmax are evaluated.  The grid row
    nearest each candidate's own outlay goes first, through _payoff: its
    maximum is a floor the grid attains.  Every payoff has p <= 1 and c(s) >= 0, and rounding
    is monotone, so a payoff at outlay x is at most fl(max(value, 0) - x).
    A row whose bound is below the floor lies strictly below the grid
    maximum and can neither be nor tie the first argmax.  The bound falls
    as x grows, so those rows are a suffix of the grid, and they are
    skipped.
    """
    nearest = np.minimum(np.searchsorted(xs, t.x), xs.size - 1)
    floor = _payoff(csf, cost, t.frozen(slice(None), 1), xs[nearest, None],
                    ss).max(axis=1).tolist()
    out = np.empty((xs.size, ss.shape[1]))
    tmp = np.empty_like(out)
    col = xs[:, None]
    flat, top = [], []
    for frozen, s, low in zip(
            zip(t.value.tolist(), t.x_rival.tolist(), t.s_rival.tolist()),
            ss, floor):
        kept = _kept_rows(max(frozen[0], 0.0), xs, low)
        pay = _grid_payoff(csf, cost, frozen, col[:kept], s,
                           out[:kept], tmp[:kept]).reshape(-1)
        flat.append(int(pay.argmax()))
        top.append(pay[flat[-1]])
    return np.array(flat), np.array(top)


def _search_2d(csf, cost, t: _Table, prize: float, n: int):
    """Hawks against a positive rival outlay: an n x n grid of productive
    effort on [0, prize] crossed with sabotage on [0, x_rival], then two
    21 x 21 refinements around the incumbent best cell."""
    k = len(t.keys)
    at = np.arange(k)
    xs = np.broadcast_to(np.linspace(0.0, prize, n), (k, n))
    ss = np.array([np.linspace(0.0, top, n) for top in t.x_rival])
    best = np.full(k, -np.inf)
    best_x = np.zeros(k)
    best_s = np.zeros(k)
    for step in range(3):
        if step == 0:
            # one problem at a time, so that memory holds one n x n grid
            # (and its scratch) and not k of them
            flat, top = _coarse(csf, cost, t, xs[0], ss)
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


def _search_1d(csf, cost, t: _Table, prize: float, n: int):
    """Doves, and hawks whose rival spends nothing: productive effort alone
    on 40 n + 1 points over [0, prize], then two 201-point refinements."""
    k = len(t.keys)
    at = np.arange(k)
    xs = np.broadcast_to(np.linspace(0.0, prize, 40 * n + 1), (k, 40 * n + 1))
    best = np.full(k, -np.inf)
    best_x = np.zeros(k)
    for step in range(3):
        if step == 0:
            i, top = _coarse(csf, cost, t, xs[0], np.zeros((k, 1)))
        else:
            xs = _around(x_at, xs[:, 1] - xs[:, 0], prize, _DOVE_REFINE)
            i, top = _argmax_rows(_payoff(csf, cost, t.frozen(at, 1), xs, 0.0))
        x_at = xs[at, i]
        better = top > best
        best = np.where(better, top, best)
        best_x = np.where(better, x_at, best_x)
    return best, best_x, np.zeros(k)


def _oracle(spec: TournamentSpec, t: _Table, n: int) -> list[OracleResult]:
    """Grid-search every row's deviation space; one result per row."""
    best = np.empty(len(t.keys))
    best_x = np.empty(len(t.keys))
    best_s = np.empty(len(t.keys))
    two_d = t.hawk & (t.x_rival > 0.0)
    for rows, search in ((np.flatnonzero(two_d), _search_2d),
                         (np.flatnonzero(~two_d), _search_1d)):
        if rows.size:
            best[rows], best_x[rows], best_s[rows] = search(
                spec.csf, spec.cost, t.take(rows), spec.prize, n)
    base = _baseline(spec.csf, spec.cost, t)
    return [OracleResult(pay - b, x, s, pay, b) for pay, b, x, s in zip(
        best.tolist(), base.tolist(), best_x.tolist(), best_s.tolist())]


def _oracle_report(spec: TournamentSpec, t: _Table, n: int,
                   ) -> tuple[dict[str, float], dict[str, tuple[float, float]]]:
    # problems with identical data share one search
    first: dict[tuple, int] = {}
    signature = [(bool(h), v, x, s, xr, sr) for h, v, x, s, xr, sr in zip(
        t.hawk.tolist(), t.value.tolist(), t.x.tolist(), t.s.tolist(),
        t.x_rival.tolist(), t.s_rival.tolist())]
    for row, sig in enumerate(signature):
        first.setdefault(sig, row)
    unique = list(first.values())
    found = dict(zip(unique, _oracle(spec, t.take(unique), n)))
    results = [found[first[sig]] for sig in signature]
    return ({key: r.gain for key, r in zip(t.keys, results)},
            {key: (r.best_x, r.best_s) for key, r in zip(t.keys, results)})


def best_response_oracle(player, solution: SpeSolution,
                         spec: TournamentSpec | None = None,
                         grid: int | None = None, *, stage: int = 1,
                         pairing: str | None = None) -> OracleResult:
    """Grid-search one player's whole deviation space against the candidate.

    Hawks search productive effort crossed with sabotage up to the rival's
    full outlay; doves search productive effort alone.  Both the dropout
    point and the full-sabotage kink sit exactly on the coarse grid, and
    the search refines twice around the incumbent best cell.  A gain
    meaningfully above zero disqualifies the candidate.
    """
    spec = solution.spec if spec is None else spec
    n = _grid_size(spec, grid)
    t = _table(solution)
    return _oracle(spec, t.take([_find_problem(t, player, stage, pairing)]), n)[0]


# ----------------------------------------------------------------------
# The verdict.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
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

def _local_notes(foc, soc, corner) -> list[str]:
    notes = [f"first-order residual {key} is {value:.3e}"
             for key, value in foc.items() if not abs(value) <= FOC_TOLERANCE]
    notes += [f"second-order curvature {key} is {value:.6g}, not negative"
              for key, value in soc.items() if not value < 0.0]
    notes += [f"corner deviation {key} gains {value:.6g}"
              for key, value in corner.items() if not value <= GAIN_TOLERANCE]
    return notes


def _oracle_notes(gains, argmax) -> list[str]:
    return [f"oracle deviation {key} gains {value:.6g} at "
            f"x={argmax[key][0]:.6g}, s={argmax[key][1]:.6g}"
            for key, value in gains.items() if not value <= GAIN_TOLERANCE]


def _stage_notes(solution: SpeSolution) -> list[str]:
    notes = [f"semifinal{mi}_player{slot} expects negative payoff "
             f"{match.payoffs[slot]:.6g}"
             for mi, match in enumerate(solution.matches) for slot in (0, 1)
             if not match.payoffs[slot] >= 0.0]
    if not solution.stage2.menu.ordered:
        notes.append("final-stage payoff menu is not strictly ordered")
    return notes


def verify_solution(solution: SpeSolution, spec: TournamentSpec | None = None,
                    grid: int | None = None) -> VerificationReport:
    """Run every acceptance layer against a candidate and report honestly.

    The verdict is interior_ok only when first-order residuals are zero to
    tolerance, every own-coordinate curvature is strictly negative, no
    corner deviation pays, the grid oracle finds no profitable move for
    anyone, semifinal payoffs are nonnegative and the final-stage menu is
    strictly ordered.  Notes name each failure, first failure first.
    """
    spec = solution.spec if spec is None else spec
    n = _grid_size(spec, grid)
    foc = foc_residuals(solution, spec)
    soc = soc_check(solution, spec)
    t = _table(solution)
    corner = _corner(spec, t)
    oracle_gains, oracle_argmax = _oracle_report(spec, t, n)
    notes = (_local_notes(foc, soc, corner)
             + _oracle_notes(oracle_gains, oracle_argmax)
             + _stage_notes(solution))
    return VerificationReport(
        foc_residuals=foc,
        soc_values=soc,
        corner_gains=corner,
        oracle_gains=oracle_gains,
        oracle_argmax=oracle_argmax,
        interior_ok=not notes,
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# Existence gate.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GateResult:
    """Admissibility verdict at the requested prize, with a threshold map."""

    interior_ok: bool
    minimal_v_estimate: float | None
    notes: tuple[str, ...]


def _candidate_ok(spec: TournamentSpec, prize: float, n: int) -> bool:
    """verify_solution(...).interior_ok at this prize, without the report:
    the oracle runs only when every cheap layer has passed, since any
    failing layer rejects the candidate."""
    try:
        solution = solve_tournament(replace(spec, prize=prize))
    except (InteriorityError, SolverError):
        return False
    spec = solution.spec
    t = _table(solution)
    if (_local_notes(_foc(spec, t), _soc(spec, t), _corner(spec, t))
            or _stage_notes(solution)):
        return False
    return not _oracle_notes(*_oracle_report(spec, t, n))


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
    A probe gives the same verdict as verify_solution, but skips the
    oracle once a cheaper layer has rejected.
    """
    n = _grid_size(spec, grid)
    notes = []
    ok_here = _candidate_ok(spec, spec.prize, n)
    passing = spec.prize if ok_here else None
    if passing is None:
        for k in range(1, 21):
            for factor in (2.0 ** k, 2.0 ** -k):
                probe = spec.prize * factor
                if _candidate_ok(spec, probe, n):
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
        if _candidate_ok(spec, probe, n):
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
        if _candidate_ok(spec, mid, n):
            hi = mid
        else:
            lo = mid
    return GateResult(ok_here, hi, tuple(notes))
