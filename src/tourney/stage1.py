"""Semifinal equilibrium and full tournament solutions.

Winning a semifinal is worth the expected final-stage payoff, which depends
on the winner's own type and on who the parallel semifinal sends up.  With
the final-stage menu in hand, each semifinal is a two-player contest over
type-specific continuation values:

* hawk value   A(q) = q * menu.hawk_vs_hawk + (1-q) * menu.hawk_vs_dove
* dove value   B(q) = q * menu.dove_vs_hawk + (1-q) * menu.dove_vs_dove

where q is the probability the parallel match promotes a hawk.  The spread
B - A equals the cost of final-stage sabotage exactly, for every q, which
is why the dove always fights for strictly more and wins the mixed
semifinal with probability above one half.

Every mixed semifinal reduces to one scalar equation phi(p) = p for the
hawk's advance probability p on [0, 1], solved by a bracketed Brent root.
In the seeded identical case (two mixed semifinals) symmetry ties q to p.
Any other seeding has at most one mixed match and q is constant per match,
so the mixed match is solved first and the same-type match after it.
Each root returns the efforts, p and the continuation values (A, B) it
certified at p, and the mixed match derives the hawk's sabotage
c'(s1) = A/B, its cost and both payoffs from them once.  The whole solve
runs on Python floats, so it does not depend on numpy's SIMD dispatch.

The solver always reports the interior candidate.  Whether that candidate
survives global scrutiny (corner deviations, dropout free-riding, local
curvature) is the verification module's job, not this one's.

A solution is a tree of frozen records: `SpeSolution` holds the spec, the
final stage's `Stage2Solution` and one `MatchSolution` per semifinal, whose
strategies are `Effort` records.  They are declared with `stage2._record`,
whose `__init__` stores the fields without one `object.__setattr__` call
each, and a solve builds only the records it needs: two identical mixed
semifinals share one `MatchSolution`, and a same-type pairing's players
share one `Effort`.  The records are immutable, so sharing one is
indistinguishable from holding equal copies.  The inputs, `TournamentSpec`
and `SolverSettings`, are stock frozen dataclasses whose `__post_init__`
validates them, and each final-pairing check reads the bracket's sorted
reachable pairings from a table built once at import.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

from .errors import InteriorityError, ParameterError, SolverError
from .primitives import (DOVE, HAWK, Csf, PowerCost, ProbitUniformCsf, TullockCsf,
                         _finite_real)
from .stage2 import (Effort, PayoffMenu, Stage2Solution, _record, _sabotage_cost,
                     _sabotage_level, base_effort, solve_stage2)

Bracket = tuple[tuple[str, str], tuple[str, str]]
DEFAULT_BRACKET: Bracket = ((HAWK, DOVE), (HAWK, DOVE))
# the largest oracle grid a spec or an audit accepts: the hawk search holds
# two n x n float64 arrays, 16 * n**2 bytes, which is 256 MiB at this size
MAX_ORACLE_GRID = 4096
# rounding leaves a certification residual of a few ulps of 1 (at most
# 8.9e-16 over the 2880 mixed semifinals of perfbench's solve-sweep pools,
# seeds 1-10), so a smaller tolerance could never certify
_MIN_TOLERANCE = 1e-14


@dataclass(frozen=True)
class SolverSettings:
    """Largest semifinal residual a solution may certify with, at least
    1e-14 (the roots themselves converge to machine precision), and the
    grid oracle size, an integer from 50 to MAX_ORACLE_GRID."""

    tolerance: float = 1e-10
    oracle_grid: int = 400

    def __post_init__(self):
        if not (_finite_real(self.tolerance) and self.tolerance > 0):
            raise ParameterError(
                f"tolerance must be positive and finite, got {self.tolerance!r}")
        if not self.tolerance >= _MIN_TOLERANCE:
            raise ParameterError(
                f"tolerance must be at least {_MIN_TOLERANCE:g}, as rounding leaves "
                f"semifinal residuals near 1e-15, got {self.tolerance!r}")
        grid = self.oracle_grid
        if type(grid) is not int or not 50 <= grid <= MAX_ORACLE_GRID:
            raise ParameterError(f"oracle_grid must be an integer from 50 to "
                                 f"{MAX_ORACLE_GRID}, got {grid!r}")


def _normalize_bracket(bracket) -> Bracket:
    try:
        matches = tuple(tuple(m) for m in bracket)
    except TypeError:
        raise ParameterError(f"bracket must be two pairs of types, got {bracket!r}")
    if len(matches) != 2 or any(len(m) != 2 for m in matches):
        raise ParameterError(f"bracket must be two pairs of types, got {bracket!r}")
    for t in itertools.chain.from_iterable(matches):
        if t not in (HAWK, DOVE):
            raise ParameterError(f"player types must be '{HAWK}' or '{DOVE}', got {t!r}")
    return matches


@dataclass(frozen=True)
class TournamentSpec:
    """Full description of one tournament instance."""

    prize: float
    csf: Csf
    cost: PowerCost
    bracket: Bracket = DEFAULT_BRACKET
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if not (_finite_real(self.prize) and self.prize > 0):
            raise ParameterError(f"prize must be positive and finite, got {self.prize!r}")
        for name, kind, what in (("csf", Csf, "a TullockCsf or ProbitUniformCsf"),
                                 ("cost", PowerCost, "a PowerCost"),
                                 ("solver", SolverSettings, "a SolverSettings")):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ParameterError(f"{name} must be {what}, got {value!r}")
        object.__setattr__(self, "bracket", _normalize_bracket(self.bracket))

    @property
    def types(self) -> tuple[str, str, str, str]:
        return self.bracket[0] + self.bracket[1]


def _continuation_values(menu: PayoffMenu, p_parallel_hawk: float,
                         opponent_pool: tuple[str, str]) -> tuple[float, float]:
    """Expected final-stage payoff (hawk, dove) by own type, mixing over the
    parallel semifinal's winner type.  opponent_pool is the pair of types
    contesting the parallel match; the mixing weight is 1 or 0 when that
    pool is single-typed and p_parallel_hawk when it is mixed."""
    if opponent_pool == (HAWK, HAWK):
        q = 1.0
    elif opponent_pool == (DOVE, DOVE):
        q = 0.0
    else:
        q = p_parallel_hawk
    return (q * menu.hawk_vs_hawk + (1.0 - q) * menu.hawk_vs_dove,
            q * menu.dove_vs_hawk + (1.0 - q) * menu.dove_vs_dove)


# ----------------------------------------------------------------------
# Mixed semifinals: one bracketed scalar root for p = phi(p).
# ----------------------------------------------------------------------

# _brent's tolerance terms; 2.0 * eps * |b| multiplies left to right, so
# the product's first factor is exactly this constant
_TWO_EPS = 2.0 * sys.float_info.epsilon
_FLOAT_MIN = sys.float_info.min


def _brent(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f on [lo, hi] by Brent's method (inverse quadratic, secant
    and bisection steps), given endpoint values of opposite sign or zero.
    Converges until the bracket is a few ulps wide."""
    a, b, fa, fb = lo, hi, f_lo, f_hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(500):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = _TWO_EPS * abs(b) + _FLOAT_MIN
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                num, den = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                num = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                den = (q - 1.0) * (r - 1.0) * (s - 1.0)
            num, den = (num, -den) if num > 0 else (-num, den)
            if 2.0 * num < min(3.0 * m * den - abs(tol * den), abs(e * den)):
                e, d = d, num / den
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b


def _positive_values(values, p: float) -> tuple[float, float]:
    a_val, b_val = values(p)
    if not (a_val > 0 and b_val > 0):
        raise InteriorityError(
            f"prize too small: continuation values not positive at "
            f"p={p:.6g} (hawk {a_val:.6g}, dove {b_val:.6g})")
    return a_val, b_val


def _certify(residual: float, settings: SolverSettings) -> None:
    if not residual <= settings.tolerance:
        raise SolverError(
            f"semifinal solution failed to certify: residual {residual:.3g} "
            f"exceeds {settings.tolerance:.3g}")


def _ratio_root(values, r: float, settings: SolverSettings,
                ) -> tuple[float, float, float, float, float]:
    """Mixed semifinal under the ratio CSF; values(p) -> (hawk value, dove
    value).  At p = A^r / (A^r + B^r) the asymmetric-prize ratio contest
    has efforts r*A*p*(1-p) and r*B*p*(1-p), so only p needs a root.
    Returns the efforts (hawk, dove), p and the values (A, B) at p."""

    def phi(p: float) -> float:
        a_val, b_val = _positive_values(values, p)
        return 1.0 / (1.0 + (b_val / a_val) ** r)

    p = _brent(lambda p: phi(p) - p, 0.0, 1.0, phi(0.0), phi(1.0) - 1.0)
    _certify(abs(phi(p) - p), settings)
    a_val, b_val = values(p)
    spread = r * p * (1.0 - p)
    return spread * a_val, spread * b_val, p, a_val, b_val


def _noise_root(values, csf: ProbitUniformCsf, settings: SolverSettings,
                ) -> tuple[float, float, float, float, float]:
    """Mixed semifinal under the noise CSF; values(p) -> (hawk value, dove
    value).  At fixed p the FOC ratio pins the hawk's effort at
    kappa = (A/B)^(1/(1-beta)) times the dove's, so both FOCs reduce to one
    decreasing equation h(u) = 0 in u = b_dove^beta:
    h(u) = (2a - |1 - kappa^beta| u) beta B - 4a^2 u^((1-beta)/beta).
    h(0) > 0, and h <= 0 at the dove's zero-gap effort, which brackets it.
    The outer root then matches p to the noise CDF at the resulting gap.
    The inner root depends on p only through (A, B), so each value pair is
    solved once: a constant pair (one mixed match) needs one inner root.
    Returns the efforts (hawk, dove), p and the values (A, B) at p.
    """
    a, beta = csf.half_width, csf.f_exponent
    roots: dict[tuple[float, float], tuple[float, float]] = {}

    def efforts(p: float) -> tuple[float, float]:
        pair = _positive_values(values, p)
        if pair not in roots:
            roots[pair] = inner(*pair)
        return roots[pair]

    def inner(a_val: float, b_val: float) -> tuple[float, float]:
        kappa = (a_val / b_val) ** (1.0 / (1.0 - beta))
        slope = abs(1.0 - kappa ** beta)

        def h(u: float) -> float:
            return ((2.0 * a - slope * u) * beta * b_val
                    - 4.0 * a * a * u ** ((1.0 - beta) / beta))

        u_hi = base_effort(csf, b_val) ** beta
        bd = _brent(h, 0.0, u_hi, h(0.0), h(u_hi)) ** (1.0 / beta)
        return kappa * bd, bd

    def phi(p: float) -> float:
        bh, bd = efforts(p)
        return csf._cdf_float(bh ** beta - bd ** beta)

    bh, bd = efforts(_brent(lambda p: phi(p) - p, 0.0, 1.0, phi(0.0), phi(1.0) - 1.0))
    gap = bh ** beta - bd ** beta
    p = csf._cdf_float(gap)
    a_val, b_val = _positive_values(values, p)
    if not (bh > 0.0 and bd > 0.0):
        raise SolverError(
            f"semifinal effort left the float range: hawk {bh:.3g}, dove {bd:.3g}")
    try:
        slope_h, slope_d = bh ** (beta - 1.0), bd ** (beta - 1.0)
    except OverflowError:
        # beta - 1 < 0, so the smaller effort's power overflows first
        who, b = ("hawk", bh) if bh <= bd else ("dove", bd)
        raise SolverError(
            f"semifinal {who} effort {b:.3g} left the float range: its "
            f"marginal performance b**(beta-1) overflows at beta={beta:g}") from None
    dens = csf._density_float(gap)
    _certify(max(abs(dens * beta * slope_h * a_val - 1.0),
                 abs(dens * beta * slope_d * b_val - 1.0)), settings)
    return bh, bd, p, a_val, b_val


@_record
class MatchSolution:
    """One semifinal: strategies, win odds and value flows, in slot order."""

    types: tuple[str, str]
    efforts: tuple[Effort, Effort]
    effective: tuple[float, float]
    win_probs: tuple[float, float]
    values: tuple[float, float]
    payoffs: tuple[float, float]
    hawk_advance_prob: float


@_record
class SpeSolution:
    """Interior equilibrium candidate for the full tournament."""

    spec: TournamentSpec
    stage2: Stage2Solution
    matches: tuple[MatchSolution, MatchSolution]
    win_probs: tuple[float, float, float, float]

    @property
    def types(self) -> tuple[str, str, str, str]:
        return self.matches[0].types + self.matches[1].types

    @property
    def semifinal_win_probs(self) -> tuple[float, float, float, float]:
        return self.matches[0].win_probs + self.matches[1].win_probs

    @property
    def payoffs(self) -> tuple[float, float, float, float]:
        return self.matches[0].payoffs + self.matches[1].payoffs

    @property
    def type_win_probs(self) -> dict[str, float]:
        acc = {HAWK: 0.0, DOVE: 0.0}
        for t, w in zip(self.types, self.win_probs):
            acc[t] += w
        return acc


def _title_probs(w) -> tuple[float, float, float, float]:
    """Tournament win probability per player from the four semifinal win
    probabilities, enumerating the bracket tree.  Every final pairing is a
    50/50 contest at the common effective effort, so each final branch
    splits its reach probability evenly."""
    probs = [0.0, 0.0, 0.0, 0.0]
    for i in (0, 1):
        for j in (2, 3):
            reach = w[i] * w[j]
            probs[i] += 0.5 * reach
            probs[j] += 0.5 * reach
    return tuple(probs)


# the final pairings each of the sixteen normalized brackets can reach,
# sorted
_REACHABLE_PAIRINGS: dict[Bracket, tuple[str, ...]] = {
    (types[:2], types[2:]): tuple(sorted({t0 + t1 if t0 == t1 else "HD"
                                          for t0 in set(types[:2])
                                          for t1 in set(types[2:])}))
    for types in itertools.product((HAWK, DOVE), repeat=4)}


_MENU_FLOORS = {
    "DD": (("dove against dove", "dove_vs_dove"),),
    "HH": (("hawk against hawk", "hawk_vs_hawk"),),
    "HD": (("hawk against dove", "hawk_vs_dove"), ("dove against hawk", "dove_vs_hawk")),
}


def _check_reachable_menu(spec: TournamentSpec, stage2: Stage2Solution) -> None:
    """Refuse a bracket whose reachable final pays a finalist nothing, and
    name the side of the prize.  A final payoff is v/2 - b(v) - k with
    k >= 0 fixed, so it falls in v, and the prize is too large, where
    b'(v) > 1/2: never under the ratio CSF, where b'(v) = r/4, and where
    b(v) > (1-beta) v/2 under the noise CSF, where b'(v) = b(v)/((1-beta) v)."""
    for pairing in _REACHABLE_PAIRINGS[spec.bracket]:
        for label, attr in _MENU_FLOORS[pairing]:
            value = getattr(stage2.menu, attr)
            if value <= 0:
                falls = (isinstance(spec.csf, ProbitUniformCsf) and stage2.base_effort
                         > (1.0 - spec.csf.f_exponent) * spec.prize / 2.0)
                raise InteriorityError(
                    f"prize too {'large' if falls else 'small'}: expected final "
                    f"payoff {label} is {value:.6g}, so finalists would rather "
                    f"drop out")


def _mixed_matches(spec: TournamentSpec, values, pools) -> tuple[MatchSolution, ...]:
    """Solve the mixed semifinal whose (hawk, dove) continuation values are
    values(p) at hawk win probability p, once per pool in that pool's slot
    order.  The hawk sabotages at c'(s1) = A/B, and the dove pads its
    productive effort by s1.  The hawk's outlay is its effective effort
    (nobody sabotages a hawk in a mixed match) plus the bill c(s1); the
    dove pays its padded effort b_dove + s1 outright."""
    if isinstance(spec.csf, TullockCsf):
        b_hawk, b_dove, p_hawk, a_val, b_val = _ratio_root(values, spec.csf.r, spec.solver)
    else:
        b_hawk, b_dove, p_hawk, a_val, b_val = _noise_root(values, spec.csf, spec.solver)
    s1 = _sabotage_level(spec.cost, a_val / b_val)
    hawk = (HAWK, Effort(b_hawk, s1), b_hawk, p_hawk, a_val,
            p_hawk * a_val - _sabotage_cost(spec.cost, s1) - b_hawk)
    dove = (DOVE, Effort(b_dove + s1, 0.0), b_dove, 1.0 - p_hawk, b_val,
            (1.0 - p_hawk) * b_val - (b_dove + s1))
    # pools in the same slot order share one record
    by_pool = {}
    for pool in pools:
        if pool not in by_pool:
            by_pool[pool] = MatchSolution(
                *zip(*((hawk, dove) if pool[0] == HAWK else (dove, hawk))), p_hawk)
    return tuple(by_pool[pool] for pool in pools)


def _same_type_match(csf, match_type: str, value: float, s: float,
                     c: float) -> MatchSolution:
    """Two players of one type: a 50/50 contest at the base effort for the
    prize value, each hawk paying sabotage s at cost c on top."""
    b = base_effort(csf, value)
    slot = (match_type, Effort(b + s, s), b, 0.5, value, 0.5 * value - c - (b + s))
    return MatchSolution(*zip(slot, slot), float(match_type == HAWK))


def solve_tournament(spec: TournamentSpec) -> SpeSolution:
    """Backward-induct the full tournament to its interior candidate.

    Raises InteriorityError when the prize cannot support positive
    continuation values on the reachable part of the bracket, naming
    whether it is too small or too large, SolverError when a semifinal
    root fails to certify.  Global optimality of the returned candidate is
    checked separately by the verification module.
    """
    stage2 = solve_stage2(spec.csf, spec.cost, spec.prize)
    menu = stage2.menu
    _check_reachable_menu(spec, stage2)

    pools = spec.bracket
    mixed = [set(pool) == {HAWK, DOVE} for pool in pools]
    if all(mixed):
        # identical mixed semifinals: symmetry ties the parallel hawk
        # probability to the own win probability, one scalar fixed point;
        # the values are _continuation_values' arithmetic at q = p
        hh, hd = menu.hawk_vs_hawk, menu.hawk_vs_dove
        dh, dd = menu.dove_vs_hawk, menu.dove_vs_dove
        matches = _mixed_matches(
            spec, lambda p: (p * hh + (1.0 - p) * hd, p * dh + (1.0 - p) * dd), pools)
    else:
        # at most one mixed match; the other one sends up a hawk with
        # probability 1 or 0, so the mixed match is solved first against it
        first = mixed.index(True) if any(mixed) else 0
        solved = {}
        advance = 0.0
        for i in (first, 1 - first):
            ab = _continuation_values(menu, advance, pools[1 - i])
            if mixed[i]:
                solved[i] = _mixed_matches(spec, lambda _p: ab, pools[i:i + 1])[0]
            elif pools[i][0] == HAWK:
                s = stage2.sabotage
                solved[i] = _same_type_match(spec.csf, HAWK, ab[0], s,
                                             _sabotage_cost(spec.cost, s))
            else:
                solved[i] = _same_type_match(spec.csf, DOVE, ab[1], 0.0, 0.0)
            advance = solved[i].hawk_advance_prob
        matches = (solved[0], solved[1])

    return SpeSolution(spec=spec, stage2=stage2, matches=matches,
                       win_probs=_title_probs(matches[0].win_probs
                                              + matches[1].win_probs))
