"""Correctness checks run once before any timing.

Every expected value is copied from the repository's oracle: the frozen
values in tests/ and the reference rows in tourney.cli (_ratio_rows and
_noise_rows), which come from the independent mpmath checks.  They are
copied rather than read from the package so that the program under test
cannot move its own reference.  Never re-freeze them to match new output.
"""

from __future__ import annotations

import math

from workloads import build_spec

# (label, expected, absolute tolerance, computed); tolerance 0 is exact
Row = tuple[str, float, float, float]

RATIO = {"prize": 80.0, "csf": {"type": "tullock", "r": 1.0},
         "cost": {"exponent": 3.0, "divisor": 12.0}}
NOISE = {"prize": 20.0,
         "csf": {"type": "probit_uniform", "half_width": 5.0, "f_exponent": 0.5},
         "cost": {"exponent": 3.0, "divisor": 27.0}}

RATIO_P_STAR = 0.49107995363148747
ALT_BRACKETS = {
    "HD/HH": ((("H", "D"), ("H", "H")), (13 / 53, 27 / 106, 0.25, 0.25)),
    "HD/DD": ((("H", "D"), ("D", "D")), (29 / 118, 15 / 59, 0.25, 0.25)),
}
GOLDEN_WINS = {
    "direct": (24418, 25282, 24748, 25552),
    "structural": (24540, 25417, 24441, 25602),
}
GOLDEN_SIM = {"trials": 100_000, "seed": 7}


def golden_rows(tourney) -> list[Row]:
    """Compute every checked quantity: (label, expected, tolerance, computed)."""
    rows: list[Row] = []
    sol = tourney.solve_tournament(build_spec(tourney, RATIO))
    rows += [
        ("ratio final base effort", 20.0, 1e-9, sol.stage2.base_effort),
        ("ratio final sabotage", 2.0, 1e-9, sol.stage2.sabotage),
        ("ratio semifinal fixed point p*", RATIO_P_STAR, 1e-9,
         sol.matches[0].hawk_advance_prob),
    ]
    for mode, wins in GOLDEN_WINS.items():
        result = tourney.simulate_tournament(
            sol, tourney.SimConfig(mode=mode, **GOLDEN_SIM))
        rows += [(f"golden {mode} wins, player {k}", float(want), 0.0,
                  float(got)) for k, (want, got) in enumerate(zip(wins, result.wins))]

    for label, (bracket, expected) in ALT_BRACKETS.items():
        alt = tourney.solve_tournament(build_spec(tourney, {**RATIO, "bracket": bracket}))
        rows += [(f"{label} win probability, player {k}", want, 1e-9, got)
                 for k, (want, got) in enumerate(zip(expected, alt.win_probs))]

    noise = tourney.solve_tournament(build_spec(tourney, NOISE))
    m = noise.matches[0]
    rows += [
        ("noise final base effort", 1.0, 1e-9, noise.stage2.base_effort),
        ("noise final sabotage", 3.0, 1e-9, noise.stage2.sabotage),
        ("noise sqrt hawk effective effort", 0.324124, 5e-6, m.effective[0] ** 0.5),
        ("noise sqrt dove effective effort", 0.373875, 5e-6, m.effective[1] ** 0.5),
        ("noise semifinal hawk win probability", 0.495, 5e-4, m.hawk_advance_prob),
        ("noise hawk continuation value", 6.515, 5e-4, m.values[0]),
        ("noise dove continuation value", 7.515, 5e-4, m.values[1]),
        ("noise semifinal sabotage", 2.79, 5e-3, m.efforts[0].s),
        ("noise semifinal hawk payoff", 2.3, 0.05, m.payoffs[0]),
        ("noise semifinal dove payoff", 0.86, 5e-3, m.payoffs[1]),
    ]
    return rows


def mismatches(rows: list[Row]) -> list[str]:
    """Rows whose computed value misses the expected one; NaN always misses."""
    out = []
    for label, expected, tol, got in rows:
        if not (math.isfinite(got) and abs(got - expected) <= tol):
            out.append(f"{label}: expected {expected!r} (+-{tol:g}), got {got!r}")
    return out
