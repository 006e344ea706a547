"""Command line front end.

Four subcommands cover the workflow: solve a scenario and export the
equilibrium candidate, verify it against the global deviation checks,
simulate it, and replicate the two reference scenarios against their
published figures.

Exit codes: 0 on success, 1 when verification or replication finds a
mismatch, 2 on bad input (malformed scenario files, unknown keys, bad
flags), 3 when no equilibrium candidate exists for the parameters or on a
solver or arithmetic failure.

The audit loads on the first `verify`, so `solve` and `simulate` never
import `tourney.verification`.  Its entry point stays a module attribute,
`verify_solution`, which a caller may replace; `verify` calls whatever the
attribute holds when it runs, like every other layer this module calls.
The Monte Carlo engine loads with the module, because `parse_scenario`
returns a `SimConfig` for every subcommand.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict
from importlib import resources

from .errors import InteriorityError, ParameterError, SolverError
from .primitives import PowerCost, ProbitUniformCsf, TullockCsf
from .simulate import MODES, SimConfig, simulate_tournament
from .stage1 import (SolverSettings, SpeSolution, TournamentSpec,
                     solve_tournament)

CSV_HEADER = ("player", "type", "stage1_x", "stage1_s", "stage1_b",
              "stage1_p", "win_prob", "payoff")

_TOP_KEYS = {"prize", "csf", "cost", "bracket", "solver", "sim"}
_SOLVER_KEYS = {"tolerance", "oracle_grid"}
_SIM_KEYS = {"trials", "seed", "mode"}


def __getattr__(name):
    """Load the audit on the first lookup of verify_solution."""
    if name != "verify_solution":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .verification import verify_solution
    globals()[name] = verify_solution
    return verify_solution


def _fail(where: str, message: str):
    raise ParameterError(f"{where}: {message}")


def _check_keys(obj, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        _fail(where, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        _fail(where, f"unknown key(s) {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        _fail(where, f"missing key(s) {missing}")


def _number(obj, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        _fail(where, f"{key} is an integer too large for a float")


def _integer(obj, key: str, where: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"{key} must be an integer, got {value!r}")
    return value


def _parse_csf(obj):
    where = "csf"
    if not isinstance(obj, dict) or "type" not in obj:
        _fail(where, "expected an object with a 'type' key")
    kind = obj["type"]
    if kind == "tullock":
        _check_keys(obj, {"type", "r"}, {"type"}, where)
        return TullockCsf(r=_number(obj, "r", where) if "r" in obj else 1.0)
    if kind == "probit_uniform":
        _check_keys(obj, {"type", "half_width", "f_exponent"},
                    {"type", "half_width", "f_exponent"}, where)
        return ProbitUniformCsf(half_width=_number(obj, "half_width", where),
                                f_exponent=_number(obj, "f_exponent", where))
    _fail(where, f"unknown CSF type {kind!r} (expected 'tullock' or 'probit_uniform')")


def _scenario_from_dict(data, origin: str) -> tuple[TournamentSpec, SimConfig]:
    _check_keys(data, _TOP_KEYS, {"prize", "csf", "cost"}, origin)
    csf = _parse_csf(data["csf"])
    _check_keys(data["cost"], {"exponent", "divisor"}, {"exponent", "divisor"}, "cost")
    cost = PowerCost(exponent=_number(data["cost"], "exponent", "cost"),
                     divisor=_number(data["cost"], "divisor", "cost"))

    solver_kwargs = {}
    if "solver" in data:
        _check_keys(data["solver"], _SOLVER_KEYS, set(), "solver")
        block = data["solver"]
        if "tolerance" in block:
            solver_kwargs["tolerance"] = _number(block, "tolerance", "solver")
        if "oracle_grid" in block:
            solver_kwargs["oracle_grid"] = _integer(block, "oracle_grid", "solver")

    sim_kwargs = {}
    if "sim" in data:
        _check_keys(data["sim"], _SIM_KEYS, set(), "sim")
        block = data["sim"]
        if "trials" in block:
            sim_kwargs["trials"] = _integer(block, "trials", "sim")
        if "seed" in block:
            sim_kwargs["seed"] = _integer(block, "seed", "sim")
        if "mode" in block:
            mode = block["mode"]
            if not isinstance(mode, str):
                _fail("sim", f"mode must be a string, got {mode!r}")
            sim_kwargs["mode"] = mode

    sim = SimConfig(**sim_kwargs)
    spec = TournamentSpec(
        prize=_number(data, "prize", origin),
        csf=csf,
        cost=cost,
        bracket=data.get("bracket", (("H", "D"), ("H", "D"))),
        solver=SolverSettings(**solver_kwargs),
    )
    return spec, sim


def parse_scenario(path) -> tuple[TournamentSpec, SimConfig]:
    """Read a scenario JSON file into a spec and a simulation config.

    Unknown keys are rejected rather than ignored, so typos fail loudly, and
    so are the non-standard literals NaN, Infinity and -Infinity.  A file
    that is not UTF-8 JSON, holds an integer longer than int() accepts or
    nests deeper than the parser can recurse is a ParameterError too.
    """

    def non_finite(literal: str):
        raise ParameterError(f"{path}: non-finite number {literal} is not allowed")

    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_constant=non_finite)
        except ParameterError:
            raise
        except ValueError as exc:
            # malformed JSON, bytes that are not UTF-8, or an integer
            # literal past Python's digit limit
            raise ParameterError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ParameterError(f"{path}: JSON nested too deeply") from exc
    return _scenario_from_dict(data, str(path))


# ----------------------------------------------------------------------
# Serialization helpers.
# ----------------------------------------------------------------------

def _csf_to_dict(csf):
    if isinstance(csf, TullockCsf):
        return {"type": "tullock", "r": csf.r}
    return {"type": "probit_uniform", "half_width": csf.half_width,
            "f_exponent": csf.f_exponent}


def _spec_to_dict(spec: TournamentSpec):
    return {
        "prize": spec.prize,
        "csf": _csf_to_dict(spec.csf),
        "cost": {"exponent": spec.cost.exponent, "divisor": spec.cost.divisor},
        "bracket": [list(m) for m in spec.bracket],
        "solver": asdict(spec.solver),
    }


def solution_to_dict(solution: SpeSolution):
    """JSON-ready view of a solved tournament."""
    stage2 = solution.stage2
    return {
        "spec": _spec_to_dict(solution.spec),
        "stage2": {
            "base_effort": stage2.base_effort,
            "sabotage": stage2.sabotage,
            "menu": asdict(stage2.menu),
            "profiles": {pairing: [asdict(e) for e in efforts]
                         for pairing, efforts in stage2.profiles.items()},
        },
        "matches": [
            {
                "types": list(match.types),
                "efforts": [asdict(e) for e in match.efforts],
                "effective": list(match.effective),
                "win_probs": list(match.win_probs),
                "values": list(match.values),
                "payoffs": list(match.payoffs),
                "hawk_advance_prob": match.hawk_advance_prob,
            }
            for match in solution.matches
        ],
        "semifinal_win_probs": list(solution.semifinal_win_probs),
        "win_probs": list(solution.win_probs),
        "payoffs": list(solution.payoffs),
        "type_win_probs": solution.type_win_probs,
    }


def _finite(value):
    """value with every non-finite float replaced by None: a rejected
    report can hold an inf or NaN residual, and strict JSON has no literal
    for either, so it is written as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_finite(payload), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")


def _write_csv(path: str, solution: SpeSolution) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for player in range(4):
            match = solution.matches[player // 2]
            slot = player % 2
            writer.writerow([
                player,
                match.types[slot],
                repr(match.efforts[slot].x),
                repr(match.efforts[slot].s),
                repr(match.effective[slot]),
                repr(match.win_probs[slot]),
                repr(solution.win_probs[player]),
                repr(match.payoffs[slot]),
            ])


def _print_solution(solution: SpeSolution) -> None:
    menu = solution.stage2.menu
    print(f"final stage: base effort {solution.stage2.base_effort:.12g}, "
          f"sabotage {solution.stage2.sabotage:.12g}")
    print(f"final menu: DD {menu.dove_vs_dove:.12g} | H vs D {menu.hawk_vs_dove:.12g} | "
          f"D vs H {menu.dove_vs_hawk:.12g} | HH {menu.hawk_vs_hawk:.12g}")
    print(f"{'player':>6} {'type':>4} {'x':>14} {'s':>14} {'b':>14} "
          f"{'semifinal p':>14} {'win prob':>14} {'payoff':>14}")
    for player in range(4):
        match = solution.matches[player // 2]
        slot = player % 2
        print(f"{player:>6} {match.types[slot]:>4} {match.efforts[slot].x:>14.8g} "
              f"{match.efforts[slot].s:>14.8g} {match.effective[slot]:>14.8g} "
              f"{match.win_probs[slot]:>14.8g} {solution.win_probs[player]:>14.8g} "
              f"{match.payoffs[slot]:>14.8g}")
    tw = solution.type_win_probs
    print(f"type win probabilities: dove {tw['D']:.12g}, hawk {tw['H']:.12g}")


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------

def _cmd_solve(args) -> int:
    spec, _ = parse_scenario(args.scenario)
    solution = solve_tournament(spec)
    _print_solution(solution)
    if args.json:
        _write_json(args.json, solution_to_dict(solution))
        print(f"wrote {args.json}")
    if args.csv:
        _write_csv(args.csv, solution)
        print(f"wrote {args.csv}")
    return 0


def _cmd_verify(args) -> int:
    spec, _ = parse_scenario(args.scenario)
    solution = solve_tournament(spec)
    # read off the module, not as a global name: the first verify loads the
    # audit, and a replaced attribute is the one called
    report = sys.modules[__name__].verify_solution(solution)
    print(f"first-order residual (max abs): "
          f"{max(abs(v) for v in report.foc_residuals.values()):.3e}")
    print(f"second-order curvature (max): {max(report.soc_values.values()):.6g}")
    corner = report.corner_gains.values()
    print("corner deviation gain (max): "
          + (f"{max(corner):.6g}" if corner else "n/a (no hawk)"))
    print(f"oracle deviation gain (max): {max(report.oracle_gains.values()):.6g}")
    for note in report.notes:
        print(f"  - {note}")
    verdict = "accepted" if report.interior_ok else "REJECTED"
    print(f"interior equilibrium: {verdict}")
    if args.json:
        payload = asdict(report)
        payload["solution"] = solution_to_dict(solution)
        _write_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0 if report.interior_ok else 1


def _cmd_simulate(args) -> int:
    spec, sim = parse_scenario(args.scenario)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        sim = SimConfig(**{**asdict(sim), **overrides})
    solution = solve_tournament(spec)
    result = simulate_tournament(solution, sim)
    print(f"{result.trials} trials, mode {result.mode}, seed {result.seed}")
    print(f"{'player':>6} {'wins':>10} {'freq':>12} {'expected':>12} "
          f"{'abs err':>10} {'99% band':>10}")
    covered = True
    for player in range(4):
        err = abs(result.freq[player] - result.expected[player])
        covered &= err <= result.ci99[player]
        print(f"{player:>6} {result.wins[player]:>10} {result.freq[player]:>12.6f} "
              f"{result.expected[player]:>12.6f} {err:>10.2e} "
              f"{result.ci99[player]:>10.2e}")
    print(f"type frequencies: dove {result.type_freq['D']:.6f} "
          f"(expected {result.type_expected['D']:.6f}), "
          f"hawk {result.type_freq['H']:.6f} "
          f"(expected {result.type_expected['H']:.6f})")
    print(f"all players within 99% bands: {'yes' if covered else 'no'}")
    if args.json:
        _write_json(args.json, asdict(result))
        print(f"wrote {args.json}")
    if args.csv:
        _write_csv(args.csv, solution)
        print(f"wrote {args.csv}")
    return 0


# Reference figures for the two bundled scenarios, quantity by quantity.
# Rows with a tolerance are asserted; rows without one are printed for
# comparison only, because the reference's own semifinal figures for the
# ratio scenario do not solve the reference's fixed-point equation (the
# computed column is the self-consistent solution; see README).

def _ratio_rows(solution: SpeSolution):
    match = solution.matches[0]
    return (
        ("final-stage base effort", 20.0, 1e-9, solution.stage2.base_effort),
        ("final-stage sabotage", 2.0, 1e-9, solution.stage2.sabotage),
        ("semifinal hawk win probability", 0.466, None, match.hawk_advance_prob),
        ("semifinal hawk effective effort", 4.13, None, match.effective[0]),
        ("semifinal dove effective effort", 4.73, None, match.effective[1]),
        ("semifinal sabotage", 1.97, None, match.efforts[0].s),
        ("semifinal hawk payoff", 3.8, 0.05, match.payoffs[0]),
        ("semifinal dove payoff", 3.46, None, match.payoffs[1]),
        ("dove tournament win probability", 0.534, None,
         solution.type_win_probs["D"]),
    )


def _noise_rows(solution: SpeSolution):
    match = solution.matches[0]
    return (
        ("final-stage base effort", 1.0, 1e-9, solution.stage2.base_effort),
        ("final-stage sabotage", 3.0, 1e-9, solution.stage2.sabotage),
        ("sqrt of hawk effective effort", 0.324124, 5e-6, match.effective[0] ** 0.5),
        ("sqrt of dove effective effort", 0.373875, 5e-6, match.effective[1] ** 0.5),
        ("semifinal hawk win probability", 0.495, 5e-4, match.hawk_advance_prob),
        ("hawk continuation value", 6.515, 5e-4, match.values[0]),
        ("dove continuation value", 7.515, 5e-4, match.values[1]),
        ("semifinal sabotage", 2.79, 5e-3, match.efforts[0].s),
        ("semifinal hawk payoff", 2.3, 0.05, match.payoffs[0]),
        ("semifinal dove payoff", 0.86, 5e-3, match.payoffs[1]),
    )


def _bundled_scenario(name: str):
    text = resources.files("tourney").joinpath(f"scenarios/{name}").read_text()
    return _scenario_from_dict(json.loads(text), f"bundled {name}")


def _replicate_section(title: str, rows) -> tuple[bool, list]:
    print(title)
    print(f"{'quantity':<34} {'reference':>12} {'computed':>16} {'status':<10}")
    all_hard_ok = True
    payload = []
    for label, reference, tolerance, computed in rows:
        if tolerance is None:
            status = "recorded"
        elif abs(computed - reference) <= tolerance:
            status = "ok"
        else:
            status = "MISMATCH"
            all_hard_ok = False
        print(f"{label:<34} {reference:>12g} {computed:>16.10g} {status:<10}")
        payload.append({"quantity": label, "reference": reference,
                        "computed": computed, "tolerance": tolerance,
                        "status": status})
    return all_hard_ok, payload


def _cmd_replicate(args) -> int:
    spec1, _ = _bundled_scenario("example1.json")
    spec2, _ = _bundled_scenario("example2.json")
    sol1 = solve_tournament(spec1)
    sol2 = solve_tournament(spec2)

    ok1, rows1 = _replicate_section("ratio CSF scenario (scenarios/example1.json)",
                                    _ratio_rows(sol1))
    print("  note: 'recorded' rows are shown for comparison only; the")
    print("  reference's semifinal figures do not solve its own fixed-point")
    print("  equation, and the computed column is the self-consistent root.")
    print()
    ok2, rows2 = _replicate_section("noise CSF scenario (scenarios/example2.json)",
                                    _noise_rows(sol2))
    print("  note: the interior candidate reproduces the reference figures,")
    print("  but global verification rejects it: bounded noise lets players")
    print("  free-ride on luck (try: tourney verify <scenarios/example2.json>).")

    all_ok = ok1 and ok2
    print()
    print(f"asserted rows: {'all match' if all_ok else 'MISMATCH FOUND'}")
    if args.json:
        _write_json(args.json, {
            "ratio_scenario": {"rows": rows1, "asserted_rows_match": ok1},
            "noise_scenario": {"rows": rows2, "asserted_rows_match": ok2},
        })
        print(f"wrote {args.json}")
    return 0 if all_ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every run."""
    parser = argparse.ArgumentParser(
        prog="tourney",
        description="Equilibria of four-player elimination tournaments "
                    "with sabotage.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario and print the candidate")
    p_solve.add_argument("scenario", help="path to a scenario JSON file")
    p_solve.add_argument("--json", help="write the solution to this JSON file")
    p_solve.add_argument("--csv", help="write the per-player table to this CSV file")

    p_verify = sub.add_parser("verify", help="run the global deviation checks")
    p_verify.add_argument("scenario", help="path to a scenario JSON file")
    p_verify.add_argument("--json", help="write the report to this JSON file")

    p_sim = sub.add_parser("simulate", help="Monte Carlo the solved tournament")
    p_sim.add_argument("scenario", help="path to a scenario JSON file")
    p_sim.add_argument("--json", help="write the result to this JSON file")
    p_sim.add_argument("--csv", help="write the per-player table to this CSV file")
    p_sim.add_argument("--trials", type=int, help="override the trial count")
    p_sim.add_argument("--seed", type=int, help="override the seed")
    p_sim.add_argument("--mode", choices=MODES, help="override the sampling mode")

    p_rep = sub.add_parser("replicate",
                           help="compare both bundled scenarios to their "
                                "published reference figures")
    p_rep.add_argument("--json", help="write the comparison to this JSON file")
    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "replicate": _cmd_replicate,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InteriorityError as exc:
        print(f"error: existence gate failed: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"error: arithmetic failure: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
