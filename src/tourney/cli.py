"""Command line front end.

Four subcommands cover the workflow: solve a scenario and export the
equilibrium candidate, verify it against the global deviation checks,
simulate it, and replicate the two reference scenarios against their
published figures.

A scenario file's blocks are the input records' own fields: the csf block
holds a `type` ('tullock' or 'probit_uniform') and that CSF's fields, and
the cost, solver and sim blocks hold the fields of `PowerCost`,
`SolverSettings` and `SimConfig`.  A field without a default is required,
any other key is an error, and one reader checks each value, the prize
included, against its field's declared type (float, int or str; never a
bool) before the record validates it.  An error names its block (`csf:`,
`cost:`, `solver:`, `sim:`), whether the reader or the record found it;
one from the spec itself (prize, bracket) names the file.  The JSON views
written by `--json` are built in one walk over each record, not by
`asdict`: a record becomes the dict of its fields, a tuple a list, and a
non-finite float null.  A solution's view adds the CSF `type` tag and its
derived win probabilities and payoffs, so its `spec` block reads back as
the scenario it came from; `simulate --json` is the one JSON form of a
simulation result.  Each subcommand's parser carries its handler, which
`run` calls.

Exit codes: 0 on success, 1 when verification or replication finds a
mismatch, 2 on bad input (malformed scenario files, unknown keys, bad
flags), 3 when no equilibrium candidate exists for the parameters or on a
solver or arithmetic failure.

The audit loads on the first `verify`, so `solve` and `simulate` never
import `tourney.verification`.  Its entry point stays a module attribute,
`verify_solution`, which a caller may replace; `verify` calls whatever the
attribute holds when it runs, like every other layer this module calls.
The Monte Carlo engine loads with the module, because `parse_scenario`
returns a `SimConfig` for every subcommand, but numpy does not: `solve`
and `replicate` never import it, and `verify` and `simulate` load it on
their first array.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from importlib import resources

from .errors import InteriorityError, ParameterError, SolverError
from .primitives import PowerCost, ProbitUniformCsf, TullockCsf
from .simulate import MODES, SimConfig, simulate_tournament
from .stage1 import (SolverSettings, SpeSolution, TournamentSpec,
                     solve_tournament)

CSV_HEADER = ("player", "type", "stage1_x", "stage1_s", "stage1_b",
              "stage1_p", "win_prob", "payoff")

_TOP_KEYS = {"prize", "csf", "cost", "bracket", "solver", "sim"}
_CSF_TYPES = {"tullock": TullockCsf, "probit_uniform": ProbitUniformCsf}


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


# the types a value of each declared field type may have, and their name
_KINDS = {"float": ((int, float), "a number"), "int": (int, "an integer"),
          "str": (str, "a string")}


def _read(obj, key: str, kind: str, where: str):
    """obj[key] as a value of the declared field type kind: 'float' takes
    an integer too and returns a float, and no field takes a bool."""
    value = obj[key]
    types, name = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        _fail(where, f"{key} must be {name}, got {value!r}")
    try:
        return float(value) if kind == "float" else value
    except OverflowError:
        _fail(where, f"{key} is an integer too large for a float")


def _arguments(cls, obj, where: str) -> dict:
    """The keyword arguments for cls given in the JSON object obj.  The
    record's fields are the allowed keys, those without a default are
    required, and each value is read by its declared type."""
    record = fields(cls)
    required = {f.name for f in record
                if f.default is MISSING and f.default_factory is MISSING}
    _check_keys(obj, {f.name for f in record}, required, where)
    return {f.name: _read(obj, f.name, f.type, where)
            for f in record if f.name in obj}


def _validated(cls, where: str, **arguments):
    """cls(**arguments), with a ParameterError from the record's own
    validation prefixed by where, as the reader prefixes its own."""
    try:
        return cls(**arguments)
    except ParameterError as exc:
        _fail(where, str(exc))


def _parse_csf(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        _fail("csf", "expected an object with a 'type' key")
    kind = obj["type"]
    # an unhashable type ([] or {}) must not reach the dict lookup
    if not isinstance(kind, str) or kind not in _CSF_TYPES:
        _fail("csf", f"unknown CSF type {kind!r} "
                     f"(expected {' or '.join(map(repr, _CSF_TYPES))})")
    cls = _CSF_TYPES[kind]
    fields_only = {key: value for key, value in obj.items() if key != "type"}
    return _validated(cls, "csf", **_arguments(cls, fields_only, "csf"))


def _scenario_from_dict(data, origin: str) -> tuple[TournamentSpec, SimConfig]:
    # the checks run in a fixed order, so a file with several faults always
    # reports the same first one
    _check_keys(data, _TOP_KEYS, {"prize", "csf", "cost"}, origin)
    csf = _parse_csf(data["csf"])
    cost = _validated(PowerCost, "cost", **_arguments(PowerCost, data["cost"], "cost"))
    solver = _arguments(SolverSettings, data.get("solver", {}), "solver")
    sim = _validated(SimConfig, "sim", **_arguments(SimConfig, data.get("sim", {}), "sim"))
    prize = _read(data, "prize", "float", origin)
    solver = _validated(SolverSettings, "solver", **solver)
    bracket = {"bracket": data["bracket"]} if "bracket" in data else {}
    spec = _validated(TournamentSpec, origin, prize=prize, csf=csf, cost=cost,
                      solver=solver, **bracket)
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

def _json_view(value):
    """value as JSON-ready data, built in one walk: a record becomes a dict
    of its fields, a tuple or list a list, a dict the view of its items,
    and a non-finite float None.  A rejected report can hold an inf or NaN
    residual, and strict JSON has no literal for either, so it is written
    as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_view(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_view(item) for item in value]
    if is_dataclass(value):
        return {f.name: _json_view(getattr(value, f.name)) for f in fields(value)}
    return value


def solution_to_dict(solution: SpeSolution):
    """JSON-ready view of a solved tournament: its fields, with the spec as
    a scenario file's blocks (the CSF block names its type), and its
    derived win probabilities and payoffs."""
    view = _json_view(solution)
    kind = next(k for k, cls in _CSF_TYPES.items()
                if isinstance(solution.spec.csf, cls))
    view["spec"]["csf"] = {"type": kind, **view["spec"]["csf"]}
    view.update(semifinal_win_probs=_json_view(solution.semifinal_win_probs),
                payoffs=_json_view(solution.payoffs),
                type_win_probs=_json_view(solution.type_win_probs))
    return view


def _write_json(path: str, view) -> None:
    """Write a JSON-ready view (see _json_view) as one string."""
    text = json.dumps(view, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote {path}")


def _players(solution: SpeSolution):
    """One row per player in CSV_HEADER's order: player, type, then six
    floats."""
    for player in range(4):
        match = solution.matches[player // 2]
        slot = player % 2
        effort = match.efforts[slot]
        yield (player, match.types[slot], effort.x, effort.s,
               match.effective[slot], match.win_probs[slot],
               solution.win_probs[player], match.payoffs[slot])


def _write_csv(path: str, solution: SpeSolution) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for player, kind, *values in _players(solution):
            writer.writerow([player, kind, *map(repr, values)])
    print(f"wrote {path}")


def _print_solution(solution: SpeSolution) -> None:
    menu = solution.stage2.menu
    print(f"final stage: base effort {solution.stage2.base_effort:.12g}, "
          f"sabotage {solution.stage2.sabotage:.12g}")
    print(f"final menu: DD {menu.dove_vs_dove:.12g} | H vs D {menu.hawk_vs_dove:.12g} | "
          f"D vs H {menu.dove_vs_hawk:.12g} | HH {menu.hawk_vs_hawk:.12g}")
    print(f"{'player':>6} {'type':>4} {'x':>14} {'s':>14} {'b':>14} "
          f"{'semifinal p':>14} {'win prob':>14} {'payoff':>14}")
    for player, kind, *values in _players(solution):
        print(f"{player:>6} {kind:>4} " + " ".join(f"{v:>14.8g}" for v in values))
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
    if args.csv:
        _write_csv(args.csv, solution)
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
        view = _json_view(report)
        view["solution"] = solution_to_dict(solution)
        _write_json(args.json, view)
    return 0 if report.interior_ok else 1


def _cmd_simulate(args) -> int:
    spec, sim = parse_scenario(args.scenario)
    sim = replace(sim, **{key: getattr(args, key) for key in ("trials", "seed", "mode")
                          if getattr(args, key) is not None})
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
        _write_json(args.json, _json_view(result))
    if args.csv:
        _write_csv(args.csv, solution)
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
        _write_json(args.json, _json_view({
            "ratio_scenario": {"rows": rows1, "asserted_rows_match": ok1},
            "noise_scenario": {"rows": rows2, "asserted_rows_match": ok2},
        }))
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
    p_solve.set_defaults(handler=_cmd_solve)
    p_solve.add_argument("scenario", help="path to a scenario JSON file")
    p_solve.add_argument("--json", help="write the solution to this JSON file")
    p_solve.add_argument("--csv", help="write the per-player table to this CSV file")

    p_verify = sub.add_parser("verify", help="run the global deviation checks")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("scenario", help="path to a scenario JSON file")
    p_verify.add_argument("--json", help="write the report to this JSON file")

    p_sim = sub.add_parser("simulate", help="Monte Carlo the solved tournament")
    p_sim.set_defaults(handler=_cmd_simulate)
    p_sim.add_argument("scenario", help="path to a scenario JSON file")
    p_sim.add_argument("--json", help="write the result to this JSON file")
    p_sim.add_argument("--csv", help="write the per-player table to this CSV file")
    p_sim.add_argument("--trials", type=int, help="override the trial count")
    p_sim.add_argument("--seed", type=int, help="override the seed")
    p_sim.add_argument("--mode", choices=MODES, help="override the sampling mode")

    p_rep = sub.add_parser("replicate",
                           help="compare both bundled scenarios to their "
                                "published reference figures")
    p_rep.set_defaults(handler=_cmd_replicate)
    p_rep.add_argument("--json", help="write the comparison to this JSON file")
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except InteriorityError as exc:
        print(f"error: no interior candidate: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"error: arithmetic failure: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
