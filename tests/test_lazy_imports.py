"""Which modules a caller loads and which names the package exports: the
audit, the Monte Carlo engine and the CLI load only when used.  Each
import-set test runs a fresh interpreter, because this one has imported
every layer already."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import tourney

EXAMPLE = str(Path(tourney.__file__).parent / "scenarios" / "example1.json")
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the pipeline: inputs, solver, audit, gate, simulation, reports, errors
PUBLIC = (
    "DOVE", "HAWK", "MODES", "FOC_TOLERANCE", "GAIN_TOLERANCE",
    "Csf", "TullockCsf", "ProbitUniformCsf", "PowerCost",
    "TournamentSpec", "SolverSettings", "SimConfig",
    "InteriorityError", "ParameterError", "SolverError",
    "solve_tournament", "SpeSolution", "MatchSolution", "Stage2Solution",
    "PayoffMenu", "Effort",
    "verify_solution", "VerificationReport", "existence_gate", "GateResult",
    "simulate_tournament", "SimResult", "parse_scenario",
)


def run_python(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def last_line(code):
    """The JSON value a fresh interpreter prints last after running code."""
    return json.loads(run_python("-c", code).stdout.splitlines()[-1])


def test_solving_loads_only_the_solver():
    loaded = last_line("""
import json, sys
import tourney
solution = tourney.solve_tournament(tourney.TournamentSpec(
    prize=80.0, csf=tourney.TullockCsf(r=1.0), cost=tourney.PowerCost(3.0, 12.0)))
assert solution.type_win_probs["D"] > 0.5
print(json.dumps(sorted(m for m in sys.modules if m.startswith("tourney"))))
""")
    assert loaded == ["tourney", "tourney.errors", "tourney.primitives",
                      "tourney.stage1", "tourney.stage2"]


def imported(*argv):
    """Modules a `python -X importtime` run of argv imports, by name."""
    proc = run_python("-X", "importtime", *argv)
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_cli_solve_loads_no_audit():
    modules = imported("-m", "tourney", "solve", EXAMPLE)
    assert "tourney.cli" in modules and "tourney.stage1" in modules
    assert "tourney.verification" not in modules
    assert "tourney.verification" in imported("-m", "tourney", "verify", EXAMPLE)


def test_every_public_name_resolves():
    result = last_line("""
import json, sys
import tourney
listed = set(dir(tourney))
missing = [n for n in tourney.__all__ if n not in listed]
layers = [n for n in ("verification", "simulate", "cli") if n not in listed]
before = sorted(m for m in sys.modules if m.startswith("tourney."))
namespace = {}
exec("from tourney import *", namespace)
star = [n for n in tourney.__all__ if namespace.get(n) is not getattr(tourney, n)]
print(json.dumps([missing, layers, before, star,
                  [n for n in tourney.__all__ if n not in vars(tourney)],
                  tourney.__all__]))
""")
    missing, layers, before, star, unstored, public = result
    assert sorted(public) == sorted(PUBLIC)
    assert missing == [] and layers == []
    assert before == ["tourney.errors", "tourney.primitives",
                      "tourney.stage1", "tourney.stage2"]
    assert star == []
    # every resolved name is stored in the package
    assert unstored == []


def test_cli_calls_the_attribute_a_caller_patched():
    # the tracer's contract: replace an attribute, call cli.run, restore
    result = last_line(f"""
import contextlib, io, json, sys
import tourney.cli as cli
from tourney import SolverError

calls = []
def refuse(solution):
    calls.append("early")
    raise SolverError("patched before the audit loaded")

cli.verify_solution = refuse
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()) as err:
    early = cli.run(["verify", {EXAMPLE!r}])
loaded_early = "tourney.verification" in sys.modules
del cli.verify_solution

originals = {{}}
for name in ("verify_solution", "simulate_tournament"):
    original = originals[name] = getattr(cli, name)
    def traced(*args, _name=name, _fn=original, **kwargs):
        calls.append(_name)
        return _fn(*args, **kwargs)
    setattr(cli, name, traced)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(["verify", {EXAMPLE!r}]),
             cli.run(["simulate", {EXAMPLE!r}, "--trials", "1000"])]
    for name, original in originals.items():
        setattr(cli, name, original)
    codes += [cli.run(["verify", {EXAMPLE!r}]),
              cli.run(["simulate", {EXAMPLE!r}, "--trials", "1000"])]
print(json.dumps([early, err.getvalue(), loaded_early, codes, calls]))
""")
    early, err, loaded_early, codes, calls = result
    assert early == 3 and "patched before the audit loaded" in err
    assert loaded_early is False
    assert codes == [0, 0, 0, 0]
    assert calls == ["early", "verify_solution", "simulate_tournament"]


def test_public_api_is_the_pipeline():
    assert len(PUBLIC) == len(set(PUBLIC)) == 28
    assert sorted(tourney.__all__) == sorted(PUBLIC)
    deferred = {name for names in tourney._DEFERRED.values() for name in names}
    assert deferred <= set(PUBLIC)


def test_every_tracer_patch_point_exists_and_is_called():
    # perfbench's tracer patches module attributes by name; a missing one
    # fails its install, and one the package stopped calling reads zero
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, tourney)
        for owner, attr, original in tracer._patches:
            assert callable(original), (owner, attr)
        ratio = tourney.TournamentSpec(prize=80.0, csf=tourney.TullockCsf(r=1.0),
                                       cost=tourney.PowerCost(3.0, 12.0))
        tourney.verify_solution(tourney.solve_tournament(ratio), grid=64)
        tourney.existence_gate(ratio, grid=64)
        with contextlib.redirect_stdout(io.StringIO()):
            assert tourney.cli.run(["simulate", EXAMPLE, "--trials", "1000"]) == 0
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer.table())
    for name in ("primitives.calls", "stage2.calls", "stage1.calls",
                 "verification.foc.ms", "verification.soc.ms",
                 "verification.audit.calls", "verification.gate.calls",
                 "simulate.calls", "cli.self_ms"):
        assert metrics[name] > 0, name
