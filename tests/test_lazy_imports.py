"""Which modules a caller loads and which names the package exports: the
audit, the Monte Carlo engine and the CLI load only when used, and numpy
only when a caller first builds an array.  Each import-set test runs a
fresh interpreter, because this one has imported every layer already."""

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
    # both CSFs in every bracket seeding, and a refused spec: the whole solve
    # runs on Python floats
    result = last_line("""
import itertools, json, sys
from tourney import (InteriorityError, PowerCost, ProbitUniformCsf, TournamentSpec,
                     TullockCsf, solve_tournament)
specs = [TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0), cost=PowerCost(3.0, 12.0)),
         TournamentSpec(prize=20.0, csf=ProbitUniformCsf(5.0, 0.5),
                        cost=PowerCost(3.0, 27.0))]
solved = [solve_tournament(TournamentSpec(prize=spec.prize, csf=spec.csf, cost=spec.cost,
                                          bracket=(t[:2], t[2:])))
          for spec, t in itertools.product(specs, itertools.product("HD", repeat=4))]
try:
    solve_tournament(TournamentSpec(prize=1.0, csf=TullockCsf(r=1.0),
                                    cost=PowerCost(3.0, 12.0), bracket=("HH", "HH")))
    refused = False
except InteriorityError:
    refused = True
print(json.dumps([len(solved), refused, "numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.startswith("tourney"))]))
""")
    assert result == [32, True, False,
                      ["tourney", "tourney.errors", "tourney.primitives",
                       "tourney.stage1", "tourney.stage2"]]


def imported(*argv):
    """Modules a `python -X importtime` run of argv imports, by name."""
    proc = run_python("-X", "importtime", *argv)
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_cli_solve_loads_no_audit():
    modules = imported("-m", "tourney", "solve", EXAMPLE)
    assert "tourney.cli" in modules and "tourney.stage1" in modules
    assert "tourney.verification" not in modules and "numpy" not in modules
    verify = imported("-m", "tourney", "verify", EXAMPLE)
    assert "tourney.verification" in verify and "numpy" in verify
    assert "numpy" in imported("-m", "tourney", "simulate", EXAMPLE,
                               "--trials", "1000")


# each validated method on scalars, the first line being numpy's first user
VALIDATED = """
from tourney import PowerCost, ProbitUniformCsf, TullockCsf
from tourney.primitives import effective_effort
noise, cost = ProbitUniformCsf(5.0, 0.5), PowerCost(3.0, 12.0)
values = [TullockCsf().win_prob(1.0, 2.0),
          TullockCsf(r=0.5).win_prob_partials(1.0, 2.0),
          noise.win_prob(4.0, 1.0), noise.win_prob_partials(4.0, 1.0),
          noise.performance(2.0), noise.noise_diff_cdf(-1.5),
          noise.noise_diff_density(0.5), effective_effort(3.0, 1.25),
          cost.cost(2.0), cost.marginal(2.0), cost.marginal_inverse(0.5),
          cost.curvature(2.0)]
"""


def test_a_validated_method_loads_numpy_on_first_call():
    # eight threads race to be numpy's first user, each switching every
    # microsecond; each must read the values this process reads
    namespace = {}
    exec(VALIDATED, namespace)
    assert namespace["values"][0] == 1 / 3
    result = last_line(f"""
import json, sys, threading
import tourney.primitives as primitives
before = "numpy" in sys.modules
barrier, reprs = threading.Barrier(8), []
def first_user():
    namespace = {{}}
    barrier.wait()
    exec({VALIDATED!r}, namespace)
    reprs.append(repr(namespace["values"]))
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_user) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
import numpy
print(json.dumps([before, any(t.is_alive() for t in threads), reprs,
                  primitives.np is numpy]))
""")
    assert result == [False, False, [repr(namespace["values"])] * 8, True]


def test_simulate_loads_numpy_inside_its_workers():
    # past two chunks a run spreads over worker threads, which then hold
    # numpy's first lookups; the counts match this process's run
    code = """
from tourney import (PowerCost, SimConfig, TournamentSpec, TullockCsf,
                     simulate_tournament, solve_tournament)
from tourney.simulate import CHUNK
solution = solve_tournament(TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                                           cost=PowerCost(3.0, 12.0)))
wins = [simulate_tournament(solution, SimConfig(trials=2 * CHUNK + 1000, seed=7,
                                                mode=mode)).wins
        for mode in ("direct", "structural")]
"""
    namespace = {}
    exec(code, namespace)
    result = last_line(f"""
import json, sys
import tourney.simulate as simulate
before = "numpy" in sys.modules
exec({code!r})
import numpy
print(json.dumps([before, wins, simulate.np is numpy]))
""")
    assert result == [False, [list(w) for w in namespace["wins"]], True]


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
