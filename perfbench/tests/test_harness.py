"""Tests of the benchmark harness itself, not of the package.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
import tracing
import workloads
import tourney

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Generators.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make", [workloads.solve_sweep_inputs,
                                  workloads.certify_sweep_inputs])
def test_same_seed_same_inputs(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_pipeline_seeds_are_derived_from_the_workload_seed():
    assert workloads.pipeline_seed(5, 2, 1) == workloads.pipeline_seed(5, 2, 1)
    seeds = {workloads.pipeline_seed(5, p, k) for p in range(4) for k in range(5)}
    assert len(seeds) == 20
    assert workloads.pipeline_seed(6, 0, 0) != workloads.pipeline_seed(5, 0, 0)


def test_solve_sweep_mix_is_the_same_for_every_seed():
    def mix(seed):
        inputs = workloads.solve_sweep_inputs(seed)
        shapes = Counter((d["csf"]["type"], d["csf"].get("r", d["csf"].get("f_exponent")))
                         for d in inputs)
        brackets = Counter((d["csf"]["type"], json.dumps(d["bracket"])) for d in inputs)
        return shapes, brackets

    shapes, brackets = mix(1)
    assert mix(2) == (shapes, brackets)
    assert len(shapes) == 4 + 3
    assert len(brackets) == 2 * 16
    mixed = brackets[("tullock", json.dumps([["H", "D"], ["H", "D"]]))]
    assert mixed == 4 * brackets[("tullock", json.dumps([["H", "H"], ["D", "D"]]))]
    families = [d["csf"]["type"] for d in workloads.solve_sweep_inputs(1)]
    assert families[:4] == ["tullock", "probit_uniform"] * 2
    assert len(families) == 2 * workloads.SOLVE_FAMILY_SIZE


def test_prizes_span_at_least_a_decade_per_family():
    inputs = workloads.solve_sweep_inputs(1)
    for family in ("tullock", "probit_uniform"):
        ratios = [d["prize"] / _base_prize(d) for d in inputs
                  if d["csf"]["type"] == family]
        assert max(ratios) / min(ratios) > 4.0
    spread = [d["prize"] for d in inputs]
    assert max(spread) / min(spread) > 10.0


def _base_prize(d):
    csf, cost = d["csf"], d["cost"]
    if csf["type"] == "tullock":
        return workloads._ratio_seed_prize(csf["r"], cost["exponent"], cost["divisor"])
    # the noise reference prize does not depend on the sabotage cost
    return workloads._noise_reference(csf["f_exponent"], csf["half_width"],
                                      cost["exponent"], 0.4)[0]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_solve_sweep_spec_solves_cleanly(seed):
    sweep = workloads.SolveSweep(tourney, seed)
    for i in range(len(sweep)):
        outcome = sweep.check(i, sweep.op(i))
        assert outcome.violations == [], (i, sweep.inputs[i])


def test_certify_sweep_runs_without_failures():
    sweep = workloads.CertifySweep(tourney, 1)
    verdicts = Counter()
    for i in range(len(sweep)):
        outcome = sweep.check(i, sweep.op(i))
        assert outcome.violations == [], i
        verdicts[outcome.verdict] += 1
    assert verdicts["accepted"] > len(sweep) // 2


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------

def test_self_time_on_a_hand_built_tree():
    #  0 [0, 10]
    #  +- 1 [1, 4]
    #  |  +- 3 [2, 3]
    #  +- 2 [5, 9]
    #     +- 4 [5, 6]  and 5 [5.5, 7]: overlapping children count once
    #  6 [11, 12]  a second root
    start = [0.0, 1.0, 5.0, 2.0, 5.0, 5.5, 11.0]
    end = [10.0, 4.0, 9.0, 3.0, 6.0, 7.0, 12.0]
    parent = [-1, 0, 0, 1, 2, 2, -1]
    got = tracing.self_times(start, end, parent)
    assert got == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.5, 1.0])


def test_self_time_clips_children_to_the_parent():
    got = tracing.self_times([0.0, -1.0], [2.0, 1.0], [-1, 0])
    assert got == pytest.approx([1.0, 2.0])


def test_layer_metrics_on_a_hand_built_table():
    table = {
        "name": ["verification.gate", "stage1.ratio", "primitives",
                 "verification.audit", "stage1.noise", "simulate.direct"],
        "start": [0.0, 0.001, 0.002, 0.004, 0.010, 0.020],
        "end": [0.009, 0.003, 0.0025, 0.008, 0.012, 0.030],
        "parent": [-1, 0, 1, 0, -1, -1],
        "op": [0, 0, 0, 0, 1, 2],
        "notes": {0: True, 3: (False, 1000), 5: 1000},
        "errors": {4: "InteriorityError"},
    }
    m = tracing.layer_metrics(table)
    assert m["verification.gate.calls"] == 1
    assert m["verification.gate.probes"] == 1
    assert m["verification.gate.self_ms"] == pytest.approx(3.0)
    assert m["stage1.self_ms"] == pytest.approx(1.5 + 2.0)
    assert m["stage1.refused"] == 1 and m["stage1.failed"] == 0
    assert m["verification.audit.accept_ratio"] == 0.0
    assert m["verification.oracle.points"] == 1000
    assert m["simulate.ns_per_trial.direct"] == pytest.approx(1e4)
    assert m["simulate.bytes_per_trial"] == 24.0


def test_tracer_restores_every_patch_and_counts_repeat():
    originals = (tourney.solve_tournament, tourney.cli.run,
                 tourney.primitives.PowerCost.cost)
    spec = workloads.build_spec(tourney, checks.RATIO)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracing.install(tracer, tourney)
        try:
            tourney.verify_solution(tourney.solve_tournament(spec), grid=64)
        finally:
            tracer.restore()
        counts.append(tracing.layer_metrics(tracer.table()))
    assert (tourney.solve_tournament, tourney.cli.run,
            tourney.primitives.PowerCost.cost) == originals
    assert counts[0]["primitives.calls"] == counts[1]["primitives.calls"] > 0
    assert counts[0]["verification.audit.calls"] == 1


def test_op_times_scale_by_the_probes_around_them():
    raw = [[1.0, 2.0], [3.0]]
    segment = [[0, 1], [1]]
    probes = [1.0, 3.0, 1.0]
    got = run.scale_by_probes(raw, segment, probes, reference=4.0)
    assert got == [[2.0, 4.0], [6.0]]


def test_yardstick_has_a_probe_for_every_workload():
    import yardstick
    assert set(yardstick.REFERENCE_S) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert yardstick.probe(name) > 0.0


def test_harness_import_leaves_numpy_to_tourney():
    # numpy must load inside the timed set-up and after the thread pins
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                          timeout=60)
    assert proc.returncode == 0


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(k) for k in range(100)])
    assert value == 89.0 and pct == 90.0 and beyond == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# ----------------------------------------------------------------------
# Correctness checks reject perturbed values.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden():
    return checks.golden_rows(tourney)


def test_golden_rows_pass_on_the_package(golden):
    assert checks.mismatches(golden) == []
    labels = [row[0] for row in golden]
    assert any("p*" in label for label in labels)
    assert sum("golden" in label for label in labels) == 8
    assert sum("HD/" in label for label in labels) == 8


def test_every_golden_row_rejects_a_perturbed_value(golden):
    for k, (label, expected, tol, got) in enumerate(golden):
        # just outside the tolerance; an exact row (tol 0) moves by 1e-9
        step = 1.01 * tol + 1e-9 * max(1.0, abs(expected))
        for bad in (expected + step, expected - step, math.nan):
            rows = list(golden)
            rows[k] = (label, expected, tol, bad)
            assert len(checks.mismatches(rows)) == 1, (label, bad)


def _match(types, win_probs, values, effective, p):
    return SimpleNamespace(types=types, win_probs=win_probs, values=values,
                           effective=effective, hawk_advance_prob=p)


def test_solution_invariants_reject_perturbed_values():
    data = {"csf": {"type": "tullock", "r": 1.0}}
    sol = tourney.solve_tournament(workloads.build_spec(tourney, checks.RATIO))
    assert workloads.solution_violations(data, sol, 1e-10) == []

    m = sol.matches[0]
    off = _match(m.types, (m.win_probs[0] + 1e-9, m.win_probs[1]), m.values,
                 m.effective, m.hawk_advance_prob)
    bad = SimpleNamespace(matches=(off, sol.matches[1]), win_probs=sol.win_probs)
    assert any("sum" in v for v in workloads.solution_violations(data, bad, 1e-10))
    shifted = _match(m.types, m.win_probs, m.values, m.effective,
                     m.hawk_advance_prob + 1e-8)
    bad = SimpleNamespace(matches=(shifted, sol.matches[1]), win_probs=sol.win_probs)
    assert any("residual" in v for v in workloads.solution_violations(data, bad, 1e-10))
    bad = SimpleNamespace(matches=sol.matches,
                          win_probs=sol.win_probs[:3] + (sol.win_probs[3] + 1e-9,))
    assert any("tournament" in v for v in workloads.solution_violations(data, bad, 1e-10))


def test_noise_fixed_point_residual_rejects_a_perturbed_effort():
    data = checks.NOISE
    sol = tourney.solve_tournament(workloads.build_spec(tourney, data))
    m = sol.matches[0]
    assert workloads.mixed_match_residual(data["csf"], m) <= 1e-10
    nudged = _match(m.types, m.win_probs, m.values,
                    (m.effective[0] * (1 + 1e-6), m.effective[1]), m.hawk_advance_prob)
    assert workloads.mixed_match_residual(data["csf"], nudged) > 1e-10


def test_certificate_invariants_reject_perturbed_values():
    sol = tourney.solve_tournament(workloads.build_spec(tourney, checks.RATIO))
    report = tourney.verify_solution(sol, grid=64)
    assert workloads.certificate_violations(sol, report) == []
    gains = dict(report.oracle_gains, extra=2e-6)
    assert workloads.certificate_violations(
        sol, SimpleNamespace(oracle_gains=gains))
    m = sol.matches[0]
    swapped = _match(m.types, m.win_probs, m.values, m.effective[::-1],
                     m.hawk_advance_prob)
    fake = SimpleNamespace(matches=(swapped,), type_win_probs={"D": 0.5})
    assert len(workloads.certificate_violations(fake, report)) == 2


def test_json_check_rejects_nan(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"x": 1.5}')
    bad.write_text('{"x": NaN}')
    assert workloads.json_violations(good) == []
    assert workloads.json_violations(bad)
    bad.write_text('{"x": -Infinity}')
    assert workloads.json_violations(bad)


def test_pipeline_check_rejects_wrong_exit_codes_and_counts(tmp_path):
    pipe = workloads.ScenarioPipeline(tourney, 1, ROOT / "src" / "tourney" / "scenarios",
                                      tmp_path)
    for k in range(len(pipe.scenarios)):
        for step in ("solve", "verify"):
            pipe._out(k, step).write_text("{}")
        pipe._out(k, "simulate").write_text('{"wins": [1, 2, 3, 4], "trials": 10}')
    codes = [(0, want, 0) for _, want in pipe.scenarios]
    assert pipe.check(0, codes).violations == []
    wrong = list(codes)
    wrong[1] = (0, 0, 0)  # example2 must be rejected by verify
    assert len(pipe.check(0, wrong).violations) == 1
    pipe._out(2, "simulate").write_text('{"wins": [1, 2, 3, 5], "trials": 10}')
    assert len(pipe.check(0, codes).violations) == 1


# ----------------------------------------------------------------------
# The declared benchmark matches the harness.
# ----------------------------------------------------------------------

def test_benchmark_json_declares_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
