"""Seeded inputs, operations and per-operation invariants of each workload.

Generators use only the standard library, so the same seed gives the same
inputs on every machine and numpy version.  They return plain dicts; the
library only ever sees the specs and scenario files built from them.

Continuous parameters are Latin-hypercube draws over each CSF family's share
of the pool, and discrete ones (decisiveness, performance exponent, bracket)
are balanced shuffles.  Two seeds therefore give pools with the same mix of
cheap and expensive inputs, which keeps the run-to-run spread small.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

WORKLOADS = ("solve-sweep", "certify-sweep", "scenario-pipeline")

RATIO_R = (0.25, 0.5, 0.75, 1.0)
NOISE_BETA = (0.3, 0.5, 0.7)
ALL_BRACKETS = tuple(((a, b), (c, d))
                     for a, b, c, d in itertools.product("HD", repeat=4))
# mixed/mixed seedings carry the symmetric fixed point, the solver's
# costliest path, so each counts four times in the bracket mix
MIXED_WEIGHT = 4
WEIGHTED_BRACKETS = tuple(
    b for b in ALL_BRACKETS
    for _ in range(MIXED_WEIGHT if set(b[0]) == set(b[1]) == {"H", "D"} else 1))

SOLVE_FAMILY_SIZE = 168     # a multiple of 4 r values, 3 betas, 28 brackets
CERTIFY_FAMILY_SIZE = 48    # a multiple of 4 r values and 3 betas
CERTIFY_GRID = 128
GAIN_TOLERANCE = 1e-6
SUM_TOLERANCE = 1e-12

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"
# (file, directory key, verify exit code the CLI must return)
PIPELINE_SCENARIOS = (
    ("example1.json", "bundled", 0),
    ("example2.json", "bundled", 1),
    ("noise_certified.json", "owned", 0),
    ("ratio_hd_hh.json", "owned", 0),
    ("ratio_hd_dd.json", "owned", 0),
)


# ----------------------------------------------------------------------
# Parameter draws.
# ----------------------------------------------------------------------

def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n Latin-hypercube draws from U(lo, hi): one per equal-width stratum."""
    order = list(range(n))
    rng.shuffle(order)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


def _balanced(rng: random.Random, values, n: int) -> list:
    """n entries cycling through values, shuffled; n must be a multiple."""
    if n % len(values):
        raise ValueError(f"{n} is not a multiple of {len(values)}")
    out = list(values) * (n // len(values))
    rng.shuffle(out)
    return out


def _ratio_seed_prize(r: float, exponent: float, divisor: float) -> float:
    """The acceptance grid's starting prize, 40 (s2 + c(s2)) / (2 - r)."""
    s2 = (divisor / exponent) ** (1.0 / (exponent - 1.0))
    return 40.0 * (s2 + s2 ** exponent / divisor) / (2.0 - r)


def _noise_reference(beta: float, width: float, exponent: float,
                     share: float) -> tuple[float, float]:
    """The acceptance grid's noise prize and cost divisor for one draw."""
    v_ref = (((1.0 - beta) / 2.0) ** ((1.0 - beta) / beta)
             * (2.0 * width / beta) ** (1.0 / beta))
    b_star = (beta * v_ref / (2.0 * width)) ** (1.0 / (1.0 - beta))
    b_ref = (beta * (v_ref / 2.0 - b_star) / (2.0 * width)) ** (1.0 / (1.0 - beta))
    s_target = share * b_ref * (1.0 - beta) / beta
    return v_ref, exponent * s_target ** (exponent - 1.0)


def _ratio_draws(rng: random.Random, n: int) -> list[dict]:
    rs = _balanced(rng, RATIO_R, n)
    exponents = _strata(rng, n, 1.5, 4.0)
    divisors = _strata(rng, n, 0.5, 30.0)
    return [{"csf": {"type": "tullock", "r": r},
             "cost": {"exponent": e, "divisor": d},
             "base_prize": _ratio_seed_prize(r, e, d)}
            for r, e, d in zip(rs, exponents, divisors)]


def _noise_draws(rng: random.Random, n: int) -> list[dict]:
    betas = _balanced(rng, NOISE_BETA, n)
    widths = _strata(rng, n, 2.0, 8.0)
    exponents = _strata(rng, n, 1.5, 4.0)
    shares = _strata(rng, n, 0.25, 0.55)
    out = []
    for beta, w, e, share in zip(betas, widths, exponents, shares):
        v_ref, divisor = _noise_reference(beta, w, e, share)
        out.append({"csf": {"type": "probit_uniform", "half_width": w,
                            "f_exponent": beta},
                    "cost": {"exponent": e, "divisor": divisor},
                    "base_prize": v_ref})
    return out


def _interleave(ratio: list, noise: list) -> list:
    return [item for pair in zip(ratio, noise) for item in pair]


def solve_sweep_inputs(seed: int) -> list[dict]:
    """Specs alternating ratio and noise CSF over every bracket seeding.

    Ratio prizes span two decades, 0.3x to 30x the acceptance grid's
    starting prize; noise prizes span 0.16x to 0.8x the grid's reference
    prize, where every seeding still has an interior candidate.
    """
    rng = random.Random(f"solve-sweep:{seed}")
    n = SOLVE_FAMILY_SIZE
    families = []
    for draws, (lo, hi) in ((_ratio_draws(rng, n), (-0.5, 1.5)),
                            (_noise_draws(rng, n), (-0.8, -0.1))):
        brackets = _balanced(rng, WEIGHTED_BRACKETS, n)
        logs = _strata(rng, n, lo, hi)
        families.append([
            {"prize": d["base_prize"] * 10.0 ** u, "csf": d["csf"],
             "cost": d["cost"], "bracket": [list(m) for m in b]}
            for d, b, u in zip(draws, brackets, logs)])
    return _interleave(*families)


def certify_sweep_inputs(seed: int) -> list[dict]:
    """Parameter sets drawn like the acceptance grid, ratio and noise
    alternating, each with a pre-drawn position inside the gate's window."""
    rng = random.Random(f"certify-sweep:{seed}")
    n = CERTIFY_FAMILY_SIZE
    ratio = _ratio_draws(rng, n)
    for d, m in zip(ratio, _strata(rng, n, 1.1, 4.0)):
        d["window"] = m
    noise = _noise_draws(rng, n)
    for d, u in zip(noise, _strata(rng, n, 0.0, 1.0)):
        d["window"] = u
    return [{"prize": d.pop("base_prize"), **d}
            for d in _interleave(ratio, noise)]


def pipeline_seed(seed: int, pass_index: int, scenario_index: int) -> int:
    """Simulation seed of one scenario in one pass, derived from the
    workload seed so that every pass draws fresh, reproducible numbers."""
    key = f"scenario-pipeline:{seed}:{pass_index}:{scenario_index}"
    return random.Random(key).randrange(2 ** 31)


# ----------------------------------------------------------------------
# Building library inputs.
# ----------------------------------------------------------------------

def build_spec(tourney, data: dict, solver=None):
    csf = data["csf"]
    if csf["type"] == "tullock":
        csf_obj = tourney.TullockCsf(r=csf["r"])
    else:
        csf_obj = tourney.ProbitUniformCsf(half_width=csf["half_width"],
                                           f_exponent=csf["f_exponent"])
    kwargs = {}
    if "bracket" in data:
        kwargs["bracket"] = tuple(tuple(m) for m in data["bracket"])
    if solver is not None:
        kwargs["solver"] = solver
    return tourney.TournamentSpec(
        prize=data["prize"], csf=csf_obj,
        cost=tourney.PowerCost(data["cost"]["exponent"],
                               data["cost"]["divisor"]), **kwargs)


class Outcome:
    """What one operation did: its verdict and any invariant violations."""

    __slots__ = ("verdict", "violations")

    def __init__(self, verdict: str, violations: list[str] | None = None):
        self.verdict = verdict
        self.violations = violations or []


# ----------------------------------------------------------------------
# Invariants, recomputed with plain floats rather than library calls.
# ----------------------------------------------------------------------

def _triangular_cdf(t: float, a: float) -> float:
    t = min(max(t, -2.0 * a), 2.0 * a)
    if t <= 0.0:
        return (2.0 * a + t) ** 2 / (8.0 * a * a)
    return 1.0 - (2.0 * a - t) ** 2 / (8.0 * a * a)


def mixed_match_residual(csf: dict, match) -> float:
    """Fixed-point residual of one mixed semifinal at the reported values.

    Ratio CSF: |A^r / (A^r + B^r) - p|.  Noise CSF: the larger of the two
    first-order residuals |f'(b) g(gap) V - 1| and the consistency gap
    between p and the noise CDF at the reported efforts.
    """
    h = match.types.index("H")
    d = 1 - h
    a_val, b_val = match.values[h], match.values[d]
    p = match.hawk_advance_prob
    if csf["type"] == "tullock":
        r = csf["r"]
        return abs(a_val ** r / (a_val ** r + b_val ** r) - p)
    a, beta = csf["half_width"], csf["f_exponent"]
    bh, bd = match.effective[h], match.effective[d]
    gap = bh ** beta - bd ** beta
    dens = max(0.0, 2.0 * a - abs(gap)) / (4.0 * a * a)
    return max(abs(dens * beta * bh ** (beta - 1.0) * a_val - 1.0),
               abs(dens * beta * bd ** (beta - 1.0) * b_val - 1.0),
               abs(_triangular_cdf(gap, a) - p))


def solution_violations(data: dict, sol, tolerance: float) -> list[str]:
    """Probabilities sum to one and every mixed match solves its fixed point."""
    out = []
    for mi, match in enumerate(sol.matches):
        total = match.win_probs[0] + match.win_probs[1]
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            out.append(f"semifinal {mi} win probabilities sum to {total!r}")
        if set(match.types) == {"H", "D"}:
            res = mixed_match_residual(data["csf"], match)
            if not res <= tolerance:
                out.append(f"semifinal {mi} fixed-point residual {res:.3g}")
    total = sum(sol.win_probs)
    if not abs(total - 1.0) <= SUM_TOLERANCE:
        out.append(f"tournament win probabilities sum to {total!r}")
    return out


def certificate_violations(sol, report) -> list[str]:
    """An accepted candidate favours doves and no oracle deviation pays."""
    out = []
    if not sol.type_win_probs["D"] > 0.5:
        out.append(f"dove title share {sol.type_win_probs['D']!r} <= 0.5")
    match = sol.matches[0]
    h = match.types.index("H")
    if not match.effective[h] < match.effective[1 - h]:
        out.append("hawk effective effort not below dove effective effort")
    worst = max(report.oracle_gains.values())
    if not worst <= GAIN_TOLERANCE:
        out.append(f"oracle gain {worst!r} above {GAIN_TOLERANCE}")
    return out


def _reject_constant(name: str):
    raise ValueError(f"non-finite literal {name}")


def json_violations(path: Path) -> list[str]:
    """A --json output parses as strict JSON: no NaN or Infinity."""
    try:
        json.loads(path.read_text(encoding="utf-8"),
                   parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"{path.name}: {exc}"]
    return []


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------

class SolveSweep:
    """One solve_tournament per op; verification and simulation idle."""

    inputs_repeat = True

    def __init__(self, tourney, seed: int):
        self.tourney = tourney
        self.inputs = solve_sweep_inputs(seed)
        self.specs = [build_spec(tourney, d) for d in self.inputs]

    def __len__(self):
        return len(self.specs)

    def op(self, i: int):
        return self.tourney.solve_tournament(self.specs[i])

    def check(self, i: int, sol) -> Outcome:
        spec = self.specs[i]
        return Outcome("solved", solution_violations(
            self.inputs[i], sol, spec.solver.tolerance))


class CertifySweep:
    """Existence gate, then solve and audit at a prize inside its window.

    No interior candidate, no window, or a rejected audit are verdicts.
    SolverError and any other exception are failures.
    """

    inputs_repeat = True

    def __init__(self, tourney, seed: int):
        self.tourney = tourney
        self.inputs = certify_sweep_inputs(seed)
        fast = tourney.SolverSettings(oracle_grid=CERTIFY_GRID)
        self.specs = [build_spec(tourney, d, fast) for d in self.inputs]

    def __len__(self):
        return len(self.specs)

    def _prize(self, i: int, gate) -> float:
        spec, window = self.specs[i], self.inputs[i]["window"]
        lo = gate.minimal_v_estimate
        if self.inputs[i]["csf"]["type"] == "tullock":
            # admissibility is monotone in the prize under the ratio CSF
            return lo * window
        if gate.interior_ok:
            # both ends passed: the estimate and the requested prize
            return lo ** (1.0 - window) * spec.prize ** window
        return lo

    def op(self, i: int):
        t = self.tourney
        gate = t.existence_gate(self.specs[i], grid=CERTIFY_GRID)
        if gate.minimal_v_estimate is None:
            return gate, None, None
        spec = replace(self.specs[i], prize=self._prize(i, gate))
        try:
            sol = t.solve_tournament(spec)
        except t.InteriorityError:
            return gate, None, None
        return gate, sol, t.verify_solution(sol)

    def check(self, i: int, result) -> Outcome:
        gate, sol, report = result
        if gate.minimal_v_estimate is None:
            return Outcome("no-window")
        if sol is None:
            return Outcome("no-interior")
        if not report.interior_ok:
            return Outcome("rejected")
        return Outcome("accepted", certificate_violations(sol, report))


class ScenarioPipeline:
    """solve, verify and simulate through the CLI for every scenario."""

    # every pass draws fresh simulation seeds, so no input repeats
    inputs_repeat = False

    def __init__(self, tourney, seed: int, bundled_dir: Path, out_dir: Path):
        self.tourney = tourney
        self.seed = seed
        dirs = {"bundled": bundled_dir, "owned": SCENARIO_DIR}
        self.scenarios = [(dirs[where] / name, code)
                          for name, where, code in PIPELINE_SCENARIOS]
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.passes = 0

    def __len__(self):
        return 1

    def _out(self, k: int, step: str) -> Path:
        return self.out_dir / f"{k}-{step}.json"

    def op(self, _i: int):
        run = self.tourney.cli.run
        codes = []
        pass_index = self.passes
        self.passes += 1
        with contextlib.redirect_stdout(io.StringIO()):
            for k, (path, _) in enumerate(self.scenarios):
                codes.append((
                    run(["solve", str(path), "--json", str(self._out(k, "solve"))]),
                    run(["verify", str(path), "--json", str(self._out(k, "verify"))]),
                    run(["simulate", str(path), "--json", str(self._out(k, "simulate")),
                         "--seed", str(pipeline_seed(self.seed, pass_index, k))]),
                ))
        return codes

    def check(self, _i: int, codes) -> Outcome:
        out = []
        for k, ((path, verify_code), got) in enumerate(zip(self.scenarios, codes)):
            want = (0, verify_code, 0)
            if tuple(got) != want:
                out.append(f"{path.name}: exit codes {got}, expected {want}")
                continue
            for step in ("solve", "verify", "simulate"):
                out.extend(json_violations(self._out(k, step)))
            sim = json.loads(self._out(k, "simulate").read_text(encoding="utf-8"))
            if sum(sim["wins"]) != sim["trials"]:
                out.append(f"{path.name}: wins {sim['wins']} do not sum to "
                           f"{sim['trials']} trials")
        return Outcome("pass", out)


def make_workload(tourney, name: str, seed: int, bundled_dir: Path,
                  out_dir: Path):
    if name == "solve-sweep":
        return SolveSweep(tourney, seed)
    if name == "certify-sweep":
        return CertifySweep(tourney, seed)
    if name == "scenario-pipeline":
        return ScenarioPipeline(tourney, seed, bundled_dir, out_dir)
    raise ValueError(f"unknown workload {name!r}")
