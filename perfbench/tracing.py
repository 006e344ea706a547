"""In-memory spans around the package's layer boundaries.

A span wraps one public function at the module attribute its caller looks
it up through, so a call made from inside the package is seen exactly where
the package makes it.  Spans are appended to flat arrays (name, start, end,
parent, op id) and written out when the run ends.  Every patch is undone by
`Tracer.restore`.

Layers are the package's modules: primitives, stage2, stage1, verification
(audit, FOC, SOC, existence gate), simulate and cli.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

# float64 draws per trial in simulate.py's per-chunk Philox layout:
# direct draws (n, 3) uniforms; structural draws (n, 6) noise and (n, 3) coins
DRAWS_PER_TRIAL = {"direct": 3, "structural": 9}
BYTES_PER_DRAW = 8
# nominal oracle search size per problem in verification.py: a hawk searches
# an n x n grid plus two 21 x 21 refinements, a dove 40 n + 1 points plus
# two 201-point refinements
HAWK_REFINE, DOVE_REFINE = 2 * 21 * 21, 2 * 201

STAGE1 = ("stage1.ratio", "stage1.noise")
SIMULATE = ("simulate.direct", "simulate.structural")


class Tracer:
    """Span recorder for one process and one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.notes: dict[int, object] = {}
        self.errors: dict[int, str] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, name_of=None, note=None):
        """fn wrapped in a span; name_of(args, kwargs) picks the span name at
        call time, note(args, kwargs, result) attaches a value to the span."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                tracer.close(idx)
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, name_of=None, note=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, name_of, note))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> dict:
        """The recorded spans, names resolved; valid until clear()."""
        return {
            "name": [self.names[k] for k in self.name],
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "notes": dict(self.notes),
            "errors": dict(self.errors),
        }


def install(tracer: Tracer, tourney) -> None:
    """Patch every layer boundary of the package; undo with tracer.restore()."""
    prims = tourney.primitives
    methods = (
        (prims.TullockCsf, ("win_prob", "win_prob_partials")),
        (prims.ProbitUniformCsf, ("performance", "noise_diff_cdf",
                                  "noise_diff_density", "win_prob",
                                  "win_prob_partials")),
        (prims.PowerCost, ("cost", "marginal", "marginal_inverse", "curvature")),
    )
    for cls, names in methods:
        for attr in names:
            tracer.patch(cls, attr, "primitives")
    tracer.patch(tourney.verification, "effective_effort", "primitives")
    tracer.patch(tourney.stage1, "solve_stage2", "stage2")

    def stage1_name(args, kwargs):
        spec = args[0] if args else kwargs["spec"]
        return STAGE1[0] if isinstance(spec.csf, prims.TullockCsf) else STAGE1[1]

    def audit_note(args, kwargs, report):
        solution = args[0] if args else kwargs["solution"]
        grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
        n = solution.spec.solver.oracle_grid if grid is None else int(grid)
        points = sum(n * n + HAWK_REFINE if key in report.corner_gains
                     else 40 * n + 1 + DOVE_REFINE
                     for key in report.oracle_gains)
        return (report.interior_ok, points)

    def simulate_name(args, kwargs):
        config = args[1] if len(args) > 1 else kwargs.get("config")
        mode = "direct" if config is None else config.mode
        return f"simulate.{mode}"

    for owner in (tourney, tourney.verification, tourney.cli):
        tracer.patch(owner, "solve_tournament", STAGE1[0], name_of=stage1_name)
        tracer.patch(owner, "verify_solution", "verification.audit",
                     note=audit_note)
    tracer.patch(tourney.verification, "foc_residuals", "verification.foc")
    tracer.patch(tourney.verification, "soc_check", "verification.soc")
    tracer.patch(tourney, "existence_gate", "verification.gate",
                 note=lambda a, k, gate: gate.minimal_v_estimate is not None)
    tracer.patch(tourney.cli, "simulate_tournament", SIMULATE[0],
                 name_of=simulate_name, note=lambda a, k, res: res.trials)
    tracer.patch(tourney.cli, "run", "cli")
    tracer.patch(tourney.cli, "parse_scenario", "cli.parse")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(start[c], s), min(end[c], e)) for c in children[i]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((e - s) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    # a layer that did no work reports 0 rather than an undefined ratio
    return num / den if den else 0.0


def layer_metrics(table: dict) -> dict[str, float]:
    """Per-layer counts and times (ms) of one traced pass over the pool."""
    names, start, end, parent = (table["name"], table["start"], table["end"],
                                 table["parent"])
    notes, errors = table["notes"], table["errors"]
    selfs = self_times(start, end, parent)
    count = defaultdict(int)
    dur = defaultdict(float)
    own = defaultdict(float)
    for i, name in enumerate(names):
        count[name] += 1
        dur[name] += end[i] - start[i]
        own[name] += selfs[i]

    def idx(name):
        return [i for i, n in enumerate(names) if n == name]

    stage1 = [i for i, n in enumerate(names) if n in STAGE1]
    audits = idx("verification.audit")
    gates = idx("verification.gate")
    probes = sum(1 for i in stage1
                 if parent[i] >= 0 and names[parent[i]] == "verification.gate")
    trials = {m: sum(notes[i] for i in idx(f"simulate.{m}") if i in notes)
              for m in DRAWS_PER_TRIAL}
    total_trials = sum(trials.values())
    ms = 1e3
    return {
        "primitives.calls": count["primitives"],
        "primitives.ms": own["primitives"] * ms,
        "stage2.calls": count["stage2"],
        "stage2.ms": dur["stage2"] * ms,
        "stage1.calls": len(stage1),
        "stage1.self_ms": sum(own[n] for n in STAGE1) * ms,
        "stage1.ms_per_call.ratio": _ratio(dur[STAGE1[0]], count[STAGE1[0]]) * ms,
        "stage1.ms_per_call.noise": _ratio(dur[STAGE1[1]], count[STAGE1[1]]) * ms,
        "stage1.refused": sum(1 for i in stage1
                              if errors.get(i) == "InteriorityError"),
        "stage1.failed": sum(1 for i in stage1
                             if i in errors and errors[i] != "InteriorityError"),
        "verification.foc.ms": dur["verification.foc"] * ms,
        "verification.soc.ms": dur["verification.soc"] * ms,
        "verification.audit.self_ms": own["verification.audit"] * ms,
        "verification.audit.calls": len(audits),
        "verification.audit.accept_ratio": _ratio(
            sum(1 for i in audits if i in notes and notes[i][0]), len(audits)),
        "verification.oracle.points": sum(notes[i][1] for i in audits if i in notes),
        "verification.gate.calls": len(gates),
        "verification.gate.probes": probes,
        "verification.gate.probes_per_call": _ratio(probes, len(gates)),
        "verification.gate.self_ms": own["verification.gate"] * ms,
        "verification.gate.estimate_found_ratio": _ratio(
            sum(1 for i in gates if notes.get(i)), len(gates)),
        "simulate.calls": sum(count[n] for n in SIMULATE),
        "simulate.ms": sum(dur[n] for n in SIMULATE) * ms,
        "simulate.ns_per_trial.direct": _ratio(dur[SIMULATE[0]], trials["direct"]) * 1e9,
        "simulate.ns_per_trial.structural": _ratio(
            dur[SIMULATE[1]], trials["structural"]) * 1e9,
        "simulate.bytes_per_trial": _ratio(
            sum(trials[m] * d * BYTES_PER_DRAW for m, d in DRAWS_PER_TRIAL.items()),
            total_trials),
        "cli.self_ms": (own["cli"] + own["cli.parse"]) * ms,
    }
