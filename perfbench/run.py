"""Benchmark harness for the tourney package.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 5

One process, one thread, one caller in a closed loop: the next operation
starts when the previous one has returned.  The package is imported from
the checkout's src/ directory, never from an installed copy.  Correctness
checks against the repository's pinned oracle values run once before any
timing and every operation's output is checked for invariants.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  --all runs
every workload both ways in child processes and prints every metric by
name with its unit.  Full results, the environment and the traced run's
spans are written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "primitives.calls": "count",
    "primitives.ms": "ms",
    "stage2.calls": "count",
    "stage2.ms": "ms",
    "stage1.calls": "count",
    "stage1.self_ms": "ms",
    "stage1.ms_per_call.ratio": "ms",
    "stage1.ms_per_call.noise": "ms",
    "stage1.refused": "count",
    "stage1.failed": "count",
    "verification.foc.ms": "ms",
    "verification.soc.ms": "ms",
    "verification.audit.self_ms": "ms",
    "verification.audit.calls": "count",
    "verification.audit.accept_ratio": "ratio",
    "verification.oracle.points": "count",
    "verification.gate.calls": "count",
    "verification.gate.probes": "count",
    "verification.gate.probes_per_call": "probes/call",
    "verification.gate.self_ms": "ms",
    "verification.gate.estimate_found_ratio": "ratio",
    "simulate.calls": "count",
    "simulate.ms": "ms",
    "simulate.ns_per_trial.direct": "ns",
    "simulate.ns_per_trial.structural": "ns",
    "simulate.bytes_per_trial": "B",
    "cli.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.cold_start_ms": "ms",
    "trace.overhead_share": "ratio",
}
# fresh interpreters per run: the measured process plus SETUP_PROBES more
SETUP_PROBES = 4
COLD_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.5
THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class HarnessError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_tourney():
    """Import tourney from the checkout's src/, refusing any other copy."""
    package = SRC / "tourney"
    if not (package / "__init__.py").is_file():
        raise HarnessError(f"no tourney package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tourney
    if Path(tourney.__file__).resolve().parent != package.resolve():
        raise HarnessError(f"imported tourney from {tourney.__file__}, "
                           f"not from {package}")
    return tourney


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_POOL_VARS},
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    keeps TAIL_BEYOND samples above it, or the maximum of a short run."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# ----------------------------------------------------------------------
# Setting up and running one workload.
# ----------------------------------------------------------------------

def scratch_dir(name: str, seed: int) -> Path:
    """Where this process lets the CLI write its --json outputs."""
    return OUT / f"cli-{name}-{seed}-{os.getpid()}"


def set_up(name: str, seed: int):
    """Import the package, build the inputs and run one warm-up op.

    Returns (tourney, workload, (raw, scaled) seconds from before the
    import); the scaled figure is read against the yardstick probed right
    after, like the op times."""
    started = time.perf_counter()
    tourney = load_tourney()
    workload = workloads.make_workload(
        tourney, name, seed, SRC / "tourney" / "scenarios", scratch_dir(name, seed))
    workload.check(0, workload.op(0))
    elapsed = time.perf_counter() - started
    # imported only here: numpy, which it uses, must first be imported by
    # tourney, after the thread pins and inside the timed set-up
    import yardstick
    yardstick.probe(name)  # the first probe in a process pays its own warm-up
    scaled = elapsed * yardstick.REFERENCE_S[name] / yardstick.probe(name)
    return tourney, workload, (elapsed, scaled)


class Tally:
    """Attempted and failed ops, with verdict counts and first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violated = 0
        self.verdicts: dict[str, int] = {}
        self.failures: list[str] = []

    def record(self, verdict: str, problems: list[str]) -> None:
        self.attempted += 1
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        if problems:
            self.failed += 1
            self.violated += verdict != "error"
            if len(self.failures) < 20:
                self.failures.append(f"op {self.attempted}: " + "; ".join(problems))


def timed_op(workload, i: int, tally: Tally) -> float:
    """Run and check op i; returns its duration, the check excluded."""
    started = time.perf_counter()
    try:
        result = workload.op(i)
    except Exception as exc:  # any raise is a failed op, never a crash
        elapsed = time.perf_counter() - started
        tally.record("error", [f"{type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = time.perf_counter() - started
    outcome = workload.check(i, result)
    tally.record(outcome.verdict, outcome.violations)
    return elapsed


def run_round(workload, tally: Tally, tracer=None) -> float:
    """One pass over the input pool; returns the summed op time."""
    total = 0.0
    for i in range(len(workload)):
        if tracer is not None:
            tracer.op_id = i
        total += timed_op(workload, i, tally)
    return total


def trimmed_mean(xs) -> float:
    """Mean of the samples left after dropping the top and bottom tenth."""
    xs = sorted(xs)
    k = len(xs) // 10
    kept = xs[k:len(xs) - k]
    return sum(kept) / len(kept)


def input_latencies(workload, passes: list[list[float]]) -> list[float]:
    """One latency per distinct input.  When the pool repeats, an input's
    latency is its trimmed mean over the passes: the trim drops scheduler
    spikes, and a mean, unlike a median, moves smoothly when a shared host
    switches between fast and slow periods during the run."""
    if not workload.inputs_repeat:
        return [d for durations in passes for d in durations]
    return [trimmed_mean(p[i] for p in passes) for i in range(len(workload))]


def summarize(workload, passes: list[list[float]]) -> dict:
    samples = [d for durations in passes for d in durations]
    tail_s, tail_pct, beyond = tail(input_latencies(workload, passes))
    return {"ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": statistics.median(samples) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "op_tail_percentile": tail_pct,
            "op_tail_inputs_beyond": beyond}


def scale_by_probes(raw: list[list[float]], segment: list[list[int]],
                    probes: list[float], reference: float) -> list[list[float]]:
    """Op times at the reference speed: an op in segment k (between probes
    k and k + 1) is scaled by reference over the mean of those probes."""
    scale = [2.0 * reference / (a + b) for a, b in zip(probes, probes[1:])]
    return [[d * scale[k] for d, k in zip(ds, ks)] for ds, ks in zip(raw, segment)]


def measure(workload, name: str, seconds: float, tally: Tally) -> dict:
    """Closed loop over the pool for `seconds`, whole passes only.

    The yardstick probe runs before the first op, after every PROBE_EVERY_S
    of op time and after the last op; each op time is scaled by the
    reference probe time over the mean of the two probes around it."""
    import yardstick  # see set_up
    reference = yardstick.REFERENCE_S[name]
    probes = [yardstick.probe(name)]
    raw: list[list[float]] = []
    segment: list[list[int]] = []
    since_probe = 0.0
    started = time.perf_counter()
    while not raw or time.perf_counter() - started < seconds:
        raw.append([])
        segment.append([])
        for i in range(len(workload)):
            elapsed = timed_op(workload, i, tally)
            raw[-1].append(elapsed)
            segment[-1].append(len(probes) - 1)
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                probes.append(yardstick.probe(name))
                since_probe = 0.0
    probes.append(yardstick.probe(name))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = summarize(workload, scale_by_probes(raw, segment, probes, reference))
    detail = {"raw": summarize(workload, raw),
              "op_tail_percentile": metrics.pop("op_tail_percentile"),
              "op_tail_inputs_beyond": metrics.pop("op_tail_inputs_beyond"),
              "ops": sum(map(len, raw)), "passes": len(raw),
              "pool_size": len(workload), "probe_ms_median":
              statistics.median(probes) * 1e3}
    metrics["peak_rss_mb"] = peak_rss_mb
    return {"metrics": metrics, "detail": detail}


def fresh_python(args: list[str], timeout: float = PROBE_TIMEOUT_S,
                 stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)


def setup_probes(name: str, seed: int, n: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds of n fresh interpreters."""
    out = []
    for _ in range(n):
        proc = fresh_python([str(HERE / "run.py"), "--probe-setup",
                             "--workload", name, "--seed", str(seed)])
        raw, scaled = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((raw, scaled))
    return out


def cold_start_probes(n: int) -> tuple[list[float], list[float]]:
    """(import ms, CLI solve wall ms) of fresh interpreters."""
    timer = ("import time; t = time.perf_counter(); import tourney.cli; "
             "print(time.perf_counter() - t)")
    scenario = str(SRC / "tourney" / "scenarios" / "example1.json")
    imports, colds = [], []
    for _ in range(n):
        proc = fresh_python(["-c", timer])
        imports.append(float(proc.stdout.strip()) * 1e3)
        started = time.perf_counter()
        fresh_python(["-m", "tourney", "solve", scenario],
                     stdout=subprocess.DEVNULL)
        colds.append((time.perf_counter() - started) * 1e3)
    return imports, colds


def trace_run(tourney, workload, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced passes over the pool for `seconds`.

    Every metric is the (low) median over traced passes, so a count that
    repeats in every pass is reported exactly.  The overhead share compares
    the median traced and untraced pass."""
    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    first_table = None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(run_round(workload, tally))
        tracer.clear()
        tracing.install(tracer, tourney)
        try:
            traced.append(run_round(workload, tally, tracer))
        finally:
            tracer.restore()
        table = tracer.table()
        if first_table is None:
            first_table = table
        per_pass.append(tracing.layer_metrics(table))
    metrics = {key: statistics.median_low(p[key] for p in per_pass)
               for key in per_pass[0]}
    repeat = all(p[k] == per_pass[0][k] for p in per_pass for k in p
                 if isinstance(per_pass[0][k], int))
    t_plain, t_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_share"] = (t_traced - t_plain) / t_traced
    imports, colds = cold_start_probes(COLD_PROBES)
    metrics["cli.import_ms"] = statistics.median(imports)
    metrics["cli.cold_start_ms"] = statistics.median(colds)
    return {"metrics": metrics, "table": first_table,
            "detail": {"passes": len(traced), "counts_repeat": repeat,
                       "plain_pass_s": plain, "traced_pass_s": traced,
                       "import_ms": imports, "cold_start_ms": colds}}


def write_spans(path: Path, table: dict) -> None:
    import numpy as np
    names = sorted(set(table["name"]))
    index = {n: k for k, n in enumerate(names)}
    np.savez_compressed(
        path,
        names=np.array(names),
        name=np.array([index[n] for n in table["name"]], dtype=np.int16),
        start=np.array(table["start"]), end=np.array(table["end"]),
        parent=np.array(table["parent"], dtype=np.int32),
        op=np.array(table["op"], dtype=np.int32))


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def bench(args) -> int:
    tourney, workload, setup_s = set_up(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    env = environment(args, _numpy_version())
    bad = checks.mismatches(checks.golden_rows(tourney))
    if bad:
        for line in bad:
            print(f"correctness check failed: {line}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            run = trace_run(tourney, workload, args.seconds, tally)
            write_spans(OUT / f"spans-{tag}.npz", run.pop("table"))
            units = PER_LAYER
        else:
            run = measure(workload, args.workload, args.seconds, tally)
            samples = [setup_s] + setup_probes(args.workload, args.seed,
                                               SETUP_PROBES)
            run["metrics"]["setup_s"] = statistics.median(s for _, s in samples)
            run["detail"]["setup_s_raw_scaled"] = samples
            units = END_TO_END
    finally:
        shutil.rmtree(scratch_dir(args.workload, args.seed), ignore_errors=True)

    # a raised op is a failure; a wrong value returned is also incorrect
    correct = tally.violated == 0
    result = {"env": env, "metrics": run["metrics"], "detail": run["detail"],
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_share": tally.failed / tally.attempted,
              "verdicts": tally.verdicts, "failures": tally.failures}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    for line in tally.failures:
        print(f"failed op: {line}", file=sys.stderr)
    print(json.dumps({"env": env, "detail": run["detail"],
                      "failed_share": result["failed_share"],
                      "verdicts": tally.verdicts}))
    emit(correct, tally.attempted, tally.failed, run["metrics"], units)
    return 0


def _numpy_version() -> str:
    import numpy
    return numpy.__version__


def run_all(args) -> int:
    """Every workload, untraced then traced; one line per metric."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run([sys.executable, *cmd], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=PROBE_TIMEOUT_S + 4 * args.seconds)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            ok = result["correct"] and not result["failed"]
            status |= 0 if ok else 1
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_share={result['failed'] / result['attempted']:g}")
            for key, metric in result["metrics"].items():
                print(f"  {name:<18} {key:<40} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one native thread, set before numpy is first imported; children inherit
    os.environ.update(dict.fromkeys(THREAD_POOL_VARS, "1"))
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    try:
        if args.all:
            return run_all(args)
        if args.probe_setup:
            try:
                setup_s = set_up(args.workload, args.seed)[2]
            finally:
                shutil.rmtree(scratch_dir(args.workload, args.seed),
                              ignore_errors=True)
            print(json.dumps(setup_s))
            return 0
        return bench(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
