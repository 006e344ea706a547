"""One SHA-256 over everything the solver, the audit and the gate report.

Run:  python tools/audit_digest.py
      (CI adds -W error::RuntimeWarning, so a leaked numpy warning fails it)

It hashes the repr of, in this order:

* every certify-sweep op of the perfbench pools, seeds 1-3: the op's
  GateResult, then the SpeSolution and VerificationReport it audits;
* every solve-sweep op's SpeSolution, seeds 1-3;
* verify_solution on the five scenario-pipeline scenarios at oracle grids
  50, 128 and 400.

The package is imported from this checkout's src/ and the pools from its
perfbench/workloads.py, so running the script in two checkouts and
comparing the printed digests shows whether a change moved any reported
number.  Every float's repr round-trips, so equal digests mean equal bits.
An op that raises is hashed as its exception's type and message.

Below the total it prints one digest per section (certify-sweep gate and
audit, solve-sweep solutions, scenario verify reports), each over that
section's lines alone, so a mismatch shows where it sits.  The total is
the hash of every section's lines in order, as it was before the sections
were printed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tourney  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
GRIDS = (50, 128, 400)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Warning:
        # under -W error a leaked numpy warning fails the run, not one op
        raise
    except Exception as exc:  # an op's failure is part of what is hashed
        return f"{type(exc).__name__}: {exc}"


def _certify_sweep():
    for seed in SEEDS:
        certify = workloads.CertifySweep(tourney, seed)
        for i in range(len(certify)):
            yield _outcome(certify.op, i)


def _solve_sweep():
    for seed in SEEDS:
        solve = workloads.SolveSweep(tourney, seed)
        for i in range(len(solve)):
            yield _outcome(solve.op, i)


def _scenario_reports():
    dirs = {"bundled": ROOT / "src" / "tourney" / "scenarios",
            "owned": workloads.SCENARIO_DIR}
    for name, where, _ in workloads.PIPELINE_SCENARIOS:
        spec, _ = tourney.parse_scenario(dirs[where] / name)
        solution = tourney.solve_tournament(spec)
        for grid in GRIDS:
            yield _outcome(tourney.verify_solution, solution, grid=grid)


SECTIONS = (("certify-sweep gate and audit", _certify_sweep),
            ("solve-sweep solutions", _solve_sweep),
            ("scenario verify reports", _scenario_reports))


def main() -> int:
    total = hashlib.sha256()
    lines = []
    count = 0
    for title, results in SECTIONS:
        digest = hashlib.sha256()
        n = 0
        for result in results():
            text = repr(result)
            # a numpy array's repr rounds and elides, which would hide a change
            if "array(" in text:
                raise SystemExit(f"result holds an array, its repr is lossy: {text[:200]}")
            line = text.encode() + b"\n"
            total.update(line)
            digest.update(line)
            n += 1
        lines.append(f"  {digest.hexdigest()}  ({n} results) {title}")
        count += n
    print(f"{total.hexdigest()}  ({count} results)")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
