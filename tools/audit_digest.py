"""One SHA-256 over everything the solver, the audit and the gate report.

Run:  python tools/audit_digest.py [--lines PATH]
      python tools/audit_digest.py --compare A B
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

--lines PATH also writes one line per result to PATH: the section
(certify-sweep, solve-sweep or scenario), the result's index within it and
its repr.  --compare A B reads two such files, from two checkouts or two
numpy dispatches, and lists every result whose repr differs: its section
and index, the first differing field (the last keyword before it and the
last dict key after that keyword), both values and, when both are finite
floats, their distance in ulps; where a word differs too (a flipped
verdict, a new note), a second line names the first such place.  It then
prints how many results moved in each section.

Stdout holds the digests alone.  One line on stderr names the Python
version, the numpy version and the SIMD extensions numpy found on this CPU
(the `found` list of np.show_runtime()), on which the audited numbers
depend.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import platform
import re
import struct
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tourney  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
GRIDS = (50, 128, 400)


def runtime() -> str:
    """The Python and numpy versions and numpy's SIMD `found` list, as
    np.show_runtime() reports them."""
    import numpy
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"SIMD found: {' '.join(found) or 'none'}")


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


SECTIONS = (("certify-sweep", "certify-sweep gate and audit", _certify_sweep),
            ("solve-sweep", "solve-sweep solutions", _solve_sweep),
            ("scenario", "scenario verify reports", _scenario_reports))


def digest(listing=None) -> None:
    """Print the digests; write each result's line to listing, if given."""
    total = hashlib.sha256()
    lines = []
    count = 0
    for section, title, results in SECTIONS:
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
            if listing is not None:
                listing.write(f"{section} {n} {text}\n")
            n += 1
        lines.append(f"  {digest.hexdigest()}  ({n} results) {title}")
        count += n
    print(f"{total.hexdigest()}  ({count} results)")
    print("\n".join(lines))


# a float's repr (or an int's) not inside a name, and a field label: a
# keyword argument or a quoted dict key
_NUMBER = re.compile(r"((?<![\w.])-?(?:inf|nan|\d+(?:\.\d*)?(?:e[-+]?\d+)?)(?![\w.]))")
_LABEL = re.compile(r"(\w+)=|'([^']*)': ")


def _ulps(a: float, b: float) -> int | None:
    """How many doubles lie from a to b, or None unless both are finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    ia, ib = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (a, b))
    # map the sign-magnitude bit patterns onto one ordered integer line
    ia, ib = (i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF) for i in (ia, ib))
    return abs(ia - ib)


def _field(prefix: str) -> str:
    """The field a repr's prefix ends in: its last keyword, and the last
    dict key after that keyword."""
    name = key = None
    for word, quoted in _LABEL.findall(prefix):
        if word:
            name, key = word, None
        else:
            key = quoted
    return f"{name}[{key!r}]" if key is not None else name or "-"


def _describe(pa: list[str], pb: list[str], i: int) -> str:
    """Piece i of two split reprs, where they differ: a number (odd i)
    with both values and their distance in ulps, or the text from there."""
    if i % 2:
        x, y = pa[i], pb[i]
        ulps = _ulps(float(x), float(y))
        return f"{_field(''.join(pa[:i]))}: {x} -> {y} ({'-' if ulps is None else ulps} ulps)"
    x, y = "".join(pa[i:]), "".join(pb[i:])
    k = len(os.path.commonprefix([x, y]))
    return (f"{_field(''.join(pa[:i]) + x[:k])}: text {x[k:k + 40]!r} -> "
            f"{y[k:k + 40]!r}")


def differences(a: str, b: str) -> list[str]:
    """The first place where two reprs differ and, when a word or the
    shape differs too (a flipped verdict, a new note), the first such
    place."""
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)
    # where every common piece agrees, one repr goes on past the other's
    # last text piece
    at = ([i for i, (x, y) in enumerate(zip(pa, pb)) if x != y]
          or [min(len(pa), len(pb)) - 1])
    text = next((i for i in at if i % 2 == 0), None)
    return [_describe(pa, pb, i) for i in dict.fromkeys((at[0], text)) if i is not None]


def _read(path: str) -> dict[tuple[str, str], str]:
    with open(path) as f:
        return {(section, index): text for section, index, text
                in (line.rstrip("\n").split(" ", 2) for line in f)}


def compare(path_a: str, path_b: str) -> None:
    """Print every result that moved between two --lines listings."""
    a, b = _read(path_a), _read(path_b)
    moved = Counter()
    for where in sorted(a.keys() | b.keys(), key=lambda w: (w[0], int(w[1]))):
        if a.get(where) != b.get(where):
            moved[where[0]] += 1
            if where in a and where in b:
                for line in differences(a[where], b[where]):
                    print(f"{where[0]} {where[1]} {line}")
            else:
                print(f"{where[0]} {where[1]} only in {path_a if where in a else path_b}")
    for section, _, _ in SECTIONS:
        print(f"  {moved[section]} moved  {section}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lines", metavar="PATH",
                        help="also write one 'section index repr' line per result")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the results that moved between two --lines files")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    print(runtime(), file=sys.stderr)
    if args.lines:
        with open(args.lines, "w") as listing:
            digest(listing)
    else:
        digest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
