"""One SHA-256 over everything the command line prints and writes.

Run:  python tools/cli_digest.py
      (CI adds -W error::RuntimeWarning, so a leaked numpy warning fails it)

It calls tourney.cli.run in process over a corpus of scenario files and
argument lists, and hashes each run's exit code, stdout, stderr and the
bytes of every file the run was asked to write, with the temporary
directory's path masked.  The corpus holds:

* valid files for both CSFs and all sixteen brackets, each through
  `solve --json --csv`, `verify --json`, `simulate --json --csv` and a
  `simulate` with every override flag;
* `replicate --json`;
* for both CSFs' base files, the whole file and every key of every block
  set to each hostile value or removed, and an unknown key added to each
  block.  A change to the solver block runs `verify`, a change to the sim
  block runs `simulate`, and any other change runs `solve`;
* seeded files with several faults each, through `solve`, so a change in
  the order of the checks moves the digest;
* bad flags, missing and unreadable paths.

An exception that escapes run is hashed as its type and message, so a
traceback shows up as a changed digest, not a crash; a warning turned into
an error by -W error still stops the run.  No hostile value is an oracle
grid the audit could allocate: the integers among them are either below
the grid's floor or far past any memory.

Running the script in two checkouts and comparing the printed digests
shows whether a change moved anything a CLI user sees.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

# argparse wraps its usage lines to the terminal width
os.environ["COLUMNS"] = "80"

from tourney import cli  # noqa: E402

RATIO = {
    "prize": 80.0,
    "csf": {"type": "tullock", "r": 1.0},
    "cost": {"exponent": 3.0, "divisor": 12.0},
    "bracket": [["H", "D"], ["H", "D"]],
    "solver": {"tolerance": 1e-10, "oracle_grid": 50},
    "sim": {"trials": 2000, "seed": 7, "mode": "direct"},
}
NOISE = {
    "prize": 20.0,
    "csf": {"type": "probit_uniform", "half_width": 5.0, "f_exponent": 0.5},
    "cost": {"exponent": 3.0, "divisor": 27.0},
    "bracket": [["H", "D"], ["H", "D"]],
    "solver": {"tolerance": 1e-10, "oracle_grid": 50},
    "sim": {"trials": 2000, "seed": 7, "mode": "structural"},
}

PATHS = ((), ("prize",), ("csf",), ("cost",), ("bracket",), ("solver",),
         ("sim",), ("csf", "type"), ("csf", "r"), ("csf", "half_width"),
         ("csf", "f_exponent"), ("cost", "exponent"), ("cost", "divisor"),
         ("solver", "tolerance"), ("solver", "oracle_grid"),
         ("sim", "trials"), ("sim", "seed"), ("sim", "mode"))
# an unknown key in each block
EXTRAS = (("extra",), ("csf", "extra"), ("cost", "extra"), ("solver", "extra"),
          ("sim", "extra"))
REMOVED = object()
HOSTILE = (None, True, False, 0, -1, 3, 0.5, 1.5, -0.0, 1e308, -1e308, 5e-324,
           2 ** 70, 10 ** 400, "", "x", "H", "tullock", "probit_uniform",
           "direct", "structural", [], {}, [1, 2], [["H", "D"], ["D", "D"]],
           [["H", "D"], ["H"]], "HDHD", {"type": "tullock"},
           {"exponent": 2.0, "divisor": 1.0}, REMOVED)
MULTI_FAULT_FILES = 1000


def _mutate(data, path, value):
    """A copy of data with the key at path set to value (or removed); a
    path whose block is missing or not an object leaves the copy as is."""
    if not path:
        return {} if value is REMOVED else copy.deepcopy(value)
    out = copy.deepcopy(data)
    block = out
    for key in path[:-1]:
        block = block.get(key) if isinstance(block, dict) else None
    if isinstance(block, dict):
        if value is REMOVED:
            block.pop(path[-1], None)
        else:
            block[path[-1]] = copy.deepcopy(value)
    return out


def _command(path) -> str:
    """The subcommand that reads the block at path."""
    block = path[0] if path else None
    return {"solver": "verify", "sim": "simulate"}.get(block, "solve")


class Corpus:
    """Writes scenario files into a temporary directory and runs the CLI
    on them, feeding every outcome into one hash."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.digest = hashlib.sha256()
        self.runs = 0
        self.files = 0

    def scenario(self, data) -> str:
        self.files += 1
        path = self.tmp / f"s{self.files}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def run(self, *args, outputs=()):
        """cli.run(args), hashing its exit code, output and written files."""
        for name in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(args))
            except SystemExit as exc:  # argparse exits on a bad flag
                code = exc.code
            except Warning:
                # under -W error a leaked numpy warning fails the run
                raise
            except Exception as exc:  # an escaped exception is hashed
                code = f"{type(exc).__name__}: {exc}"
        record = [repr(args), repr(code), out.getvalue(), err.getvalue()]
        for name in outputs:
            try:
                record.append(Path(name).read_bytes().decode("utf-8", "replace"))
            except OSError:
                record.append("<no file>")
        text = "\x00".join(record).replace(str(self.tmp), "<tmp>")
        self.digest.update(text.encode() + b"\n")
        self.runs += 1


def _valid_files(corpus: Corpus):
    out_json, out_csv = str(corpus.tmp / "out.json"), str(corpus.tmp / "out.csv")
    for base, types in itertools.product((RATIO, NOISE),
                                         itertools.product("HD", repeat=4)):
        data = dict(base, bracket=[list(types[:2]), list(types[2:])])
        path = corpus.scenario(data)
        corpus.run("solve", path, "--json", out_json, "--csv", out_csv,
                   outputs=(out_json, out_csv))
        corpus.run("verify", path, "--json", out_json, outputs=(out_json,))
        corpus.run("simulate", path, "--json", out_json, "--csv", out_csv,
                   outputs=(out_json, out_csv))
        corpus.run("simulate", path, "--trials", "1500", "--seed", "3",
                   "--mode", "direct" if base is NOISE else "structural")
    corpus.run("replicate", "--json", out_json, outputs=(out_json,))


def _single_faults(corpus: Corpus):
    for base in (RATIO, NOISE):
        for path, value in itertools.product(PATHS, HOSTILE):
            corpus.run(_command(path), corpus.scenario(_mutate(base, path, value)))
        for path in EXTRAS:
            corpus.run(_command(path), corpus.scenario(_mutate(base, path, 1.0)))


def _multi_faults(corpus: Corpus):
    rng = random.Random(2020)
    for _ in range(MULTI_FAULT_FILES):
        data = copy.deepcopy(rng.choice((RATIO, NOISE)))
        for _ in range(rng.randint(2, 4)):
            data = _mutate(data, rng.choice(PATHS[1:] + EXTRAS), rng.choice(HOSTILE))
        corpus.run("solve", corpus.scenario(data))


def _flags(corpus: Corpus):
    path = corpus.scenario(RATIO)
    for flags in (("--trials", "0"), ("--trials", "-1"), ("--trials", "x"),
                  ("--trials", str(10 ** 11)), ("--seed", "-1"),
                  ("--seed", "1.5"), ("--mode", "bogus"), ("--bogus",)):
        corpus.run("simulate", path, *flags)
    corpus.run("solve")
    corpus.run("frobnicate", path)
    corpus.run("solve", str(corpus.tmp / "missing.json"))
    corpus.run("solve", str(corpus.tmp))
    corpus.run("solve", path, "--json", str(corpus.tmp))
    corpus.run("solve", path, "--csv", str(corpus.tmp / "no" / "such.csv"))
    raw = corpus.tmp / "raw.json"
    for content in (b"", b"{", b"\xff\xfe", b"[" * 100000, b"NaN",
                    b'{"prize": Infinity}', b"1" * 5000):
        raw.write_bytes(content)
        corpus.run("solve", str(raw))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Corpus(Path(tmp))
        for part in (_valid_files, _single_faults, _multi_faults, _flags):
            part(corpus)
    print(f"{corpus.digest.hexdigest()}  ({corpus.runs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
