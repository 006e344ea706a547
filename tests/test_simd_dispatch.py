"""The scalar solve does not depend on numpy's SIMD dispatch.

Every closed form and root of a solve runs on Python floats, whose powers
are libm pow.  numpy's own power differs from libm pow in the last bit for
about one input in twenty under its AVX-512 kernels, so a solve that went
through numpy would report different bits with and without them.  This
file solves a fixed draw of specs here and again in a fresh interpreter
with those kernels switched off, and compares the reprs.  numpy ignores
feature names the CPU lacks, so on a host without AVX-512 both runs use
the same kernels and the test holds trivially.

Run as a script, it prints the drawn outcomes, one per line.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from tourney import (InteriorityError, PowerCost, ProbitUniformCsf, SolverError,
                     TournamentSpec, TullockCsf, solve_tournament)

NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
BRACKETS = list(itertools.product(itertools.product("HD", repeat=2), repeat=2))
DRAWS = 2000


def drawn_outcomes(n: int = DRAWS, seed: int = 21) -> list[str]:
    """The repr of each drawn spec's solution, or its error's type and
    message.  Draws alternate the two success functions and cycle through
    the sixteen brackets."""
    rng = random.Random(seed)
    outcomes = []
    for i in range(n):
        if i % 2:
            csf = TullockCsf(r=rng.uniform(0.1, 1.0))
        else:
            csf = ProbitUniformCsf(half_width=10.0 ** rng.uniform(-1.0, 2.0),
                                   f_exponent=rng.uniform(0.1, 0.9))
        spec = TournamentSpec(prize=10.0 ** rng.uniform(0.0, 4.0), csf=csf,
                              cost=PowerCost(rng.uniform(1.1, 5.0),
                                             10.0 ** rng.uniform(-2.0, 3.0)),
                              bracket=BRACKETS[i // 2 % 16])
        try:
            outcomes.append(repr(solve_tournament(spec)))
        except (InteriorityError, SolverError) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def test_solutions_are_the_same_without_avx512_kernels():
    here = drawn_outcomes()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", __file__],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    there = proc.stdout.splitlines()
    assert len(there) == len(here) == DRAWS
    # the draw must exercise the solver, not only its refusals
    assert sum(line.startswith("SpeSolution") for line in here) > DRAWS // 2
    moved = [i for i, (a, b) in enumerate(zip(here, there)) if a != b]
    assert not moved, (f"{len(moved)} of {DRAWS} solutions moved, first at draw "
                       f"{moved[0]}:\n{here[moved[0]]}\n{there[moved[0]]}")


if __name__ == "__main__":
    print("\n".join(drawn_outcomes()))
