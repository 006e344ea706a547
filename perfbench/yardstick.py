"""A fixed CPU probe that measures how fast the host runs right now.

The benchmark's host is shared: other tenants move it between fast and slow
periods that last from seconds to minutes and change every timing by up to
half, which no amount of averaging inside one run removes.  Between
segments of ops the harness times a probe that never calls tourney and
never changes, and scales the segment's op times by REFERENCE_S / probe
time, so that every figure reads as if the host ran at its reference speed.
The raw figures are kept in the detail line and the result file.

Each workload's probe mimics the operations that dominate it: scalar numpy
validation and arithmetic like the contest primitives, small frozen
dataclasses and float loops like the semifinal solvers, 2 x 2 Newton steps
like the noise-CSF semifinal, broadcast payoff
grids like the audit's oracle, and Philox draws with a bincount like the
Monte Carlo engine.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# probe seconds at the reference speed, measured on a 2-core Xeon at 2.1 GHz;
# only the ratio to a later probe matters, so any fixed value would serve
REFERENCE_S = {
    "solve-sweep": 2.14e-3,
    "certify-sweep": 1.78e-3,
    "scenario-pipeline": 7.08e-3,
}
REPEATS = 3

_XS = np.linspace(0.0, 80.0, 128)
_SS = np.linspace(0.0, 5.0, 128)


@dataclass(frozen=True)
class _Values:
    hawk: float
    dove: float


def _scalar(n: int) -> float:
    acc = 0.0
    for k in range(n):
        xa = np.asarray(0.5 + (k % 17) * 0.1, dtype=float)
        ya = np.asarray(1.3, dtype=float)
        if np.any(xa < 0) or np.any(ya < 0):
            raise ValueError("negative effort")
        po = xa ** 0.7
        pr = ya ** 0.7
        tot = po + pr
        acc += float(np.where(tot > 0.0, po / np.where(tot > 0.0, tot, 1.0), 0.5))
    return acc


def _python(n: int) -> float:
    p = 0.5
    for _ in range(n):
        v = _Values(58.0 / 3.0 - 2.0 * p, 20.0 - 2.0 * p)
        p = 0.5 * p + 0.5 * v.hawk / (v.hawk + v.dove)
    return p


def _newton(n: int) -> float:
    b = np.array([0.3, 0.35])
    for _ in range(n):
        res = np.array([b[0] ** 0.5 - 0.5, b[1] ** 0.5 - 0.6])
        jac = np.empty((2, 2))
        for k in range(2):
            bp = b.copy()
            bp[k] += 1e-6
            jac[:, k] = (np.array([bp[0] ** 0.5 - 0.5, bp[1] ** 0.5 - 0.6]) - res) / 1e-6
        b = np.clip(b + np.linalg.solve(jac, -res), b / 8.0, b * 8.0)
    return float(np.max(np.abs(b)))


def _grid(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        own = np.maximum(0.0, _XS[:, None] - 0.3) ** 0.8
        rival = np.maximum(0.0, 4.7 - _SS[None, :]) ** 0.8
        tot = own + rival
        p = np.where(tot > 0.0, own / np.where(tot > 0.0, tot, 1.0), 0.5)
        acc += float((p * 20.0 - _SS[None, :] ** 3 / 12.0 - _XS[:, None]).max())
    return acc


def _philox(n: int) -> int:
    total = 0
    for k in range(n):
        seq = np.random.SeedSequence(entropy=7, spawn_key=(k,))
        u = np.random.Generator(np.random.Philox(seq)).random((32768, 3))
        total += int(np.bincount(np.where(u[:, 0] < 0.5, 0, 1), minlength=4)[0])
    return total


def _solve_mix() -> None:
    _scalar(50)
    _python(400)
    _newton(12)


def _certify_mix() -> None:
    _scalar(40)
    _grid(4)


def _pipeline_mix() -> None:
    _philox(4)
    _grid(2)
    _scalar(20)


_MIXES = {
    "solve-sweep": _solve_mix,
    "certify-sweep": _certify_mix,
    "scenario-pipeline": _pipeline_mix,
}


def probe(workload: str) -> float:
    """Median seconds of REPEATS runs of the workload's probe."""
    mix = _MIXES[workload]
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        mix()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
