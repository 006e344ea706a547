"""Monte Carlo validation of solved tournaments.

Two sampling modes cross-check the analytics from different directions.
Direct mode draws a uniform per match and compares it against the solved
win probability, so it validates the bracket arithmetic.  Structural mode
never touches the solved probabilities: it re-enacts each match from the
effective efforts alone, drawing the primitive randomness of the CSF, so
agreement validates the contest model itself.

Under the ratio CSF with unit decisiveness the structural draw uses the
race representation: scores b / E with E standard exponential give the
contested ratio as the win probability.  Other decisiveness values have no
such product representation and structural mode refuses them.  A match
whose efforts could overflow a race score is run with both efforts scaled
by 2**-64, which leaves the race unchanged.  Under the noise CSF the
structural draw is literal: performance plus uniform noise.

Runs are deterministic and chunked.  Chunk k of a run re-seeds its own
counter-based generator from (seed, spawn_key k) with a fixed draw layout,
so results are reproducible bit for bit regardless of how many chunks
execute, and a longer run extends a shorter one instead of reshuffling it.
Direct mode draws an (n, 3) block per chunk.  Structural mode draws an
(n, 6) noise block and, after it, an (n, 3) block of tie-break coins.  The
coins are read only on exact score ties, which positive efforts all but
never produce, so a chunk draws its coin block only if one of its matches
tied, and only up to the last tied row's slice; because each chunk has its
own generator, the coins it does draw are the ones the full layout would
give.

A chunk is consumed in slices of BLOCK rows through one reused draw buffer
small enough to stay in a core's L2 cache.  Successive fills of the buffer
continue the chunk's stream, so the slices hold exactly the draws of the
layout above.  Scores are computed in place into reused rows, and each
slice is tallied as soon as its outcomes are known.  A structural slice
with a tie keeps a copy of its outcomes and ties until the chunk's coins,
drawn slice by slice through the same buffer, settle them.

The chunks of a run are spread over the usable CPUs, one worker thread per
CPU and never more workers than chunks, with the calling thread as worker
0; numpy releases the interpreter lock while it draws and compares.  Each
worker keeps its own buffers and sums the wins of its chunks, and the
run's wins are the sum of the workers' sums, so the counts do not depend
on the number of CPUs.  There is no option to set: a run of at most CHUNK
trials stays in the calling thread.

Importing the module does not import numpy, so the CLI can read a
`SimConfig` without it.  The module global `np` is primitives'
`_lazy_numpy` stand-in until a run first looks numpy up, possibly in a
worker thread, and is numpy itself from then on.
"""

from __future__ import annotations

import contextvars
import math
import os
import sys
import threading
from dataclasses import dataclass

from .errors import ParameterError
from .primitives import DOVE, HAWK, Csf, TullockCsf, _lazy_numpy
from .stage1 import SpeSolution

np = _lazy_numpy(globals())

CHUNK = 1 << 18
# rows per slice of a chunk: a structural slice of (BLOCK, 6) draws takes
# 768 KiB, which stays in a core's L2 cache
BLOCK = 1 << 14
MODES = ("direct", "structural")
# the largest trial count a run accepts: at 20-50 ns per trial, minutes of
# CPU; a larger count would run for hours or never end
MAX_TRIALS = 10 ** 10

# two-sided 99% normal quantile for the reported confidence bands
_Z99 = 2.5758293035489004

# -1/log u never exceeds 2**53 for a uniform u below 1, so a race score
# b * (-1/log u) stays finite while b stays below this bound
_RACE_MAX = sys.float_info.max / 2.0 ** 54


@dataclass(frozen=True)
class SimConfig:
    """Size, seed and sampling mode of one Monte Carlo run; trials runs from
    1 to MAX_TRIALS."""

    trials: int = 1_000_000
    seed: int = 42
    mode: str = "direct"

    def __post_init__(self):
        if (not isinstance(self.trials, int) or isinstance(self.trials, bool)
                or not 1 <= self.trials <= MAX_TRIALS):
            raise ParameterError(f"trials must be an integer from 1 to "
                                 f"{MAX_TRIALS}, got {self.trials!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SimResult:
    """Tournament win counts per bracket slot, with analytic references."""

    trials: int
    seed: int
    mode: str
    wins: tuple[int, int, int, int]
    freq: tuple[float, float, float, float]
    expected: tuple[float, float, float, float]
    ci99: tuple[float, float, float, float]
    type_freq: dict[str, float]
    type_expected: dict[str, float]


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(seq))


def _scores_into(csf: Csf, b: float, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Structural scores of effective effort b on uniforms u, written to out.

    Under the ratio CSF the score is the race b / Exp(1) with Exp(1) drawn as
    -log u, and a zero effort never scores.  Under the noise CSF it is the
    performance b**f plus uniform noise on [-a, a].  The operations are those
    of ``b * (-1.0 / np.log(u))`` and ``b ** f + (2.0 * u - 1.0) * a``, in
    that order, so the scores carry the same bits as those expressions.
    """
    if isinstance(csf, TullockCsf):
        if not b > 0.0:
            out.fill(0.0)
            return out
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(u, out=out)
            np.divide(-1.0, out, out=out)
            return np.multiply(b, out, out=out)
    np.multiply(2.0, u, out=out)
    np.subtract(out, 1.0, out=out)
    np.multiply(out, csf.half_width, out=out)
    return np.add(b ** csf.f_exponent, out, out=out)


def _race_efforts(csf: Csf, b_a: float, b_b: float) -> tuple[float, float]:
    """One match's efforts, both scaled by 2**-64 when the larger one could
    overflow a ratio race score.  An exact power of two scales both scores
    alike, so the race and its winner stay the same; below the bound the
    efforts are returned as they are."""
    if isinstance(csf, TullockCsf) and max(b_a, b_b) > _RACE_MAX:
        return math.ldexp(b_a, -64), math.ldexp(b_b, -64)
    return b_a, b_b


def _check_structural(csf: Csf) -> None:
    if isinstance(csf, TullockCsf) and csf.r != 1.0:
        raise ParameterError(
            "structural mode requires unit decisiveness under the ratio CSF; "
            f"got r={csf.r}")


def _tally(first: np.ndarray, second: np.ndarray,
           final_first: np.ndarray) -> np.ndarray:
    """Wins per slot from one slice's match outcomes.

    ``first`` is slot 0 beating slot 1, ``second`` slot 2 beating slot 3 and
    ``final_first`` the first semifinal's winner taking the final.
    """
    n = final_first.size
    finals = np.count_nonzero(final_first)
    w0 = np.count_nonzero(first & final_first)
    w2 = np.count_nonzero(second) - np.count_nonzero(second & final_first)
    return np.array([w0, finals - w0, w2, n - finals - w2], dtype=np.int64)


def _slices(n: int, rows: int):
    for start in range(0, n, rows):
        yield start, min(start + rows, n)


def _direct_wins(thresholds, rng: np.random.Generator, n: int,
                 buf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Wins of one chunk of n trials, where match k goes to its first
    contestant when draw k of the trial falls below thresholds[k]."""
    wins = np.zeros(4, dtype=np.int64)
    for start, stop in _slices(n, len(buf)):
        draws = buf[:stop - start]
        outcomes = rows[:, :stop - start]
        rng.random(out=draws)
        for k, p in enumerate(thresholds):
            np.less(draws[:, k], p, out=outcomes[k])
        wins += _tally(*outcomes)
    return wins


def _structural_wins(solution: SpeSolution, rng: np.random.Generator, n: int,
                     buf: np.ndarray, scores: np.ndarray, rows: np.ndarray,
                     ties: np.ndarray) -> np.ndarray:
    """Wins of one chunk of n trials, replaying each match's scores, the
    semifinals first and the final last."""
    csf = solution.spec.csf
    b_final = solution.stage2.base_effort
    pairs = [_race_efforts(csf, *pair)
             for pair in (solution.matches[0].effective,
                          solution.matches[1].effective, (b_final, b_final))]
    wins = np.zeros(4, dtype=np.int64)
    tied = {}
    for start, stop in _slices(n, len(buf)):
        noise = buf[:stop - start]
        outcomes, tie = rows[:, :stop - start], ties[:, :stop - start]
        y_a, y_b = scores[:, :stop - start]
        rng.random(out=noise)
        for k, (b_a, b_b) in enumerate(pairs):
            _scores_into(csf, b_a, noise[:, 2 * k], y_a)
            _scores_into(csf, b_b, noise[:, 2 * k + 1], y_b)
            np.greater(y_a, y_b, out=outcomes[k])
            np.equal(y_a, y_b, out=tie[k])
        if tie.any():
            tied[start] = outcomes.copy(), tie.copy()
        else:
            wins += _tally(*outcomes)
    if tied:
        # the coin block follows the whole noise block in the chunk's stream,
        # so every slice's coins up to the last tied slice are drawn in order
        coin_buf = buf.reshape(-1, 3)[:len(buf)]
        for start, stop in _slices(min(n, max(tied) + len(buf)), len(buf)):
            coins = coin_buf[:stop - start]
            rng.random(out=coins)
            if start in tied:
                outcomes, tie = tied[start]
                for k in range(3):
                    outcomes[k] |= tie[k] & (coins[:, k] < 0.5)
                wins += _tally(*outcomes)
    return wins


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _summed_workers(worker, chunks: int) -> np.ndarray:
    """Sum of the chunk wins that worker(w, count) yields, over the
    count = min(chunks, usable CPUs) workers w.

    The calling thread is worker 0 and each other worker runs in its own
    thread, under a copy of the caller's context so that numpy's errstate
    holds there too.  Once a worker raises, an interrupt in the caller
    included, the others stop after their current chunk, and the exception
    is raised here when every thread has been joined.
    """
    count = min(chunks, _usable_cpus())
    results = [None] * count
    failed = threading.Event()

    def run(w: int) -> None:
        try:
            wins = np.zeros(4, dtype=np.int64)
            for chunk_wins in worker(w, count):
                wins += chunk_wins
                if failed.is_set():
                    break
            results[w] = wins
        except BaseException as exc:  # raised again below, after the joins
            failed.set()
            results[w] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, w))
               for w in range(1, count)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return sum(results)


def simulate_tournament(solution: SpeSolution, config: SimConfig = SimConfig(),
                        ) -> SimResult:
    """Run the whole tournament config.trials times and tally the winners."""
    direct = config.mode == "direct"
    if not direct:
        _check_structural(solution.spec.csf)
    # both finalists arrive at the common base effort, so in direct mode the
    # final is a coin flip
    thresholds = (solution.matches[0].win_probs[0],
                  solution.matches[1].win_probs[0], 0.5)
    trials = config.trials
    chunks = -(-trials // CHUNK)
    block = min(BLOCK, trials)

    def worker(first: int, step: int):
        """Wins of chunks first, first + step, first + 2 step, ..., one
        chunk at a time."""
        buf = np.empty((block, 3 if direct else 6))
        rows = np.empty((3, block), dtype=bool)
        if not direct:
            scores = np.empty((2, block))
            ties = np.empty((3, block), dtype=bool)
        for chunk_index in range(first, chunks, step):
            rng = _chunk_rng(config.seed, chunk_index)
            n = min(CHUNK, trials - chunk_index * CHUNK)
            if direct:
                yield _direct_wins(thresholds, rng, n, buf, rows)
            else:
                yield _structural_wins(solution, rng, n, buf, scores, rows,
                                       ties)

    wins = _summed_workers(worker, chunks)

    freq = wins / config.trials
    ci99 = _Z99 * np.sqrt(freq * (1.0 - freq) / config.trials)
    type_freq = {HAWK: 0.0, DOVE: 0.0}
    for t, f in zip(solution.types, freq):
        type_freq[t] += float(f)
    return SimResult(
        trials=config.trials,
        seed=config.seed,
        mode=config.mode,
        wins=tuple(int(w) for w in wins),
        freq=tuple(float(f) for f in freq),
        expected=solution.win_probs,
        ci99=tuple(float(c) for c in ci99),
        type_freq=type_freq,
        type_expected=solution.type_win_probs,
    )
