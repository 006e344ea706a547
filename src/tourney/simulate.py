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
tied; because each chunk has its own generator, the coins it does draw are
the ones the full layout would give.

A chunk is consumed in slices of BLOCK rows through one reused draw buffer
small enough to stay in a core's L2 cache.  Successive fills of the buffer
continue the chunk's stream, so the slices hold exactly the draws of the
layout above.  Scores are computed in place into reused rows, and each
slice's outcomes and ties land in chunk-length boolean rows, which the
coin fix-up and the tally read once the chunk's noise is spent.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .primitives import DOVE, HAWK, Csf, TullockCsf, win_prob
from .stage1 import SpeSolution

CHUNK = 1 << 18
# rows per slice of a chunk: a structural slice of (BLOCK, 6) draws takes
# 768 KiB, which stays in a core's L2 cache
BLOCK = 1 << 14
MODES = ("direct", "structural")

# two-sided 99% normal quantile for the reported confidence bands
_Z99 = 2.5758293035489004

# -1/log u never exceeds 2**53 for a uniform u below 1, so a race score
# b * (-1/log u) stays finite while b stays below this bound
_RACE_MAX = sys.float_info.max / 2.0 ** 54


@dataclass(frozen=True)
class SimConfig:
    """Size, seed and sampling mode of one Monte Carlo run."""

    trials: int = 1_000_000
    seed: int = 42
    mode: str = "direct"

    def __post_init__(self):
        if not isinstance(self.trials, int) or isinstance(self.trials, bool) or self.trials < 1:
            raise ParameterError(f"trials must be a positive integer, got {self.trials!r}")
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


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


def simulate_match(csf: Csf, b_i: float, b_j: float, mode: str = "direct",
                   rng: np.random.Generator | None = None) -> int:
    """Play one match at effective efforts (b_i, b_j); 1 if player i wins.

    Direct mode draws a single uniform against the analytic win probability.
    Structural mode draws the CSF's own randomness and compares scores,
    settling exact ties with a fair coin.
    """
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    if rng is None:
        raise ParameterError("an explicit numpy Generator is required")
    if mode == "direct":
        return int(rng.random() < win_prob(csf, b_i, b_j))
    _check_structural(csf)
    b_i, b_j = _race_efforts(csf, b_i, b_j)
    u = rng.random(2)
    y = np.empty(2)
    _scores_into(csf, b_i, u[:1], y[:1])
    _scores_into(csf, b_j, u[1:], y[1:])
    if y[0] == y[1]:
        return int(rng.random() < 0.5)
    return int(y[0] > y[1])


def _tally(first: np.ndarray, second: np.ndarray,
           final_first: np.ndarray) -> np.ndarray:
    """Wins per slot from one chunk's match outcomes.

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


def _direct_outcomes(thresholds, rng: np.random.Generator, buf: np.ndarray,
                     outcomes: np.ndarray) -> None:
    """Fill outcomes[k] with draw k of each trial falling below thresholds[k]."""
    for start, stop in _slices(outcomes.shape[1], len(buf)):
        draws = buf[:stop - start]
        rng.random(out=draws)
        for k, p in enumerate(thresholds):
            np.less(draws[:, k], p, out=outcomes[k, start:stop])


def _structural_outcomes(solution: SpeSolution, rng: np.random.Generator,
                         buf: np.ndarray, scores: np.ndarray,
                         outcomes: np.ndarray, ties: np.ndarray) -> None:
    """Fill outcomes[k] with the first contestant of match k winning, the
    semifinals first and the final last, replaying each match's scores."""
    csf = solution.spec.csf
    b_final = solution.stage2.base_effort
    pairs = [_race_efforts(csf, *pair)
             for pair in (solution.matches[0].effective,
                          solution.matches[1].effective, (b_final, b_final))]
    n = outcomes.shape[1]
    for start, stop in _slices(n, len(buf)):
        noise = buf[:stop - start]
        rng.random(out=noise)
        y_a, y_b = scores[:, :stop - start]
        for k, (b_a, b_b) in enumerate(pairs):
            _scores_into(csf, b_a, noise[:, 2 * k], y_a)
            _scores_into(csf, b_b, noise[:, 2 * k + 1], y_b)
            np.greater(y_a, y_b, out=outcomes[k, start:stop])
            np.equal(y_a, y_b, out=ties[k, start:stop])
    if ties.any():
        # the coin block follows the whole noise block in the chunk's stream
        coin_buf = buf.reshape(-1, 3)
        for start, stop in _slices(n, len(coin_buf)):
            coins = coin_buf[:stop - start]
            rng.random(out=coins)
            for k in range(3):
                outcomes[k, start:stop] |= ties[k, start:stop] & (coins[:, k] < 0.5)


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

    rows = min(CHUNK, config.trials)
    block = min(BLOCK, rows)
    buf = np.empty((block, 3 if direct else 6))
    outcomes = np.empty((3, rows), dtype=bool)
    if not direct:
        scores = np.empty((2, block))
        ties = np.empty((3, rows), dtype=bool)
    wins = np.zeros(4, dtype=np.int64)
    for chunk_index, (start, stop) in enumerate(_slices(config.trials, CHUNK)):
        rng = _chunk_rng(config.seed, chunk_index)
        chunk = outcomes[:, :stop - start]
        if direct:
            _direct_outcomes(thresholds, rng, buf, chunk)
        else:
            _structural_outcomes(solution, rng, buf, scores, chunk,
                                 ties[:, :stop - start])
        wins += _tally(*chunk)

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
