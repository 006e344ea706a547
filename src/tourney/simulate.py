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
such product representation and structural mode refuses them.  Under the
noise CSF the structural draw is literal: performance plus uniform noise.

Runs are deterministic and chunked.  Chunk k of a run re-seeds its own
counter-based generator from (seed, spawn_key k) with a fixed draw layout,
so results are reproducible bit for bit regardless of how many chunks
execute, and a longer run extends a shorter one instead of reshuffling it.
Direct mode draws an (n, 3) block per chunk.  Structural mode draws an
(n, 6) noise block and, after it, an (n, 3) block of tie-break coins.  The
coins are read only on exact score ties, which positive efforts all but
never produce, so a chunk draws its coin block only if one of its matches
tied; because each chunk has its own generator, the coins it does draw are
the ones the full layout would give.  One draw buffer serves every chunk.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .primitives import DOVE, HAWK, Csf, ProbitUniformCsf, TullockCsf, win_prob
from .stage1 import SpeSolution

CHUNK = 1 << 18
MODES = ("direct", "structural")

# two-sided 99% normal quantile for the reported confidence bands
_Z99 = 2.5758293035489004


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


def _race_scores(b: float, uniforms: np.ndarray) -> np.ndarray:
    # b / Exp(1) race representation of the unit-decisiveness ratio contest;
    # a zero effort never scores
    if not b > 0.0:
        return np.zeros(uniforms.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return b * (-1.0 / np.log(uniforms))


def _structural_scores(csf: Csf, b: float, uniforms: np.ndarray) -> np.ndarray:
    if isinstance(csf, TullockCsf):
        return _race_scores(b, uniforms)
    return b ** csf.f_exponent + (2.0 * uniforms - 1.0) * csf.half_width


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
    u = rng.random(2)
    y_i = float(_structural_scores(csf, b_i, u[0:1])[0])
    y_j = float(_structural_scores(csf, b_j, u[1:2])[0])
    if y_i == y_j:
        return int(rng.random() < 0.5)
    return int(y_i > y_j)


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


def _structural_outcomes(solution: SpeSolution, noise: np.ndarray,
                         rng: np.random.Generator) -> list[np.ndarray]:
    csf = solution.spec.csf
    b_final = solution.stage2.base_effort
    pairs = (solution.matches[0].effective, solution.matches[1].effective,
             (b_final, b_final))
    outcomes, ties = [], []
    for k, (b_a, b_b) in enumerate(pairs):
        y_a = _structural_scores(csf, b_a, noise[:, 2 * k])
        y_b = _structural_scores(csf, b_b, noise[:, 2 * k + 1])
        outcomes.append(y_a > y_b)
        ties.append(y_a == y_b)
    if any(tie.any() for tie in ties):
        # the coin block follows the noise block in the chunk's stream
        coins = rng.random((len(noise), 3))
        for first, tie, coin in zip(outcomes, ties, coins.T):
            first |= tie & (coin < 0.5)
    return outcomes


def simulate_tournament(solution: SpeSolution, config: SimConfig = SimConfig(),
                        ) -> SimResult:
    """Run the whole tournament config.trials times and tally the winners."""
    direct = config.mode == "direct"
    if not direct:
        _check_structural(solution.spec.csf)
    p0 = solution.matches[0].win_probs[0]
    p1 = solution.matches[1].win_probs[0]

    buf = np.empty((min(CHUNK, config.trials), 3 if direct else 6))
    wins = np.zeros(4, dtype=np.int64)
    done = 0
    chunk_index = 0
    while done < config.trials:
        n = min(CHUNK, config.trials - done)
        rng = _chunk_rng(config.seed, chunk_index)
        draws = buf[:n]
        rng.random(out=draws)
        if direct:
            # both finalists arrive at the common base effort, a coin flip
            wins += _tally(draws[:, 0] < p0, draws[:, 1] < p1, draws[:, 2] < 0.5)
        else:
            wins += _tally(*_structural_outcomes(solution, draws, rng))
        done += n
        chunk_index += 1

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
