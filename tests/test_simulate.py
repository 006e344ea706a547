"""Monte Carlo engine: determinism, golden counts, analytic agreement."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from tourney import (ParameterError, PowerCost, ProbitUniformCsf, SimConfig,
                     TournamentSpec, TullockCsf, simulate_tournament,
                     solve_tournament)
from tourney.simulate import (CHUNK, MAX_TRIALS, _chunk_rng, _match_scores,
                              _race_efforts)

RATIO_SPEC = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                            cost=PowerCost(3.0, 12.0))
NOISE_SPEC = TournamentSpec(prize=20.0,
                            csf=ProbitUniformCsf(half_width=5.0, f_exponent=0.5),
                            cost=PowerCost(3.0, 27.0))


@pytest.fixture(scope="module")
def ratio_solution():
    return solve_tournament(RATIO_SPEC)


@pytest.fixture(scope="module")
def noise_solution():
    return solve_tournament(NOISE_SPEC)


def three_sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


class TestDeterminism:
    def test_same_seed_same_bytes(self, ratio_solution):
        config = SimConfig(trials=200_000, seed=123, mode="direct")
        first = simulate_tournament(ratio_solution, config)
        second = simulate_tournament(ratio_solution, config)
        assert first.wins == second.wins
        assert first == second

    def test_different_seeds_differ(self, ratio_solution):
        a = simulate_tournament(ratio_solution, SimConfig(trials=100_000, seed=1))
        b = simulate_tournament(ratio_solution, SimConfig(trials=100_000, seed=2))
        assert a.wins != b.wins

    def test_golden_counts_direct(self, ratio_solution):
        result = simulate_tournament(ratio_solution,
                                     SimConfig(trials=100_000, seed=7,
                                               mode="direct"))
        assert result.wins == (24418, 25282, 24748, 25552)

    def test_golden_counts_structural(self, ratio_solution):
        result = simulate_tournament(ratio_solution,
                                     SimConfig(trials=100_000, seed=7,
                                               mode="structural"))
        assert result.wins == (24540, 25417, 24441, 25602)

    # three chunks, the last one partial
    @pytest.mark.parametrize("name, mode, wins", [
        ("ratio", "direct", (128542, 133952, 129223, 133571)),
        ("ratio", "structural", (128973, 133990, 128433, 133892)),
        ("noise", "direct", (129648, 132846, 130250, 132544)),
        ("noise", "structural", (129992, 132971, 129538, 132787)),
    ])
    def test_golden_counts_across_chunks(self, request, name, mode, wins):
        solution = request.getfixturevalue(f"{name}_solution")
        result = simulate_tournament(solution,
                                     SimConfig(trials=2 * CHUNK + 1000, seed=7,
                                               mode=mode))
        assert result.wins == wins

    def test_golden_counts_with_tied_scores(self, ratio_solution):
        # zero semifinal efforts tie every race, so every chunk draws its coins
        tied = dataclasses.replace(ratio_solution, matches=tuple(
            dataclasses.replace(m, effective=(0.0, 0.0))
            for m in ratio_solution.matches))
        result = simulate_tournament(tied,
                                     SimConfig(trials=2 * CHUNK + 1000, seed=7,
                                               mode="structural"))
        assert result.wins == (131737, 131226, 131001, 131324)


class TestAnalyticAgreement:
    @pytest.mark.parametrize("mode", ["direct", "structural"])
    def test_ratio_scenario(self, ratio_solution, mode):
        n = 100_000
        result = simulate_tournament(ratio_solution,
                                     SimConfig(trials=n, seed=11, mode=mode))
        for freq, expected in zip(result.freq, result.expected):
            assert abs(freq - expected) <= three_sigma(expected, n)

    @pytest.mark.parametrize("mode", ["direct", "structural"])
    def test_noise_scenario(self, noise_solution, mode):
        n = 100_000
        result = simulate_tournament(noise_solution,
                                     SimConfig(trials=n, seed=11, mode=mode))
        for freq, expected in zip(result.freq, result.expected):
            assert abs(freq - expected) <= three_sigma(expected, n)

    def test_type_totals(self, ratio_solution):
        result = simulate_tournament(ratio_solution,
                                     SimConfig(trials=50_000, seed=3))
        assert sum(result.type_freq.values()) == pytest.approx(1.0)
        assert result.type_expected["D"] == pytest.approx(
            ratio_solution.type_win_probs["D"])
        assert result.expected == pytest.approx(ratio_solution.win_probs)

    def test_chunk_boundary(self, ratio_solution):
        result = simulate_tournament(ratio_solution,
                                     SimConfig(trials=CHUNK + 1, seed=5))
        assert sum(result.wins) == CHUNK + 1
        assert result.trials == CHUNK + 1

    def test_confidence_band_width(self, ratio_solution):
        n = 40_000
        result = simulate_tournament(ratio_solution, SimConfig(trials=n, seed=9))
        for freq, half in zip(result.freq, result.ci99):
            assert half == pytest.approx(
                2.5758293035489004 * math.sqrt(freq * (1.0 - freq) / n))


class TestStructuralMode:
    def test_rejects_curved_ratio_contests(self):
        spec = TournamentSpec(prize=200.0, csf=TullockCsf(r=0.5),
                              cost=PowerCost(3.0, 12.0))
        solution = solve_tournament(spec)
        with pytest.raises(ParameterError):
            simulate_tournament(solution, SimConfig(trials=1000,
                                                    mode="structural"))

    def test_zero_effort_race_never_scores(self):
        # each match pits a zero effort, which also meets a draw of exactly
        # 0.0, against a unit effort
        u = np.random.default_rng(0).random((200, 6))
        u[0, ::2] = 0.0
        for zero, unit in _match_rows(TullockCsf(r=1.0), [(0.0, 1.0)] * 3, u):
            assert not zero.any() and not np.signbit(zero).any()
            assert (unit > 0.0).all()

    def test_tied_scores_fall_back_to_a_fair_coin(self, ratio_solution):
        # zero efforts tie every semifinal race; the coins decide them, so
        # each slot takes a quarter of the titles
        tied = ratio_solution
        for k in (0, 1):
            tied = _with_semifinal(tied, k, effective=(0.0, 0.0))
        n = 40_000
        result = simulate_tournament(tied, SimConfig(trials=n, seed=0,
                                                     mode="structural"))
        for freq in result.freq:
            assert abs(freq - 0.25) <= three_sigma(0.25, n)


def _match_rows(csf, pairs, noise):
    """Each match's score rows from _match_scores on the uniforms noise,
    which it transforms in place, copied out of the rows it reuses."""
    scores = np.empty((2, len(noise)))
    return [(y_a.copy(), y_b.copy())
            for y_a, y_b in _match_scores(csf, pairs, noise, scores)]


def _with_semifinal(solution, k, effective=None, win_probs=None):
    """The solution with semifinal k's effective efforts or win
    probabilities replaced."""
    changes = {}
    if effective is not None:
        changes["effective"] = effective
    if win_probs is not None:
        changes["win_probs"] = win_probs
    matches = list(solution.matches)
    matches[k] = dataclasses.replace(matches[k], **changes)
    return dataclasses.replace(solution, matches=tuple(matches))


def _first_semifinal_share(result):
    """Slot 0's share of the titles the first semifinal's winner took, and
    the count of those titles."""
    n = result.wins[0] + result.wins[1]
    return result.wins[0] / n, n


class TestMatchSampler:
    # one semifinal of the tournament run on its own: the title goes to the
    # first semifinal's winner half the time, and slot 0 is that winner in
    # the share its win probability gives
    def test_direct_frequency(self, ratio_solution):
        p = TullockCsf(r=1.0).win_prob(3.0, 1.0)
        solution = _with_semifinal(ratio_solution, 0, win_probs=(p, 1.0 - p))
        result = simulate_tournament(solution, SimConfig(trials=40_000, seed=42))
        share, n = _first_semifinal_share(result)
        assert abs(share - p) <= three_sigma(p, n)

    @staticmethod
    def _structural_share_agrees(solution, b_i, b_j):
        expected = solution.spec.csf.win_prob(b_i, b_j)
        solution = _with_semifinal(solution, 0, effective=(b_i, b_j))
        result = simulate_tournament(solution, SimConfig(trials=40_000, seed=42,
                                                         mode="structural"))
        share, n = _first_semifinal_share(result)
        assert abs(share - expected) <= three_sigma(expected, n)

    def test_structural_probit_frequency(self, noise_solution):
        self._structural_share_agrees(noise_solution, 4.0, 1.0)

    def test_structural_ratio_frequency(self, ratio_solution):
        self._structural_share_agrees(ratio_solution, 3.0, 1.0)

    def test_each_chunk_draws_from_its_own_generator(self):
        # a chunk's stream depends on the seed and the chunk index alone
        first = _chunk_rng(7, 0).random(8)
        assert first.tobytes() == _chunk_rng(7, 0).random(8).tobytes()
        assert not np.array_equal(first, _chunk_rng(7, 1).random(8))
        assert not np.array_equal(first, _chunk_rng(8, 0).random(8))


class TestConfigValidation:
    def test_rejects_bad_trials(self):
        with pytest.raises(ParameterError):
            SimConfig(trials=0)
        with pytest.raises(ParameterError):
            SimConfig(trials=True)

    def test_caps_trials(self):
        # configs only: a run of MAX_TRIALS takes minutes
        assert MAX_TRIALS == 10 ** 10
        assert SimConfig(trials=MAX_TRIALS).trials == MAX_TRIALS
        for trials in (MAX_TRIALS + 1, 10 ** 30):
            with pytest.raises(ParameterError, match="trials"):
                SimConfig(trials=trials)

    def test_rejects_bad_seed(self):
        with pytest.raises(ParameterError):
            SimConfig(seed=-1)
        with pytest.raises(ParameterError):
            SimConfig(seed=1.5)

    def test_rejects_bad_mode(self):
        with pytest.raises(ParameterError):
            SimConfig(mode="weird")


def _scaled(solution, k):
    """The solution with every effective effort scaled by 2**k."""
    def match(m):
        return dataclasses.replace(
            m, effective=tuple(math.ldexp(b, k) for b in m.effective))
    return dataclasses.replace(
        solution, matches=tuple(match(m) for m in solution.matches),
        stage2=dataclasses.replace(
            solution.stage2,
            base_effort=math.ldexp(solution.stage2.base_effort, k)))


class TestHugeRaceEfforts:
    # at prize 1e307 every effective effort is near 1e306, so a race score
    # b * (-1/log u) overflows for about one draw in seventy
    SPEC = TournamentSpec(prize=1e307, csf=TullockCsf(r=1.0),
                          cost=PowerCost(3.0, 12.0))

    def test_scores_stay_finite_and_the_races_unchanged(self):
        solution = solve_tournament(self.SPEC)
        config = SimConfig(trials=3000, seed=7, mode="structural")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulate_tournament(solution, config)
        # r = 1: scaling every effort by one power of two is the same race
        assert got.wins == simulate_tournament(_scaled(solution, -64), config).wins

    def test_single_match_scores_stay_finite(self):
        csf = TullockCsf(r=1.0)
        u = np.random.default_rng(3).random((300, 2))
        u[0] = 5e-324, 1.0 - 2.0 ** -53
        u[1] = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b_a, b_b = _race_efforts(csf, 1e308, 5e307)
            # the same match at every position of the slice
            rows = _match_rows(csf, [(b_a, b_b)] * 3, np.tile(u, 3))
        # the scaled race has the winners of the race it stands for, where
        # that race's scores are finite
        assert (b_a, b_b) == (math.ldexp(1e308, -64), math.ldexp(5e307, -64))
        with np.errstate(over="ignore", divide="ignore"):
            raw_a = 1e308 * (-1.0 / np.log(u[:, 0]))
            raw_b = 5e307 * (-1.0 / np.log(u[:, 1]))
        finite = np.isfinite(raw_a) & np.isfinite(raw_b)
        assert not finite[0]
        for y_a, y_b in rows:
            assert np.isfinite(y_a).all() and np.isfinite(y_b).all()
            assert ((y_a > y_b) == (raw_a > raw_b))[finite].all()
        # small efforts are left as they are
        assert _race_efforts(csf, 4.13, 4.73) == (4.13, 4.73)
