"""Monte Carlo engine: determinism, golden counts, analytic agreement."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from tourney import (ParameterError, PowerCost, ProbitUniformCsf, SimConfig,
                     TournamentSpec, TullockCsf, simulate_match,
                     simulate_tournament, solve_tournament)
from tourney.simulate import CHUNK, MAX_TRIALS

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
        assert first.to_json() == second.to_json()

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
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            simulate_match(spec.csf, 1.0, 2.0, mode="structural", rng=rng)

    def test_zero_effort_race_never_scores(self):
        rng = np.random.default_rng(0)
        wins = sum(simulate_match(TullockCsf(r=1.0), 0.0, 1.0, rng=rng)
                   for _ in range(200))
        assert wins == 0

    def test_tied_scores_fall_back_to_a_fair_coin(self):
        rng = np.random.default_rng(0)
        n = 4000
        wins = sum(simulate_match(TullockCsf(r=1.0), 0.0, 0.0, rng=rng)
                   for _ in range(n))
        assert abs(wins / n - 0.5) <= three_sigma(0.5, n)


class TestMatchSampler:
    def test_direct_frequency(self):
        rng = np.random.default_rng(42)
        n = 20_000
        wins = sum(simulate_match(TullockCsf(r=1.0), 3.0, 1.0, rng=rng)
                   for _ in range(n))
        assert abs(wins / n - 0.75) <= three_sigma(0.75, n)

    def test_structural_probit_frequency(self):
        csf = ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
        expected = csf.win_prob(4.0, 1.0)
        rng = np.random.default_rng(42)
        n = 20_000
        wins = sum(simulate_match(csf, 4.0, 1.0, mode="structural", rng=rng)
                   for _ in range(n))
        assert abs(wins / n - expected) <= three_sigma(expected, n)

    def test_requires_a_generator(self):
        with pytest.raises(ParameterError):
            simulate_match(TullockCsf(r=1.0), 1.0, 2.0)

    def test_rejects_unknown_mode(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            simulate_match(TullockCsf(r=1.0), 1.0, 2.0, mode="exact", rng=rng)


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
        rng = np.random.default_rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [simulate_match(TullockCsf(r=1.0), 1e308, 5e307, mode="structural",
                                  rng=rng) for _ in range(300)]
        rng = np.random.default_rng(3)
        want = [simulate_match(TullockCsf(r=1.0), math.ldexp(1e308, -64),
                               math.ldexp(5e307, -64), mode="structural", rng=rng)
                for _ in range(300)]
        assert got == want
