"""The blocked Monte Carlo engine against the whole-chunk engine it
replaces, which is kept here as the reference."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourney import (PowerCost, ProbitUniformCsf, SimConfig, TournamentSpec,
                     TullockCsf, simulate_tournament, solve_tournament)
from tourney import simulate
from tourney.simulate import (BLOCK, CHUNK, _chunk_rng, _match_scores,
                              _raw_bound)

SPECS = {
    "ratio": TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                            cost=PowerCost(3.0, 12.0)),
    "noise": TournamentSpec(prize=20.0,
                            csf=ProbitUniformCsf(half_width=5.0, f_exponent=0.5),
                            cost=PowerCost(3.0, 27.0)),
}
SOLUTIONS = {name: solve_tournament(spec) for name, spec in SPECS.items()}

EDGE_TRIALS = (1, BLOCK - 1, BLOCK, BLOCK + 1, CHUNK - 1, CHUNK + 1,
               2 * CHUNK + 1000)


def _with_efforts(solution, first, second=None):
    matches = (dataclasses.replace(solution.matches[0], effective=first),
               solution.matches[1] if second is None else
               dataclasses.replace(solution.matches[1], effective=second))
    return dataclasses.replace(solution, matches=matches)


def _variant(name, variant):
    solution = SOLUTIONS[name]
    b = solution.matches[0].effective[1]
    if variant == "solved":
        return solution
    if variant == "one tied semifinal":
        # under the ratio CSF zero efforts tie every race of the first
        # semifinal, so the coin fix-up runs on one row of three
        return _with_efforts(solution, (0.0, 0.0))
    if variant == "all semifinals tied":
        return _with_efforts(solution, (0.0, 0.0), (0.0, 0.0))
    assert variant == "zero against positive"
    return _with_efforts(solution, (0.0, b), (b, 0.0))


VARIANTS = ("solved", "one tied semifinal", "all semifinals tied",
            "zero against positive")


# ----------------------------------------------------------------------
# Reference: every chunk drawn whole, scores built by fresh expressions.
# ----------------------------------------------------------------------

def _reference_scores(csf, b, uniforms):
    if isinstance(csf, TullockCsf):
        if not b > 0.0:
            return np.zeros(uniforms.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            return b * (-1.0 / np.log(uniforms))
    return b ** csf.f_exponent + (2.0 * uniforms - 1.0) * csf.half_width


def _reference_outcomes(solution, noise, rng):
    csf = solution.spec.csf
    b_final = solution.stage2.base_effort
    pairs = (solution.matches[0].effective, solution.matches[1].effective,
             (b_final, b_final))
    outcomes, ties = [], []
    for k, (b_a, b_b) in enumerate(pairs):
        y_a = _reference_scores(csf, b_a, noise[:, 2 * k])
        y_b = _reference_scores(csf, b_b, noise[:, 2 * k + 1])
        outcomes.append(y_a > y_b)
        ties.append(y_a == y_b)
    if any(tie.any() for tie in ties):
        coins = rng.random((len(noise), 3))
        for first, tie, coin in zip(outcomes, ties, coins.T):
            first |= tie & (coin < 0.5)
    return outcomes


def _reference_wins(solution, config):
    p0 = solution.matches[0].win_probs[0]
    p1 = solution.matches[1].win_probs[0]
    wins = np.zeros(4, dtype=np.int64)
    done = chunk_index = 0
    while done < config.trials:
        n = min(CHUNK, config.trials - done)
        rng = _chunk_rng(config.seed, chunk_index)
        if config.mode == "direct":
            draws = rng.random((n, 3))
            first, second, final_first = (draws[:, 0] < p0, draws[:, 1] < p1,
                                          draws[:, 2] < 0.5)
        else:
            first, second, final_first = _reference_outcomes(
                solution, rng.random((n, 6)), rng)
        finals = np.count_nonzero(final_first)
        w0 = np.count_nonzero(first & final_first)
        w2 = np.count_nonzero(second & ~final_first)
        wins += (w0, finals - w0, w2, n - finals - w2)
        done += n
        chunk_index += 1
    return tuple(int(w) for w in wins)


# ----------------------------------------------------------------------
# Blocked engine == reference.
# ----------------------------------------------------------------------

def _edge_examples(test):
    # every edge trial count with both CSFs and both modes, on tie variants
    # where a chunk holds more than one block
    for i, trials in enumerate(EDGE_TRIALS):
        for name in SOLUTIONS:
            for mode in ("direct", "structural"):
                variant = VARIANTS[i % len(VARIANTS)] if trials > BLOCK else "solved"
                test = example(name=name, mode=mode, variant=variant,
                               trials=trials, seed=7)(test)
    return test


@settings(max_examples=30, deadline=None)
@_edge_examples
@given(name=st.sampled_from(sorted(SOLUTIONS)),
       mode=st.sampled_from(["direct", "structural"]),
       variant=st.sampled_from(VARIANTS),
       trials=st.sampled_from(EDGE_TRIALS) | st.integers(1, 3 * BLOCK),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_engine_matches_whole_chunk_reference(name, mode, variant,
                                                      trials, seed):
    solution = _variant(name, variant)
    config = SimConfig(trials=trials, seed=seed, mode=mode)
    assert simulate_tournament(solution, config).wins == _reference_wins(
        solution, config)


@pytest.mark.parametrize("name", sorted(SOLUTIONS))
@pytest.mark.parametrize("b", [0.0, 1e-300, 0.37, 4.13, 2.5e8])
def test_match_scores_equal_the_expressions(name, b):
    csf = SPECS[name].csf
    u = np.random.default_rng(11).random((4096, 6))
    u[:3] = np.array([0.0, 5e-324, 1.0 - 2.0**-53])[:, None]
    scores = np.full((2, 4096), np.nan)
    got = [row.tobytes() for match in
           _match_scores(csf, [(b, b)] * 3, u.copy(), scores) for row in match]
    expected = [_reference_scores(csf, b, u[:, j]).tobytes() for j in range(6)]
    assert got == expected


# ----------------------------------------------------------------------
# Direct draws compared as raw Philox words.
# ----------------------------------------------------------------------

def _below(words, p):
    """Whether each raw word's uniform falls below p, as _direct_wins
    decides it."""
    bound = _raw_bound(p)
    if bound is None:
        return np.ones(words.shape, dtype=bool)
    return words < np.uint64(bound)


def _uniforms(words):
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-54, 2.0**-53, 0.5,
                               np.nextafter(0.5, 0.0), 1.0 - 2.0**-53, 1.0,
                               math.nan])
def test_raw_bound_equals_the_uniform_comparison(p):
    # one Philox stream drawn twice: numpy's uniform is the raw word's top
    # 53 bits, and the bound decides each draw as u < p does
    u = _chunk_rng(7, 0).random(100_000)
    words = _chunk_rng(7, 0).bit_generator.random_raw(100_000)
    assert np.array_equal(_uniforms(words), u)
    assert np.array_equal(_below(words, p), u < p)
    # the words whose uniforms lie next to p, where random draws almost
    # never fall, and the extreme words
    j = min(int(p * 2.0**53), 2**53 - 1) if p == p else 0
    tops = np.arange(max(j - 2, 0), min(j + 3, 2**53), dtype=np.uint64)
    edges = np.concatenate([tops << np.uint64(11),
                            (tops << np.uint64(11)) + np.uint64(2047),
                            np.array([0, 2047, 2048, 2**64 - 1],
                                     dtype=np.uint64)])
    assert np.array_equal(_below(edges, p), _uniforms(edges) < p)


@pytest.mark.parametrize("p0, p1", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                    (0.0, 0.0)])
@pytest.mark.parametrize("trials", [BLOCK + 1, CHUNK + 1])
def test_direct_mode_at_certain_semifinals(p0, p1, trials):
    solution = SOLUTIONS["ratio"]
    matches = tuple(dataclasses.replace(match, win_probs=(p, 1.0 - p))
                    for match, p in zip(solution.matches, (p0, p1)))
    solution = dataclasses.replace(solution, matches=matches)
    config = SimConfig(trials=trials, seed=7, mode="direct")
    wins = simulate_tournament(solution, config).wins
    assert wins == _reference_wins(solution, config)
    # a certain semifinal loser never takes the title
    assert (wins[0] == 0) == (p0 == 0.0) and (wins[1] == 0) == (p0 == 1.0)
    assert (wins[2] == 0) == (p1 == 0.0) and (wins[3] == 0) == (p1 == 1.0)


@pytest.mark.parametrize("name", sorted(SOLUTIONS))
@pytest.mark.parametrize("b_i, b_j", [(4.13, 4.73), (0.0, 1.0), (0.0, 0.0)])
def test_structural_matches_use_the_same_scores(name, b_i, b_j):
    # both semifinals at the given efforts: each match is decided by the
    # scores of the reference expressions, ties by the reference coins
    solution = _with_efforts(SOLUTIONS[name], (b_i, b_j), (b_j, b_i))
    config = SimConfig(trials=300, seed=5, mode="structural")
    assert simulate_tournament(solution, config).wins == _reference_wins(
        solution, config)


# ----------------------------------------------------------------------
# Chunks spread over the usable CPUs: the same wins for any CPU count.
# ----------------------------------------------------------------------

CPU_COUNTS = (1, 2, 3, 8)


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(simulate.os, "sched_getaffinity",
                        lambda _pid: set(range(count)))


@pytest.mark.parametrize("trials", EDGE_TRIALS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["direct", "structural"])
@pytest.mark.parametrize("name", sorted(SOLUTIONS))
def test_wins_do_not_depend_on_the_cpu_count(monkeypatch, name, mode, variant,
                                             trials):
    solution = _variant(name, variant)
    config = SimConfig(trials=trials, seed=7, mode=mode)
    want = _reference_wins(solution, config)
    for cpus in CPU_COUNTS:
        _use_cpus(monkeypatch, cpus)
        assert simulate_tournament(solution, config).wins == want, cpus


def _tied_slices(solution, config):
    """(chunk, slice) pairs of the run whose structural scores tie."""
    csf = solution.spec.csf
    b_final = solution.stage2.base_effort
    pairs = (solution.matches[0].effective, solution.matches[1].effective,
             (b_final, b_final))
    tied = set()
    for chunk, start in enumerate(range(0, config.trials, CHUNK)):
        n = min(CHUNK, config.trials - start)
        noise = _chunk_rng(config.seed, chunk).random((n, 6))
        for k, (b_a, b_b) in enumerate(pairs):
            ties = (_reference_scores(csf, b_a, noise[:, 2 * k])
                    == _reference_scores(csf, b_b, noise[:, 2 * k + 1]))
            tied.update((chunk, row // BLOCK) for row in np.flatnonzero(ties))
    return tied


def test_one_tied_slice_in_a_middle_chunk(monkeypatch):
    # a noise performance of 2**35 leaves the uniform noise on [-5, 5] a grid
    # of about 2**18 sums, so equal efforts tie about once per chunk.  At seed
    # 166 they tie in one row of slice 10 of the middle chunk only; that row's
    # coin hands the semifinal to slot 0, who wins the final, and the coin
    # in the same row of the coin block's first slice would not
    b = 2.0 ** 70
    solution = _with_efforts(SOLUTIONS["noise"], (b, b))
    config = SimConfig(trials=2 * CHUNK + 1000, seed=166, mode="structural")
    assert _tied_slices(solution, config) == {(1, 10)}
    want = _reference_wins(solution, config)
    for cpus in CPU_COUNTS:
        _use_cpus(monkeypatch, cpus)
        assert simulate_tournament(solution, config).wins == want, cpus


def test_more_workers_than_cores_under_fast_thread_switching(monkeypatch):
    _use_cpus(monkeypatch, 8)
    config = SimConfig(trials=8 * CHUNK + 1, seed=3, mode="direct")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = simulate_tournament(SOLUTIONS["ratio"], config).wins
    finally:
        sys.setswitchinterval(interval)
    assert got == _reference_wins(SOLUTIONS["ratio"], config)


def test_cpu_count_without_an_affinity_interface(monkeypatch):
    monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    assert simulate._usable_cpus() == 3
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert simulate._usable_cpus() == 1


@pytest.mark.parametrize("failing_chunk", [0, 1])
def test_a_worker_exception_reaches_the_caller_after_every_join(
        monkeypatch, failing_chunk):
    _use_cpus(monkeypatch, 2)

    def chunk_rng(seed, chunk):
        if chunk == failing_chunk:
            raise RuntimeError(f"chunk {chunk}")
        return _chunk_rng(seed, chunk)

    monkeypatch.setattr(simulate, "_chunk_rng", chunk_rng)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match=f"chunk {failing_chunk}"):
        simulate_tournament(SOLUTIONS["ratio"],
                            SimConfig(trials=2 * CHUNK + 1000, seed=7))
    assert threading.active_count() == baseline


def test_a_failure_stops_the_other_workers_after_their_chunk(monkeypatch):
    _use_cpus(monkeypatch, 2)
    started = []

    def chunk_rng(seed, chunk):
        started.append(chunk)
        if chunk == 0:
            raise KeyboardInterrupt
        return _chunk_rng(seed, chunk)

    monkeypatch.setattr(simulate, "_chunk_rng", chunk_rng)
    with pytest.raises(KeyboardInterrupt):
        simulate_tournament(SOLUTIONS["ratio"],
                            SimConfig(trials=40 * CHUNK, seed=7))
    # the caller fails on its first chunk; left running, the other worker
    # would start all 20 of its chunks
    assert len(started) < 1 + 20


def test_every_worker_runs_under_the_callers_errstate(monkeypatch):
    _use_cpus(monkeypatch, 2)
    seen = []

    def direct_wins(*args):
        seen.append((threading.get_ident(), np.geterr()["divide"]))
        return direct(*args)

    direct = simulate._direct_wins
    monkeypatch.setattr(simulate, "_direct_wins", direct_wins)
    with np.errstate(divide="raise"):
        simulate_tournament(SOLUTIONS["ratio"],
                            SimConfig(trials=2 * CHUNK + 1000, seed=7))
    assert len({thread for thread, _ in seen}) == 2
    assert [divide for _, divide in seen] == ["raise"] * 3
