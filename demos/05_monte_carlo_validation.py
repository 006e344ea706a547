"""Simulate the solved tournament two independent ways and compare.

Direct mode draws winners straight from the computed probabilities.
Structural mode replays the mechanics instead: score races for the ratio
contest, output plus uniform noise for the noisy one.  Agreement between
the two is evidence that the analytic win probabilities follow from the
modeled contest and not just from the solver's own arithmetic.
"""

from tourney import (PowerCost, ProbitUniformCsf, SimConfig, TournamentSpec,
                     TullockCsf, simulate_tournament, solve_tournament)

TRIALS = 500_000

for label, spec in [
    ("ratio scenario", TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                                      cost=PowerCost(3.0, 12.0))),
    ("noisy scenario", TournamentSpec(prize=20.0,
                                      csf=ProbitUniformCsf(half_width=5.0,
                                                           f_exponent=0.5),
                                      cost=PowerCost(3.0, 27.0))),
]:
    sol = solve_tournament(spec)
    print(f"== {label}: {TRIALS:,} tournaments per mode ==")
    print(f"  {'player':>6} {'analytic':>9} {'direct':>9} {'structural':>11}")
    runs = {mode: simulate_tournament(sol, SimConfig(trials=TRIALS, seed=42,
                                                     mode=mode))
            for mode in ("direct", "structural")}
    for i, expected in enumerate(sol.win_probs):
        print(f"  {i:>6} {expected:9.5f}"
              f" {runs['direct'].freq[i]:9.5f}"
              f" {runs['structural'].freq[i]:11.5f}")
    dove = runs["structural"].type_freq["D"]
    print(f"  dove-type share of titles: {dove:.5f}"
          f" (analytic {sol.type_win_probs['D']:.5f})")
    print()

# same seed, same result: reruns are exactly reproducible
spec = TournamentSpec(prize=80.0, csf=TullockCsf(r=1.0),
                      cost=PowerCost(3.0, 12.0))
sol = solve_tournament(spec)
a = simulate_tournament(sol, SimConfig(trials=100_000, seed=7))
b = simulate_tournament(sol, SimConfig(trials=100_000, seed=7))
print(f"rerun with the same seed reproduces an identical result: {a == b}")
print(f"win counts at seed 7: {a.wins}")
