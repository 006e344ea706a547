"""Equilibria of two-stage four-player elimination tournaments with sabotage.

Players are hawks (willing to sabotage their current rival) or doves (never
sabotaging).  The package solves the subgame-perfect interior candidate by
backward induction, verifies it against global deviations, maps the prizes
for which it survives, and validates solved tournaments by simulation.

The headline economics: sabotaging the finalists' pool is expensive for
hawks and lands on doves, so a dove fights for a strictly larger
continuation prize, outspends the hawk in the semifinal, and wins the
tournament with probability above one half.

`import tourney` loads only the solver: `errors`, `primitives`, `stage2`
and `stage1`.  The audit (`verification`), the Monte Carlo engine
(`simulate`) and the command line (`cli`) load on first access, as
submodules or through any name they export here, so a caller that only
solves never compiles them.  A loaded name is stored in the package, and
later lookups find it there.
"""

import importlib

from .errors import InteriorityError, ParameterError, SolverError
from .primitives import (DOVE, HAWK, Csf, PowerCost, ProbitUniformCsf,
                         TullockCsf, effective_effort, win_prob,
                         win_prob_partials)
from .stage2 import (Effort, PayoffMenu, Stage2Solution, base_effort,
                     solve_stage2, stage2_payoff_menu, stage2_profile,
                     stage2_sabotage)
from .stage1 import (ContinuationValues, MatchSolution, SolverSettings,
                     SpeSolution, TournamentSpec, bracket_win_probs,
                     continuation_values, solve_stage1_hd_probit,
                     solve_stage1_hd_tullock, solve_tournament,
                     stage1_payoffs)

__version__ = "0.1.0"

# the names each deferred layer exports here
_DEFERRED = {
    "verification": ("FOC_TOLERANCE", "GAIN_TOLERANCE", "GateResult",
                     "OracleResult", "VerificationReport",
                     "best_response_oracle", "corner_deviation_gain",
                     "existence_gate", "foc_residuals", "soc_check",
                     "verify_solution"),
    "simulate": ("MODES", "SimConfig", "SimResult", "simulate_match",
                 "simulate_tournament"),
    "cli": ("parse_scenario", "solution_to_dict"),
}
_LAYER_OF = {name: layer for layer, names in _DEFERRED.items()
             for name in names}


def __getattr__(name):
    """Load a deferred layer, or a name it exports, on first access."""
    layer = _LAYER_OF.get(name, name)
    if layer not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{layer}", __name__)
    if name != layer:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_DEFERRED, *_LAYER_OF})

__all__ = [
    "DOVE",
    "HAWK",
    "MODES",
    "FOC_TOLERANCE",
    "GAIN_TOLERANCE",
    "ContinuationValues",
    "Csf",
    "Effort",
    "GateResult",
    "InteriorityError",
    "MatchSolution",
    "OracleResult",
    "ParameterError",
    "PayoffMenu",
    "PowerCost",
    "ProbitUniformCsf",
    "SimConfig",
    "SimResult",
    "SolverError",
    "SolverSettings",
    "SpeSolution",
    "Stage2Solution",
    "TournamentSpec",
    "TullockCsf",
    "VerificationReport",
    "base_effort",
    "best_response_oracle",
    "bracket_win_probs",
    "continuation_values",
    "corner_deviation_gain",
    "effective_effort",
    "existence_gate",
    "foc_residuals",
    "parse_scenario",
    "simulate_match",
    "simulate_tournament",
    "soc_check",
    "solution_to_dict",
    "solve_stage1_hd_probit",
    "solve_stage1_hd_tullock",
    "solve_stage2",
    "solve_tournament",
    "stage1_payoffs",
    "stage2_payoff_menu",
    "stage2_profile",
    "stage2_sabotage",
    "verify_solution",
    "win_prob",
    "win_prob_partials",
]
