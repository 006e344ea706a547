"""Equilibria of two-stage four-player elimination tournaments with sabotage.

Players are hawks (willing to sabotage their current rival) or doves (never
sabotaging).  The package solves the subgame-perfect interior candidate by
backward induction, verifies it against global deviations, maps the prizes
for which it survives, and validates solved tournaments by simulation.

The headline economics: sabotaging the finalists' pool is expensive for
hawks and lands on doves, so a dove fights for a strictly larger
continuation prize, outspends the hawk in the semifinal, and wins the
tournament with probability above one half.
"""

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
from .verification import (FOC_TOLERANCE, GAIN_TOLERANCE, GateResult,
                           OracleResult, VerificationReport,
                           best_response_oracle, corner_deviation_gain,
                           existence_gate, foc_residuals, soc_check,
                           verify_solution)
from .simulate import (MODES, SimConfig, SimResult, simulate_match,
                       simulate_tournament)
from .cli import parse_scenario, solution_to_dict

__version__ = "0.1.0"

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
