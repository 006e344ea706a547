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
later lookups find it there.  numpy loads on first use, not on import:
the solve runs on Python floats and never imports it, and the audit, the
Monte Carlo engine and the validated primitive methods load it when they
are first called.

The package exports the pipeline and nothing else: the inputs, the solver
and its result records, the audit and the existence gate with their
reports, the Monte Carlo engine, the errors and `parse_scenario`.  The
closed forms and helpers behind them (`stage2.solve_stage2`,
`primitives.effective_effort`, `cli.solution_to_dict`, ...) stay in their
modules.
"""

import importlib

from .errors import InteriorityError, ParameterError, SolverError
from .primitives import DOVE, HAWK, Csf, PowerCost, ProbitUniformCsf, TullockCsf
from .stage2 import Effort, PayoffMenu, Stage2Solution
from .stage1 import (MatchSolution, SolverSettings, SpeSolution, TournamentSpec,
                     solve_tournament)

__version__ = "0.1.0"

# the names each deferred layer exports here
_DEFERRED = {
    "verification": ("FOC_TOLERANCE", "GAIN_TOLERANCE", "GateResult",
                     "VerificationReport", "existence_gate", "verify_solution"),
    "simulate": ("MODES", "SimConfig", "SimResult", "simulate_tournament"),
    "cli": ("parse_scenario",),
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
    "Csf",
    "TullockCsf",
    "ProbitUniformCsf",
    "PowerCost",
    "TournamentSpec",
    "SolverSettings",
    "SimConfig",
    "InteriorityError",
    "ParameterError",
    "SolverError",
    "solve_tournament",
    "SpeSolution",
    "MatchSolution",
    "Stage2Solution",
    "PayoffMenu",
    "Effort",
    "verify_solution",
    "VerificationReport",
    "existence_gate",
    "GateResult",
    "simulate_tournament",
    "SimResult",
    "parse_scenario",
]
