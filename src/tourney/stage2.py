"""Final-stage equilibrium in closed form.

In the final the two contestants are symmetric in effective effort no
matter their types: a hawk sabotages the rival down by exactly the amount
the rival padded on top of the common productive base.  Hence every final
is a fair coin flip and the whole stage collapses to three closed forms:

* base productive effort, from the symmetric first-order condition,
* sabotage, from marginal cost = 1 (each sabotage unit forces the rival
  to buy one replacement effort unit, worth exactly 1 in equilibrium),
* a payoff menu over the four type pairings, which feeds the semifinals.

Sabotage here depends only on the cost function, never on the prize or
the success function.

Each closed form is computed once, on Python floats, so every power is
libm pow whatever numpy's SIMD dispatch.  A power past the float range
raises OverflowError there.  The solve reports a base effort or sabotage
level past the range as a SolverError; a sabotage cost whose power
s**exponent overflows is computed as s * c'(s) / exponent instead.

The results are frozen records (`Effort`, `PayoffMenu`, `Stage2Solution`
here, the semifinal and tournament records in `stage1`, the audit's in
`verification`), declared with `_record`: a frozen dataclass whose
`__init__` writes the fields straight into the instance dict instead of
calling `object.__setattr__` once per field.  A solve builds about a dozen
of them, so the constructor is a measurable share of its time.  Equality,
hashing, repr, `dataclasses.replace`, copying and pickling are the stock
frozen dataclass's.  Validated inputs (the success functions, the cost,
the spec and the solver settings) keep the stock `__init__`, which runs
their `__post_init__` checks.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .errors import ParameterError, SolverError
from .primitives import Csf, PowerCost, ProbitUniformCsf, TullockCsf

PAIRINGS = ("DD", "HD", "HH")


def base_effort(csf: Csf, v: float) -> float:
    """Productive effort solving the symmetric final-stage FOC at prize v."""
    if v <= 0:
        raise ParameterError(f"prize must be positive, got {v}")
    if isinstance(csf, TullockCsf):
        return csf.r * v / 4.0
    if isinstance(csf, ProbitUniformCsf):
        beta = csf.f_exponent
        try:
            # the quotient itself can overflow to inf, which pow leaves inf
            b = (beta * v / (2.0 * csf.half_width)) ** (1.0 / (1.0 - beta))
        except OverflowError:
            b = math.inf
        if b < math.inf:
            return b
        raise SolverError(
            f"final-stage base effort (beta v / 2a)^(1/(1-beta)) exceeds the "
            f"float range at beta={beta:g}, a={csf.half_width:g}, v={v:g}")
    raise ParameterError(f"unknown success function {csf!r}")


def _sabotage_level(cost: PowerCost, y: float) -> float:
    """cost.marginal_inverse(y) on a positive Python float, whose last step
    is Python's float ** float, libm pow.  Where numpy's power returns inf,
    Python's raises OverflowError, and the solve fails.  A solve asks for
    y = 1 in the final and y = A/B <= 1 in the semifinals, so the final's
    level is the one that overflows."""
    try:
        return cost._marginal_inverse(y)
    except OverflowError:
        raise SolverError(
            f"final-stage sabotage (divisor/exponent)^(1/(exponent-1)) overflows "
            f"the float range at exponent={cost.exponent:g}, "
            f"divisor={cost.divisor:g}") from None


def stage2_sabotage(cost: PowerCost) -> float:
    """Final-stage sabotage: marginal cost equals one, prize-independent."""
    return _sabotage_level(cost, 1.0)


def _sabotage_cost(cost: PowerCost, s: float, y: float) -> float:
    """cost.cost(s) on the level s = _sabotage_level(cost, y) the solve
    computed, a Python float.  Where the power s**exponent overflows the
    cost is s * c'(s) / exponent = s * y / exponent instead, finite because
    a solve asks for y <= 1: the final's cost is s*/exponent."""
    try:
        return cost._cost(s)
    except OverflowError:
        return s * y / cost.exponent


def _record(cls):
    """dataclass(frozen=True) with a cheaper __init__ of the same signature.

    The generated __init__ takes every field as a parameter, in field order,
    and stores it in the instance __dict__, which is what the stock frozen
    __init__ stores through one object.__setattr__ call per field.  Only
    for records without defaults or __post_init__, so every argument is
    stored as given."""
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    if (hasattr(cls, "__post_init__") or {"self", "_d"} & set(names)
            or any(f.default is not MISSING or f.default_factory is not MISSING
                   for f in fields(cls))):
        raise TypeError(f"{cls.__name__} cannot be a record: it has a default, "
                        f"a __post_init__ or a field named self or _d")
    source = "\n".join([f"def __init__(self, {', '.join(names)}):",
                        "    _d = self.__dict__"]
                       + [f"    _d[{name!r}] = {name}" for name in names])
    namespace: dict = {}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {f.name: f.type for f in fields(cls)} | {"return": None}
    cls.__init__ = init
    return cls


@_record
class Effort:
    """One player's strategy: productive effort x and sabotage s."""

    x: float
    s: float


@_record
class PayoffMenu:
    """Expected final payoffs by own type versus rival type.

    Every pairing is a 50/50 contest at the common effective effort; the
    entries differ only in sunk outlays.  The strict ordering
    dove_vs_dove > hawk_vs_dove > dove_vs_hawk > hawk_vs_hawk holds
    whenever sabotage is worth buying at all.
    """

    dove_vs_dove: float
    hawk_vs_dove: float
    dove_vs_hawk: float
    hawk_vs_hawk: float

    @property
    def ordered(self) -> bool:
        return (self.dove_vs_dove > self.hawk_vs_dove
                > self.dove_vs_hawk > self.hawk_vs_hawk)


def _menu(v: float, b: float, s: float, c: float) -> PayoffMenu:
    half = v / 2.0
    return PayoffMenu(
        dove_vs_dove=half - b,
        hawk_vs_dove=half - b - c,
        dove_vs_hawk=half - b - s,
        hawk_vs_hawk=half - b - s - c,
    )


def _profile(pairing: str, b: float, s: float) -> tuple[Effort, Effort]:
    """Both players' strategies in one final pairing, hawk listed first in
    HD.  Doves pad their productive effort by the sabotage they absorb, and
    hawks facing hawks do the same, so every effective effort lands on the
    common base.  A same-type pairing's two players share one record, as
    they play the same strategy."""
    if pairing == "DD":
        dove = Effort(b, 0.0)
        return dove, dove
    if pairing == "HD":
        return Effort(b, s), Effort(b + s, 0.0)
    hawk = Effort(b + s, s)
    return hawk, hawk


@_record
class Stage2Solution:
    """Closed-form final stage: common effective effort, sabotage, menu."""

    base_effort: float
    sabotage: float
    menu: PayoffMenu
    profiles: dict[str, tuple[Effort, Effort]]


def solve_stage2(csf: Csf, cost: PowerCost, v: float) -> Stage2Solution:
    """Assemble the closed-form final stage.  Pure arithmetic, never raises
    on economic grounds; whether the reachable pairings net a nonnegative
    payoff is checked by the tournament solver, which knows the bracket.
    Base effort, sabotage and its cost are each computed once."""
    b = base_effort(csf, v)
    s = stage2_sabotage(cost)
    return Stage2Solution(
        base_effort=b,
        sabotage=s,
        menu=_menu(v, b, s, _sabotage_cost(cost, s, 1.0)),
        profiles={p: _profile(p, b, s) for p in PAIRINGS},
    )
