"""Contest primitives: success functions, effort costs, sabotage accounting.

Two contest success functions are supported.  The ratio (Tullock) form maps
effective efforts directly to a win probability.  The noise (probit) form
runs efforts through a concave performance function and adds independent
uniform measurement noise, so the win probability is the CDF of the noise
difference evaluated at the performance gap.

All functions accept scalars or numpy arrays and broadcast elementwise.
Derivative conventions: win_prob_partials returns signed partials of the
OWN win probability, so the rival component is negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InteriorityError, ParameterError

HAWK = "H"
DOVE = "D"


def _match_input(value, *inputs):
    """Collapse a 0-d result back to float when no input was an array."""
    if any(isinstance(x, np.ndarray) for x in inputs):
        return value
    return float(value)


def effective_effort(x, rival_sabotage):
    """Productive effort that survives the rival's sabotage, floored at zero."""
    xa = np.asarray(x, dtype=float)
    sa = np.asarray(rival_sabotage, dtype=float)
    if np.any(xa < 0) or np.any(sa < 0):
        raise ParameterError("efforts and sabotage must be nonnegative")
    return _match_input(np.maximum(0.0, xa - sa), x, rival_sabotage)


@dataclass(frozen=True)
class TullockCsf:
    """Ratio-form success function p = b_own^r / (b_own^r + b_rival^r).

    The decisiveness exponent r must lie in (0, 1].  Two zero efforts tie
    at one half.  Any positive effort against a zero effort wins surely,
    which is what makes the full-sabotage corner deviation relevant.
    """

    r: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise ParameterError(f"decisiveness exponent must be in (0, 1], got {self.r}")

    def win_prob(self, b_own, b_rival):
        bo = np.asarray(b_own, dtype=float)
        br = np.asarray(b_rival, dtype=float)
        if np.any(bo < 0) or np.any(br < 0):
            raise ParameterError("effective efforts must be nonnegative")
        po = bo ** self.r
        pr = br ** self.r
        tot = po + pr
        safe = np.where(tot > 0.0, tot, 1.0)
        p = np.where(tot > 0.0, po / safe, 0.5)
        return _match_input(p, b_own, b_rival)

    def win_prob_partials(self, b_own, b_rival):
        bo = np.asarray(b_own, dtype=float)
        br = np.asarray(b_rival, dtype=float)
        if np.any(bo <= 0) or np.any(br <= 0):
            raise ParameterError("partials need strictly positive efforts")
        r = self.r
        tot2 = (bo ** r + br ** r) ** 2
        d_own = r * bo ** (r - 1.0) * br ** r / tot2
        d_rival = -r * br ** (r - 1.0) * bo ** r / tot2
        return (_match_input(d_own, b_own, b_rival),
                _match_input(d_rival, b_own, b_rival))


@dataclass(frozen=True)
class ProbitUniformCsf:
    """Noise-form success function with uniform measurement error.

    Output is performance f(b) = b**f_exponent plus noise drawn uniformly
    from [-half_width, half_width].  The win probability is the CDF of the
    noise difference (triangular on [-2a, 2a]) at the performance gap, and
    it saturates at 0 or 1 once the gap reaches twice the half width.
    """

    half_width: float
    f_exponent: float

    def __post_init__(self):
        if self.half_width <= 0:
            raise ParameterError(f"noise half width must be positive, got {self.half_width}")
        if not 0.0 < self.f_exponent < 1.0:
            raise ParameterError(
                f"performance exponent must be in (0, 1), got {self.f_exponent}")

    def performance(self, b):
        ba = np.asarray(b, dtype=float)
        if np.any(ba < 0):
            raise ParameterError("effective efforts must be nonnegative")
        return _match_input(ba ** self.f_exponent, b)

    def noise_diff_cdf(self, t):
        """CDF of the difference of two independent uniform noise draws."""
        a = self.half_width
        ta = np.asarray(t, dtype=float)
        tc = np.clip(ta, -2.0 * a, 2.0 * a)
        low = (2.0 * a + tc) ** 2 / (8.0 * a * a)
        high = 1.0 - (2.0 * a - tc) ** 2 / (8.0 * a * a)
        return _match_input(np.where(tc <= 0.0, low, high), t)

    def noise_diff_density(self, t):
        a = self.half_width
        ta = np.asarray(t, dtype=float)
        dens = np.maximum(0.0, 2.0 * a - np.abs(ta)) / (4.0 * a * a)
        return _match_input(dens, t)

    def win_prob(self, b_own, b_rival):
        bo = np.asarray(b_own, dtype=float)
        br = np.asarray(b_rival, dtype=float)
        if np.any(bo < 0) or np.any(br < 0):
            raise ParameterError("effective efforts must be nonnegative")
        gap = bo ** self.f_exponent - br ** self.f_exponent
        return _match_input(np.asarray(self.noise_diff_cdf(gap)), b_own, b_rival)

    def win_prob_partials(self, b_own, b_rival):
        bo = np.asarray(b_own, dtype=float)
        br = np.asarray(b_rival, dtype=float)
        if np.any(bo <= 0) or np.any(br <= 0):
            raise ParameterError("partials need strictly positive efforts")
        gap = bo ** self.f_exponent - br ** self.f_exponent
        if np.any(np.abs(gap) >= 2.0 * self.half_width):
            raise InteriorityError(
                "noise contest saturated: performance gap at or beyond the noise "
                "support, marginal incentives vanish")
        dens = np.asarray(self.noise_diff_density(gap))
        beta = self.f_exponent
        d_own = dens * beta * bo ** (beta - 1.0)
        d_rival = -dens * beta * br ** (beta - 1.0)
        return (_match_input(d_own, b_own, b_rival),
                _match_input(d_rival, b_own, b_rival))


Csf = TullockCsf | ProbitUniformCsf


@dataclass(frozen=True)
class PowerCost:
    """Sabotage cost c(s) = s**exponent / divisor with exponent > 1.

    Strict convexity makes the marginal cost invertible, which is what the
    closed-form sabotage levels rely on.
    """

    exponent: float
    divisor: float

    def __post_init__(self):
        if self.exponent <= 1.0:
            raise ParameterError(f"cost exponent must exceed 1, got {self.exponent}")
        if self.divisor <= 0.0:
            raise ParameterError(f"cost divisor must be positive, got {self.divisor}")

    def cost(self, s):
        sa = np.asarray(s, dtype=float)
        if np.any(sa < 0):
            raise ParameterError("sabotage must be nonnegative")
        return _match_input(sa ** self.exponent / self.divisor, s)

    def marginal(self, s):
        sa = np.asarray(s, dtype=float)
        if np.any(sa < 0):
            raise ParameterError("sabotage must be nonnegative")
        return _match_input(
            self.exponent * sa ** (self.exponent - 1.0) / self.divisor, s)

    def marginal_inverse(self, y):
        ya = np.asarray(y, dtype=float)
        if np.any(ya < 0):
            raise ParameterError("marginal cost level must be nonnegative")
        return _match_input(
            (self.divisor * ya / self.exponent) ** (1.0 / (self.exponent - 1.0)), y)

    def curvature(self, s):
        """Second derivative of the cost, used by second-order checks."""
        sa = np.asarray(s, dtype=float)
        a = self.exponent
        return _match_input(a * (a - 1.0) * sa ** (a - 2.0) / self.divisor, s)


def win_prob(csf: Csf, b_own, b_rival):
    """Win probability of the player exerting b_own against b_rival."""
    return csf.win_prob(b_own, b_rival)


def win_prob_partials(csf: Csf, b_own, b_rival):
    """Signed partials (d own, d rival) of the own win probability."""
    return csf.win_prob_partials(b_own, b_rival)
