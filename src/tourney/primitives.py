"""Contest primitives: success functions, effort costs, sabotage accounting.

Two contest success functions are supported.  The ratio (Tullock) form maps
effective efforts directly to a win probability.  The noise (probit) form
runs efforts through a concave performance function and adds independent
uniform measurement noise, so the win probability is the CDF of the noise
difference evaluated at the performance gap.

All functions accept scalars or numpy arrays and broadcast elementwise.
Derivative conventions: win_prob_partials returns signed partials of the
OWN win probability, so the rival component is negative.

Each validated public method checks its inputs and then calls an unchecked
kernel of the same name with a leading underscore (`_win_prob`, `_partials`,
`_cost`, `_marginal`, `_marginal_inverse`), where the formula lives.  The
audit calls the kernels directly on arrays it has validated once, apart
from one `marginal` per audit for the hawks' sabotage, and the solver calls
`_cost` and `_marginal_inverse` on its own nonnegative Python floats, where
each power is libm pow and raises OverflowError past the float range.
The noise CSF's `_cdf_float` and `_density_float` are `_cdf` and `_density`
on one Python float, for the semifinal root's inner loop.  So a solve needs
no numpy, and importing the module does not import it: the global `np` is
`_lazy_numpy`'s stand-in until first use, as in `simulate`.

The noise CSF's win probability is one formula, the CDF of the difference
of two uniform draws on [-a, a] at the performance gap t:

    q = (2a - min(|t|, 2a))**2 / (8a**2),    cdf(t) = |[t > 0] - q|,

which is 1 - q where t > 0 and q elsewhere.  Only the chosen side is
squared, and its square stays below 8a**2, which construction keeps
finite, so no evaluation overflows.  Construction also keeps 4a**2 (the
density's denominator) a normal float, so neither denominator underflows
to 0.  It is evaluated three ways with the same operations in the same
order: `_cdf` on arrays and 0-d inputs, `_cdf_float` on one Python float,
and `_cdf_into` in place on the audit's grids.  The square is the one
step that can round differently: an array squares through np.square
(`_cdf`'s `** 2` and `_cdf_into`), while a 0-d input and a Python float
square through libm pow.  The two disagree in the
last bit at about 4 of 10 000 points, so the solver's float CDF and the
audit's array CDF can differ by an ulp or two; the values and sign bits
are otherwise identical.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import InteriorityError, ParameterError


def _lazy_numpy(module_globals: dict):
    """A stand-in for numpy as the module global `np` of the module whose
    globals are given.  Its first attribute access imports numpy and rebinds
    that global to the real module, so later calls look numpy up directly.
    Importing is thread-safe, and a second rebinding stores the same module."""

    class _Numpy:
        def __getattr__(self, name):
            import numpy
            module_globals["np"] = numpy
            return getattr(numpy, name)

    return _Numpy()


np = _lazy_numpy(globals())

HAWK = "H"
DOVE = "D"


def _finite_real(value) -> bool:
    """Whether a validated parameter is a finite real number.  A bool is
    not one, though bool subclasses int, and neither is an int beyond the
    float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _match_input(value, *inputs):
    """Collapse a 0-d result back to float when no input was an array."""
    if any(isinstance(x, np.ndarray) for x in inputs):
        return value
    return float(value)


def _checked(what: str, *values, strict: bool = False) -> list[np.ndarray]:
    """values as float arrays, each entry checked nonnegative (or positive)."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    for a in arrays:
        if (a <= 0 if strict else a < 0).any():
            raise ParameterError(what)
    return arrays


def effective_effort(x, rival_sabotage):
    """Productive effort that survives the rival's sabotage, floored at zero."""
    xa, sa = _checked("efforts and sabotage must be nonnegative", x, rival_sabotage)
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
        if not (_finite_real(self.r) and 0.0 < self.r <= 1.0):
            raise ParameterError(f"decisiveness exponent must be in (0, 1], got {self.r!r}")

    def win_prob(self, b_own, b_rival):
        bo, br = _checked("effective efforts must be nonnegative", b_own, b_rival)
        return _match_input(self._win_prob(bo, br), b_own, b_rival)

    def win_prob_partials(self, b_own, b_rival):
        bo, br = _checked("partials need strictly positive efforts", b_own, b_rival,
                          strict=True)
        d_own, d_rival = self._partials(bo, br)
        return (_match_input(d_own, b_own, b_rival),
                _match_input(d_rival, b_own, b_rival))

    def _win_prob(self, bo, br):
        """Unchecked kernel of win_prob: nonnegative float arrays in."""
        po = bo ** self.r
        pr = br ** self.r
        tot = po + pr
        safe = np.where(tot > 0.0, tot, 1.0)
        return np.where(tot > 0.0, po / safe, 0.5)

    def _partials(self, bo, br):
        """Unchecked kernel of win_prob_partials: positive float arrays in."""
        r = self.r
        tot2 = (bo ** r + br ** r) ** 2
        d_own = r * bo ** (r - 1.0) * br ** r / tot2
        d_rival = -r * br ** (r - 1.0) * bo ** r / tot2
        return d_own, d_rival


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
        if not (_finite_real(self.half_width) and self.half_width > 0):
            raise ParameterError(
                f"noise half width must be positive and finite, got {self.half_width!r}")
        if not math.isfinite(8.0 * self.half_width * self.half_width):
            raise ParameterError(
                f"noise half width must keep 8 * half_width**2 finite, "
                f"got {self.half_width!r}")
        if not 4.0 * self.half_width * self.half_width >= sys.float_info.min:
            raise ParameterError(
                f"noise half width must keep 4 * half_width**2 a normal float "
                f"(at least {sys.float_info.min!r}), got {self.half_width!r}")
        if not (_finite_real(self.f_exponent) and 0.0 < self.f_exponent < 1.0):
            raise ParameterError(
                f"performance exponent must be in (0, 1), got {self.f_exponent!r}")

    def performance(self, b):
        (ba,) = _checked("effective efforts must be nonnegative", b)
        return _match_input(self._performance(ba), b)

    def noise_diff_cdf(self, t):
        """CDF of the difference of two independent uniform noise draws."""
        return _match_input(self._cdf(np.asarray(t, dtype=float)), t)

    def noise_diff_density(self, t):
        return _match_input(self._density(np.asarray(t, dtype=float)), t)

    def win_prob(self, b_own, b_rival):
        bo, br = _checked("effective efforts must be nonnegative", b_own, b_rival)
        return _match_input(self._win_prob(bo, br), b_own, b_rival)

    def win_prob_partials(self, b_own, b_rival):
        bo, br = _checked("partials need strictly positive efforts", b_own, b_rival,
                          strict=True)
        if np.any(np.abs(self._gap(bo, br)) >= 2.0 * self.half_width):
            raise InteriorityError(
                "noise contest saturated: performance gap at or beyond the noise "
                "support, marginal incentives vanish")
        d_own, d_rival = self._partials(bo, br)
        return (_match_input(d_own, b_own, b_rival),
                _match_input(d_rival, b_own, b_rival))

    def _performance(self, b):
        return b ** self.f_exponent

    def _gap(self, bo, br):
        return self._performance(bo) - self._performance(br)

    def _cdf(self, t):
        a = self.half_width
        q = (2.0 * a - np.minimum(np.abs(t), 2.0 * a)) ** 2 / (8.0 * a * a)
        return np.abs((t > 0.0) - q)

    def _cdf_float(self, t: float) -> float:
        """_cdf on one Python float, with the same operations, and the bits
        _cdf gives a 0-d input: both square through libm pow."""
        a = self.half_width
        q = (2.0 * a - min(abs(t), 2.0 * a)) ** 2 / (8.0 * a * a)
        return abs((t > 0.0) - q)

    def _cdf_into(self, t: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Overwrite the array t with _cdf(t), bit for bit, using tmp (t's
        shape) as scratch, so that a grid needs no temporary of its size."""
        a = self.half_width
        np.minimum(np.absolute(t, out=tmp), 2.0 * a, out=tmp)
        np.square(np.subtract(2.0 * a, tmp, out=tmp), out=tmp)
        np.divide(tmp, 8.0 * a * a, out=tmp)
        np.subtract(np.greater(t, 0.0, out=t), tmp, out=t)
        return np.absolute(t, out=t)

    def _density(self, t):
        a = self.half_width
        return np.maximum(0.0, 2.0 * a - np.abs(t)) / (4.0 * a * a)

    def _density_float(self, t: float) -> float:
        """_density on one Python float, with the same bits.  A NaN stays
        NaN, as np.maximum keeps it (Python's max(0.0, nan) gives 0.0)."""
        a = self.half_width
        room = 2.0 * a - abs(t)
        return (0.0 if 0.0 >= room else room) / (4.0 * a * a)

    def _win_prob(self, bo, br):
        """Unchecked kernel of win_prob: nonnegative float arrays in."""
        return self._cdf(self._gap(bo, br))

    def _partials(self, bo, br):
        """Unchecked kernel of win_prob_partials: positive float arrays in."""
        dens = self._density(self._gap(bo, br))
        beta = self.f_exponent
        return dens * beta * bo ** (beta - 1.0), -dens * beta * br ** (beta - 1.0)


Csf = TullockCsf | ProbitUniformCsf


@dataclass(frozen=True)
class PowerCost:
    """Sabotage cost c(s) = s**exponent / divisor with exponent > 1.

    Strict convexity makes the marginal cost invertible, which is what the
    closed-form sabotage levels rely on.  Past the float range the validated
    methods return inf without a warning.
    """

    exponent: float
    divisor: float

    def __post_init__(self):
        if not (_finite_real(self.exponent) and self.exponent > 1.0):
            raise ParameterError(
                f"cost exponent must be finite and exceed 1, got {self.exponent!r}")
        if not (_finite_real(self.divisor) and self.divisor > 0.0):
            raise ParameterError(
                f"cost divisor must be positive and finite, got {self.divisor!r}")

    def cost(self, s):
        (sa,) = _checked("sabotage must be nonnegative", s)
        with np.errstate(over="ignore"):
            return _match_input(self._cost(sa), s)

    def marginal(self, s):
        (sa,) = _checked("sabotage must be nonnegative", s)
        with np.errstate(over="ignore"):
            return _match_input(self._marginal(sa), s)

    def marginal_inverse(self, y):
        (ya,) = _checked("marginal cost level must be nonnegative", y)
        with np.errstate(over="ignore"):
            return _match_input(self._marginal_inverse(ya), y)

    def curvature(self, s):
        """Second derivative of the cost, +inf at s = 0 when the exponent is
        below 2.  The audit measures curvature by finite differences and
        does not call it."""
        (sa,) = _checked("sabotage must be nonnegative", s)
        a = self.exponent
        with np.errstate(divide="ignore", over="ignore"):
            return _match_input(a * (a - 1.0) * sa ** (a - 2.0) / self.divisor, s)

    def _cost(self, s):
        """Unchecked kernel of cost: nonnegative floats or arrays in.  On a
        Python float the power is Python's, which raises OverflowError
        where numpy's would return inf."""
        return s ** self.exponent / self.divisor

    def _marginal(self, s):
        """Unchecked kernel of marginal: nonnegative floats or arrays in."""
        return self.exponent * s ** (self.exponent - 1.0) / self.divisor

    def _marginal_inverse(self, y):
        """Unchecked kernel of marginal_inverse: nonnegative floats or arrays
        in.  On a Python float the power is Python's, which raises
        OverflowError where numpy's would return inf."""
        return (self.divisor * y / self.exponent) ** (1.0 / (self.exponent - 1.0))
