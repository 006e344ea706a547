"""The float kernels the audit's cheap layers run against the array
kernels they stand for.  A float kernel takes the same operations in the
same order, and each power goes through `_power`, which mirrors numpy's
array `**`.  So a kernel gives the array kernel's bits wherever numpy's
power kernel gives libm pow's, which is everywhere without numpy's AVX-512
kernels and in about 95% of powers with them."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tourney import (InteriorityError, PowerCost, ProbitUniformCsf, SolverError,
                     TournamentSpec, TullockCsf, solve_tournament)
from tourney.primitives import _power, _quotient
from tourney.verification import (_SOC_STEP, _baseline, _corner, _expand,
                                  _per_coordinate, _table, _Table,
                                  foc_residuals, soc_check)
from where_form import payoff as _payoff

FAST = (2.0, 0.5, 1.0, 0.0, -1.0)


def _array_power(x: float, y: float) -> float:
    with np.errstate(all="ignore"):
        return float((np.array([x]) ** y)[0])


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _same(got: float, want: float) -> bool:
    """Bit equality, NaN included."""
    return repr(got) == repr(want)


def _bases(rng, n):
    """Nonnegative efforts over twelve decades, with zeros among them."""
    b = 10.0 ** rng.uniform(-6, 6, n)
    b[rng.random(n) < 0.05] = 0.0
    return b.tolist()


def test_power_takes_numpy_fast_paths_and_libm_pow_elsewhere():
    rng = np.random.default_rng(28)
    bases = _bases(rng, 3000) + [0.0, 5e-324, 1.0, 1e300, math.inf]
    exponents = FAST + (3.0, 1.5, -0.5) + tuple(rng.uniform(-0.95, 6.0, 12).tolist())
    for y in exponents:
        for x in bases:
            got, want = _power(x, y), _array_power(x, y)
            if y in FAST:
                assert _same(got, want), (x, y)
                continue
            # numpy's power kernel, where it is libm pow, gives these bits
            try:
                libm = math.pow(x, y)
            except (OverflowError, ValueError):
                libm = math.inf
            assert _same(got, libm), (x, y)
            if not _same(want, libm):
                assert _ulps(got, want) <= 2.0, (x, y, got, want)


def test_power_and_quotient_give_numpy_infinities_where_python_raises():
    assert _power(0.0, -0.5) == _power(0.0, -1.0) == math.inf
    assert _power(1e200, 3.0) == _power(1e300, 2.5) == math.inf
    assert _power(1e200, 2.0) == math.inf
    with np.errstate(all="ignore"):
        for a in (1.0, -1.0, 0.0, math.nan, math.inf):
            want = float(np.divide(a, 0.0))
            assert _same(_quotient(a, 0.0), want), a
    assert _quotient(1.0, 4.0) == 0.25


def _csfs(rng):
    yield TullockCsf(r=1.0)
    yield TullockCsf(r=0.5)
    yield ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
    for _ in range(8):
        yield TullockCsf(r=float(rng.uniform(0.05, 1.0)))
        yield ProbitUniformCsf(half_width=float(10.0 ** rng.uniform(-1, 2)),
                               f_exponent=float(rng.uniform(0.05, 0.95)))


def _exponents(csf):
    e = csf.r if isinstance(csf, TullockCsf) else csf.f_exponent
    return (e, e - 1.0)


@pytest.mark.parametrize("kernel", ["_win_prob", "_partials"])
def test_csf_kernels_equal_the_array_kernels(kernel):
    rng = np.random.default_rng(2028)
    checked = moved = 0
    for csf in _csfs(rng):
        bo, br = np.array(_bases(rng, 300)), np.array(_bases(rng, 300))
        with np.errstate(all="ignore"):
            want = getattr(csf, kernel)(bo, br)
        want = np.atleast_2d(want).T.tolist()
        for o, r, w in zip(bo.tolist(), br.tolist(), want):
            got = getattr(csf, kernel + "_float")(o, r)
            got = list(got) if isinstance(got, tuple) else [got]
            agree = all(_same(_power(b, y), _array_power(b, y))
                        for b in (o, r) for y in _exponents(csf))
            checked += 1
            if agree:
                assert all(map(_same, got, w)), (csf, o, r, got, w)
            else:
                # only numpy's powers differ: ulps of them, which the
                # noise CSF's performance gap can magnify by cancellation
                moved += 1
                for g, v in zip(got, w):
                    assert _same(g, v) or math.isclose(g, v, rel_tol=1e-12), (csf, o, r)
    assert moved < checked / 3


def test_cost_kernel_equals_the_array_kernel():
    rng = np.random.default_rng(4)
    costs = [PowerCost(2.0, 12.0), PowerCost(3.0, 0.27), PowerCost(1.5, 5.0)]
    costs += [PowerCost(float(e), float(d)) for e, d in
              zip(rng.uniform(1.05, 6.0, 8), 10.0 ** rng.uniform(-3, 3, 8))]
    for cost in costs:
        s = np.array(_bases(rng, 300) + [1e200, 1e300])
        with np.errstate(over="ignore"):
            want = cost._cost(s).tolist()
        for x, w in zip(s.tolist(), want):
            got = cost._cost_float(x)
            if _same(_power(x, cost.exponent), _array_power(x, cost.exponent)):
                assert _same(got, w), (cost, x)
            else:
                assert _ulps(got, w) <= 2.0, (cost, x, got, w)


def _one_problem(hawk, value, x, s, x_rival, s_rival):
    return _Table(("p",), (0,), (hawk,), (value,), (x,), (s,), (x_rival,), (s_rival,))


@pytest.mark.parametrize("csf, residual", [
    (TullockCsf(r=0.5), math.inf),
    (ProbitUniformCsf(half_width=5.0, f_exponent=0.5), math.inf),
    (ProbitUniformCsf(half_width=0.1, f_exponent=0.5), math.nan),
], ids=["ratio", "noise", "noise-saturated"])
def test_zero_effective_effort_gives_numpy_residuals(csf, residual):
    # the rival's sabotage wipes out the whole outlay: no finite partial.
    # Under narrow noise the rival's lead saturates the contest, so the
    # density is 0 and 0 * inf is NaN
    spec = TournamentSpec(prize=40.0, csf=csf, cost=PowerCost(3.0, 12.0))
    t = _one_problem(True, 40.0, 1.0, 0.5, 2.0, 1.0)
    foc = foc_residuals(spec, t)
    with np.errstate(all="ignore"):
        d_own, _ = csf._partials(np.array([0.0]), np.array([1.5]))
    assert _same(foc["p_effort"], float(d_own[0] * 40.0 - 1.0))
    assert _same(foc["p_effort"], residual)


def test_two_zero_efforts_give_nan_partials():
    for csf in (TullockCsf(r=1.0), TullockCsf(r=0.5)):
        with np.errstate(all="ignore"):
            want = [float(d[0]) for d in csf._partials(np.zeros(1), np.zeros(1))]
        got = list(csf._partials_float(0.0, 0.0))
        assert all(map(_same, got, want)) and all(map(math.isnan, got))
    # a sum whose square underflows to 0 gives inf, as numpy's quotient does
    assert TullockCsf(r=1.0)._partials_float(1e-200, 1e-200) == (math.inf, -math.inf)


def test_overflowing_cost_is_inf_in_every_cheap_layer():
    spec = TournamentSpec(prize=40.0, csf=TullockCsf(r=1.0), cost=PowerCost(3.0, 12.0))
    assert spec.cost._cost_float(1e200) == math.inf
    # a huge own sabotage, and a rival outlay whose wipe-out cost overflows
    t = _one_problem(True, 40.0, 5.0, 1e200, 1e200, 0.0)
    base = _baseline(spec.csf, spec.cost, t)
    assert base == [-math.inf]
    assert math.isnan(_corner(spec, t, base)["p"])
    soc = soc_check(spec, t)
    assert math.isnan(soc["p_sabotage"])


def test_float_kernels_leave_numpy_unloaded():
    code = """
import json, sys
from tourney.primitives import (PowerCost, ProbitUniformCsf, TullockCsf,
                                _power, _quotient)
ratio, noise = TullockCsf(r=0.5), ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
values = [ratio._win_prob_float(1.0, 2.0), *ratio._partials_float(0.0, 2.0),
          *ratio._partials_float(0.0, 0.0), noise._win_prob_float(1.0, 2.0),
          *noise._partials_float(0.0, 2.0), noise._cdf_float(0.3, array_bits=True),
          PowerCost(3.0, 12.0)._cost_float(1e200), PowerCost(2.0, 1.0)._cost_float(3.0),
          _power(0.0, -1.0), _quotient(1.0, 0.0)]
print(json.dumps(["numpy" in sys.modules, [repr(v) for v in values]]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, values = json.loads(proc.stdout.splitlines()[-1])
    assert not loaded
    assert values[-4:] == ["inf", "9.0", "inf", "inf"]


def _array_layers(spec, t):
    """The baseline, corner gains, first-order residuals and curvatures as
    the array formulas computed them, the reference for the float layers."""
    h = np.array(t.hawk)
    value, x, s, x_rival, s_rival = map(np.array, (t.value, t.x, t.s, t.x_rival,
                                                   t.s_rival))
    csf, cost = spec.csf, spec.cost
    rows = np.flatnonzero(h)
    with np.errstate(all="ignore"):
        base = _payoff(csf, cost, (value, x_rival, s_rival), x, s)
        p_corner = 1.0 if isinstance(csf, TullockCsf) else 0.5
        corner = p_corner * value[rows] - cost._cost(x_rival[rows]) - base[rows]
        d_own, d_rival = csf._partials(np.maximum(0.0, x - s_rival),
                                       np.maximum(0.0, x_rival - s))
        effort = d_own * value - 1.0
        sabotage = -d_rival[h] * value[h] - cost.marginal(s[h])
        every = np.concatenate([np.arange(h.size), rows])
        on_x = np.arange(every.size) < h.size
        z = np.where(on_x, x[every], s[every])
        step = np.maximum(_SOC_STEP * np.abs(z), _SOC_STEP)
        one_sided = z - step < 0.0
        stencil = np.stack([np.where(one_sided, z, z - step),
                            np.where(one_sided, z + step, z),
                            np.where(one_sided, z + 2.0 * step, z + step)])
        pay = _payoff(csf, cost, (value[every], x_rival[every], s_rival[every]),
                      np.where(on_x, stencil, x[every]), np.where(on_x, s[every], stencil))
        curvature = (pay[2] - 2.0 * pay[1] + pay[0]) / (step * step)
    return (base.tolist(), _expand(t, corner.tolist(), rows.tolist()),
            _per_coordinate(t, effort.tolist(), sabotage.tolist()),
            _per_coordinate(t, curvature[on_x].tolist(), curvature[~on_x].tolist()))


# problems no solution poses: outlays at and near 0, where the stencil is
# one-sided, zero effective efforts, a negative value
_EDGES = [(True, 18.35, 0.0, 1.9, 4.6, 1.9), (True, 40.0, 7.3e-6, 7.3e-6, 5.0, 0.5),
          (False, 19.0, 2e-6, 0.0, 6.7, 1.9), (True, -3.0, 1.0, 0.5, 6.7, 0.0),
          (False, 25.0, 4.0, 0.0, 0.0, 0.0)]


def _assert_layers(spec, t):
    base = _baseline(spec.csf, spec.cost, t)
    got = (base, _corner(spec, t, base), foc_residuals(spec, t), soc_check(spec, t))
    assert repr(got) == repr(_array_layers(spec, t)), spec


def check_layers_on_drawn_specs(count: int) -> int:
    """Assert that every cheap layer gives the array formulas' bits on the
    edge problems and on the solutions of count drawn specs, both CSFs and
    every seeding, and return how many solved."""
    hawk, *cols = zip(*_EDGES)
    edges = _Table(tuple(map(str, range(len(_EDGES)))), tuple(range(len(_EDGES))),
                   hawk, *cols)
    for csf in (TullockCsf(r=1.0), TullockCsf(r=0.5),
                ProbitUniformCsf(half_width=5.0, f_exponent=0.5)):
        _assert_layers(TournamentSpec(prize=40.0, csf=csf, cost=PowerCost(3.0, 12.0)),
                       edges)
    rng = np.random.default_rng(15)
    brackets = [(t[:2], t[2:]) for t in itertools.product("HD", repeat=4)]
    solved = 0
    for i in range(count):
        if i % 2:
            csf = TullockCsf(r=float(rng.choice([1.0, 0.5, rng.uniform(0.1, 1.0)])))
        else:
            csf = ProbitUniformCsf(half_width=float(rng.uniform(2.0, 8.0)),
                                   f_exponent=float(rng.choice([0.5, rng.uniform(0.2, 0.8)])))
        cost = PowerCost(float(rng.choice([2.0, 3.0, rng.uniform(1.2, 5.0)])),
                         float(10.0 ** rng.uniform(-2, 2)))
        spec = TournamentSpec(prize=float(10.0 ** rng.uniform(0, 3)), csf=csf, cost=cost,
                              bracket=brackets[i % len(brackets)])
        try:
            t = _table(solve_tournament(spec))
        except (InteriorityError, SolverError):
            continue
        solved += 1
        _assert_layers(spec, t)
    return solved


def test_cheap_layers_equal_the_array_formulas_without_avx512():
    # numpy's power is libm pow without its AVX-512 kernels, so there the
    # float layers must give the array formulas' bits on every input
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_float_kernels as t; "
            "print(t.check_layers_on_drawn_specs(400))")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert int(proc.stdout.split()[-1]) > 200
