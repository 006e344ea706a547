"""Contest success functions, effective effort and the power cost."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (InteriorityError, ParameterError, PowerCost,
                     ProbitUniformCsf, TullockCsf)
from tourney.primitives import effective_effort

tullock_csfs = st.floats(0.05, 1.0).map(TullockCsf)
probit_csfs = st.builds(ProbitUniformCsf,
                        half_width=st.floats(2.0, 10.0),
                        f_exponent=st.floats(0.1, 0.9))
# efforts capped so that probit performance gaps stay inside the noise range
safe_efforts = st.floats(0.01, 4.0)
costs = st.builds(PowerCost, exponent=st.floats(1.05, 6.0),
                  divisor=st.floats(0.01, 100.0))


def test_effective_effort_floors_at_zero():
    assert effective_effort(5.0, 2.0) == 3.0
    assert effective_effort(2.0, 5.0) == 0.0
    assert effective_effort(0.0, 0.0) == 0.0
    out = effective_effort(np.array([5.0, 2.0]), 3.0)
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [2.0, 0.0]


def test_effective_effort_rejects_negative_inputs():
    with pytest.raises(ParameterError):
        effective_effort(-1.0, 0.0)
    with pytest.raises(ParameterError):
        effective_effort(1.0, -0.5)


@given(csf=tullock_csfs, b_own=safe_efforts, b_rival=safe_efforts)
def test_tullock_probabilities_sum_to_one(csf, b_own, b_rival):
    total = csf.win_prob(b_own, b_rival) + csf.win_prob(b_rival, b_own)
    assert total == pytest.approx(1.0, abs=1e-12)


@given(csf=probit_csfs, b_own=safe_efforts, b_rival=safe_efforts)
def test_probit_probabilities_sum_to_one(csf, b_own, b_rival):
    total = csf.win_prob(b_own, b_rival) + csf.win_prob(b_rival, b_own)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_tullock_edge_probabilities():
    csf = TullockCsf(r=0.5)
    assert csf.win_prob(0.0, 0.0) == 0.5
    assert csf.win_prob(1.0, 0.0) == 1.0
    assert csf.win_prob(0.0, 1.0) == 0.0


@given(csf=tullock_csfs, b=safe_efforts, lift=st.floats(0.01, 2.0))
def test_tullock_monotone_in_own_effort(csf, b, lift):
    assert csf.win_prob(b + lift, b) > csf.win_prob(b, b)
    assert csf.win_prob(b, b + lift) < csf.win_prob(b, b)


@given(csf=probit_csfs, b=safe_efforts, lift=st.floats(0.01, 2.0))
def test_probit_monotone_in_own_effort(csf, b, lift):
    assert csf.win_prob(b + lift, b) > csf.win_prob(b, b)
    assert csf.win_prob(b, b + lift) < csf.win_prob(b, b)


def _fd_partials(csf, b_own, b_rival):
    h_own = 1e-6 * b_own
    h_riv = 1e-6 * b_rival
    d_own = (csf.win_prob(b_own + h_own, b_rival)
             - csf.win_prob(b_own - h_own, b_rival)) / (2.0 * h_own)
    d_riv = (csf.win_prob(b_own, b_rival + h_riv)
             - csf.win_prob(b_own, b_rival - h_riv)) / (2.0 * h_riv)
    return d_own, d_riv


@settings(deadline=None)
@given(csf=tullock_csfs, b_own=safe_efforts, b_rival=safe_efforts)
def test_tullock_partials_match_finite_differences(csf, b_own, b_rival):
    d_own, d_rival = csf.win_prob_partials(b_own, b_rival)
    fd_own, fd_rival = _fd_partials(csf, b_own, b_rival)
    assert d_own > 0.0
    assert d_rival < 0.0
    assert d_own == pytest.approx(fd_own, abs=1e-5 * (1.0 + abs(d_own)))
    assert d_rival == pytest.approx(fd_rival, abs=1e-5 * (1.0 + abs(d_rival)))


@settings(deadline=None)
@given(csf=probit_csfs, b_own=safe_efforts, b_rival=safe_efforts)
def test_probit_partials_match_finite_differences(csf, b_own, b_rival):
    d_own, d_rival = csf.win_prob_partials(b_own, b_rival)
    fd_own, fd_rival = _fd_partials(csf, b_own, b_rival)
    assert d_own > 0.0
    assert d_rival < 0.0
    assert d_own == pytest.approx(fd_own, abs=1e-5 * (1.0 + abs(d_own)))
    assert d_rival == pytest.approx(fd_rival, abs=1e-5 * (1.0 + abs(d_rival)))


def test_probit_noise_distribution_shape():
    csf = ProbitUniformCsf(half_width=5.0, f_exponent=0.5)
    assert csf.noise_diff_cdf(0.0) == 0.5
    assert csf.noise_diff_cdf(-10.0) == 0.0
    assert csf.noise_diff_cdf(10.0) == 1.0
    assert csf.noise_diff_density(0.0) == pytest.approx(0.1)
    assert csf.noise_diff_density(10.0) == 0.0
    # the published spot value used by the bundled noise scenario
    assert csf.noise_diff_cdf(-1.0) == pytest.approx(0.405)


def test_probit_saturation_clamps_win_prob_but_blocks_partials():
    csf = ProbitUniformCsf(half_width=1.0, f_exponent=0.5)
    assert csf.win_prob(16.0, 0.25) == 1.0
    with pytest.raises(InteriorityError):
        csf.win_prob_partials(16.0, 0.25)


def test_partials_require_strictly_positive_efforts():
    with pytest.raises(ParameterError):
        TullockCsf().win_prob_partials(0.0, 1.0)
    with pytest.raises(ParameterError):
        ProbitUniformCsf(5.0, 0.5).win_prob_partials(1.0, 0.0)


@given(cost=costs, s=st.floats(1e-4, 1e3))
def test_cost_marginal_round_trip(cost, s):
    assert cost.marginal_inverse(cost.marginal(s)) == pytest.approx(s, rel=1e-10)


@given(cost=costs)
def test_unit_marginal_sabotage_costs_less_than_itself(cost):
    s = cost.marginal_inverse(1.0)
    assert 0.0 < cost.cost(s) < s


def test_cost_frozen_values():
    cost = PowerCost(3.0, 12.0)
    assert cost.cost(2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert cost.marginal(2.0) == pytest.approx(1.0, rel=1e-15)
    assert cost.marginal_inverse(1.0) == pytest.approx(2.0, rel=1e-15)
    assert cost.curvature(2.0) == pytest.approx(1.0, rel=1e-15)


def test_curvature_rejects_negative_sabotage():
    cost = PowerCost(1.5, 1.0)
    with pytest.raises(ParameterError, match="sabotage must be nonnegative"):
        cost.curvature(-1.0)
    with pytest.raises(ParameterError):
        cost.curvature(np.array([1.0, -1e-300]))


def test_curvature_is_infinite_at_zero_below_exponent_two():
    # pytest turns numpy's divide-by-zero RuntimeWarning into an error
    cost = PowerCost(1.5, 1.0)
    assert cost.curvature(0.0) == np.inf
    np.testing.assert_array_equal(cost.curvature(np.array([0.0, 1.0])),
                                  [np.inf, 0.75])
    assert PowerCost(2.0, 4.0).curvature(0.0) == 0.5
    assert PowerCost(3.0, 4.0).curvature(0.0) == 0.0


def test_unit_ratio_csf_methods():
    csf = TullockCsf()
    assert csf.win_prob(3.0, 1.0) == pytest.approx(0.75)
    d_own, d_rival = csf.win_prob_partials(1.0, 1.0)
    assert d_own == pytest.approx(0.25)
    assert d_rival == pytest.approx(-0.25)


def test_scalar_in_scalar_out_array_in_array_out():
    csf = TullockCsf()
    assert isinstance(csf.win_prob(1.0, 2.0), float)
    assert isinstance(csf.win_prob(np.array([1.0, 2.0]), 2.0), np.ndarray)
    cost = PowerCost(2.0, 1.0)
    assert isinstance(cost.cost(1.5), float)
    assert isinstance(cost.cost(np.array([1.0])), np.ndarray)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_tullock_rejects_bad_decisiveness(bad):
    with pytest.raises(ParameterError):
        TullockCsf(r=bad)


def test_probit_rejects_bad_parameters():
    for width in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            ProbitUniformCsf(half_width=width, f_exponent=0.5)
    with pytest.raises(ParameterError):
        ProbitUniformCsf(half_width=1.0, f_exponent=1.0)
    with pytest.raises(ParameterError):
        ProbitUniformCsf(half_width=1.0, f_exponent=0.0)


def test_probit_rejects_a_half_width_whose_cdf_scale_overflows():
    # 8 a^2 is the CDF's denominator; past ~4.7e153 it is not a float
    ProbitUniformCsf(half_width=4e153, f_exponent=0.5)
    for width in (5e153, 1e200, 1.7e308):
        with pytest.raises(ParameterError, match="8 \\* half_width"):
            ProbitUniformCsf(half_width=width, f_exponent=0.5)


def _two_branch_cdf(a, t):
    """The noise CDF as first written, the reference for the one-branch
    kernels: both sides squared, one chosen.  Near the width bound the
    unused side overflows, so it runs with overflow ignored."""
    with np.errstate(over="ignore"):
        tc = np.clip(t, -2.0 * a, 2.0 * a)
        low = (2.0 * a + tc) ** 2 / (8.0 * a * a)
        high = 1.0 - (2.0 * a - tc) ** 2 / (8.0 * a * a)
        return np.where(tc <= 0.0, low, high)


def _cdf_edges(a) -> list[float]:
    """The support's edges, their neighbours, the infinities and the
    smallest subnormals."""
    return [0.0, -0.0, 2.0 * a, -2.0 * a, 3.0 * a, -3.0 * a, np.inf, -np.inf,
            np.nextafter(2.0 * a, 0.0), np.nextafter(-2.0 * a, 0.0),
            np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0)]


def _cdf_points(a) -> np.ndarray:
    """The edges, then a regular and a random grid reaching past 2a."""
    rng = np.random.default_rng(6)
    return np.concatenate([_cdf_edges(a), np.linspace(-2.5 * a, 2.5 * a, 4001),
                           rng.uniform(-2.2 * a, 2.2 * a, 4000)])


def _same_bits(got, want) -> bool:
    return bool(np.all(got == want) and np.all(np.signbit(got) == np.signbit(want)))


CDF_WIDTHS = [1e-150, 1e-3, 0.3, 1.0, 5.0, 30.0, 1e150, 4e153]


@pytest.mark.parametrize("a", CDF_WIDTHS)
def test_cdf_kernels_match_the_two_branch_reference(a):
    csf = ProbitUniformCsf(half_width=a, f_exponent=0.5)
    grid = _cdf_points(a)
    # an array squares through np.square in both forms
    want = _two_branch_cdf(a, grid)
    assert _same_bits(csf._cdf(grid), want)
    assert _same_bits(csf._cdf_into(grid.copy(), np.empty_like(grid)), want)
    # a 0-d input and a Python float square through libm pow in both.  The
    # two squares differ at about 4 of 10 000 points; the quarter of the
    # grids taken here holds 3 of them over all widths
    for t in _cdf_edges(a) + grid[::4].tolist():
        want = _two_branch_cdf(a, t)
        assert _same_bits(csf._cdf(np.asarray(t)), want), t
        assert _same_bits(csf._cdf_float(t), want), t
    nan = np.array([np.nan])
    assert np.isnan(csf._cdf(nan)).all() and np.isnan(csf._cdf_float(np.nan))
    assert np.isnan(csf._cdf_into(nan.copy(), np.empty(1))).all()


@pytest.mark.parametrize("call", [
    lambda csf: csf.noise_diff_cdf(7e153),
    lambda csf: csf.noise_diff_cdf(-7e153),
    lambda csf: csf.noise_diff_cdf(np.array([-7.9e153, -7e153, 7e153, 7.9e153])),
    lambda csf: csf.win_prob(6e307, 0.0),
    lambda csf: csf.win_prob(0.0, 6e307),
], ids=["above", "below", "array", "win", "lose"])
def test_noise_cdf_at_the_width_bound_raises_no_warning(call):
    # |t| near 2a at the widest admitted half width: only the chosen side
    # is squared, and its square stays below 8a^2
    csf = ProbitUniformCsf(half_width=4e153, f_exponent=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p = call(csf)
    assert np.all((0.0 < p) & (p < 1.0))


@pytest.mark.parametrize("a", [1e-3, 0.3, 1.0, 5.0, 30.0, 1e150, 4e153])
def test_float_cdf_is_bit_identical_to_the_array_cdf(a):
    csf = ProbitUniformCsf(half_width=a, f_exponent=0.5)
    grid = _cdf_points(a)
    for t in grid.tolist():
        want = csf.noise_diff_cdf(t)
        got = csf._cdf_float(t)
        assert type(got) is float
        assert (got, np.signbit(got)) == (want, np.signbit(want)), t
    assert np.isnan(csf._cdf_float(np.nan)) and np.isnan(csf.noise_diff_cdf(np.nan))
    # the oracle's in-place kernel against the CDF of the whole grid as one
    # array, which is how the oracle evaluates it (a 0-d input squares
    # through libm pow, an array through np.square: they can differ in the
    # last bit)
    want = csf.noise_diff_cdf(grid)
    assert _same_bits(csf._cdf_into(grid.copy(), np.empty_like(grid)), want)


@pytest.mark.parametrize("a", [5.0, 0.3, 1e-150, 1e150])
def test_float_density_equals_the_array_density(a):
    csf = ProbitUniformCsf(half_width=a, f_exponent=0.5)
    gaps = [0.0, -0.0, 0.5 * a, -1.3 * a, 2.0 * a, -2.0 * a, 3.0 * a,
            np.inf, -np.inf, np.nan, 0.7, -0.7]
    for gap in gaps:
        want = csf.noise_diff_density(gap)
        got = csf._density_float(gap)
        assert type(got) is float
        assert got == want or (np.isnan(got) and np.isnan(want))
        assert np.signbit(got) == np.signbit(want)



@pytest.mark.parametrize("call", [
    lambda: PowerCost(3.0, 1.0).cost(1e200),
    lambda: PowerCost(3.0, 1.0).marginal(1e200),
    lambda: PowerCost(3.0, 1.0).curvature(1e308),
    lambda: PowerCost(1.01, 1.0).marginal_inverse(1e10),
], ids=["cost", "marginal", "curvature", "marginal_inverse"])
def test_power_cost_overflow_is_inf_without_a_warning(call):
    # pytest turns a RuntimeWarning into an error, so a leaked overflow
    # warning fails here
    assert call() == math.inf


def test_power_cost_overflow_keeps_the_finite_entries_of_an_array():
    np.testing.assert_array_equal(
        PowerCost(3.0, 1.0).cost(np.array([2.0, 1e200])), [8.0, np.inf])


def test_power_cost_rejects_bad_parameters():
    for exponent, divisor in ((1.0, 12.0), (3.0, 0.0), (np.nan, 12.0),
                              (np.inf, 12.0), (3.0, np.nan), (3.0, np.inf),
                              (3.0, -np.inf)):
        with pytest.raises(ParameterError):
            PowerCost(exponent, divisor)
    with pytest.raises(ParameterError):
        PowerCost(3.0, 12.0).cost(-1.0)
