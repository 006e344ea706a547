"""The audit's deviation payoff in its plain where-form, kept here as the
independent reference for the package's in-place kernels: the ratio CSF's
tie is an np.where over the sum of powers, and every payoff is a fresh
array."""

import numpy as np

from tourney import TullockCsf


def win_prob(csf, bo, br):
    """The win probability at nonnegative effective efforts: under the
    ratio CSF po / (po + pr) with one half where the sum is not positive,
    by np.where; under the noise CSF the CDF at the performance gap."""
    if not isinstance(csf, TullockCsf):
        return csf._cdf(csf._gap(bo, br))
    po = bo ** csf.r
    pr = br ** csf.r
    tot = po + pr
    safe = np.where(tot > 0.0, tot, 1.0)
    return np.where(tot > 0.0, po / safe, 0.5)


def payoff(csf, cost, frozen, x, s):
    """Deviation payoff p * value - c(s) - x against the frozen rival
    (value, x_rival, s_rival), for nonnegative x and s; broadcasts."""
    value, x_rival, s_rival = frozen
    p = win_prob(csf, np.maximum(0.0, x - s_rival), np.maximum(0.0, x_rival - s))
    return p * value - cost._cost(s) - x
