"""Property tests of the draw threshold behind the Monte Carlo ROC.

``sensing._draw_threshold(a, tau)`` is the smallest double g >= 0 with
``fl(a * g) >= tau``; the ROC counts draws against it in place of
forming the products, which is exact only if it is the boundary to the
last bit.  ``sensing.threshold_mw(thr)``, found by the same search, is
the smallest power whose ``mw_to_dbm`` reaches a threshold in dBm; the
frame loop's verdicts compare window sums with it in place of taking
their logarithm.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvwsim.radio_env import mw_to_dbm
from tvwsim.sensing import (
    _draw_threshold,
    analytic_threshold_dbm,
    default_calibration,
    threshold_mw,
)


def binades(lo=-1074, hi=1023):
    """Positive doubles spread evenly over binary exponents, subnormals included."""
    return st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(lo, hi))


# Gamma draws are finite and non-negative.
draws = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | binades()


@settings(max_examples=500)
@given(a=binades(), tau=binades())
def test_threshold_is_the_exact_boundary(a, tau):
    g = _draw_threshold(a, tau)
    assert a * g >= tau
    assert a * math.nextafter(g, 0.0) < tau


@settings(max_examples=500)
@given(a=binades(), tau=binades(), d=draws)
def test_draw_fires_iff_it_reaches_the_threshold(a, tau, d):
    assert (a * d >= tau) == (d >= _draw_threshold(a, tau))


@given(a=binades() | st.just(0.0), d=draws)
def test_zero_threshold_fires_on_every_draw(a, d):
    g = _draw_threshold(a, 0.0)
    assert g == 0.0
    assert d >= g and a * d >= 0.0


def test_edges_without_a_finite_boundary():
    assert math.isnan(_draw_threshold(0.0, 1e-13))  # a zero window never fires
    assert _draw_threshold(1e-13, math.inf) == math.inf  # no finite product reaches inf
    assert _draw_threshold(math.inf, 1e-13) == 5e-324  # any positive draw fires


def _operating_threshold_dbm(target_pfa):
    """The frame loop's threshold: the default calibration at an operational
    pfa, over the 1.7 ms sensing time of the default frame."""
    det = replace(default_calibration(), target_pfa=target_pfa, sense_duration_ms=1.7,
                  threshold_dbm=None)
    return analytic_threshold_dbm(det)


@pytest.mark.parametrize("target_pfa", [1e-8, 1e-3, 0.01, 1.0])
def test_mw_threshold_selects_the_powers_that_reach_the_dbm_threshold(target_pfa):
    thr = _operating_threshold_dbm(target_pfa)
    x_star = threshold_mw(thr)
    if target_pfa >= 1.0:
        assert thr == -math.inf and x_star == 0.0
    # Every double within 2**16 ulps of x*, as an array like the frame loop's.
    bits = np.array([x_star]).view(np.int64) + np.arange(-(1 << 16), (1 << 16) + 1)
    x = bits[bits >= 0].view(np.float64)
    assert np.array_equal(mw_to_dbm(x) >= thr, x >= x_star)
    for edge in (0.0, 5e-324, 1e-310, math.inf):
        assert bool(mw_to_dbm(edge) >= thr) == (edge >= x_star)
