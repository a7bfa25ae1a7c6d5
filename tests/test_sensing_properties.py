"""Property tests of the draw threshold behind the Monte Carlo ROC.

``sensing._draw_threshold(a, tau)`` is the smallest double g >= 0 with
``fl(a * g) >= tau``; the ROC counts draws against it in place of
forming the products, which is exact only if it is the boundary to the
last bit.  Its ``tau`` is ``DetectorConfig.threshold_mw()``, the value
the frame loop's verdicts compare window sums with, so the ROC describes
the detector that the simulator runs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tvwsim.sensing import (
    _draw_threshold,
    _draw_thresholds,
    channel_verdicts,
    default_calibration,
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


def test_the_frame_loop_and_the_roc_fire_at_one_mw_threshold():
    cfg = default_calibration()
    tau = cfg.threshold_mw()
    at, below = np.full(cfg.n_carriers, tau), np.full(cfg.n_carriers, math.nextafter(tau, 0.0))
    assert channel_verdicts(cfg, np.array([at, below])).tolist() == [True, False]
    noise = cfg.window_noise_mw()
    g_star = _draw_thresholds(cfg, np.zeros(cfg.n_carriers), noise)
    assert (noise * g_star >= tau).all()
    assert (noise * np.nextafter(g_star, 0.0) < tau).all()
