"""Reference implementations that the frame-loop and sensing tests compare against.

Not a test module: pytest collects only ``test_*.py``.  The tests import
it by name, from this directory.
"""

from tvwsim.radio_env import mw_to_dbm
from tvwsim.sensing import channel_verdicts


def detect_channels(cfg, mw, windows=None):
    """Carrier statistics (dBm) and verdicts for every channel of ``windows``.

    The one-spectrum reference detector.  ``mw`` holds bin powers and
    ``windows`` the bin indices of ``carrier_windows``; with
    ``windows=None``, ``mw`` holds the powers already taken at those bins,
    shape (..., channels, carriers, width), where any leading axes (frames
    and CeNBs in the frame loop) index independent sensing rounds.  The
    per-carrier statistic is the linear power summed over its window (the
    last axis); returns the (..., channels, carriers) statistics and the
    (..., channels) occupied flags of ``channel_verdicts``, which decides
    on the sums in mW: a statistic within rounding of ``cfg.threshold_dbm``
    may lie on either side of it.
    """
    window_mw = mw if windows is None else mw[windows]
    sums = window_mw.sum(axis=-1)
    return mw_to_dbm(sums), channel_verdicts(cfg, sums)
