"""Numpy kernels of the coexistence Monte Carlo: distances and path loss.

The ACIR study spends nearly all of its time evaluating log-distance
path loss over transmitter/receiver position arrays.  No randomness
lives in here: callers draw from numpy Generators and pass plain arrays.
``BACKEND`` names this implementation in run records.
"""

import numpy as np

BACKEND = "numpy"


def pairwise_distances(a, b):
    """(n, m) Euclidean distances between the rows of ``a`` (n, 2) and ``b`` (m, 2)."""
    d = a[:, None, :] - b[None, :, :]
    return np.sqrt((d * d).sum(axis=2))


def path_loss_db_matrix(dist_m, ref_loss_db, exponent, ref_distance_m, min_distance_m):
    """Log-distance path loss (dB), distances clamped below at ``min_distance_m``."""
    d = np.maximum(dist_m, min_distance_m)
    return ref_loss_db + 10.0 * exponent * np.log10(d / ref_distance_m)


# aggregate_rx_power_mw calls these bindings rather than the public names,
# so a wrapper installed on a public name sees only calls from outside.
_distances = pairwise_distances
_loss_db = path_loss_db_matrix


def aggregate_rx_power_mw(src_xy, src_p_dbm, rx_xy,
                          ref_loss_db, exponent, ref_distance_m, min_distance_m):
    """Total power (mW) at each receiver in ``rx_xy`` from all sources."""
    loss = _loss_db(_distances(rx_xy, src_xy), ref_loss_db, exponent,
                    ref_distance_m, min_distance_m)
    return (10.0 ** ((src_p_dbm[None, :] - loss) / 10.0)).sum(axis=1)
