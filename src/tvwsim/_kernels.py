"""Former kernels of the coexistence study, kept only for the benchmark.

No module imports this one: the ACIR study's path loss is
``radio_env.PropagationConfig.median_loss_db``.  ``benchmarks/tracing.py``
wraps these three functions by name and ``benchmarks/run.py`` records
``BACKEND``, so the file goes with the benchmark change that drops both.
"""

import numpy as np

BACKEND = "numpy"


def pairwise_distances(a, b):
    """(n, m) Euclidean distances between the rows of ``a`` (n, 2) and ``b`` (m, 2)."""
    d = a[:, None, :] - b[None, :, :]
    return np.sqrt((d * d).sum(axis=2))


def path_loss_db_matrix(dist_m, ref_loss_db, exponent, ref_distance_m, min_distance_m,
                        out=None):
    """Log-distance path loss (dB), distances clamped below at ``min_distance_m``.

    The loss is written to ``out`` when given; ``out`` may be ``dist_m``
    itself.  The result is the same either way, bit for bit.
    """
    d = np.maximum(dist_m, min_distance_m, out=out)
    d /= ref_distance_m
    np.log10(d, out=d)
    d *= 10.0 * exponent
    d += ref_loss_db
    return d


def aggregate_rx_power_mw(src_xy, src_p_dbm, rx_xy,
                          ref_loss_db, exponent, ref_distance_m, min_distance_m):
    """Total power (mW) at each receiver in ``rx_xy`` from all sources."""
    loss = path_loss_db_matrix(pairwise_distances(rx_xy, src_xy), ref_loss_db, exponent,
                               ref_distance_m, min_distance_m)
    return (10.0 ** ((src_p_dbm[None, :] - loss) / 10.0)).sum(axis=1)
