#!/usr/bin/env python3
"""Regenerate the committed package data files.

Writes src/tvwsim/data/detector_calibration.csv (the tuned detector
operating point with a Monte Carlo calibrated threshold) and
src/tvwsim/data/separation_table.csv (the illustrative power/height
separation table derived from the contour formula).

The package only reads these files, so their writers live here: the
threshold calibration (``calibrate_threshold``), the calibration writer
(``save_calibration``) and the separation-table writer
(``separation_table_to_csv``).  The tests import them from this module.

Run from the repository root:  python3 tools/gen_data.py
"""

import csv
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tvwsim.errors import CalibrationError
from tvwsim.geodb import SeparationTable, contour_radius_m
from tvwsim.radio_env import PropagationConfig, dbm_to_mw, mw_to_dbm
from tvwsim.sensing import THRESHOLD_ALWAYS_FIRE_DBM, DetectorConfig, _fill_unit_gamma

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "tvwsim", "data")

CALIBRATION_SEED = 20240817
CALIBRATION_TRIALS = 200_000


def calibrate_threshold(cfg, noise_window_dbm=None, trials=None, seed=0):
    """``cfg`` with a Monte Carlo threshold against the pure-noise hypothesis.

    Samples the k-of-n order statistic under noise and puts the threshold
    (dBm) at its (1 - target_pfa) quantile.  The unit-mean Gamma draws
    fill one carrier-major (trials, carriers) array, which is scaled to mW
    and partitioned in place, so the working set is that array and the
    quantile's copy of one column of it.
    """
    if cfg.target_pfa >= 1.0:
        return replace(cfg, threshold_dbm=THRESHOLD_ALWAYS_FIRE_DBM)
    min_trials = int(np.ceil(10.0 / cfg.target_pfa))
    if trials is None:
        trials = max(100_000, min_trials)
    if trials < min_trials:
        raise ValueError(f"need at least {min_trials} calibration trials "
                         f"for target_pfa={cfg.target_pfa}")
    noise_mw = cfg.window_noise_mw() if noise_window_dbm is None else float(
        dbm_to_mw(noise_window_dbm))
    if not np.isfinite(noise_mw) or noise_mw <= 0:
        raise CalibrationError("degenerate noise model")
    stats = np.empty((trials, cfg.n_carriers), order="F")
    _fill_unit_gamma(stats, cfg.n_snapshots(), np.random.default_rng(seed))
    np.multiply(stats, noise_mw, out=stats)
    # k-th largest per trial: the rule fires iff it exceeds the threshold.
    kth_col = cfg.n_carriers - cfg.k_required
    stats.partition(kth_col, axis=1)
    kth = stats[:, kth_col]
    tau = float(np.quantile(kth, 1.0 - cfg.target_pfa))
    empirical = float(np.mean(kth > tau))
    if not np.isfinite(tau) or tau <= 0 or abs(empirical - cfg.target_pfa) > 0.2 * cfg.target_pfa:
        raise CalibrationError(
            f"calibration did not converge (empirical pfa {empirical:.4g})")
    return replace(cfg, threshold_dbm=float(mw_to_dbm(tau)))


def save_calibration(cfg, path):
    """Persist the tuned operating point as a param,value CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value"])
        writer.writerow(["noise_figure_db", f"{cfg.noise_figure_db:.10g}"])
        writer.writerow(["snapshots_per_ms", f"{cfg.snapshots_per_ms:.10g}"])
        writer.writerow(["threshold_dbm", repr(float(cfg.threshold_dbm))])
        writer.writerow(["k_required", cfg.k_required])


def separation_table_to_csv(table, path):
    """Write a separation table as ``separation_table_from_csv`` reads it."""
    width = len(table.heights_m)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["power_dbm"] + [f"{h:g}" for h in table.heights_m])
        for i, p in enumerate(table.powers_dbm):
            row = table.separation_m[i * width:(i + 1) * width]
            writer.writerow([f"{p:g}"] + [f"{v:.10g}" for v in row])


def gen_calibration():
    cfg = calibrate_threshold(
        DetectorConfig(noise_figure_db=6.0, snapshots_per_ms=12500.0, k_required=2,
                       target_pfa=0.01, sense_duration_ms=2.0),
        trials=CALIBRATION_TRIALS, seed=CALIBRATION_SEED)
    path = os.path.join(DATA_DIR, "detector_calibration.csv")
    save_calibration(cfg, path)
    print(f"wrote {path} (threshold {cfg.threshold_dbm:.6f} dBm, "
          f"m={cfg.n_snapshots()})")


def gen_separation_table():
    prop = PropagationConfig()
    powers = (0.0, 10.0, 20.0, 30.0)
    heights = (10.0, 30.0, 50.0)
    values = []
    for p in powers:
        base = contour_radius_m(p, -114.0, prop, freq_mhz=700.0)
        for h in heights:
            # Height enters as a mild monotone gain factor; illustrative only.
            values.append(round(base * (h / 10.0) ** 0.25, 1))
    table = SeparationTable(powers, heights, tuple(values))
    path = os.path.join(DATA_DIR, "separation_table.csv")
    separation_table_to_csv(table, path)
    print(f"wrote {path}")


if __name__ == "__main__":
    os.makedirs(DATA_DIR, exist_ok=True)
    gen_calibration()
    gen_separation_table()
