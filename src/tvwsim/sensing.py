"""Feature detector for analog TV carriers and its Monte Carlo characterization.

The detector measures the received power in a narrow window (default
200 kHz, one RBW bin) centered on each of the three analog TV carriers
of a channel and declares the channel occupied when at least
``k_required`` carrier statistics exceed a common calibrated threshold.
Narrowband windows buy roughly 10*log10(8 MHz / 200 kHz) = 16 dB of
noise rejection over whole-channel energy detection.

Statistic model: each window statistic is the mean of ``n_snapshots``
independent exponential power samples, i.e. Gamma(m, mu/m) with
m = sense_duration_ms * snapshots_per_ms * (det_bw / 200 kHz) and mu
the window signal-plus-noise power.  Monte Carlo routines sample that
Gamma law directly, which is exact and keeps a 1e5-trial run under a
second.
"""

import csv
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import CalibrationError, CoverageError, ParseError
from .radio_env import (
    DEFAULT_CARRIER_SPLIT,
    PAL_D_CARRIER_OFFSETS_MHZ,
    TvStandard,
    TvTransmitter,
    dbm_to_mw,
    mw_to_dbm,
    synthesize_tv_spectrum,
    thermal_noise_dbm,
)

THRESHOLD_ALWAYS_FIRE_DBM = float("-inf")


class Decision(Enum):
    OCCUPIED = "Occupied"
    VACANT = "Vacant"


@dataclass(frozen=True)
class SensingReport:
    """One detector verdict for one channel at one instant."""

    cenb_id: str
    channel_index: int
    decision: Decision
    carrier_stats_dbm: tuple
    t_ms: float


@dataclass
class DetectorConfig:
    carrier_offsets_mhz: tuple = PAL_D_CARRIER_OFFSETS_MHZ
    det_bw_khz: float = 200.0
    sense_duration_ms: float = 2.0
    k_required: int = 2
    target_pfa: float = 0.01
    threshold_dbm: float | None = None
    noise_figure_db: float = 6.0
    snapshots_per_ms: float = 400.0

    def __post_init__(self):
        n = len(self.carrier_offsets_mhz)
        if not 1 <= self.k_required <= n:
            raise ValueError(f"k_required must be in 1..{n}")
        if not 0 < self.target_pfa <= 1:
            raise ValueError("target_pfa must be in (0, 1]")
        spacing = np.diff(np.sort(np.asarray(self.carrier_offsets_mhz)))
        if spacing.size and self.det_bw_khz / 1000.0 > float(spacing.min()):
            raise ValueError("detection bandwidth exceeds minimum carrier spacing")
        if self.sense_duration_ms <= 0 or self.snapshots_per_ms <= 0:
            raise ValueError("sense duration and snapshot rate must be positive")

    @property
    def n_carriers(self):
        return len(self.carrier_offsets_mhz)

    def n_snapshots(self, duration_ms=None):
        """Averaging count: duration x rate, scaled to the detection bandwidth."""
        duration = self.sense_duration_ms if duration_ms is None else duration_ms
        m = duration * self.snapshots_per_ms * (self.det_bw_khz / 200.0)
        return max(1, int(round(m)))

    def window_noise_mw(self):
        return float(dbm_to_mw(thermal_noise_dbm(self.det_bw_khz, self.noise_figure_db)))


def _combined_pfa(p1, k, n):
    """False-alarm rate of the k-of-n rule given per-carrier rate p1."""
    from math import comb

    return sum(comb(n, i) * p1**i * (1 - p1) ** (n - i) for i in range(k, n + 1))


def per_carrier_pfa(target_pfa, k, n):
    """Invert the k-of-n combination by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _combined_pfa(mid, k, n) < target_pfa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gamma_mean1_isf(p, shape):
    """Upper-tail quantile of Gamma(shape)/shape via Wilson-Hilferty.

    The relative error falls with the shape: at shape 100 it is 4e-5 at
    p = 1e-2 and 1e-3 at p = 1e-8; at the operating shape of 21 250
    (1.7 ms of sensing) it stays below 5e-7 for p down to 1e-8.  Serves
    as the analytic counterpart of the Monte Carlo calibration.
    """
    z = _norm_isf(p)
    a = 1.0 / (9.0 * shape)
    return (1.0 - a + z * np.sqrt(a)) ** 3


def _norm_isf(p):
    """Inverse upper-tail of the standard normal (Acklam rational fit)."""
    p = 1.0 - p
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = np.sqrt(-2 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = np.sqrt(-2 * np.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def analytic_threshold_dbm(cfg, noise_window_dbm=None, duration_ms=None):
    """Closed-form threshold meeting target_pfa under the Gamma noise law."""
    noise_mw = cfg.window_noise_mw() if noise_window_dbm is None else float(
        dbm_to_mw(noise_window_dbm))
    if not np.isfinite(noise_mw) or noise_mw <= 0:
        raise CalibrationError("degenerate noise model")
    if cfg.target_pfa >= 1.0:
        return THRESHOLD_ALWAYS_FIRE_DBM
    p1 = per_carrier_pfa(cfg.target_pfa, cfg.k_required, cfg.n_carriers)
    m = cfg.n_snapshots(duration_ms)
    return float(mw_to_dbm(noise_mw * _gamma_mean1_isf(p1, m)))


def _noise_trial_stats(cfg, noise_mw, trials, rng):
    m = cfg.n_snapshots()
    return noise_mw * rng.gamma(m, 1.0 / m, size=(trials, cfg.n_carriers))


def calibrate_threshold(cfg, noise_window_dbm=None, trials=None, seed=0):
    """Monte Carlo threshold calibration against the pure-noise hypothesis.

    Samples the k-of-n order statistic under noise and sets the
    threshold at its (1 - target_pfa) quantile; the result is stored on
    the config and returned in dBm.
    """
    if cfg.target_pfa >= 1.0:
        cfg.threshold_dbm = THRESHOLD_ALWAYS_FIRE_DBM
        return cfg.threshold_dbm
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
    rng = np.random.default_rng(seed)
    stats = _noise_trial_stats(cfg, noise_mw, trials, rng)
    # k-th largest per trial: the rule fires iff it exceeds the threshold.
    kth = np.partition(stats, cfg.n_carriers - cfg.k_required, axis=1)[
        :, cfg.n_carriers - cfg.k_required]
    tau = float(np.quantile(kth, 1.0 - cfg.target_pfa))
    empirical = float(np.mean(kth > tau))
    if not np.isfinite(tau) or tau <= 0 or abs(empirical - cfg.target_pfa) > 0.2 * cfg.target_pfa:
        raise CalibrationError(
            f"calibration did not converge (empirical pfa {empirical:.4g})")
    cfg.threshold_dbm = float(mw_to_dbm(tau))
    return cfg.threshold_dbm


def carrier_window_indices(spectrum, grid, channel_index, cfg):
    """Bin indices of each carrier window for a channel, or CoverageError."""
    lo = grid.low_edge_mhz(channel_index)
    hi = grid.high_edge_mhz(channel_index)
    if not spectrum.covers(lo, hi):
        raise CoverageError(
            f"spectrum {spectrum.start_mhz}-{spectrum.stop_mhz} MHz does not "
            f"cover channel {channel_index} ({lo}-{hi} MHz)")
    wins = []
    for off in cfg.carrier_offsets_mhz:
        idx = spectrum.window_indices(lo + off, cfg.det_bw_khz / 1000.0)
        if idx.size == 0:
            raise CoverageError(f"no bins in carrier window at {lo + off} MHz")
        wins.append(idx)
    return wins


def detect_tv(cfg, spectrum, channel_index, grid, cenb_id="", t_ms=0.0):
    """Apply the k-of-n carrier rule to a received spectrum.

    The per-carrier statistic is the linear power summed over the
    detection window.  Pure function of (cfg, spectrum).
    """
    if cfg.threshold_dbm is None:
        raise CalibrationError("threshold not calibrated; run calibrate_threshold first")
    bins_mw = spectrum.bins_mw()
    stats = []
    for idx in carrier_window_indices(spectrum, grid, channel_index, cfg):
        stats.append(float(mw_to_dbm(bins_mw[idx].sum())))
    n_above = sum(s >= cfg.threshold_dbm for s in stats)
    decision = Decision.OCCUPIED if n_above >= cfg.k_required else Decision.VACANT
    return SensingReport(cenb_id=cenb_id, channel_index=channel_index,
                         decision=decision, carrier_stats_dbm=tuple(stats), t_ms=t_ms)


def channel_energy_dbm(spectrum, channel_index, grid):
    """Whole-channel energy statistic (linear sum over all channel bins)."""
    lo = grid.low_edge_mhz(channel_index)
    hi = grid.high_edge_mhz(channel_index)
    if not spectrum.covers(lo, hi):
        raise CoverageError(f"spectrum does not cover channel {channel_index}")
    centers = spectrum.bin_centers_mhz()
    idx = np.nonzero((centers > lo) & (centers < hi))[0]
    return float(mw_to_dbm(spectrum.bins_mw()[idx].sum()))


def carrier_signal_mw(cfg, total_power_dbm, channel_width_mhz=8.0,
                      carrier_split=DEFAULT_CARRIER_SPLIT, grid=None):
    """Mean received signal power inside each carrier window.

    Derived from the synthesized transmit spectrum so that Monte Carlo
    characterization and spectrum-level detection share one signal
    model (carrier fraction plus the residual share of the window).
    """
    if total_power_dbm == float("-inf"):
        return np.zeros(cfg.n_carriers)
    if grid is None:
        from .radio_env import FrequencyBand, build_channel_grid

        grid = build_channel_grid(FrequencyBand(470.0, 470.0 + channel_width_mhz),
                                  channel_width_mhz)
    tx = TvTransmitter(id="ref", standard=TvStandard.ANALOG_PAL_D, channel_index=0,
                       location=(0.0, 0.0), eirp_dbm=total_power_dbm)
    spec = synthesize_tv_spectrum(tx, grid, cfg.det_bw_khz, total_power_dbm,
                                  carrier_split)
    bins_mw = spec.bins_mw()
    out = []
    for idx in carrier_window_indices(spec, grid, 0, cfg):
        out.append(bins_mw[idx].sum())
    return np.asarray(out)


def _detect_counts(cfg, signal_mw, noise_mw, trials, rng, shared_g=None):
    """Occupied count over Monte Carlo trials for fixed window means."""
    m = cfg.n_snapshots()
    g = rng.gamma(m, 1.0 / m, size=(trials, cfg.n_carriers)) if shared_g is None else shared_g
    tau = float(dbm_to_mw(cfg.threshold_dbm))
    stats = (noise_mw + signal_mw[None, :]) * g
    fired = (stats >= tau).sum(axis=1)
    return int((fired >= cfg.k_required).sum())


def measure_pfa(cfg, trials=100_000, seed=1, noise_window_dbm=None):
    """Empirical false-alarm rate under pure noise on a fresh stream."""
    if cfg.threshold_dbm is None:
        raise CalibrationError("threshold not calibrated")
    noise_mw = cfg.window_noise_mw() if noise_window_dbm is None else float(
        dbm_to_mw(noise_window_dbm))
    rng = np.random.default_rng([seed, 0x0FA])
    count = _detect_counts(cfg, np.zeros(cfg.n_carriers), noise_mw, trials, rng)
    return count / trials


def measure_pd(cfg, total_power_dbm, trials=100_000, seed=1, channel_width_mhz=8.0):
    """Empirical detection probability at one received PAL-D power level."""
    if cfg.threshold_dbm is None:
        raise CalibrationError("threshold not calibrated")
    sig = carrier_signal_mw(cfg, total_power_dbm, channel_width_mhz)
    rng = np.random.default_rng([seed, 0x0D0])
    count = _detect_counts(cfg, sig, cfg.window_noise_mw(), trials, rng)
    return count / trials


@dataclass(frozen=True)
class RocPoint:
    power_dbm: float
    pd: float
    pfa: float


def estimate_roc(cfg, signal_power_dbm, trials=100_000, seed=1, channel_width_mhz=8.0):
    """Detection probability across received power levels.

    Common random numbers are shared across power levels, so the
    estimated curve is exactly non-decreasing in power; the reported
    pfa is re-measured once on a disjoint substream.
    """
    if cfg.threshold_dbm is None:
        raise CalibrationError("threshold not calibrated")
    noise_mw = cfg.window_noise_mw()
    m = cfg.n_snapshots()
    rng = np.random.default_rng([seed, 0x20C])
    g = rng.gamma(m, 1.0 / m, size=(trials, cfg.n_carriers))
    pfa = measure_pfa(cfg, trials, seed)
    points = []
    for power in signal_power_dbm:
        sig = carrier_signal_mw(cfg, power, channel_width_mhz)
        count = _detect_counts(cfg, sig, noise_mw, trials, rng, shared_g=g)
        points.append(RocPoint(power_dbm=float(power), pd=count / trials, pfa=pfa))
    return points


def roc_to_csv(points, trials, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["power_dbm", "pd", "pfa", "trials"])
        for p in points:
            writer.writerow([f"{p.power_dbm:.10g}", f"{p.pd:.10g}",
                             f"{p.pfa:.10g}", trials])


CALIBRATION_FIELDS = ("noise_figure_db", "snapshots_per_ms", "threshold_dbm", "k_required")


def save_calibration(cfg, path):
    """Persist the tuned operating point as a param,value CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value"])
        writer.writerow(["noise_figure_db", f"{cfg.noise_figure_db:.10g}"])
        writer.writerow(["snapshots_per_ms", f"{cfg.snapshots_per_ms:.10g}"])
        writer.writerow(["threshold_dbm", repr(float(cfg.threshold_dbm))])
        writer.writerow(["k_required", cfg.k_required])


def load_calibration(path, base=None):
    """Detector config from a calibration CSV, on top of defaults."""
    cfg = base if base is not None else DetectorConfig()
    values = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["param", "value"]:
            raise ParseError("expected header param,value", line=1, path=path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError("expected two columns", line=lineno, path=path)
            key, value = row[0].strip(), row[1].strip()
            if key not in CALIBRATION_FIELDS:
                raise ParseError(f"unknown calibration param {key!r}",
                                 line=lineno, path=path)
            values[key] = value
    missing = [k for k in CALIBRATION_FIELDS if k not in values]
    if missing:
        raise ParseError(f"missing calibration params: {', '.join(missing)}", path=path)
    return replace(cfg,
                   noise_figure_db=float(values["noise_figure_db"]),
                   snapshots_per_ms=float(values["snapshots_per_ms"]),
                   threshold_dbm=float(values["threshold_dbm"]),
                   k_required=int(values["k_required"]))


def default_calibration():
    """The committed calibration shipped with the package."""
    from importlib.resources import files

    return load_calibration(str(files("tvwsim.data") / "detector_calibration.csv"))
