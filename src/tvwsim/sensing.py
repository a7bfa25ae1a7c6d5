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

The Monte Carlo never forms the statistics themselves.  A trial's
statistic on carrier c is fl(a_c * g) for a unit-mean Gamma draw g and
window mean a_c = noise + signal_c, and it fires when it reaches the
threshold tau in mW.  Round-to-nearest multiplication is monotone in g,
so for a_c >= 0 the firing draws are exactly those with g >= g*_c, the
smallest double whose product reaches tau (``_draw_threshold``).
Comparing the shared draws with the per-carrier g*_c therefore selects
the same trials, bit for bit, as comparing the products with tau.

The package reads its operating point from a calibration file
(``load_calibration``); ``tools/gen_data.py`` holds the Monte Carlo
calibration that wrote the shipped one, on ``_fill_unit_gamma`` draws.
"""

import csv
import math
import struct
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, CoverageError, ParseError
from .radio_env import (
    PAL_D_CARRIER_OFFSETS_MHZ,
    FrequencyBand,
    TvStandard,
    TvTransmitter,
    build_channel_grid,
    csv_rows,
    dbm_to_mw,
    finite_float,
    mw_to_dbm,
    row_errors,
    synthesize_tv_spectrum,
    thermal_noise_dbm,
)

THRESHOLD_ALWAYS_FIRE_DBM = float("-inf")


@dataclass(frozen=True)
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
        if not math.isfinite(self._averaging_count(self.sense_duration_ms)):
            raise ValueError("averaging count (duration x snapshot rate) is not finite")

    @property
    def n_carriers(self):
        return len(self.carrier_offsets_mhz)

    def n_snapshots(self, duration_ms=None):
        """Averaging count: duration x rate, scaled to the detection bandwidth."""
        duration = self.sense_duration_ms if duration_ms is None else duration_ms
        return max(1, int(round(self._averaging_count(duration))))

    def _averaging_count(self, duration_ms):
        return duration_ms * self.snapshots_per_ms * (self.det_bw_khz / 200.0)

    def window_noise_mw(self):
        return float(dbm_to_mw(thermal_noise_dbm(self.det_bw_khz, self.noise_figure_db)))

    def threshold_mw(self):
        """The threshold in mW: the frame loop's window sums and the Monte
        Carlo's window statistics are compared with this one value."""
        return float(dbm_to_mw(self.threshold_dbm))


def _combined_pfa(p1, k, n):
    """False-alarm rate of the k-of-n rule given per-carrier rate p1."""
    return sum(math.comb(n, i) * p1**i * (1 - p1) ** (n - i) for i in range(k, n + 1))


def per_carrier_pfa(target_pfa, k, n):
    """Invert the k-of-n combination by bisection.

    The bisection stops once the midpoint equals an end of the bracket:
    no later step could move the bracket's midpoint, so that midpoint is
    the result 200 steps would give.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _combined_pfa(mid, k, n) < target_pfa:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gamma_mean1_isf(p, shape):
    """Upper-tail quantile of Gamma(shape)/shape via Wilson-Hilferty.

    The relative error falls with the shape: at shape 100 it is 4e-5 at
    p = 1e-2 and 1e-3 at p = 1e-8; at the operating shape of 21 250
    (1.7 ms of sensing) it stays below 5e-7 for p down to 1e-8.  The
    closed-form twin of the Monte Carlo calibration in ``tools/gen_data.py``.
    """
    from statistics import NormalDist

    z = -NormalDist().inv_cdf(p)
    a = 1.0 / (9.0 * shape)
    return (1.0 - a + z * np.sqrt(a)) ** 3


def analytic_threshold_dbm(cfg):
    """Closed-form threshold meeting target_pfa under the Gamma noise law."""
    noise_mw = cfg.window_noise_mw()
    if not np.isfinite(noise_mw) or noise_mw <= 0:
        raise CalibrationError("degenerate noise model")
    if cfg.target_pfa >= 1.0:
        return THRESHOLD_ALWAYS_FIRE_DBM
    p1 = per_carrier_pfa(cfg.target_pfa, cfg.k_required, cfg.n_carriers)
    return float(mw_to_dbm(noise_mw * _gamma_mean1_isf(p1, cfg.n_snapshots())))


def carrier_windows(bin_centers_mhz, channel_low_edges_mhz, cfg):
    """Bin indices of every carrier window, shape (channels, carriers, width).

    Window (c, j) holds the bins whose centers (ascending) lie within
    half the detection bandwidth of ``channel_low_edges_mhz[c]`` plus
    carrier offset j.  Only the candidates a binary search finds are
    tested, widened by a bin on each side, in one (windows, candidates)
    pass, so the cost does not grow with windows x bins.  Raises
    CoverageError when a window has no bins or the windows differ in
    width.
    """
    centers = np.asarray(bin_centers_mhz, dtype=float)
    reach = cfg.det_bw_khz / 1000.0 / 2 + 1e-9
    mids = np.add.outer(np.asarray(channel_low_edges_mhz, dtype=float),
                        np.asarray(cfg.carrier_offsets_mhz, dtype=float)).ravel()
    starts = np.maximum(np.searchsorted(centers, mids - reach) - 1, 0)
    stops = np.minimum(np.searchsorted(centers, mids + reach, side="right") + 1, centers.size)
    span = int((stops - starts).max(initial=0))
    candidates = starts[:, None] + np.arange(span)
    inside = (candidates < stops[:, None]) & (
        np.abs(centers[np.minimum(candidates, centers.size - 1)] - mids[:, None]) <= reach)
    widths = inside.sum(axis=1)
    if not widths.size or widths.min() == 0 or widths.min() != widths.max():
        raise CoverageError(f"carrier windows of {cfg.det_bw_khz:g} kHz hold "
                            f"{sorted(set(widths.tolist()))} bins; need one non-zero width")
    return candidates[inside].reshape(len(channel_low_edges_mhz), cfg.n_carriers, -1)


def _k_of_n(stats, threshold, k):
    """k-of-n rule: True where at least k statistics (last axis) reach the threshold.

    ``threshold`` is one scalar for every carrier or a vector with one
    entry per carrier (the last axis).  Hits are counted in uint8, one
    carrier column at a time, which holds for fewer than 256 carriers.
    """
    hit = (stats >= threshold).view(np.uint8)
    count = hit[..., 0]
    for j in range(1, hit.shape[-1]):
        count = count + hit[..., j]
    return count >= k


def channel_verdicts(cfg, sums_mw):
    """Occupied flags (...) of carrier-window sums ``sums_mw`` (..., carriers) in mW.

    A carrier fires when its sum reaches ``cfg.threshold_mw()``, the value
    the ROC's statistics are compared with too, so no logarithm is taken
    for a verdict.
    """
    return _k_of_n(sums_mw, cfg.threshold_mw(), cfg.k_required)


def carrier_signal_mw(cfg, total_power_dbm):
    """Mean received signal power inside each carrier window of an 8 MHz channel.

    Derived from the synthesized transmit spectrum so that Monte Carlo
    characterization and spectrum-level detection share one signal
    model (carrier fraction plus the residual share of the window).
    """
    if total_power_dbm == float("-inf"):
        return np.zeros(cfg.n_carriers)
    grid = build_channel_grid(FrequencyBand(470.0, 478.0), 8.0)
    tx = TvTransmitter(id="ref", standard=TvStandard.ANALOG_PAL_D, channel_index=0,
                       location=(0.0, 0.0), eirp_dbm=total_power_dbm)
    spectrum_mw = synthesize_tv_spectrum(tx, grid, cfg.det_bw_khz, total_power_dbm)
    windows = carrier_windows(grid.bin_centers_mhz(cfg.det_bw_khz), grid.low_edges_mhz[:1], cfg)
    return spectrum_mw[windows[0]].sum(axis=1)


# Non-negative doubles order like their bit patterns read as integers.
_INF_BITS = 0x7FF0000000000000


def _double_bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _least_double(fires, guess):
    """Smallest double x in [0, inf] with ``fires(x)``; NaN if there is none.

    ``fires`` must be false below its answer and true from it on.  The
    search runs over the bit patterns of [0, inf], which order like the
    doubles: from the pattern of ``guess`` it steps away in doubling
    steps until it has passed the answer, then bisects, so an answer k
    patterns from the guess costs about 2 log2(k) calls.  A guess outside
    [0, inf] (NaN) bisects the whole range.
    """
    lo, hi = -1, _INF_BITS + 1  # patterns outside [0, inf] that never / always fire
    start, step = _double_bits(guess), 1
    if 0 <= start <= _INF_BITS:
        if fires(_bits_double(start)):
            hi = start
            while hi - step >= 0 and fires(_bits_double(hi - step)):
                hi, step = hi - step, 2 * step
            lo = max(hi - step, -1)
        else:
            lo = start
            while lo + step <= _INF_BITS and not fires(_bits_double(lo + step)):
                lo, step = lo + step, 2 * step
            hi = min(lo + step, _INF_BITS + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fires(_bits_double(mid)):
            hi = mid
        else:
            lo = mid
    return _bits_double(hi) if hi <= _INF_BITS else math.nan


def _draw_threshold(scale, tau):
    """Smallest draw g >= 0 with ``fl(scale * g) >= tau``; NaN if there is none.

    Rounding to nearest is monotone, so a finite draw g >= 0 has
    ``scale * g >= tau`` exactly when ``g >= _draw_threshold(scale, tau)``,
    for every scale >= 0 and every tau.  ``_least_double`` starts at
    ``tau / scale``: in the normal range the answer lies within a pattern
    of it, so it costs two to four products.  The edges need no branch of
    their own: tau = 0 gives 0
    (every draw fires), a product that underflows into subnormals or
    overflows to inf only lengthens the bisection, and a scale of 0 gives
    NaN when tau > 0 (no draw fires).
    """
    # A zero scale starts at the largest finite draw: 0 * inf is NaN, which never fires.
    return _least_double(lambda g: scale * g >= tau,
                         tau / scale if scale > 0 else sys.float_info.max)


_DRAW_CHUNK = 1 << 15  # trials per chunk of the Monte Carlo draws
_SUB_DRAW = 1 << 12  # trials per standard_gamma call that fills a chunk


def _fill_unit_gamma(rows, m, rng):
    """Fill ``rows``, a (trials, carriers) array of any layout, with
    ``rng.gamma(m, 1/m, size=rows.shape)``, bit for bit.

    ``Generator.gamma`` is ``scale * standard_gamma``, so the stream is
    drawn trial-major by ``standard_gamma`` into one C-contiguous buffer
    of ``_SUB_DRAW`` trials (its ``out`` must be C-contiguous) and scaled
    into ``rows`` from there.  The buffer, about 100 kB for three
    carriers, is all this allocates.
    """
    drawn = np.empty((min(_SUB_DRAW, len(rows)), rows.shape[1]))
    for start in range(0, len(rows), _SUB_DRAW):
        part = drawn[:min(_SUB_DRAW, len(rows) - start)]
        rng.standard_gamma(m, out=part)
        np.multiply(part, 1.0 / m, out=rows[start:start + len(part)])


def _unit_gamma_chunks(cfg, trials, rng):
    """Unit-mean Gamma window draws, in chunks of ``_DRAW_CHUNK`` trials.

    Stacked, the chunks are ``rng.gamma(m, 1/m, size=(trials, carriers))``.
    Every chunk is a view of one carrier-major buffer, allocated once per
    call and refilled at each step (``_fill_unit_gamma``), so a chunk is
    valid only until the next step: a caller that keeps one copies it.
    Each carrier's draws are contiguous, so comparing them with a
    per-carrier threshold runs at unit stride.  The working set is that
    buffer, ``_DRAW_CHUNK`` x carriers doubles, plus the fill's
    ``_SUB_DRAW``-trial one, whatever ``trials``.
    """
    m = cfg.n_snapshots()
    chunk = np.empty((min(_DRAW_CHUNK, trials), cfg.n_carriers), order="F")
    for start in range(0, trials, _DRAW_CHUNK):
        g = chunk[:min(_DRAW_CHUNK, trials - start)]
        _fill_unit_gamma(g, m, rng)
        yield g


def _draw_thresholds(cfg, signal_mw, noise_mw):
    """Per-carrier draws at which ``fl((noise_mw + signal_mw[c]) * g)`` reaches
    the threshold (``_draw_threshold``): comparing draws with them fires
    on the same trials as comparing the products."""
    tau = cfg.threshold_mw()
    return np.array([_draw_threshold(float(noise_mw + s), tau) for s in signal_mw])


def _detect_counts(cfg, g_stars, trials, rng):
    """Occupied counts over the draws of ``_unit_gamma_chunks(cfg, trials, rng)``,
    one count per row of draw thresholds ``g_stars``.

    Each chunk of draws is counted for every row before the next one is
    drawn into the same buffer, so the working set is that one chunk,
    the fill's sub-draw buffer and a chunk's k-of-n temporaries (a byte
    per draw), whatever ``trials``.
    """
    counts = [0] * len(g_stars)
    for g in _unit_gamma_chunks(cfg, trials, rng):
        for i, g_star in enumerate(g_stars):
            counts[i] += int(np.count_nonzero(_k_of_n(g, g_star, cfg.k_required)))
    return counts


def measure_pfa(cfg, trials=100_000, seed=1):
    """Empirical false-alarm rate under pure noise on a fresh stream."""
    if cfg.threshold_dbm is None:
        raise CalibrationError("threshold not calibrated")
    g_star = _draw_thresholds(cfg, np.zeros(cfg.n_carriers), cfg.window_noise_mw())
    (count,) = _detect_counts(cfg, [g_star], trials, np.random.default_rng([seed, 0x0FA]))
    return count / trials


@dataclass(frozen=True)
class RocPoint:
    power_dbm: float
    pd: float
    pfa: float


def estimate_roc(cfg, signal_power_dbm, trials=100_000, seed=1):
    """Detection probability across received power levels.

    Common random numbers are shared across power levels, so the
    estimated curve is exactly non-decreasing in power; the reported
    pfa is re-measured once on a disjoint substream, before the shared
    draws are made.  Each power compares the shared draws with its
    per-carrier draw thresholds, found once per power: the counts are
    those of the products, exactly, without forming them, and the draws
    are held in one reused chunk buffer of ``_DRAW_CHUNK`` x carriers
    doubles, about 0.8 MB for three carriers, whatever ``trials``
    (``_detect_counts``).  Raises
    CalibrationError, through ``measure_pfa``, without a threshold.
    """
    pfa = measure_pfa(cfg, trials, seed)
    noise_mw = cfg.window_noise_mw()
    g_stars = [_draw_thresholds(cfg, carrier_signal_mw(cfg, p), noise_mw)
               for p in signal_power_dbm]
    counts = _detect_counts(cfg, g_stars, trials, np.random.default_rng([seed, 0x20C]))
    return [RocPoint(power_dbm=float(power), pd=count / trials, pfa=pfa)
            for power, count in zip(signal_power_dbm, counts)]


def roc_to_csv(points, trials, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["power_dbm", "pd", "pfa", "trials"])
        for p in points:
            writer.writerow([f"{p.power_dbm:.10g}", f"{p.pd:.10g}",
                             f"{p.pfa:.10g}", trials])


def _calibrated_threshold(text):
    """A finite threshold, or the always-fire one that target_pfa = 1 saves."""
    value = float(text)
    return value if value == THRESHOLD_ALWAYS_FIRE_DBM else finite_float(text)


# Calibration CSV parameters and their value parsers.
CALIBRATION_FIELDS = {"noise_figure_db": finite_float, "snapshots_per_ms": finite_float,
                      "threshold_dbm": _calibrated_threshold, "k_required": int}


def load_calibration(path, base=None):
    """Detector config from a calibration CSV, on top of defaults."""
    cfg = base if base is not None else DetectorConfig()
    values = {}
    for lineno, (key, value) in csv_rows(path, ["param", "value"]):
        with row_errors(path, lineno):
            key = key.strip()
            if key not in CALIBRATION_FIELDS:
                raise ValueError(f"unknown calibration param {key!r}")
            values[key] = CALIBRATION_FIELDS[key](value.strip())
    missing = [k for k in CALIBRATION_FIELDS if k not in values]
    if missing:
        raise ParseError(f"missing calibration params: {', '.join(missing)}", path=path)
    with row_errors(path, None):
        return replace(cfg, **values)


def default_calibration():
    """The committed calibration shipped with the package."""
    from importlib.resources import files

    return load_calibration(str(files("tvwsim.data") / "detector_calibration.csv"))
