"""Spectrum-occupancy analytics over measured (or synthetic) sweep traces.

Ingests time-by-frequency power matrices, computes per-channel duty
cycles, sorts channels into the three canonical utilization cases
(persistently on, intermittently on, sporadically on) after Wellens and
Mähönen (MONET 2010), and renders sub-band summary tables.  A trace has
one noise floor, estimated once over all of its cells by the
``ThresholdRule``, and one occupancy threshold derived from it; every
duty cycle, sub-band share and classification reads those two values,
and the report headers state them.
"""

import csv
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, CoverageError, ParseError
from .radio_env import FrequencyBand, csv_rows, finite_float, float_chunks, row_errors

DEFAULT_NOISE_PERCENTILE = 10.0
DEFAULT_THRESHOLD_MARGIN_DB = 6.0
DEFAULT_DELTA_ON_DB = 10.0
DEFAULT_GAMMA_SPREAD_DB = 5.0


class ChannelClass(Enum):
    PERSISTENT = "Persistent"
    INTERMITTENT = "Intermittent"
    SPORADIC = "Sporadic"


@dataclass(frozen=True)
class OccupancyMatrix:
    """Time x frequency power samples with their axes and site metadata."""

    timestamps_ms: np.ndarray
    freqs_mhz: np.ndarray
    power_dbm: np.ndarray
    site: str = ""
    rbw_khz: float = 200.0
    latlon: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.timestamps_ms, dtype=float)
        f = np.asarray(self.freqs_mhz, dtype=float)
        p = np.asarray(self.power_dbm, dtype=float)
        if p.shape != (t.size, f.size):
            raise ValueError(f"matrix shape {p.shape} does not match axes "
                             f"({t.size} x {f.size})")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if f.size > 1 and np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be ascending")
        if np.any(np.isnan(p)):
            raise ValueError("power matrix contains NaN cells")
        object.__setattr__(self, "timestamps_ms", t)
        object.__setattr__(self, "freqs_mhz", f)
        object.__setattr__(self, "power_dbm", p)

    def channel_columns(self, grid, channel_index):
        lo = grid.low_edge_mhz(channel_index)
        hi = grid.high_edge_mhz(channel_index)
        cols = np.nonzero((self.freqs_mhz >= lo) & (self.freqs_mhz < hi))[0]
        if cols.size == 0:
            raise CoverageError(f"channel {channel_index} ({lo}-{hi} MHz) has no "
                                "bins inside the trace")
        return cols

    def band_columns(self, low_mhz, high_mhz):
        cols = np.nonzero((self.freqs_mhz >= low_mhz) & (self.freqs_mhz < high_mhz))[0]
        if cols.size == 0:
            raise CoverageError(f"sub-band {low_mhz}-{high_mhz} MHz has no bins "
                                "inside the trace")
        return cols


_FREQ_COL = re.compile(r"^p_(\d+(?:\.\d+)?)$")


def ingest_trace(path, site="", rbw_khz=200.0):
    """Parse a sweep-trace CSV into a validated matrix.

    Header is ``t_ms[,lat,lon],p_<f1>,p_<f2>,...`` with bin-center
    frequencies in MHz.  Ragged rows, non-finite cells and non-increasing
    timestamps are rejected with the offending line number, and a trace
    without data rows is rejected.  Sweeps are parsed and checked a chunk
    at a time as float arrays; only when a check fails is the file read
    again row by row, which names the first bad line.
    """
    header = {}

    def check_header(cells):
        if cells[:1] != ["t_ms"]:
            raise ValueError("first column must be t_ms")
        header["first"] = 3 if cells[1:3] == ["lat", "lon"] else 1
        header["freqs"] = freqs = []
        for name in cells[header["first"]:]:
            m = _FREQ_COL.match(name)
            if not m:
                raise ValueError(f"bad frequency column {name!r}")
            freqs.append(float(m.group(1)))
        if not freqs:
            raise ValueError("no frequency columns")

    blocks = _trace_blocks(path, check_header)
    if blocks is None:
        blocks = _trace_rows(path, check_header)
    if not blocks:
        raise ParseError("no data rows", path=path)
    first = header["first"]
    # The one check left to the matrix: the header's frequencies ascend.
    with row_errors(path, 1):
        return OccupancyMatrix(
            timestamps_ms=np.concatenate([b[:, 0] for b in blocks]),
            freqs_mhz=np.asarray(header["freqs"]),
            power_dbm=np.concatenate([b[:, first:] for b in blocks]),
            site=site, rbw_khz=rbw_khz,
            latlon=np.concatenate([b[:, 1:3] for b in blocks]) if first == 3 else None)


def _trace_blocks(path, check_header):
    """The trace's rows as float arrays, a chunk each; None when a row
    fails a check."""
    blocks, last_t = [], -np.inf
    try:
        for _, values in float_chunks(csv_rows(path, check_header)):
            if values is None or not np.isfinite(values).all():
                return None
            t = values[:, 0]
            if t[0] <= last_t or (t[1:] <= t[:-1]).any():
                return None
            last_t = t[-1]
            blocks.append(values)
    except ParseError:
        return None
    return blocks


def _trace_rows(path, check_header):
    """The trace's rows checked one at a time: the first bad one raises a
    ParseError at its line.  Returns them as a list of one float array."""
    rows = []
    for lineno, cells in csv_rows(path, check_header):
        with row_errors(path, lineno):
            t = finite_float(cells[0])
            if rows and t <= rows[-1][0]:
                raise ValueError("timestamps not strictly increasing")
            rows.append([t, *map(finite_float, cells[1:])])
    return [np.array(rows, dtype=float)] if rows else []


@dataclass(frozen=True)
class ThresholdRule:
    """Occupancy threshold: a fixed level, or the noise floor + a margin.

    The noise floor is estimated once per trace: the rule's percentile
    over all of the trace's cells.  It is estimated under a fixed level
    too, because the channel classes read it.  Every channel and
    sub-band of the trace is judged against the one threshold.
    """

    fixed_dbm: float | None = None
    noise_percentile: float = DEFAULT_NOISE_PERCENTILE
    margin_db: float = DEFAULT_THRESHOLD_MARGIN_DB

    def levels(self, matrix):
        """The trace's (noise floor, occupancy threshold), both in dBm."""
        noise = float(np.percentile(matrix.power_dbm, self.noise_percentile))
        if self.fixed_dbm is not None:
            return noise, self.fixed_dbm
        return noise, noise + self.margin_db

    def describe(self):
        if self.fixed_dbm is not None:
            return f"fixed {self.fixed_dbm:g} dBm"
        return (f"p{self.noise_percentile:g} noise estimate + "
                f"{self.margin_db:g} dB margin")


def duty_cycle(matrix, grid, threshold_dbm):
    """Fraction of time-frequency cells above ``threshold_dbm``, per channel."""
    out = np.empty(grid.n_channels)
    for ch in range(grid.n_channels):
        cells = matrix.power_dbm[:, matrix.channel_columns(grid, ch)]
        out[ch] = float(np.mean(cells > threshold_dbm))
    return out


def band_average(grid, per_channel):
    """Bandwidth-weighted mean occupancy (equal widths: plain mean)."""
    widths = np.full(grid.n_channels, grid.channel_width_mhz)
    return float(np.average(np.asarray(per_channel), weights=widths))


@dataclass(frozen=True)
class ChannelClassification:
    label: ChannelClass
    never_seen: bool = False


def classify_channel(matrix, grid, channel_index, noise_floor_dbm,
                     delta_on_db=DEFAULT_DELTA_ON_DB,
                     gamma_spread_db=DEFAULT_GAMMA_SPREAD_DB):
    """Three-case utilization classification of one channel.

    Statistics are taken over the channel's dB cells against the
    trace's noise floor (``ThresholdRule.levels``): Persistent when the
    average sits ``delta_on_db`` above the floor and close to the
    maximum; Intermittent when both are high but spread apart; Sporadic
    when only the maximum is high (never-active channels flag
    ``never_seen``).
    """
    cells = matrix.power_dbm[:, matrix.channel_columns(grid, channel_index)]
    avg = float(np.mean(cells))
    peak = float(np.max(cells))
    on_level = noise_floor_dbm + delta_on_db
    if peak < on_level:
        return ChannelClassification(ChannelClass.SPORADIC, never_seen=True)
    if avg >= on_level:
        if peak - avg <= gamma_spread_db:
            return ChannelClassification(ChannelClass.PERSISTENT)
        return ChannelClassification(ChannelClass.INTERMITTENT)
    return ChannelClassification(ChannelClass.SPORADIC)


@dataclass(frozen=True)
class SubbandRow:
    low_mhz: float
    high_mhz: float
    label: str
    occupancy: float

    @property
    def bandwidth_mhz(self):
        return self.high_mhz - self.low_mhz


def load_subband_table(path):
    """Sub-band definition CSV: ``low_mhz,high_mhz,label``, at least one row."""
    rows = []
    for lineno, (low, high, label) in csv_rows(path, ["low_mhz", "high_mhz", "label"]):
        with row_errors(path, lineno):
            band = FrequencyBand(finite_float(low), finite_float(high))
        rows.append((band.low_mhz, band.high_mhz, label))
    if not rows:
        raise ParseError("no sub-bands", path=path)
    return rows


def summarize_band(matrix, subbands, threshold_dbm):
    """Per-sub-band shares of cells above ``threshold_dbm``, and the weighted overall row.

    Overlapping sub-bands are a ``ConfigError`` that names both.
    """
    ordered = sorted(subbands)
    for (lo1, hi1, label1), (lo2, hi2, label2) in zip(ordered, ordered[1:]):
        if lo2 < hi1:
            raise ConfigError(f"sub-bands {label1!r} ({lo1:g}-{hi1:g} MHz) and "
                              f"{label2!r} ({lo2:g}-{hi2:g} MHz) overlap")
    rows = []
    for lo, hi, label in subbands:
        cells = matrix.power_dbm[:, matrix.band_columns(lo, hi)]
        occ = float(np.mean(cells > threshold_dbm))
        rows.append(SubbandRow(low_mhz=lo, high_mhz=hi, label=label, occupancy=occ))
    total_bw = sum(r.bandwidth_mhz for r in rows)
    overall = sum(r.occupancy * r.bandwidth_mhz for r in rows) / total_bw
    return rows, overall


def render_report(rows, overall, rule):
    """Aligned-column text table for the terminal."""
    lines = [f"threshold rule: {rule.describe()}",
             f"{'sub-band (MHz)':>18}  {'bandwidth':>9}  {'occupancy':>9}  label"]
    for r in rows:
        lines.append(f"{r.low_mhz:>8g}-{r.high_mhz:<9g} {r.bandwidth_mhz:>8g}M "
                     f"{r.occupancy:>10.4f}  {r.label}")
    lines.append(f"{'overall':>18}  {sum(r.bandwidth_mhz for r in rows):>8g}M "
                 f"{overall:>10.4f}")
    return "\n".join(lines)


def report_to_csv(rows, overall, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["low_mhz", "high_mhz", "bandwidth_mhz", "occupancy", "label"])
        for r in rows:
            writer.writerow([f"{r.low_mhz:.10g}", f"{r.high_mhz:.10g}",
                             f"{r.bandwidth_mhz:.10g}", f"{r.occupancy:.10g}", r.label])
        total_bw = sum(r.bandwidth_mhz for r in rows)
        writer.writerow(["overall", "", f"{total_bw:.10g}", f"{overall:.10g}", ""])
