"""TV-band radio environment: channel grid, analog TV spectra, propagation.

Models the terrestrial TV channelization (8 MHz channels, 470-806 MHz
with the 566-606 MHz carve-out in the default grid), the narrowband
carrier structure of analog TV signals, log-distance propagation with
optional log-normal shadowing, and thermal noise, producing received
power spectra at arbitrary planar points.  No model holds a random
stream: shadowing and snapshot noise draw from the Generator a caller
passes.

A spectrum is a plain (bins,) array of mW per resolution bin, on the
grid's one bin layout (``ChannelGrid.n_bins`` and ``bin_centers_mhz``).

It also holds the value parsers that the input files and the command
line share (``finite_float``, ``checked_float``, ``parse_range``, ...):
each raises ValueError, and its caller names the key or flag.

``ScheduleTable`` and ``LinkArrays`` hold a transmitter list as arrays:
the schedules as a table of activity segments, and per (receiver
point, transmitter) link a distance and per transmitter a unit-power
spectrum at chosen bins.  ``received_spectrum`` is their one-point,
all-bins case; the frame loop builds them once per run for every CeNB
at once.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import AlignmentError, ParseError, ResolutionError

SPEED_OF_LIGHT = 299792458.0

# Analog TV (PAL-D) narrowband carriers, as offsets from the channel low
# edge: vision, chroma subcarrier, sound FM carrier.
PAL_D_CARRIER_OFFSETS_MHZ = (1.25, 5.68, 7.75)

# Fraction of total channel power in each carrier; the remainder
# (residual broadband content) is spread evenly over the non-carrier
# bins of the channel.
DEFAULT_CARRIER_SPLIT = (0.80, 0.05, 0.10)

DEFAULT_RBW_KHZ = 200.0
DEFAULT_NOISE_FIGURE_DB = 6.0
OFF_POWER_DBM = float("-inf")
MIN_REF_DISTANCE_M = 1e-3
# Largest magnitude of a configured level or loss in dB (dBm, dB): two of
# them, 10 ** 60 in linear terms, multiply far inside a double.
MAX_LEVEL_DB = 300.0
# The radio spectrum, 3 Hz to 3 THz, in MHz: the free-space loss is finite
# over it.
RADIO_BAND_MHZ = (3e-6, 3e6)
# Most channels in a grid: the grid lists every channel edge, so a band
# of 1e308 MHz would otherwise fill memory.  1 MHz channels over 30 MHz
# to 3 GHz are some 3000.
MAX_GRID_CHANNELS = 1 << 16


class TvStandard(Enum):
    ANALOG_PAL_D = "AnalogPalD"
    DIGITAL_DTMB = "DigitalDtmb"


@dataclass(frozen=True)
class FrequencyBand:
    """Closed frequency interval in MHz."""

    low_mhz: float
    high_mhz: float

    def __post_init__(self):
        if not (0 < self.low_mhz < self.high_mhz):
            raise ValueError(f"invalid band {self.low_mhz}-{self.high_mhz} MHz")

    @property
    def width_mhz(self):
        return self.high_mhz - self.low_mhz

    def overlaps(self, other):
        return self.low_mhz < other.high_mhz and other.low_mhz < self.high_mhz


@dataclass(frozen=True)
class ChannelGrid:
    """Numbered, disjoint channels of equal width inside a band.

    Channels are ascending in frequency with stable zero-based indices.
    Adjacency is defined in frequency: two channels are adjacent only if
    they share an edge, so an exclusion gap breaks contiguity even
    though indices remain consecutive.
    """

    band: FrequencyBand
    channel_width_mhz: float
    low_edges_mhz: tuple

    @property
    def n_channels(self):
        return len(self.low_edges_mhz)

    def low_edge_mhz(self, index):
        return self.low_edges_mhz[index]

    def high_edge_mhz(self, index):
        return self.low_edges_mhz[index] + self.channel_width_mhz

    def center_mhz(self, index):
        return self.low_edges_mhz[index] + 0.5 * self.channel_width_mhz

    def n_bins(self, rbw_khz):
        """Number of ``rbw_khz`` resolution bins across the band."""
        return int(round(self.band.width_mhz / (rbw_khz / 1000.0)))

    def bin_centers_mhz(self, rbw_khz):
        """Centre of each ``rbw_khz`` bin; bin i covers [low + i*rbw, low + (i+1)*rbw)."""
        rbw_mhz = rbw_khz / 1000.0
        return self.band.low_mhz + (np.arange(self.n_bins(rbw_khz)) + 0.5) * rbw_mhz

    def valid_index(self, index):
        return 0 <= index < self.n_channels

    def adjacent(self, i, j):
        """True when channels i < j share an edge in frequency."""
        if j < i:
            i, j = j, i
        return j == i + 1 and self.high_edge_mhz(i) == self.low_edges_mhz[j]

    @cached_property
    def _joined(self):
        """Per channel i but the last: True when channels i and i + 1 share an edge."""
        return [self.adjacent(i, i + 1) for i in range(self.n_channels - 1)]

    def contiguous_runs(self, indices):
        """Group sorted channel indices into frequency-contiguous runs.

        Reads which neighbours share an edge from ``_joined``, worked out
        once per grid with ``adjacent``.
        """
        joined = self._joined
        runs = []
        for idx in sorted(set(indices)):
            if runs and runs[-1][-1] == idx - 1 and joined[idx - 1]:
                runs[-1].append(idx)
            else:
                runs.append([idx])
        return runs


def build_channel_grid(band, width_mhz=8.0, excluded=()):
    """Slice a band into whole channels, skipping excluded sub-bands.

    Exclusion boundaries must coincide with channel edges, and the band
    must divide into whole channels outside the exclusions; anything
    else raises AlignmentError.  A band of more than ``MAX_GRID_CHANNELS``
    channels raises ValueError.
    """
    n_steps = (band.high_mhz - band.low_mhz) / width_mhz
    if not n_steps <= MAX_GRID_CHANNELS:      # an infinite count included
        raise ValueError(f"band {band.low_mhz:g}-{band.high_mhz:g} MHz holds more than "
                         f"{MAX_GRID_CHANNELS} channels of {width_mhz:g} MHz")
    excluded = tuple(excluded)
    for excl in excluded:
        for edge in (excl.low_mhz, excl.high_mhz):
            offset = (edge - band.low_mhz) / width_mhz
            if band.low_mhz < edge < band.high_mhz and abs(offset - round(offset)) > 1e-9:
                raise AlignmentError(
                    f"exclusion edge {edge} MHz not aligned to {width_mhz} MHz grid")
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise AlignmentError(
            f"band width {band.width_mhz} MHz is not a whole number of "
            f"{width_mhz} MHz channels")
    edges = []
    for k in range(int(round(n_steps))):
        lo = band.low_mhz + k * width_mhz
        ch = FrequencyBand(lo, lo + width_mhz)
        if not any(ch.overlaps(e) for e in excluded):
            edges.append(lo)
    return ChannelGrid(band=band, channel_width_mhz=width_mhz, low_edges_mhz=tuple(edges))


def china_tv_grid():
    """Default 37-channel grid: 470-806 MHz minus the 566-606 MHz carve-out."""
    return build_channel_grid(FrequencyBand(470.0, 806.0), 8.0,
                              (FrequencyBand(566.0, 606.0),))


@dataclass(frozen=True)
class TvTransmitter:
    """A broadcast service: spectral standard, channel, location, schedule.

    ``schedule`` is a tuple of (on_ms, off_ms) activity intervals,
    sorted and non-overlapping; an empty schedule means always on.
    Location, EIRP and schedule times must be finite.
    """

    id: str
    standard: TvStandard
    channel_index: int
    location: tuple
    eirp_dbm: float
    schedule: tuple = ()

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.location, self.eirp_dbm,
                                       *(t for interval in self.schedule for t in interval)))):
            raise ValueError(f"transmitter {self.id}: non-finite location, EIRP "
                             "or schedule time")
        prev_end = None
        for on_ms, off_ms in self.schedule:
            if off_ms <= on_ms:
                raise ValueError(f"transmitter {self.id}: empty schedule interval")
            if prev_end is not None and on_ms < prev_end:
                raise ValueError(f"transmitter {self.id}: overlapping schedule intervals")
            prev_end = off_ms


class ScheduleTable:
    """The schedules of a transmitter list as a table of activity segments.

    Between two consecutive interval edges (the distinct ``on_ms`` and
    ``off_ms`` of every interval, sorted in ``edges_ms``) no transmitter
    switches, so ``segments`` holds one (transmitters,) row of flags per
    stretch: row 0 before the first edge, row j from edge j - 1 up to
    edge j.  Intervals are [on_ms, off_ms); a transmitter with an empty
    schedule is always on.  ``segment`` gives the row of each instant, so
    a caller can form what depends only on the activity once per
    distinct row; ``active`` gives the rows themselves.
    """

    def __init__(self, txs):
        intervals = [(i, on, off) for i, tx in enumerate(txs) for on, off in tx.schedule]
        owner, on, off = zip(*intervals) if intervals else ((), (), ())
        owner = np.array(owner, dtype=np.intp)
        self.edges_ms = np.unique(np.array(on + off, dtype=float))
        # +1 in the row where an interval starts, -1 where it ends; a
        # transmitter's intervals do not overlap, so the running sums are 0 or 1.
        change = np.zeros((self.edges_ms.size + 2, len(txs)), dtype=np.int8)
        np.add.at(change, (np.searchsorted(self.edges_ms, on) + 1, owner), 1)
        np.add.at(change, (np.searchsorted(self.edges_ms, off) + 1, owner), -1)
        self.segments = np.cumsum(change[:-1], axis=0, dtype=np.int8) > 0
        self.segments |= np.array([not tx.schedule for tx in txs], dtype=bool)

    def segment(self, t_ms):
        """(times,) index of the row of ``segments`` that holds each time."""
        return np.searchsorted(self.edges_ms, np.asarray(t_ms, dtype=float).ravel(),
                               side="right")

    def active(self, t_ms):
        """(times, transmitters) flags: True where a transmitter is on at a time."""
        return self.segments[self.segment(t_ms)]


def mw_to_dbm(mw):
    """Power in dBm; -inf for a zero, negative or NaN power.

    ``log10`` runs only where the power is positive, so no input raises
    a floating-point warning and subnormal powers keep their value.
    """
    mw = np.asarray(mw, dtype=float)
    dbm = np.full(mw.shape, -np.inf)
    np.log10(mw, out=dbm, where=mw > 0)
    dbm *= 10.0
    return dbm


def dbm_to_mw(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def thermal_noise_dbm(bandwidth_khz, noise_figure_db=DEFAULT_NOISE_FIGURE_DB):
    """Thermal floor over a bandwidth: -174 dBm/Hz + 10 log10(B) + NF."""
    return -174.0 + 10.0 * np.log10(bandwidth_khz * 1e3) + noise_figure_db


def free_space_ref_loss_db(freq_mhz, distance_m=1.0):
    """Friis free-space loss 20 log10(4 pi d f / c)."""
    return 20.0 * np.log10(4.0 * np.pi * distance_m * freq_mhz * 1e6 / SPEED_OF_LIGHT)


@dataclass(frozen=True)
class PropagationConfig:
    """Log-distance path loss with optional log-normal shadowing.

    The package's one model: ``LinkArrays`` (through ``path_loss``) and the
    ACIR study's ``_DropSums`` call ``median_loss_db``; ``geodb`` inverts it.

    ``ref_loss_db=None`` means free-space loss at the carrier frequency
    and reference distance is used.  The config holds no random stream:
    ``path_loss`` draws the shadowing from the stream its caller passes.
    """

    exponent: float = 3.5
    ref_distance_m: float = 1.0
    ref_loss_db: float | None = None
    shadowing_sigma_db: float = 0.0

    def __post_init__(self):
        if self.exponent < 2.0:
            raise ValueError("path-loss exponent must be >= 2")
        # Below this, distance / reference distance can overflow a double.
        if not self.ref_distance_m >= MIN_REF_DISTANCE_M:
            raise ValueError(f"reference distance must be at least {MIN_REF_DISTANCE_M:g} m")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be >= 0")

    def ref_loss(self, freq_mhz):
        if self.ref_loss_db is not None:
            return self.ref_loss_db
        return free_space_ref_loss_db(freq_mhz, self.ref_distance_m)

    def median_loss_db(self, distance_m, freq_mhz, out=None):
        """Median path loss in dB, ``ref_loss + 10 n log10(d / d0)``, formed as
        d / d0, log10, times 10 n, plus ref_loss.  Given ``out`` (which may be
        ``distance_m``), it is written there in place, with the same bits."""
        distance_m = np.asarray(distance_m, dtype=float)
        if (distance_m <= 0).any():
            raise ValueError("distance must be positive")
        loss = np.divide(distance_m, self.ref_distance_m, out=out)
        loss = np.log10(loss, out=out)
        loss = np.multiply(loss, 10.0 * self.exponent, out=out)
        return np.add(loss, self.ref_loss(freq_mhz), out=out)


def path_loss(cfg, distance_m, freq_mhz, rng=None):
    """Path loss in dB, with one shadowing draw per element if enabled.

    Arguments broadcast; a scalar gives a float.  The draws come from
    ``rng``, the caller's Generator, in C order, so one call on n links
    takes the same values as n scalar calls in sequence.  Shadowing
    without a stream is a ValueError.
    """
    loss = cfg.median_loss_db(distance_m, freq_mhz)
    if cfg.shadowing_sigma_db > 0:
        if rng is None:
            raise ValueError("shadowing needs a random stream")
        loss = loss + rng.normal(0.0, cfg.shadowing_sigma_db, size=np.shape(loss))
    return float(loss) if np.ndim(loss) == 0 else loss


def synthesize_tv_spectrum(tx, grid, rbw_khz=DEFAULT_RBW_KHZ, total_power_dbm=0.0):
    """Noise-free transmit spectrum of one TV service over the grid band, in mW per bin.

    PAL-D places narrowband carriers at the configured offsets from the
    channel low edge, split as ``DEFAULT_CARRIER_SPLIT``; the residual
    spreads evenly over the remaining in-channel bins, so the linear sum
    over the channel equals ``total_power_dbm`` exactly.  DTMB renders
    as flat in-channel power.  A transmitter that is off
    (``total_power_dbm=-inf``) yields an all-zero spectrum.
    """
    rbw_mhz = rbw_khz / 1000.0
    offsets = np.asarray(PAL_D_CARRIER_OFFSETS_MHZ)
    min_spacing = float(np.min(np.diff(offsets)))
    if tx.standard is TvStandard.ANALOG_PAL_D and rbw_mhz > min_spacing:
        raise ResolutionError(
            f"rbw {rbw_khz} kHz exceeds minimum carrier spacing {min_spacing*1e3:.0f} kHz")
    power_mw = np.zeros(grid.n_bins(rbw_khz))
    if total_power_dbm != OFF_POWER_DBM:
        total_mw = 10.0 ** (total_power_dbm / 10.0)
        ch_lo = grid.low_edge_mhz(tx.channel_index)
        first = int(np.floor((ch_lo - grid.band.low_mhz) / rbw_mhz + 1e-9))
        n_ch = int(round(grid.channel_width_mhz / rbw_mhz))
        if tx.standard is TvStandard.DIGITAL_DTMB:
            power_mw[first:first + n_ch] = total_mw / n_ch
        else:
            carrier_bins = [first + int(np.floor(off / rbw_mhz + 1e-9)) for off in offsets]
            residual = 1.0 - sum(DEFAULT_CARRIER_SPLIT)
            plain = [b for b in range(first, first + n_ch) if b not in carrier_bins]
            if plain:
                power_mw[plain] = residual * total_mw / len(plain)
            for b, frac in zip(carrier_bins, DEFAULT_CARRIER_SPLIT):
                power_mw[b] += frac * total_mw
    return power_mw


class LinkArrays:
    """Mean received power of many points from a transmitter list, at chosen bins.

    Built once: ``distance_m`` (points, transmitters), clamped below at
    the reference distance, and ``templates`` (transmitters, bins), the
    0 dBm ``synthesize_tv_spectrum`` of each transmitter taken at
    ``bins`` (any integer index array into the grid-band spectrum,
    flattened).  ``mean_mw(active)`` is then the thermal floor plus the
    sum over the active transmitters of link gain x template.  Without
    shadowing the link gains are fixed and computed here, as
    ``fixed_gains`` (None with shadowing); with it, each activity mask
    makes one ``path_loss`` call over the active links, in (point,
    transmitter) row-major order, drawing from ``rng``, the caller's
    stream.  ``noise_figure_db=None`` omits the floor.
    """

    def __init__(self, points, txs, cfg, grid, bins, rbw_khz=DEFAULT_RBW_KHZ,
                 noise_figure_db=DEFAULT_NOISE_FIGURE_DB, rng=None):
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        sites = np.array([tx.location for tx in txs], dtype=float).reshape(-1, 2)
        bins = np.asarray(bins).ravel()
        self.cfg, self.rng = cfg, rng
        self.eirp_dbm = np.array([tx.eirp_dbm for tx in txs], dtype=float)
        self.freq_mhz = np.array([grid.center_mhz(tx.channel_index) for tx in txs],
                                 dtype=float)
        self.distance_m = np.maximum(
            np.hypot(points[:, None, 0] - sites[None, :, 0],
                     points[:, None, 1] - sites[None, :, 1]),
            cfg.ref_distance_m)
        self.templates = np.array([synthesize_tv_spectrum(tx, grid, rbw_khz)[bins]
                                   for tx in txs]).reshape(len(txs), bins.size)
        self.noise_mw = (0.0 if noise_figure_db is None
                         else dbm_to_mw(thermal_noise_dbm(rbw_khz, noise_figure_db)))
        self.fixed_gains = None
        if cfg.shadowing_sigma_db == 0:
            self.fixed_gains = self.gains_mw(np.ones(len(txs), dtype=bool))

    def gains_mw(self, active):
        """(points, active transmitters) link gains times EIRP, in mW."""
        if self.fixed_gains is not None:
            return self.fixed_gains[:, active]
        loss = path_loss(self.cfg, self.distance_m[:, active], self.freq_mhz[active], self.rng)
        return dbm_to_mw(self.eirp_dbm[active] - loss)

    def mean_mw(self, active):
        """(points, bins) mean power; ``active`` masks the transmitters that are on.

        A (rows, transmitters) ``active``, one mask per time, gives
        (rows, points, bins), each row formed on its own: with shadowing
        each takes its own ``path_loss`` draws, in row order.  On fixed
        gains equal masks give equal rows, so a caller that repeats a mask
        passes it once and repeats its powers (the frame loop passes the
        distinct schedule segments of a block).  A mask's powers are one
        ``gains_mw(on) @ templates[on]``: the active transmitters are
        sliced out, not multiplied by a 0/1 mask, so the sum runs over the
        same terms in the same order.
        """
        if active.ndim == 1:
            return self.mean_mw(active[None])[0]
        out = np.empty((len(active), len(self.distance_m), self.templates.shape[1]))
        for row, on in enumerate(active):
            np.matmul(self.gains_mw(on), self.templates[on], out=out[row])
        out += self.noise_mw
        return out


def received_spectrum(point, txs, t_ms, cfg, grid, rbw_khz=DEFAULT_RBW_KHZ,
                      noise_figure_db=DEFAULT_NOISE_FIGURE_DB, snapshots=1, rng=None):
    """Received spectrum at a point, in mW per bin: attenuated transmitters plus noise.

    The single-point API over ``ScheduleTable`` and ``LinkArrays``: the
    signal part is the linear sum of each schedule-active transmitter's
    unit-power spectrum times its EIRP over the path loss, over the
    whole grid band.  ``noise_figure_db=None`` omits the thermal floor
    entirely.  With ``rng=None`` the mean spectrum is returned; with a
    Generator each bin is drawn as the average of ``snapshots``
    independent exponential-power snapshots (a Gamma(snapshots) variate
    around the bin mean).  Shadowing is drawn from ``rng`` too, before
    the snapshots, and needs one.
    """
    links = LinkArrays([point], txs, cfg, grid, np.arange(grid.n_bins(rbw_khz)), rbw_khz,
                       noise_figure_db, rng)
    mean_mw = links.mean_mw(ScheduleTable(txs).active(t_ms)[0])[0]
    if rng is not None and snapshots >= 1:
        mean_mw = rng.gamma(snapshots, 1.0 / snapshots, size=mean_mw.size) * mean_mw
    return mean_mw


def finite_float(text):
    """``float(text)`` that rejects infinities and NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def level_db(text):
    """``finite_float(text)`` of a level or loss in dB or dBm, within ``MAX_LEVEL_DB``."""
    value = finite_float(text)
    if abs(value) > MAX_LEVEL_DB:
        raise ValueError(f"expected a level from -{MAX_LEVEL_DB:g} to {MAX_LEVEL_DB:g} dB, "
                         f"got {value:g}")
    return value


def checked_float(accept, expected):
    """``finite_float`` parser that also rejects a value failing ``accept``."""
    def parse(text):
        value = finite_float(text)
        if not accept(value):
            raise ValueError(f"expected {expected}, got {value:g}")
        return value
    return parse


radio_freq_mhz = checked_float(lambda v: RADIO_BAND_MHZ[0] <= v <= RADIO_BAND_MHZ[1],
                               "a frequency from {:g} to {:g} MHz".format(*RADIO_BAND_MHZ))
# Path-loss exponents run from 2 (free space, the model's floor) to about 6;
# 10 bounds them with room and keeps 10 * exponent * log10(d / d0) finite.
path_loss_exponent = checked_float(lambda v: 2.0 <= v <= 10.0,
                                   "a path-loss exponent in [2, 10]")


def positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def seed_int(text):
    """A random seed: numpy seeds its streams from non-negative integers only."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer seed, got {value}")
    return value


# Most points in a ``parse_range`` sweep: a 0.1 dB step over 100 dB.  An
# ACIR sweep holds buffers that grow with its point count, so a sweep
# of a million points would need gigabytes.
MAX_RANGE_POINTS = 1001


def parse_range(text):
    """``lo:hi:step`` sweep from ``lo`` in steps of ``step``, up to and including ``hi``.

    A step that does not divide the span stops at the last point below
    ``hi``; one that divides it up to rounding (``0:0.3:0.1``) ends at ``hi``.
    A sweep of more than ``MAX_RANGE_POINTS`` points is rejected.
    """
    lo, hi, step = (finite_float(p) for p in text.split(":"))
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}: need step > 0 and hi >= lo")
    steps = min((hi - lo) / step, MAX_RANGE_POINTS)     # an infinite count included
    n = math.floor(steps + 1e-9 * max(1.0, steps))
    if n >= MAX_RANGE_POINTS:
        raise ValueError(f"bad range {text!r}: more than {MAX_RANGE_POINTS} points")
    return [lo + i * step for i in range(n + 1)]


def parse_exclusions(text):
    """``lo-hi;lo-hi`` excluded bands in MHz; empty text excludes nothing."""
    bands = []
    for part in text.split(";") if text else ():
        lo, hi = (finite_float(x) for x in part.split("-"))
        bands.append(FrequencyBand(lo, hi))
    return tuple(bands)


class row_errors:
    """Context that reports a cell's ValueError, KeyError or TypeError as a
    ParseError at ``lineno`` of ``path``."""

    def __init__(self, path, lineno):
        self.path = path
        self.lineno = lineno

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, (ValueError, KeyError, TypeError)):
            raise ParseError(str(exc), line=self.lineno, path=self.path) from exc


def csv_rows(path, header, metadata=None):
    """Stream the data rows of a UTF-8 CSV file as (line number, cells).

    ``header`` is the exact header row, or a function that raises
    ValueError on header cells it rejects.  Every data row must be as
    wide as the header; blank rows are skipped.  Leading lines that
    start with ``#`` go to ``metadata(line number, text)`` when it is
    given; otherwise the first line is the header.  A row the csv module
    cannot read (a cell longer than its field size limit, say) is a
    ParseError at the row's first line.  One generator step per row: the
    csv reader is iterated directly.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        first, header_line = fh.readline(), 1
        while metadata is not None and first.startswith("#"):
            metadata(header_line, first)
            first, header_line = fh.readline(), header_line + 1
        reader = csv.reader(itertools.chain([first], fh))
        end = 0     # the reader's line count after the last row read
        try:
            cells = next(reader, [])
            if callable(header):
                with row_errors(path, header_line):
                    header(cells)
            elif cells != header:
                raise ParseError(f"expected header {','.join(header)}", line=header_line,
                                 path=path)
            width, end = len(cells), reader.line_num
            for row in reader:
                lineno, end = header_line + end, reader.line_num
                if not row:
                    continue
                if len(row) != width:
                    raise ParseError(f"expected {width} columns, got {len(row)}",
                                     line=lineno, path=path)
                yield lineno, row
        except csv.Error as exc:
            raise ParseError(str(exc), line=header_line + end, path=path) from exc


# Cells per chunk of ``float_chunks``: a few hundred geo-database rows,
# or one full-band sweep.
CHUNK_CELLS = 2048


def float_chunks(rows, columns=slice(None)):
    """Group ``csv_rows``' rows into chunks of about ``CHUNK_CELLS`` cells.

    Yields (lines, chunk, values) per chunk: the rows' line numbers (an
    int array) and cell lists, and the (rows, k) ``float_array`` of their
    ``columns`` (a slice), parsed from one flat list of cells.  A chunk's
    list is emptied when the next is read, so that one chunk's cells are
    held at a time.  A row that ``rows`` rejects (a ragged one) ends the
    stream: its ParseError is raised after the rows before it, so that an
    earlier bad cell wins.
    """
    rows, lines, chunk, error = iter(rows), [], [], None
    take = itemgetter(columns)

    def parsed():
        values = float_array(list(itertools.chain.from_iterable(map(take, chunk))))
        return np.array(lines), chunk, values.reshape(len(chunk), -1)

    try:
        for line, cells in rows:        # the first row sets the chunk size
            lines.append(line)
            chunk.append(cells)
            size = max(1, CHUNK_CELLS // len(cells))
            break
        for line, cells in rows:
            if len(chunk) == size:
                yield parsed()
                del lines[:], chunk[:]
            lines.append(line)
            chunk.append(cells)
    except ParseError as exc:
        error = exc
    if chunk:
        yield parsed()
    if error is not None:
        raise error


def float_array(cells):
    """``cells`` (str, or equal-length lists of str) as a float array: each
    cell parsed as ``float`` parses it, NaN where ``float`` rejects it."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return np.vectorize(_float_or_nan, otypes=[float])(np.array(cells, dtype=object))


def _float_or_nan(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _parse_schedule(text):
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        on, off = part.split(":")
        out.append((finite_float(on), finite_float(off)))
    return tuple(out)


TRANSMITTER_FIELDS = ["id", "standard", "channel", "x_m", "y_m", "eirp_dbm",
                      "height_m", "schedule"]


def transmitters_from_csv(path):
    """Load transmitter fixtures from CSV (see TRANSMITTER_FIELDS)."""
    txs = []
    for lineno, row in csv_rows(path, TRANSMITTER_FIELDS):
        tx_id, standard, channel, x, y, eirp, height, schedule = row
        with row_errors(path, lineno):     # in file order: the first bad cell is named
            standard, channel = TvStandard(standard), int(channel)
            location, eirp_dbm = (finite_float(x), finite_float(y)), level_db(eirp)
            finite_float(height)        # checked; no model reads a mast height
            txs.append(TvTransmitter(id=tx_id, standard=standard, channel_index=channel,
                                     location=location, eirp_dbm=eirp_dbm,
                                     schedule=_parse_schedule(schedule.strip())))
    return txs
