"""Geo-location database of authorized TV services and region classification.

Holds protected-contour records, answers vacant-channel queries, and
classifies a planar point into one of three access regions per channel:

* Black  - inside a co-channel protected contour, no reuse allowed;
* Grey   - outside the contour but close enough that reuse needs sensing;
* White  - far enough that a secondary at maximum EIRP cannot raise a
  contour-edge receiver above the protection floor, reuse is free.

The grey/white boundary is contour radius + the secondary transmitter's
own interference range + a configurable margin; contours come from the
closed-form inversion of the log-distance model at median propagation.

A ``GeoDb`` is built once, only by ``load``, and never changes: CeNBs
read it at start-up, and the white-space rules re-check a database daily
(FCC 47 CFR 15.711).  It is its columns: the id, channel, position and
resolved protected radius of each record, sorted by channel, so that a
classification reads one channel's contiguous slices.  ``load``
parses and checks the file a chunk of rows at a time as arrays, and
computes each chunk's blank radii in one vectorised ``contour_radius_m``
call; the first bad line, if any, is named from the same arrays.  The
standard, EIRP, height and required level of a record are checked and
used for its radius there, and not kept.

``query_vacant_channels``, the start-up query of every CeNB, takes the
distances to all records in one pass and classifies each grid channel
with ``classify_region`` on a view of the records within reach of the
point; the rest lie past their grey boundary and change no region.
"""

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateContourError, ParseError
from .radio_env import (
    PropagationConfig,
    TvStandard,
    csv_rows,
    finite_float,
    float_array,
    float_chunks,
    row_errors,
)

DEFAULT_GREY_MARGIN_M = 1000.0
DEFAULT_PROTECTION_FLOOR_DBM = -114.0
DEFAULT_TV_FREQ_MHZ = 700.0

_STANDARD_NAMES = frozenset(standard.value for standard in TvStandard)
# Channels are stored as int64.
_MAX_CHANNEL = 2**63 - 1


class Region(IntEnum):
    """Access region, ordered by permissiveness."""

    BLACK = 0
    GREY = 1
    WHITE = 2


def contour_radius_m(eirp_dbm, floor_dbm, prop, freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Largest distance at which eirp - path_loss >= floor (median model).

    Closed form from the log-distance law:
    d = d0 * 10^((eirp - floor - ref_loss) / (10 n)).
    EIRP and floor broadcast: arrays give one radius per element, equal
    bit for bit to the scalar call on that element.  An overflowing
    power is an infinite radius.  A level unattainable at the reference
    distance has no contour: the scalar call raises DegenerateContourError,
    and an array holds NaN there, as it does where the margin is not a
    number.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        margin = eirp_dbm - floor_dbm - prop.ref_loss(freq_mhz)
        exponent = margin / (10.0 * prop.exponent)
        if isinstance(margin, np.ndarray):
            exps = exponent.tolist()
            try:    # math.pow is _pow10's C pow, but raises past the largest double
                power = np.fromiter(map(math.pow, itertools.repeat(10.0), exps),
                                    dtype=float, count=len(exps))
            except OverflowError:
                power = np.array([_pow10(e) for e in exps], dtype=float)
            return np.where(margin >= 0, prop.ref_distance_m * power, math.nan)
    if margin < 0:
        raise DegenerateContourError(
            f"level {floor_dbm} dBm unattainable at reference distance")
    return prop.ref_distance_m * _pow10(float(exponent))


def _pow10(x):
    """10 ** x by Python's float power, which is the C library's pow
    (numpy's SIMD power can differ from it in the last bit); infinite
    past the largest double."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


class _Columns(NamedTuple):
    """Records as columns, one row per record: the fields that a
    classification or the contour listing reads."""

    ids: np.ndarray         # object: the record ids
    channel: np.ndarray     # int64
    x: np.ndarray
    y: np.ndarray
    radius: np.ndarray      # resolved protected radius


def _sorted_by_channel(parts):
    """One column store from per-field lists of column chunks, stably sorted
    by channel.

    Each field's chunks are joined and dropped in turn, so that no more
    than one field is held twice.
    """
    if not parts[0]:        # no rows
        parts = [[np.empty(0, dtype)] for dtype in (object, np.int64, float, float, float)]
    order = np.argsort(np.concatenate(parts[1]), kind="stable")
    columns = []
    for i, chunks in enumerate(parts):
        columns.append(np.concatenate(chunks)[order])
        parts[i] = None
    return _Columns(*columns)


class GeoDb:
    """The record set as a column store, plus the grey-boundary parameters.

    Built only by ``load``, or by ``_near`` as a view of a loaded one,
    and never changed.  ``columns`` (``_Columns``) holds the ids,
    channels, positions and resolved radii, stably sorted by channel, so
    that each channel's records are one contiguous slice in file order
    (``co_channel_arrays``).  ``version`` is file metadata, which
    ``load`` reads.
    """

    def __init__(self, columns, grey_margin_m=DEFAULT_GREY_MARGIN_M,
                 protection_floor_dbm=DEFAULT_PROTECTION_FLOOR_DBM, version=0):
        self.grey_margin_m = grey_margin_m
        self.protection_floor_dbm = protection_floor_dbm
        self.version = version
        self.columns = columns
        self._channels = None

    def co_channel_arrays(self, channel_index):
        """The records on a channel as slices of the channel-sorted columns.

        Returns (x, y, radius): the services' coordinates and protected
        radii, in file order.  None when the channel has no record.
        """
        if self._channels is None:
            cols = self.columns
            channels, starts = np.unique(cols.channel, return_index=True)
            stops = [*starts[1:].tolist(), len(cols.channel)]
            self._channels = {
                channel: (cols.x[a:b], cols.y[a:b], cols.radius[a:b])
                for channel, a, b in zip(channels.tolist(), starts.tolist(), stops)}
        return self._channels.get(channel_index)


def classify_region(db, point, channel_index, cenb_max_eirp_dbm, prop, grid,
                    freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Black/Grey/White classification of a point for one channel.

    Only co-channel services constrain the region; adjacent channels are
    handled by guard bands elsewhere.  No co-channel record means White.
    """
    if not grid.valid_index(channel_index):
        raise IndexError(f"channel index {channel_index} outside grid "
                         f"(0..{grid.n_channels - 1})")
    co_channel = db.co_channel_arrays(channel_index)
    if co_channel is None:
        return Region.WHITE
    x, y, radii = co_channel
    r_interf = contour_radius_m(cenb_max_eirp_dbm, db.protection_floor_dbm, prop, freq_mhz)
    d = np.hypot(point[0] - x, point[1] - y)
    if (d <= radii).any():
        return Region.BLACK
    if (d <= radii + r_interf + db.grey_margin_m).any():
        return Region.GREY
    return Region.WHITE


def query_vacant_channels(db, point, cenb_max_eirp_dbm, prop, grid,
                          freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Region of every grid channel at a point (White = usable without
    sensing, Grey = usable with sensing).

    Each channel is decided by one ``classify_region`` call, as on the
    whole database, but on a view of the records that can reach the
    point (``_near``): the others lie beyond their grey boundary, so they
    change no region, and a channel left without records is White.
    """
    near = _near(db, point, cenb_max_eirp_dbm, prop, freq_mhz)
    return [(idx, classify_region(near, point, idx, cenb_max_eirp_dbm, prop, grid,
                                  freq_mhz))
            for idx in range(grid.n_channels)]


# Relative slack of the cull's reach.  The exact test is classify_region's;
# the slack keeps a record whose distance or boundary rounds differently
# there, and costs nothing else.
_NEAR_SLACK = 1.0 + 1e-9


def _near(db, point, cenb_max_eirp_dbm, prop, freq_mhz):
    """A view of ``db`` without the records whose distance from ``point``
    is finite and past radius + interference radius + grey margin (their
    grey boundary), with a slack.

    A record whose distance or boundary overflows is kept, so that
    ``classify_region`` meets it and warns as on the whole database; the
    cull itself raises no numpy warning.  ``db`` itself is returned where
    the interference radius has no contour or warns (a frequency of 0
    MHz), so that the first ``classify_region`` call to compute it raises
    that error, or that warning, as before.
    """
    try:
        with np.errstate(divide="raise"):
            r_interf = contour_radius_m(cenb_max_eirp_dbm, db.protection_floor_dbm, prop,
                                        freq_mhz)
    except (DegenerateContourError, FloatingPointError):
        return db
    cols = db.columns
    with np.errstate(all="ignore"):
        d = np.hypot(point[0] - cols.x, point[1] - cols.y)
        reach = cols.radius + r_interf + db.grey_margin_m
        kept = np.flatnonzero(~((d > reach * _NEAR_SLACK) & np.isfinite(d)))
    return GeoDb(_Columns(*(col[kept] for col in cols)), grey_margin_m=db.grey_margin_m,
                 protection_floor_dbm=db.protection_floor_dbm, version=db.version)


@dataclass(frozen=True)
class SeparationTable:
    """Required secondary-to-contour separation versus power and height."""

    powers_dbm: tuple
    heights_m: tuple
    separation_m: tuple  # row-major, len(powers) x len(heights)

    def __post_init__(self):
        for name, axis in (("power", self.powers_dbm), ("height", self.heights_m)):
            if list(axis) != sorted(set(axis)):
                raise ValueError(f"{name} axis must be strictly increasing")
            # A lookup interpolates between two values with finite weights.
            if len(axis) < 2 or not math.isfinite(axis[-1] - axis[0]):
                raise ValueError("each axis needs at least two values and a finite span")
        if len(self.separation_m) != len(self.powers_dbm) * len(self.heights_m):
            raise ValueError("table shape mismatch")


def required_separation(table, wsd_power_dbm, wsd_height_m):
    """Bilinear lookup of the required separation; clamps outside the hull.

    Returns (separation_m, clamped) where ``clamped`` flags inputs that
    fell outside the table and were pulled to its edge.
    """
    powers = np.asarray(table.powers_dbm, dtype=float)
    heights = np.asarray(table.heights_m, dtype=float)
    grid = np.asarray(table.separation_m).reshape(powers.size, heights.size)
    clamped = not (powers[0] <= wsd_power_dbm <= powers[-1]
                   and heights[0] <= wsd_height_m <= heights[-1])
    p = float(np.clip(wsd_power_dbm, powers[0], powers[-1]))
    h = float(np.clip(wsd_height_m, heights[0], heights[-1]))
    i = int(np.clip(np.searchsorted(powers, p, side="right") - 1, 0, powers.size - 2))
    j = int(np.clip(np.searchsorted(heights, h, side="right") - 1, 0, heights.size - 2))
    tp = (p - powers[i]) / (powers[i + 1] - powers[i])
    th = (h - heights[j]) / (heights[j + 1] - heights[j])
    val = (grid[i, j] * (1 - tp) * (1 - th) + grid[i + 1, j] * tp * (1 - th)
           + grid[i, j + 1] * (1 - tp) * th + grid[i + 1, j + 1] * tp * th)
    return float(val), clamped


def separation_table_from_csv(path):
    """Load a separation table: header ``power_dbm,<h1>,<h2>,...``."""
    heights, powers, values = [], [], []

    def check_header(cells):
        if cells[:1] != ["power_dbm"] or len(cells) < 2:
            raise ValueError("expected header power_dbm,<height>,...")
        heights.extend(finite_float(h) for h in cells[1:])

    for lineno, row in csv_rows(path, check_header):
        with row_errors(path, lineno):
            powers.append(finite_float(row[0]))
            values.extend(finite_float(v) for v in row[1:])
    with row_errors(path, None):
        return SeparationTable(tuple(powers), tuple(heights), tuple(values))


def default_separation_table():
    """The illustrative table shipped with the package."""
    from importlib.resources import files

    return separation_table_from_csv(str(files("tvwsim.data") / "separation_table.csv"))


GEODB_FIELDS = ["id", "standard", "channel", "x_m", "y_m", "eirp_dbm", "height_m",
                "required_rx_dbm", "protected_radius_m"]


def load(path, prop=None, freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Load a database into columns; blank radii are computed from the propagation model.

    Each chunk of rows is parsed and checked as arrays (``_chunk_columns``),
    and its blank radii come from one ``contour_radius_m`` call.  The first
    bad line, a repeated id included, is a ParseError naming it, its field
    and cell.  ``prop`` is only consulted for records whose radius is blank.
    Every field is checked; only those of ``_Columns`` are kept.
    """
    prop = prop if prop is not None else PropagationConfig()
    params = {}

    def metadata(lineno, line):
        with row_errors(path, lineno):
            key, value = (part.strip() for part in line[1:].split("=", 1))
            if key == "version":
                params[key] = int(value)
            elif key == "grey_margin_m":
                params[key] = finite_float(value)
                if params[key] < 0:
                    raise ValueError("grey_margin_m must not be negative")
            elif key == "protection_floor_dbm":
                params[key] = finite_float(value)
            else:
                raise ValueError(f"unknown metadata key {key!r}")

    parts = [[] for _ in _Columns._fields]
    lines, error = [], None
    try:
        for chunk_lines, chunk, values in float_chunks(
                csv_rows(path, GEODB_FIELDS, metadata), slice(3, 8)):
            lines.append(chunk_lines)
            parts[0].append(np.array([cells[0] for cells in chunk], dtype=object))
            for chunks, col in zip(parts[1:], _chunk_columns(path, chunk_lines, chunk, values,
                                                             prop, freq_mhz)):
                chunks.append(col)
    except ParseError as exc:       # the first bad line, duplicate ids aside
        error = exc
    dup = _first_duplicate(parts[0])
    if dup is not None and (error is None or np.concatenate(lines)[dup] < error.line):
        error = ParseError(f"id {np.concatenate(parts[0])[dup]!r} is a duplicate record id",
                           line=int(np.concatenate(lines)[dup]), path=path)
    if error is not None:
        raise error
    del lines
    return GeoDb(_sorted_by_channel(parts), **params)


def _chunk_columns(path, lines, chunk, values, prop, freq_mhz):
    """The channel, x, y and radius columns of a chunk of rows (the caller
    takes the ids and compares them across chunks).  Each check is one mask
    over the rows: a malformed or out-of-range cell, a required level not
    below the EIRP, or a radius neither positive and finite nor blank with
    a finite contour.  The first bad row is a ParseError at its line that
    names the field and cell.  The standard, EIRP, height and required
    level are checked but not returned."""
    _, standards, channels, *_, radii = zip(*chunk)
    standard = np.fromiter(map(_STANDARD_NAMES.__contains__, standards), dtype=bool,
                           count=len(chunk))
    # _channel_index runs only on a chunk with a bad cell: per 2000 cells it
    # takes 0.80 ms and map(int) 0.37 ms (Python 3.11, 2-core x86 host), a
    # difference of about 4 % of loading 2000 records.
    try:
        channel = np.fromiter(map(int, channels), dtype=np.int64, count=len(chunk))
    except (ValueError, OverflowError):     # a bad cell: -1 names it below
        channel = np.fromiter(map(_channel_index, channels), dtype=np.int64, count=len(chunk))
    given = np.fromiter(map(bool, map(str.strip, radii)), dtype=bool, count=len(chunk))
    blank = ~given
    radius = np.full(len(chunk), math.nan)
    radius[given] = float_array(list(itertools.compress(radii, given.tolist())))
    x, y, eirp, _, required = values.T
    if blank.any():             # NaN where a blank radius has no contour
        radius[blank] = contour_radius_m(eirp[blank], required[blank], prop, freq_mhz)
    finite = np.isfinite(values)
    checks = (      # (the rows that pass, the field, why a row fails)
        (standard, 1, "is not a TV standard"),
        (channel >= 0, 2, "is not a channel index (0 to 2**63 - 1)"),
        *((finite[:, k], 3 + k, "is not a finite number") for k in range(5)),
        (required < eirp, 7, "is not below the record's EIRP"),
        ((radius > 0) & (radius < math.inf), 8,
         "is neither a positive finite radius nor blank with a finite contour"),
    )
    good = np.logical_and.reduce([mask for mask, _, _ in checks])
    if not good.all():
        row = int(np.argmin(good))
        field, reason = next((field, reason) for mask, field, reason in checks if not mask[row])
        raise ParseError(f"{GEODB_FIELDS[field]} {chunk[row][field]!r} {reason}",
                         line=int(lines[row]), path=path)
    # Copies, so that the chunk's other number columns are freed with it.
    return channel, x.copy(), y.copy(), radius


def _channel_index(cell):
    """``int(cell)``, or -1 if that is not a channel index (0 to 2**63 - 1)."""
    try:
        channel = int(cell)
    except ValueError:
        return -1
    return channel if 0 <= channel <= _MAX_CHANNEL else -1


def _first_duplicate(id_chunks):
    """The position of the first id equal to an earlier one, or None.  Ids
    are compared only when two of their int64 hashes are equal, so that the
    answer does not depend on Python's string hashing."""
    hashes = np.fromiter(map(hash, itertools.chain.from_iterable(id_chunks)), dtype=np.int64,
                         count=sum(map(len, id_chunks)))
    hashes.sort()
    if (hashes[1:] != hashes[:-1]).all():
        return None
    seen = set()
    for i, rec_id in enumerate(itertools.chain.from_iterable(id_chunks)):
        if rec_id in seen:
            return i
        seen.add(rec_id)
    return None
