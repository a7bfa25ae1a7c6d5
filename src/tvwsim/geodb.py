"""Geo-location database of authorized TV services and region classification.

Maintains protected-contour records, answers vacant-channel queries, and
classifies a planar point into one of three access regions per channel:

* Black  - inside a co-channel protected contour, no reuse allowed;
* Grey   - outside the contour but close enough that reuse needs sensing;
* White  - far enough that a secondary at maximum EIRP cannot raise a
  contour-edge receiver above the protection floor, reuse is free.

The grey/white boundary is contour radius + the secondary transmitter's
own interference range + a configurable margin; contours come from the
closed-form inversion of the log-distance model at median propagation.

``GeoDb`` stores the records as columns, one array per field, sorted by
channel, so that a classification reads one channel's contiguous
slices.  ``load`` parses and checks the file a chunk of rows at a time
as arrays, and computes each chunk's blank radii in one vectorised
``contour_radius_m`` call; only a file that fails a check is read again
row by row, to name its first bad line.  ``GeoDb.records`` is a lazy
view of ``GeoRecord`` objects, built for ``add``, ``remove``, ``save``
and the contour listing; ``add`` and ``remove`` drop the columns, which
are rebuilt from the records on the next classification.
"""

import csv
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
    TvTransmitter,
    csv_rows,
    finite_float,
    float_array,
    float_chunks,
    row_errors,
)

DEFAULT_REQUIRED_RX_DBM = -84.0
DEFAULT_GREY_MARGIN_M = 1000.0
DEFAULT_PROTECTION_FLOOR_DBM = -114.0
DEFAULT_TV_FREQ_MHZ = 700.0

_STANDARDS = tuple(TvStandard)
# Channels are stored as int64.
_MAX_CHANNEL = 2**63 - 1


class Region(IntEnum):
    """Access region, ordered by permissiveness."""

    BLACK = 0
    GREY = 1
    WHITE = 2


@dataclass(frozen=True)
class GeoRecord:
    """One authorized service with its protection requirement."""

    service: TvTransmitter
    required_rx_dbm: float = DEFAULT_REQUIRED_RX_DBM
    protected_radius_m: float | None = None

    def __post_init__(self):
        if not -math.inf < self.required_rx_dbm < self.service.eirp_dbm:
            raise ValueError("required receive level must be finite and below the service EIRP")
        if self.protected_radius_m is not None and not 0 < self.protected_radius_m < math.inf:
            raise ValueError("protected radius must be positive and finite")


def contour_radius_m(eirp_dbm, floor_dbm, prop, freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Largest distance at which eirp - path_loss >= floor (median model).

    Closed form from the log-distance law:
    d = d0 * 10^((eirp - floor - ref_loss) / (10 n)).
    EIRP and floor broadcast: arrays give one radius per element, equal
    bit for bit to the scalar call on that element.  An overflowing
    power is an infinite radius.
    """
    margin = eirp_dbm - floor_dbm - prop.ref_loss(freq_mhz)
    is_array = isinstance(margin, np.ndarray)
    if (margin < 0).any() if is_array else margin < 0:
        raise DegenerateContourError(
            f"level {floor_dbm} dBm unattainable at reference distance")
    exponent = margin / (10.0 * prop.exponent)
    power = (np.array([_pow10(e) for e in exponent.tolist()], dtype=float) if is_array
             else _pow10(float(exponent)))
    return prop.ref_distance_m * power


def _pow10(x):
    """10 ** x by Python's float power, which is the C library's pow
    (numpy's SIMD power can differ from it in the last bit); infinite
    past the largest double."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


def protected_radius(rec, prop, freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Protected contour radius of a record (given, or computed)."""
    if rec.protected_radius_m is not None:
        return rec.protected_radius_m
    return contour_radius_m(rec.service.eirp_dbm, rec.required_rx_dbm, prop, freq_mhz)


class _Columns(NamedTuple):
    """Records as columns: one array per field, one row per record."""

    ids: np.ndarray         # object: the record ids
    standard: np.ndarray    # int8: index into _STANDARDS
    channel: np.ndarray     # int64
    x: np.ndarray
    y: np.ndarray
    eirp: np.ndarray
    height: np.ndarray
    required: np.ndarray
    radius: np.ndarray      # NaN where no radius is stored


def _columns_of(records):
    """The columns of GeoRecords, in their order."""
    svcs = [rec.service for rec in records]
    return _Columns(
        np.array([svc.id for svc in svcs], dtype=object),
        np.array([_STANDARDS.index(svc.standard) for svc in svcs], dtype=np.int8),
        np.array([svc.channel_index for svc in svcs], dtype=np.int64),
        *np.array([(*svc.location, svc.eirp_dbm, svc.antenna_height_m) for svc in svcs],
                  dtype=float).reshape(-1, 4).T,
        np.array([rec.required_rx_dbm for rec in records], dtype=float),
        np.array([np.nan if rec.protected_radius_m is None else rec.protected_radius_m
                  for rec in records], dtype=float))


def _sorted_by_channel(parts):
    """One column store from per-field lists of column chunks, stably sorted
    by channel; also the chunks' row position of each sorted row.

    Each field's chunks are joined and dropped in turn, so that no more
    than one field is held twice.
    """
    if not parts[0]:
        parts = [[col] for col in _columns_of([])]
    order = np.argsort(np.concatenate(parts[2]), kind="stable")
    columns = []
    for i, chunks in enumerate(parts):
        columns.append(np.concatenate(chunks)[order])
        parts[i] = None
    return _Columns(*columns), order


class GeoDb:
    """The record set as a column store, plus the grey-boundary parameters.

    The store holds one array per record field, stably sorted by
    channel, so that each channel's records are one contiguous slice in
    insertion order (``co_channel_arrays``).  ``records``, a dict of
    ``GeoRecord`` by id in insertion order, is a lazy view: ``load``
    fills only the columns, and the dict is built from them on first
    use, which only ``add``, ``remove``, ``save`` and the contour
    listing make.  ``add`` and ``remove`` change the dict and drop the
    columns; ``co_channel_arrays`` rebuilds them from the records.
    Change the records only through ``add`` and ``remove``.

    ``version`` increments on every mutation, letting coordinators
    detect stale availability views.
    """

    def __init__(self, records=None, grey_margin_m=DEFAULT_GREY_MARGIN_M,
                 protection_floor_dbm=DEFAULT_PROTECTION_FLOOR_DBM, version=0):
        self.grey_margin_m = grey_margin_m
        self.protection_floor_dbm = protection_floor_dbm
        self.version = version
        self._records = dict(records or {})
        self._columns = self._order = self._channels = None

    @classmethod
    def _from_columns(cls, columns, order, **params):
        db = cls(**params)
        db._records, db._columns, db._order = None, columns, order
        return db

    @property
    def records(self):
        """The records by id, in insertion order (built on first use)."""
        if self._records is None:
            # Back to insertion order, one Python row per record.
            back = np.argsort(self._order)
            rows = zip(*(col[back].tolist() for col in self._columns))
            self._records = {
                rec_id: GeoRecord(
                    TvTransmitter(id=rec_id, standard=_STANDARDS[standard],
                                  channel_index=channel, location=(x, y), eirp_dbm=eirp,
                                  antenna_height_m=height),
                    required_rx_dbm=required,
                    protected_radius_m=None if math.isnan(radius) else radius)
                for rec_id, standard, channel, x, y, eirp, height, required, radius in rows}
        return self._records

    def __eq__(self, other):
        if not isinstance(other, GeoDb):
            return NotImplemented
        return ((self.records, self.grey_margin_m, self.protection_floor_dbm, self.version)
                == (other.records, other.grey_margin_m, other.protection_floor_dbm,
                    other.version))

    def add(self, rec):
        if rec.service.id in self.records:
            raise ValueError(f"duplicate record id {rec.service.id!r}")
        self.records[rec.service.id] = rec
        self._changed()

    def remove(self, record_id):
        del self.records[record_id]
        self._changed()

    def _changed(self):
        self.version += 1
        self._columns = self._order = self._channels = None

    def co_channel_arrays(self, channel_index):
        """The records on a channel as slices of the channel-sorted columns.

        Returns (x, y, radius, eirp, required, has_blank): the services'
        coordinates, their stored protected radii (NaN where none is
        stored, and ``has_blank`` whether any is NaN), their EIRPs and
        required receive levels, in insertion order.  None when the
        channel has no record.
        """
        if self._channels is None:
            if self._columns is None:
                self._columns, self._order = _sorted_by_channel(
                    [[col] for col in _columns_of(list(self._records.values()))])
            cols = self._columns
            channels, starts = np.unique(cols.channel, return_index=True)
            stops = [*starts[1:].tolist(), len(cols.channel)]
            blank = np.isnan(cols.radius)
            self._channels = {
                channel: (cols.x[a:b], cols.y[a:b], cols.radius[a:b], cols.eirp[a:b],
                          cols.required[a:b], bool(blank[a:b].any()))
                for channel, a, b in zip(channels.tolist(), starts.tolist(), stops)}
        return self._channels.get(channel_index)


def classify_region(db, point, channel_index, cenb_max_eirp_dbm, prop, grid,
                    freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Black/Grey/White classification of a point for one channel.

    Only co-channel services constrain the region; adjacent channels are
    handled by guard bands elsewhere.  No co-channel record means White.
    A record without a stored radius gets one from the propagation
    model, in record order, so its DegenerateContourError is raised
    unless an earlier record already puts the point in Black.
    """
    if not grid.valid_index(channel_index):
        raise IndexError(f"channel index {channel_index} outside grid "
                         f"(0..{grid.n_channels - 1})")
    co_channel = db.co_channel_arrays(channel_index)
    if co_channel is None:
        return Region.WHITE
    x, y, radii, eirp, required, has_blank = co_channel
    r_interf = contour_radius_m(cenb_max_eirp_dbm, db.protection_floor_dbm, prop, freq_mhz)
    d = np.hypot(point[0] - x, point[1] - y)
    if has_blank:
        radii = radii.copy()
        for i in np.flatnonzero(np.isnan(radii)):
            if (d[:i] <= radii[:i]).any():
                return Region.BLACK
            radii[i] = contour_radius_m(eirp[i], required[i], prop, freq_mhz)
    if (d <= radii).any():
        return Region.BLACK
    if (d <= radii + r_interf + db.grey_margin_m).any():
        return Region.GREY
    return Region.WHITE


def query_vacant_channels(db, point, cenb_max_eirp_dbm, prop, grid,
                          freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Region of every grid channel at a point (White = usable without
    sensing, Grey = usable with sensing)."""
    return [(idx, classify_region(db, point, idx, cenb_max_eirp_dbm, prop, grid,
                                  freq_mhz))
            for idx in range(grid.n_channels)]


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

    def _grid(self):
        return np.asarray(self.separation_m).reshape(
            len(self.powers_dbm), len(self.heights_m))


def required_separation(table, wsd_power_dbm, wsd_height_m):
    """Bilinear lookup of the required separation; clamps outside the hull.

    Returns (separation_m, clamped) where ``clamped`` flags inputs that
    fell outside the table and were pulled to its edge.
    """
    powers = np.asarray(table.powers_dbm, dtype=float)
    heights = np.asarray(table.heights_m, dtype=float)
    grid = table._grid()
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


def separation_table_to_csv(table, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["power_dbm"] + [f"{h:g}" for h in table.heights_m])
        grid = table._grid()
        for i, p in enumerate(table.powers_dbm):
            writer.writerow([f"{p:g}"] + [f"{v:.10g}" for v in grid[i]])


def default_separation_table():
    """The illustrative table shipped with the package."""
    from importlib.resources import files

    return separation_table_from_csv(str(files("tvwsim.data") / "separation_table.csv"))


GEODB_FIELDS = ["id", "standard", "channel", "x_m", "y_m", "eirp_dbm", "height_m",
                "required_rx_dbm", "protected_radius_m"]


def save(db, path):
    """Persist a database; records are written sorted by key."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# version={db.version}\n")
        fh.write(f"# grey_margin_m={db.grey_margin_m!r}\n")
        fh.write(f"# protection_floor_dbm={db.protection_floor_dbm!r}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GEODB_FIELDS)
        for key in sorted(db.records):
            rec = db.records[key]
            svc = rec.service
            radius = ("" if rec.protected_radius_m is None
                      else repr(float(rec.protected_radius_m)))
            writer.writerow([svc.id, svc.standard.value, svc.channel_index,
                             repr(float(svc.location[0])), repr(float(svc.location[1])),
                             repr(float(svc.eirp_dbm)), repr(float(svc.antenna_height_m)),
                             repr(float(rec.required_rx_dbm)), radius])


def load(path, prop=None, freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Load a database into columns; blank radii are computed from the propagation model.

    Each chunk of rows is parsed and checked as arrays, and every blank
    radius of the chunk comes from one ``contour_radius_m`` call.  Only
    when a check fails is the file read again through ``_record`` row by
    row, which raises the error of the first bad line.  ``prop`` is only
    consulted for records whose radius field is blank.
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
    try:
        for chunk, values in float_chunks(csv_rows(path, GEODB_FIELDS, metadata),
                                          slice(3, 8)):
            columns = _chunk_columns(chunk, values, prop, freq_mhz)
            if columns is None:
                break
            for chunks, col in zip(parts, columns):
                chunks.append(col)
        else:
            if _distinct(parts[0]):
                return GeoDb._from_columns(*_sorted_by_channel(parts), **params)
    except ParseError:      # a ragged row; an earlier one may hold a bad cell
        pass
    # A check failed: read again row by row, so that the first bad line
    # raises its error.
    seen = set()
    records = [_record(path, lineno, cells, prop, freq_mhz, seen)
               for lineno, cells in csv_rows(path, GEODB_FIELDS, metadata)]
    return GeoDb({rec.service.id: rec for rec in records}, **params)


def _chunk_columns(chunk, values, prop, freq_mhz):
    """A chunk of rows as columns when every row passes ``_record``'s
    checks, except that of duplicate ids across chunks; otherwise None."""
    if values is None:
        return None
    try:
        channel = np.fromiter(map(int, [cells[2] for cells in chunk]), dtype=np.int64,
                              count=len(chunk))
    except (ValueError, OverflowError):
        return None
    standards = np.array([cells[1] for cells in chunk], dtype=object)
    standard = np.full(len(chunk), -1, dtype=np.int8)
    for code, name in enumerate(_STANDARDS):
        standard[standards == name.value] = code
    radii = [cells[8] for cells in chunk]
    blank = np.array([not cell.strip() for cell in radii])
    radius = float_array([cell if cell.strip() else "nan" for cell in radii])
    if radius is None:
        return None
    x, y, eirp, height, required = values.T
    if not (np.isfinite(values).all() and np.isfinite(radius[~blank]).all()
            and (standard >= 0).all() and (channel >= 0).all() and (required < eirp).all()):
        return None
    if blank.any():
        try:
            radius[blank] = contour_radius_m(eirp[blank], required[blank], prop, freq_mhz)
        except DegenerateContourError:
            return None
    if not ((radius > 0).all() and np.isfinite(radius).all()):
        return None
    return _Columns(np.array([cells[0] for cells in chunk], dtype=object), standard, channel,
                    x, y, eirp, height, required, radius)


def _distinct(id_chunks):
    """True when no two ids are equal; False may also mean two equal hashes."""
    hashes = np.fromiter(map(hash, itertools.chain.from_iterable(id_chunks)),
                         dtype=np.int64, count=sum(map(len, id_chunks)))
    hashes.sort()
    return bool((hashes[1:] != hashes[:-1]).all())


def _record(path, lineno, cells, prop, freq_mhz, seen):
    """One row as a GeoRecord, checked; a bad cell raises a ParseError at
    ``lineno``.  The record's id joins ``seen``."""
    rec_id, standard, channel, x, y, eirp, height, required, radius = cells
    with row_errors(path, lineno):
        svc = TvTransmitter(id=rec_id, standard=TvStandard(standard),
                            channel_index=int(channel),
                            location=(finite_float(x), finite_float(y)),
                            eirp_dbm=finite_float(eirp),
                            antenna_height_m=finite_float(height))
        required = finite_float(required)
        try:
            radius = (finite_float(radius) if radius.strip()
                      else contour_radius_m(svc.eirp_dbm, required, prop, freq_mhz))
        except DegenerateContourError as exc:
            raise ValueError(f"record {rec_id!r}: {exc}") from exc
        if rec_id in seen:
            raise ValueError(f"duplicate record id {rec_id!r}")
        rec = GeoRecord(service=svc, required_rx_dbm=required, protected_radius_m=radius)
        if not 0 <= svc.channel_index <= _MAX_CHANNEL:
            raise ValueError(f"channel {svc.channel_index} is not a channel index "
                             "(0 to 2**63 - 1)")
    seen.add(rec_id)
    return rec
