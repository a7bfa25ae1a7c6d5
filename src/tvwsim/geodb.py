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
"""

import csv
import math
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .errors import DegenerateContourError, ParseError
from .radio_env import TvStandard, TvTransmitter, finite_float

DEFAULT_REQUIRED_RX_DBM = -84.0
DEFAULT_GREY_MARGIN_M = 1000.0
DEFAULT_PROTECTION_FLOOR_DBM = -114.0
DEFAULT_TV_FREQ_MHZ = 700.0


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
    """
    margin = eirp_dbm - floor_dbm - prop.ref_loss(freq_mhz)
    if margin < 0:
        raise DegenerateContourError(
            f"level {floor_dbm} dBm unattainable at reference distance")
    return prop.ref_distance_m * 10.0 ** (margin / (10.0 * prop.exponent))


def protected_radius(rec, prop, freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Protected contour radius of a record (given, or computed)."""
    if rec.protected_radius_m is not None:
        return rec.protected_radius_m
    return contour_radius_m(rec.service.eirp_dbm, rec.required_rx_dbm, prop, freq_mhz)


@dataclass
class GeoDb:
    """Keyed record set plus the grey-boundary parameters.

    ``version`` increments on every mutation, letting coordinators
    detect stale availability views.  Change the records through
    ``add`` and ``remove``: they drop the per-channel arrays that
    ``co_channel_arrays`` builds.
    """

    records: dict = field(default_factory=dict)
    grey_margin_m: float = DEFAULT_GREY_MARGIN_M
    protection_floor_dbm: float = DEFAULT_PROTECTION_FLOOR_DBM
    version: int = 0
    _by_channel: dict | None = field(default=None, init=False, repr=False, compare=False)

    def add(self, rec):
        if rec.service.id in self.records:
            raise ValueError(f"duplicate record id {rec.service.id!r}")
        self.records[rec.service.id] = rec
        self.version += 1
        self._by_channel = None

    def remove(self, record_id):
        del self.records[record_id]
        self.version += 1
        self._by_channel = None

    def co_channel_arrays(self, channel_index):
        """The records on a channel, in insertion order, as arrays.

        Returns (records, (n, 2) service locations, (n,) stored protected
        radii with NaN where none is stored), or None when the channel
        has no record.  Every channel's arrays are built in one pass on
        first use after a change.
        """
        if self._by_channel is None:
            groups = {}
            for rec in self.records.values():
                groups.setdefault(rec.service.channel_index, []).append(rec)
            self._by_channel = {
                ch: (recs,
                     np.array([r.service.location for r in recs], dtype=float),
                     np.array([np.nan if r.protected_radius_m is None else r.protected_radius_m
                               for r in recs], dtype=float))
                for ch, recs in groups.items()}
        return self._by_channel.get(channel_index)


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
    records, sites, radii = co_channel
    r_interf = contour_radius_m(cenb_max_eirp_dbm, db.protection_floor_dbm, prop, freq_mhz)
    d = np.hypot(point[0] - sites[:, 0], point[1] - sites[:, 1])
    blank = np.flatnonzero(np.isnan(radii))
    if blank.size:
        radii = radii.copy()
        for i in blank:
            if np.any(d[:i] <= radii[:i]):
                return Region.BLACK
            radii[i] = protected_radius(records[i], prop, freq_mhz)
    if np.any(d <= radii):
        return Region.BLACK
    if np.any(d <= radii + r_interf + db.grey_margin_m):
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
        if list(self.powers_dbm) != sorted(set(self.powers_dbm)):
            raise ValueError("power axis must be strictly increasing")
        if list(self.heights_m) != sorted(set(self.heights_m)):
            raise ValueError("height axis must be strictly increasing")
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "power_dbm" or len(header) < 2:
            raise ParseError("expected header power_dbm,<height>,...", line=1, path=path)
        try:
            heights = tuple(float(h) for h in header[1:])
        except ValueError as exc:
            raise ParseError(str(exc), line=1, path=path) from exc
        powers, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError("row width does not match header", line=lineno, path=path)
            try:
                powers.append(float(row[0]))
                values.extend(float(v) for v in row[1:])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno, path=path) from exc
    return SeparationTable(tuple(powers), heights, tuple(values))


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
            radius = "" if rec.protected_radius_m is None else repr(rec.protected_radius_m)
            writer.writerow([svc.id, svc.standard.value, svc.channel_index,
                             repr(float(svc.location[0])), repr(float(svc.location[1])),
                             repr(float(svc.eirp_dbm)), repr(float(svc.antenna_height_m)),
                             repr(float(rec.required_rx_dbm)), radius])


def load(path, prop=None, freq_mhz=DEFAULT_TV_FREQ_MHZ):
    """Load a database; blank radii are computed from the propagation model.

    ``prop`` is only consulted for records whose radius field is blank.
    """
    db = GeoDb()
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body_start = 0
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            try:
                key, value = line[1:].strip().split("=", 1)
                key = key.strip()
                if key == "version":
                    db.version = int(value)
                elif key == "grey_margin_m":
                    db.grey_margin_m = finite_float(value)
                elif key == "protection_floor_dbm":
                    db.protection_floor_dbm = finite_float(value)
                else:
                    raise ParseError(f"unknown metadata key {key!r}", line=lineno, path=path)
            except ValueError as exc:
                raise ParseError(f"malformed metadata line: {exc}", line=lineno,
                                 path=path) from exc
            body_start = lineno
        else:
            break
    body = lines[body_start:]
    if not body or body[0].split(",") != GEODB_FIELDS:
        raise ParseError(f"expected header {','.join(GEODB_FIELDS)}",
                         line=body_start + 1, path=path)
    version = db.version
    for offset, row in enumerate(csv.reader(body[1:]), start=body_start + 2):
        if not row:
            continue
        if len(row) != len(GEODB_FIELDS):
            raise ParseError("wrong column count", line=offset, path=path)
        try:
            svc = TvTransmitter(id=row[0], standard=TvStandard(row[1]),
                                channel_index=int(row[2]),
                                location=(float(row[3]), float(row[4])),
                                eirp_dbm=float(row[5]), antenna_height_m=float(row[6]))
            rec = GeoRecord(service=svc, required_rx_dbm=float(row[7]),
                            protected_radius_m=None)
            if row[8].strip():
                rec = replace(rec, protected_radius_m=float(row[8]))
            else:
                rec = replace(rec, protected_radius_m=protected_radius(
                    rec, prop if prop is not None else _default_prop(), freq_mhz))
        except (ValueError, KeyError) as exc:
            raise ParseError(str(exc), line=offset, path=path) from exc
        if svc.id in db.records:
            raise ParseError(f"duplicate record id {svc.id!r}", line=offset, path=path)
        db.records[svc.id] = rec
    db.version = version
    return db


def _default_prop():
    from .radio_env import PropagationConfig

    return PropagationConfig()
