"""Scenario configuration, the deterministic event loop, metrics, reports.

A scenario is an INI-style text file of ``section.key = value`` lines
(UTF-8, ``#`` comments); a bad value, a non-finite number included, is
a ``ConfigError`` at load time.
Its value parsers are those of ``radio_env``, which the command line
shares, plus the bounds that only a scenario or study key has.  Each
``cenb.FRAME_MS`` frame senses in the configured windows, fuses the
verdicts over X2 when several CeNBs sense, decides at the following
frame boundary, broadcasts on the downlink pilot instant, and executes
handovers at their activation boundary.  Each CeNB's database view
comes from one geo-database query at start-up, and the blocks not set
by ``cenbN.block`` from one ``asm_allocate`` pass; neither is repeated
during the run (an ``ASM_EPOCH`` event only logs the blocks held).

The carrier-window bins are found once, at load, so a grid that cannot
hold the windows, or one of more than ``MAX_GRID_BINS`` RBW bins, is a
load-time ``ConfigError`` too.  The frame loop's other radio inputs are
arrays built once per run: a ``LinkArrays`` of every (CeNB, transmitter)
distance and every transmitter's unit-power template at the window bins,
and a ``ScheduleTable`` of the schedules as activity segments.  The radio
work does not depend on any CeNB's decisions, so the loop does it for a
block of consecutive frames at once (tens of frames when there are few
CeNBs, a few when there are many): one activity query for every sensing
instant and downlink subframe of the block; on fixed link gains, the
mean window powers of each distinct schedule segment among the block's
sensing instants, formed once; then, in passes of a few frames, every
frame and CeNB's mean window powers (gathered from those rows, or with
shadowing formed one frame at a time, in frame order), one unit-mean
Gamma draw of the detector noise at all their window bins from the run's
one sensing stream, and one k-of-n pass over the window sums in mW
against the threshold in mW (``DetectorConfig.threshold_mw``, which the
ROC compares with too).  numpy fills a draw for many frames in the order
of one draw per frame, so no output depends on the block length.

The loop then advances from event to event (next-event time advance).
A CeNB's state changes only at a frame boundary where a handover it
decided activates, or where its last round leaves its held block
unclear (``cenb.block_clear``: a channel of the block sensed occupied or
Black, or no block held).  Between two handovers no CeNB changes its
block, the channels it monitors or its retune window, so ``_Rounds``
decides every round from there to the end of the block as arrays: each
CeNB's own count of occupied monitored channels (its ``SENSE`` row),
the verdicts it decides on, with one ``fuse_cooperative`` call over the
(frames, CeNBs, channels) verdicts when several CeNBs sense (the X2
exchange is all-to-all, so every CeNB that sensed a channel fuses the
same verdicts), whether they leave its block clear, and each frame's
downlink slots blocked by a TV on the block, the retune window or
holding no block.  The frames up to the next boundary that may change a
state form a quiet stretch: their boundaries only log their epochs.
Only at an event boundary does Python run per CeNB: ``record_view`` of
the last round, then ``execute_handover``, for the handovers that
activate there, then ``record_view`` and ``spectrum_decision`` for each
other CeNB whose last round was not clear, and ``spectrum_decision`` for
the ones that handed over.  A CeNB whose round left its block clear
skips both: the decision would be None, and its next round covers the
same channels, so it overwrites the view before the next decision or
handover reads it.
A handover ends the rounds, and the next ones start at its frame.

When a run of rounds ends, its ``SENSE`` rows are written by slice into
two (frames, CeNBs) grids of small ints, the monitored and the occupied
channel counts, and its downlink is counted as arrays: each unblocked
(subframe, CeNB) slot delivers a fixed packet budget, and the
packet-loss ratio is sampled once per frame.  The random losses of all
the run's unblocked slots are one binomial call, split per frame by
cumulative sums; it draws the values of one scalar call per slot and
leaves the stream in the same state.  The other events are a short list
of rows, sorted by time once, stably, at the end.  The run returns both
as an ``EventLog``, which builds the ``SENSE`` rows only when they are
read and merges them in: a ``SENSE`` row ties only a ``RETUNE_END``
logged before it, so the order is that of a loop that logs every frame
in turn.

Everything is a pure function of (config bytes, seed): every random
stream is made in the run from the scenario seed, alone (shadowing) or
with a fixed integer tag, so equal inputs give byte-identical outputs.
"""

import bisect
import os
from dataclasses import dataclass, field, replace
from itertools import chain, count, islice, repeat

import numpy as np

from . import cenb as cenb_mod
from . import geodb as geodb_mod
from . import interference as interf_mod
from . import sensing as sensing_mod
from .cenb import (
    FRAME_MS,
    CenbState,
    FrameSchedule,
    asm_allocate,
    build_frame_schedule,
    execute_handover,
    select_bandwidth,
    spectrum_decision,
)
from .errors import (
    AlignmentError,
    ConfigError,
    CoverageError,
    DegenerateContourError,
    ParseError,
    StartupError,
)
from .geodb import GeoDb, Region, contour_radius_m, query_vacant_channels
from .radio_env import (
    DEFAULT_RBW_KHZ,
    MAX_LEVEL_DB,
    MIN_REF_DISTANCE_M,
    FrequencyBand,
    LinkArrays,
    PropagationConfig,
    ScheduleTable,
    build_channel_grid,
    checked_float,
    finite_float,
    level_db,
    level_range,
    parse_exclusions,
    parse_range,
    path_loss_exponent,
    positive_int,
    radio_freq_mhz,
    received_spectrum,  # noqa: F401  (the benchmark tracer patches harness.received_spectrum)
    seed_int,
    transmitters_from_csv,
)
from .sensing import analytic_threshold_dbm


def parse_ini(path):
    """Flat ``section.key = value`` file into an ordered dict of strings."""
    data = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError("expected 'section.key = value'", line=lineno, path=path)
            key, value = line.split("=", 1)
            key = key.strip()
            if "." not in key:
                raise ParseError(f"key {key!r} missing its section prefix",
                                 line=lineno, path=path)
            if key in data:
                raise ParseError(f"duplicate key {key!r}", line=lineno, path=path)
            data[key] = value.strip()
    return data


def _parse_bool(text):
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {text!r}")


def _block_parser(grid):
    """``auto``, or a comma list of at most three frequency-contiguous grid channels."""
    def parse(text):
        if text.lower() == "auto":
            return None
        block = tuple(sorted(int(p) for p in text.split(",") if p.strip()))
        for ch in block:
            if not grid.valid_index(ch):
                raise ValueError(f"channel {ch} outside the grid")
        if (grid.contiguous_runs(block) != [list(block)]
                or len(block) > cenb_mod.MAX_BLOCK_CHANNELS):
            raise ValueError(f"{block} is not a contiguous run of 1 to "
                             f"{cenb_mod.MAX_BLOCK_CHANNELS} channels")
        return block
    return parse


# Most RBW bins in a grid band: the run synthesizes a whole-band spectrum
# per transmitter, 8 MiB at this count (the default band at 0.33 kHz).
MAX_GRID_BINS = 1 << 20


def _cenb_id(text):
    """A CeNB id: non-empty, and free of the separators of the event details."""
    if not text:
        raise ValueError("expected a non-empty id")
    if any(sep in text for sep in ",;:"):
        raise ValueError(f"id {text!r} contains one of ',', ';' or ':'")
    return text


_positive = checked_float(lambda v: v > 0.0, "a positive number")
_non_negative = checked_float(lambda v: v >= 0.0, "a non-negative number")
_fraction = checked_float(lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")
_probability = checked_float(lambda v: 0.0 < v <= 1.0, "a value in (0, 1]")
_open_fraction = checked_float(lambda v: 0.0 < v < 1.0, "a value in (0, 1)")
# Close-in reference distances run from 1 m to 1 km; at 100 km the
# free-space loss is still finite over the whole radio spectrum.  The
# floor is the model's.
_ref_distance = checked_float(lambda v: MIN_REF_DISTANCE_M <= v <= 1e5,
                              "a reference distance of at most 1e5 m (a reference distance "
                              f"must be at least {MIN_REF_DISTANCE_M:g} m)")
# A shadowing draw 10 deviations out, far past any run's draws, stays
# within MAX_LEVEL_DB.
_shadowing_sigma = checked_float(lambda v: 0.0 <= v <= MAX_LEVEL_DB / 10,
                                 f"a deviation from 0 to {MAX_LEVEL_DB / 10:g} dB")
# Largest length of the coexistence study.  Real layouts span kilometres;
# this bound only keeps the squares of the layout's distances, a few
# times the largest length, inside a double (1.8e308).
MAX_STUDY_LENGTH_M = 1e150
_study_length = checked_float(lambda v: 0.0 < v <= MAX_STUDY_LENGTH_M,
                              f"a length in (0, {MAX_STUDY_LENGTH_M:g}] m")
# The study's TV offset and a scenario's CeNB coordinates: the same bound
# keeps the distances between CeNBs, and from a CeNB to a transmitter or a
# geo-database record, inside a double.
_coordinate = checked_float(lambda v: abs(v) <= MAX_STUDY_LENGTH_M,
                            f"a coordinate from -{MAX_STUDY_LENGTH_M:g} to "
                            f"{MAX_STUDY_LENGTH_M:g} m")
# Links are clamped to the coupling distance; a shorter one than the
# shortest reference distance could give a gain past a double's range.
_coupling_length = checked_float(lambda v: MIN_REF_DISTANCE_M <= v <= MAX_STUDY_LENGTH_M,
                                 f"a length from {MIN_REF_DISTANCE_M:g} to "
                                 f"{MAX_STUDY_LENGTH_M:g} m")


def _band(path, what, low_mhz, high_mhz):
    try:
        return FrequencyBand(low_mhz, high_mhz)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad {what}: {exc}") from exc


@dataclass
class CenbSetup:
    id: str
    location: tuple
    tx_power_dbm: float
    dedicated_band: FrequencyBand
    initial_block: tuple | None   # None = assign automatically


@dataclass
class InterferenceStudy:
    """Parameters of the coexistence sweep."""

    topology: interf_mod.HexTopology
    coex: interf_mod.CoexistenceConfig
    acir_list: list
    snapshots: int
    seed: int
    loss_budget: float = 0.05


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration_ms: int
    grid: object
    schedule: FrameSchedule
    prop: PropagationConfig
    detector: sensing_mod.DetectorConfig
    operational_pfa: float
    packets_per_dl_subframe: int
    retune_ms: float
    random_loss_floor: float
    fusion_rule: str
    asm_epoch_frames: int
    asm_reuse_distance_m: float
    transmitters: list
    geodb: GeoDb | None
    cenbs: list
    rbw_khz: float
    windows: np.ndarray     # (channels, carriers, width) carrier-window bins


class _KeyReader:
    """Typed key consumption with unknown-key detection."""

    def __init__(self, data, path):
        self.data = dict(data)
        self.path = path

    def take(self, key, parse, default=None, required=False):
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.path}: missing mandatory key {key!r}")
            return default
        raw = self.data.pop(key)
        try:
            return parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{self.path}: bad value for {key!r}: {exc}") from exc

    def reject_unknown(self):
        if self.data:
            name = sorted(self.data)[0]
            raise ConfigError(f"{self.path}: unknown key {name!r}")


def _input_file(path, key, name, base_dir):
    """The file ``key`` names, resolved against the scenario's directory.

    A missing path or one that is not a regular file (a directory) is a
    ``ConfigError`` that names the scenario, the key and the path.
    """
    resolved = name if os.path.isabs(name) else os.path.join(base_dir, name)
    if not os.path.isfile(resolved):
        what = "is not a file" if os.path.exists(resolved) else "not found"
        raise ConfigError(f"{path}: {key} {what}: {resolved}")
    return resolved


def _load_interference(reader):
    isd = reader.take("interference.isd_m", _study_length, 150.0)
    radius = reader.take("interference.tv_radius_m", _study_length, 350.0)
    off_x = reader.take("interference.offset_x_m", _coordinate, 10.0)
    off_y = reader.take("interference.offset_y_m", _coordinate, 0.0)
    topo = interf_mod.build_topology(isd, radius, (off_x, off_y))
    coex = interf_mod.CoexistenceConfig(
        cenb_power_dbm=reader.take("interference.cenb_power_dbm", level_db, 20.0),
        ue_power_dbm=reader.take("interference.ue_power_dbm", level_db, 0.0),
        tv_eirp_dbm=reader.take("interference.tv_eirp_dbm", level_db, 59.0),
        tv_protection_snr_db=reader.take("interference.tv_protection_snr_db", level_db, 23.0),
        tv_noise_figure_db=reader.take("interference.tv_noise_figure_db", level_db, 7.0),
        ue_noise_figure_db=reader.take("interference.ue_noise_figure_db", level_db, 9.0),
        cenb_noise_figure_db=reader.take("interference.cenb_noise_figure_db", level_db, 3.0),
        n_tv_receivers=reader.take("interference.tv_receivers", positive_int, 10),
        ues_per_sector=reader.take("interference.ues_per_sector", positive_int, 10),
        min_coupling_m=reader.take("interference.min_coupling_m", _coupling_length, 10.0),
        exponent=reader.take("interference.exponent", path_loss_exponent, 3.5),
        freq_mhz=reader.take("interference.freq_mhz", radio_freq_mhz, 700.0),
    )
    return InterferenceStudy(
        topology=topo, coex=coex,
        acir_list=reader.take("interference.acir_db", level_range, parse_range("0:100:5")),
        snapshots=reader.take("interference.snapshots", positive_int, 1000),
        seed=reader.take("interference.seed", seed_int, 1),
        loss_budget=reader.take("interference.loss_budget", _open_fraction, 0.05),
    )


def load_acir_study(path):
    """Standalone coexistence-study configuration file."""
    reader = _KeyReader(parse_ini(path), path)
    study = _load_interference(reader)
    reader.reject_unknown()
    return study


def load_scenario(path):
    """Parse and fully validate a scenario file, filling documented defaults."""
    base_dir = os.path.dirname(os.path.abspath(path))
    reader = _KeyReader(parse_ini(path), path)

    seed = reader.take("sim.seed", seed_int, required=True)
    duration = reader.take("sim.duration_ms", int, 2000)
    if duration <= 0 or duration % FRAME_MS != 0:
        raise ConfigError(f"{path}: duration_ms must be a positive multiple of "
                          f"{FRAME_MS:g} ms (got {duration})")

    low = reader.take("grid.low_mhz", finite_float, 470.0)
    high = reader.take("grid.high_mhz", finite_float, 806.0)
    width = reader.take("grid.channel_mhz", _positive, 8.0)
    excluded = reader.take("grid.exclusions", parse_exclusions, parse_exclusions("566-606"))
    try:
        grid = build_channel_grid(_band(path, "grid band", low, high), width, excluded)
    except (AlignmentError, ValueError) as exc:
        raise ConfigError(f"{path}: bad grid.low_mhz, grid.high_mhz, grid.channel_mhz or "
                          f"grid.exclusions: {exc}") from exc

    frame_keys = dict(
        config_id=reader.take("frame.pattern", str, "tdd-2"),
        special_split=(reader.take("frame.dwpts_ms", finite_float, 0.2),
                       reader.take("frame.gp_ms", finite_float, 0.7),
                       reader.take("frame.uppts_ms", finite_float, 0.1)),
        wide_scan=reader.take("frame.wide_scan", _parse_bool, True),
    )
    try:
        schedule = build_frame_schedule(**frame_keys)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    ref_loss = reader.take("prop.ref_loss_db", level_db, None)
    prop = PropagationConfig(
        exponent=reader.take("prop.exponent", path_loss_exponent, 3.5),
        ref_distance_m=reader.take("prop.ref_distance_m", _ref_distance, 1.0),
        ref_loss_db=ref_loss,
        shadowing_sigma_db=reader.take("prop.shadowing_sigma_db", _shadowing_sigma, 0.0),
    )

    rbw_khz = reader.take("radio.rbw_khz", _positive, DEFAULT_RBW_KHZ)
    calib = reader.take("files.calibration", str, "default")
    detector = (sensing_mod.default_calibration() if calib == "default" else
                sensing_mod.load_calibration(
                    _input_file(path, "files.calibration", calib, base_dir)))
    # The calibration file sets no part of the carrier layout, so these
    # windows are those of the run's operating detector too.
    # Checked before ``grid.n_bins``, whose count a subnormal RBW overflows.
    if rbw_khz / 1000.0 * (MAX_GRID_BINS + 0.5) < grid.band.width_mhz:
        raise ConfigError(f"{path}: radio.rbw_khz = {rbw_khz:g} splits the grid band into "
                          f"more than {MAX_GRID_BINS} bins")
    try:
        windows = sensing_mod.carrier_windows(grid.bin_centers_mhz(rbw_khz),
                                              grid.low_edges_mhz, detector)
    except CoverageError as exc:
        raise ConfigError(f"{path}: carrier windows not representable on this grid: "
                          f"{exc}") from exc

    txs = []
    tx_file = reader.take("files.transmitters", str, None)
    if tx_file is not None:
        txs = transmitters_from_csv(_input_file(path, "files.transmitters", tx_file, base_dir))
        for tx in txs:
            if not grid.valid_index(tx.channel_index):
                raise ConfigError(f"{path}: transmitter {tx.id!r} channel "
                                  f"{tx.channel_index} outside the grid")

    db = None
    db_file = reader.take("files.geodb", str, None)
    if db_file is not None:
        db_file = _input_file(path, "files.geodb", db_file, base_dir)
        db = geodb_mod.load(db_file, prop)

    cenbs = []
    prefixes = {}       # CeNB id -> the key prefix of the CeNB that has it
    index = 1
    while any(k.startswith(f"cenb{index}.") for k in reader.data):
        prefix = f"cenb{index}"
        cenb_id = reader.take(f"{prefix}.id", _cenb_id, prefix)
        if cenb_id in prefixes:
            raise ConfigError(f"{path}: duplicate CeNB id {cenb_id!r}: "
                              f"'{prefixes[cenb_id]}.id' and '{prefix}.id'")
        prefixes[cenb_id] = prefix
        ded_lo = reader.take(f"{prefix}.dedicated_low_mhz", finite_float, 698.0)
        ded_hi = reader.take(f"{prefix}.dedicated_high_mhz", finite_float, 706.0)
        cenbs.append(CenbSetup(
            id=cenb_id,
            location=(reader.take(f"{prefix}.x_m", _coordinate, 0.0),
                      reader.take(f"{prefix}.y_m", _coordinate, 0.0)),
            tx_power_dbm=reader.take(f"{prefix}.power_dbm", level_db, 20.0),
            dedicated_band=_band(path, f"{prefix} dedicated band", ded_lo, ded_hi),
            initial_block=reader.take(f"{prefix}.block", _block_parser(grid), None),
        ))
        index += 1
    if not cenbs:
        cenbs = [CenbSetup(id="cenb1", location=(0.0, 0.0), tx_power_dbm=20.0,
                           dedicated_band=FrequencyBand(698.0, 706.0),
                           initial_block=None)]
    # A CeNB's interference contour must exist wherever a record
    # constrains a grid channel.
    if db is not None and (db.columns.channel < grid.n_channels).any():
        for n, setup in enumerate(cenbs, start=1):
            try:
                contour_radius_m(setup.tx_power_dbm, db.protection_floor_dbm, prop)
            except DegenerateContourError as exc:
                raise ConfigError(
                    f"{path}: cenb{n}.power_dbm = {setup.tx_power_dbm:g} dBm cannot reach "
                    f"protection_floor_dbm = {db.protection_floor_dbm:g} dBm of {db_file} "
                    f"({exc})") from exc

    cfg = ScenarioConfig(
        seed=seed,
        duration_ms=duration,
        grid=grid,
        schedule=schedule,
        prop=prop,
        detector=detector,
        operational_pfa=reader.take("sim.operational_pfa", _probability, 1e-8),
        packets_per_dl_subframe=reader.take("sim.packets_per_dl_subframe", positive_int, 10),
        retune_ms=reader.take("sim.retune_ms", _non_negative, 10.0),
        random_loss_floor=reader.take("sim.random_loss_floor", _fraction, 0.0),
        fusion_rule=reader.take("sim.fusion_rule", str, "OR").upper(),
        asm_epoch_frames=reader.take("sim.asm_epoch_frames", positive_int, 100),
        asm_reuse_distance_m=reader.take("sim.asm_reuse_distance_m", finite_float, 1000.0),
        transmitters=txs,
        geodb=db,
        cenbs=cenbs,
        rbw_khz=rbw_khz,
        windows=windows,
    )
    if cfg.fusion_rule not in ("OR", "MAJORITY", "OFF"):
        raise ConfigError(f"{path}: fusion_rule must be OR, MAJORITY, or OFF")
    reader.reject_unknown()
    return cfg


@dataclass
class MetricsSeries:
    """Per-frame packet-loss samples and every executed or aborted ``HandoverEvent``."""

    plr: np.ndarray
    handover_records: list = field(default_factory=list)
    packets_offered: int = 0
    packets_lost: int = 0


# Lines per write of a report CSV, and SENSE rows per chunk that an
# ``EventLog`` builds: one join's speed, without the whole file's lines
# or rows held at once.
_REPORT_LINES = 256


class _SenseDetails(dict):
    """SENSE details by (monitored, occupied) count, each formatted once."""

    def __missing__(self, key):
        detail = self[key] = f"channels={key[0]} occupied={key[1]}"
        return detail


class EventLog:
    """A run's event rows ``(t_ms, cenb_id, event, detail)``, in time order.

    The SENSE rows, one per (frame, CeNB), are kept as two (frames,
    CeNBs) grids of channel counts, ``monitored`` and ``occupied``; frame
    ``f`` senses at ``f * FRAME_MS + sense_offset_ms``.  ``rows`` holds the
    other rows, sorted by time.  Iterating yields them all in time order,
    the SENSE rows built a chunk of frames at a time: at an equal time
    the other rows come first (a SENSE row ties only a ``RETUNE_END``,
    logged at an earlier boundary), and a frame's SENSE rows come in
    CeNB order.  The log can be iterated any number of times.
    """

    def __init__(self, ids, sense_offset_ms, monitored, occupied, rows):
        self.ids = ids
        self.sense_offset_ms = sense_offset_ms
        self.monitored = monitored
        self.occupied = occupied
        self.rows = rows

    def __iter__(self):
        return chain.from_iterable(self._runs())

    def _runs(self):
        """Runs of consecutive rows, each an iterable of rows."""
        n = len(self.ids)
        details = _SenseDetails()
        times = [row[0] for row in self.rows]
        step = max(1, _REPORT_LINES // n)
        j = 0       # the first other row not yet yielded
        for a in range(0, len(self.occupied), step):
            t = (np.arange(a, min(a + step, len(self.occupied))) * FRAME_MS
                 + self.sense_offset_ms).tolist()
            sense = zip(np.repeat(t, n).tolist(), self.ids * len(t), repeat("SENSE"),
                        map(details.__getitem__,
                            zip(self.monitored[a:a + step].ravel().tolist(),
                                self.occupied[a:a + step].ravel().tolist())))
            done = 0    # SENSE rows of this chunk yielded
            k = bisect.bisect_right(times, t[-1], j)
            for i in range(j, k):
                before = n * bisect.bisect_left(t, times[i])
                yield islice(sense, before - done)
                done = before
                yield self.rows[i:i + 1]
            yield sense
            j = k
        yield self.rows[j:]


def _initial_regions(setup, cfg):
    if cfg.geodb is None:
        return {ch: Region.WHITE for ch in range(cfg.grid.n_channels)}
    return dict(query_vacant_channels(cfg.geodb, setup.location, setup.tx_power_dbm,
                                      cfg.prop, cfg.grid))


# Elements of one frame-loop array.  A radio pass forms the window powers
# of at most this many window bins (frames x CeNBs x bins per CeNB), 16 kB
# of doubles, and a block of the frame loop is the most whole passes whose
# verdicts fill at most this many channels (frames x CeNBs x channels).
# One CeNB on the default grid senses 18 frames per pass and 54 per block,
# so its quiet stretches run long; sixteen sense one frame per pass and
# three per block.
_BLOCK_BINS = 2048


class _BlockRadio:
    """The frame loop's radio work for a block of consecutive frames.

    Transmitter activity, mean window powers, detector noise and each
    CeNB's own verdicts depend only on the scenario, the seed and the
    frame number, never on a CeNB's decisions, so ``sense`` forms them
    for every frame of a block at once, its window powers in passes of
    ``frames_per_pass`` frames.  The noise is one Gamma call per pass from
    the run's one sensing stream; numpy fills it in the order of one call
    per frame, so the values depend on neither the pass nor the block
    length.  On fixed link gains a block's mean powers depend only on the
    schedule segment of each sensing instant, so ``sense`` forms the rows
    of the block's distinct segments in one ``mean_mw`` call and each pass
    gathers its frames' rows from them: a block holds a few rows, not one
    per frame.  With shadowing, the mean powers take their ``path_loss``
    draws one frame at a time, in frame order, from the stream seeded
    with the scenario seed alone.
    """

    def __init__(self, cfg, op_det, points, offsets_ms):
        self.windows = cfg.windows
        self.links = LinkArrays(points, cfg.transmitters, cfg.prop, cfg.grid, cfg.windows,
                                cfg.rbw_khz, op_det.noise_figure_db,
                                np.random.default_rng(cfg.seed))
        self.schedules = ScheduleTable(cfg.transmitters)
        self.tx_channel = np.array([tx.channel_index for tx in cfg.transmitters],
                                   dtype=np.intp)
        self.offsets_ms = np.asarray(offsets_ms, dtype=float)
        self.op_det = op_det
        self.threshold_mw = op_det.threshold_mw()
        self.n_snapshots = op_det.n_snapshots()
        self.rng = np.random.default_rng([cfg.seed, 0x5E45E])
        self.n_points = len(points)
        self.n_channels = cfg.grid.n_channels
        self.frames_per_pass = max(1, _BLOCK_BINS // (self.n_points * self.windows.size))
        # Whole passes, so that no pass is cut short inside a block.
        passes = max(1, _BLOCK_BINS // (self.n_points * self.n_channels * self.frames_per_pass))
        self.frames_per_block = passes * self.frames_per_pass

    def sense(self, first, count):
        """Frames ``first`` to ``first + count - 1``: (t_ms, verdicts, on_air).

        ``t_ms`` holds each frame's instants, shape (frames, offsets): the
        frame start plus each offset, in the frame loop's own arithmetic.
        At the first offset, the sensing instant, ``verdicts`` holds every
        (frames, CeNBs, channels) occupied flag of the CeNBs' own
        detectors, decided on the window sums in mW (``channel_verdicts``).
        At each later offset, a downlink subframe: ``on_air`` flags,
        shape (frames, subframes, transmitters), the active transmitters.
        """
        t_ms = (np.arange(first, first + count) * FRAME_MS)[:, None] + self.offsets_ms
        on_air = self.schedules.active(t_ms[:, 1:]).reshape(count, self.offsets_ms.size - 1,
                                                             self.tx_channel.size)
        segment = self.schedules.segment(t_ms[:, 0])
        fixed = self.links.fixed_gains is not None
        if fixed:
            # The block's distinct schedule segments, formed once; each
            # pass gathers its frames' rows.  The instants ascend, so
            # their segments do too, and each distinct one starts a run.
            starts = np.empty(count, dtype=bool)
            starts[0] = True
            np.not_equal(segment[1:], segment[:-1], out=starts[1:])
            row = np.cumsum(starts) - 1
            table = self.links.mean_mw(self.schedules.segments[segment[starts]])
        verdicts = np.empty((count, self.n_points, self.n_channels), dtype=bool)
        for lo in range(0, count, self.frames_per_pass):
            hi = min(lo + self.frames_per_pass, count)
            window_mw = (table[row[lo:hi]] if fixed
                         else self.links.mean_mw(self.schedules.segments[segment[lo:hi]]))
            window_mw = window_mw.reshape(hi - lo, self.n_points, *self.windows.shape)
            window_mw *= self.rng.gamma(self.n_snapshots, 1.0 / self.n_snapshots,
                                        size=window_mw.shape)
            verdicts[lo:hi] = sensing_mod.channel_verdicts(self.op_det, window_mw.sum(axis=-1),
                                                           self.threshold_mw)
        return t_ms, verdicts, on_air


class _HeldBlocks:
    """The CeNBs' held blocks as arrays, fixed from one handover to the next.

    Until a handover executes, no CeNB changes its block, the channels it
    monitors or its retune window.  ``monitored`` lists each CeNB's
    monitored channels (all of them under the wide scan, else its block),
    ``reporting`` masks them and ``held`` masks the blocks;
    ``tx_on_held`` flags each (transmitter, CeNB) pair whose transmitter
    is on a channel of that CeNB's block.
    """

    def __init__(self, states, cfg, tx_channel):
        blocks = [state.active_block or () for state in states]
        self.held = np.zeros((len(states), cfg.grid.n_channels), dtype=bool)
        for idx, block in enumerate(blocks):
            self.held[idx, list(block)] = True
        wide = cfg.schedule.wide_scan
        self.monitored = [range(cfg.grid.n_channels) if wide else block for block in blocks]
        self.n_monitored = [len(channels) for channels in self.monitored]
        self.reporting = np.ones_like(self.held) if wide else self.held
        # Only a held block none of whose channels is Black can be clear.
        black = Region.BLACK
        self.may_clear = np.array([bool(block) and not any(
            state.region_cache.get(ch) is black for ch in block)
            for state, block in zip(states, blocks)], dtype=bool)
        self.blockless = np.array([not block for block in blocks])
        self.tx_on_held = self.held[:, tx_channel].T
        self.retune_until_ms = np.array([state.retune_until_ms for state in states])
        self.asm_detail = ";".join(f"{state.id}:{','.join(str(c) for c in block)}"
                                   for state, block in zip(states, blocks))


class _Rounds:
    """A block's sensing rounds and downlink frames from frame ``start`` on,
    with the blocks of ``held`` held.

    ``t_ms``, ``verdicts`` and ``on_air`` are ``_BlockRadio.sense``'s from
    ``start`` on.  Per (frame, CeNB): ``counts`` of the monitored channels
    the CeNB's own verdicts find occupied (its SENSE row), ``hits``, the
    monitored channels it decides on as occupied (fused over X2 under
    ``fusion_rule``, if one is given), and ``clear``, whether they leave
    its held block clear (``cenb.block_clear``).  Per frame: ``blocked``,
    the downlink (subframe, CeNB) slots that a TV on the held block, the
    retune window or holding no block blocks, and ``busy``, the frames
    whose round leaves some CeNB's block unclear.
    """

    def __init__(self, held, start, t_ms, verdicts, on_air, fusion_rule):
        self.held = held
        self.start = start
        self.t_sense = t_ms[:, 0]
        own = verdicts & held.reporting
        self.counts = own.sum(axis=2)
        self.hits = own
        if fusion_rule is not None:
            # The X2 exchange is all-to-all, so every CeNB that sensed a
            # channel fuses the same verdicts.
            fused = cenb_mod.fuse_cooperative(verdicts, held.reporting, fusion_rule)
            self.hits = fused[:, None, :] & held.reporting
        self.clear = held.may_clear & ~(self.hits & held.held).any(axis=2)
        self.blocked = (np.matmul(on_air, held.tx_on_held)
                        | (t_ms[:, 1:, None] < held.retune_until_ms)
                        | held.blockless).sum(axis=(1, 2))
        self.quiet = self.clear.all(axis=1).tolist()
        self.busy = [start + i for i, quiet in enumerate(self.quiet) if not quiet]

    def next_boundary(self, frame):
        """The first boundary after ``frame`` that follows a busy round, else the block's end."""
        k = bisect.bisect_left(self.busy, frame)
        return self.busy[k] + 1 if k < len(self.busy) else self.start + self.t_sense.size


def run_simulation(cfg):
    """Drive the full scenario; returns (MetricsSeries, EventLog).

    The log holds the SENSE rows as its count grids and the other rows
    as a short list, and builds the rows in time order when iterated.
    """
    n_frames = int(cfg.duration_ms // FRAME_MS)
    op_det = replace(cfg.detector,
                     target_pfa=cfg.operational_pfa,
                     sense_duration_ms=cfg.schedule.sensing_time_ms)
    op_det = replace(op_det, threshold_dbm=analytic_threshold_dbm(op_det))
    sense_offset = (3.0 if cfg.schedule.wide_scan
                    else 1.0 + cfg.schedule.dwpts_ms + cfg.schedule.gp_ms)
    dl_subframes = cfg.schedule.downlink_subframes()
    # Radio inputs, built once: window bins, link arrays, schedule intervals.
    radio = _BlockRadio(cfg, op_det, [setup.location for setup in cfg.cenbs],
                        [sense_offset, *dl_subframes])

    states = [CenbState(id=setup.id, location=setup.location,
                        dedicated_band=setup.dedicated_band,
                        region_cache=_initial_regions(setup, cfg))
              for setup in cfg.cenbs]

    # Initial block assignment: an explicit block (its shape checked at
    # load time) must avoid the black region; the rest come from one ASM
    # pass over the non-black channels.
    auto = []
    for setup, state in zip(cfg.cenbs, states):
        block = setup.initial_block
        if block is None:
            auto.append(state)
            continue
        for ch in block:
            if state.region_cache[ch] is Region.BLACK:
                raise StartupError(f"{state.id}: initial block channel {ch} "
                                   "is in the black region")
        state.active_block = block
        state.bandwidth_mhz = select_bandwidth(len(block))
    if auto:
        black = Region.BLACK
        availability = {s.id: [ch for ch, r in s.region_cache.items() if r is not black]
                        for s in auto}
        assignment = asm_allocate(auto, availability, cfg.asm_reuse_distance_m, cfg.grid)
        for state in auto:
            block = assignment.blocks.get(state.id, ())
            state.active_block = block or None
            state.bandwidth_mhz = select_bandwidth(len(block))

    events = []         # the rows other than SENSE
    # The SENSE rows: each (frame, CeNB)'s monitored and occupied channel counts.
    monitored = np.empty((n_frames, len(states)), dtype=np.min_scalar_type(cfg.grid.n_channels))
    occupied = np.empty_like(monitored)
    metrics = MetricsSeries(plr=np.zeros(n_frames))
    fusion_rule = cfg.fusion_rule if cfg.fusion_rule != "OFF" and len(states) > 1 else None
    loss_rng = (np.random.default_rng([cfg.seed, 0x10F])
                if cfg.random_loss_floor > 0 else None)
    packets = cfg.packets_per_dl_subframe
    dl_slots = len(dl_subframes) * len(states)     # (DL subframe, CeNB) pairs per frame
    offered = packets * dl_slots
    epoch = cfg.asm_epoch_frames

    def write_view(rounds, last, idx, state):
        """Write CeNB ``idx``'s round at row ``last`` of ``rounds`` into its sensing view."""
        state.record_view(rounds.held.monitored[idx],
                          np.flatnonzero(rounds.hits[last, idx]).tolist(),
                          float(rounds.t_sense[last]))

    def settle(rounds, stop):
        """Log the SENSE rows and count the downlink of ``rounds``' frames before ``stop``.

        The random losses of their unblocked slots are one binomial call,
        whose values are those of one scalar call per slot, split per
        frame by cumulative sums.
        """
        n = stop - rounds.start
        monitored[rounds.start:stop] = rounds.held.n_monitored
        occupied[rounds.start:stop] = rounds.counts[:n]
        blocked = rounds.blocked[:n]
        lost = packets * blocked
        if loss_rng is not None:
            free = dl_slots - blocked
            drawn = np.zeros(int(free.sum()) + 1, dtype=np.int64)
            np.cumsum(loss_rng.binomial(packets, cfg.random_loss_floor, size=drawn.size - 1),
                      out=drawn[1:])
            ends = np.cumsum(free)
            lost += drawn[ends] - drawn[ends - free]
        metrics.plr[rounds.start:stop] = lost / offered if offered else 0.0
        metrics.packets_offered += offered * n
        metrics.packets_lost += int(lost.sum())

    held = _HeldBlocks(states, cfg, radio.tx_channel)
    rounds = None       # the rounds that hold the round before the next boundary
    decided = False     # a decision at the last boundary activates at this one
    for first in range(0, n_frames, radio.frames_per_block):
        end = first + min(radio.frames_per_block, n_frames - first)
        t_ms, verdicts, on_air = radio.sense(first, end - first)
        frame = first
        while frame < end:
            # The boundary of ``frame``, in Python: the epoch log, the
            # handovers that activate here, then the decisions on the last
            # round.  A CeNB whose held block that round left clear would
            # decide nothing, so it skips the view write too: its next
            # round covers the same channels and overwrites the view before
            # the next spectrum_decision or execute_handover reads it.
            t0 = float(frame * FRAME_MS)
            if frame > 0 and frame % epoch == 0:
                events.append((t0, "asm", "ASM_EPOCH", held.asm_detail))
            handed_over = []    # ids of the CeNBs that execute a handover here
            last = None if rounds is None else frame - 1 - rounds.start    # its row there
            if decided:
                # Every decision activates at the next boundary, this one.
                for idx, state in enumerate(states):
                    msg = state.pending_handover
                    if msg is not None:
                        handed_over.append(state.id)
                        # The abort test reads the round sensed since the decision.
                        write_view(rounds, last, idx, state)
                        state, ev = execute_handover(state, msg, t0, cfg.retune_ms)
                        metrics.handover_records.append(ev)
                        if ev.aborted:
                            events.append((t0, state.id, "RETUNE_ABORT", "target occupied"))
                        else:
                            events.append((t0, state.id, "RETUNE_START",
                                           f"to={','.join(str(c) for c in ev.to_block)}"))
                            events.append((ev.t_restored_ms, state.id, "RETUNE_END",
                                           f"bw={state.bandwidth_mhz}"))
            decided = False
            if last is not None and (handed_over or not rounds.quiet[last]):
                clear = rounds.clear[last].tolist()
                for idx, state in enumerate(states):
                    if state.id not in handed_over:
                        if clear[idx]:
                            continue
                        write_view(rounds, last, idx, state)
                    msg = spectrum_decision(state, cfg.grid, frame_no=frame)
                    if msg is not None:
                        decided = True
                        events.append((t0, state.id, "DECIDE",
                                       f"target={','.join(str(c) for c in msg.target_block)}"
                                       f" bw={msg.bandwidth_mhz}"))
                        events.append((t0 + 1.0, state.id, "BROADCAST",
                                       f"pcogch activation_frame={msg.activation_frame}"))

            # The rounds from here to the block's end, under the blocks now
            # held: a handover ends them.
            if frame == first or handed_over:
                if frame > first:
                    settle(rounds, frame)
                if handed_over:
                    held = _HeldBlocks(states, cfg, radio.tx_channel)
                i = frame - first
                rounds = _Rounds(held, frame, t_ms[i:], verdicts[i:], on_air[i:], fusion_rule)
            # Up to the next boundary that may change a state, the frames
            # are a quiet stretch, whose boundaries only log their epochs.
            stop = frame + 1 if decided else rounds.next_boundary(frame)
            events.extend((float(f * FRAME_MS), "asm", "ASM_EPOCH", held.asm_detail)
                          for f in range((frame // epoch + 1) * epoch, stop, epoch))
            frame = stop
        settle(rounds, end)

    events.sort(key=lambda row: row[0])
    return metrics, EventLog([state.id for state in states], sense_offset,
                             monitored, occupied, events)


def handover_summary(metrics):
    """Completed handovers and their mean and max latency (blank if none), one per line."""
    lats = [r.latency_ms for r in metrics.handover_records if not r.aborted]
    if not lats:
        return "handovers: 0\nmean_latency_ms:\nmax_latency_ms:"
    return (f"handovers: {len(lats)}\n"
            f"mean_latency_ms: {np.mean(lats):.10g}\n"
            f"max_latency_ms: {np.max(lats):.10g}")


def emit_report(metrics, out_dir, events=()):
    """Write plr.csv, events.csv and handover_summary.txt.

    ``events`` is ``run_simulation``'s ``EventLog`` or any iterable of
    event rows in the order to write.  Each CSV is written
    ``_REPORT_LINES`` lines at a time, joined from Python values
    (``tolist``), not one numpy scalar and one write per line; the event
    rows are taken ``_REPORT_LINES`` at a time from one iterator, so no
    more of them are held at once.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    plr_path = os.path.join(out_dir, "plr.csv")
    with open(plr_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("sample_index,t_ms,plr\n")
        for a in range(0, metrics.plr.size, _REPORT_LINES):
            b = min(a + _REPORT_LINES, metrics.plr.size)
            t_ms = np.arange(a, b, dtype=float) * FRAME_MS  # sample i is frame i's start
            fh.write("".join([f"{i},{t:.10g},{v:.10g}\n" for i, t, v in zip(
                count(a), t_ms.tolist(), metrics.plr[a:b].tolist())]))
    written.append(plr_path)

    ev_path = os.path.join(out_dir, "events.csv")
    with open(ev_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t_ms,cenb_id,event,detail\n")
        rows = iter(events)
        while lines := "".join([f"{t:.10g},{who},{kind},{detail}\n"
                                for t, who, kind, detail in islice(rows, _REPORT_LINES)]):
            fh.write(lines)
    written.append(ev_path)

    summary_path = os.path.join(out_dir, "handover_summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(handover_summary(metrics) + "\n")
    written.append(summary_path)
    return written


def run_interference_study(study):
    """Run the coexistence sweep and pick the guard band."""
    curve = interf_mod.acir_sweep(study.topology, study.acir_list,
                                  study.snapshots, study.seed, study.coex)
    result = interf_mod.determine_guard_band(
        curve, interf_mod.DEFAULT_GUARD_BAND_MAP, study.loss_budget)
    return curve, result
