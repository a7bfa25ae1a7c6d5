"""Scenario configuration, the deterministic event loop, metrics, reports.

A scenario is an INI-style text file of ``section.key = value`` lines
(UTF-8, ``#`` comments); a bad value, a non-finite number included, is
a ``ConfigError`` at load time.
``parse_range`` (``lo:hi:step``) and ``parse_exclusions`` (``lo-hi;...``
in MHz) also parse the command line's sweep and exclusion options.  Each
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
arrays built once per run: ``sensing_links`` gives a ``LinkArrays`` of
every (CeNB, transmitter) distance and every transmitter's unit-power
template at the window bins, and a ``ScheduleTable`` holds the schedules
as activity segments.  The radio work does not depend on any CeNB's
decisions, so the loop does it for a block of consecutive frames at once
(several frames when there are few CeNBs, one when there are many): one
activity query for every sensing instant and downlink subframe of the
block, the mean window powers of every frame and CeNB (shadowing drawn
one frame at a time, in frame order), one unit-mean Gamma draw of the
detector noise at all their window bins from the run's one sensing
stream, one k-of-n pass over the window sums in mW against the
threshold's mW boundary (``sensing.threshold_mw``), and the block's
table of channels on air at each downlink subframe.  numpy fills a draw
for many frames in the order of one draw per frame, so no output depends
on the block length.  When several CeNBs sense, each CeNB-frame's X2
reports, verdicts without statistics, are built in one pass over its
row of the block's verdicts and collected per channel, and each
channel's reports then go through one ``fuse_cooperative`` call,
the one implementation of the OR and MAJORITY rules.  At the next frame
boundary each CeNB's verdicts go into its sensing view in one
``CenbState.record_view`` call, and ``spectrum_decision`` reads that
view and the start-up database view.  A CeNB that holds a block, has no
pending decision and executed no handover at that boundary skips both
when the round leaves its block clear (``cenb.block_clear``, the test
``spectrum_decision`` returns on): the decision would be None, and its
next round covers the same channels, so it overwrites the view before
the next decision or handover reads it.  Decisions and view writes thus
cost per event, not per CeNB-frame.

Downlink subframes deliver a fixed packet budget unless the block is
co-channel with an active TV transmitter, the radio is retuning, or no
block is held; the packet-loss ratio is sampled once per frame.  For
each block of frames and each block of channels held, one ``any``/``sum``
over the on-air table gives the downlink subframes a TV blocks in each
frame, so a CeNB-frame adds one count; only a CeNB-frame that is
retuning goes subframe by subframe.  A frame's random losses are one
binomial call over its unblocked subframes, which draws the values of
one scalar call per subframe and leaves the stream in the same state.

Everything is a pure function of (config bytes, seed): random streams
derive from the scenario seed and fixed integer tags (shadowing from a
fresh stream per run), so equal inputs give byte-identical outputs.
"""

import math
import os
from dataclasses import dataclass, field, replace

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
    block_clear,
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
    FrequencyBand,
    LinkArrays,
    PropagationConfig,
    ScheduleTable,
    build_channel_grid,
    finite_float,
    received_spectrum,  # noqa: F401  (the benchmark tracer patches harness.received_spectrum)
    transmitters_from_csv,
)
from .sensing import Decision, SensingReport, analytic_threshold_dbm


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


def _cenb_id(text):
    """A CeNB id: non-empty, and free of the separators of the event details."""
    if not text:
        raise ValueError("expected a non-empty id")
    if any(sep in text for sep in ",;:"):
        raise ValueError(f"id {text!r} contains one of ',', ';' or ':'")
    return text


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


def _checked_float(accept, expected):
    """Finite-float parser that also rejects a value failing ``accept``."""
    def parse(text):
        value = finite_float(text)
        if not accept(value):
            raise ValueError(f"expected {expected}, got {value:g}")
        return value
    return parse


_positive = _checked_float(lambda v: v > 0.0, "a positive number")
_non_negative = _checked_float(lambda v: v >= 0.0, "a non-negative number")
_fraction = _checked_float(lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")
_probability = _checked_float(lambda v: 0.0 < v <= 1.0, "a value in (0, 1]")
_open_fraction = _checked_float(lambda v: 0.0 < v < 1.0, "a value in (0, 1)")


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


@dataclass
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
    isd = reader.take("interference.isd_m", _positive, 150.0)
    radius = reader.take("interference.tv_radius_m", _positive, 350.0)
    off_x = reader.take("interference.offset_x_m", finite_float, 10.0)
    off_y = reader.take("interference.offset_y_m", finite_float, 0.0)
    topo = interf_mod.build_topology(isd, radius, (off_x, off_y))
    coex = interf_mod.CoexistenceConfig(
        cenb_power_dbm=reader.take("interference.cenb_power_dbm", finite_float, 20.0),
        ue_power_dbm=reader.take("interference.ue_power_dbm", finite_float, 0.0),
        tv_eirp_dbm=reader.take("interference.tv_eirp_dbm", finite_float, 59.0),
        tv_protection_snr_db=reader.take("interference.tv_protection_snr_db", finite_float, 23.0),
        tv_noise_figure_db=reader.take("interference.tv_noise_figure_db", finite_float, 7.0),
        ue_noise_figure_db=reader.take("interference.ue_noise_figure_db", finite_float, 9.0),
        cenb_noise_figure_db=reader.take("interference.cenb_noise_figure_db", finite_float, 3.0),
        n_tv_receivers=reader.take("interference.tv_receivers", positive_int, 10),
        ues_per_sector=reader.take("interference.ues_per_sector", positive_int, 10),
        min_coupling_m=reader.take("interference.min_coupling_m", _positive, 10.0),
        exponent=reader.take("interference.exponent", _positive, 3.5),
        freq_mhz=reader.take("interference.freq_mhz", _positive, 700.0),
    )
    return InterferenceStudy(
        topology=topo, coex=coex,
        acir_list=reader.take("interference.acir_db", parse_range, parse_range("0:100:5")),
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
    except AlignmentError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

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

    ref_loss = reader.take("prop.ref_loss_db", finite_float, None)
    try:
        prop = PropagationConfig(
            exponent=reader.take("prop.exponent", finite_float, 3.5),
            ref_distance_m=reader.take("prop.ref_distance_m", _positive, 1.0),
            ref_loss_db=ref_loss,
            shadowing_sigma_db=reader.take("prop.shadowing_sigma_db", finite_float, 0.0),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: bad propagation model: {exc}") from exc

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
            location=(reader.take(f"{prefix}.x_m", finite_float, 0.0),
                      reader.take(f"{prefix}.y_m", finite_float, 0.0)),
            tx_power_dbm=reader.take(f"{prefix}.power_dbm", finite_float, 20.0),
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
    if db is not None and any(db.co_channel_arrays(ch) is not None
                              for ch in range(grid.n_channels)):
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
    sample_t_ms: np.ndarray
    handover_records: list = field(default_factory=list)
    packets_offered: int = 0
    packets_lost: int = 0


def _initial_regions(setup, cfg):
    if cfg.geodb is None:
        return {ch: Region.WHITE for ch in range(cfg.grid.n_channels)}
    return dict(query_vacant_channels(cfg.geodb, setup.location, setup.tx_power_dbm,
                                      cfg.prop, cfg.grid))


def sensing_links(cfg, det, points):
    """The frame loop's carrier windows and its ``LinkArrays`` at those bins.

    ``windows`` are ``cfg.windows``, the (channels, carriers, width) bin
    indices of the detector's carrier windows on the scenario grid,
    found once at load (``det`` shares the layout; it gives the noise
    figure).  The links hold every transmitter's distance to each of
    ``points`` and its unit-power template at the window bins, with
    shadowing drawn from a fresh stream seeded like ``cfg.prop`` (so
    ``cfg`` is not advanced).
    """
    links = LinkArrays(points, cfg.transmitters, replace(cfg.prop, _rng=None), cfg.grid,
                       cfg.windows, cfg.rbw_khz, det.noise_figure_db)
    return cfg.windows, links


# Window bins (frames x CeNBs x bins per CeNB) that one pass of the frame
# loop's radio work covers.  A scenario with few CeNBs then senses
# several frames per numpy call (9 for one CeNB on the default grid),
# and the block's arrays stay a few kB; one with many CeNBs gets one
# frame per block.
_BLOCK_BINS = 1024

# A report's decision, indexed by its occupied flag.
_DECISION = (Decision.VACANT, Decision.OCCUPIED)


class _BlockRadio:
    """The frame loop's radio work for a block of consecutive frames.

    Transmitter activity, mean window powers, detector noise and each
    CeNB's own verdicts depend only on the scenario, the seed and the
    frame number, never on a CeNB's decisions, so ``sense`` forms them
    for every frame of a block in one pass.  The noise is one Gamma
    call per block from the run's one sensing stream; numpy fills it in
    the order of one call per frame, so the values do not depend on the
    block length.  With shadowing, the mean powers take their
    ``path_loss`` draws one frame at a time, in frame order.
    """

    def __init__(self, cfg, op_det, points, offsets_ms):
        self.windows, self.links = sensing_links(cfg, op_det, points)
        self.schedules = ScheduleTable(cfg.transmitters)
        self.tx_channel = np.array([tx.channel_index for tx in cfg.transmitters],
                                   dtype=np.intp)
        self.offsets_ms = np.asarray(offsets_ms, dtype=float)
        self.op_det = op_det
        self.n_snapshots = op_det.n_snapshots()
        self.rng = np.random.default_rng([cfg.seed, 0x5E45E])
        self.n_points = len(points)
        self.n_channels = cfg.grid.n_channels
        self.frames_per_block = max(1, _BLOCK_BINS // (self.n_points * self.windows.size))

    def sense(self, first, count):
        """Frames ``first`` to ``first + count - 1``: (occupied, sums, verdicts, on_air).

        At the first offset, the sensing instant: ``occupied[frame][cenb]``
        lists, in ascending order, the channels that CeNB's own verdict
        found occupied, ``sums`` holds every (frames, CeNBs, channels,
        carriers) window sum in mW and ``verdicts`` every (frames, CeNBs,
        channels) occupied flag, decided in mW (``channel_verdicts``).
        At each later offset, a downlink subframe: ``on_air`` flags,
        shape (frames, subframes, channels), the channels with an active
        transmitter.
        """
        t_ms = (np.arange(first, first + count) * FRAME_MS)[:, None] + self.offsets_ms
        active = self.schedules.active(t_ms.ravel()).reshape(count, self.offsets_ms.size, -1)
        window_mw = self.links.mean_mw(active[:, 0]).reshape(count, self.n_points,
                                                             *self.windows.shape)
        window_mw *= self.rng.gamma(self.n_snapshots, 1.0 / self.n_snapshots,
                                    size=window_mw.shape)
        sums = window_mw.sum(axis=-1)
        verdicts = sensing_mod.channel_verdicts(self.op_det, sums)
        occupied = [[[] for _ in range(self.n_points)] for _ in range(count)]
        frames, points, channels = np.nonzero(verdicts)
        for f, point, ch in zip(frames.tolist(), points.tolist(), channels.tolist()):
            occupied[f][point].append(ch)
        on_air = np.zeros((count, self.offsets_ms.size - 1, self.n_channels), dtype=bool)
        frame, subframe, tx = np.nonzero(active[:, 1:])
        on_air[frame, subframe, self.tx_channel[tx]] = True
        return occupied, sums, verdicts, on_air


def run_simulation(cfg):
    """Drive the full scenario; returns (MetricsSeries, event rows)."""
    n_frames = int(cfg.duration_ms // FRAME_MS)
    op_det = replace(cfg.detector,
                     target_pfa=cfg.operational_pfa,
                     sense_duration_ms=cfg.schedule.sensing_time_ms,
                     threshold_dbm=None)
    op_det.threshold_dbm = analytic_threshold_dbm(op_det)
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
        availability = {s.id: [ch for ch, r in s.region_cache.items()
                               if r is not Region.BLACK] for s in auto}
        assignment = asm_allocate(auto, availability, cfg.asm_reuse_distance_m,
                                  cfg.grid, epoch=0)
        for state in auto:
            block = assignment.blocks.get(state.id, ())
            state.active_block = block or None
            state.bandwidth_mhz = select_bandwidth(len(block))

    events = []
    metrics = MetricsSeries(plr=np.zeros(n_frames),
                            sample_t_ms=np.arange(n_frames, dtype=float) * FRAME_MS)
    all_channels = range(cfg.grid.n_channels)
    fuse = cfg.fusion_rule != "OFF" and len(states) > 1
    sensed = []         # (state, monitored channels, occupied ones) from the last frame
    t_sense = None
    loss_rng = (np.random.default_rng([cfg.seed, 0x10F])
                if cfg.random_loss_floor > 0 else None)
    dl_slots = len(dl_subframes) * len(states)     # (DL subframe, CeNB) pairs per frame

    for first in range(0, n_frames, radio.frames_per_block):
        count = min(radio.frames_per_block, n_frames - first)
        block_occupied, _, block_verdicts, block_on_air = radio.sense(first, count)
        tv_on_held = {}     # active block -> its (frames, subframes) TV flags and counts
        for i, frame in enumerate(range(first, first + count)):
            t0 = float(frame * FRAME_MS)

            if frame > 0 and frame % cfg.asm_epoch_frames == 0:
                detail = ";".join(
                    f"{s.id}:{','.join(str(c) for c in (s.active_block or ()))}"
                    for s in states)
                events.append((t0, "asm", "ASM_EPOCH", detail))

            handed_over = []    # ids of the CeNBs that execute a handover at this boundary
            for state in states:
                msg = state.pending_handover
                if msg is not None and msg.activation_frame == frame:
                    handed_over.append(state.id)
                    state, ev = execute_handover(state, msg, t0, cfg.retune_ms)
                    metrics.handover_records.append(ev)
                    if ev.aborted:
                        events.append((t0, state.id, "RETUNE_ABORT", "target occupied"))
                    else:
                        events.append((t0, state.id, "RETUNE_START",
                                       f"to={','.join(str(c) for c in ev.to_block)}"))
                        events.append((ev.t_restored_ms, state.id, "RETUNE_END",
                                       f"bw={state.bandwidth_mhz}"))

            # The decision at this boundary acts on the verdicts sensed last
            # frame.  A CeNB whose held block the round leaves clear would
            # decide nothing, so it skips the view write too: its next round
            # covers the same channels and overwrites the view before the
            # next spectrum_decision or execute_handover reads it.
            for state, monitored, hits in sensed:
                if (state.pending_handover is None and state.id not in handed_over
                        and block_clear(state, hits)):
                    continue
                state.record_view(monitored, hits, t_sense)
                msg = spectrum_decision(state, cfg.grid, frame_no=frame)
                if msg is not None:
                    events.append((t0, state.id, "DECIDE",
                                   f"target={','.join(str(c) for c in msg.target_block)}"
                                   f" bw={msg.bandwidth_mhz}"))
                    events.append((t0 + 1.0, state.id, "BROADCAST",
                                   f"pcogch activation_frame={msg.activation_frame}"))

            t_sense = t0 + sense_offset
            sensed = []
            x2 = [[] for _ in all_channels] if fuse else None   # per channel, its X2 reports
            for idx, state in enumerate(states):
                monitored = all_channels if cfg.schedule.wide_scan else state.active_block or ()
                hits = [ch for ch in block_occupied[i][idx] if ch in monitored]
                sensed.append((state, monitored, hits))
                events.append((t_sense, state.id, "SENSE",
                               f"channels={len(monitored)} occupied={len(hits)}"))
                if fuse:
                    # The CeNB's verdicts in one pass over its row of the block;
                    # an X2 message carries no statistics.
                    verdict_row = block_verdicts[i, idx].tolist()
                    for ch in monitored:
                        x2[ch].append(SensingReport(state.id, ch, _DECISION[verdict_row[ch]],
                                                    (), t_sense))

            if fuse:
                # X2 exchange is all-to-all, so every CeNB that sensed a channel
                # fuses the same reports: fuse each channel once and give its
                # verdict to each of them.  The call stays per channel because
                # fuse_cooperative is the one implementation of the OR and
                # MAJORITY rules.
                fused = {ch for ch, reports in enumerate(x2) if reports
                         and cenb_mod.fuse_cooperative(reports[0], reports[1:],
                                                       cfg.fusion_rule).decision
                         is Decision.OCCUPIED}
                sensed = [(state, monitored, [ch for ch in monitored if ch in fused])
                          for state, monitored, _ in sensed]

            # Downlink: a CeNB-frame loses the subframes a TV on its block
            # blocks (one count per frame and block), all of them without a
            # block, and while retuning, subframe by subframe.  The random
            # losses of the unblocked subframes are one binomial call, whose
            # values are those of one scalar call per subframe.
            blocked = 0
            for state in states:
                block = state.active_block
                if block is None:
                    blocked += len(dl_subframes)
                    continue
                if block not in tv_on_held:
                    tv_on = block_on_air[:, :, list(block)].any(axis=2)
                    tv_on_held[block] = (tv_on, tv_on.sum(axis=1).tolist())
                tv_on, tv_counts = tv_on_held[block]
                if state.retuning_at(t0):
                    blocked += sum(state.retuning_at(t0 + sf) or on
                                   for sf, on in zip(dl_subframes, tv_on[i].tolist()))
                else:
                    blocked += tv_counts[i]
            offered = cfg.packets_per_dl_subframe * dl_slots
            lost = cfg.packets_per_dl_subframe * blocked
            if loss_rng is not None:
                lost += int(loss_rng.binomial(cfg.packets_per_dl_subframe, cfg.random_loss_floor,
                                              size=dl_slots - blocked).sum())
            metrics.plr[frame] = lost / offered if offered else 0.0
            metrics.packets_offered += offered
            metrics.packets_lost += lost
        # Release this block's arrays before the next block's are formed.
        del block_occupied, block_verdicts, block_on_air, tv_on_held

    events.sort(key=lambda row: row[0])
    return metrics, events


def handover_summary(metrics):
    """Completed handovers and their mean and max latency (blank if none), one per line."""
    lats = [r.latency_ms for r in metrics.handover_records if not r.aborted]
    if not lats:
        return "handovers: 0\nmean_latency_ms:\nmax_latency_ms:"
    return (f"handovers: {len(lats)}\n"
            f"mean_latency_ms: {np.mean(lats):.10g}\n"
            f"max_latency_ms: {np.max(lats):.10g}")


def emit_report(metrics, out_dir, events=()):
    """Write plr.csv, events.csv and handover_summary.txt."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    plr_path = os.path.join(out_dir, "plr.csv")
    with open(plr_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("sample_index,t_ms,plr\n")
        for i, (t, v) in enumerate(zip(metrics.sample_t_ms, metrics.plr)):
            fh.write(f"{i},{t:.10g},{v:.10g}\n")
    written.append(plr_path)

    ev_path = os.path.join(out_dir, "events.csv")
    with open(ev_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t_ms,cenb_id,event,detail\n")
        for t, who, kind, detail in events:
            fh.write(f"{t:.10g},{who},{kind},{detail}\n")
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
