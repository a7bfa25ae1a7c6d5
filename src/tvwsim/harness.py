"""Scenario configuration, the deterministic event loop, metrics, reports.

A scenario is an INI-style text file of ``section.key = value`` lines
(UTF-8, ``#`` comments); a bad value is a ``ConfigError`` at load time.
``parse_range`` (``lo:hi:step``) and ``parse_exclusions`` (``lo-hi;...``
in MHz) also parse the command line's sweep and exclusion options.  Each
``cenb.FRAME_MS`` frame senses in the configured windows, fuses reports
over X2, decides at the following frame boundary, broadcasts on the
downlink pilot instant, and executes handovers at their activation
boundary.  Downlink subframes deliver a fixed packet budget unless the
block is co-channel with an active TV transmitter, the radio is
retuning, or no block is held; the packet-loss ratio is sampled once
per frame.

Everything is a pure function of (config bytes, seed): random streams
derive from the scenario seed and fixed integer tags, so equal inputs
give byte-identical outputs.
"""

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
    MsgKind,
    asm_allocate,
    build_frame_schedule,
    execute_handover,
    select_bandwidth,
    spectrum_decision,
)
from .errors import ConfigError, CoverageError, ParseError, StartupError
from .geodb import GeoDb, Region, query_vacant_channels
from .radio_env import (
    DEFAULT_RBW_KHZ,
    FrequencyBand,
    PropagationConfig,
    build_channel_grid,
    received_spectrum,
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


def _parse_block(text):
    if text.lower() == "auto":
        return None
    return tuple(int(p) for p in text.split(",") if p.strip())


def parse_range(text):
    """``lo:hi:step`` inclusive sweep specification."""
    lo, hi, step = (float(p) for p in text.split(":"))
    if step <= 0 or hi < lo:
        raise ValueError(f"bad range {text!r}: need step > 0 and hi >= lo")
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


def parse_exclusions(text):
    """``lo-hi;lo-hi`` excluded bands in MHz; empty text excludes nothing."""
    bands = []
    for part in text.split(";") if text else ():
        lo, hi = (float(x) for x in part.split("-"))
        bands.append(FrequencyBand(lo, hi))
    return tuple(bands)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _checked_float(accept, expected):
    """Float parser that rejects a value failing ``accept``."""
    def parse(text):
        value = float(text)
        if not accept(value):
            raise ValueError(f"expected {expected}, got {value:g}")
        return value
    return parse


_positive = _checked_float(lambda v: v > 0.0, "a positive number")
_non_negative = _checked_float(lambda v: v >= 0.0, "a non-negative number")
_fraction = _checked_float(lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")
_probability = _checked_float(lambda v: 0.0 < v <= 1.0, "a value in (0, 1]")


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
    """Parameters of the coexistence sweep (standalone or scenario-embedded)."""

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
    interference: InterferenceStudy | None = None


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


def _resolve(path, base_dir):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _load_interference(reader, prefix="interference"):
    isd = reader.take(f"{prefix}.isd_m", _positive, 150.0)
    radius = reader.take(f"{prefix}.tv_radius_m", float, 350.0)
    off_x = reader.take(f"{prefix}.offset_x_m", float, 10.0)
    off_y = reader.take(f"{prefix}.offset_y_m", float, 0.0)
    topo = interf_mod.build_topology(isd, radius, (off_x, off_y))
    coex = interf_mod.CoexistenceConfig(
        cenb_power_dbm=reader.take(f"{prefix}.cenb_power_dbm", float, 20.0),
        ue_power_dbm=reader.take(f"{prefix}.ue_power_dbm", float, 0.0),
        tv_eirp_dbm=reader.take(f"{prefix}.tv_eirp_dbm", float, 59.0),
        tv_protection_snr_db=reader.take(f"{prefix}.tv_protection_snr_db", float, 23.0),
        tv_noise_figure_db=reader.take(f"{prefix}.tv_noise_figure_db", float, 7.0),
        ue_noise_figure_db=reader.take(f"{prefix}.ue_noise_figure_db", float, 9.0),
        cenb_noise_figure_db=reader.take(f"{prefix}.cenb_noise_figure_db", float, 3.0),
        n_tv_receivers=reader.take(f"{prefix}.tv_receivers", positive_int, 10),
        ues_per_sector=reader.take(f"{prefix}.ues_per_sector", positive_int, 10),
        min_coupling_m=reader.take(f"{prefix}.min_coupling_m", float, 10.0),
        exponent=reader.take(f"{prefix}.exponent", float, 3.5),
        freq_mhz=reader.take(f"{prefix}.freq_mhz", float, 700.0),
    )
    return InterferenceStudy(
        topology=topo, coex=coex,
        acir_list=reader.take(f"{prefix}.acir_db", parse_range, parse_range("0:100:5")),
        snapshots=reader.take(f"{prefix}.snapshots", positive_int, 1000),
        seed=reader.take(f"{prefix}.seed", int, 1),
        loss_budget=reader.take(f"{prefix}.loss_budget", float, 0.05),
    )


def load_acir_study(path):
    """Standalone coexistence-study configuration file."""
    reader = _KeyReader(parse_ini(path), path)
    reader.take("interference.enabled", _parse_bool, True)
    study = _load_interference(reader)
    reader.reject_unknown()
    return study


def load_scenario(path):
    """Parse and fully validate a scenario file, filling documented defaults."""
    base_dir = os.path.dirname(os.path.abspath(path))
    reader = _KeyReader(parse_ini(path), path)

    seed = reader.take("sim.seed", int, required=True)
    duration = reader.take("sim.duration_ms", int, 2000)
    if duration <= 0 or duration % FRAME_MS != 0:
        raise ConfigError(f"{path}: duration_ms must be a positive multiple of "
                          f"{FRAME_MS:g} ms (got {duration})")

    low = reader.take("grid.low_mhz", float, 470.0)
    high = reader.take("grid.high_mhz", float, 806.0)
    width = reader.take("grid.channel_mhz", _positive, 8.0)
    excluded = reader.take("grid.exclusions", parse_exclusions, parse_exclusions("566-606"))
    grid = build_channel_grid(_band(path, "grid band", low, high), width, excluded)

    schedule = build_frame_schedule(
        config_id=reader.take("frame.pattern", str, "tdd-2"),
        special_split=(reader.take("frame.dwpts_ms", float, 0.2),
                       reader.take("frame.gp_ms", float, 0.7),
                       reader.take("frame.uppts_ms", float, 0.1)),
        wide_scan=reader.take("frame.wide_scan", _parse_bool, True),
    )

    ref_loss = reader.take("prop.ref_loss_db", float, None)
    try:
        prop = PropagationConfig(
            exponent=reader.take("prop.exponent", float, 3.5),
            ref_distance_m=reader.take("prop.ref_distance_m", _positive, 1.0),
            ref_loss_db=ref_loss,
            shadowing_sigma_db=reader.take("prop.shadowing_sigma_db", float, 0.0),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: bad propagation model: {exc}") from exc

    calib = reader.take("files.calibration", str, "default")
    if calib == "default":
        detector = sensing_mod.default_calibration()
    else:
        calib_path = _resolve(calib, base_dir)
        if not os.path.exists(calib_path):
            raise ConfigError(f"{path}: files.calibration not found: {calib_path}")
        detector = sensing_mod.load_calibration(calib_path)

    txs = []
    tx_file = reader.take("files.transmitters", str, None)
    if tx_file is not None:
        tx_path = _resolve(tx_file, base_dir)
        if not os.path.exists(tx_path):
            raise ConfigError(f"{path}: files.transmitters not found: {tx_path}")
        txs = transmitters_from_csv(tx_path)
        for tx in txs:
            if not grid.valid_index(tx.channel_index):
                raise ConfigError(f"{path}: transmitter {tx.id!r} channel "
                                  f"{tx.channel_index} outside the grid")

    db = None
    db_file = reader.take("files.geodb", str, None)
    if db_file is not None:
        db_path = _resolve(db_file, base_dir)
        if not os.path.exists(db_path):
            raise ConfigError(f"{path}: files.geodb not found: {db_path}")
        db = geodb_mod.load(db_path, prop)

    cenbs = []
    index = 1
    while any(k.startswith(f"cenb{index}.") for k in reader.data):
        prefix = f"cenb{index}"
        ded_lo = reader.take(f"{prefix}.dedicated_low_mhz", float, 698.0)
        ded_hi = reader.take(f"{prefix}.dedicated_high_mhz", float, 706.0)
        cenbs.append(CenbSetup(
            id=reader.take(f"{prefix}.id", str, prefix),
            location=(reader.take(f"{prefix}.x_m", float, 0.0),
                      reader.take(f"{prefix}.y_m", float, 0.0)),
            tx_power_dbm=reader.take(f"{prefix}.power_dbm", float, 20.0),
            dedicated_band=_band(path, f"{prefix} dedicated band", ded_lo, ded_hi),
            initial_block=reader.take(f"{prefix}.block", _parse_block, None),
        ))
        index += 1
    if not cenbs:
        cenbs = [CenbSetup(id="cenb1", location=(0.0, 0.0), tx_power_dbm=20.0,
                           dedicated_band=FrequencyBand(698.0, 706.0),
                           initial_block=None)]

    study = None
    if reader.take("interference.enabled", _parse_bool, False):
        study = _load_interference(reader)

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
        asm_reuse_distance_m=reader.take("sim.asm_reuse_distance_m", float, 1000.0),
        transmitters=txs,
        geodb=db,
        cenbs=cenbs,
        rbw_khz=reader.take("radio.rbw_khz", _positive, DEFAULT_RBW_KHZ),
        interference=study,
    )
    if cfg.fusion_rule not in ("OR", "MAJORITY", "OFF"):
        raise ConfigError(f"{path}: fusion_rule must be OR, MAJORITY, or OFF")
    reader.reject_unknown()
    return cfg


@dataclass(frozen=True)
class HandoverRecord:
    """Detection-to-restoration timing of one completed handover."""

    cenb_id: str
    t_detect_ms: float
    t_restore_ms: float
    latency_ms: float
    aborted: bool = False


@dataclass
class MetricsSeries:
    """Per-frame packet-loss samples, handover records and bandwidths."""

    plr: np.ndarray
    sample_t_ms: np.ndarray
    handover_records: list = field(default_factory=list)
    bandwidth_mhz: dict = field(default_factory=dict)
    packets_offered: int = 0
    packets_lost: int = 0


def _initial_regions(setup, cfg):
    if cfg.geodb is None:
        return {ch: Region.WHITE for ch in range(cfg.grid.n_channels)}
    return dict(query_vacant_channels(cfg.geodb, setup.location, setup.tx_power_dbm,
                                      cfg.prop, cfg.grid))


def run_simulation(cfg):
    """Drive the full scenario; returns (MetricsSeries, event rows)."""
    n_frames = int(cfg.duration_ms // FRAME_MS)
    op_det = replace(cfg.detector,
                     target_pfa=cfg.operational_pfa,
                     sense_duration_ms=cfg.schedule.sensing_time_ms,
                     threshold_dbm=None)
    op_det.threshold_dbm = analytic_threshold_dbm(op_det)
    rbw_mhz = cfg.rbw_khz / 1000.0
    n_bins = int(round(cfg.grid.band.width_mhz / rbw_mhz))
    try:
        windows = sensing_mod.carrier_windows(
            cfg.grid.band.low_mhz + (np.arange(n_bins) + 0.5) * rbw_mhz,
            cfg.grid.low_edges_mhz, op_det)
    except CoverageError as exc:
        raise ConfigError(f"carrier windows not representable on this grid: {exc}") from exc
    n_snapshots = op_det.n_snapshots()

    states = [CenbState(id=setup.id, location=setup.location,
                        dedicated_band=setup.dedicated_band,
                        region_cache=_initial_regions(setup, cfg))
              for setup in cfg.cenbs]

    # Initial block assignment: explicit blocks are validated, the rest
    # come from one ASM pass over the non-black channels.
    auto = []
    for setup, state in zip(cfg.cenbs, states):
        if setup.initial_block is None:
            auto.append(state)
            continue
        block = setup.initial_block
        for ch in block:
            if not cfg.grid.valid_index(ch):
                raise StartupError(f"{state.id}: initial block channel {ch} "
                                   "outside the grid")
            if state.region_cache[ch] is Region.BLACK:
                raise StartupError(f"{state.id}: initial block channel {ch} "
                                   "is in the black region")
        runs = cfg.grid.contiguous_runs(block)
        if len(runs) != 1 or len(block) > cenb_mod.MAX_BLOCK_CHANNELS:
            raise StartupError(f"{state.id}: initial block {block} is not a "
                               "contiguous run of at most 3 channels")
        state.active_block = tuple(sorted(block))
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
                            sample_t_ms=np.arange(n_frames, dtype=float) * FRAME_MS,
                            bandwidth_mhz={s.id: [] for s in states})
    pending_detect_t = {}
    fused_reports = {s.id: [] for s in states}
    sense_offset = (3.0 if cfg.schedule.wide_scan
                    else 1.0 + cfg.schedule.dwpts_ms + cfg.schedule.gp_ms)
    loss_rng = (np.random.default_rng([cfg.seed, 0x10F])
                if cfg.random_loss_floor > 0 else None)
    dl_subframes = cfg.schedule.downlink_subframes()

    for frame in range(n_frames):
        t0 = float(frame * FRAME_MS)

        if frame > 0 and frame % cfg.asm_epoch_frames == 0:
            detail = ";".join(
                f"{s.id}:{','.join(str(c) for c in (s.active_block or ()))}"
                for s in states)
            events.append((t0, "asm", "ASM_EPOCH", detail))

        for state in states:
            msg = state.pending_handover
            if msg is not None and msg.activation_frame == frame:
                state, ev = execute_handover(state, msg, t0, cfg.retune_ms)
                if ev.aborted:
                    events.append((t0, state.id, "RETUNE_ABORT", "target occupied"))
                else:
                    events.append((t0, state.id, "RETUNE_START",
                                   f"to={','.join(str(c) for c in ev.to_block)}"))
                    events.append((ev.t_restored_ms, state.id, "RETUNE_END",
                                   f"bw={state.bandwidth_mhz}"))
                    t_detect = pending_detect_t.pop((state.id, msg.activation_frame),
                                                    msg.frame_no * FRAME_MS)
                    metrics.handover_records.append(HandoverRecord(
                        cenb_id=state.id, t_detect_ms=t_detect,
                        t_restore_ms=ev.t_restored_ms,
                        latency_ms=ev.t_restored_ms - t_detect))

        if frame > 0:
            for state in states:
                active_before = state.active_block or ()
                msg = spectrum_decision(state, fused_reports[state.id], state.region_cache,
                                        cfg.grid, frame_no=frame)
                if msg is not None and msg.kind is MsgKind.PCOGCH_DECISION:
                    trigger_ts = [state.last_reports[ch].t_ms for ch in active_before
                                  if ch in state.last_reports and state.unavailable(ch)]
                    pending_detect_t[(state.id, msg.activation_frame)] = (
                        min(trigger_ts) if trigger_ts else t0)
                    events.append((t0, state.id, "DECIDE",
                                   f"target={','.join(str(c) for c in msg.target_block)}"
                                   f" bw={msg.bandwidth_mhz}"))
                    events.append((t0 + 1.0, state.id, "BROADCAST",
                                   f"pcogch activation_frame={msg.activation_frame}"))

        t_sense = t0 + sense_offset
        raw_reports = {}
        for idx, state in enumerate(states):
            rng = np.random.default_rng([cfg.seed, 0x5E45E, frame, idx])
            spectrum = received_spectrum(
                state.location, cfg.transmitters, t_sense, cfg.prop, cfg.grid,
                rbw_khz=cfg.rbw_khz, noise_figure_db=op_det.noise_figure_db,
                snapshots=n_snapshots, rng=rng)
            stats, occupied = sensing_mod.detect_channels(op_det, spectrum.bins_mw(),
                                                          windows)
            monitored = (range(cfg.grid.n_channels) if cfg.schedule.wide_scan
                         else list(state.active_block or ()))
            reports = [SensingReport(
                cenb_id=state.id, channel_index=ch,
                decision=Decision.OCCUPIED if occupied[ch] else Decision.VACANT,
                carrier_stats_dbm=tuple(float(v) for v in stats[ch]), t_ms=t_sense)
                for ch in monitored]
            raw_reports[state.id] = reports
            n_occ = sum(r.decision is Decision.OCCUPIED for r in reports)
            events.append((t_sense, state.id, "SENSE",
                           f"channels={len(reports)} occupied={n_occ}"))

        if cfg.fusion_rule == "OFF" or len(states) == 1:
            fused_reports = raw_reports
        else:
            # X2 exchange: every CeNB fuses its verdict with all others' on that channel.
            by_channel = {}
            for reports in raw_reports.values():
                for rep in reports:
                    by_channel.setdefault(rep.channel_index, []).append(rep)
            fused_reports = {
                cenb_id: [cenb_mod.fuse_cooperative(
                    rep, [r for r in by_channel[rep.channel_index] if r is not rep],
                    cfg.fusion_rule) for rep in reports]
                for cenb_id, reports in raw_reports.items()}

        offered = 0
        lost = 0
        for sf_idx in dl_subframes:
            t = t0 + sf_idx
            for state in states:
                offered += cfg.packets_per_dl_subframe
                blocked = (state.active_block is None
                           or state.retuning_at(t)
                           or any(tx.channel_index in state.active_block
                                  and tx.active_at(t)
                                  for tx in cfg.transmitters))
                if blocked:
                    lost += cfg.packets_per_dl_subframe
                elif loss_rng is not None:
                    lost += int(loss_rng.binomial(cfg.packets_per_dl_subframe,
                                                  cfg.random_loss_floor))
        metrics.plr[frame] = lost / offered if offered else 0.0
        metrics.packets_offered += offered
        metrics.packets_lost += lost
        for state in states:
            metrics.bandwidth_mhz[state.id].append(state.bandwidth_mhz)

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


def emit_report(metrics, out_dir, events=(), curve=None):
    """Write plr.csv, events.csv, handover_summary.txt (and acir_curve.csv)."""
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

    if curve is not None:
        curve_path = os.path.join(out_dir, "acir_curve.csv")
        interf_mod.curve_to_csv(curve, curve_path)
        written.append(curve_path)
    return written


def run_interference_study(study):
    """Execute an embedded or standalone coexistence study."""
    curve = interf_mod.acir_sweep(study.topology, study.acir_list,
                                  study.snapshots, study.seed, study.coex)
    result = interf_mod.determine_guard_band(
        curve, interf_mod.DEFAULT_GUARD_BAND_MAP, study.loss_budget)
    return curve, result
