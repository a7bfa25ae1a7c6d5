"""Frame loop of ``harness.run_simulation``: detector, handover timeline, X2 fusion."""

import hashlib
import re
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvwsim import harness
from tvwsim.cenb import HandoverEvent
from tvwsim.errors import ConfigError, CoverageError
from tvwsim.radio_env import (
    FrequencyBand,
    PropagationConfig,
    ScheduleTable,
    TvStandard,
    TvTransmitter,
    build_channel_grid,
    china_tv_grid,
    dbm_to_mw,
    path_loss,
    received_spectrum,
    synthesize_tv_spectrum,
    thermal_noise_dbm,
)
from tvwsim.sensing import (
    analytic_threshold_dbm,
    carrier_windows,
    default_calibration,
    estimate_roc,
    measure_pfa,
)

from sensing_reference import detect_channels

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_frame_loop_detector_finds_the_tvs_of_a_received_spectrum():
    grid = china_tv_grid()
    cfg = default_calibration()
    txs = [TvTransmitter(id=f"tv{ch}", standard=TvStandard.ANALOG_PAL_D, channel_index=ch,
                         location=(d, 0.0), eirp_dbm=43.0)
           for ch, d in ((5, 2000.0), (25, 300.0))]
    spectrum = received_spectrum((0.0, 0.0), txs, 0.0, PropagationConfig(), grid,
                                 noise_figure_db=cfg.noise_figure_db,
                                 snapshots=cfg.n_snapshots(), rng=np.random.default_rng(3))
    windows = carrier_windows(grid.bin_centers_mhz(200.0), grid.low_edges_mhz, cfg)
    stats, occupied = detect_channels(cfg, spectrum, windows)

    assert stats.shape == (grid.n_channels, cfg.n_carriers)
    assert occupied[5] and occupied[25] and occupied.sum() < grid.n_channels


# Two CeNBs and three TVs: a scheduled PAL-D service 22 m from cenb1, inside
# the 50 m reference distance, an always-on DTMB service and a PAL-D
# service with two on-intervals.
ARRAY_TRANSMITTERS = ("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                      "near,AnalogPalD,4,20,10,43,30,100:300\n"
                      "dtmb,DigitalDtmb,9,900,-400,40,30,\n"
                      "far,AnalogPalD,25,3000,2500,46,30,0:150;250:400\n")


def _array_scenario(tmp_path, extra=""):
    (tmp_path / "tx.csv").write_text(ARRAY_TRANSMITTERS, encoding="utf-8")
    scenario = tmp_path / "arrays.ini"
    scenario.write_text("sim.seed = 5\nsim.duration_ms = 400\nprop.ref_distance_m = 50\n"
                        "files.transmitters = tx.csv\ncenb1.x_m = 0\n"
                        f"cenb2.x_m = 1500\ncenb2.y_m = 700\n{extra}", encoding="utf-8")
    cfg = harness.load_scenario(scenario)
    return cfg, [c.location for c in cfg.cenbs], default_calibration()


def _link_distance(cfg, point, tx):
    d = np.hypot(point[0] - tx.location[0], point[1] - tx.location[1])
    return max(d, cfg.prop.ref_distance_m)


def _frame_loop_radio(cfg, det, points):
    """The frame loop's radio inputs for ``points``: sensing at 3 ms of each frame."""
    return harness._BlockRadio(cfg, det, points, [3.0])


def test_frame_loop_window_means_equal_the_single_point_api(tmp_path):
    cfg, points, det = _array_scenario(tmp_path)
    radio = _frame_loop_radio(cfg, det, points)
    windows, links = radio.windows, radio.links
    schedules = ScheduleTable(cfg.transmitters)
    noise_mw = dbm_to_mw(thermal_noise_dbm(cfg.rbw_khz, det.noise_figure_db))
    for t in (0.0, 120.0, 200.0, 260.0, 350.0):
        on = schedules.active(t)[0]
        means = links.mean_mw(on).reshape(len(points), *windows.shape)
        for point, mean in zip(points, means):
            single = received_spectrum(point, cfg.transmitters, t, cfg.prop, cfg.grid,
                                       rbw_khz=cfg.rbw_khz, noise_figure_db=det.noise_figure_db)
            np.testing.assert_allclose(mean, single[windows], rtol=1e-12)
            # The same sum, one synthesized spectrum per active transmitter.
            total = noise_mw + sum(
                synthesize_tv_spectrum(tx, cfg.grid, cfg.rbw_khz, tx.eirp_dbm - path_loss(
                    cfg.prop, _link_distance(cfg, point, tx),
                    cfg.grid.center_mhz(tx.channel_index)))
                for tx, is_on in zip(cfg.transmitters, on) if is_on)
            np.testing.assert_allclose(mean, total[windows], rtol=1e-12)


def test_block_radio_forms_each_distinct_segment_once(tmp_path, monkeypatch):
    """On fixed gains a block forms the window powers of each distinct
    schedule segment among its sensing instants once, and each frame's
    powers are its own mask's, bit for bit.  The array scenario's 40
    sensing instants fall in 5 segments of 3 distinct masks."""
    cfg, points, det = _array_scenario(tmp_path)
    op_det = replace(det, target_pfa=0.05)
    op_det = replace(op_det, threshold_dbm=analytic_threshold_dbm(op_det))
    radio = harness._BlockRadio(cfg, op_det, points, [3.0, 5.0])
    schedules = ScheduleTable(cfg.transmitters)
    sensing = schedules.active(np.arange(40) * 10.0 + 3.0)
    expected = [radio.links.mean_mw(on).reshape(len(points), *radio.windows.shape).sum(axis=-1)
                for on in sensing]
    formed, sums = [], []
    gains_mw = radio.links.gains_mw
    monkeypatch.setattr(radio.links, "gains_mw",
                        lambda on: formed.append(on.tolist()) or gains_mw(on))
    channel_verdicts = harness.sensing_mod.channel_verdicts
    monkeypatch.setattr(harness.sensing_mod, "channel_verdicts",
                        lambda det, mw: sums.extend(mw) or channel_verdicts(det, mw))
    radio.rng = SimpleNamespace(gamma=lambda k, scale, size: np.ones(size))    # noise-free
    radio.sense(0, 40)
    assert formed == schedules.segments[1:6].tolist()
    assert len({tuple(on) for on in formed}) == 3
    assert np.array_equal(sums, expected)


def test_frame_loop_shadowing_takes_the_sequential_path_loss_draws(tmp_path):
    """The frame loop draws shadowing from a stream seeded with the scenario
    seed alone, one scalar ``path_loss`` draw per active link in (CeNB,
    transmitter) order; a second radio of the same run starts it afresh."""
    cfg, points, det = _array_scenario(tmp_path, "prop.shadowing_sigma_db = 6\n")
    schedules = ScheduleTable(cfg.transmitters)
    for _ in range(2):
        links = _frame_loop_radio(cfg, det, points).links
        sequential = np.random.default_rng(cfg.seed)
        for t in (200.0, 350.0):        # two frames: the stream runs on
            on = schedules.active(t)[0]
            expected = [[10.0 ** ((tx.eirp_dbm - path_loss(
                            cfg.prop, _link_distance(cfg, point, tx),
                            cfg.grid.center_mhz(tx.channel_index), sequential)) / 10.0)
                         for tx, is_on in zip(cfg.transmitters, on) if is_on]
                        for point in points]
            np.testing.assert_allclose(links.gains_mw(on), expected, rtol=1e-12)


def test_fig17_handover_timeline():
    metrics, _ = harness.run_simulation(harness.load_scenario(SCENARIOS / "handover_fig17.ini"))
    assert [r.latency_ms for r in metrics.handover_records if not r.aborted] == [27.0]
    lost = np.zeros(metrics.plr.size)
    lost[100:103] = 1.0
    assert np.array_equal(metrics.plr, lost)


def test_two_runs_on_one_loaded_config_agree(tmp_path):
    # TVs from 3 to 20 km with 8 dB shadowing: some sit at the detection
    # edge, where each shadowing draw can flip a verdict.
    rows = "".join(f"tv{ch},AnalogPalD,{ch},{d},0,43,30,\n"
                   for ch, d in enumerate(range(3000, 20001, 1000)))
    (tmp_path / "tx.csv").write_text(
        "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n" + rows, encoding="utf-8")
    scenario = tmp_path / "edge.ini"
    scenario.write_text("sim.seed = 3\nsim.duration_ms = 500\nprop.shadowing_sigma_db = 8\n"
                        "files.transmitters = tx.csv\n", encoding="utf-8")
    cfg = harness.load_scenario(scenario)
    assert harness.run_simulation(cfg)[1] == harness.run_simulation(cfg)[1]


# Three CeNBs on channels 24-26.  tv-a (channel 25, on from 1 s) is seen by
# cenb1 and cenb2; tv-b (channel 1, always on) only by cenb3.  OR fuses
# channel 1 to occupied everywhere, so all three move to 12-14; MAJORITY
# leaves it vacant, so all three move to 0-2.
TRANSMITTERS = ("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                "tv-a,AnalogPalD,25,300,0,43,30,1000:2000\n"
                "tv-b,AnalogPalD,1,40000,500,43,30,\n")
FUSION_EVENTS = {
    "OR": ("12,13,14", "0753e84555dd4efb1b99d72176d2cbdd3cdb5b2f083eba8d5b11bf6dd7b28d0f"),
    "MAJORITY": ("0,1,2", "e6c355eb8fbbc4f6fc685e09bd81f4e112960941a8941aa6f2fd2e1d0e68edfc"),
}


@pytest.mark.parametrize("rule", sorted(FUSION_EVENTS))
def test_three_cenb_fusion_events_are_pinned(tmp_path, rule):
    (tmp_path / "tx.csv").write_text(TRANSMITTERS, encoding="utf-8")
    cenbs = "".join(f"cenb{i}.x_m = {x}\ncenb{i}.block = 24,25,26\n"
                    for i, x in enumerate((0, 3000, 40000), start=1))
    scenario = tmp_path / "fusion.ini"
    scenario.write_text(f"sim.seed = 7\nsim.duration_ms = 2000\nsim.fusion_rule = {rule}\n"
                        f"prop.shadowing_sigma_db = 4\nfiles.transmitters = tx.csv\n{cenbs}",
                        encoding="utf-8")
    metrics, events = harness.run_simulation(harness.load_scenario(scenario))
    harness.emit_report(metrics, tmp_path / "out", events)

    target, digest = FUSION_EVENTS[rule]
    decided = [detail for _, _, kind, detail in events if kind == "DECIDE"]
    assert decided == [f"target={target} bw=20"] * 3
    events_csv = (tmp_path / "out" / "events.csv").read_bytes()
    assert hashlib.sha256(events_csv).hexdigest() == digest


# The same three CeNBs with frame.wide_scan = false: each senses only its
# own block, so the CeNBs fuse different channel sets.  OR decides twice
# (0-2 at 1010 ms, then 12-14 once channel 1 is sensed occupied there);
# MAJORITY decides once.
NARROW_SCAN_OUTPUTS = {
    "OR": (["0,1,2"] * 3 + ["12,13,14"] * 3,
           "0df8aa6f6f0e8b230b1ed2870e922e8856237eac8015dddf0f7f7109ef3229ac",
           "0e32d6ef006340b10e0641d48fa60ade66cd379cd6db329f4168e37a1402567f"),
    "MAJORITY": (["0,1,2"] * 3,
                 "4ca8e7c5c774f1723bb2c7baf42981125ae165d70aed8df97c3d8796da512497",
                 "50bb076103e4a1437162aea784b8a33d2ff49b6ce59aaca44496bc7ba6168e21"),
}


@pytest.mark.parametrize("rule", sorted(NARROW_SCAN_OUTPUTS))
def test_three_cenb_narrow_scan_outputs_are_pinned(tmp_path, rule):
    (tmp_path / "tx.csv").write_text(TRANSMITTERS, encoding="utf-8")
    cenbs = "".join(f"cenb{i}.x_m = {x}\ncenb{i}.block = 24,25,26\n"
                    for i, x in enumerate((0, 3000, 40000), start=1))
    scenario = tmp_path / "fusion.ini"
    scenario.write_text(f"sim.seed = 7\nsim.duration_ms = 2000\nsim.fusion_rule = {rule}\n"
                        f"frame.wide_scan = false\nprop.shadowing_sigma_db = 4\n"
                        f"files.transmitters = tx.csv\n{cenbs}", encoding="utf-8")
    metrics, events = harness.run_simulation(harness.load_scenario(scenario))
    harness.emit_report(metrics, tmp_path / "out", events)

    targets, events_digest, plr_digest = NARROW_SCAN_OUTPUTS[rule]
    decided = [detail for _, _, kind, detail in events if kind == "DECIDE"]
    assert decided == [f"target={t} bw=20" for t in targets]
    for name, digest in (("events.csv", events_digest), ("plr.csv", plr_digest)):
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


# One CeNB off the TV's channel, no shadowing, 2000 frames.  The TV on
# channel 20 at 7 km is received near the operational threshold
# (pd about 0.56), so the share of frames that sense it checks the frame
# loop's detector noise against the detector's own ROC.
ROC_TV = "tv,AnalogPalD,20,7000,0,43,30,\n"


def _roc_run(tmp_path, tv_row="", extra=""):
    (tmp_path / "tx.csv").write_text(
        "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n" + tv_row, encoding="utf-8")
    scenario = tmp_path / "roc.ini"
    scenario.write_text("sim.seed = 11\nsim.duration_ms = 20000\nfiles.transmitters = tx.csv\n"
                        f"cenb1.block = 0,1,2\n{extra}", encoding="utf-8")
    cfg = harness.load_scenario(scenario)
    # The frame loop's operational detector, as run_simulation builds it.
    op_det = replace(cfg.detector, target_pfa=cfg.operational_pfa,
                     sense_duration_ms=cfg.schedule.sensing_time_ms)
    op_det = replace(op_det, threshold_dbm=analytic_threshold_dbm(op_det))
    metrics, events = harness.run_simulation(cfg)
    occupied = [int(detail.rpartition("occupied=")[2])
                for _, _, kind, detail in events if kind == "SENSE"]
    return cfg, op_det, metrics, events, np.array(occupied)


def _wilson_99(hits, n):
    """99 % Wilson score interval of a binomial share."""
    z = NormalDist().inv_cdf(0.995)
    p = hits / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return centre - half, centre + half


def test_frame_loop_detections_match_the_roc(tmp_path):
    cfg, op_det, _, _, occupied = _roc_run(tmp_path, ROC_TV)
    tv = cfg.transmitters[0]
    rx_dbm = tv.eirp_dbm - path_loss(cfg.prop, _link_distance(cfg, cfg.cenbs[0].location, tv),
                                     cfg.grid.center_mhz(tv.channel_index))
    pd = estimate_roc(op_det, [rx_dbm])[0].pd
    assert occupied.size == 2000
    assert set(occupied.tolist()) <= {0, 1}     # no false alarm at pfa 1e-8
    lo, hi = _wilson_99(np.count_nonzero(occupied), occupied.size)
    assert 0.3 < pd < 0.7 and lo <= pd <= hi


def test_frame_loop_false_alarms_match_the_roc(tmp_path):
    cfg, op_det, _, _, occupied = _roc_run(tmp_path, extra="sim.operational_pfa = 0.02\n")
    trials = occupied.size * cfg.grid.n_channels     # frames x channels
    lo, hi = _wilson_99(int(occupied.sum()), trials)
    assert lo <= measure_pfa(op_det) <= hi


# A change to the frame loop's noise stream moves this digest, and must
# be declared as a change in behaviour.
def test_frame_loop_verdict_stream_is_pinned(tmp_path):
    _, _, metrics, events, occupied = _roc_run(tmp_path, ROC_TV)
    harness.emit_report(metrics, tmp_path / "out", events)
    events_csv = (tmp_path / "out" / "events.csv").read_bytes()
    assert occupied.sum() == 1127
    assert (hashlib.sha256(events_csv).hexdigest()
            == "10a8084b8f4c87236b46921eae8ca5a910e33e284508cb03279fe1115177d2e6")


# Two CeNBs 20 km apart under MAJORITY, each sensing only its own block
# (tdd-1, narrow scan), with random downlink loss and 4 dB shadowing.
# tv-a is seen by cenb1 alone, so MAJORITY keeps the block; tv-b, between
# the two, moves both to 0-2; tv-c is then seen by cenb2 alone.  Every
# switch-on falls inside a frame, most of them in the second frame of a
# two-frame pair, and the run is an odd number of frames.
MAJORITY_TRANSMITTERS = ("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                         "tv-a,AnalogPalD,25,300,0,43,30,1013:1537;2205:2417\n"
                         "tv-b,AnalogPalD,24,10000,0,65,30,1655:2100\n"
                         "tv-c,AnalogPalD,1,20500,0,43,30,2512:2900\n")
MAJORITY_LOSS_DIGESTS = {
    "plr.csv": "094d7d580f8cffdb5d28fff35c5db4569360ec95bf747b28b4a11c64197a6e71",
    "events.csv": "560337fe8ab00d01968f758ef6fb144cbfc2d3bda63c084c1312fe75e0715b2e",
}


def test_two_cenb_majority_run_with_random_loss_is_pinned(tmp_path):
    (tmp_path / "tx.csv").write_text(MAJORITY_TRANSMITTERS, encoding="utf-8")
    scenario = tmp_path / "majority.ini"
    scenario.write_text("sim.seed = 13\nsim.duration_ms = 3070\nsim.fusion_rule = MAJORITY\n"
                        "sim.random_loss_floor = 0.05\nframe.pattern = tdd-1\n"
                        "frame.wide_scan = false\nprop.shadowing_sigma_db = 4\n"
                        "files.transmitters = tx.csv\ncenb1.block = 24,25,26\n"
                        "cenb2.x_m = 20000\ncenb2.block = 24,25,26\n", encoding="utf-8")
    metrics, events = harness.run_simulation(harness.load_scenario(scenario))
    harness.emit_report(metrics, tmp_path / "out", events)

    decided = [(who, detail) for _, who, kind, detail in events if kind == "DECIDE"]
    assert decided == [("cenb1", "target=0,1,2 bw=20"), ("cenb2", "target=0,1,2 bw=20")]
    for name, digest in MAJORITY_LOSS_DIGESTS.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


# The frame loop senses a block of frames per pass.  Its outputs equal
# one pass per frame only because of the two facts below; a numpy
# release that breaks one fails here under its own name.
@pytest.mark.parametrize("shape", [(1, 37, 3, 1), (16, 37, 3, 1), (2, 5, 3, 4)])
def test_one_gamma_call_equals_sequential_calls(shape):
    k = default_calibration().n_snapshots(1.0)
    frames = 5
    sequential = np.random.default_rng([11, 0x5E45E])
    one_call = np.random.default_rng([11, 0x5E45E])
    expected = np.stack([sequential.gamma(k, 1.0 / k, size=shape) for _ in range(frames)])
    assert np.array_equal(one_call.gamma(k, 1.0 / k, size=(frames, *shape)), expected)
    assert sequential.random() == one_call.random()     # both streams end in one place


def test_detect_channels_over_leading_axes_equals_one_call_per_round():
    det = replace(default_calibration(), target_pfa=0.05)
    det = replace(det, threshold_dbm=analytic_threshold_dbm(det))
    rng = np.random.default_rng(4)
    threshold_mw = dbm_to_mw(det.threshold_dbm)
    for width in (1, 3, 9):
        # Window sums near the threshold, so both verdicts occur.
        mw = threshold_mw / width * rng.gamma(4.0, 0.25, size=(4, 3, 37, det.n_carriers, width))
        stats, occupied = detect_channels(det, mw)
        assert stats.shape == (4, 3, 37, det.n_carriers) and occupied.shape == (4, 3, 37)
        assert 0 < occupied.sum() < occupied.size
        for f in range(4):
            for cenb in range(3):
                one_stats, one_occupied = detect_channels(det, mw[f, cenb])
                assert np.array_equal(stats[f, cenb], one_stats)
                assert np.array_equal(occupied[f, cenb], one_occupied)


def _three_cenb_or_scenario(tmp_path):
    """Three CeNBs under OR with 4 dB shadowing and random downlink loss, 307 frames."""
    (tmp_path / "tx.csv").write_text(MAJORITY_TRANSMITTERS, encoding="utf-8")
    scenario = tmp_path / "or.ini"
    cenbs = "".join(f"cenb{i}.x_m = {x}\ncenb{i}.block = 24,25,26\n"
                    for i, x in enumerate((0, 20000, 9000), start=1))
    scenario.write_text("sim.seed = 13\nsim.duration_ms = 3070\nsim.fusion_rule = OR\n"
                        "sim.random_loss_floor = 0.05\nprop.shadowing_sigma_db = 4\n"
                        f"files.transmitters = tx.csv\n{cenbs}", encoding="utf-8")
    return harness.load_scenario(scenario)


def test_frame_loop_outputs_do_not_depend_on_the_block_length(tmp_path, monkeypatch):
    cfg = _three_cenb_or_scenario(tmp_path)
    runs = []
    # One frame per block, three (307 frames is not a multiple of 3), all in one.
    for block_bins in (1, 3 * 3 * 111, 10**6):
        monkeypatch.setattr(harness, "_BLOCK_BINS", block_bins)
        runs.append(harness.run_simulation(cfg))
    (metrics, events), *others = runs
    assert any(kind == "DECIDE" for _, _, kind, _ in events)
    for other_metrics, other_events in others:
        assert other_events == events
        assert np.array_equal(other_metrics.plr, metrics.plr)


def _fig17_with_random_loss(tmp_path):
    """The Fig. 17 run (one CeNB, a TV switching on in its block) with random loss."""
    cfg = harness.load_scenario(SCENARIOS / "handover_fig17.ini")
    return replace(cfg, random_loss_floor=0.05)


# Half runs end inside a block of frames: 130 frames against 9 per block,
# 155 against 3.
@pytest.mark.parametrize("make, duration_ms", [(_fig17_with_random_loss, 2600),
                                               (_three_cenb_or_scenario, 3100)],
                         ids=["fig17", "three_cenb_or"])
def test_a_run_is_a_prefix_of_a_longer_run(tmp_path, make, duration_ms):
    cfg = make(tmp_path)
    half_ms = duration_ms // 2
    long_metrics, long_events = harness.run_simulation(replace(cfg, duration_ms=duration_ms))
    metrics, events = harness.run_simulation(replace(cfg, duration_ms=half_ms))
    assert [e for e in events if e[0] < half_ms] == [e for e in long_events if e[0] < half_ms]
    assert np.array_equal(metrics.plr, long_metrics.plr[:metrics.plr.size])
    assert any(kind == "DECIDE" for t, _, kind, _ in events if t < half_ms)
    assert np.any((metrics.plr > 0) & (metrics.plr < 1))    # random loss was drawn


def _full_width_windows(centers, low_edges, cfg):
    """Carrier-window rows found by one pass over every bin per window."""
    half = cfg.det_bw_khz / 1000.0 / 2
    return [np.nonzero(np.abs(centers - (lo + off)) <= half + 1e-9)[0]
            for lo in low_edges for off in cfg.carrier_offsets_mhz]


@pytest.mark.parametrize("rbw_khz", [200.0, 150.0, 100.0, 66.7, 25.0, 10.0, 3.3, 1.0])
@pytest.mark.parametrize("low_mhz", [470.0, 470.1, 300.05])
def test_carrier_windows_equal_the_full_width_form(rbw_khz, low_mhz):
    det = default_calibration()
    grid = build_channel_grid(FrequencyBand(low_mhz, low_mhz + 336.0), 8.0)
    rbw_mhz = rbw_khz / 1000.0
    centers = grid.band.low_mhz + (np.arange(round(336.0 / rbw_mhz)) + 0.5) * rbw_mhz
    rows = _full_width_windows(centers, grid.low_edges_mhz, det)
    if {row.size for row in rows} == {rows[0].size} and rows[0].size:
        windows = carrier_windows(centers, grid.low_edges_mhz, det)
        assert windows.dtype == rows[0].dtype
        np.testing.assert_array_equal(windows.reshape(len(rows), -1), np.stack(rows))
    else:
        with pytest.raises(CoverageError):
            carrier_windows(centers, grid.low_edges_mhz, det)
    # Window by window, so that rows of unequal width are compared too.
    offsets = det.carrier_offsets_mhz
    for i, row in enumerate(rows):
        one = replace(det, carrier_offsets_mhz=(offsets[i % len(offsets)],), k_required=1)
        lo = grid.low_edges_mhz[i // len(offsets)]
        np.testing.assert_array_equal(carrier_windows(centers, [lo], one).ravel(), row)


def test_committed_scenario_windows_equal_the_full_width_form():
    cfg = harness.load_scenario(SCENARIOS / "handover_fig17.ini")
    rbw_mhz = cfg.rbw_khz / 1000.0
    n_bins = round(cfg.grid.band.width_mhz / rbw_mhz)
    centers = cfg.grid.band.low_mhz + (np.arange(n_bins) + 0.5) * rbw_mhz
    rows = _full_width_windows(centers, cfg.grid.low_edges_mhz, cfg.detector)
    np.testing.assert_array_equal(cfg.windows.reshape(len(rows), -1), np.stack(rows))


@pytest.mark.parametrize("text, expected", [
    ("-130:-110:3", [-130.0 + 3 * i for i in range(7)]),    # not -109
    ("0:100:15", [15.0 * i for i in range(7)]),             # not 105
    ("0:0.3:0.1", [0.0, 0.1, 0.2, 3 * 0.1]),                 # 0.3 / 0.1 < 3 in floats
    ("2.5:2.5:1", [2.5]),
])
def test_parse_range_never_passes_hi(text, expected):
    assert harness.parse_range(text) == expected


@pytest.mark.parametrize("text", ["0:100:5", "-130:-110:1"])
def test_parse_range_keeps_the_default_sweeps(text):
    lo, hi, step = (float(p) for p in text.split(":"))
    assert harness.parse_range(text) == [lo + i * step for i in range(int((hi - lo) / step) + 1)]


tenths = st.integers(-2000, 2000).map(lambda k: k / 10)


@given(lo=tenths, step=st.integers(1, 500).map(lambda k: k / 10), n=st.integers(0, 300))
def test_parse_range_of_a_divided_span_ends_at_hi(lo, step, n):
    hi = lo + n * step
    assert harness.parse_range(f"{lo!r}:{hi!r}:{step!r}") == [lo + i * step
                                                             for i in range(n + 1)]


@given(lo=tenths, step=st.integers(1, 500).map(lambda k: k / 10), n=st.integers(0, 300),
       part=st.floats(0.01, 0.99))
def test_parse_range_of_an_undivided_span_stops_below_hi(lo, step, n, part):
    hi = lo + (n + part) * step
    points = harness.parse_range(f"{lo!r}:{hi!r}:{step!r}")
    assert len(points) == n + 1 and points[-1] < hi


@pytest.mark.parametrize("grid_keys", [
    "grid.channel_mhz = 4\n",
    "grid.channel_mhz = 7.9\ngrid.high_mhz = 786\ngrid.exclusions =\nradio.rbw_khz = 100\n",
    "grid.low_mhz = 300.5\ngrid.high_mhz = 804.5\ngrid.exclusions =\nradio.rbw_khz = 100\n",
])
def test_a_grid_the_carrier_windows_do_not_fit_fails_at_load(tmp_path, grid_keys):
    scenario = tmp_path / "grid.ini"
    scenario.write_text(f"sim.seed = 1\nsim.duration_ms = 100\n{grid_keys}", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(scenario))}: carrier windows"):
        harness.load_scenario(scenario)


def test_the_run_uses_the_windows_found_at_load(tmp_path):
    cfg, points, det = _array_scenario(tmp_path)
    windows = _frame_loop_radio(cfg, det, points).windows
    assert windows is cfg.windows
    rbw_mhz = cfg.rbw_khz / 1000.0
    n_bins = int(round(cfg.grid.band.width_mhz / rbw_mhz))
    centers = cfg.grid.band.low_mhz + (np.arange(n_bins) + 0.5) * rbw_mhz
    np.testing.assert_array_equal(windows, carrier_windows(centers, cfg.grid.low_edges_mhz, det))


# The frame loop's random downlink losses are one binomial call per frame
# over its unblocked subframes; the loss digests hold only because of this.
@pytest.mark.parametrize("n, p", [(10, 0.05), (10, 0.5), (7, 0.9)])
@pytest.mark.parametrize("size", [0, 1, 37])
def test_one_binomial_call_equals_sequential_calls(n, p, size):
    sequential = np.random.default_rng([13, 0x10F])
    one_call = np.random.default_rng([13, 0x10F])
    expected = [sequential.binomial(n, p) for _ in range(size)]
    assert one_call.binomial(n, p, size=size).tolist() == expected
    assert sequential.random() == one_call.random()     # both streams end in one place


def test_a_clear_block_costs_no_decision(monkeypatch):
    """fig17 decides once in 200 frames: spectrum_decision runs at that
    decision's frame and at the frame after its handover, and no other."""
    frames = []
    decide = harness.spectrum_decision

    def counted(state, grid, frame_no):
        frames.append(frame_no)
        return decide(state, grid, frame_no)

    monkeypatch.setattr(harness, "spectrum_decision", counted)
    metrics, events = harness.run_simulation(
        harness.load_scenario(SCENARIOS / "handover_fig17.ini"))
    assert [row[0] for row in events if row[2] == "DECIDE"] == [1010.0]
    assert frames == [101, 102]


# Edge scenarios of the frame loop's handling of rounds, retunes and blocks.
def _fig17_retune(retune_ms):
    """fig17 with a longer retune: at 13 ms a RETUNE_END ties the next
    frame's sensing instant, at 25 ms the retune spans a whole frame."""
    def make(tmp_path):
        return replace(harness.load_scenario(SCENARIOS / "handover_fig17.ini"),
                       retune_ms=float(retune_ms))
    return make


def _narrow_majority_with_blocked_frames(tmp_path):
    """Two CeNBs 600 m apart under MAJORITY, narrow scan, random loss.  tv-a
    on their block is seen by both; tv-b, on the block they move to, is
    seen by neither, so every downlink subframe of its frames is blocked."""
    (tmp_path / "tx.csv").write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                                     "tv-a,AnalogPalD,25,300,0,43,30,1013:1600\n"
                                     "tv-b,AnalogPalD,1,20500,0,43,30,1800:2300\n",
                                     encoding="utf-8")
    scenario = tmp_path / "b.ini"
    scenario.write_text("sim.seed = 5\nsim.duration_ms = 2500\nsim.fusion_rule = MAJORITY\n"
                        "sim.random_loss_floor = 0.05\nframe.wide_scan = false\n"
                        "prop.shadowing_sigma_db = 4\nfiles.transmitters = tx.csv\n"
                        "cenb1.block = 24,25,26\ncenb2.x_m = 600\ncenb2.block = 24,25,26\n",
                        encoding="utf-8")
    return harness.load_scenario(scenario)


def _blockless(wide_scan):
    """Two CeNBs 100 m apart on a three-channel grid with TVs on all three
    channels: the allocator leaves cenb2 without a block, and cenb1 hands
    over to none.  Under the wide scan both take the block again while
    the TVs are off; under the narrow scan they sense nothing once blockless."""
    def make(tmp_path):
        (tmp_path / "tx.csv").write_text(
            "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
            + "".join(f"tv{ch},AnalogPalD,{ch},2000,0,43,30,0:300;700:820\n" for ch in range(3)),
            encoding="utf-8")
        scenario = tmp_path / "c.ini"
        scenario.write_text("sim.seed = 9\nsim.duration_ms = 1200\nsim.random_loss_floor = 0.05\n"
                            f"sim.asm_epoch_frames = 5\nframe.wide_scan = {wide_scan}\n"
                            "grid.low_mhz = 470\ngrid.high_mhz = 494\ngrid.exclusions =\n"
                            "files.transmitters = tx.csv\ncenb1.x_m = 0\ncenb2.x_m = 100\n",
                            encoding="utf-8")
        return harness.load_scenario(scenario)
    return make


def _epoch_every_frame(tmp_path):
    """Three CeNBs under OR with 6 dB shadowing and an ASM epoch every frame.
    The TVs sit 15 km out, at the detection edge, so the fused verdicts on
    the held block turn occupied some frames after the TV switches on."""
    (tmp_path / "tx.csv").write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                                     "tv-a,AnalogPalD,25,15000,0,43,30,200:9000\n"
                                     "tv-b,AnalogPalD,1,0,15000,43,30,600:9000\n"
                                     "tv-c,AnalogPalD,13,-15000,0,43,30,1000:9000\n",
                                     encoding="utf-8")
    cenbs = "".join(f"cenb{i}.x_m = {x}\ncenb{i}.y_m = {y}\ncenb{i}.block = {block}\n"
                    for i, (x, y, block) in enumerate(
                        [(0, 0, "24,25,26"), (800, 0, "24,25,26"), (0, 800, "30,31,32")],
                        start=1))
    scenario = tmp_path / "d.ini"
    scenario.write_text("sim.seed = 21\nsim.duration_ms = 1500\nsim.fusion_rule = OR\n"
                        "sim.asm_epoch_frames = 1\nprop.shadowing_sigma_db = 6\n"
                        f"files.transmitters = tx.csv\n{cenbs}", encoding="utf-8")
    return harness.load_scenario(scenario)


def _rows(events, kind):
    return [row for row in events if row[2] == kind]


def _retune_end_ties_a_sense(cfg, metrics, events):
    ends = {t for t, _, _, _ in _rows(events, "RETUNE_END")}
    ties = [i for i, row in enumerate(events) if row[2] == "SENSE" and row[0] in ends]
    assert ties and all(events[i - 1][2] == "RETUNE_END" for i in ties)


def _retune_spans_a_frame(cfg, metrics, events):
    starts = [t for t, _, _, _ in _rows(events, "RETUNE_START")]
    ends = [t for t, _, _, _ in _rows(events, "RETUNE_END")]
    assert starts and all(end - start > 2 * harness.FRAME_MS for start, end in zip(starts, ends))


def _a_frame_is_wholly_blocked(cfg, metrics, events):
    assert np.any(metrics.plr == 1.0)
    assert np.any((metrics.plr > 0) & (metrics.plr < 1))    # random loss was drawn


def _a_cenb_holds_no_block(cfg, metrics, events):
    assert any(re.search(r":(;|$)", detail) for _, _, _, detail in _rows(events, "ASM_EPOCH"))


def _a_round_turns_occupied_inside_a_block(cfg, metrics, events):
    per_block = harness._BlockRadio(cfg, cfg.detector, [c.location for c in cfg.cenbs],
                                    [3.0]).frames_per_block
    rounds = [round(t / harness.FRAME_MS) - 1 for t, _, _, _ in _rows(events, "DECIDE")]
    assert per_block > 1 and any(r % per_block for r in rounds)
    assert len(_rows(events, "ASM_EPOCH")) == metrics.plr.size - 1


EDGE_SCENARIOS = {
    "retune_13": (_fig17_retune(13), _retune_end_ties_a_sense),
    "retune_25": (_fig17_retune(25), _retune_spans_a_frame),
    "narrow_majority_blocked": (_narrow_majority_with_blocked_frames,
                                _a_frame_is_wholly_blocked),
    "blockless_wide": (_blockless("true"), _a_cenb_holds_no_block),
    "blockless_narrow": (_blockless("false"), _a_cenb_holds_no_block),
    "epoch_every_frame": (_epoch_every_frame, _a_round_turns_occupied_inside_a_block),
}
# (events.csv, plr.csv) digests.
EDGE_DIGESTS = {
    "blockless_narrow": ("c3ca6c2380327a37fb6a0a4f7a90e868827b5d625fd30741e67bc51ccbc77b26",
                         "77d148d65df66152ad9411117f3a7d90c1125ee83c3b53135a2d974a8c53b7aa"),
    "blockless_wide": ("ccfe15e724e3e92ef2a0085a0b2646c826fe8452fb30b195c254d677cd78bc40",
                       "0c89dd16ec35309469a6479804a9423b075985afcc61f402dada8f89c5343499"),
    "epoch_every_frame": ("43963ea49556f5caf5f59918d77b29aeb7512efe0d9fa3e887a8a30fb4be0867",
                          "6457c09b6ac8bd98fe179d412944cd00ec318d5b44506c7909c11f73d8db9658"),
    "narrow_majority_blocked": (
        "552de6cfffddc37a0a40a1a3042616378015d969940f706ba6b03b1d845d91a4",
        "cb4182b95caaaf6571a73f6a088040b9f5ccfd308dc39f474a45f97256259ac2"),
    "retune_13": ("c76c7fabf930ac0c044fb7de7edfc8abc1ea94a6a7d7e665a5789ef655c3f08d",
                  "cf2bca62a0b3fa5e70861c466ca35f6e4c5049531a1ff9e3690b6fdab8d91bd8"),
    "retune_25": ("5ca0317f37e52e4d3ff0d52fed8754c57e3860b744cc7c45f942a4a49e858d0f",
                  "f610a8d460f490193b640c21f0e7192aad1655a72ba3e783febe2e22d108c05a"),
}


@pytest.mark.parametrize("name", sorted(EDGE_SCENARIOS))
def test_frame_loop_edge_outputs_are_pinned(tmp_path, name):
    make, check = EDGE_SCENARIOS[name]
    cfg = make(tmp_path)
    metrics, events = harness.run_simulation(cfg)
    check(cfg, metrics, events)
    harness.emit_report(metrics, tmp_path / "out", events)
    for file, digest in zip(("events.csv", "plr.csv"), EDGE_DIGESTS[name]):
        assert hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(EDGE_SCENARIOS))
def test_edge_outputs_do_not_depend_on_the_block_length(tmp_path, monkeypatch, name):
    cfg = EDGE_SCENARIOS[name][0](tmp_path)
    runs = []
    for block_bins in (1, harness._BLOCK_BINS, 10**6):
        monkeypatch.setattr(harness, "_BLOCK_BINS", block_bins)
        runs.append(harness.run_simulation(cfg))
    (metrics, events), *others = runs
    for other_metrics, other_events in others:
        assert other_events == events
        assert np.array_equal(other_metrics.plr, metrics.plr)


def test_a_retune_aborts_on_a_target_the_last_round_found_occupied(tmp_path):
    """fig17 with tv-b switching on at 1012 ms on channel 1, 300 m from
    cenb1.  cenb1 decides at 1010 ms on the round of 1003 ms to move to
    0,1,2; the round of 1013 ms finds tv-b there, so the handover that
    activates at 1020 ms aborts, and cenb1 decides again on that round."""
    (tmp_path / "tx.csv").write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                                     "tv-a,AnalogPalD,25,300,0,43,30,1000:2000\n"
                                     "tv-b,AnalogPalD,1,300,0,43,30,1012:2000\n",
                                     encoding="utf-8")
    fig17 = (SCENARIOS / "handover_fig17.ini").read_text(encoding="utf-8")
    scenario = tmp_path / "abort.ini"
    scenario.write_text(fig17.replace("transmitters_fig17.csv", "tx.csv"), encoding="utf-8")
    metrics, events = harness.run_simulation(harness.load_scenario(scenario))
    assert [row for row in events if row[2] not in ("SENSE", "ASM_EPOCH")] == [
        (1010.0, "cenb1", "DECIDE", "target=0,1,2 bw=20"),
        (1011.0, "cenb1", "BROADCAST", "pcogch activation_frame=102"),
        (1020.0, "cenb1", "RETUNE_ABORT", "target occupied"),
        (1020.0, "cenb1", "DECIDE", "target=12,13,14 bw=20"),
        (1021.0, "cenb1", "BROADCAST", "pcogch activation_frame=103"),
        (1030.0, "cenb1", "RETUNE_START", "to=12,13,14"),
        (1040.0, "cenb1", "RETUNE_END", "bw=20")]
    assert [(ev.aborted, ev.to_block) for ev in metrics.handover_records] == [
        (True, ()), (False, (12, 13, 14))]
    harness.emit_report(metrics, tmp_path / "out", events)
    assert (hashlib.sha256((tmp_path / "out" / "events.csv").read_bytes()).hexdigest()
            == "f53f4919f8c193d1ad8e1cc35e2172a83d90934e8ffc9fa87f26e9d2ba78998a")


# plr.csv, events.csv and handover_summary.txt of the run below.
REPORT_DIGESTS = {
    "plr.csv": "ad9da1cba45d5c56358b28de7562caa7cf70b4d317a6adeacec5a1007bd73dbd",
    "events.csv": "d82b21190d19a81df69e8ff796a65d3c29dc4e86dc53c5c2af66233e8b7466bc",
    "handover_summary.txt": "3df6b59bbece627efd6b5aa9e660eab7edad850e2cb1dfc71da937cbe004c72e",
}


def test_report_bytes_are_pinned(tmp_path):
    """The report of fig17 with random loss and an ASM epoch every 40
    frames, with one aborted retune added to the run's rows (fig17 itself
    aborts none)."""
    cfg = replace(harness.load_scenario(SCENARIOS / "handover_fig17.ini"),
                  asm_epoch_frames=40, random_loss_floor=0.03)
    metrics, events = harness.run_simulation(cfg)
    metrics.handover_records.append(
        HandoverEvent("cenb1", t_detect_ms=1503.0, t_restored_ms=1510.0, to_block=(),
                      aborted=True))
    events = sorted([*events, (1510.0, "cenb1", "RETUNE_ABORT", "target occupied")],
                    key=lambda row: row[0])
    assert {"ASM_EPOCH", "RETUNE_ABORT", "RETUNE_END"} <= {row[2] for row in events}
    written = harness.emit_report(metrics, tmp_path / "out", events)
    assert {Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in written} == REPORT_DIGESTS
