"""Frame loop of ``harness.run_simulation``: detector, handover timeline, X2 fusion."""

import hashlib
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvwsim import harness
from tvwsim.radio_env import (
    PropagationConfig,
    ScheduleTable,
    TvStandard,
    TvTransmitter,
    china_tv_grid,
    dbm_to_mw,
    path_loss,
    received_spectrum,
    synthesize_tv_spectrum,
    thermal_noise_dbm,
)
from tvwsim.sensing import (
    Decision,
    analytic_threshold_dbm,
    carrier_windows,
    default_calibration,
    detect_channels,
    detect_tv,
    estimate_roc,
    measure_pfa,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_detect_tv_matches_the_frame_loop_detector():
    grid = china_tv_grid()
    cfg = default_calibration()
    txs = [TvTransmitter(id=f"tv{ch}", standard=TvStandard.ANALOG_PAL_D, channel_index=ch,
                         location=(d, 0.0), eirp_dbm=43.0)
           for ch, d in ((5, 2000.0), (25, 300.0))]
    spectrum = received_spectrum((0.0, 0.0), txs, 0.0, PropagationConfig(), grid,
                                 noise_figure_db=cfg.noise_figure_db,
                                 snapshots=cfg.n_snapshots(), rng=np.random.default_rng(3))
    windows = carrier_windows(spectrum.bin_centers_mhz(), grid.low_edges_mhz, cfg)
    stats, occupied = detect_channels(cfg, spectrum.bins_mw(), windows)

    assert stats.shape == (grid.n_channels, cfg.n_carriers)
    assert occupied[5] and occupied[25] and occupied.sum() < grid.n_channels
    for ch in range(grid.n_channels):
        report = detect_tv(cfg, spectrum, ch, grid)
        assert (report.decision is Decision.OCCUPIED) == bool(occupied[ch])
        assert report.carrier_stats_dbm == tuple(stats[ch])


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


def test_frame_loop_window_means_equal_the_single_point_api(tmp_path):
    cfg, points, det = _array_scenario(tmp_path)
    windows, links = harness.sensing_links(cfg, det, points)
    schedules = ScheduleTable(cfg.transmitters)
    noise_mw = dbm_to_mw(thermal_noise_dbm(cfg.rbw_khz, det.noise_figure_db))
    for t in (0.0, 120.0, 200.0, 260.0, 350.0):
        on = schedules.active(t)[0]
        means = links.mean_mw(on).reshape(len(points), *windows.shape)
        for point, mean in zip(points, means):
            single = received_spectrum(point, cfg.transmitters, t, cfg.prop, cfg.grid,
                                       rbw_khz=cfg.rbw_khz, noise_figure_db=det.noise_figure_db)
            np.testing.assert_allclose(mean, single.bins_mw()[windows], rtol=1e-12)
            # The same sum, one synthesized spectrum per active transmitter.
            total = noise_mw + sum(
                synthesize_tv_spectrum(tx, cfg.grid, cfg.rbw_khz, tx.eirp_dbm - path_loss(
                    cfg.prop, _link_distance(cfg, point, tx),
                    cfg.grid.center_mhz(tx.channel_index))).bins_mw()
                for tx, is_on in zip(cfg.transmitters, on) if is_on)
            np.testing.assert_allclose(mean, total[windows], rtol=1e-12)


def test_frame_loop_shadowing_takes_the_sequential_path_loss_draws(tmp_path):
    cfg, points, det = _array_scenario(tmp_path, "prop.shadowing_sigma_db = 6\n")
    _, links = harness.sensing_links(cfg, det, points)
    sequential = replace(cfg.prop, _rng=None)
    schedules = ScheduleTable(cfg.transmitters)
    for t in (200.0, 350.0):        # two frames: the stream runs on
        on = schedules.active(t)[0]
        expected = [[10.0 ** ((tx.eirp_dbm - path_loss(
                        sequential, _link_distance(cfg, point, tx),
                        cfg.grid.center_mhz(tx.channel_index))) / 10.0)
                     for tx, is_on in zip(cfg.transmitters, on) if is_on]
                    for point in points]
        np.testing.assert_allclose(links.gains_mw(on), expected, rtol=1e-12)
    assert cfg.prop._rng is None    # the loaded config's stream is not advanced


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
                     sense_duration_ms=cfg.schedule.sensing_time_ms, threshold_dbm=None)
    op_det.threshold_dbm = analytic_threshold_dbm(op_det)
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
    det = replace(default_calibration(), target_pfa=0.05, threshold_dbm=None)
    det.threshold_dbm = analytic_threshold_dbm(det)
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


def test_frame_loop_outputs_do_not_depend_on_the_block_length(tmp_path, monkeypatch):
    (tmp_path / "tx.csv").write_text(MAJORITY_TRANSMITTERS, encoding="utf-8")
    scenario = tmp_path / "or.ini"
    cenbs = "".join(f"cenb{i}.x_m = {x}\ncenb{i}.block = 24,25,26\n"
                    for i, x in enumerate((0, 20000, 9000), start=1))
    scenario.write_text("sim.seed = 13\nsim.duration_ms = 3070\nsim.fusion_rule = OR\n"
                        "sim.random_loss_floor = 0.05\nprop.shadowing_sigma_db = 4\n"
                        f"files.transmitters = tx.csv\n{cenbs}", encoding="utf-8")
    cfg = harness.load_scenario(scenario)
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
