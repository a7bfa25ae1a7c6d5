"""Frame loop of ``harness.run_simulation``: detector, handover timeline, X2 fusion."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
    carrier_windows,
    default_calibration,
    detect_channels,
    detect_tv,
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
