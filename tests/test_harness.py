"""Frame loop of ``harness.run_simulation``: detector, handover timeline, X2 fusion."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from tvwsim import harness
from tvwsim.radio_env import (
    PropagationConfig,
    TvStandard,
    TvTransmitter,
    china_tv_grid,
    received_spectrum,
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


def test_fig17_handover_timeline():
    metrics, _ = harness.run_simulation(harness.load_scenario(SCENARIOS / "handover_fig17.ini"))
    assert [r.latency_ms for r in metrics.handover_records if not r.aborted] == [27.0]
    lost = np.zeros(metrics.plr.size)
    lost[100:103] = 1.0
    assert np.array_equal(metrics.plr, lost)


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
