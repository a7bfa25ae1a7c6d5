"""Metamorphic relations of the frame loop's sensing and fusion.

No output of these relations is known in advance; each pins how two
related runs must compare:

- raising one TV's EIRP, with the same seed, turns no sensing verdict of
  ``harness._BlockRadio.sense`` from occupied to vacant, because the
  detector noise and the shadowing draws do not depend on the powers;
- on the same verdicts, the channels that OR fuses to occupied include
  those that MAJORITY does.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvwsim import harness
from tvwsim.cenb import fuse_cooperative
from tvwsim.sensing import Decision, SensingReport, analytic_threshold_dbm

FRAMES = 40

# PAL-D services 6-9 km from the CeNBs, received near the operational
# threshold, so that both verdicts occur and a 3 dB rise flips some.
TV_ROWS = st.lists(
    st.tuples(st.integers(0, 36), st.floats(6000.0, 9000.0), st.floats(40.0, 46.0),
              st.sampled_from(["", "0:150", "100:400"])),
    min_size=1, max_size=4)


def _sense_all(cfg, transmitters):
    """Every frame's (frames, CeNBs, channels) verdicts of a run over ``transmitters``."""
    cfg = replace(cfg, transmitters=transmitters)
    # The frame loop's operational detector, as run_simulation builds it.
    op_det = replace(cfg.detector, target_pfa=cfg.operational_pfa,
                     sense_duration_ms=cfg.schedule.sensing_time_ms, threshold_dbm=None)
    op_det.threshold_dbm = analytic_threshold_dbm(op_det)
    radio = harness._BlockRadio(cfg, op_det, [c.location for c in cfg.cenbs],
                                [3.0, *cfg.schedule.downlink_subframes()])
    return np.concatenate([radio.sense(first, min(radio.frames_per_block, FRAMES - first))[2]
                           for first in range(0, FRAMES, radio.frames_per_block)])


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tvs=TV_ROWS, raised=st.integers(0, 3), seed=st.integers(0, 1000),
       sigma=st.sampled_from([0, 4]), cenbs=st.integers(1, 3))
def test_raising_a_tv_power_turns_no_verdict_to_vacant(tmp_path_factory, tvs, raised, seed,
                                                        sigma, cenbs):
    work = tmp_path_factory.mktemp("power")
    rows = "".join(f"tv{n},AnalogPalD,{ch},{x!r},0,{eirp!r},30,{schedule}\n"
                   for n, (ch, x, eirp, schedule) in enumerate(tvs))
    (work / "tx.csv").write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                                 + rows, encoding="utf-8")
    positions = "".join(f"cenb{n}.y_m = {500 * (n - 1)}\n" for n in range(1, cenbs + 1))
    (work / "s.ini").write_text(f"sim.seed = {seed}\nsim.duration_ms = {10 * FRAMES}\n"
                                f"prop.shadowing_sigma_db = {sigma}\n"
                                f"files.transmitters = tx.csv\n{positions}", encoding="utf-8")
    cfg = harness.load_scenario(work / "s.ini")
    raised %= len(tvs)
    louder = [replace(tx, eirp_dbm=tx.eirp_dbm + 3.0) if n == raised else tx
              for n, tx in enumerate(cfg.transmitters)]

    before = _sense_all(cfg, cfg.transmitters)
    after = _sense_all(cfg, louder)
    assert not np.any(before & ~after)      # no occupied verdict turns vacant


def test_a_power_rise_turns_some_vacant_verdicts_occupied(tmp_path):
    """The relation above is not vacuous: a 3 dB rise on a TV near the
    threshold does turn verdicts occupied."""
    (tmp_path / "tx.csv").write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                                     "tv,AnalogPalD,20,7000,0,43,30,\n", encoding="utf-8")
    (tmp_path / "s.ini").write_text(f"sim.seed = 3\nsim.duration_ms = {10 * FRAMES}\n"
                                    "files.transmitters = tx.csv\n", encoding="utf-8")
    cfg = harness.load_scenario(tmp_path / "s.ini")
    before = _sense_all(cfg, cfg.transmitters)
    after = _sense_all(cfg, [replace(cfg.transmitters[0], eirp_dbm=46.0)])
    assert 0 < before[:, 0, 20].sum() < after[:, 0, 20].sum()


# Per channel, the verdicts of one to six CeNBs; the reports of one round.
ROUNDS = st.lists(st.lists(st.booleans(), min_size=1, max_size=6), min_size=1, max_size=37)


@settings(max_examples=200, derandomize=True)
@given(rounds=ROUNDS)
def test_or_fuses_to_occupied_every_channel_majority_does(rounds):
    def fused(rule):
        occupied = set()
        for ch, verdicts in enumerate(rounds):
            reports = [SensingReport(f"c{n}", ch,
                                     Decision.OCCUPIED if hit else Decision.VACANT,
                                     (), 1003.0) for n, hit in enumerate(verdicts)]
            if fuse_cooperative(reports[0], reports[1:], rule).decision is Decision.OCCUPIED:
                occupied.add(ch)
        return occupied

    assert fused("MAJORITY") <= fused("OR")
