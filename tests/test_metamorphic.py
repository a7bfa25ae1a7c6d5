"""Metamorphic relations of sensing, fusion, occupancy and the guard band.

No output of these relations is known in advance; each pins how two
related runs must compare:

- raising one TV's EIRP, with the same seed, turns no sensing verdict of
  ``harness._BlockRadio.sense`` from occupied to vacant, because the
  detector noise and the shadowing draws do not depend on the powers;
- on the same verdicts, the channels that OR fuses to occupied include
  those that MAJORITY does;
- raising ``tvwsim occupancy``'s ``--threshold-dbm`` raises no duty
  cycle, band average or sub-band occupancy;
- shrinking ``interference.loss_budget``, with the same seed, narrows
  no guard band and lowers no binding ACIR, and a budget the sweep
  meets stays met when it grows.
"""

import io
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvwsim import cli, harness
from tvwsim.cenb import fuse_cooperative
from tvwsim.errors import SweepRangeError
from tvwsim.sensing import analytic_threshold_dbm

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
                     sense_duration_ms=cfg.schedule.sensing_time_ms)
    op_det = replace(op_det, threshold_dbm=analytic_threshold_dbm(op_det))
    radio = harness._BlockRadio(cfg, op_det, [c.location for c in cfg.cenbs],
                                [3.0, *cfg.schedule.downlink_subframes()])
    return np.concatenate([radio.sense(first, min(radio.frames_per_block, FRAMES - first))[1]
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


# One round: the (CeNBs, channels) verdicts of one to six CeNBs and the
# channels each of them reported.
ROUNDS = st.integers(1, 6).flatmap(lambda n: st.integers(1, 37).flatmap(
    lambda m: st.tuples(*[st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                   min_size=n, max_size=n)] * 2)))


@settings(max_examples=200, derandomize=True)
@given(rounds=ROUNDS)
def test_or_fuses_to_occupied_every_channel_majority_does(rounds):
    occupied, reporting = (np.array(a, dtype=bool) for a in rounds)
    majority = fuse_cooperative(occupied, reporting, "MAJORITY")
    assert not np.any(majority & ~fuse_cooperative(occupied, reporting, "OR"))


# Sweeps of eight bins, two per 8 MHz channel from 470 MHz, in dBm.
SWEEPS = st.lists(st.lists(st.integers(-110, -30), min_size=8, max_size=8),
                  min_size=1, max_size=8)


def _occupancy(trace, table, threshold):
    """Duty cycles, band average, and sub-band and overall occupancies that
    ``tvwsim occupancy`` prints at ``--threshold-dbm=threshold``."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["occupancy", str(trace), "--band-low=470", "--band-high=502",
                         "--exclude=", f"--threshold-dbm={threshold!r}",
                         "--subbands", str(table)]) == cli.EXIT_OK
    lines = out.getvalue().splitlines()
    first = lines.index("channel,low_mhz,duty_cycle,class") + 1
    duty = [float(line.split(",")[2]) for line in lines[first:first + 4]]
    average = float(lines[first + 4].split(": ")[1])
    subbands = [float(line.split()[2]) for line in lines[first + 7:]]
    return [*duty, average, *subbands]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sweeps=SWEEPS, low=st.floats(-120.0, -20.0), rise=st.floats(0.0, 40.0))
def test_a_higher_occupancy_threshold_raises_no_duty_cycle(tmp_path_factory, sweeps, low,
                                                           rise):
    work = tmp_path_factory.mktemp("occupancy")
    trace = work / "trace.csv"
    trace.write_text("t_ms,p_471,p_475,p_479,p_483,p_487,p_491,p_495,p_499\n"
                     + "".join(f"{10 * t},{','.join(map(str, row))}\n"
                               for t, row in enumerate(sweeps)), encoding="utf-8")
    table = work / "subbands.csv"
    table.write_text("low_mhz,high_mhz,label\n470,478,a\n478,494,b\n494,502,c\n",
                     encoding="utf-8")
    lower = _occupancy(trace, table, low)
    higher = _occupancy(trace, table, low + rise)
    assert len(lower) == len(higher) == 9
    assert all(h <= lo for h, lo in zip(higher, lower)), (lower, higher)


def _guard_band(path, budget, seed):
    """(separation MHz, binding ACIR dB) of the study at ``path`` under
    ``interference.loss_budget = budget``, or None when the sweep never
    meets the budget or the map holds no separation for it."""
    path.write_text(f"interference.snapshots = 20\ninterference.seed = {seed}\n"
                    f"interference.loss_budget = {budget!r}\n", encoding="utf-8")
    try:
        _, result = harness.run_interference_study(harness.load_acir_study(path))
    except SweepRangeError:
        return None
    return result.separation_mhz, result.binding_acir_db


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(budgets=st.lists(st.floats(0.005, 0.9), min_size=2, max_size=2, unique=True)
       .map(sorted), seed=st.integers(0, 20))
def test_a_smaller_loss_budget_narrows_no_guard_band(tmp_path_factory, budgets, seed):
    path = tmp_path_factory.mktemp("acir") / "study.ini"
    smaller, larger = (_guard_band(path, budget, seed) for budget in budgets)
    if smaller is not None:
        assert larger is not None
        assert larger[0] <= smaller[0] and larger[1] <= smaller[1]


def test_the_loss_budget_relation_is_not_vacuous(tmp_path):
    """The default geometry's guard band widens from a 0.3 to a 0.05 budget."""
    wide, narrow = (_guard_band(tmp_path / "study.ini", budget, 1) for budget in (0.05, 0.3))
    assert narrow[0] < wide[0]
