"""Occupancy analytics against synthetic sweep traces with known ground truth.

A receiver at the origin sweeps a four-channel DTMB band once a second.
The mean bin powers come from ``radio_env.ScheduleTable`` and
``LinkArrays``; each cell is then averaged over ``SNAPSHOTS`` noisy
snapshots (a unit-mean Gamma factor), as a swept analyser would.  The
channels are:

* 0: a TV always on;
* 1: a TV on in each one-second slot with probability ``P_ON``;
* 2: a TV on in sparse one-slot bursts, with probability ``P_BURST``;
* 3: no TV.

Each TV bin is received 20 dB or more above the thermal floor, and a
noise cell reaches the floor + 6 dB threshold with a probability below
1e-27, so every cell is above the threshold exactly when its TV is on.
"""

import math

import numpy as np
import pytest

from tvwsim import cli
from tvwsim.occupancy import (
    ChannelClass,
    ThresholdRule,
    band_average,
    classify_channel,
    duty_cycle,
    ingest_trace,
    summarize_band,
)
from tvwsim.radio_env import (
    FrequencyBand,
    LinkArrays,
    PropagationConfig,
    ScheduleTable,
    TvStandard,
    TvTransmitter,
    build_channel_grid,
)

GRID = build_channel_grid(FrequencyBand(470.0, 502.0), 8.0)
RBW_KHZ = 200.0
N_SWEEPS = 400
SLOT_MS = 1000.0
SNAPSHOTS = 50
P_ON = 0.4
P_BURST = 0.02
# A duty cycle lies within Z binomial standard deviations of its true
# on-fraction: a draw outside fails with probability below 1e-4.
Z = 4.0
SUBBANDS = [(470.0, 478.0, "always"), (478.0, 494.0, "switched"), (494.0, 502.0, "idle")]


def _intervals(on_slots):
    """Merge the on slots (a boolean per slot) into sorted (on_ms, off_ms) intervals."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], on_slots.astype(np.int8), [0]))))
    return tuple((float(a * SLOT_MS), float(b * SLOT_MS)) for a, b in edges.reshape(-1, 2))


def _trace(seed):
    """(timestamps, bin centers, power in dBm, true on-flags per TV) of one trace."""
    rng = np.random.default_rng(seed)
    schedules = [(), _intervals(rng.random(N_SWEEPS) < P_ON),
                 _intervals(rng.random(N_SWEEPS) < P_BURST)]
    txs = [TvTransmitter(id=f"tv{ch}", standard=TvStandard.DIGITAL_DTMB, channel_index=ch,
                         location=(300.0 * (ch + 1), 0.0), eirp_dbm=50.0, schedule=schedule)
           for ch, schedule in enumerate(schedules)]
    n_bins = int(round(GRID.band.width_mhz / (RBW_KHZ / 1000.0)))
    links = LinkArrays([(0.0, 0.0)], txs, PropagationConfig(), GRID, np.arange(n_bins),
                       RBW_KHZ)
    t_ms = (np.arange(N_SWEEPS) + 0.5) * SLOT_MS     # mid-slot
    on = ScheduleTable(txs).active(t_ms)
    mean_mw = links.mean_mw(on)[:, 0]
    cells_mw = mean_mw * rng.gamma(SNAPSHOTS, 1.0 / SNAPSHOTS, size=mean_mw.shape)
    freqs = GRID.band.low_mhz + (np.arange(n_bins) + 0.5) * RBW_KHZ / 1000.0
    return t_ms, freqs, 10.0 * np.log10(cells_mw), on


def _write_trace(path, t_ms, freqs, power_dbm):
    header = ",".join(["t_ms", *(f"p_{f!r}" for f in freqs.tolist())])
    rows = [",".join([repr(float(t)), *map(repr, row.tolist())])
            for t, row in zip(t_ms, power_dbm)]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module", params=[3, 11])
def trace(request, tmp_path_factory):
    t_ms, freqs, power_dbm, on = _trace(request.param)
    path = _write_trace(tmp_path_factory.mktemp("trace") / "trace.csv", t_ms, freqs, power_dbm)
    return ingest_trace(path), path, on


def _binomial_bound(p):
    return Z * math.sqrt(p * (1.0 - p) / N_SWEEPS)


def test_duty_cycles_match_the_schedules(trace):
    matrix, _, on = trace
    _, threshold = ThresholdRule().levels(matrix)
    duty = duty_cycle(matrix, GRID, threshold)
    # Every cell of a channel is above the threshold exactly when its TV is on.
    np.testing.assert_array_equal(duty, [*on.mean(axis=0), 0.0])
    for measured, p in zip(duty, (1.0, P_ON, P_BURST, 0.0)):
        assert abs(measured - p) <= _binomial_bound(p)
    assert band_average(GRID, duty) == pytest.approx(duty.mean(), abs=1e-15)


def test_channel_classes(trace):
    matrix, _, _ = trace
    noise, _ = ThresholdRule().levels(matrix)
    labels = [classify_channel(matrix, GRID, ch, noise) for ch in range(GRID.n_channels)]
    assert [c.label for c in labels] == [ChannelClass.PERSISTENT, ChannelClass.INTERMITTENT,
                                         ChannelClass.SPORADIC, ChannelClass.SPORADIC]
    assert [c.never_seen for c in labels] == [False, False, False, True]


def test_subband_shares_are_the_channel_duty_cycles(trace):
    matrix, _, on = trace
    _, threshold = ThresholdRule().levels(matrix)
    rows, overall = summarize_band(matrix, SUBBANDS, threshold)
    switched = (on[:, 1].mean() + on[:, 2].mean()) / 2
    assert [r.occupancy for r in rows] == pytest.approx([1.0, switched, 0.0], abs=1e-15)
    assert overall == pytest.approx((8.0 + 16.0 * switched) / 32.0, abs=1e-15)


def test_one_noise_floor_per_trace(trace):
    matrix, _, _ = trace
    noise, threshold = ThresholdRule().levels(matrix)
    assert noise == float(np.percentile(matrix.power_dbm, 10.0))
    assert threshold == noise + 6.0
    assert ThresholdRule(fixed_dbm=-80.0).levels(matrix) == (noise, -80.0)


def _occupancy_stdout(capsys, path, *options):
    assert cli.main(["occupancy", str(path), "--band-low=470", "--band-high=502",
                     "--exclude=", *options]) == cli.EXIT_OK
    return capsys.readouterr().out.splitlines()


def _report(lines):
    """(header noise floor, per-channel (duty, class) rows, band average) of a report."""
    noise = float(lines[1].removeprefix("noise floor estimate: ").removesuffix(" dBm"))
    rows = [line.split(",") for line in lines[3:3 + GRID.n_channels]]
    average = float(lines[3 + GRID.n_channels].removeprefix("band_average: "))
    return noise, [(float(duty), label) for _, _, duty, label in rows], average


def test_always_on_channel_reports_full_duty(trace, capsys):
    _, path, _ = trace
    _, rows, _ = _report(_occupancy_stdout(capsys, path))
    assert rows[0] == (1.0, "Persistent")


def test_report_header_floor_is_the_thresholds_floor(trace, capsys):
    matrix, path, _ = trace
    lines = _occupancy_stdout(capsys, path)
    assert lines[0] == "threshold rule: p10 noise estimate + 6 dB margin"
    noise, rows, average = _report(lines)
    duty = duty_cycle(matrix, GRID, noise + 6.0)
    assert [d for d, _ in rows] == pytest.approx(duty.tolist(), rel=1e-9)
    assert average == pytest.approx(band_average(GRID, duty), rel=1e-9)
    # A fixed threshold changes the duty cycles, not the floor the classes use.
    fixed = _occupancy_stdout(capsys, path, "--threshold-dbm=-60")
    assert fixed[0] == "threshold rule: fixed -60 dBm"
    fixed_noise, fixed_rows, _ = _report(fixed)
    assert fixed_noise == noise
    assert [label for _, label in fixed_rows] == [label for _, label in rows]
    assert [d for d, _ in fixed_rows] == [0.0] * GRID.n_channels
