"""Exit-code contract of the ``tvwsim`` command.

A bad value on the command line or in a scenario or study file gives
exit code 2, a single ``error:`` line on stderr, nothing on stdout and
no traceback.
"""

import pytest

from tvwsim import cli

GEODB_HEADER = "id,standard,channel,x_m,y_m,eirp_dbm,height_m,required_rx_dbm,protected_radius_m\n"
TRACE = "t_ms,p_470.1,p_470.3\n0,-100,-100\n"
SCENARIO_HEAD = "sim.seed = 1\nsim.duration_ms = 100\n"

BAD_INPUTS = [
    ("roc", "--powers=-120:-110:0"),
    ("roc", "--powers=-110:-120:1"),
    ("roc", "--trials=0"),
    ("simulate", "grid.exclusions = 566-6x6"),
    ("simulate", "grid.exclusions = 566-600"),
    ("simulate", "grid.channel_mhz = 7"),
    ("simulate", "sim.operational_pfa = 0"),
    ("simulate", "prop.exponent = 1"),
    ("simulate", "sim.asm_epoch_frames = 0"),
    ("simulate", "sim.packets_per_dl_subframe = 0"),
    ("simulate", "radio.rbw_khz = 0"),
    ("simulate", "grid.channel_mhz = 0"),
    ("simulate", "grid.low_mhz = 900"),
    ("simulate", "cenb1.dedicated_low_mhz = 710"),
    ("simulate", "interference.enabled = true\ninterference.isd_m = 0"),
    ("simulate", "sim.random_loss_floor = 2"),
    ("simulate", "prop.ref_distance_m = 0"),
    ("simulate", "sim.retune_ms = -5"),
    ("acir", "interference.snapshots = 0"),
    ("acir", "interference.isd_m = 0"),
    ("geodb", "--exclude=566-6x6"),
    ("occupancy", "--exclude=566-6x6"),
]


def _argv(tmp_path, command, arg):
    out = str(tmp_path / "out")
    if command == "roc":
        return ["roc", "default", "--trials=100", arg]
    if command in ("simulate", "acir"):
        path = tmp_path / "input.ini"
        head = SCENARIO_HEAD if command == "simulate" else ""
        path.write_text(f"{head}{arg}\n", encoding="utf-8")
        return [command, str(path), "--out", out]
    if command == "geodb":
        path = tmp_path / "db.csv"
        path.write_text(GEODB_HEADER, encoding="utf-8")
        return ["geodb", "query", str(path), "--x=0", "--y=0", arg]
    path = tmp_path / "trace.csv"
    path.write_text(TRACE, encoding="utf-8")
    return ["occupancy", str(path), arg]


@pytest.mark.parametrize("command, arg", BAD_INPUTS,
                         ids=[f"{c} {a}" for c, a in BAD_INPUTS])
def test_bad_input_is_a_config_error(tmp_path, capsys, command, arg):
    assert cli.main(_argv(tmp_path, command, arg)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_run_without_handover_prints_the_summary_it_writes(tmp_path, capsys):
    scenario = tmp_path / "quiet.ini"
    scenario.write_text(SCENARIO_HEAD + "grid.exclusions =\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["simulate", str(scenario), "--out", str(out)]) == cli.EXIT_OK
    summary = "handovers: 0\nmean_latency_ms:\nmax_latency_ms:\n"
    assert (out / "handover_summary.txt").read_text(encoding="utf-8") == summary
    assert summary in capsys.readouterr().out
