"""Exit-code contract of the ``tvwsim`` command.

A bad value on the command line or in a scenario or study file gives
exit code 2, a single ``error:`` line on stderr, nothing on stdout and
no traceback.
"""

import json
import os
import subprocess
import sys
import tracemalloc

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
    ("simulate", "cenb1.block = 3,5"),
    ("simulate", "cenb1.block = 40"),
    ("simulate", "cenb1.block = 0,1,2,3"),
    ("simulate", "cenb1.block ="),
    ("simulate", "cenb1.x_m = nan"),
    ("simulate", "cenb1.x_m = inf"),
    ("simulate", "cenb1.power_dbm = nan"),
    ("simulate", "prop.shadowing_sigma_db = nan"),
    ("simulate", "prop.exponent = inf"),
    ("simulate", "prop.ref_distance_m = inf"),
    ("simulate", "grid.exclusions = 566-inf"),
    ("simulate", "cenb1.id = a\ncenb2.id = a\ncenb2.x_m = 100"),
    ("simulate", "cenb1.id = cenb2\ncenb2.x_m = 100"),
    ("simulate", "cenb1.id ="),
    ("simulate", "cenb1.id = a,b"),
    ("simulate", "cenb1.id = a;b"),
    ("simulate", "cenb1.id = a:15"),
    ("roc", "--powers=0:1e300:1e-300"),
    ("acir", "interference.acir_db = 0:1e300:1e-300"),
    ("acir", "interference.snapshots = 0"),
    ("acir", "interference.isd_m = 0"),
    ("acir", "interference.freq_mhz = nan"),
    ("acir", "interference.acir_db = 0:inf:5"),
    ("acir", "interference.loss_budget = -1"),
    ("acir", "interference.loss_budget = 2"),
    ("acir", "interference.exponent = -3"),
    ("acir", "interference.exponent = 0"),
    ("roc", "--powers=-130:-110:1e-3"),
    ("acir", "interference.acir_db = 0:1:1e-6"),
    ("roc", "--powers=4000:4001:1"),
    ("acir", "interference.acir_db = 3000:3100:100"),
    ("acir", "interference.acir_db = -3300:-3200:100"),
    ("geodb", "--exclude=566-6x6"),
    ("occupancy", "--exclude=566-6x6"),
    ("geodb", "# grey_margin_m=-1e9"),
    ("geodb", "db,AnalogPalD,-1,0,0,60,30,-84,"),
    ("geodb", "db,AnalogPalD,99999999999999999999999,0,0,60,30,-84,"),
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
        # Not an option: the database's one metadata line, or its one record.
        path = tmp_path / "db.csv"
        option = arg.startswith("--")
        meta = "" if option or not arg.startswith("#") else f"{arg}\n"
        record = "" if option or arg.startswith("#") else f"{arg}\n"
        path.write_text(meta + GEODB_HEADER + record, encoding="utf-8")
        return ["geodb", "query", str(path), "--x=0", "--y=0", *([arg] if option else [])]
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


@pytest.mark.parametrize("ids, key", [
    (("a", "a"), "'cenb2.id'"),
    (("cenb2", None), "'cenb2.id'"),       # cenb2 keeps its default id
    (("", None), "'cenb1.id'"),
    (("x,y", None), "'cenb1.id'"),
])
def test_a_bad_cenb_id_names_its_key(tmp_path, capsys, ids, key):
    lines = "".join(f"cenb{n}.id = {cenb_id}\n" for n, cenb_id in enumerate(ids, start=1)
                    if cenb_id is not None)
    path = tmp_path / "input.ini"
    path.write_text(f"{SCENARIO_HEAD}{lines}cenb2.x_m = 100\n", encoding="utf-8")
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and key in captured.err


TX_HEADER = "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"

# Input files with one non-finite number each.
BAD_FILE_ROWS = [
    ("transmitters", "tv,AnalogPalD,3,100,0,inf,30,"),
    ("transmitters", "tv,AnalogPalD,3,100,0,nan,30,"),
    ("transmitters", "tv,AnalogPalD,3,100,0,-inf,30,"),
    ("transmitters", "tv,AnalogPalD,3,inf,0,40,30,"),
    ("transmitters", "tv,AnalogPalD,3,100,0,40,30,nan:5"),
    ("geodb", "db,AnalogPalD,3,nan,0,60,30,-84,"),
    ("geodb", "db,AnalogPalD,3,0,0,60,30,-inf,"),
    ("geodb", "db,AnalogPalD,3,0,0,60,30,-84,inf"),
]


@pytest.mark.parametrize("kind, row", BAD_FILE_ROWS,
                         ids=[f"{k} {r}" for k, r in BAD_FILE_ROWS])
def test_non_finite_file_value_is_a_config_error(tmp_path, capsys, kind, row):
    header = TX_HEADER if kind == "transmitters" else GEODB_HEADER
    (tmp_path / "input.csv").write_text(f"{header}{row}\n", encoding="utf-8")
    scenario = tmp_path / "input.ini"
    scenario.write_text(f"{SCENARIO_HEAD}files.{kind} = input.csv\n", encoding="utf-8")
    argv = ["simulate", str(scenario), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
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


@pytest.mark.parametrize("flag", ["--exponent=9", "--ref-loss-db=1"])
def test_geodb_separation_rejects_propagation_flags(capsys, flag):
    # The separation is a table lookup, so a propagation model would change nothing.
    with pytest.raises(SystemExit) as exc:
        cli.main(["geodb", "separation", "--power=30", "--height=30", flag])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


# A non-finite number in a float option is a usage error: argparse exits 2
# before the command runs.
NON_FINITE_OPTIONS = [
    ("geodb", "--x=nan"),
    ("geodb", "--eirp=inf"),
    ("separation", "--power=nan"),
    ("occupancy", "--threshold-dbm=-inf"),
]


@pytest.mark.parametrize("command, arg", NON_FINITE_OPTIONS,
                         ids=[f"{c} {a}" for c, a in NON_FINITE_OPTIONS])
def test_non_finite_option_is_a_usage_error(tmp_path, capsys, command, arg):
    argv = (["geodb", "separation", "--power=30", "--height=30", arg]
            if command == "separation" else _argv(tmp_path, command, arg))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {arg.split('=')[0]}: invalid finite_float value" in captured.err


# Stdout goldens of the analytics commands on small inline inputs.  In the
# database, channel 0's service is 1 km away inside its 2 km contour (Black),
# channel 1's is 1 km outside its 4 km contour (Grey) and channel 2's is far
# away with its radius computed from the propagation model (White).
GEODB = (GEODB_HEADER
         + "near,AnalogPalD,0,1000,0,60,100,-80,2000\n"
           "edge,DigitalDtmb,1,5000,0,60,100,-80,4000\n"
           "far,AnalogPalD,2,90000,0,60,100,-80,\n")
GEODB_STDOUT = {
    "query": ("channel,low_mhz,region\n0,470,Black\n1,478,Grey\n2,486,White\n"
              "# usable channels (white+grey): 2\n"),
    "contour": ("id,channel,protected_radius_m\n"
                "edge,1,4000\nfar,2,1450.226661\nnear,0,2000\n"),
}


@pytest.mark.parametrize("sub", sorted(GEODB_STDOUT))
def test_geodb_stdout(tmp_path, capsys, sub):
    path = tmp_path / "db.csv"
    path.write_text(GEODB, encoding="utf-8")
    args = ["--x=0", "--y=0", "--band-low=470", "--band-high=494", "--exclude="]
    argv = ["geodb", sub, str(path), *(args if sub == "query" else [])]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == GEODB_STDOUT[sub]


# Two channels of two bins each: channel 0 has one bin always on, channel 1
# one cell on in eight.
OCCUPANCY_TRACE = ("t_ms,p_471,p_475,p_479,p_483\n"
                   "0,-100,-60,-101,-99\n10,-99,-61,-70,-100\n"
                   "20,-101,-59,-100,-98\n30,-100,-62,-99,-101\n")
OCCUPANCY_STDOUT = """\
threshold rule: p10 noise estimate + 6 dB margin
noise floor estimate: -101 dBm
channel,low_mhz,duty_cycle,class
0,470,0.5,Intermittent
1,478,0.125,Sporadic
band_average: 0.3125
threshold rule: p10 noise estimate + 6 dB margin
    sub-band (MHz)  bandwidth  occupancy  label
     470-478              8M     0.5000  low
     478-486              8M     0.1250  high
           overall        16M     0.3125
wrote {out}
"""


def test_occupancy_stdout_with_subbands(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(OCCUPANCY_TRACE, encoding="utf-8")
    table = tmp_path / "subbands.csv"
    table.write_text("low_mhz,high_mhz,label\n470,478,low\n478,486,high\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["occupancy", str(trace), "--band-low=470", "--band-high=486",
                     "--exclude=", "--subbands", str(table), "--out", str(out)]) == cli.EXIT_OK
    report = out / "subband_report.csv"
    assert capsys.readouterr().out == OCCUPANCY_STDOUT.format(out=report)
    assert report.read_text(encoding="utf-8") == (
        "low_mhz,high_mhz,bandwidth_mhz,occupancy,label\n"
        "470,478,8,0.5,low\n478,486,8,0.125,high\noverall,,16,0.3125,\n")


# Study-file geometry that must be positive.
BAD_STUDY_GEOMETRY = [
    "interference.tv_radius_m = -5",
    "interference.tv_radius_m = 0",
    "interference.min_coupling_m = 0",
    "interference.min_coupling_m = -1",
    "interference.freq_mhz = 0",
]


def _assert_config_error(capsys, argv):
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("line", BAD_STUDY_GEOMETRY)
def test_bad_study_geometry_is_a_config_error(tmp_path, capsys, line):
    _assert_config_error(capsys, _argv(tmp_path, "acir", line))


CALIBRATION = {"noise_figure_db": "6", "snapshots_per_ms": "12500",
               "threshold_dbm": "-114.9", "k_required": "2"}

# One bad value in an otherwise good calibration file.
BAD_CALIBRATION = [
    ("threshold_dbm", "nan"),
    ("threshold_dbm", "inf"),
    ("threshold_dbm", "-1e999x"),
    ("snapshots_per_ms", "inf"),
    ("snapshots_per_ms", "1e308"),
    ("snapshots_per_ms", "0"),
    ("noise_figure_db", "nan"),
    ("k_required", "2.5"),
    ("k_required", "9"),
]


@pytest.mark.parametrize("key, value", BAD_CALIBRATION,
                         ids=[f"{k}={v}" for k, v in BAD_CALIBRATION])
def test_bad_calibration_value_is_a_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "cal.csv"
    rows = {**CALIBRATION, key: value}
    path.write_text("param,value\n" + "".join(f"{k},{v}\n" for k, v in rows.items()),
                    encoding="utf-8")
    _assert_config_error(capsys, ["roc", str(path), "--trials=1000", "--powers=-120:-118:1"])


# A bad row or cell in a CSV input: (what reads it, file name, file text,
# line of the bad cell).  The sub-band table is read before anything is
# printed.  The last geodb record needs -20 dBm at the 1 m reference
# distance from a 0 dBm service, so its blank radius has no contour.
BAD_CSV = [
    ("transmitters", "input.csv", TX_HEADER + "tv,AnalogPalD,3,100,0,40,30,,ninth\n", 2),
    ("geodb", "input.csv", GEODB_HEADER + "db,AnalogPalD,3,0,0,60,30,-84,,tenth\n", 2),
    ("geodb", "input.csv", GEODB_HEADER + "\ndb,AnalogPalD,3,0,0,0,30,-20,\n", 3),
    ("geodb", "input.csv", "# grey_margin_m=-1e9\n" + GEODB_HEADER, 1),
    ("geodb", "input.csv", GEODB_HEADER + "db,AnalogPalD,-1,0,0,60,30,-84,\n", 2),
    ("geodb", "input.csv",
     GEODB_HEADER + "db,AnalogPalD,99999999999999999999999,0,0,60,30,-84,\n", 2),
    ("separation", "sep.csv", "power_dbm,10,30\n0,100,nan\n10,300,400\n", 2),
    ("separation", "sep.csv", "power_dbm,10,30\n0,100,200\n10,inf,400\n", 3),
    ("separation", "sep.csv", "power_dbm,10,inf\n0,100,200\n10,300,400\n", 1),
    ("occupancy", "trace.csv", "t_ms,p_470.1,p_470.3\n0,-100,inf\n", 2),
    ("occupancy", "trace.csv", "t_ms,lat,lon,p_470.1\n0,nan,116.3,-100\n", 2),
    ("subbands", "subbands.csv", "low_mhz,high_mhz,label\n470,inf,open\n", 2),
    ("subbands", "subbands.csv", "low_mhz,high_mhz,label\n470,478,a\n478,470,b\n", 3),
    ("subbands", "subbands.csv", "low_mhz,high_mhz\n470,478\n", 1),
    ("transmitters", "input.csv", TX_HEADER + "tv,AnalogPalD,3,100,0,4000,30,\n", 2),
    ("transmitters", "input.csv", TX_HEADER + "tv,AnalogPalD,3,100,0,40,inf,\n", 2),
    ("transmitters", "input.csv", TX_HEADER + "\ntv,AnalogPalD,3,100,0,40,nan,\n", 3),
]


@pytest.mark.parametrize("command, name, text, line", BAD_CSV,
                         ids=[f"{c} {t.splitlines()[n - 1]}" for c, _, t, n in BAD_CSV])
def test_bad_csv_cell_names_file_and_line(tmp_path, capsys, command, name, text, line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if command in ("transmitters", "geodb"):
        scenario = tmp_path / "input.ini"
        scenario.write_text(f"{SCENARIO_HEAD}files.{command} = input.csv\n", encoding="utf-8")
        argv = ["simulate", str(scenario), "--out", str(tmp_path / "out")]
    elif command == "separation":
        argv = ["geodb", "separation", "--table", str(path), "--power=5", "--height=20"]
    elif command == "occupancy":
        argv = ["occupancy", str(path)]
    else:
        trace = tmp_path / "trace.csv"
        trace.write_text(OCCUPANCY_TRACE, encoding="utf-8")
        argv = ["occupancy", str(trace), "--band-low=470", "--band-high=486", "--exclude=",
                "--subbands", str(path)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}:{line}: ")


def test_overlapping_subbands_are_a_config_error(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(OCCUPANCY_TRACE, encoding="utf-8")
    table = tmp_path / "subbands.csv"
    table.write_text("low_mhz,high_mhz,label\n470,478,a\n474,486,b\n", encoding="utf-8")
    assert cli.main(["occupancy", str(trace), "--band-low=470", "--band-high=486",
                     "--exclude=", "--subbands", str(table)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {table}: sub-bands 'a' (470-478 MHz) and "
                            "'b' (474-486 MHz) overlap\n")


@pytest.mark.parametrize("freq", [500.0, 800.0])
def test_geodb_blank_radius_follows_freq(tmp_path, capsys, freq):
    from tvwsim.geodb import contour_radius_m
    from tvwsim.radio_env import PropagationConfig

    path = tmp_path / "db.csv"
    path.write_text(GEODB_HEADER + "far,AnalogPalD,2,90000,0,60,100,-84,\n", encoding="utf-8")
    radius = contour_radius_m(60.0, -84.0, PropagationConfig(), freq)
    assert cli.main(["geodb", "contour", str(path), f"--freq={freq}"]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"id,channel,protected_radius_m\nfar,2,{radius:.10g}\n"


# numpy seeds its streams from non-negative integers only.
@pytest.mark.parametrize("command, arg", [("simulate", "sim.seed = -1"),
                                          ("acir", "interference.seed = -3"),
                                          ("roc", "--seed=-1")])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, arg):
    argv = _argv(tmp_path, command, arg)
    if command == "simulate":
        (tmp_path / "input.ini").write_text(f"{arg}\n", encoding="utf-8")
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "non-negative integer seed" in captured.err


def test_frame_without_sensing_time_is_a_config_error(tmp_path, capsys):
    # Narrow scan senses in the guard period only; a 0 ms guard period leaves none.
    argv = _argv(tmp_path, "simulate", "frame.wide_scan = false\nframe.dwpts_ms = 0.9\n"
                                       "frame.gp_ms = 0\nframe.uppts_ms = 0.1")
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "no sensing time" in captured.err


def test_sub_millimetre_reference_distance_is_a_config_error(tmp_path, capsys):
    # distance / reference distance would overflow a double.
    argv = _argv(tmp_path, "simulate", "prop.ref_distance_m = 1e-306")
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "reference distance must be at least" in captured.err


@pytest.mark.parametrize("arg", ["frame.pattern = tdd-9",
                                 "frame.pattern = DDDDDDDDDD",
                                 "frame.gp_ms = 0.5",
                                 "frame.pattern = DSDDDDSDDD"])
def test_bad_frame_schedule_names_the_scenario_file(tmp_path, capsys, arg):
    argv = _argv(tmp_path, "simulate", arg)
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {argv[1]}: ")


@pytest.mark.parametrize("command, arg, name", [
    ("roc", "--powers=-130:-110:1e-3", "--powers"),
    ("acir", "interference.acir_db = 0:1:1e-6", "'interference.acir_db'"),
    ("acir", "interference.acir_db = 0:1001:1", "'interference.acir_db'"),
])
def test_a_sweep_over_the_point_cap_names_its_key(tmp_path, capsys, command, arg, name):
    assert cli.main(_argv(tmp_path, command, arg)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and "more than 1001 points" in captured.err


# Past the bound, 10 ** (level / 10) overflows (3090 dB and up) or reaches
# zero (-3240 dB and down) in the sweep.
@pytest.mark.parametrize("command, arg, name", [
    ("roc", "--powers=4000:4001:1", "--powers"),
    ("acir", "interference.acir_db = 3000:3100:100", "'interference.acir_db'"),
    ("acir", "interference.acir_db = -3300:-3200:100", "'interference.acir_db'"),
])
def test_a_sweep_past_the_level_bound_names_its_key(tmp_path, capsys, command, arg, name):
    assert cli.main(_argv(tmp_path, command, arg)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and "expected a level from -300 to 300 dB" in captured.err


def _powers_runs(tmp_path, capsys, forms):
    """(stdout, roc CSV bytes) of ``roc default`` under each ``--powers`` form."""
    runs = []
    for n, form in enumerate(forms):
        out = tmp_path / f"roc{n}.csv"
        assert cli.main(["roc", "default", "--trials=100", *form, "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out.replace(str(out), "roc.csv"), out.read_bytes()))
    return runs


def test_a_powers_sweep_in_two_words_is_the_one_word_form(tmp_path, capsys):
    runs = _powers_runs(tmp_path, capsys, (["--powers", "-120:-119:1"], ["--powers=-120:-119:1"]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flag", ["--pow", "--p"])
def test_an_abbreviated_powers_flag_in_two_words_is_the_one_word_form(tmp_path, capsys, flag):
    runs = _powers_runs(tmp_path, capsys, ([flag, "-120:-119:1"], ["--powers=-120:-119:1"]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("key", ["files.calibration", "files.transmitters", "files.geodb"])
def test_a_directory_for_an_input_file_names_its_key(tmp_path, capsys, key):
    (tmp_path / "inputs").mkdir()
    argv = _argv(tmp_path, "simulate", f"{key} = inputs")
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {argv[1]}: {key} is not a file: {tmp_path / 'inputs'}\n"


def test_a_trace_narrower_than_the_band_flags_names_the_trace_and_flags(tmp_path, capsys):
    # A 470-502 MHz trace under the default 470-806 MHz band.
    trace = tmp_path / "trace.csv"
    freqs = [f"p_{470.1 + 0.2 * i:.1f}" for i in range(160)]
    rows = "".join(f"{t},{','.join(['-100'] * len(freqs))}\n" for t in (0, 1000))
    trace.write_text(f"t_ms,{','.join(freqs)}\n{rows}", encoding="utf-8")
    assert cli.main(["occupancy", str(trace)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {trace}: channel 4 (502.0-510.0 MHz) has no bins")
    assert "--band-low" in captured.err and "--band-high" in captured.err


def test_a_sub_band_outside_the_trace_names_the_sub_band_table(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(OCCUPANCY_TRACE, encoding="utf-8")
    table = tmp_path / "subbands.csv"
    table.write_text("low_mhz,high_mhz,label\n470,478,a\n486,494,b\n", encoding="utf-8")
    assert cli.main(["occupancy", str(trace), "--band-low=470", "--band-high=486",
                     "--exclude=", "--subbands", str(table)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {table}: sub-band 486.0-494.0 MHz")


def test_a_sub_band_table_without_rows_is_a_config_error(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(OCCUPANCY_TRACE, encoding="utf-8")
    table = tmp_path / "subbands.csv"
    table.write_text("low_mhz,high_mhz,label\n", encoding="utf-8")
    assert cli.main(["occupancy", str(trace), "--band-low=470", "--band-high=486",
                     "--exclude=", "--subbands", str(table)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {table}: no sub-bands\n"


# One power row, one height column, or no power rows: nothing to interpolate
# between.  An axis from -1e308 to 1e308: its span overflows a double.
@pytest.mark.parametrize("text", ["power_dbm,10,30\n0,100,200\n",
                                  "power_dbm,10\n0,100\n10,300\n", "power_dbm,10,30\n",
                                  "power_dbm,10,30\n-1e308,100,200\n1e308,300,400\n",
                                  "power_dbm,-1e308,1e308\n0,100,200\n10,300,400\n"])
def test_a_separation_table_that_cannot_interpolate_is_a_config_error(tmp_path, capsys, text):
    table = tmp_path / "sep.csv"
    table.write_text(text, encoding="utf-8")
    argv = ["geodb", "separation", "--table", str(table), "--power=5", "--height=20"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {table}: each axis needs at least two values "
                            "and a finite span\n")


# 0.3 kHz splits the default 336 MHz band into 1.12 M bins; 1e-310 kHz
# into more bins than a double can count; 5e-324 kHz is 0 MHz as a double.
@pytest.mark.parametrize("rbw", ["0.3", "1e-310", "5e-324"])
def test_an_rbw_over_the_bin_cap_fails_before_its_bins_exist(tmp_path, capsys, rbw):
    argv = _argv(tmp_path, "simulate", f"radio.rbw_khz = {rbw}")
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[1]}: radio.rbw_khz = {float(rbw):g} ")
    assert peak < 8 * 1_120_000     # less than one float per bin


# One record on channel 3 and a protection floor no 20 dBm CeNB reaches:
# there is no interference contour to draw around the record.
@pytest.mark.parametrize("command", ["query", "simulate"])
def test_an_unreachable_protection_floor_is_a_config_error(tmp_path, capsys, command):
    db = tmp_path / "db.csv"
    db.write_text("# protection_floor_dbm=100\n" + GEODB_HEADER
                  + "db,AnalogPalD,3,0,0,60,30,-84,\n", encoding="utf-8")
    if command == "query":
        argv, power = ["geodb", "query", str(db), "--x", "100", "--y", "0"], "--eirp"
    else:
        argv = _argv(tmp_path, "simulate", "files.geodb = db.csv")
        power = "cenb1.power_dbm"
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert str(db) in captured.err and "protection_floor_dbm" in captured.err
    assert power in captured.err


# A level whose linear value overflows a double, or a value outside its
# model's range, is a configuration error that names its key or flag.
OUT_OF_RANGE = [
    ("acir", "interference.tv_eirp_dbm = 1e308", "'interference.tv_eirp_dbm'"),
    ("acir", "interference.exponent = 1e308", "'interference.exponent'"),
    ("acir", "interference.exponent = 1.5", "'interference.exponent'"),
    ("acir", "interference.tv_noise_figure_db = 4000", "'interference.tv_noise_figure_db'"),
    ("acir", "interference.tv_protection_snr_db = 4000",
     "'interference.tv_protection_snr_db'"),
    ("acir", "interference.freq_mhz = 1e308", "'interference.freq_mhz'"),
    ("simulate", "grid.high_mhz = 1e308", "grid.high_mhz"),
    ("simulate", "grid.channel_mhz = 5e-324", "grid.channel_mhz"),
    ("geodb", "--band-high=1e308", "--band-high"),
    ("geodb", "--channel-mhz=5e-324", "--channel-mhz"),
    ("occupancy", "--band-high=1e308", "--band-high"),
]


@pytest.mark.parametrize("command, arg, name", OUT_OF_RANGE,
                         ids=[f"{c} {a}" for c, a, _ in OUT_OF_RANGE])
def test_an_out_of_range_value_names_its_key(tmp_path, capsys, command, arg, name):
    assert cli.main(_argv(tmp_path, command, arg)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and name in captured.err


def test_a_reference_gain_that_overflows_names_its_key(tmp_path, capsys):
    # -4000 dB of reference loss puts one transmitter 4000 dB above its EIRP.
    (tmp_path / "tx.csv").write_text(TX_HEADER + "tv,AnalogPalD,3,100,0,40,30,\n",
                                     encoding="utf-8")
    argv = _argv(tmp_path, "simulate", "files.transmitters = tx.csv\nprop.ref_loss_db = -4000")
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {argv[1]}: bad value for 'prop.ref_loss_db': expected a "
                            "level from -300 to 300 dB, got -4000\n")


@pytest.mark.parametrize("sub", ["query", "contour"])
@pytest.mark.parametrize("flag", ["--exponent=1.5", "--exponent=1e308", "--ref-loss-db=1e308",
                                  "--freq=0", "--freq=-5", "--freq=1e308", "--freq=5e-324"])
def test_a_bad_propagation_flag_names_itself(tmp_path, capsys, sub, flag):
    path = tmp_path / "db.csv"
    path.write_text(GEODB, encoding="utf-8")
    argv = ["geodb", sub, str(path), *(["--x=0", "--y=0"] if sub == "query" else []), flag]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: bad value for {flag.split('=')[0]}: ")


@pytest.mark.parametrize("flag", ["--eirp=400", "--eirp=1e308", "--eirp=-400"])
def test_a_query_eirp_past_the_level_bound_names_itself(tmp_path, capsys, flag):
    path = tmp_path / "db.csv"
    path.write_text(GEODB, encoding="utf-8")
    assert cli.main(["geodb", "query", str(path), "--x=1e12", "--y=0", flag]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: bad value for --eirp: expected a level from -300 ")


@pytest.mark.parametrize("flag", ["--eirp=400", "--channel-mhz=0"])
def test_a_bad_query_flag_is_reported_before_a_bad_database_line(tmp_path, capsys, flag):
    path = tmp_path / "db.csv"
    path.write_text(GEODB + "pal,PAL,3,0,0,60,100,-80,\n", encoding="utf-8")
    assert cli.main(["geodb", "query", str(path), "--x=0", "--y=0", flag]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: bad value for {flag.split('=')[0]}: ")


def test_a_study_whose_links_carry_nothing_is_a_runtime_error(tmp_path, capsys):
    # Cells of 1e30 m: every UE's SNR underflows to 0, so the capacity loss
    # has no baseline to be measured against.
    argv = _argv(tmp_path, "acir", "interference.isd_m = 1e30\ninterference.snapshots = 2")
    assert cli.main(argv) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the LTE links carry no capacity even at infinite ACIR")


# A study length, a shadowing deviation, a reference distance or a
# path-loss exponent past its bound.  Each overflowed a double in the run,
# with numpy warnings, or (a reference distance under the model's 1 mm)
# failed in the model without naming the key, where a configuration error
# naming the key is due.
PAST_THE_BOUND = [
    ("acir", "interference.isd_m = 1e308"),
    ("acir", "interference.tv_radius_m = 1e308"),
    ("acir", "interference.offset_x_m = 1e308"),
    ("acir", "interference.offset_y_m = -1e308"),
    ("acir", "interference.min_coupling_m = 1e308"),
    ("acir", "interference.min_coupling_m = 5e-324"),
    ("simulate", "prop.shadowing_sigma_db = 1e5"),
    ("simulate", "prop.ref_distance_m = 1e300"),
    ("simulate", "prop.ref_distance_m = 1e-4"),
    # 0 dB per decade times an infinite 10 * exponent, at the clamped distance.
    ("simulate", "prop.exponent = 1e308\nprop.ref_distance_m = 500"),
]
# One always-on PAL-D TV 300 m from the CeNB.
ALWAYS_ON_TV = TX_HEADER + "tv,AnalogPalD,1,300,0,43,30,\n"


@pytest.mark.parametrize("command, arg", PAST_THE_BOUND,
                         ids=[a.split("\n")[0] for _, a in PAST_THE_BOUND])
def test_a_value_past_its_bound_names_its_key(tmp_path, capsys, command, arg):
    (tmp_path / "tx.csv").write_text(ALWAYS_ON_TV, encoding="utf-8")
    extra = "\nfiles.transmitters = tx.csv" if command == "simulate" else ""
    assert cli.main(_argv(tmp_path, command, arg + extra)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert f"bad value for '{arg.split(' = ')[0]}'" in captured.err


# A CeNB power past the bound of every other level in dB, with a
# one-record geo-database.  1e308 and 400 dBm ran to exit 0; -400 and
# -1e308 dBm failed on the unreachable protection floor, without naming
# the bad value as such.
@pytest.mark.parametrize("power", ["1e308", "400", "-400", "-1e308"])
def test_a_cenb_power_past_its_bound_names_its_key(tmp_path, capsys, power):
    (tmp_path / "db.csv").write_text(GEODB_HEADER + "far,AnalogPalD,2,90000,0,60,100,-80,\n",
                                     encoding="utf-8")
    argv = _argv(tmp_path, "simulate", f"cenb1.power_dbm = {power}\nfiles.geodb = db.csv")
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "bad value for 'cenb1.power_dbm'" in captured.err


def test_a_cenb_power_at_its_bound_runs(tmp_path, capsys):
    (tmp_path / "db.csv").write_text(GEODB_HEADER + "far,AnalogPalD,2,90000,0,60,100,-80,\n",
                                     encoding="utf-8")
    argv = _argv(tmp_path, "simulate", "cenb1.power_dbm = 300\nfiles.geodb = db.csv")
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


# Every bound at once runs without a numpy warning, which the test
# configuration turns into an error.
AT_THE_BOUND = [
    ("acir", "interference.isd_m = 1e150\ninterference.tv_radius_m = 1e150\n"
             "interference.offset_x_m = -1e150\ninterference.offset_y_m = 1e150\n"
             "interference.min_coupling_m = 1e-3\ninterference.snapshots = 2"),
    ("acir", "interference.isd_m = 1e150\ninterference.min_coupling_m = 1e150\n"
             "interference.snapshots = 2"),
    ("simulate", "prop.shadowing_sigma_db = 30\nprop.ref_distance_m = 1e5\n"
                 "prop.exponent = 10\nfiles.transmitters = tx.csv"),
]


@pytest.mark.parametrize("command, arg", AT_THE_BOUND)
def test_values_at_their_bounds_run_without_a_warning(tmp_path, capsys, command, arg):
    (tmp_path / "tx.csv").write_text(ALWAYS_ON_TV, encoding="utf-8")
    assert cli.main(_argv(tmp_path, command, arg)) in (cli.EXIT_OK, cli.EXIT_RUNTIME)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err


# Two CeNBs at opposite ends of the doubles: the allocator's distance
# between them overflowed, with a numpy warning, and the run exited 0.
@pytest.mark.parametrize("key", ["x_m", "y_m"])
@pytest.mark.parametrize("far", ["1e308", "-1e308", "1.000001e150"])
def test_a_cenb_coordinate_past_its_bound_names_its_key(tmp_path, capsys, key, far):
    (tmp_path / "tx.csv").write_text(ALWAYS_ON_TV, encoding="utf-8")
    arg = f"files.transmitters = tx.csv\ncenb1.{key} = {far}\ncenb2.{key} = -1e308"
    assert cli.main(_argv(tmp_path, "simulate", arg)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert f"bad value for 'cenb1.{key}'" in captured.err


def test_cenbs_at_the_coordinate_bound_run_without_a_warning(tmp_path, capsys):
    (tmp_path / "tx.csv").write_text(ALWAYS_ON_TV, encoding="utf-8")
    (tmp_path / "db.csv").write_text(GEODB_HEADER + "far,AnalogPalD,2,90000,0,60,100,-80,\n",
                                     encoding="utf-8")
    arg = ("files.transmitters = tx.csv\nfiles.geodb = db.csv\n"
           "cenb1.x_m = 1e150\ncenb1.y_m = -1e150\ncenb2.x_m = -1e150\ncenb2.y_m = 1e150")
    assert cli.main(_argv(tmp_path, "simulate", arg)) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


# Prints the tvwsim modules loaded after running ``cli.main`` on the
# arguments given, or after a bare ``import tvwsim`` without any.
LOADED_MODULES = """\
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv:
    from tvwsim import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
else:
    import tvwsim
print(json.dumps(sorted(name for name in sys.modules if name.startswith("tvwsim"))))
"""


def _loaded_modules(argv):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(argv)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv", [["roc", "default", "--trials", "100", "--powers=-120:-119:1"],
                                  ["geodb", "separation", "--power", "30", "--height", "30"]],
                         ids=["roc", "geodb separation"])
def test_a_command_loads_only_its_subsystem(argv):
    # In a fresh interpreter: neither command imports the frame loop, the
    # coexistence study or the occupancy analytics.
    loaded = _loaded_modules(argv)
    for name in ("tvwsim.harness", "tvwsim.cenb", "tvwsim.interference", "tvwsim.occupancy"):
        assert name not in loaded


def test_importing_the_package_loads_only_the_radio_environment():
    assert _loaded_modules([]) == ["tvwsim", "tvwsim.errors", "tvwsim.radio_env"]
