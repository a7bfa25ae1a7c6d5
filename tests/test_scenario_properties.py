"""Property tests of ``tvwsim simulate`` and ``tvwsim acir`` over generated keys.

For any value of the ``sim.*``, ``frame.*``, ``prop.*``, ``grid.*``,
``cenbN.*`` and ``files.*`` scenario keys, and of the ``interference.*``
study keys, the command exits with 0, 2 or 3 and raises nothing (a
traceback), a configuration error names the input file, and two runs on
the same config bytes write the same bytes.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvwsim import cli

# Two CeNBs, a TV switching on 300 m from the first and one always on: a
# short run can sense, fuse, decide and hand over.
TRANSMITTERS = ("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                "tv-a,AnalogPalD,1,300,0,43,30,40:120\n"
                "tv-b,DigitalDtmb,20,6000,0,50,30,\n")
CENBS = "cenb1.x_m = 0\ncenb2.x_m = 2000\n"

BAD_TEXT = st.sampled_from(["", "nan", "inf", "-inf", "1e400", "x", "-1", "0", "0.5",
                            "1e-307", "tdd-9", "maybe", "AND"])


def _numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(lambda v: f"{v:g}")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# Values in range, edges included; ``scenario_keys`` puts a bad value in
# one key of half the examples.
KEYS = {
    "sim.seed": st.one_of(_ints(0, 50), _ints(0, 2**64 + 3)),
    "sim.duration_ms": st.integers(1, 25).map(lambda n: str(10 * n)),  # at most 25 frames
    "sim.operational_pfa": _numbers(1e-9, 1.0),
    "sim.packets_per_dl_subframe": _ints(1, 40),
    "sim.retune_ms": _numbers(0.0, 60.0),
    "sim.random_loss_floor": _numbers(0.0, 1.0),
    "sim.fusion_rule": st.sampled_from(["OR", "MAJORITY", "OFF", "majority"]),
    "sim.asm_epoch_frames": _ints(1, 12),
    "sim.asm_reuse_distance_m": _numbers(-100.0, 5000.0),
    "frame.pattern": st.sampled_from(["tdd-1", "tdd-2", "DSUUUDSUUU", "DSDDDDSDDD"]),
    "frame.wide_scan": st.sampled_from(["true", "false", "yes", "off"]),
    "prop.exponent": _numbers(2.0, 6.0),
    "prop.ref_distance_m": _numbers(0.002, 500.0),
    "prop.ref_loss_db": _numbers(-60.0, 120.0),
    "prop.shadowing_sigma_db": _numbers(0.0, 12.0),
}
# The special subframe's split must sum to 1 ms: drawn as one triple.
SPLIT_KEYS = ("frame.dwpts_ms", "frame.gp_ms", "frame.uppts_ms")
split = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda ab: (min(ab), max(ab) - min(ab), 1.0 - max(ab)))


@st.composite
def scenario_keys(draw):
    keys = draw(st.fixed_dictionaries({}, optional=KEYS))
    if draw(st.booleans()):
        keys.update(zip(SPLIT_KEYS, (repr(v) for v in draw(split))))
    if draw(st.booleans()):     # one key out of range or malformed
        keys[draw(st.sampled_from([*KEYS, *SPLIT_KEYS]))] = draw(BAD_TEXT)
    return keys


def _cli(command, path, out, capsys):
    rc = cli.main([command, str(path), "--out", str(out)])
    captured = capsys.readouterr()
    files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))} \
        if out.exists() else {}
    return rc, captured.out, captured.err, files


def _simulate(scenario, out, capsys):
    return _cli("simulate", scenario, out, capsys)


# Derandomized, so that every run of the suite checks the same examples.
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=scenario_keys())
def test_simulate_exit_code_contract_and_determinism(tmp_path_factory, capsys, keys):
    work = tmp_path_factory.mktemp("scenario")
    (work / "tx.csv").write_text(TRANSMITTERS, encoding="utf-8")
    lines = "".join(f"{key} = {value}\n" for key, value in keys.items())
    if "sim.seed" not in keys:
        lines = "sim.seed = 1\n" + lines
    scenario = work / "s.ini"
    scenario.write_text(f"{lines}files.transmitters = tx.csv\n{CENBS}", encoding="utf-8")

    rc, out, err, files = _simulate(scenario, work / "a", capsys)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    assert "Traceback" not in err
    if rc == cli.EXIT_OK:
        assert sorted(files) == ["events.csv", "handover_summary.txt", "plr.csv"]
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if rc == cli.EXIT_CONFIG:
        assert err.startswith(f"error: {scenario}: ")       # names the file
    second = _simulate(scenario, work / "b", capsys)
    assert second[0] == rc and second[3] == files
    assert second[1].replace(str(work / "b"), str(work / "a")) == out


def _check_contract(command, path, work, capsys, expected_files):
    """Run twice on ``path``: exit-code contract, error line and equal bytes."""
    rc, out, err, files = _cli(command, path, work / "a", capsys)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    assert "Traceback" not in err
    if rc == cli.EXIT_OK:
        assert sorted(files) == expected_files
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if rc == cli.EXIT_CONFIG:
        assert err.startswith(f"error: {path}: ")           # names the file
    second = _cli(command, path, work / "b", capsys)
    assert second[0] == rc and second[3] == files
    assert second[1].replace(str(work / "b"), str(work / "a")) == out


# A band of whole channels (low, width, count), so that most grids load.
grid_band = st.tuples(st.sampled_from([470.0, 462.0, 300.5]),
                      st.sampled_from([8.0, 6.0, 4.0, 16.0, 7.9]), st.integers(21, 45))
EXCLUSIONS = st.sampled_from(["", "566-606", "470-478;566-606", "598-606", "600-700",
                              "700-600"])
CENB_IDS = st.sampled_from(["a", "b", "A", "cenb1", "cenb2", "cenb3", "c-1", "",
                            "a,b", "x;y", "p:q"])
CENB_KEYS = {
    "id": CENB_IDS,
    "y_m": _numbers(-3000.0, 3000.0),
    "power_dbm": _numbers(-10.0, 50.0),
    "block": st.sampled_from(["auto", "AUTO", "3", "3,4,5", "5,4", "20,21", "36", "0,1,2",
                              "12,14"]),
}


@st.composite
def cenb_grid_keys(draw):
    keys = {}
    if draw(st.booleans()):
        low, width, count = draw(grid_band)
        keys.update({"grid.low_mhz": f"{low:g}", "grid.channel_mhz": f"{width:g}",
                     "grid.high_mhz": f"{low + width * count:g}"})
    if draw(st.booleans()):
        keys["grid.exclusions"] = draw(EXCLUSIONS)
    # Every CeNB has an x_m key, so that each of them exists.
    for n in range(1, draw(st.integers(1, 3)) + 1):
        keys[f"cenb{n}.x_m"] = draw(_numbers(-3000.0, 3000.0))
        for key, value in draw(st.fixed_dictionaries({}, optional=CENB_KEYS)).items():
            keys[f"cenb{n}.{key}"] = value
        if draw(st.booleans()):
            ded_lo, ded_width = draw(st.floats(690.0, 720.0)), draw(st.floats(0.5, 20.0))
            keys[f"cenb{n}.dedicated_low_mhz"] = f"{ded_lo:g}"
            keys[f"cenb{n}.dedicated_high_mhz"] = f"{ded_lo + ded_width:g}"
    if draw(st.integers(0, 3)) == 0:       # one key out of range or malformed
        keys[draw(st.sampled_from(sorted(keys)))] = draw(BAD_TEXT)
    return keys


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=cenb_grid_keys())
def test_simulate_over_cenb_and_grid_keys(tmp_path_factory, capsys, keys):
    work = tmp_path_factory.mktemp("scenario")
    (work / "tx.csv").write_text(TRANSMITTERS, encoding="utf-8")
    lines = "".join(f"{key} = {value}\n" for key, value in keys.items())
    scenario = work / "s.ini"
    scenario.write_text(f"sim.seed = 1\nsim.duration_ms = 120\nfiles.transmitters = tx.csv\n"
                        f"{lines}", encoding="utf-8")
    _check_contract("simulate", scenario, work, capsys,
                    ["events.csv", "handover_summary.txt", "plr.csv"])


def _range(lo, span, step):
    return f"{lo:g}:{lo + span:g}:{step:g}"


INTERFERENCE_KEYS = {
    "interference.isd_m": _numbers(20.0, 2000.0),
    "interference.tv_radius_m": _numbers(10.0, 3000.0),
    "interference.offset_x_m": _numbers(-500.0, 500.0),
    "interference.offset_y_m": _numbers(-500.0, 500.0),
    "interference.cenb_power_dbm": _numbers(-10.0, 50.0),
    "interference.ue_power_dbm": _numbers(-30.0, 30.0),
    "interference.tv_eirp_dbm": _numbers(20.0, 90.0),
    "interference.tv_protection_snr_db": _numbers(-10.0, 50.0),
    "interference.tv_noise_figure_db": _numbers(0.0, 20.0),
    "interference.ue_noise_figure_db": _numbers(0.0, 20.0),
    "interference.cenb_noise_figure_db": _numbers(0.0, 20.0),
    "interference.tv_receivers": _ints(1, 12),
    "interference.ues_per_sector": _ints(1, 12),
    "interference.min_coupling_m": _numbers(0.1, 100.0),
    "interference.exponent": _numbers(2.0, 6.0),
    "interference.freq_mhz": _numbers(100.0, 3000.0),
    # At most 61 ACIR points.
    "interference.acir_db": st.builds(_range, st.floats(0.0, 100.0), st.floats(0.0, 60.0),
                                      st.floats(1.0, 30.0)),
    "interference.seed": _ints(0, 2**64 + 3),
    "interference.loss_budget": _numbers(0.0, 1.0),
}


@st.composite
def interference_keys(draw):
    keys = draw(st.fixed_dictionaries({}, optional=INTERFERENCE_KEYS))
    # At most 5 snapshots, so that no example runs the default 1000.
    keys["interference.snapshots"] = draw(_ints(1, 5))
    if draw(st.integers(0, 3)) == 0:       # one key out of range or malformed
        keys[draw(st.sampled_from(sorted(keys)))] = draw(BAD_TEXT)
    return keys


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=interference_keys())
def test_acir_over_interference_keys(tmp_path_factory, capsys, keys):
    work = tmp_path_factory.mktemp("study")
    study = work / "study.ini"
    study.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()),
                     encoding="utf-8")
    _check_contract("acir", study, work, capsys, ["acir_curve.csv", "guard_band.txt"])


# Each ``files.*`` key takes a valid file, ``default`` (calibration
# only), a missing path, a directory, an empty file, a wrong header or a
# file with one bad cell: (valid text, text with one bad cell) per key.
FILE_TEXTS = {
    "files.calibration": (
        "param,value\nnoise_figure_db,6\nsnapshots_per_ms,400\nthreshold_dbm,-114.9\n"
        "k_required,2\n",
        "param,value\nnoise_figure_db,6\nsnapshots_per_ms,4x0\nthreshold_dbm,-114.9\n"
        "k_required,2\n"),
    "files.transmitters": (TRANSMITTERS, TRANSMITTERS.replace(",43,", ",4x3,")),
    "files.geodb": (
        "id,standard,channel,x_m,y_m,eirp_dbm,height_m,required_rx_dbm,protected_radius_m\n"
        "db,AnalogPalD,5,20000,0,60,30,-84,\n",
        "id,standard,channel,x_m,y_m,eirp_dbm,height_m,required_rx_dbm,protected_radius_m\n"
        "db,AnalogPalD,5,2x0,0,60,30,-84,\n"),
}
FILE_KINDS = ["valid", "missing", "directory", "empty", "header", "cell"]


@st.composite
def file_keys(draw):
    return draw(st.fixed_dictionaries({}, optional={
        key: st.sampled_from(FILE_KINDS + (["default"] if key == "files.calibration" else []))
        for key in FILE_TEXTS}))


def _input_file(work, key, kind):
    """Write ``key``'s input of ``kind`` under ``work``; return the name to give the key."""
    name = key.removeprefix("files.") + ".csv"
    valid, bad_cell = FILE_TEXTS[key]
    texts = {"valid": valid, "empty": "", "header": "a,b\n1,2\n", "cell": bad_cell}
    if kind in texts:
        (work / name).write_text(texts[kind], encoding="utf-8")
    elif kind == "directory":
        (work / name).mkdir()
    return {"default": "default", "missing": "absent.csv"}.get(kind, name)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=file_keys())
def test_simulate_over_file_keys(tmp_path_factory, capsys, keys):
    work = tmp_path_factory.mktemp("scenario")
    names = {key: _input_file(work, key, kind) for key, kind in keys.items()}
    scenario = work / "s.ini"
    scenario.write_text("sim.seed = 1\nsim.duration_ms = 100\n" + CENBS + "".join(
        f"{key} = {name}\n" for key, name in names.items()), encoding="utf-8")

    rc, out, err, files = _simulate(scenario, work / "a", capsys)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    assert "Traceback" not in err
    # The scenario reads its files in FILE_TEXTS order; the first bad one fails.
    bad = [(key, keys[key]) for key in FILE_TEXTS
           if keys.get(key, "valid") not in ("valid", "default")]
    if not bad:
        assert rc == cli.EXIT_OK
        assert sorted(files) == ["events.csv", "handover_summary.txt", "plr.csv"]
    else:
        key, kind = bad[0]
        assert rc == cli.EXIT_CONFIG and out == "" and err.count("\n") == 1
        if kind in ("missing", "directory"):
            assert err.startswith(f"error: {scenario}: {key} ")
        else:
            assert err.startswith(f"error: {work / names[key]}:")
    second = _simulate(scenario, work / "b", capsys)
    assert second[0] == rc and second[3] == files
    assert second[1].replace(str(work / "b"), str(work / "a")) == out
