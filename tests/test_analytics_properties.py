"""Property tests of the analytics subcommands over generated inputs.

For any calibration file and any ``--powers``, ``--trials`` and
``--seed`` of ``roc``; any ``--band-low``, ``--band-high``,
``--channel-mhz``, ``--exclude``, ``--threshold-dbm`` and ``--subbands``
table of ``occupancy``, the table's cells included; and any separation
table, ``--power`` and ``--height`` of ``geodb separation``, the command
exits with 0, 2 or 3 and raises nothing (a traceback), a configuration
error names the input file or the flag at fault, and two runs on the
same inputs write the same bytes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvwsim import cli

BAD_TEXT = st.sampled_from(["", "nan", "inf", "-inf", "1e400", "x", "-1", "0", "0.5",
                            "1e-307", "1_0", "0x10"])


def _numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(lambda v: f"{v:g}")


def _run(argv, capsys):
    """``tvwsim`` on ``argv``: (exit code, stdout, stderr); argparse's usage
    errors exit through SystemExit."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _check_contract(argv, names, out, capsys):
    """Run ``argv`` twice: exit code, error line, named culprit and equal bytes.

    ``names`` are the input files and flags a configuration error may name;
    ``out`` is the file or directory the command writes, or None.
    """
    def run():
        rc, stdout, err = _run(argv, capsys)
        written = {}
        if out is not None and out.is_file():
            written = {out.name: out.read_bytes()}
        elif out is not None and out.is_dir():
            written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return rc, stdout, err, written

    rc, stdout, err, written = run()
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    assert "Traceback" not in err
    if rc != cli.EXIT_OK:
        assert stdout == "" and "error: " in err and not written
    if rc == cli.EXIT_CONFIG:
        assert any(name in err for name in names), err
    second = run()
    assert second == (rc, stdout, err, written)


CALIBRATION = {
    "noise_figure_db": _numbers(-20.0, 60.0),
    "snapshots_per_ms": _numbers(1e-3, 1e5),
    "threshold_dbm": st.one_of(_numbers(-140.0, -60.0), st.just("-inf")),
    "k_required": st.integers(1, 3).map(str),
}
# In range: a sweep of at most 41 points, up to a few thousand trials.
ROC_OPTIONS = {
    "--powers": st.tuples(st.floats(-200.0, 50.0), st.floats(0.0, 40.0),
                          st.sampled_from([1.0, 2.5, 10.0]))
    .map(lambda t: f"{t[0]:g}:{t[0] + t[1]:g}:{t[2]:g}"),
    "--trials": st.integers(1, 3000).map(str),
    "--seed": st.one_of(st.integers(0, 50), st.integers(0, 2**64 + 3)).map(str),
}
BAD_ROC_TEXT = st.one_of(BAD_TEXT, st.sampled_from(
    ["-110:-130:1", "0:1:0", "nan:1:1", "1:2", "-1e308:1e308:1e307", "-130:-110:-1", "1e3",
     "5", "3,value", "noise_figure_db"]))


@st.composite
def roc_inputs(draw):
    """Calibration rows (None for the default calibration) and options; in
    half the examples one cell or option is out of range or malformed, or
    a calibration row is missing."""
    rows = draw(st.one_of(st.none(), st.fixed_dictionaries(CALIBRATION)))
    options = draw(st.fixed_dictionaries(ROC_OPTIONS))
    if draw(st.booleans()):
        keys = [*ROC_OPTIONS, *(CALIBRATION if rows is not None else ())]
        key = draw(st.sampled_from(keys))
        bad = draw(BAD_ROC_TEXT)
        if key in options:
            options[key] = bad
        elif draw(st.integers(0, 3)) == 0:
            del rows[key]
        else:
            rows[key] = bad
    return rows, options


# Derandomized, so that every run of the suite checks the same examples.
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=roc_inputs())
def test_roc_exit_code_contract_and_determinism(tmp_path_factory, capsys, inputs):
    rows, options = inputs
    work = tmp_path_factory.mktemp("roc")
    calibration = "default"
    if rows is not None:
        calibration = str(work / "calibration.csv")
        (work / "calibration.csv").write_text(
            "param,value\n" + "".join(f"{k},{v}\n" for k, v in rows.items()), encoding="utf-8")
    out = work / "roc.csv"
    argv = ["roc", calibration, *(f"{flag}={value}" for flag, value in options.items()),
            "--out", str(out)]
    _check_contract(argv, [calibration, *ROC_OPTIONS], out, capsys)


# Four channels of 8 MHz from 470 MHz, two bins each, over six sweeps.
TRACE = ("t_ms,p_471,p_475,p_479,p_483,p_487,p_491,p_495,p_499\n"
         "0,-100,-60,-101,-99,-98,-97,-40,-101\n10,-99,-61,-70,-100,-99,-98,-41,-100\n"
         "20,-101,-59,-100,-98,-97,-99,-42,-99\n30,-100,-62,-99,-101,-96,-100,-40,-98\n"
         "40,-102,-58,-98,-100,-99,-101,-39,-97\n50,-98,-63,-100,-99,-98,-97,-38,-100\n")
# In range: bands of whole channels over the trace, or wider than it.
OCCUPANCY_OPTIONS = {
    "--band-low": st.sampled_from(["470", "478", "462", "470.5"]),
    "--band-high": st.sampled_from(["486", "502", "494", "510"]),
    "--channel-mhz": st.sampled_from(["8", "4", "16"]),
    "--exclude": st.sampled_from(["", "566-606", "478-486", "470-478;486-494"]),
    "--threshold-dbm": st.one_of(st.none(), _numbers(-120.0, -20.0)),
}
BAD_OCCUPANCY_TEXT = st.one_of(BAD_TEXT, st.sampled_from(
    ["490-480", "478-486;", "nan-1", "479-487", "-8", "7.9", "800", "100"]))
SUBBAND_ROWS = st.lists(st.sampled_from(["470,478,a", "478,486,b", "486,494,c", "470,494,all",
                                         "494,502,d"]), max_size=4, unique=True)
BAD_SUBBAND_ROWS = st.sampled_from(["478,470,x", "nan,478,x", "470,inf,x", "470,478",
                                    "x,478,y", "470,478,a,b", "502,510,out", "-1e9,478,x"])


@st.composite
def occupancy_inputs(draw):
    """Options (None for an option left out) and sub-band rows (None for no
    table); in half the examples one of them is out of range or malformed."""
    options = draw(st.fixed_dictionaries(OCCUPANCY_OPTIONS))
    rows = draw(st.one_of(st.none(), SUBBAND_ROWS))
    if draw(st.booleans()):
        key = draw(st.sampled_from([*OCCUPANCY_OPTIONS, "--subbands"]))
        if key == "--subbands":
            rows = [*(rows or ()), draw(BAD_SUBBAND_ROWS)]
        else:
            options[key] = draw(BAD_OCCUPANCY_TEXT)
    return options, rows


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=occupancy_inputs())
def test_occupancy_exit_code_contract_and_determinism(tmp_path_factory, capsys, inputs):
    options, rows = inputs
    work = tmp_path_factory.mktemp("occupancy")
    trace = work / "trace.csv"
    trace.write_text(TRACE, encoding="utf-8")
    argv = ["occupancy", str(trace),
            *(f"{flag}={value}" for flag, value in options.items() if value is not None)]
    names = [str(trace), *OCCUPANCY_OPTIONS]
    out = None
    if rows is not None:
        table = work / "subbands.csv"
        table.write_text("low_mhz,high_mhz,label\n" + "".join(f"{row}\n" for row in rows),
                         encoding="utf-8")
        out = work / "out"
        argv += ["--subbands", str(table), "--out", str(out)]
        names.append(str(table))
    _check_contract(argv, names, out, capsys)


# Sub-band cells: edges over and beside the trace's 470-502 MHz, and labels
# that the csv module must quote.
SUBBAND_EDGES = st.one_of(st.sampled_from(["470", "478", "486", "494", "502", "471.5"]),
                          _numbers(460.0, 510.0))
SUBBAND_LABELS = st.sampled_from(["a", "", "b c", '"x,y"', '"q""uote"', "üé"])
BAD_SUBBAND_TEXT = st.one_of(BAD_TEXT, st.sampled_from(
    ["1e308", "-1e308", "5e-324", '"unclosed', "470,478"]))


@st.composite
def subband_tables(draw):
    """Sub-band table text: zero to three adjacent sub-bands between generated
    edges; in half the examples one cell is malformed or out of range, or
    the header or a row's width is wrong."""
    edges = sorted(draw(st.lists(SUBBAND_EDGES, min_size=1, max_size=4, unique_by=float)),
                   key=float)
    rows = [[lo, hi, draw(SUBBAND_LABELS)] for lo, hi in zip(edges, edges[1:])]
    header = ["low_mhz", "high_mhz", "label"]
    if draw(st.booleans()):
        fault = draw(st.sampled_from(["cell", "width", "header"]))
        if fault == "header":
            header = draw(st.sampled_from([["low_mhz", "high_mhz"], ["high_mhz", "low_mhz",
                                                                     "label"], []]))
        elif rows and fault == "cell":
            rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = \
                draw(BAD_SUBBAND_TEXT)
        elif rows:
            del rows[draw(st.integers(0, len(rows) - 1))][-1]
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=subband_tables(), threshold=st.one_of(st.none(), _numbers(-120.0, -20.0)))
def test_occupancy_sub_band_table_exit_code_contract_and_determinism(
        tmp_path_factory, capsys, text, threshold):
    work = tmp_path_factory.mktemp("subbands")
    trace = work / "trace.csv"
    trace.write_text(TRACE, encoding="utf-8")
    table = work / "subbands.csv"
    table.write_text(text, encoding="utf-8")
    out = work / "out"
    argv = ["occupancy", str(trace), "--band-low=470", "--band-high=502", "--exclude=",
            "--subbands", str(table), "--out", str(out)]
    if threshold is not None:
        argv.append(f"--threshold-dbm={threshold}")
    _check_contract(argv, [str(table)], out, capsys)


# In range: heights in m, powers in dBm, separations in m.
SEPARATION_OPTIONS = {"--power": _numbers(-100.0, 100.0), "--height": _numbers(-10.0, 500.0)}
BAD_SEPARATION_TEXT = st.one_of(BAD_TEXT, st.sampled_from(
    ["1e308", "-1e308", "1.7e308", "5e-324", "10 20", "1,2"]))


@st.composite
def separation_inputs(draw):
    """Separation-table rows (None for the default table) and options; in
    half the examples one axis value, cell or option is malformed or out
    of range, a row is short, or an axis keeps a single value."""
    options = draw(st.fixed_dictionaries(SEPARATION_OPTIONS))
    rows = None
    if draw(st.integers(0, 4)):
        axis = st.lists(_numbers(-10.0, 300.0), min_size=2, max_size=4, unique_by=float)
        heights, powers = (sorted(draw(axis), key=float) for _ in range(2))
        rows = [["power_dbm", *heights]]
        rows += [[p, *(draw(_numbers(0.0, 1e5)) for _ in heights)] for p in powers]
    if draw(st.booleans()):
        key = draw(st.sampled_from([*SEPARATION_OPTIONS,
                                    *(("cell", "short", "single") if rows else ())]))
        if key in options:
            options[key] = draw(BAD_SEPARATION_TEXT)
        elif key == "cell":
            row = draw(st.integers(0, len(rows) - 1))
            col = draw(st.integers(1 if row == 0 else 0, len(rows[row]) - 1))
            rows[row][col] = draw(BAD_SEPARATION_TEXT)
        elif key == "short":
            del rows[draw(st.integers(0, len(rows) - 1))][-1]
        elif draw(st.booleans()):
            rows = [row[:2] for row in rows]
        else:
            rows = rows[:draw(st.integers(1, 2))]
    return rows, options


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=separation_inputs())
def test_geodb_separation_exit_code_contract_and_determinism(tmp_path_factory, capsys,
                                                             inputs):
    rows, options = inputs
    table = "default"
    if rows is not None:
        path = tmp_path_factory.mktemp("separation") / "sep.csv"
        path.write_text("".join(",".join(cells) + "\n" for cells in rows), encoding="utf-8")
        table = str(path)
    argv = ["geodb", "separation", "--table", table,
            *(f"{flag}={value}" for flag, value in options.items())]
    _check_contract(argv, [table, *SEPARATION_OPTIONS], None, capsys)


# Band options that form no channel grid, and the flag each error names.
BAD_GRIDS = [
    (["--channel-mhz=0"], "--channel-mhz"),
    (["--channel-mhz=-8"], "--channel-mhz"),
    (["--band-low=500", "--band-high=470"], "--band-low"),
    (["--band-low=470", "--band-high=490", "--exclude="], "--band-high"),
    (["--band-low=470", "--band-high=502", "--exclude=474-486"], "--exclude"),
]


@pytest.mark.parametrize("command", ["occupancy", "geodb query"])
@pytest.mark.parametrize("flags, name", BAD_GRIDS, ids=[" ".join(f) for f, _ in BAD_GRIDS])
def test_a_grid_the_band_options_cannot_form_is_a_config_error(tmp_path, capsys, command,
                                                               flags, name):
    if command == "occupancy":
        path = tmp_path / "trace.csv"
        path.write_text(TRACE, encoding="utf-8")
        argv = ["occupancy", str(path), *flags]
    else:
        path = tmp_path / "db.csv"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,required_rx_dbm,"
                        "protected_radius_m\n", encoding="utf-8")
        argv = ["geodb", "query", str(path), "--x=0", "--y=0", *flags]
    rc, stdout, err = _run(argv, capsys)
    assert rc == cli.EXIT_CONFIG and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err
