"""The one CSV reader behind the six input formats."""

import pytest

from tvwsim.errors import ParseError
from tvwsim.geodb import load, separation_table_from_csv
from tvwsim.occupancy import ingest_trace, load_subband_table
from tvwsim.radio_env import csv_rows, row_errors, transmitters_from_csv
from tvwsim.sensing import load_calibration

GEODB_HEADER = "id,standard,channel,x_m,y_m,eirp_dbm,height_m,required_rx_dbm,protected_radius_m\n"

# Each format with a header and one valid row.
FORMATS = {
    "transmitters": (transmitters_from_csv,
                     "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                     "tv,AnalogPalD,3,100,0,40,30,\n"),
    "separation": (separation_table_from_csv, "power_dbm,10,30\n0,100,200\n10,300,400\n"),
    "calibration": (load_calibration,
                    "param,value\nnoise_figure_db,6\nsnapshots_per_ms,12500\n"
                    "threshold_dbm,-114.9\nk_required,2\n"),
    "trace": (ingest_trace, "t_ms,p_471\n0,-100\n"),
    "subbands": (load_subband_table, "low_mhz,high_mhz,label\n470,478,x\n"),
    "geodb": (load, GEODB_HEADER + "db,AnalogPalD,3,0,0,60,30,-84,1000\n"),
}


def write(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_each_format_loads_its_valid_file(tmp_path, kind):
    loader, text = FORMATS[kind]
    loader(write(tmp_path, text))


@pytest.mark.parametrize("kind", sorted(set(FORMATS) - {"geodb"}))
def test_only_the_geodb_takes_metadata_lines(tmp_path, kind):
    loader, text = FORMATS[kind]
    with pytest.raises(ParseError, match=r"input\.csv:1: "):
        loader(write(tmp_path, "# version=1\n" + text))


def test_geodb_metadata_lines(tmp_path):
    db = load(write(tmp_path, "# version=4\n# grey_margin_m = 250\n" + FORMATS["geodb"][1]))
    assert (db.version, db.grey_margin_m) == (4, 250.0)
    assert (db.columns.ids.tolist(), db.columns.radius.tolist()) == (["db"], [1000.0])


@pytest.mark.parametrize("meta, line", [("# version=4\n# colour=red\n", 2),
                                        ("# grey_margin_m=nan\n", 1),
                                        ("# version\n", 1)])
def test_bad_geodb_metadata_names_its_line(tmp_path, meta, line):
    with pytest.raises(ParseError, match=rf"input\.csv:{line}: "):
        load(write(tmp_path, meta + FORMATS["geodb"][1]))


def test_a_metadata_line_after_the_header_is_a_bad_row(tmp_path):
    with pytest.raises(ParseError, match=r"input\.csv:3: expected 9 columns, got 1"):
        load(write(tmp_path, "# version=4\n" + GEODB_HEADER + "# version=5\n"))


def test_line_numbers_count_blank_and_continued_lines(tmp_path):
    path = write(tmp_path, '# note\na,b\n\n1,"two\nlines"\n3,4\n\n5,6\n')
    rows = list(csv_rows(path, ["a", "b"], metadata=lambda lineno, text: None))
    assert rows == [(4, ["1", "two\nlines"]), (6, ["3", "4"]), (8, ["5", "6"])]


def test_header_check_errors_name_the_header_line(tmp_path):
    def check(cells):
        raise ValueError(f"bad {cells[0]}")

    path = write(tmp_path, "# a\n# b\nx,y\n")
    with pytest.raises(ParseError, match=r"input\.csv:3: bad x"):
        list(csv_rows(path, check, metadata=lambda lineno, text: None))


def test_rows_are_streamed(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3\n")
    rows = csv_rows(path, ["a", "b"])
    assert next(rows) == (2, ["1", "2"])
    with pytest.raises(ParseError, match=r"input\.csv:3: expected 2 columns, got 1"):
        next(rows)


@pytest.mark.parametrize("exc", [ValueError("v"), KeyError("k"), TypeError("t")])
def test_row_errors_reports_a_cell_error_at_its_line(exc):
    with pytest.raises(ParseError, match="^f.csv:7: ") as info:
        with row_errors("f.csv", 7):
            raise exc
    assert info.value.line == 7 and info.value.__cause__ is exc


def test_row_errors_passes_other_errors():
    with pytest.raises(ZeroDivisionError):
        with row_errors("f.csv", 7):
            1 / 0


# One cell past the csv module's field size limit (131 072 characters).
HUGE_CELL = "1" * 140_000


@pytest.mark.parametrize("text, line", [
    (f"a,b\n1,2\n\n{HUGE_CELL},3\n", 4),
    (f"a,{HUGE_CELL}\n1,2\n", 1),
    (f'# note\na,b\n1,"two\nlines"\n{HUGE_CELL},3\n', 5),
], ids=["data row", "header", "after a two-line row"])
def test_a_cell_over_the_field_limit_is_a_parse_error_at_its_line(tmp_path, text, line):
    path = write(tmp_path, text)
    with pytest.raises(ParseError, match=rf"input\.csv:{line}: field larger than field limit"):
        list(csv_rows(path, ["a", "b"], metadata=lambda lineno, text: None))


def _cli_error(capsys, argv):
    from tvwsim import cli

    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    return rc, captured.err


def test_geodb_contour_on_a_cell_over_the_field_limit_exits_2(tmp_path, capsys):
    path = write(tmp_path, GEODB_HEADER + f"db,AnalogPalD,3,{HUGE_CELL},0,60,30,-84,\n")
    rc, err = _cli_error(capsys, ["geodb", "contour", str(path)])
    assert rc == 2
    assert err == f"error: {path}:2: field larger than field limit (131072)\n"


def test_simulate_on_a_transmitters_cell_over_the_field_limit_exits_2(tmp_path, capsys):
    tx = write(tmp_path, "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                         "tv,AnalogPalD,3,100,0,40,30,\n"
                         f"tv2,AnalogPalD,4,100,0,40,30,0:{HUGE_CELL}\n")
    scenario = tmp_path / "s.ini"
    scenario.write_text("sim.seed = 1\nsim.duration_ms = 100\nfiles.transmitters = input.csv\n",
                        encoding="utf-8")
    rc, err = _cli_error(capsys, ["simulate", str(scenario), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err == f"error: {tx}:3: field larger than field limit (131072)\n"
