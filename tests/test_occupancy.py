import numpy as np
import pytest

from tvwsim.errors import ParseError
from tvwsim.occupancy import ingest_trace, load_subband_table


def write(tmp_path, text, name="input.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestTrace:
    def test_round_trip_without_position(self, tmp_path):
        path = write(tmp_path, "t_ms,p_470.1,p_470.3\n0,-100,-99.5\n\n10,-98,-60.25\n")
        m = ingest_trace(path)
        np.testing.assert_array_equal(m.timestamps_ms, [0.0, 10.0])
        np.testing.assert_array_equal(m.freqs_mhz, [470.1, 470.3])
        np.testing.assert_array_equal(m.power_dbm, [[-100.0, -99.5], [-98.0, -60.25]])

    def test_round_trip_with_position(self, tmp_path):
        path = write(tmp_path, "t_ms,lat,lon,p_471\n0,39.9,116.3,-100\n5,39.8,116.4,-70\n")
        m = ingest_trace(path)
        np.testing.assert_array_equal(m.timestamps_ms, [0.0, 5.0])
        np.testing.assert_array_equal(m.power_dbm, [[-100.0], [-70.0]])
        np.testing.assert_array_equal(m.freqs_mhz, [471.0])

    def test_trace_without_rows_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="no data rows"):
            ingest_trace(write(tmp_path, "t_ms,p_471,p_475\n\n"))

    # Each bad row sits on line 4, after a good row and a blank line.
    @pytest.mark.parametrize("row", [
        "10,-100",               # ragged: too few cells
        "10,-100,-99,-98",       # ragged: too many cells
        "10,-100,inf",
        "10,-100,nan",
        "10,-inf,-100",
        "10,-100,x",
        "0,-100,-100",           # timestamp repeats line 1's
        "-5,-100,-100",          # timestamp goes back
        "nan,-100,-100",
    ])
    def test_bad_row_names_its_line(self, tmp_path, row):
        path = write(tmp_path, f"t_ms,p_471,p_475\n0,-100,-100\n\n{row}\n")
        with pytest.raises(ParseError, match=r"input\.csv:4: "):
            ingest_trace(path)

    @pytest.mark.parametrize("cells", ["nan,116.3", "39.9,inf", "x,116.3"])
    def test_bad_position_names_its_line(self, tmp_path, cells):
        path = write(tmp_path, f"t_ms,lat,lon,p_471\n0,39.9,116.3,-100\n5,{cells},-100\n")
        with pytest.raises(ParseError, match=r"input\.csv:3: "):
            ingest_trace(path)

    @pytest.mark.parametrize("header", [
        "t_ms,p_470,q_478",
        "t_ms,p_470,p_x",
        "t_ms,p_-470",
        "t_ms",
        "t_ms,lat,lon",
        "time,p_470",
        "# site=roof",
        "",
    ])
    def test_bad_header_is_line_1(self, tmp_path, header):
        path = write(tmp_path, f"{header}\n")
        with pytest.raises(ParseError, match=r"input\.csv:1: "):
            ingest_trace(path)


    def test_descending_frequencies_are_a_header_error(self, tmp_path):
        path = write(tmp_path, "t_ms,p_478,p_470\n0,-100,-100\n")
        with pytest.raises(ParseError, match=r"input\.csv:1: frequencies must be ascending"):
            ingest_trace(path)


class TestSubbandTable:
    def test_rows_in_file_order(self, tmp_path):
        path = write(tmp_path, "low_mhz,high_mhz,label\n478,486,high\n\n470,478.5,low\n")
        assert load_subband_table(path) == [(478.0, 486.0, "high"), (470.0, 478.5, "low")]

    @pytest.mark.parametrize("row", ["478,470,inverted", "470,470,empty", "0,8,from zero",
                                     "470,inf,open", "nan,478,x", "-inf,478,x",
                                     "470,478", "470,478,x,y", "470,abc,x"])
    def test_bad_band_names_its_line(self, tmp_path, row):
        path = write(tmp_path, f"low_mhz,high_mhz,label\n470,478,ok\n{row}\n")
        with pytest.raises(ParseError, match=r"input\.csv:3: "):
            load_subband_table(path)

    @pytest.mark.parametrize("header", ["low_mhz,high_mhz", "# bands", "high_mhz,low_mhz,label"])
    def test_bad_header_rejected(self, tmp_path, header):
        path = write(tmp_path, f"{header}\n470,478,x\n")
        with pytest.raises(ParseError, match=r"input\.csv:1: "):
            load_subband_table(path)
