"""Column parses of the geo-database and of sweep traces.

For the geo-database: outputs pinned, cell syntax, exit codes, memory.

Each digest is of one output on a generated 2000-record file with
metadata lines, blank radii and given radii, taken with numpy 2.4.6.
The columns digest writes every loaded float with ``repr``, so it also
pins the bits of the contour radii.
"""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvwsim import cli, geodb, occupancy
from tvwsim.errors import DegenerateContourError, ParseError
from tvwsim.radio_env import (
    CHUNK_CELLS,
    PropagationConfig,
    china_tv_grid,
    finite_float,
    float_array,
)

GEODB_HEADER = "id,standard,channel,x_m,y_m,eirp_dbm,height_m,required_rx_dbm,protected_radius_m"


def write_database(path, n_records=2000, seed=17):
    """A database whose first 60 records lie within 6 km of the origin.

    Keys are a permutation of the file order, a third of the radii are
    blank, and channels run past the default grid's 37.
    """
    rng = random.Random(seed)
    lines = ["# version=7", "# grey_margin_m=1500.0", "# protection_floor_dbm=-112.5",
             GEODB_HEADER]
    for i in range(n_records):
        span = 6000.0 if i < 60 else 400_000.0
        x, y = rng.uniform(-span, span), rng.uniform(-span, span)
        standard = rng.choice(["AnalogPalD", "DigitalDtmb"])
        channel = rng.randrange(40)
        eirp, height = rng.uniform(45.0, 75.0), rng.uniform(10.0, 300.0)
        required = rng.uniform(-95.0, -70.0)
        radius = "" if i % 3 == 0 else f"{rng.uniform(300.0, 4000.0):.3f}"
        lines.append(f"s{(i * 7919) % n_records:05d},{standard},{channel},{x:.2f},{y:.2f},"
                     f"{eirp:.3f},{height:.1f},{required:.2f},{radius}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# 16 CeNBs on a 4 x 4 grid 1 km apart, around the origin.
CENB_SITES = [(-1500.0 + 1000.0 * (k % 4), -1500.0 + 1000.0 * (k // 4)) for k in range(16)]
QUERY_POINTS = {"black": (0.0, 0.0), "grey": (-8000.0, 4800.0), "white": (1e7, 1e7)}

GOLDEN = {
    "query black":
        "39afe661e223ceab7a8012daef0abd9c1658e4168917aae3c94c418a2dfb8658",
    "query grey":
        "9ed55611e52d4bf29e3aae954651e9b42e5e105ec4b386b17b862a98df7d730d",
    "query white":
        "627faca980f4ce4e6e1d07f1a96b0d7b6f1a333da712b3e2421b7f06c96ce79b",
    "contour":
        "310c5ee538b51bf1ab11309a51594b48bad3966ae3596e111b61ea79dd1de6d1",
    "columns":
        "bba73c3bcc418113dfb1a0852dff36f315490ba143a1e51fc50340e0b0ba4a74",
    "cenb regions":
        "5e54c35a4425ddfcbf80c22e8e9c6be1ee40de3ca0244fb941b4e3202712bd29",
}


@pytest.fixture(scope="module")
def database(tmp_path_factory):
    return write_database(tmp_path_factory.mktemp("geodb") / "db.csv")


def _stdout(capsys, argv):
    assert cli.main(argv) == cli.EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("where", sorted(QUERY_POINTS))
def test_query_digest(database, capsys, where):
    x, y = QUERY_POINTS[where]
    out = _stdout(capsys, ["geodb", "query", str(database), f"--x={x!r}", f"--y={y!r}"])
    regions = {line.rsplit(",", 1)[1] for line in out.splitlines()[1:-1]}
    assert where.title() in regions and (where == "black" or "Black" not in regions)
    assert sha(out) == GOLDEN[f"query {where}"]


def test_contour_digest(database, capsys):
    assert sha(_stdout(capsys, ["geodb", "contour", str(database)])) == GOLDEN["contour"]


def columns_text(db):
    """The metadata and the loaded columns, one line per record in id order,
    every float written with ``repr``."""
    cols = db.columns
    lines = [f"# version={db.version}", f"# grey_margin_m={db.grey_margin_m!r}",
             f"# protection_floor_dbm={db.protection_floor_dbm!r}"]
    rows = sorted(zip(cols.ids.tolist(), cols.channel.tolist(), cols.x.tolist(),
                      cols.y.tolist(), cols.radius.tolist()))
    lines += [f"{rec_id},{ch},{x!r},{y!r},{radius!r}" for rec_id, ch, x, y, radius in rows]
    return "\n".join(lines) + "\n"


def test_loaded_columns_digest(database):
    assert sha(columns_text(geodb.load(database))) == GOLDEN["columns"]


def test_the_loaded_columns_are_those_a_query_or_the_contour_listing_reads(database):
    cols = geodb.load(database).columns
    assert cols._fields == ("ids", "channel", "x", "y", "radius")
    assert [col.dtype for col in cols] == [object, np.int64, float, float, float]
    assert all(col.flags.c_contiguous for col in cols)


def test_cenb_region_maps_digest(database):
    db, prop, grid = geodb.load(database), PropagationConfig(), china_tv_grid()
    lines = [f"{k},{ch},{region.name}" for k, site in enumerate(CENB_SITES)
             for ch, region in geodb.query_vacant_channels(db, site, 20.0, prop, grid)]
    text = "\n".join(lines)
    assert {"BLACK", "GREY", "WHITE"} <= {line.rsplit(",", 1)[1] for line in lines}
    assert sha(text) == GOLDEN["cenb regions"]


def _metadata(db):
    return db.grey_margin_m, db.protection_floor_dbm, db.version


def test_a_loaded_database_rebuilt_with_one_record_more(database, tmp_path):
    db, prop, grid = geodb.load(database), PropagationConfig(), china_tv_grid()
    point = (1e7, 1e7)
    assert geodb.classify_region(db, point, 4, 20.0, prop, grid) is geodb.Region.WHITE
    # The file with one more line: a blank-radius service on channel 4 at the point.
    bigger = tmp_path / "more.csv"
    bigger.write_text(database.read_text(encoding="utf-8")
                      + f"new,AnalogPalD,4,{point[0]!r},{point[1]!r},60,10,-84,\n",
                      encoding="utf-8")
    more = geodb.load(bigger, prop)
    assert geodb.classify_region(more, point, 4, 20.0, prop, grid) is geodb.Region.BLACK
    assert len(more.columns.ids) == 2001 and _metadata(more) == _metadata(db)
    # The stable channel sort keeps every loaded row in its place among the others.
    kept = more.columns.ids != "new"
    for built, loaded in zip(more.columns, db.columns):
        np.testing.assert_array_equal(built[kept], loaded)
    assert geodb.classify_region(db, point, 4, 20.0, prop, grid) is geodb.Region.WHITE


# Cells whose syntax ``float`` and ``int`` accept or reject in ways a
# parser of its own could get wrong.
FLOAT_CELLS = ["1_000", " 1.5 ", "1e999", "nan", "-inf", "\uff11\uff12", "0x10", "1__0", "",
               " ", "+.5", "5.", "1e", "infinity"]
INT_CELLS = ["3", " 3 ", "+3", "3_0", "\uff13", "3.0", "0x3", "", "-0", "1e1"]


def _one_record(tmp_path, channel="3", x="0"):
    path = tmp_path / "db.csv"
    path.write_text(f"{GEODB_HEADER}\ndb,AnalogPalD,{channel},{x},0,60,30,-84,\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("cell", FLOAT_CELLS)
def test_the_column_parse_reads_a_number_cell_as_finite_float_does(tmp_path, cell):
    try:
        expected = finite_float(cell)
    except ValueError:
        expected = None
    values = float_array([[cell]])
    parsed = None if values is None or not math.isfinite(values[0, 0]) else values[0, 0]
    assert parsed == expected
    path = _one_record(tmp_path, x=cell)
    if expected is None:
        with pytest.raises(ParseError, match=r"db\.csv:2: "):
            geodb.load(path)
    else:
        assert geodb.load(path).columns.x.tolist() == [expected]


@pytest.mark.parametrize("cell", INT_CELLS)
def test_the_column_parse_reads_a_channel_cell_as_int_does(tmp_path, cell):
    path = _one_record(tmp_path, channel=cell)
    try:
        expected = int(cell)
    except ValueError:
        with pytest.raises(ParseError, match=r"db\.csv:2: "):
            geodb.load(path)
    else:
        assert geodb.load(path).columns.channel.tolist() == [expected]


# Values in range for each field of a record.
FIELDS = [
    st.sampled_from(["a", "b", "c", "db-1"]),
    st.sampled_from(["AnalogPalD", "DigitalDtmb"]),
    st.integers(0, 40).map(str),
    st.floats(-5e4, 5e4).map(repr),
    st.floats(-5e4, 5e4).map(repr),
    st.floats(30.0, 80.0).map(repr),
    st.floats(10.0, 300.0).map(repr),
    st.floats(-100.0, -60.0).map(repr),
    st.one_of(st.just(""), st.floats(100.0, 5000.0).map(repr)),
]
METADATA = {
    "version": st.integers(0, 9).map(str),
    "grey_margin_m": st.floats(0.0, 3000.0).map(repr),
    "protection_floor_dbm": st.floats(-120.0, -100.0).map(repr),
}
BAD_CELLS = st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "1e308", "x", "-1", "0",
                             "1e-307", "99999999999999999999999", "0x10", "1__0", "AnalogPalD",
                             "a,b", '"'])


@st.composite
def database_text(draw):
    """Metadata lines and 1-5 records; half of the examples have one bad
    cell in a record or a bad version or grey margin."""
    meta = draw(st.fixed_dictionaries({}, optional=METADATA))
    rows = draw(st.lists(st.tuples(*FIELDS).map(list), min_size=1, max_size=5))
    if draw(st.booleans()):
        if draw(st.integers(0, 4)) == 0:
            meta[draw(st.sampled_from(["version", "grey_margin_m"]))] = draw(BAD_CELLS)
        else:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_CELLS)
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines += [GEODB_HEADER] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=database_text(), sub=st.sampled_from(["query", "contour"]))
def test_geodb_exit_code_contract_over_database_files(tmp_path_factory, capsys, text, sub):
    path = tmp_path_factory.mktemp("geodb") / "db.csv"
    path.write_text(text, encoding="utf-8")
    argv = ["geodb", sub, str(path), *(["--x=100", "--y=0"] if sub == "query" else [])]
    runs = []
    for _ in range(2):
        rc = cli.main(argv)
        runs.append((rc, *capsys.readouterr()))
    rc, out, err = runs[0]
    assert runs[1] == runs[0]
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG) and "Traceback" not in err
    if rc == cli.EXIT_CONFIG:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}:") and err.split(":", 3)[2].isdigit()


def test_load_memory_is_the_column_store(tmp_path):
    # The loaded columns take about 95 bytes a record; per-record objects
    # would take about 500.
    path = write_database(tmp_path / "db.csv", n_records=20_000)
    tracemalloc.start()
    try:
        db = geodb.load(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.version == 7
    assert retained < 200 * 20_000
    assert peak <= 1.5 * retained


def _database_lines(n):
    return [GEODB_HEADER] + [f"r{i},AnalogPalD,{i % 37},{i}.5,0,60,30,-84," for i in range(n)]


@pytest.mark.parametrize("bad_rows, line", [
    # A duplicate id chunks after its first use, then a bad cell: the
    # duplicate's line.
    ({700: "r10,AnalogPalD,3,0,0,60,30,-84,", 900: "r900,AnalogPalD,3,x,0,60,30,-84,"}, 702),
    # A bad cell, then a ragged row in the same chunk: the bad cell's line.
    ({5: "r5,AnalogPalD,3,0,0,60,30,-84,0", 6: "r6,AnalogPalD"}, 7),
])
def test_the_first_bad_line_of_a_database_is_named(tmp_path, bad_rows, line):
    lines = _database_lines(1000)
    for i, row in bad_rows.items():
        lines[i + 1] = row
    path = tmp_path / "db.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"db\.csv:{line}: "):
        geodb.load(path)


def _trace_lines(n_rows, n_bins, seed=5):
    rng = np.random.default_rng(seed)
    lines = ["t_ms,lat,lon," + ",".join(f"p_{470.1 + 0.2 * k:.1f}" for k in range(n_bins))]
    for i in range(n_rows):
        powers = ",".join(f"{v:.2f}" for v in rng.uniform(-110.0, -40.0, n_bins))
        lines.append(f"{10 * i},{39.9 + 1e-4 * i!r},116.3,{powers}")
    return lines


def test_a_trace_of_many_chunks_equals_its_rows(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(_trace_lines(40, 300)) + "\n", encoding="utf-8")
    m = occupancy.ingest_trace(path)
    header, *lines = _trace_lines(40, 300)
    rows = np.array([[float(c) for c in line.split(",")] for line in lines])
    np.testing.assert_array_equal(m.timestamps_ms, rows[:, 0])
    np.testing.assert_array_equal(m.freqs_mhz, [float(name[2:]) for name in header.split(",")[3:]])
    np.testing.assert_array_equal(m.power_dbm, rows[:, 3:])
    assert m.power_dbm.flags.c_contiguous


@pytest.mark.parametrize("bad_rows, line", [
    ({30: "285,39.9,116.3," + ",".join(["-90"] * 300)}, 32),    # back across chunks
    ({20: "200,39.9,116.3,nan" + ",-90" * 299, 21: "210,39.9"}, 22),
])
def test_the_first_bad_line_of_a_trace_is_named(tmp_path, bad_rows, line):
    lines = _trace_lines(40, 300)
    for i, row in bad_rows.items():
        lines[i + 1] = row
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"trace\.csv:{line}: "):
        occupancy.ingest_trace(path)


# The first-bad-line property: files of several chunks with 0-3 faults
# at drawn rows, against a plain per-row oracle.
DB_BAD_CELLS = {1: ["PAL", ""], 2: ["-1", "3.0", "x", "99999999999999999999999"],
                3: ["x", "nan", "inf", ""], 4: ["-inf", "1e999", "1__0"],
                5: ["x", "nan", "1e999"], 6: ["inf", ""], 7: ["x", "100", "nan", "inf", "-inf"],
                8: ["x", "nan", "inf", "0", "-5"]}
TRACE_BAD_CELLS = ["x", "nan", "inf", "-inf", "1e999", ""]


def _record_is_bad(cells, seen, prop):
    """Whether one geo-database row is rejected, checked on its own."""
    if len(cells) != 9:
        return True
    rec_id, standard, channel, *numbers, radius = cells
    try:
        channel = int(channel)
        x, y, eirp, height, required = map(float, numbers)
        radius = float(radius) if radius.strip() else None
    except ValueError:
        return True
    if (standard not in ("AnalogPalD", "DigitalDtmb") or not 0 <= channel < 2**63
            or not all(map(math.isfinite, (x, y, eirp, height, required)))
            or not required < eirp or rec_id in seen):
        return True
    if radius is None:
        try:
            radius = geodb.contour_radius_m(eirp, required, prop)
        except DegenerateContourError:
            return True
    seen.add(rec_id)
    return not 0 < radius < math.inf


def _first_bad_record_line(rows, prop):
    seen = set()
    return next((n for n, cells in enumerate(rows, start=2)
                 if _record_is_bad(cells, seen, prop)), None)


def _trace_row_is_bad(cells, width, last_t):
    if len(cells) != width:
        return True
    try:
        values = [float(cell) for cell in cells]
    except ValueError:
        return True
    return not all(map(math.isfinite, values)) or values[0] <= last_t


def _first_bad_trace_line(rows, width):
    last_t = -math.inf
    for n, cells in enumerate(rows, start=2):
        if _trace_row_is_bad(cells, width, last_t):
            return n
        last_t = float(cells[0])
    return None


@st.composite
def faults(draw, kinds, n, chunk):
    """0-3 (kind, row, pick) faults a few rows apart, about a chunk's edge
    or anywhere; ``pick`` chooses among a kind's variants."""
    base = draw(st.one_of(st.sampled_from([chunk - 1, chunk, chunk + 1, 2 * chunk]),
                          st.integers(0, n - 1)))
    return [(kind, min(n - 1, base + offset), pick)
            for kind, offset, pick in draw(st.lists(st.tuples(
                st.sampled_from(kinds), st.integers(0, 4), st.integers(0, 10**6)), max_size=3))]


@st.composite
def database_rows(draw):
    """More rows than one chunk holds, with 0-3 faults."""
    chunk = CHUNK_CELLS // 9
    n = draw(st.integers(chunk + 1, 3 * chunk))
    rows = [[f"r{i}", ("AnalogPalD", "DigitalDtmb")[i % 2], str(i % 37), f"{i}.5", "0", "60",
             "30", "-84", "" if i % 3 else "1500.0"] for i in range(n)]
    for kind, at, pick in draw(faults(["cell", "duplicate", "ragged", "contour"], n, chunk)):
        row = rows[at]
        if kind == "cell":
            field = 1 + pick % 8
            row[field] = DB_BAD_CELLS[field][pick // 8 % len(DB_BAD_CELLS[field])]
        elif kind == "duplicate":               # the id of an earlier row, or of row 0
            row[0] = rows[pick % max(at, 1)][0]
        elif kind == "ragged":
            row[:] = row[:-1] if pick % 2 else row + ["x"]
        elif kind == "contour" and len(row) == 9:   # 0 dBm cannot reach -20 dBm at 1 m
            row[5:9] = ["0", "30", "-20", ""]
    return rows


@st.composite
def trace_rows(draw):
    """A header and rows of 2 to 16 chunks, with 0-3 faults."""
    bins, latlon = draw(st.integers(50, 700)), draw(st.booleans())
    width = bins + (3 if latlon else 1)
    chunk = CHUNK_CELLS // width
    n = draw(st.integers(chunk + 1, 16 * chunk))
    header = ["t_ms", *(["lat", "lon"] if latlon else []),
              *(f"p_{470.1 + 0.2 * k:.1f}" for k in range(bins))]
    rows = [[str(10 * i), *([f"{39.9 + 1e-4 * i!r}", "116.3"] if latlon else []),
             *(f"{-100 + (7 * i + k) % 50}.5" for k in range(bins))] for i in range(n)]
    for kind, at, pick in draw(faults(["cell", "ragged", "back"], n, chunk)):
        row = rows[at]
        if kind == "cell":
            row[pick % len(row)] = TRACE_BAD_CELLS[pick // len(row) % len(TRACE_BAD_CELLS)]
        elif kind == "ragged":
            row[:] = row[:-1] if pick % 2 else row + ["1"]
        elif kind == "back" and at:             # at or before the row before it
            row[0] = str(10 * (at - 1) - pick % 3)
    return header, rows


def _write_rows(path, header, rows):
    path.write_text("\n".join(",".join(cells) for cells in [header, *rows]) + "\n",
                    encoding="utf-8")


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=database_rows())
def test_a_database_names_its_first_bad_line_or_loads_its_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("geodb") / "db.csv"
    _write_rows(path, GEODB_HEADER.split(","), rows)
    prop = PropagationConfig()
    line = _first_bad_record_line(rows, prop)
    if line is not None:
        with pytest.raises(ParseError) as caught:
            geodb.load(path, prop)
        assert caught.value.line == line and str(caught.value).startswith(f"{path}:{line}: ")
        return
    cols = geodb.load(path, prop).columns
    # The rows in file order, stably sorted by channel.
    expected = [(rec_id, int(channel), float(x), float(y),
                 float(radius) if radius else
                 geodb.contour_radius_m(float(eirp), float(required), prop))
                for rec_id, _, channel, x, y, eirp, _, required, radius
                in sorted(rows, key=lambda cells: int(cells[2]))]
    assert list(zip(*(col.tolist() for col in cols))) == expected


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=trace_rows())
def test_a_trace_names_its_first_bad_line_or_loads_its_rows(tmp_path_factory, trace):
    header, rows = trace
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    _write_rows(path, header, rows)
    line = _first_bad_trace_line(rows, len(header))
    if line is not None:
        with pytest.raises(ParseError) as caught:
            occupancy.ingest_trace(path)
        assert caught.value.line == line and str(caught.value).startswith(f"{path}:{line}: ")
        return
    m = occupancy.ingest_trace(path)
    values = np.array([[float(cell) for cell in cells] for cells in rows])
    first = len(header) - m.freqs_mhz.size
    np.testing.assert_array_equal(m.timestamps_ms, values[:, 0])
    np.testing.assert_array_equal(m.power_dbm, values[:, first:])
    assert first == (3 if header[1:3] == ["lat", "lon"] else 1)


def test_a_contour_margin_past_a_double_names_its_line(tmp_path):
    # EIRP minus required level overflows: no finite contour, and no numpy
    # warning on the way (the test configuration makes one an error).
    path = tmp_path / "db.csv"
    path.write_text(f"{GEODB_HEADER}\ndb,AnalogPalD,3,0,0,1e308,30,-1e308,\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"db\.csv:2: protected_radius_m '' "):
        geodb.load(path)


def test_an_array_contour_is_nan_where_the_scalar_one_raises():
    prop = PropagationConfig()
    eirp, required = np.array([60.0, 0.0, np.inf, 1e308]), np.array([-84.0, -20.0, np.inf, -1e308])
    radius = geodb.contour_radius_m(eirp, required, prop)
    assert radius[0] == geodb.contour_radius_m(60.0, -84.0, prop)
    assert np.isnan(radius[1]) and np.isnan(radius[2]) and radius[3] == np.inf
    with pytest.raises(DegenerateContourError):
        geodb.contour_radius_m(0.0, -20.0, prop)


@pytest.mark.parametrize("row, message", [
    ("db,PAL,3,0,0,60,30,-84,", "standard 'PAL' "),
    # inf - inf in the blank radius's margin: the EIRP is named, and no
    # numpy warning escapes on the way.
    ("db,AnalogPalD,3,0,0,inf,30,inf,", "eirp_dbm 'inf' "),
    ("db,AnalogPalD,3,0,0,-inf,30,-inf,", "eirp_dbm '-inf' "),
    ("db,AnalogPalD,-1,0,0,60,30,-84,", "channel '-1' "),
    ("db,AnalogPalD,3,0,x,60,30,-84,", "y_m 'x' "),
    ("db,AnalogPalD,3,0,0,60,30,-84,inf", "protected_radius_m 'inf' "),
    ("db,AnalogPalD,3,0,0,60,30,70,", "required_rx_dbm '70' "),
])
def test_a_bad_record_names_its_field_and_cell(tmp_path, row, message):
    path = tmp_path / "db.csv"
    path.write_text(f"{GEODB_HEADER}\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"db\.csv:2: {message}"):
        geodb.load(path)


@pytest.mark.parametrize("row, message", [
    ("10,-100,inf", "p_470.3 'inf' "),
    ("10,x,-100", "p_470.1 'x' "),
    ("0,-100,-100", "t_ms '0' "),
])
def test_a_bad_sweep_names_its_column_and_cell(tmp_path, row, message):
    path = tmp_path / "trace.csv"
    path.write_text(f"t_ms,p_470.1,p_470.3\n0,-100,-100\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"trace\.csv:3: {message}"):
        occupancy.ingest_trace(path)
