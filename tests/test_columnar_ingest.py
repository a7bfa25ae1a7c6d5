"""Column parses of the geo-database and of sweep traces.

For the geo-database: outputs pinned, cell syntax, exit codes, memory.

Each digest is of one output on a generated 2000-record file with
metadata lines, blank radii and given radii, taken with numpy 2.4.6.
``save`` writes the computed radii back with every digit, so its digest
also pins the bits of the contour radii.
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
from tvwsim.errors import ParseError
from tvwsim.radio_env import (
    PropagationConfig,
    TvStandard,
    TvTransmitter,
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
    "save":
        "e28929867bcf43e1fc5089ddeb368fbe926ff46329de13ada754811dfae228a9",
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


def test_save_digest(database, tmp_path):
    geodb.save(geodb.load(database), tmp_path / "saved.csv")
    assert sha((tmp_path / "saved.csv").read_text(encoding="utf-8")) == GOLDEN["save"]


def test_cenb_region_maps_digest(database):
    db, prop, grid = geodb.load(database), PropagationConfig(), china_tv_grid()
    lines = [f"{k},{ch},{region.name}" for k, site in enumerate(CENB_SITES)
             for ch, region in geodb.query_vacant_channels(db, site, 20.0, prop, grid)]
    text = "\n".join(lines)
    assert {"BLACK", "GREY", "WHITE"} <= {line.rsplit(",", 1)[1] for line in lines}
    assert sha(text) == GOLDEN["cenb regions"]


def test_a_saved_database_loads_back_equal(database, tmp_path):
    db = geodb.load(database)
    geodb.save(db, tmp_path / "saved.csv")
    assert geodb.load(tmp_path / "saved.csv") == db


def test_add_and_remove_on_a_loaded_database(database):
    db, prop, grid = geodb.load(database), PropagationConfig(), china_tv_grid()
    point = (1e7, 1e7)
    assert geodb.classify_region(db, point, 4, 20.0, prop, grid) is geodb.Region.WHITE
    svc = TvTransmitter(id="new", standard=TvStandard.ANALOG_PAL_D, channel_index=4,
                        location=point, eirp_dbm=60.0)
    db.add(geodb.GeoRecord(service=svc))
    assert geodb.classify_region(db, point, 4, 20.0, prop, grid) is geodb.Region.BLACK
    assert len(db.records) == 2001 and db.version == 8
    db.remove("new")
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
        assert geodb.load(path).records["db"].service.location[0] == expected


@pytest.mark.parametrize("cell", INT_CELLS)
def test_the_column_parse_reads_a_channel_cell_as_int_does(tmp_path, cell):
    path = _one_record(tmp_path, channel=cell)
    try:
        expected = int(cell)
    except ValueError:
        with pytest.raises(ParseError, match=r"db\.csv:2: "):
            geodb.load(path)
    else:
        assert geodb.load(path).records["db"].service.channel_index == expected


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
    # The loaded columns take about 130 bytes a record; per-record objects
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
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in _trace_lines(40, 300)[1:]])
    np.testing.assert_array_equal(m.timestamps_ms, rows[:, 0])
    np.testing.assert_array_equal(m.latlon, rows[:, 1:3])
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
