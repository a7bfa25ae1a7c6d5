from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvwsim import geodb
from tvwsim.errors import DegenerateContourError, ParseError
from tvwsim.geodb import (
    Region,
    SeparationTable,
    classify_region,
    contour_radius_m,
    default_separation_table,
    load,
    query_vacant_channels,
    required_separation,
    separation_table_from_csv,
)
from tvwsim.radio_env import PropagationConfig


class Record(NamedTuple):
    """A PAL-D service 10 m high with its protection requirement; a radius
    of None is a blank cell."""

    id: str = "svc"
    channel: int = 10
    x: float = 0.0
    y: float = 0.0
    eirp: float = 60.0
    required: float = -84.0
    radius: float | None = None


def record_row(rec):
    """A database file's row of a record."""
    radius = "" if rec.radius is None else repr(rec.radius)
    return ",".join([rec.id, "AnalogPalD", str(rec.channel),
                     *map(repr, (rec.x, rec.y, rec.eirp, 10.0, rec.required)), radius])


def db_text(records=(), rows=(), **metadata):
    """The text of a database file: ``metadata`` lines, the header, the
    ``rows`` as written, then one row per record."""
    return "\n".join([*(f"# {key}={value!r}" for key, value in metadata.items()),
                      ",".join(geodb.GEODB_FIELDS), *rows,
                      *map(record_row, records)]) + "\n"


def make_db(tmp_path, records=(), prop=None, **metadata):
    """The database ``load`` reads from a file of ``records`` and ``metadata``."""
    path = tmp_path / "made.csv"
    path.write_text(db_text(records, **metadata), encoding="utf-8")
    return load(path, prop)


def contour_of(rec, prop, freq=700.0):
    """The protected radius of a record: given, or its contour."""
    if rec.radius is not None:
        return rec.radius
    return contour_radius_m(rec.eirp, rec.required, prop, freq)


def radius_in(db, rec_id):
    """The protected radius that a loaded database holds for a record."""
    (row,) = np.flatnonzero(db.columns.ids == rec_id)
    return db.columns.radius[row]


def brute_force_radius(eirp, required, prop, freq=700.0, hi=1e6):
    """Independent oracle: bisect the received-power crossing."""
    lo = prop.ref_distance_m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rx = eirp - prop.median_loss_db(mid, freq)
        if rx >= required:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestProtectedRadius:
    def test_boundary_at_reference_distance(self):
        prop = PropagationConfig(ref_loss_db=29.3)
        assert contour_radius_m(60.0, 60.0 - 29.3, prop) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_matches_brute_force(self, prop):
        r = contour_radius_m(60.0, -84.0, prop)
        assert r == pytest.approx(brute_force_radius(60.0, -84.0, prop), rel=1e-6)
        # free-space-at-1m reference (~29.3 dB), n=3.5: about 1886 m
        assert r == pytest.approx(1886.0, abs=10.0)

    def test_margin_doubling_doubles_radius(self, prop):
        extra = 35.0 * np.log10(2.0)
        r1 = contour_radius_m(60.0, -84.0, prop)
        r2 = contour_radius_m(60.0 + extra, -84.0, prop)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)

    def test_given_radius_wins(self, tmp_path, prop):
        db = make_db(tmp_path, [Record(id="given", radius=1234.0), Record(id="blank")], prop)
        assert radius_in(db, "given") == 1234.0
        assert radius_in(db, "blank") == contour_radius_m(60.0, -84.0, prop)

    def test_unattainable_level_rejected(self, prop):
        with pytest.raises(DegenerateContourError):
            contour_radius_m(10.0, 20.0, prop)

    def test_contour_delivers_required_level(self, prop):
        r = contour_radius_m(72.0, -84.0, prop)
        rx = 72.0 - prop.median_loss_db(r, 700.0)
        assert rx == pytest.approx(-84.0, abs=0.01)


class TestRegions:
    def make_db(self, tmp_path, prop):
        return make_db(tmp_path, [Record(channel=10, eirp=60.0, required=-84.0)], prop)

    def test_point_at_transmitter_is_black(self, tmp_path, prop, grid):
        db = self.make_db(tmp_path, prop)
        assert classify_region(db, (0.0, 0.0), 10, 20.0, prop, grid) is Region.BLACK

    def test_empty_database_is_white(self, tmp_path, prop, grid):
        db = make_db(tmp_path)
        assert classify_region(db, (0, 0), 10, 20.0, prop, grid) is Region.WHITE

    def test_radial_sweep_matches_closed_form_crossovers(self, tmp_path, prop, grid):
        db = self.make_db(tmp_path, prop)
        r_protected = radius_in(db, "svc")
        assert r_protected == contour_radius_m(60.0, -84.0, prop)
        r_interf = contour_radius_m(20.0, db.protection_floor_dbm, prop)
        white_edge = r_protected + r_interf + db.grey_margin_m
        distances = np.linspace(1.0, 2.0 * white_edge, 1000)
        last_rank = -1
        for d in distances:
            region = classify_region(db, (d, 0.0), 10, 20.0, prop, grid)
            expected = (Region.BLACK if d <= r_protected
                        else Region.GREY if d <= white_edge else Region.WHITE)
            assert region is expected, f"at {d:.1f} m"
            assert int(region) >= last_rank  # permissiveness monotone
            last_rank = int(region)

    def test_adjacent_channel_service_does_not_constrain(self, tmp_path, prop, grid):
        db = self.make_db(tmp_path, prop)
        assert classify_region(db, (0.0, 0.0), 11, 20.0, prop, grid) is Region.WHITE
        assert classify_region(db, (0.0, 0.0), 9, 20.0, prop, grid) is Region.WHITE

    def test_unknown_channel_rejected(self, tmp_path, prop, grid):
        with pytest.raises(IndexError):
            classify_region(make_db(tmp_path), (0, 0), 37, 20.0, prop, grid)

    def test_query_coherent_with_classify(self, tmp_path, prop, grid):
        db = self.make_db(tmp_path, prop)
        point = (1500.0, 0.0)
        rows = query_vacant_channels(db, point, 20.0, prop, grid)
        assert len(rows) == 37
        for ch, region in rows:
            assert region is classify_region(db, point, ch, 20.0, prop, grid)

    def test_empty_db_query_all_white(self, tmp_path, prop, grid):
        rows = query_vacant_channels(make_db(tmp_path), (0, 0), 20.0, prop, grid)
        assert all(r is Region.WHITE for _, r in rows)

    def test_inside_contour_blacks_one_channel(self, tmp_path, prop, grid):
        db = self.make_db(tmp_path, prop)
        rows = dict(query_vacant_channels(db, (100.0, 0.0), 20.0, prop, grid))
        assert rows[10] is Region.BLACK
        assert all(r is Region.WHITE for ch, r in rows.items() if ch != 10)


class TestSeparationTable:
    def table(self):
        return SeparationTable(powers_dbm=(0.0, 10.0), heights_m=(10.0, 30.0),
                               separation_m=(100.0, 200.0, 300.0, 400.0))

    def test_corner_exact(self):
        sep, clamped = required_separation(self.table(), 10.0, 30.0)
        assert sep == 400.0 and not clamped

    def test_cell_midpoint_is_corner_mean(self):
        sep, clamped = required_separation(self.table(), 5.0, 20.0)
        assert sep == pytest.approx((100 + 200 + 300 + 400) / 4)
        assert not clamped

    def test_clamp_below_table(self):
        sep, clamped = required_separation(self.table(), -10.0, 20.0)
        assert clamped
        assert sep == pytest.approx(150.0)  # first power row, height midpoint

    def test_shipped_table_monotone(self):
        table = default_separation_table()
        grid = np.asarray(table.separation_m).reshape(
            len(table.powers_dbm), len(table.heights_m))
        assert np.all(np.diff(grid, axis=0) > 0)
        assert np.all(np.diff(grid, axis=1) > 0)

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ValueError):
            SeparationTable((10.0, 0.0), (10.0, 30.0), (1.0, 2.0, 3.0, 4.0))

    def test_csv_round_trip(self, tmp_path):
        from tvwsim.geodb import separation_table_to_csv

        path = tmp_path / "sep.csv"
        separation_table_to_csv(self.table(), path)
        assert separation_table_from_csv(path) == self.table()


class TestPersistence:
    def test_empty_file_loads_empty_columns(self, tmp_path):
        db = make_db(tmp_path, version=2, grey_margin_m=500.0)
        assert [len(col) for col in db.columns] == [0] * len(db.columns)
        assert (db.version, db.grey_margin_m) == (2, 500.0)

    def test_three_records_load_sorted_by_channel(self, tmp_path, prop):
        records = [Record(id=f"s{i}", channel=ch, x=100.0 * i, radius=1000.0 + i)
                   for i, ch in reversed(list(enumerate((3, 10, 20))))]
        db = make_db(tmp_path, records, prop, version=3, grey_margin_m=500.0,
                     protection_floor_dbm=-110.0)
        assert (db.version, db.grey_margin_m, db.protection_floor_dbm) == (3, 500.0, -110.0)
        assert list(zip(*(col.tolist() for col in db.columns))) == [
            (rec.id, rec.channel, rec.x, rec.y, rec.radius) for rec in reversed(records)]

    def test_blank_radius_computed_on_load(self, tmp_path, prop):
        path = tmp_path / "db.csv"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,"
                        "required_rx_dbm,protected_radius_m\n"
                        "svc,AnalogPalD,10,0.0,0.0,60.0,10.0,-84.0,\n")
        assert radius_in(load(path, prop), "svc") == pytest.approx(1886.0, abs=10.0)

    def test_duplicate_key_names_the_key(self, tmp_path):
        path = tmp_path / "dup.csv"
        row = "svc,AnalogPalD,10,0.0,0.0,60.0,10.0,-84.0,1000.0"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,"
                        f"required_rx_dbm,protected_radius_m\n{row}\n{row}\n")
        with pytest.raises(ParseError, match="svc"):
            load(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,"
                        "required_rx_dbm,protected_radius_m\n"
                        "svc,AnalogPalD,ten,0,0,60,10,-84,\n")
        with pytest.raises(ParseError, match=":2"):
            load(path)


def loop_classify(db, records, point, channel, cenb_eirp, prop, freq=700.0):
    """Reference: the per-record scan of ``records``, in record order, with
    the grey-boundary parameters of ``db``; a blank radius is resolved
    where the scan meets it."""
    records = [r for r in records if r.channel == channel]
    if not records:
        return Region.WHITE
    r_interf = contour_radius_m(cenb_eirp, db.protection_floor_dbm, prop, freq)
    region = Region.WHITE
    for rec in records:
        d = float(np.hypot(point[0] - rec.x, point[1] - rec.y))
        r_protected = contour_of(rec, prop, freq)
        if d <= r_protected:
            return Region.BLACK
        if d <= r_protected + r_interf + db.grey_margin_m:
            region = min(region, Region.GREY)
    return region


class TestChannelArrays:
    def random_records(self, seed, n_records=300):
        """Records with random sites, EIRPs and channels; every fifth radius blank."""
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n_records):
            radius = None if i % 5 == 0 else float(rng.uniform(500.0, 3000.0))
            records.append(Record(id=f"r{i}", channel=int(rng.integers(0, 37)),
                                  x=float(rng.uniform(-20e3, 20e3)),
                                  y=float(rng.uniform(-20e3, 20e3)),
                                  eirp=float(rng.uniform(50.0, 70.0)), required=-84.0,
                                  radius=radius))
        return records

    def assert_matches_the_scan(self, tmp_path, records, prop, grid, points):
        db = make_db(tmp_path, records, prop)
        seen = set()
        for point in points:
            for ch in range(grid.n_channels):
                region = classify_region(db, point, ch, 20.0, prop, grid)
                assert region is loop_classify(db, records, point, ch, 20.0, prop), (point, ch)
                seen.add(region)
        return seen

    def test_matches_the_per_record_scan(self, tmp_path, prop, grid):
        records = self.random_records(11)
        points = np.random.default_rng(12).uniform(-20e3, 20e3, size=(40, 2))
        seen = self.assert_matches_the_scan(tmp_path, records, prop, grid, points)
        assert seen == {Region.BLACK, Region.GREY, Region.WHITE}

    def test_matches_the_scan_with_a_record_more_and_with_half_the_records(self, tmp_path, prop,
                                                                            grid):
        records = self.random_records(21, n_records=60)
        points = np.random.default_rng(22).uniform(-20e3, 20e3, size=(15, 2))
        self.assert_matches_the_scan(tmp_path, records, prop, grid, points)
        records.append(Record(id="new", channel=4, x=float(points[0, 0]),
                              y=float(points[0, 1]), required=-84.0))
        assert classify_region(make_db(tmp_path, records, prop), points[0], 4, 20.0, prop,
                               grid) is Region.BLACK
        self.assert_matches_the_scan(tmp_path, records, prop, grid, points)
        self.assert_matches_the_scan(tmp_path, records[1::2], prop, grid, points)

    def test_degenerate_contour_only_with_a_co_channel_record(self, tmp_path, prop, grid):
        db = make_db(tmp_path, [Record(channel=10, x=50e3, required=-84.0)], prop)
        # A CeNB EIRP below the protection floor plus the reference loss
        # has no interference contour: that matters only where a record is.
        assert classify_region(db, (0.0, 0.0), 11, -100.0, prop, grid) is Region.WHITE
        with pytest.raises(DegenerateContourError):
            classify_region(db, (0.0, 0.0), 10, -100.0, prop, grid)

    def test_a_blank_record_without_a_contour_fails_the_build(self, tmp_path, prop):
        near = Record(id="near", channel=10, required=-84.0, radius=1000.0)
        # Its contour needs -20 dBm at 1 m from a 0 dBm service: degenerate.
        weak = Record(id="weak", channel=10, x=9e3, eirp=0.0, required=-20.0)
        with pytest.raises(ParseError, match=r"made\.csv:3: protected_radius_m '' is neither"):
            make_db(tmp_path, [near, weak], prop)
        # With a given radius it has no contour to compute.
        db = make_db(tmp_path, [near, weak._replace(radius=500.0)], prop)
        assert radius_in(db, "weak") == 500.0

    def test_a_repeated_id_fails_the_build(self, tmp_path, prop):
        rec = Record(id="twice", required=-84.0)
        with pytest.raises(ParseError, match=r"made\.csv:3: id 'twice' is a duplicate"):
            make_db(tmp_path, [rec, rec], prop)


# Coordinates near the query points, far from them, and at the ends of the
# doubles, where a distance or a grey boundary overflows.
NEAR = st.floats(-3e3, 3e3)
COORDS = st.one_of(NEAR, NEAR, st.floats(-2e5, 2e5),
                   st.sampled_from([1e308, -1e308, 1.7e308, 1e154, -1e154, 5e-324]))
# On the 37-channel grid, and off it.
CHANNELS = st.one_of(st.integers(0, 36), st.sampled_from([37, 40, 2**62]))
RADII = st.one_of(st.floats(1.0, 5e3), st.sampled_from([1e-300, 1e150, 1e308]))


@st.composite
def mixed_database(draw):
    """The rows of a database file (0-12 records, each with a given radius
    or a blank one with a finite contour), 0-3 more records for the file,
    with blank radii that may have no contour, and a grey margin."""
    rows = [f"r{i},AnalogPalD,{draw(CHANNELS)},{draw(COORDS)!r},{draw(COORDS)!r},"
            f"{draw(st.floats(40.0, 90.0))!r},30,-84,"
            f"{draw(st.one_of(st.just(''), RADII.map(repr)))}"
            for i in range(draw(st.integers(0, 12)))]
    added = [Record(id=f"a{i}", channel=draw(CHANNELS), x=draw(COORDS), y=draw(COORDS),
                    eirp=eirp, required=draw(st.sampled_from([-84.0, eirp - 30.0, eirp - 20.0])))
             for i, eirp in enumerate(draw(st.lists(st.floats(0.0, 70.0), max_size=3)))]
    return rows, added, draw(st.sampled_from([0.0, 1000.0, 5e4, 1e308]))


def _outcome(query):
    """The regions ``query()`` returns, or the type and message of what it raises."""
    try:
        return query()
    except Exception as exc:        # an escaped numpy RuntimeWarning included
        return type(exc), str(exc)


def test_query_equals_classify_region_on_the_whole_database(tmp_path_factory, grid):
    """The start-up query reads only the records near the point, yet returns
    what ``classify_region`` on the whole database gives channel by channel,
    or raises what it raises first, after the same number of its calls, one
    per grid channel up to there.  A CeNB EIRP of -100 dBm has no contour;
    at 0 MHz the interference radius warns, where a record is on the grid.
    The database is the drawn rows and the added records, less those with
    a blank radius and no contour, which fail the load.  Some added
    records sit 30 dB above their level, just past the 29.3 dB reference
    loss at 700 MHz, so near the contour edge: at least one of them must
    be kept and reach the comparison."""
    kept_near_edge = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(database=mixed_database(),
           point=st.tuples(COORDS, COORDS),
           cenb_eirp=st.sampled_from([20.0, 36.0, 3000.0, 2e4, -100.0]),
           freq=st.sampled_from([700.0, 700.0, 700.0, 0.0]))
    def check(database, point, cenb_eirp, freq):
        rows, added, margin = database
        path = tmp_path_factory.mktemp("geodb") / "db.csv"
        prop = PropagationConfig()
        degenerate = [rec for rec in added if rec.eirp - rec.required < prop.ref_loss(700.0)]
        if degenerate:
            path.write_text(db_text(added, rows, grey_margin_m=margin), encoding="utf-8")
            with pytest.raises(ParseError, match="protected_radius_m '' is neither"):
                load(path, prop)
        kept = [rec for rec in added if rec not in degenerate]
        kept_near_edge.extend(rec for rec in kept if rec.eirp - rec.required < 31.0)
        path.write_text(db_text(kept, rows, grey_margin_m=margin), encoding="utf-8")
        db = load(path, prop)

        oracle_calls = []

        def oracle():
            rows = []
            for ch in range(grid.n_channels):
                oracle_calls.append(ch)
                rows.append((ch, classify_region(db, point, ch, cenb_eirp, prop, grid, freq)))
            return rows

        calls = []

        def counted(db, point, channel_index, *args, **kwargs):
            calls.append(channel_index)
            return classify_region(db, point, channel_index, *args, **kwargs)

        expected = _outcome(oracle)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geodb, "classify_region", counted)
            query = _outcome(lambda: query_vacant_channels(db, point, cenb_eirp, prop, grid, freq))
        assert query == expected
        assert calls == oracle_calls

    check()
    assert kept_near_edge
