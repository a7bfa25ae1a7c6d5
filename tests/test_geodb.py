from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvwsim import geodb
from tvwsim.errors import DegenerateContourError, ParseError
from tvwsim.geodb import (
    GeoDb,
    GeoRecord,
    Region,
    SeparationTable,
    classify_region,
    contour_radius_m,
    default_separation_table,
    load,
    protected_radius,
    query_vacant_channels,
    required_separation,
    save,
    separation_table_from_csv,
)
from tvwsim.radio_env import (
    PropagationConfig,
    TvStandard,
    TvTransmitter,
    free_space_ref_loss_db,
)


def service(channel=10, x=0.0, y=0.0, eirp=60.0, sid="svc"):
    return TvTransmitter(id=sid, standard=TvStandard.ANALOG_PAL_D,
                         channel_index=channel, location=(x, y), eirp_dbm=eirp)


def brute_force_radius(rec, prop, freq=700.0, hi=1e6):
    """Independent oracle: bisect the received-power crossing."""
    lo = prop.ref_distance_m
    eirp = rec.service.eirp_dbm
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rx = eirp - prop.median_loss_db(mid, freq)
        if rx >= rec.required_rx_dbm:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestProtectedRadius:
    def test_boundary_at_reference_distance(self):
        prop = PropagationConfig(ref_loss_db=29.3)
        rec = GeoRecord(service=service(eirp=60.0), required_rx_dbm=60.0 - 29.3)
        assert protected_radius(rec, prop) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_matches_brute_force(self, prop):
        rec = GeoRecord(service=service(eirp=60.0), required_rx_dbm=-84.0)
        r = protected_radius(rec, prop)
        assert r == pytest.approx(brute_force_radius(rec, prop), rel=1e-6)
        # free-space-at-1m reference (~29.3 dB), n=3.5: about 1886 m
        assert r == pytest.approx(1886.0, abs=10.0)

    def test_margin_doubling_doubles_radius(self, prop):
        extra = 35.0 * np.log10(2.0)
        r1 = protected_radius(GeoRecord(service=service(eirp=60.0),
                                        required_rx_dbm=-84.0), prop)
        r2 = protected_radius(GeoRecord(service=service(eirp=60.0 + extra),
                                        required_rx_dbm=-84.0), prop)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)

    def test_given_radius_wins(self, prop):
        rec = GeoRecord(service=service(), required_rx_dbm=-84.0,
                        protected_radius_m=1234.0)
        assert protected_radius(rec, prop) == 1234.0

    def test_unattainable_level_rejected(self, prop):
        with pytest.raises(DegenerateContourError):
            contour_radius_m(10.0, 20.0, prop)

    def test_contour_delivers_required_level(self, prop):
        rec = GeoRecord(service=service(eirp=72.0), required_rx_dbm=-84.0)
        r = protected_radius(rec, prop)
        rx = rec.service.eirp_dbm - prop.median_loss_db(r, 700.0)
        assert rx == pytest.approx(rec.required_rx_dbm, abs=0.01)


class TestRegions:
    def make_db(self, prop):
        return GeoDb([GeoRecord(service=service(channel=10, eirp=60.0), required_rx_dbm=-84.0)],
                     prop)

    def test_point_at_transmitter_is_black(self, prop, grid):
        db = self.make_db(prop)
        assert classify_region(db, (0.0, 0.0), 10, 20.0, prop, grid) is Region.BLACK

    def test_empty_database_is_white(self, prop, grid):
        assert classify_region(GeoDb(), (0, 0), 10, 20.0, prop, grid) is Region.WHITE

    def test_radial_sweep_matches_closed_form_crossovers(self, prop, grid):
        db = self.make_db(prop)
        rec = next(iter(db.records.values()))
        r_protected = protected_radius(rec, prop)
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

    def test_adjacent_channel_service_does_not_constrain(self, prop, grid):
        db = self.make_db(prop)
        assert classify_region(db, (0.0, 0.0), 11, 20.0, prop, grid) is Region.WHITE
        assert classify_region(db, (0.0, 0.0), 9, 20.0, prop, grid) is Region.WHITE

    def test_unknown_channel_rejected(self, prop, grid):
        with pytest.raises(IndexError):
            classify_region(GeoDb(), (0, 0), 37, 20.0, prop, grid)

    def test_query_coherent_with_classify(self, prop, grid):
        db = self.make_db(prop)
        point = (1500.0, 0.0)
        rows = query_vacant_channels(db, point, 20.0, prop, grid)
        assert len(rows) == 37
        for ch, region in rows:
            assert region is classify_region(db, point, ch, 20.0, prop, grid)

    def test_empty_db_query_all_white(self, prop, grid):
        rows = query_vacant_channels(GeoDb(), (0, 0), 20.0, prop, grid)
        assert all(r is Region.WHITE for _, r in rows)

    def test_inside_contour_blacks_one_channel(self, prop, grid):
        db = self.make_db(prop)
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


def saved_state(db):
    """What ``save`` writes of a database: its records and its metadata."""
    return db.records, (db.grey_margin_m, db.protection_floor_dbm, db.version)


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        db = GeoDb()
        path = tmp_path / "db.csv"
        save(db, path)
        assert saved_state(load(path)) == saved_state(db)

    def test_three_record_round_trip(self, tmp_path, prop):
        db = GeoDb([GeoRecord(service=service(channel=ch, x=100.0 * i, sid=f"s{i}"),
                              required_rx_dbm=-84.0, protected_radius_m=1000.0 + i)
                    for i, ch in enumerate((3, 10, 20))],
                   grey_margin_m=500.0, protection_floor_dbm=-110.0, version=3)
        path = tmp_path / "db.csv"
        save(db, path)
        loaded = load(path, prop)
        assert saved_state(loaded) == saved_state(db)
        assert loaded.version == 3
        assert list(loaded.records) == sorted(db.records)

    def test_blank_radius_computed_on_load(self, tmp_path, prop):
        path = tmp_path / "db.csv"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,"
                        "required_rx_dbm,protected_radius_m\n"
                        "svc,AnalogPalD,10,0.0,0.0,60.0,10.0,-84.0,\n")
        loaded = load(path, prop)
        rec = loaded.records["svc"]
        assert rec.protected_radius_m == pytest.approx(1886.0, abs=10.0)

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
    records = [r for r in records if r.service.channel_index == channel]
    if not records:
        return Region.WHITE
    r_interf = contour_radius_m(cenb_eirp, db.protection_floor_dbm, prop, freq)
    region = Region.WHITE
    for rec in records:
        d = float(np.hypot(point[0] - rec.service.location[0],
                           point[1] - rec.service.location[1]))
        r_protected = protected_radius(rec, prop, freq)
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
            records.append(GeoRecord(service=service(channel=int(rng.integers(0, 37)),
                                                     x=float(rng.uniform(-20e3, 20e3)),
                                                     y=float(rng.uniform(-20e3, 20e3)),
                                                     eirp=float(rng.uniform(50.0, 70.0)),
                                                     sid=f"r{i}"),
                                     required_rx_dbm=-84.0, protected_radius_m=radius))
        return records

    def assert_matches_the_scan(self, records, prop, grid, points):
        db = GeoDb(records, prop)
        seen = set()
        for point in points:
            for ch in range(grid.n_channels):
                region = classify_region(db, point, ch, 20.0, prop, grid)
                assert region is loop_classify(db, records, point, ch, 20.0, prop), (point, ch)
                seen.add(region)
        return seen

    def test_matches_the_per_record_scan(self, prop, grid):
        records = self.random_records(11)
        points = np.random.default_rng(12).uniform(-20e3, 20e3, size=(40, 2))
        seen = self.assert_matches_the_scan(records, prop, grid, points)
        assert seen == {Region.BLACK, Region.GREY, Region.WHITE}

    def test_matches_the_scan_with_a_record_more_and_with_half_the_records(self, prop, grid):
        records = self.random_records(21, n_records=60)
        points = np.random.default_rng(22).uniform(-20e3, 20e3, size=(15, 2))
        self.assert_matches_the_scan(records, prop, grid, points)
        records.append(GeoRecord(service=service(channel=4, x=float(points[0, 0]),
                                                 y=float(points[0, 1]), sid="new"),
                                 required_rx_dbm=-84.0))
        assert classify_region(GeoDb(records, prop), points[0], 4, 20.0, prop,
                               grid) is Region.BLACK
        self.assert_matches_the_scan(records, prop, grid, points)
        self.assert_matches_the_scan(records[1::2], prop, grid, points)

    def test_degenerate_contour_only_with_a_co_channel_record(self, prop, grid):
        db = GeoDb([GeoRecord(service=service(channel=10, x=50e3), required_rx_dbm=-84.0)], prop)
        # A CeNB EIRP below the protection floor plus the reference loss
        # has no interference contour: that matters only where a record is.
        assert classify_region(db, (0.0, 0.0), 11, -100.0, prop, grid) is Region.WHITE
        with pytest.raises(DegenerateContourError):
            classify_region(db, (0.0, 0.0), 10, -100.0, prop, grid)

    def test_a_blank_record_without_a_contour_fails_the_build(self, prop):
        near = GeoRecord(service=service(channel=10, sid="near"), required_rx_dbm=-84.0,
                         protected_radius_m=1000.0)
        # Its contour needs -20 dBm at 1 m from a 0 dBm service: degenerate.
        weak = GeoRecord(service=service(channel=10, x=9e3, eirp=0.0, sid="weak"),
                         required_rx_dbm=-20.0)
        with pytest.raises(DegenerateContourError):
            GeoDb([near, weak], prop)
        # With a given radius it has no contour to compute.
        db = GeoDb([near, replace(weak, protected_radius_m=500.0)], prop)
        assert db.records["weak"].protected_radius_m == 500.0

    def test_a_repeated_id_fails_the_build(self, prop):
        rec = GeoRecord(service=service(sid="twice"), required_rx_dbm=-84.0)
        with pytest.raises(ValueError, match="'twice'"):
            GeoDb([rec, rec], prop)


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
    """The text of a database file (0-12 records, each with a given radius
    or a blank one with a finite contour), 0-3 more records to build the
    database with, with blank radii that may have no contour, and a grey
    margin; a negative one, which only the constructor takes, ends the
    grey region inside the protected radius."""
    rows = [f"r{i},AnalogPalD,{draw(CHANNELS)},{draw(COORDS)!r},{draw(COORDS)!r},"
            f"{draw(st.floats(40.0, 90.0))!r},30,-84,"
            f"{draw(st.one_of(st.just(''), RADII.map(repr)))}"
            for i in range(draw(st.integers(0, 12)))]
    added = [GeoRecord(service=service(channel=draw(CHANNELS), x=draw(COORDS), y=draw(COORDS),
                                       eirp=eirp, sid=f"a{i}"),
                       required_rx_dbm=draw(st.sampled_from([-84.0, eirp - 20.0])))
             for i, eirp in enumerate(draw(st.lists(st.floats(0.0, 70.0), max_size=3)))]
    text = "\n".join([",".join(geodb.GEODB_FIELDS), *rows])
    return text + "\n", added, draw(st.sampled_from([0.0, -5e4, 1000.0, 5e4, 1e308]))


def _outcome(query):
    """The regions ``query()`` returns, or the type and message of what it raises."""
    try:
        return query()
    except Exception as exc:        # an escaped numpy RuntimeWarning included
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(database=mixed_database(),
       point=st.tuples(COORDS, COORDS),
       cenb_eirp=st.sampled_from([20.0, 36.0, 3000.0, 2e4, -100.0]),
       freq=st.sampled_from([700.0, 700.0, 700.0, 0.0]))
def test_query_equals_classify_region_on_the_whole_database(tmp_path_factory, grid, database,
                                                            point, cenb_eirp, freq):
    """The start-up query reads only the records near the point, yet returns
    what ``classify_region`` on the whole database gives channel by channel,
    or raises what it raises first, after the same number of its calls, one
    per grid channel up to there.  A CeNB EIRP of -100 dBm has no contour;
    at 0 MHz the interference radius warns, where a record is on the grid.
    The database is the loaded records and the added ones, less those with
    a blank radius and no contour, which fail the build."""
    text, added, margin = database
    path = tmp_path_factory.mktemp("geodb") / "db.csv"
    path.write_text(text, encoding="utf-8")
    prop = PropagationConfig()
    loaded = load(path, prop)
    degenerate = [rec for rec in added
                  if rec.service.eirp_dbm - rec.required_rx_dbm < prop.ref_loss(700.0)]
    if degenerate:
        with pytest.raises(DegenerateContourError):
            GeoDb([*loaded.records.values(), *added], prop)
    db = GeoDb([*loaded.records.values(), *(rec for rec in added if rec not in degenerate)],
               prop, grey_margin_m=margin, protection_floor_dbm=loaded.protection_floor_dbm)

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
