import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvwsim.errors import AlignmentError, ParseError, ResolutionError
from tvwsim.radio_env import (
    DEFAULT_RBW_KHZ,
    OFF_POWER_DBM,
    FrequencyBand,
    LinkArrays,
    PropagationConfig,
    ScheduleTable,
    TvStandard,
    TvTransmitter,
    build_channel_grid,
    china_tv_grid,
    free_space_ref_loss_db,
    mw_to_dbm,
    path_loss,
    received_spectrum,
    synthesize_tv_spectrum,
    thermal_noise_dbm,
    transmitters_from_csv,
)


RBW_MHZ = DEFAULT_RBW_KHZ / 1000.0


def pal_tx(channel=0, x=0.0, y=0.0, eirp=0.0, schedule=()):
    return TvTransmitter(id="t", standard=TvStandard.ANALOG_PAL_D,
                         channel_index=channel, location=(x, y), eirp_dbm=eirp,
                         schedule=schedule)


class TestChannelGrid:
    def test_china_grid_has_37_channels(self, grid):
        assert grid.n_channels == 37

    def test_no_channel_overlaps_the_exclusion(self, grid):
        for i in range(grid.n_channels):
            lo, hi = grid.low_edge_mhz(i), grid.high_edge_mhz(i)
            assert hi <= 566.0 or lo >= 606.0

    def test_single_channel_band(self):
        g = build_channel_grid(FrequencyBand(470.0, 478.0), 8.0)
        assert g.n_channels == 1
        assert g.low_edge_mhz(0) == 470.0

    def test_full_band_without_exclusion(self):
        # (806 - 470) / 8 channels by hand
        g = build_channel_grid(FrequencyBand(470.0, 806.0), 8.0)
        assert g.n_channels == 42

    def test_indices_ascend_in_frequency(self, grid):
        edges = [grid.low_edge_mhz(i) for i in range(grid.n_channels)]
        assert edges == sorted(edges)
        assert grid.low_edge_mhz(11) == 558.0
        assert grid.low_edge_mhz(12) == 606.0

    def test_misaligned_exclusion_rejected(self):
        with pytest.raises(AlignmentError):
            build_channel_grid(FrequencyBand(470.0, 806.0), 8.0,
                               (FrequencyBand(567.0, 606.0),))

    def test_non_whole_band_rejected(self):
        with pytest.raises(AlignmentError):
            build_channel_grid(FrequencyBand(470.0, 805.0), 8.0)

    def test_adjacency_breaks_across_exclusion(self, grid):
        assert grid.adjacent(10, 11)
        assert not grid.adjacent(11, 12)  # 566-606 gap between them

    def test_contiguous_runs_respect_the_gap(self, grid):
        runs = grid.contiguous_runs(range(37))
        assert [len(r) for r in runs] == [12, 25]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n_steps=st.integers(1, 40), width=st.sampled_from([1.0, 6.0, 8.0]))
    def test_contiguous_runs_equal_a_per_pair_adjacency_oracle(self, data, n_steps, width):
        # Gaps of 1-3 channel steps anywhere in the band, overlapping or not.
        gaps = data.draw(st.lists(st.tuples(st.integers(0, n_steps - 1), st.integers(1, 3)),
                                  max_size=3))
        grid = build_channel_grid(
            FrequencyBand(470.0, 470.0 + n_steps * width), width,
            [FrequencyBand(470.0 + k * width, 470.0 + (k + n) * width) for k, n in gaps])
        indices = data.draw(st.lists(st.integers(0, grid.n_channels - 1))
                            if grid.n_channels else st.just([]))
        expected = []
        for idx in sorted(set(indices)):
            if expected and expected[-1][-1] == idx - 1 and grid.adjacent(idx - 1, idx):
                expected[-1].append(idx)
            else:
                expected.append([idx])
        assert grid.contiguous_runs(indices) == expected

    def test_bin_layout_covers_the_band(self, grid):
        # 336 MHz / 200 kHz bins, centred half a bin above each bin's low edge
        assert grid.n_bins(200.0) == 1680
        centers = grid.bin_centers_mhz(200.0)
        assert centers.shape == (1680,)
        np.testing.assert_allclose(centers[[0, 1, -1]], [470.1, 470.3, 805.9], rtol=1e-15)
        assert build_channel_grid(FrequencyBand(698.0, 706.0), 8.0).n_bins(150.0) == 53


class TestSynthesizeSpectrum:
    def test_carrier_bins_are_local_maxima(self):
        # channel edge 698 MHz: carriers at 699.25 / 703.68 / 705.75
        g = build_channel_grid(FrequencyBand(698.0, 706.0), 8.0)
        dbm = mw_to_dbm(synthesize_tv_spectrum(pal_tx(), g, total_power_dbm=0.0))
        for f in (699.25, 703.68, 705.75):
            b = int((f - 698.0) / RBW_MHZ)
            assert dbm[b] > dbm[b - 1]
            assert dbm[b] > dbm[b + 1]

    def test_off_transmitter_gives_floor_sentinel(self, grid):
        spec = synthesize_tv_spectrum(pal_tx(), grid, total_power_dbm=OFF_POWER_DBM)
        assert spec.shape == (grid.n_bins(DEFAULT_RBW_KHZ),)
        assert np.all(np.isneginf(mw_to_dbm(spec)))

    def test_vision_carrier_bin_power(self, grid):
        # 10*log10(0.8) for the 0.80 vision fraction, checked against the
        # synthesized bin and the full in-channel sum
        dbm = mw_to_dbm(synthesize_tv_spectrum(pal_tx(channel=5), grid, total_power_dbm=0.0))
        b = int((grid.low_edge_mhz(5) + 1.25 - 470.0) / RBW_MHZ)
        assert dbm[b] == pytest.approx(10 * np.log10(0.8), abs=1e-9)
        assert dbm[b] == pytest.approx(-0.97, abs=0.01)

    def test_channel_sum_equals_total_power(self, grid):
        for total in (-30.0, 0.0, 13.5):
            spec = synthesize_tv_spectrum(pal_tx(channel=20), grid,
                                          total_power_dbm=total)
            assert 10 * np.log10(spec.sum()) == pytest.approx(total, abs=0.1)

    def test_dtmb_renders_flat(self, grid):
        tx = TvTransmitter(id="d", standard=TvStandard.DIGITAL_DTMB, channel_index=3,
                           location=(0, 0), eirp_dbm=0.0)
        spec = synthesize_tv_spectrum(tx, grid, total_power_dbm=0.0)
        lo = int((grid.low_edge_mhz(3) - 470.0) / RBW_MHZ)
        in_channel = mw_to_dbm(spec[lo:lo + 40])
        assert np.ptp(in_channel) == pytest.approx(0.0, abs=1e-9)
        assert 10 * np.log10(spec.sum()) == pytest.approx(0.0, abs=1e-9)

    def test_rbw_coarser_than_carrier_spacing_rejected(self, grid):
        with pytest.raises(ResolutionError):
            synthesize_tv_spectrum(pal_tx(), grid, rbw_khz=3000.0, total_power_dbm=0.0)


class TestPathLoss:
    def test_reference_point(self):
        cfg = PropagationConfig(ref_loss_db=40.0)
        assert path_loss(cfg, 1.0, 700.0) == 40.0

    def test_free_space_reference_at_700mhz(self):
        # Friis: 20*log10(4 pi d f / c)
        loss = free_space_ref_loss_db(700.0, 1.0)
        expected = 20 * np.log10(4 * np.pi * 700e6 / 299792458.0)
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(29.3, abs=0.1)

    def test_decade_adds_ten_n_db(self):
        cfg = PropagationConfig(exponent=3.5, ref_loss_db=29.3)
        assert path_loss(cfg, 10.0, 700.0) == pytest.approx(29.3 + 35.0, abs=1e-9)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(PropagationConfig(), 0.0, 700.0)

    @pytest.mark.parametrize("ref_loss_db", [None, 31.5])
    def test_in_place_loss_equals_the_loss_bit_for_bit(self, ref_loss_db):
        # (CeNB, transmitter) distances, some inside the reference distance,
        # against one carrier frequency per transmitter as LinkArrays passes
        # them: the free-space reference loss broadcasts per column.
        cfg = PropagationConfig(exponent=3.7, ref_distance_m=2.5, ref_loss_db=ref_loss_db)
        d = 10.0 ** np.random.default_rng(3).uniform(-2.0, 6.0, size=(50, 4))
        freq = np.array([474.0, 550.0, 698.0, 802.0])
        expected = cfg.ref_loss(freq) + 10.0 * cfg.exponent * np.log10(d / cfg.ref_distance_m)
        loss = cfg.median_loss_db(d, freq)
        assert loss.tobytes() == expected.tobytes()
        assert cfg.median_loss_db(d, freq, out=d) is d
        assert d.tobytes() == loss.tobytes()

    def test_shadowing_deterministic_for_seed(self):
        a = PropagationConfig(shadowing_sigma_db=8.0, seed=7)
        b = PropagationConfig(shadowing_sigma_db=8.0, seed=7)
        seq_a = [path_loss(a, 100.0, 700.0) for _ in range(5)]
        seq_b = [path_loss(b, 100.0, 700.0) for _ in range(5)]
        assert seq_a == seq_b
        assert len(set(seq_a)) > 1  # draws actually vary call to call


class TestReceivedSpectrum:
    def test_pure_noise_floor_mean(self, grid, prop, rng):
        # -174 + 10*log10(200e3) + 6 = -115.0 dBm per bin
        spec = received_spectrum((0, 0), [], 0.0, prop, grid, rng=rng, snapshots=4)
        assert spec.shape == (grid.n_bins(DEFAULT_RBW_KHZ),)
        mean_dbm = 10 * np.log10(np.mean(spec))
        assert mean_dbm == pytest.approx(-115.0, abs=0.1)
        assert thermal_noise_dbm(200.0, 6.0) == pytest.approx(-114.99, abs=0.01)

    def test_identity_attenuation_reproduces_synthesis(self, grid):
        cfg = PropagationConfig(exponent=2.0, ref_loss_db=0.0)
        tx = pal_tx(channel=2, x=0.0, y=0.0, eirp=-40.0)
        spec = received_spectrum((0, 1.0), [tx], 0.0, cfg, grid,
                                 noise_figure_db=6.0)
        synth = synthesize_tv_spectrum(tx, grid, total_power_dbm=-40.0)
        noise_mw = 10 ** (thermal_noise_dbm(200.0, 6.0) / 10)
        expected = synth + noise_mw
        np.testing.assert_allclose(spec, expected, rtol=1e-12)

    def test_schedule_gating(self, grid, prop):
        tx = pal_tx(channel=2, x=100.0, eirp=30.0, schedule=((1000.0, 2000.0),))
        off = received_spectrum((0, 0), [tx], 500.0, prop, grid)
        noise_only = received_spectrum((0, 0), [], 500.0, prop, grid)
        np.testing.assert_array_equal(mw_to_dbm(off), mw_to_dbm(noise_only))
        on = received_spectrum((0, 0), [tx], 1500.0, prop, grid)
        assert on.sum() > noise_only.sum()

    def test_linear_superposition_noise_excluded(self, grid, prop):
        tx1 = pal_tx(channel=2, x=200.0, eirp=30.0)
        tx2 = TvTransmitter(id="u", standard=TvStandard.ANALOG_PAL_D,
                            channel_index=20, location=(0.0, 350.0), eirp_dbm=36.0)
        both = received_spectrum((0, 0), [tx1, tx2], 0, prop, grid, noise_figure_db=None)
        solo1 = received_spectrum((0, 0), [tx1], 0, prop, grid, noise_figure_db=None)
        solo2 = received_spectrum((0, 0), [tx2], 0, prop, grid, noise_figure_db=None)
        np.testing.assert_allclose(both, solo1 + solo2, rtol=1e-9)

    def test_monotone_attenuation(self, grid, prop):
        tx = pal_tx(channel=10, x=0.0, eirp=40.0)
        powers = [received_spectrum((d, 0), [tx], 0, prop, grid,
                                    noise_figure_db=None).sum()
                  for d in (10, 30, 100, 300, 1000, 3000)]
        assert all(a >= b for a, b in zip(powers, powers[1:]))

    def test_bit_identical_for_equal_seeds(self, grid, prop):
        tx = pal_tx(channel=10, x=50.0, eirp=20.0)
        a = received_spectrum((0, 0), [tx], 0, prop, grid,
                              rng=np.random.default_rng(3), snapshots=8)
        b = received_spectrum((0, 0), [tx], 0, prop, grid,
                              rng=np.random.default_rng(3), snapshots=8)
        np.testing.assert_array_equal(mw_to_dbm(a), mw_to_dbm(b))


class TestTransmitterCsv:
    def test_rows_load_as_transmitters(self, tmp_path):
        txs = [pal_tx(channel=25, x=300.0, eirp=43.0, schedule=((1000.0, 2000.0),)),
               TvTransmitter(id="d", standard=TvStandard.DIGITAL_DTMB,
                             channel_index=3, location=(-50.0, 80.0), eirp_dbm=37.0)]
        path = tmp_path / "txs.csv"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                        "t,AnalogPalD,25,300,0,43,10,1000:2000\n"
                        "d,DigitalDtmb,3,-50,80,37,10,\n", encoding="utf-8")
        assert transmitters_from_csv(path) == txs

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,standard\nx,AnalogPalD\n")
        with pytest.raises(ParseError):
            transmitters_from_csv(path)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                        "t,AnalogPalD,notanint,0,0,0,10,\n")
        with pytest.raises(ParseError, match=":2"):
            transmitters_from_csv(path)

    def test_overlapping_schedule_rejected(self):
        with pytest.raises(ValueError):
            pal_tx(schedule=((0.0, 100.0), (50.0, 150.0)))


class TestArrays:
    def test_vectorised_path_loss_takes_the_sequential_draws(self):
        seq = PropagationConfig(shadowing_sigma_db=6.0, seed=4)
        vec = PropagationConfig(shadowing_sigma_db=6.0, seed=4)
        distances = np.array([[100.0, 250.0, 900.0], [40.0, 3000.0, 7.0]])
        expected = [[path_loss(seq, d, 700.0) for d in row] for row in distances]
        np.testing.assert_array_equal(path_loss(vec, distances, 700.0), expected)

    def test_schedule_table_agrees_with_the_intervals(self):
        txs = [pal_tx(schedule=((0.0, 10.0), (20.0, 30.0))), pal_tx(),
               pal_tx(schedule=((5.0, 25.0),))]
        times = [-1.0, 0.0, 5.0, 9.999, 10.0, 15.0, 20.0, 25.0, 29.0, 30.0, 1e9]
        expected = [[not tx.schedule or any(on <= t < off for on, off in tx.schedule)
                     for tx in txs] for t in times]
        np.testing.assert_array_equal(ScheduleTable(txs).active(times), expected)
        assert ScheduleTable([]).active([0.0, 1.0]).shape == (2, 0)

    @pytest.mark.parametrize("field, value", [("eirp", "inf"), ("eirp", "nan"),
                                              ("eirp", "-inf"), ("x", "inf"),
                                              ("schedule", "nan:5")])
    def test_non_finite_row_rejected(self, tmp_path, field, value):
        row = {"x": "0", "eirp": "40", "schedule": ""}
        row[field] = value
        path = tmp_path / "txs.csv"
        path.write_text("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                        f"t,AnalogPalD,3,{row['x']},0,{row['eirp']},10,{row['schedule']}\n")
        with pytest.raises(ParseError, match=":2"):
            transmitters_from_csv(path)


class TestMwToDbm:
    def test_subnormal_powers_keep_their_value(self):
        tiny = [1e-300, 1e-310, 1e-320, 5e-324]
        with np.errstate(all="raise"):
            dbm = mw_to_dbm(tiny)
        np.testing.assert_allclose(dbm, [10.0 * math.log10(p) for p in tiny], rtol=1e-15)
        assert dbm[2] == pytest.approx(-3200.0, abs=1e-3)

    def test_non_positive_or_nan_power_is_minus_infinity_without_a_warning(self):
        with np.errstate(all="raise"):
            dbm = mw_to_dbm([0.0, -0.0, -1.0, -np.inf, np.nan, np.inf, 1.0, 100.0])
        np.testing.assert_array_equal(dbm, [-np.inf] * 5 + [np.inf, 0.0, 20.0])

    def test_zero_one_and_hundred_mw(self):
        np.testing.assert_array_equal(mw_to_dbm([0.0, 1.0, 100.0]), [-np.inf, 0.0, 20.0])

    def test_shape_follows_the_input(self):
        assert mw_to_dbm(10.0).shape == ()
        assert float(mw_to_dbm(10.0)) == 10.0
        assert mw_to_dbm(np.ones((2, 3, 4))).shape == (2, 3, 4)


class TestScheduleTable:
    def test_adjacent_intervals_and_edges(self):
        txs = [pal_tx(schedule=((10.0, 20.0), (20.0, 30.0))), pal_tx(schedule=((15.0, 20.0),)),
               pal_tx(schedule=((-5.0, 0.5),)), pal_tx()]
        times = [-10.0, -5.0, 0.0, 0.5, 10.0, 15.0, 19.999, 20.0, 29.0, 30.0, 45.0]
        expected = [[not tx.schedule or any(on <= t < off for on, off in tx.schedule)
                     for tx in txs] for t in times]
        table = ScheduleTable(txs)
        np.testing.assert_array_equal(table.active(times), expected)
        assert table.active(20.0).shape == (1, 4)


class TestLinkArraysRows:
    @pytest.mark.parametrize("sigma", [0.0, 6.0])
    def test_rows_equal_one_mask_at_a_time(self, grid, sigma):
        txs = [pal_tx(channel=ch, x=d, eirp=43.0) for ch, d in ((3, 900.0), (9, 4000.0),
                                                                (20, 2500.0))]
        bins = np.arange(0, 1680, 7)
        points = [(0.0, 0.0), (700.0, -300.0)]
        rows = np.array([[1, 0, 1], [1, 0, 1], [0, 0, 0], [1, 1, 1], [1, 1, 1], [0, 1, 0]],
                        dtype=bool)

        def links():
            prop = PropagationConfig(shadowing_sigma_db=sigma, seed=9)
            return LinkArrays(points, txs, prop, grid, bins)

        one_at_a_time = links()
        expected = [one_at_a_time.mean_mw(row) for row in rows]
        assert np.array_equal(links().mean_mw(rows), expected)
