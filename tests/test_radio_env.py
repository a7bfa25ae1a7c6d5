import numpy as np
import pytest

from tvwsim.errors import AlignmentError, ParseError, ResolutionError
from tvwsim.radio_env import (
    OFF_POWER_DBM,
    FrequencyBand,
    PowerSpectrum,
    PropagationConfig,
    TvStandard,
    TvTransmitter,
    build_channel_grid,
    china_tv_grid,
    free_space_ref_loss_db,
    path_loss,
    received_spectrum,
    synthesize_tv_spectrum,
    thermal_noise_dbm,
    transmitters_from_csv,
    transmitters_to_csv,
)


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


class TestSynthesizeSpectrum:
    def test_carrier_bins_are_local_maxima(self):
        # channel edge 698 MHz: carriers at 699.25 / 703.68 / 705.75
        g = build_channel_grid(FrequencyBand(698.0, 706.0), 8.0)
        spec = synthesize_tv_spectrum(pal_tx(), g, total_power_dbm=0.0)
        for f in (699.25, 703.68, 705.75):
            b = int((f - 698.0) / spec.rbw_mhz)
            assert spec.bins_dbm[b] > spec.bins_dbm[b - 1]
            assert spec.bins_dbm[b] > spec.bins_dbm[b + 1]

    def test_off_transmitter_gives_floor_sentinel(self, grid):
        spec = synthesize_tv_spectrum(pal_tx(), grid, total_power_dbm=OFF_POWER_DBM)
        assert np.all(np.isneginf(spec.bins_dbm))

    def test_vision_carrier_bin_power(self, grid):
        # 10*log10(0.8) for the 0.80 vision fraction, checked against the
        # synthesized bin and the full in-channel sum
        spec = synthesize_tv_spectrum(pal_tx(channel=5), grid, total_power_dbm=0.0)
        b = int((grid.low_edge_mhz(5) + 1.25 - 470.0) / spec.rbw_mhz)
        assert spec.bins_dbm[b] == pytest.approx(10 * np.log10(0.8), abs=1e-9)
        assert spec.bins_dbm[b] == pytest.approx(-0.97, abs=0.01)

    def test_channel_sum_equals_total_power(self, grid):
        for total in (-30.0, 0.0, 13.5):
            spec = synthesize_tv_spectrum(pal_tx(channel=20), grid,
                                          total_power_dbm=total)
            assert 10 * np.log10(spec.total_power_mw()) == pytest.approx(total, abs=0.1)

    def test_dtmb_renders_flat(self, grid):
        tx = TvTransmitter(id="d", standard=TvStandard.DIGITAL_DTMB, channel_index=3,
                           location=(0, 0), eirp_dbm=0.0)
        spec = synthesize_tv_spectrum(tx, grid, total_power_dbm=0.0)
        lo = int((grid.low_edge_mhz(3) - 470.0) / spec.rbw_mhz)
        in_channel = spec.bins_dbm[lo:lo + 40]
        assert np.ptp(in_channel) == pytest.approx(0.0, abs=1e-9)
        assert 10 * np.log10(spec.total_power_mw()) == pytest.approx(0.0, abs=1e-9)

    def test_rbw_coarser_than_carrier_spacing_rejected(self, grid):
        with pytest.raises(ResolutionError):
            synthesize_tv_spectrum(pal_tx(), grid, rbw_khz=3000.0, total_power_dbm=0.0)


class TestPowerSpectrum:
    def test_stores_mw_and_derives_dbm(self):
        spec = PowerSpectrum(start_mhz=470.0, rbw_khz=200.0, mw=[0.0, 1.0, 100.0])
        assert spec.bins_mw() is spec.mw
        np.testing.assert_array_equal(spec.bins_dbm, [-np.inf, 0.0, 20.0])

    @pytest.mark.parametrize("mw", [[-1.0, 2.0], [np.inf], [np.nan], []])
    def test_rejects_negative_infinite_or_missing_power(self, mw):
        with pytest.raises(ValueError):
            PowerSpectrum(start_mhz=470.0, rbw_khz=200.0, mw=mw)


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
        mean_dbm = 10 * np.log10(np.mean(spec.bins_mw()))
        assert mean_dbm == pytest.approx(-115.0, abs=0.1)
        assert thermal_noise_dbm(200.0, 6.0) == pytest.approx(-114.99, abs=0.01)

    def test_identity_attenuation_reproduces_synthesis(self, grid):
        cfg = PropagationConfig(exponent=2.0, ref_loss_db=0.0)
        tx = pal_tx(channel=2, x=0.0, y=0.0, eirp=-40.0)
        spec = received_spectrum((0, 1.0), [tx], 0.0, cfg, grid,
                                 noise_figure_db=6.0)
        synth = synthesize_tv_spectrum(tx, grid, total_power_dbm=-40.0)
        noise_mw = 10 ** (thermal_noise_dbm(200.0, 6.0) / 10)
        expected = synth.bins_mw() + noise_mw
        np.testing.assert_allclose(spec.bins_mw(), expected, rtol=1e-12)

    def test_schedule_gating(self, grid, prop):
        tx = pal_tx(channel=2, x=100.0, eirp=30.0, schedule=((1000.0, 2000.0),))
        off = received_spectrum((0, 0), [tx], 500.0, prop, grid)
        noise_only = received_spectrum((0, 0), [], 500.0, prop, grid)
        np.testing.assert_array_equal(off.bins_dbm, noise_only.bins_dbm)
        on = received_spectrum((0, 0), [tx], 1500.0, prop, grid)
        assert on.total_power_mw() > noise_only.total_power_mw()

    def test_linear_superposition_noise_excluded(self, grid, prop):
        tx1 = pal_tx(channel=2, x=200.0, eirp=30.0)
        tx2 = TvTransmitter(id="u", standard=TvStandard.ANALOG_PAL_D,
                            channel_index=20, location=(0.0, 350.0), eirp_dbm=36.0)
        both = received_spectrum((0, 0), [tx1, tx2], 0, prop, grid, noise_figure_db=None)
        solo1 = received_spectrum((0, 0), [tx1], 0, prop, grid, noise_figure_db=None)
        solo2 = received_spectrum((0, 0), [tx2], 0, prop, grid, noise_figure_db=None)
        np.testing.assert_allclose(both.bins_mw(), solo1.bins_mw() + solo2.bins_mw(),
                                   rtol=1e-9)

    def test_monotone_attenuation(self, grid, prop):
        tx = pal_tx(channel=10, x=0.0, eirp=40.0)
        powers = [received_spectrum((d, 0), [tx], 0, prop, grid,
                                    noise_figure_db=None).total_power_mw()
                  for d in (10, 30, 100, 300, 1000, 3000)]
        assert all(a >= b for a, b in zip(powers, powers[1:]))

    def test_bit_identical_for_equal_seeds(self, grid, prop):
        tx = pal_tx(channel=10, x=50.0, eirp=20.0)
        a = received_spectrum((0, 0), [tx], 0, prop, grid,
                              rng=np.random.default_rng(3), snapshots=8)
        b = received_spectrum((0, 0), [tx], 0, prop, grid,
                              rng=np.random.default_rng(3), snapshots=8)
        np.testing.assert_array_equal(a.bins_dbm, b.bins_dbm)


class TestTransmitterCsv:
    def test_round_trip(self, tmp_path):
        txs = [pal_tx(channel=25, x=300.0, eirp=43.0, schedule=((1000.0, 2000.0),)),
               TvTransmitter(id="d", standard=TvStandard.DIGITAL_DTMB,
                             channel_index=3, location=(-50.0, 80.0), eirp_dbm=37.0)]
        path = tmp_path / "txs.csv"
        transmitters_to_csv(txs, path)
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
