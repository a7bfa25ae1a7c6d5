import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from tvwsim.cenb import build_frame_schedule
from tvwsim.errors import CalibrationError, CoverageError, ParseError
from tvwsim.radio_env import (
    PropagationConfig,
    build_channel_grid,
    china_tv_grid,
    FrequencyBand,
    dbm_to_mw,
    received_spectrum,
    TvStandard,
    TvTransmitter,
)
from tvwsim.sensing import (
    _DRAW_CHUNK,
    _SUB_DRAW,
    DetectorConfig,
    _draw_thresholds,
    _fill_unit_gamma,
    _gamma_mean1_isf,
    _k_of_n,
    _unit_gamma_chunks,
    analytic_threshold_dbm,
    carrier_signal_mw,
    carrier_windows,
    default_calibration,
    estimate_roc,
    load_calibration,
    measure_pfa,
    per_carrier_pfa,
)

from gen_data import calibrate_threshold, save_calibration
from sensing_reference import detect_channels

# A deliberately small snapshot count keeps the noise-only false-alarm
# machinery exercised without Gamma concentration hiding mistakes.
SMALL = dict(snapshots_per_ms=50.0, sense_duration_ms=2.0)


def calibrated(target_pfa=0.01, **kw):
    return calibrate_threshold(DetectorConfig(target_pfa=target_pfa, **kw),
                               trials=200_000, seed=0)


def unit_gamma_draws(cfg, trials, rng):
    """All the draws of ``_unit_gamma_chunks`` in one carrier-major array,
    filled as the calibration fills its draws."""
    g = np.empty((trials, cfg.n_carriers), order="F")
    _fill_unit_gamma(g, cfg.n_snapshots(), rng)
    return g


class TestCalibration:
    def test_threshold_matches_independent_order_statistic_oracle(self):
        # oracle: fresh Monte Carlo of the 2nd-largest of 3 iid Gamma
        # window statistics, quantile taken directly
        cfg = calibrated(target_pfa=0.5, **SMALL)
        m = cfg.n_snapshots()
        rng = np.random.default_rng(999)
        noise = cfg.window_noise_mw()
        stats = noise * rng.gamma(m, 1.0 / m, size=(100_000, 3))
        kth = np.sort(stats, axis=1)[:, 1]
        oracle = 10 * np.log10(np.quantile(kth, 0.5))
        assert cfg.threshold_dbm == pytest.approx(oracle, abs=0.05)

    def test_pfa_one_gives_always_fire_sentinel(self):
        cfg = DetectorConfig(target_pfa=1.0)
        assert calibrate_threshold(cfg).threshold_dbm == float("-inf")

    def test_default_operating_point_pfa_on_fresh_seed(self):
        cfg = calibrated()
        pfa = measure_pfa(cfg, trials=100_000, seed=777)
        assert 0.008 <= pfa <= 0.012

    def test_agrees_with_wilson_hilferty_quantile(self):
        # dual route: Monte Carlo calibration vs closed-form Gamma tail
        cfg = calibrated()
        assert cfg.threshold_dbm == pytest.approx(analytic_threshold_dbm(cfg), abs=0.01)

    def test_analytic_threshold_against_scipy(self):
        cfg = DetectorConfig(**SMALL)
        p1 = per_carrier_pfa(cfg.target_pfa, cfg.k_required, cfg.n_carriers)
        m = cfg.n_snapshots()
        expected = 10 * np.log10(cfg.window_noise_mw() * sps.gamma.isf(p1, a=m) / m)
        assert analytic_threshold_dbm(cfg) == pytest.approx(expected, abs=1e-3)

    def test_operating_shape(self):
        schedule = build_frame_schedule()
        cfg = replace(default_calibration(), sense_duration_ms=schedule.sensing_time_ms)
        assert cfg.n_snapshots() == 21_250

    @pytest.mark.parametrize("shape, pfa, bound", [
        (100, 1e-2, 5e-5),
        (100, 1e-8, 1.1e-3),
        (21_250, 1e-2, 5e-7),
        (21_250, 1e-4, 5e-7),
        (21_250, 1e-6, 5e-7),
        (21_250, 1e-8, 5e-7),
    ])
    def test_wilson_hilferty_error_within_documented_bound(self, shape, pfa, bound):
        exact = sps.gamma.isf(pfa, a=shape, scale=1.0 / shape)
        assert abs(_gamma_mean1_isf(pfa, shape) / exact - 1.0) < bound

    def test_too_few_trials_rejected(self):
        cfg = DetectorConfig(target_pfa=0.001)
        with pytest.raises(ValueError):
            calibrate_threshold(cfg, trials=500)

    def test_degenerate_noise_model_rejected(self):
        cfg = DetectorConfig()
        with pytest.raises(CalibrationError):
            calibrate_threshold(cfg, noise_window_dbm=float("-inf"))

    def test_per_carrier_inversion(self):
        # 2-of-3 combination: 3 p^2 (1-p) + p^3 recovers the target
        p1 = per_carrier_pfa(0.01, 2, 3)
        assert 3 * p1**2 * (1 - p1) + p1**3 == pytest.approx(0.01, rel=1e-6)


class TestDetect:
    def setup_method(self):
        self.grid = build_channel_grid(FrequencyBand(470.0, 502.0), 8.0)
        self.cfg = calibrated(**SMALL)
        self.prop = PropagationConfig(ref_loss_db=0.0, exponent=2.0)

    def tx(self, power, channel=1):
        return TvTransmitter(id="t", standard=TvStandard.ANALOG_PAL_D,
                             channel_index=channel, location=(0.0, 1.0),
                             eirp_dbm=power)

    def spectrum(self, power, seed=1, channel=1):
        txs = [] if power is None else [self.tx(power, channel)]
        return received_spectrum((0, 0), txs, 0.0, self.prop, self.grid,
                                 snapshots=self.cfg.n_snapshots(),
                                 rng=np.random.default_rng(seed))

    def detect(self, spectrum):
        """Channel 1's carrier statistics and verdict: ``detect_channels``
        over the channel's ``carrier_windows`` of the spectrum."""
        windows = carrier_windows(self.grid.bin_centers_mhz(200.0),
                                  [self.grid.low_edge_mhz(1)], self.cfg)
        stats, occupied = detect_channels(self.cfg, spectrum, windows)
        return stats[0], bool(occupied[0])

    def test_strong_signal_occupied_on_all_carriers(self):
        stats, occupied = self.detect(self.spectrum(-60.0))
        assert occupied
        assert all(s > self.cfg.threshold_dbm for s in stats)

    def test_noise_only_mostly_vacant(self):
        # spectrum-level route should reproduce the calibrated Pfa
        hits = sum(self.detect(self.spectrum(None, seed=s))[1] for s in range(4000))
        assert hits / 4000 == pytest.approx(0.01, abs=0.008)

    def test_uncovered_channel_rejected(self):
        small = build_channel_grid(FrequencyBand(470.0, 478.0), 8.0)
        with pytest.raises(CoverageError):
            carrier_windows(small.bin_centers_mhz(200.0), [self.grid.low_edge_mhz(2)],
                            self.cfg)

    def test_uncalibrated_config_rejected(self):
        cfg = DetectorConfig()
        with pytest.raises(CalibrationError):
            estimate_roc(cfg, [-60.0], trials=10)
        with pytest.raises(CalibrationError):
            measure_pfa(cfg, trials=10)

    def test_detection_is_pure(self):
        spec = self.spectrum(-90.0)
        a_stats, a_occupied = self.detect(spec)
        b_stats, b_occupied = self.detect(spec)
        assert np.array_equal(a_stats, b_stats) and a_occupied == b_occupied

    def test_spectrum_route_matches_direct_statistic_route(self):
        # same signal model on both paths: window means from the spectrum
        # synthesis equal noise + carrier fractions of the total power
        sig = carrier_signal_mw(self.cfg, -80.0)
        spec = received_spectrum((0, 0), [self.tx(-80.0)], 0.0, self.prop, self.grid)
        windows = carrier_windows(self.grid.bin_centers_mhz(200.0),
                                  [self.grid.low_edge_mhz(1)], self.cfg)
        for idx, expected in zip(windows[0], sig):
            window = float(spec[idx].sum()) - self.cfg.window_noise_mw()
            assert window == pytest.approx(expected, rel=1e-9)


class TestOperatingPoint:
    def test_pd_at_minus_120_dbm(self):
        cfg = default_calibration()
        (point,) = estimate_roc(cfg, [-120.0], trials=20_000, seed=5)
        assert point.pd >= 0.9985

    def test_narrowband_gain_is_16_db(self, grid, prop, rng):
        # mean noise statistic of the 8 MHz energy detector vs the
        # 200 kHz feature window: 10*log10(8000/200) = 16.02 dB
        cfg = default_calibration()
        lo, hi = grid.low_edge_mhz(5), grid.high_edge_mhz(5)
        energies = []
        windows = []
        centers = grid.bin_centers_mhz(200.0)
        idx = carrier_windows(centers, [lo], cfg)[0, 0]
        for seed in range(300):
            spec = received_spectrum((0, 0), [], 0.0, prop, grid,
                                     rng=np.random.default_rng(seed), snapshots=1)
            energies.append(float(spec[(centers > lo) & (centers < hi)].sum()))
            windows.append(float(spec[idx].sum()))
        ratio_db = 10 * np.log10(np.mean(energies) / np.mean(windows))
        assert ratio_db == pytest.approx(16.02, abs=0.5)


class TestRoc:
    def setup_method(self):
        self.cfg = calibrated(**SMALL)

    def test_saturating_power_detected_always(self):
        (point,) = estimate_roc(self.cfg, [-30.0], trials=5000, seed=3)
        assert point.pd == 1.0

    def test_off_power_matches_false_alarm_rate(self):
        (point,) = estimate_roc(self.cfg, [float("-inf")], trials=100_000, seed=3)
        assert point.pd == pytest.approx(point.pfa, abs=0.003)

    def test_sweep_monotone_and_crosses_at_minus_120(self):
        cfg = default_calibration()
        powers = list(range(-130, -109))
        points = estimate_roc(cfg, powers, trials=30_000, seed=11)
        pds = [p.pd for p in points]
        assert all(a <= b for a, b in zip(pds, pds[1:]))  # exact, shared draws
        by_power = dict(zip(powers, pds))
        assert by_power[-120] >= 0.999

    def test_csv_output(self, tmp_path):
        from tvwsim.sensing import roc_to_csv

        points = estimate_roc(self.cfg, [-120.0, -115.0], trials=2000, seed=1)
        out = tmp_path / "roc.csv"
        roc_to_csv(points, 2000, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "power_dbm,pd,pfa,trials"
        assert len(lines) == 3


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        cfg = calibrated(**SMALL)
        path = tmp_path / "cal.csv"
        save_calibration(cfg, path)
        loaded = load_calibration(path)
        assert loaded.threshold_dbm == cfg.threshold_dbm
        assert loaded.snapshots_per_ms == cfg.snapshots_per_ms
        assert loaded.k_required == cfg.k_required
        assert loaded.noise_figure_db == cfg.noise_figure_db

    def test_unknown_param_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("param,value\nnoise_figure_db,6\nfoo,1\n")
        with pytest.raises(ParseError, match="foo"):
            load_calibration(path)

    def test_missing_param_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("param,value\nnoise_figure_db,6\n")
        with pytest.raises(ParseError, match="missing"):
            load_calibration(path)

    def test_always_fire_calibration_round_trips(self, tmp_path):
        cfg = calibrate_threshold(DetectorConfig(target_pfa=1.0))
        path = tmp_path / "cal.csv"
        save_calibration(cfg, path)
        assert load_calibration(path).threshold_dbm == float("-inf")

    def test_shipped_calibration_loads(self):
        cfg = default_calibration()
        assert cfg.threshold_dbm is not None
        assert cfg.k_required == 2


class TestConfigValidation:
    def test_k_required_range(self):
        with pytest.raises(ValueError):
            DetectorConfig(k_required=4)

    def test_det_bw_vs_carrier_spacing(self):
        with pytest.raises(ValueError):
            DetectorConfig(det_bw_khz=3000.0)

    def test_target_pfa_range(self):
        with pytest.raises(ValueError):
            DetectorConfig(target_pfa=0.0)


def product_count(cfg, signal_mw, noise_mw, g):
    """Reference count: the k-of-n rule on the formed products (noise + signal) * g."""
    tau = float(dbm_to_mw(cfg.threshold_dbm))
    return int(_k_of_n((noise_mw + signal_mw) * g, tau, cfg.k_required).sum())


class TestThresholdOnDraws:
    """Counting draws against per-carrier draw thresholds equals the product rule."""

    @pytest.mark.parametrize("power", [float("-inf"), -125.0, -120.0, -110.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_draws_at_and_just_below_each_threshold(self, k, power):
        cfg = replace(default_calibration(), k_required=k)
        noise = cfg.window_noise_mw()
        sig = carrier_signal_mw(cfg, power)
        g_star = _draw_thresholds(cfg, sig, noise)
        # every mix of "at g*" (1) and "one double below g*" (0) over the carriers
        at = np.array(list(itertools.product([0, 1], repeat=cfg.n_carriers)))
        g = np.where(at == 1, g_star, np.nextafter(g_star, 0.0))
        expected = int((at.sum(axis=1) >= k).sum())
        assert product_count(cfg, sig, noise, g) == expected
        assert int(np.count_nonzero(_k_of_n(g, g_star, k))) == expected

    def test_roc_sweeps_equal_the_product_rule(self):
        base = default_calibration()
        m, n = base.n_snapshots(), base.n_carriers
        noise = base.window_noise_mw()
        powers = list(range(-135, -104))
        trials = 1000
        partial = 0
        for k in (1, 2, 3):
            cfg = replace(base, k_required=k)
            signals = [carrier_signal_mw(cfg, p) for p in powers]
            for seed in range(20):
                g = np.random.default_rng([seed, 0x0FA]).gamma(m, 1.0 / m, size=(trials, n))
                pfa = product_count(cfg, np.zeros(n), noise, g) / trials
                g = np.random.default_rng([seed, 0x20C]).gamma(m, 1.0 / m, size=(trials, n))
                expected = [(float(p), product_count(cfg, sig, noise, g) / trials, pfa)
                            for p, sig in zip(powers, signals)]
                points = estimate_roc(cfg, powers, trials=trials, seed=seed)
                assert [(q.power_dbm, q.pd, q.pfa) for q in points] == expected
                partial += sum(0.0 < pd < 1.0 for _, pd, _ in expected)
        assert partial > 0  # the sweeps cross the detection transition

    def test_chunked_draws_equal_one_gamma_call(self):
        cfg = default_calibration()
        m, trials = cfg.n_snapshots(), 2 * _DRAW_CHUNK + 7
        one = np.random.default_rng(5).gamma(m, 1.0 / m, size=(trials, cfg.n_carriers))
        chunked = unit_gamma_draws(cfg, trials, np.random.default_rng(5))
        assert chunked.flags.f_contiguous
        assert np.array_equal(chunked, one)


@pytest.mark.parametrize("trials", [1, _SUB_DRAW - 1, _SUB_DRAW, _SUB_DRAW + 1,
                                    _DRAW_CHUNK - 1, _DRAW_CHUNK + 1, 2 * _DRAW_CHUNK + 7])
def test_filled_draws_equal_one_gamma_call(trials):
    # Sub-draws and chunks split the stream at every boundary: one, a
    # sub-draw either side of its size, a chunk either side of its size
    # and two chunks with a partial third.
    cfg = default_calibration()
    m, n = cfg.n_snapshots(), cfg.n_carriers
    one = np.random.default_rng(5).gamma(m, 1.0 / m, size=(trials, n))
    assert np.array_equal(unit_gamma_draws(cfg, trials, np.random.default_rng(5)), one)
    chunks = [g.copy() for g in _unit_gamma_chunks(cfg, trials, np.random.default_rng(5))]
    assert [len(g) for g in chunks[:-1]] == [_DRAW_CHUNK] * (len(chunks) - 1)
    assert np.array_equal(np.concatenate(chunks), one)


def test_the_chunks_reuse_one_buffer_that_the_draws_never_hold():
    # Every chunk is a view of one buffer, refilled at the next step; the
    # stacked draws are their own array, with the values each chunk held
    # when it was yielded.
    cfg = default_calibration()
    trials = 2 * _DRAW_CHUNK + 7
    views, copies = [], []
    for g in _unit_gamma_chunks(cfg, trials, np.random.default_rng(9)):
        views.append(g)
        copies.append(g.copy())
    assert all(np.shares_memory(views[0], g) for g in views[1:])
    assert not np.array_equal(views[0], copies[0])
    draws = unit_gamma_draws(cfg, trials, np.random.default_rng(9))
    assert not any(np.shares_memory(draws, g) for g in views)
    assert np.array_equal(draws, np.concatenate(copies))


def test_roc_counts_over_many_chunks_equal_the_product_rule():
    # Trials over three draw chunks, the last one partial: the chunked
    # counts equal the product rule on all the draws at once.
    cfg = default_calibration()
    m, n, noise = cfg.n_snapshots(), cfg.n_carriers, cfg.window_noise_mw()
    powers = [float("-inf"), -125.0, -122.0, -120.0]
    trials = 2 * _DRAW_CHUNK + 7
    g = np.random.default_rng([4, 0x0FA]).gamma(m, 1.0 / m, size=(trials, n))
    pfa = product_count(cfg, np.zeros(n), noise, g) / trials
    g = np.random.default_rng([4, 0x20C]).gamma(m, 1.0 / m, size=(trials, n))
    expected = [(p, product_count(cfg, carrier_signal_mw(cfg, p), noise, g) / trials, pfa)
                for p in powers]
    points = estimate_roc(cfg, powers, trials=trials, seed=4)
    assert [(q.power_dbm, q.pd, q.pfa) for q in points] == expected
    assert measure_pfa(cfg, trials=trials, seed=4) == pfa
    assert 0.0 < expected[2][1] < 1.0


def test_roc_memory_is_one_chunks_working_set():
    cfg = default_calibration()

    def peak_bytes(trials):
        tracemalloc.start()
        try:
            estimate_roc(cfg, [-125.0, -120.0], trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(_DRAW_CHUNK)     # one-time allocations outside the sweep
    peak = peak_bytes(20 * _DRAW_CHUNK)
    assert peak <= 1.1 * peak_bytes(2 * _DRAW_CHUNK)
    # One chunk of draws, carrier-major, plus the fill's sub-draw buffer and
    # the k-of-n temporaries; a second or third chunk-sized copy breaks it.
    chunk_bytes = _DRAW_CHUNK * cfg.n_carriers * 8
    assert peak <= 1.5 * chunk_bytes + 64_000


# The operating detector (fig17's 1.7 ms of sensing at Pfa 1e-8), then
# (target_pfa, k, carrier offsets, sense duration) points off it: per-carrier
# rate and threshold, as repr, from the 200-step bisection.
THRESHOLD_PINS = [
    (dict(target_pfa=1e-8, sense_duration_ms=1.7, snapshots_per_ms=12500.0),
     "5.773613808353533e-05", "-114.8754052042493"),
    (dict(target_pfa=0.01, k_required=2, sense_duration_ms=2.0),
     "0.058903135778195254", "-114.75350968307318"),
    (dict(target_pfa=0.1, k_required=1, sense_duration_ms=0.5),
     "0.03451061539437024", "-114.44989624603318"),
    (dict(target_pfa=1e-4, k_required=3, sense_duration_ms=1.0),
     "0.046415888336127795", "-114.63329122076418"),
    (dict(target_pfa=0.05, k_required=1, carrier_offsets_mhz=(1.25,), sense_duration_ms=2.0),
     "0.05", "-114.74133088735654"),
    (dict(target_pfa=1e-6, k_required=3, carrier_offsets_mhz=(0.5, 1.25, 5.68, 7.75),
          sense_duration_ms=0.25),
     "0.006309573670144919", "-113.96247802186011"),
]


@pytest.mark.parametrize("fields, p1, threshold", THRESHOLD_PINS)
def test_threshold_bisection_is_pinned(fields, p1, threshold):
    cfg = DetectorConfig(**fields)
    assert repr(per_carrier_pfa(cfg.target_pfa, cfg.k_required, cfg.n_carriers)) == p1
    assert repr(analytic_threshold_dbm(cfg)) == threshold


def _windows_by_bin(centers, low_edges, cfg):
    """Every window's bins, found by testing each bin in turn."""
    reach = cfg.det_bw_khz / 1000.0 / 2 + 1e-9
    return [[i for i, center in enumerate(centers.tolist()) if abs(center - (lo + off)) <= reach]
            for lo in low_edges for off in cfg.carrier_offsets_mhz]


_WINDOW_GRIDS = {
    "china": (china_tv_grid(), DetectorConfig()),
    "vhf_6mhz": (build_channel_grid(FrequencyBand(174.0, 216.0), 6.0),
                 DetectorConfig(carrier_offsets_mhz=(1.25, 4.83, 5.75))),
    "offset_7mhz": (build_channel_grid(FrequencyBand(300.05, 391.05), 7.0,
                                       [FrequencyBand(321.05, 328.05)]),
                    DetectorConfig(carrier_offsets_mhz=(0.75, 5.25), k_required=1)),
}


@pytest.mark.parametrize("rbw_khz", [200.0, 50.0, 12.5])
@pytest.mark.parametrize("name", sorted(_WINDOW_GRIDS))
def test_carrier_windows_equal_a_bin_by_bin_search(name, rbw_khz):
    grid, cfg = _WINDOW_GRIDS[name]
    centers = grid.bin_centers_mhz(rbw_khz)
    rows = _windows_by_bin(centers, grid.low_edges_mhz, cfg)
    windows = carrier_windows(centers, grid.low_edges_mhz, cfg)
    assert windows.shape == (grid.n_channels, cfg.n_carriers, len(rows[0]))
    assert windows.dtype == np.intp
    assert windows.reshape(len(rows), -1).tolist() == rows


def test_carrier_windows_wider_than_their_bins_are_a_coverage_error():
    grid, cfg = _WINDOW_GRIDS["china"]
    centers = grid.bin_centers_mhz(300.0)
    assert {len(row) for row in _windows_by_bin(centers, grid.low_edges_mhz, cfg)} == {0, 1}
    with pytest.raises(CoverageError, match=r"hold \[0, 1\] bins"):
        carrier_windows(centers, grid.low_edges_mhz, cfg)
