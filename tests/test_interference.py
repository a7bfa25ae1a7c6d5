"""The coexistence study: kernel maths against hand values, and the
invariants of the ACIR sweep."""

import tracemalloc

import numpy as np
import pytest

from tvwsim import _kernels, interference
from tvwsim.interference import (
    CONSTRAINT_NAMES,
    CoexistenceConfig,
    acir_sweep,
    build_topology,
)

# 30 dB at 1 m and exponent 3: 60 dB at 10 m, 90 dB at 100 m, 120 dB at 1 km.
LOSS = dict(ref_loss_db=30.0, exponent=3.0, ref_distance_m=1.0, min_distance_m=10.0)


@pytest.fixture(scope="module")
def topo():
    return build_topology(150.0, 350.0, (10.0, 0.0))


class TestKernels:
    def test_pairwise_distances_3_4_5(self):
        d = _kernels.pairwise_distances(np.array([[0.0, 0.0], [3.0, 0.0]]),
                                        np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert d.tolist() == [[5.0, 0.0], [4.0, 3.0]]

    def test_path_loss_clamped_at_min_distance(self):
        d = np.array([[1.0, 10.0], [100.0, 1000.0]])
        loss = _kernels.path_loss_db_matrix(d, **LOSS)
        np.testing.assert_allclose(loss, [[60.0, 60.0], [90.0, 120.0]], rtol=1e-14)

    def test_aggregate_is_the_sum_of_per_source_powers(self):
        # At the origin: 20 dBm from 100 m is 1e-7 mW, 30 dBm from 1 km is
        # 1e-9 mW, and 0 dBm from 1 m (clamped to 10 m) is 1e-6 mW.
        src = np.array([[100.0, 0.0], [0.0, 1000.0], [1.0, 0.0]])
        p_dbm = np.array([20.0, 30.0, 0.0])
        rx = np.zeros((1, 2))
        each = [_kernels.aggregate_rx_power_mw(src[j:j + 1], p_dbm[j:j + 1], rx, **LOSS)[0]
                for j in range(3)]
        np.testing.assert_allclose(each, [1e-7, 1e-9, 1e-6], rtol=1e-12)
        total = _kernels.aggregate_rx_power_mw(src, p_dbm, rx, **LOSS)
        np.testing.assert_allclose(total, [sum(each)], rtol=1e-15)


class TestSweep:
    def test_snapshot_is_a_one_snapshot_sweep(self, topo):
        cfg = CoexistenceConfig()
        snap = _one_drop(topo, cfg, 20.0, 7, 0)
        (cap_dl, cap_ul), (cap_dl_base, cap_ul_base) = snap.capacity[:, 0], snap.capacity_baseline
        point = acir_sweep(topo, [20.0], 1, 7, cfg).points[0]
        assert cap_dl < cap_dl_base
        assert point.dl_capacity_loss == 1.0 - cap_dl / cap_dl_base
        assert point.ul_capacity_loss == 1.0 - cap_ul / cap_ul_base
        assert point.tv_outage_dl == snap.outage[0, 0] / cfg.n_tv_receivers
        assert point.tv_outage_ul == snap.outage[1, 0] / cfg.n_tv_receivers

    def test_curves_non_increasing_in_acir(self, topo):
        curve = acir_sweep(topo, range(0, 101, 10), 20, seed=3)
        for name in CONSTRAINT_NAMES:
            series = curve.series(name)
            assert series[0] > 0.0, name
            assert np.all(np.diff(series) <= 0.0), name

    def test_capacity_loss_vanishes_at_huge_acir(self, topo):
        point = acir_sweep(topo, [300.0], 5, seed=3).points[0]
        assert point.dl_capacity_loss == pytest.approx(0.0, abs=1e-12)
        assert point.ul_capacity_loss == pytest.approx(0.0, abs=1e-12)


SEEDS = (1, 7, 2024)
ACIRS_DB = (0.0, 37.5, 100.0, 300.0)
DROPS = 4


def _one_drop(topo, cfg, acir_db, seed, drop):
    """Drop ``drop`` of a sweep with ``seed``, evaluated on its own."""
    sums = interference._DropSums(topo, cfg, interference._acir_linear([acir_db]))
    sums.add(interference._drop_rng(seed, drop))
    return sums


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_is_its_snapshots_summed_in_drop_order(topo, seed):
    cfg = CoexistenceConfig()
    n_rx = DROPS * cfg.n_tv_receivers
    for acir in ACIRS_DB:
        curve = acir_sweep(topo, [acir], DROPS, seed, cfg)
        out_dl = out_ul = out_base = 0
        cap_dl = cap_ul = cap_dl_base = cap_ul_base = 0.0
        for drop in range(DROPS):
            sums = _one_drop(topo, cfg, acir, seed, drop)
            out_dl += int(sums.outage[0, 0])
            out_ul += int(sums.outage[1, 0])
            out_base += sums.outage_baseline
            cap_dl += float(sums.capacity[0, 0])
            cap_ul += float(sums.capacity[1, 0])
            cap_dl_base += float(sums.capacity_baseline[0])
            cap_ul_base += float(sums.capacity_baseline[1])
        point = curve.points[0]
        assert point.tv_outage_dl == out_dl / n_rx
        assert point.tv_outage_ul == out_ul / n_rx
        assert curve.baseline_tv_outage == out_base / n_rx
        assert point.dl_capacity_loss == 1.0 - cap_dl / cap_dl_base
        assert point.ul_capacity_loss == 1.0 - cap_ul / cap_ul_base


@pytest.mark.parametrize("seed", SEEDS)
def test_all_acirs_at_once_match_one_acir_at_a_time(topo, seed):
    # The outage counts are exact; the capacities of a multi-ACIR sweep sum
    # each ACIR's column row by row rather than pairwise, so they may differ
    # from a one-ACIR sweep in the last bits.
    together = acir_sweep(topo, ACIRS_DB, DROPS, seed)
    for acir, point in zip(ACIRS_DB, together.points):
        alone = acir_sweep(topo, [acir], DROPS, seed).points[0]
        assert point.tv_outage_dl == alone.tv_outage_dl
        assert point.tv_outage_ul == alone.tv_outage_ul
        assert point.dl_capacity_loss == pytest.approx(alone.dl_capacity_loss, abs=1e-12)
        assert point.ul_capacity_loss == pytest.approx(alone.ul_capacity_loss, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_infinite_acir_snapshot_is_its_own_baseline(topo, seed):
    for drop in range(DROPS):
        sums = _one_drop(topo, CoexistenceConfig(), np.inf, seed, drop)
        assert sums.capacity[:, 0].tolist() == sums.capacity_baseline.tolist()
        assert sums.outage[:, 0].tolist() == [sums.outage_baseline] * 2


def test_sweep_memory_is_one_drops_working_set(topo):
    def peak_bytes(drops):
        tracemalloc.start()
        try:
            acir_sweep(topo, range(0, 101, 5), drops, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(2)   # one-time allocations outside the sweep
    assert peak_bytes(200) <= 1.1 * peak_bytes(20)
