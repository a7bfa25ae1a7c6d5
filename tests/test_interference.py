"""The coexistence study: kernel maths against hand values, and the
invariants of the ACIR sweep."""

import numpy as np
import pytest

from tvwsim import _kernels
from tvwsim.interference import (
    CONSTRAINT_NAMES,
    CoexistenceConfig,
    acir_sweep,
    build_topology,
    simulate_snapshot,
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
        snap = simulate_snapshot(topo, 20.0, 7, cfg)
        point = acir_sweep(topo, [20.0], 1, 7, cfg).points[0]
        assert snap.dl_capacity < snap.dl_capacity_baseline
        assert point.dl_capacity_loss == 1.0 - snap.dl_capacity / snap.dl_capacity_baseline
        assert point.ul_capacity_loss == 1.0 - snap.ul_capacity / snap.ul_capacity_baseline
        assert point.tv_outage_dl == snap.tv_outage_dl / cfg.n_tv_receivers
        assert point.tv_outage_ul == snap.tv_outage_ul / cfg.n_tv_receivers

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
