"""Adjacent-channel coexistence study between TV broadcasting and TD-LTE.

Monte Carlo over uniform user drops on a 19-site / 57-sector hexagonal
network sharing the area with a circular TV service: sweeps the
aggregate adjacent-channel isolation (ACIR) and measures TV outage
probability (downlink- and uplink-induced separately) plus the LTE
capacity lost to TV interference, then picks the guard band wide
enough that every constraint stays inside its loss budget.

Each snapshot drop is evaluated across the whole ACIR list, so curves
are exactly monotone per drop (paired seeds) and the infinite-ACIR
baseline is the capacity reference by construction.  A sweep builds one
evaluator (``_DropSums``) that holds what no drop changes and one
(ACIR, UE) work buffer, and adds its drops one at a time: the working
set is that of one drop, whatever the number of drops.  Each ACIR's
capacity is the pairwise sum of one contiguous buffer row, as a one-ACIR
sweep and the baseline sum theirs: a multi-ACIR sweep equals one-ACIR
sweeps exactly, and an infinite ACIR equals the baseline.  Path loss is
``radio_env.PropagationConfig``'s, with the free-space loss at 1 m, on
links clamped to the minimum coupling distance.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import SweepRangeError
from .radio_env import PropagationConfig, thermal_noise_dbm

TV_CHANNEL_BANDWIDTH_MHZ = 8.0


@dataclass(frozen=True)
class HexTopology:
    """19-site hex lattice (center, ring at isd, rings at sqrt(3) and 2 isd)
    with 3 sectors per site, and the TV circle placed at an offset."""

    sites: np.ndarray          # (19, 2) m
    sector_site: np.ndarray    # (57,) site index per sector
    sector_boresight_deg: np.ndarray
    isd_m: float
    tv_center: np.ndarray      # (2,) m
    tv_radius_m: float

    @property
    def n_sites(self):
        return self.sites.shape[0]

    @property
    def n_sectors(self):
        return self.sector_site.size

    @property
    def cell_radius_m(self):
        return self.isd_m / np.sqrt(3.0)


def build_topology(isd_m, tv_radius_m, offset=(0.0, 0.0)):
    """Canonical 19-site, 57-sector layout with the TV system at ``offset``."""
    if isd_m <= 0:
        raise ValueError("inter-site distance must be positive")
    pts = [(0.0, 0.0)]
    ring1 = [np.pi * (2 * k + 1) / 6 for k in range(6)]
    ring2a = [np.pi * (2 * k) / 6 for k in range(6)]
    pts += [(isd_m * np.cos(a), isd_m * np.sin(a)) for a in ring1]
    pts += [(np.sqrt(3) * isd_m * np.cos(a), np.sqrt(3) * isd_m * np.sin(a))
            for a in ring2a]
    pts += [(2 * isd_m * np.cos(a), 2 * isd_m * np.sin(a)) for a in ring1]
    sites = np.asarray(pts)
    sector_site = np.repeat(np.arange(len(pts)), 3)
    boresights = np.tile([0.0, 120.0, 240.0], len(pts))
    return HexTopology(sites=sites, sector_site=sector_site,
                       sector_boresight_deg=boresights, isd_m=float(isd_m),
                       tv_center=np.asarray(offset, dtype=float),
                       tv_radius_m=float(tv_radius_m))


@dataclass(frozen=True)
class CoexistenceConfig:
    """Powers, noise figures, drop sizes, protection threshold, path-loss
    exponent and carrier frequency.

    These are declared surrogate values calibrated so the default study
    produces all four budget crossings inside the swept ACIR range; the
    CeNB transmit power (20 dBm) is the test-bed value.
    """

    cenb_power_dbm: float = 20.0
    ue_power_dbm: float = 0.0
    tv_eirp_dbm: float = 59.0
    tv_protection_snr_db: float = 23.0
    tv_noise_figure_db: float = 7.0
    ue_noise_figure_db: float = 9.0
    cenb_noise_figure_db: float = 3.0
    n_tv_receivers: int = 10
    ues_per_sector: int = 10
    min_coupling_m: float = 10.0
    exponent: float = 3.5
    freq_mhz: float = 700.0


def _noise_mw(nf_db):
    return 10.0 ** (thermal_noise_dbm(TV_CHANNEL_BANDWIDTH_MHZ * 1e3, nf_db) / 10.0)


def _acir_linear(acir_db):
    """Isolations in dB as linear factors (``inf`` stays ``inf``)."""
    return 10.0 ** (np.asarray(acir_db, dtype=float) / 10.0)


def _drop_rng(seed, drop):
    """The stream of drop ``drop`` of a sweep with ``seed``."""
    return np.random.default_rng([int(seed), 0xD207, int(drop)])


class _DropSums:
    """One sweep's evaluator: drops evaluated across a fixed ACIR array
    and summed in drop order.

    Everything that no drop changes is computed once, here: the
    path-loss model, the serving site of each UE, the power of every link,
    the noise floors and protection threshold, and the uplink
    denominator ``n_bs + i_tv_site / acir`` of every (ACIR, site).  Each
    drop then makes one path-loss pass over all of its links and fills
    one reused (ACIR, UE) buffer, first with the downlink capacity terms
    and then with the uplink ones; the per-UE signals broadcast along its
    rows, and each ACIR's capacity is the pairwise sum of its row.  Row 0
    of ``outage`` and ``capacity`` is the downlink, row 1 the uplink.
    """

    def __init__(self, topo, cfg, acir_linear):
        self._prop = PropagationConfig(exponent=cfg.exponent)
        self._freq_mhz, self._min_coupling_m = cfg.freq_mhz, cfg.min_coupling_m
        n_rx, n_sites, n_sec, k = (cfg.n_tv_receivers, topo.n_sites, topo.n_sectors,
                                   cfg.ues_per_sector)
        n_ue = n_sec * k
        n_acir = acir_linear.size
        self._n_ue = n_ue
        self._acir = acir_linear
        self._acir_col = acir_linear[:, None]

        # One drop's uniforms, in draw order: receiver radii and angles,
        # then UE angles and radii, one row per sector.
        self._uniform = np.empty(2 * n_rx + 2 * n_ue)
        self._u_rx_r, self._u_rx_t = self._uniform[:2 * n_rx].reshape(2, n_rx)
        self._u_ue_ang, self._u_ue_r = self._uniform[2 * n_rx:].reshape(2, n_sec, k)
        self._tv_x, self._tv_y = topo.tv_center
        self._tv_radius = topo.tv_radius_m
        self._cell_radius = topo.cell_radius_m
        # Per (sector, UE) rather than per sector, so that no per-drop
        # operation broadcasts over short rows.
        self._wedge_start = np.repeat(
            np.deg2rad(topo.sector_boresight_deg)[:, None] - np.pi / 3, k, axis=1)
        centers = topo.sites[topo.sector_site]
        self._sector_x = np.repeat(centers[:, :1], k, axis=1)
        self._sector_y = np.repeat(centers[:, 1:], k, axis=1)
        self._ue_site = np.repeat(topo.sector_site, k)

        # All links of a drop in one array.  TV receivers (rows) see the TV
        # transmitter, every site and the scheduled (transmitting) UE of
        # every sector, in that column order.  Each UE sees its serving
        # site at the downlink and at the uplink power, and the TV.
        self._src_x = np.concatenate([topo.tv_center[:1], topo.sites[:, 0], np.zeros(n_sec)])
        self._src_y = np.concatenate([topo.tv_center[1:], topo.sites[:, 1], np.zeros(n_sec)])
        self._first_ue = 1 + n_sites
        site_p = cfg.cenb_power_dbm + 10.0 * np.log10(3.0)
        tv_p = np.concatenate([[cfg.tv_eirp_dbm], np.full(n_sites, site_p),
                               np.full(n_sec, cfg.ue_power_dbm)])
        ue_p = np.repeat([cfg.cenb_power_dbm, cfg.ue_power_dbm, cfg.tv_eirp_dbm], n_ue)
        self._p_dbm = np.concatenate([np.tile(tv_p, n_rx), ue_p])
        self._links = np.empty_like(self._p_dbm)
        self._tv_links = self._links[:n_rx * tv_p.size].reshape(n_rx, tv_p.size)
        self._ue_links = self._links[n_rx * tv_p.size:].reshape(3, n_sec, k)
        self._dx = np.empty_like(self._tv_links)

        self._n_tv = _noise_mw(cfg.tv_noise_figure_db)
        self._th = 10.0 ** (cfg.tv_protection_snr_db / 10.0)
        self._noise_dl_ul = np.array([[_noise_mw(cfg.ue_noise_figure_db)],
                                      [_noise_mw(cfg.cenb_noise_figure_db)]])
        d = topo.sites - topo.tv_center
        loss_tv_site = self._loss_db(np.sqrt((d * d).sum(axis=1)))
        i_tv_site = 10.0 ** ((cfg.tv_eirp_dbm - loss_tv_site) / 10.0)
        self._ul_denom = self._noise_dl_ul[1, 0] + i_tv_site / self._acir_col

        self._i_tv = np.empty((2, n_rx))
        self._sinr = np.empty((2, n_rx, n_acir))
        self._hit = np.empty((2, n_rx, n_acir), dtype=bool)
        self._buf = np.empty((n_acir, n_ue))
        self._base = np.empty((2, n_ue))

        self.outage = np.zeros((2, n_acir))
        self.outage_baseline = 0
        self.capacity = np.zeros((2, n_acir))
        self.capacity_baseline = np.zeros(2)

    def add(self, rng):
        """Draw one drop from ``rng`` and add its results to the sums."""
        rng.random(out=self._uniform)
        self._link_mw()
        self._add_tv_outage()
        self._add_lte_capacity()

    def _link_mw(self):
        """Place the drop's receivers and UEs, then the received power
        (mW) on every link of the drop."""
        # Uniform TV receivers in the TV circle, uniform UEs in their
        # sector's 120-degree wedge.
        r = self._tv_radius * np.sqrt(self._u_rx_r)
        t = 2 * np.pi * self._u_rx_t
        rx_x = self._tv_x + r * np.cos(t)
        rx_y = self._tv_y + r * np.sin(t)
        ang = self._wedge_start + 2 * np.pi / 3 * self._u_ue_ang
        rad = self._cell_radius * np.sqrt(self._u_ue_r)
        ue_x = self._sector_x + rad * np.cos(ang)
        ue_y = self._sector_y + rad * np.sin(ang)

        self._src_x[self._first_ue:] = ue_x[:, 0]
        self._src_y[self._first_ue:] = ue_y[:, 0]
        dx, d_tv = self._dx, self._tv_links
        np.subtract(rx_x[:, None], self._src_x, out=dx)
        np.subtract(rx_y[:, None], self._src_y, out=d_tv)
        dx *= dx
        d_tv *= d_tv
        d_tv += dx
        np.sqrt(d_tv, out=d_tv)
        d_ue = self._ue_links
        np.hypot(ue_x - self._sector_x, ue_y - self._sector_y, out=d_ue[0])
        d_ue[1] = d_ue[0]
        dx, dy = ue_x - self._tv_x, ue_y - self._tv_y
        np.sqrt(dx * dx + dy * dy, out=d_ue[2])

        mw = self._loss_db(self._links)
        np.subtract(self._p_dbm, mw, out=mw)
        mw /= 10.0
        np.power(10.0, mw, out=mw)

    def _loss_db(self, dist_m):
        """Path loss (dB) of links ``dist_m`` clamped to the coupling distance, in place."""
        np.maximum(dist_m, self._min_coupling_m, out=dist_m)
        return self._prop.median_loss_db(dist_m, self._freq_mhz, out=dist_m)

    def _add_tv_outage(self):
        """TV side: desired level and aggregate LTE interference per
        receiver, against the protection threshold."""
        s_rx = self._tv_links[:, 0]
        i_tv = self._i_tv
        np.add.reduce(self._tv_links[:, 1:self._first_ue], axis=1, out=i_tv[0])
        np.add.reduce(self._tv_links[:, self._first_ue:], axis=1, out=i_tv[1])
        sinr = self._sinr
        np.divide(i_tv[:, :, None], self._acir, out=sinr)
        sinr += self._n_tv
        np.divide(s_rx[:, None], sinr, out=sinr)
        np.less(sinr, self._th, out=self._hit)
        self.outage += self._hit.sum(axis=1)
        self.outage_baseline += int(np.count_nonzero(s_rx / self._n_tv < self._th))

    def _add_lte_capacity(self):
        """LTE side: each UE is served by its own sector's site, and TV
        leaks in through the receiving-side ACIR.  Co-channel LTE
        self-interference is absent by construction (the global manager
        assigns orthogonal blocks)."""
        s_dl, s_ul, i_tv_ue = self._ue_links.reshape(3, self._n_ue)
        buf = self._buf
        # Copying first and dividing in place broadcasts one operand per
        # call, which halves numpy's transient iteration buffers.
        np.copyto(buf, i_tv_ue)
        buf /= self._acir_col
        buf += self._noise_dl_ul[0, 0]
        self._add_mean_log2(0, s_dl)
        np.take(self._ul_denom, self._ue_site, axis=1, out=buf, mode="clip")
        self._add_mean_log2(1, s_ul)
        base = self._base
        np.divide(self._ue_links[:2].reshape(2, self._n_ue), self._noise_dl_ul, out=base)
        base += 1.0
        np.log2(base, out=base)
        self.capacity_baseline += np.add.reduce(base, axis=1) / self._n_ue

    def _add_mean_log2(self, row, signal):
        """Add the UE mean of log2(1 + signal / denominator) to capacity
        row ``row``, with the (ACIR, UE) denominators in the work buffer."""
        buf = self._buf
        np.divide(signal, buf, out=buf)
        buf += 1.0
        np.log2(buf, out=buf)
        self.capacity[row] += np.add.reduce(buf, axis=1) / self._n_ue


@dataclass(frozen=True)
class AcirPoint:
    acir_db: float
    tv_outage_dl: float
    tv_outage_ul: float
    dl_capacity_loss: float
    ul_capacity_loss: float


@dataclass(frozen=True)
class AcirCurve:
    """Swept coexistence curves plus the coverage-limited baseline outage."""

    points: tuple
    snapshots: int
    seed: int
    baseline_tv_outage: float

    def acirs(self):
        return np.array([p.acir_db for p in self.points])

    def series(self, name):
        return np.array([getattr(p, name) for p in self.points])


CONSTRAINT_NAMES = ("tv_outage_dl", "tv_outage_ul", "dl_capacity_loss",
                    "ul_capacity_loss")


def acir_sweep(topo, acir_list, snapshots, seed, cfg=CoexistenceConfig()):
    """Averaged outage and capacity-loss curves over paired-seed snapshots.

    Capacity loss is measured against the infinite-ACIR baseline of the
    same drops, so it is exactly zero there and the curves are
    non-increasing in ACIR point by point.
    """
    if snapshots < 1:
        raise ValueError("need at least one snapshot")
    acirs = np.asarray(sorted(float(a) for a in acir_list))
    if acirs.size == 0 or np.any(np.diff(acirs) == 0):
        raise ValueError("acir_list must be non-empty and without duplicates")
    sums = _DropSums(topo, cfg, _acir_linear(acirs))
    for snap in range(snapshots):
        sums.add(_drop_rng(seed, snap))
    out_dl, out_ul = sums.outage
    cap_dl, cap_ul = sums.capacity
    cap_dl_base, cap_ul_base = sums.capacity_baseline
    if not (cap_dl_base > 0 and cap_ul_base > 0):
        raise ValueError("the LTE links carry no capacity even at infinite ACIR, so no "
                         "capacity loss is defined: every UE's SNR underflows")
    n_rx = snapshots * cfg.n_tv_receivers
    points = tuple(
        AcirPoint(acir_db=float(a),
                  tv_outage_dl=float(out_dl[i] / n_rx),
                  tv_outage_ul=float(out_ul[i] / n_rx),
                  dl_capacity_loss=float(1.0 - cap_dl[i] / cap_dl_base),
                  ul_capacity_loss=float(1.0 - cap_ul[i] / cap_ul_base))
        for i, a in enumerate(acirs))
    return AcirCurve(points=points, snapshots=snapshots, seed=seed,
                     baseline_tv_outage=float(sums.outage_baseline / n_rx))


def curve_to_csv(curve, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["acir_db", "tv_outage_dl", "tv_outage_ul",
                         "dl_cap_loss", "ul_cap_loss", "snapshots", "seed"])
        for p in curve.points:
            writer.writerow([f"{p.acir_db:.10g}", f"{p.tv_outage_dl:.10g}",
                             f"{p.tv_outage_ul:.10g}", f"{p.dl_capacity_loss:.10g}",
                             f"{p.ul_capacity_loss:.10g}", curve.snapshots, curve.seed])


@dataclass(frozen=True)
class GuardBandMap:
    """Achieved isolation versus frequency separation.

    Entries are (acir_db, separation_mhz), strictly increasing in both:
    a higher required isolation needs a wider separation.  Lookup takes
    a required ACIR and returns the separation of the smallest grid
    entry providing at least that isolation (round-up semantics).
    """

    entries: tuple

    def __post_init__(self):
        acirs = [a for a, _ in self.entries]
        seps = [s for _, s in self.entries]
        if len(self.entries) < 2 or acirs != sorted(set(acirs)) or seps != sorted(set(seps)):
            raise ValueError("map entries must be strictly increasing in acir "
                             "and separation")

    def separation_for(self, required_acir_db):
        for acir, sep in self.entries:
            if acir >= required_acir_db - 1e-9:
                return sep
        raise SweepRangeError(
            f"required ACIR {required_acir_db:.1f} dB exceeds map range "
            f"(max {self.entries[-1][0]:.1f} dB)")


# Default, documented as calibration config: the 78 dB entry carries the
# 7 MHz separation used for TV/TD-LTE coexistence.
DEFAULT_GUARD_BAND_MAP = GuardBandMap(entries=(
    (30.0, 1.0), (38.0, 2.0), (46.0, 3.0), (54.0, 4.0), (62.0, 5.0),
    (70.0, 6.0), (78.0, 7.0), (86.0, 8.0), (94.0, 9.0),
))


@dataclass(frozen=True)
class GuardBandResult:
    separation_mhz: float
    binding_acir_db: float
    binding_constraint: str
    required_acir_db: dict = field(default_factory=dict)

    def summary_line(self):
        return (f"guard band {self.separation_mhz:g} MHz "
                f"(binding {self.binding_constraint} needs "
                f"{self.binding_acir_db:.2f} dB ACIR)")


def _crossing_acir(acirs, values, budget):
    """Smallest ACIR where a non-increasing curve meets the budget."""
    for i, v in enumerate(values):
        if v <= budget + 1e-12:
            if i == 0:
                return float(acirs[0])
            a0, a1, v0, v1 = acirs[i - 1], acirs[i], values[i - 1], values[i]
            if v0 <= v1:
                return float(a1)
            return float(a0 + (v0 - budget) * (a1 - a0) / (v0 - v1))
    return None


def determine_guard_band(curve, gb_map=DEFAULT_GUARD_BAND_MAP, loss_budget=0.05):
    """Separation needed so every constraint stays inside the loss budget.

    Each of the four curves yields the minimal ACIR meeting the budget
    (linear interpolation between swept points); the binding constraint
    is the maximum requirement, looked up in the map with round-up to
    its grid.  A curve that never crosses raises SweepRangeError.
    """
    acirs = curve.acirs()
    required = {}
    for name in CONSTRAINT_NAMES:
        crossing = _crossing_acir(acirs, curve.series(name), loss_budget)
        if crossing is None:
            raise SweepRangeError(
                f"{name} never meets budget {loss_budget:g} within the swept "
                f"ACIR range {acirs[0]:g}..{acirs[-1]:g} dB")
        required[name] = crossing
    binding_constraint = max(required, key=required.get)
    binding = required[binding_constraint]
    return GuardBandResult(separation_mhz=gb_map.separation_for(binding),
                           binding_acir_db=binding,
                           binding_constraint=binding_constraint,
                           required_acir_db=required)
