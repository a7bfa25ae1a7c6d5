"""Seeded inputs, command lines and output checks of the benchmark workloads.

Every input the program sees is generated here from the benchmark seed
and written into a work directory; the program receives only those
files.  ``prepare`` returns what one workload needs: the ``tvwsim``
argument vector, the amount of work one command does, the generated
sizes and the set-up statement timed in a fresh interpreter.
``check_outputs`` and ``check_reference`` hold the output checks.
"""

import csv
import hashlib
import math
import os
import random
import re
from dataclasses import dataclass, field

from tvwsim import china_tv_grid, harness

# The default scenario frame is tdd-2, "DSUDDDSUDD": six downlink subframes.
DL_SUBFRAMES = 6
FRAME_MS = 10
PACKETS_PER_DL_SUBFRAME = 10
MIN_HANDOVERS = 3
ROC_POWERS = "-130:-110:1"
ROC_N_POWERS = 21
ROC_TARGET_PFA = 0.01
HANDOVER_ON_MS = 200
HANDOVER_OFF_MS = 100

# Sizes per workload; the smoke sizes are for the benchmark's self-tests.
SIZES = {
    "cluster": {"cenbs": 16, "spacing_m": 400, "frames": 50, "transmitters": 12,
                "geodb_records": 2000, "shadowing_sigma_db": 6},
    "handover": {"cenbs": 1, "frames": 1000},
    "acir": {},
    "roc": {"trials": 500_000, "powers": ROC_N_POWERS},
}
SMOKE_SIZES = {
    "cluster": {"cenbs": 16, "spacing_m": 400, "frames": 20, "transmitters": 12,
                "geodb_records": 100, "shadowing_sigma_db": 6},
    "handover": {"cenbs": 1, "frames": 200},
    "acir": {"snapshots": 20},
    "roc": {"trials": 2_000, "powers": ROC_N_POWERS},
}

UNITS = {
    "cluster": "CeNB-frames",
    "handover": "CeNB-frames",
    "acir": "drop-ACIR evaluations",
    "roc": "trial-power levels",
}


@dataclass
class Prepared:
    """One generated workload, ready to run."""

    name: str
    argv: list            # arguments of tvwsim.cli.main, output path included
    out: str              # output directory or file the command writes
    units: float          # work done by one command, in UNITS[name]
    sizes: dict
    setup_stmt: str       # input loading timed by setup_s (after the import)
    files: list = field(default_factory=list)   # generated input files


def output_digest(out):
    """sha256 over the files a command wrote (name and bytes, sorted)."""
    paths = ([os.path.join(out, n) for n in sorted(os.listdir(out))]
             if os.path.isdir(out) else [out])
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _rng(name, seed):
    return random.Random(f"tvwsim-bench:{name}:{seed}")


def _write_scenario(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


TX_HEADER = "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule"
GEODB_HEADER = ("id,standard,channel,x_m,y_m,eirp_dbm,height_m,"
                "required_rx_dbm,protected_radius_m")


def _write_transmitters(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TX_HEADER + "\n")
        for tx_id, ch, x, y, eirp, schedule in rows:
            sched = ";".join(f"{on}:{off}" for on, off in schedule)
            fh.write(f"{tx_id},AnalogPalD,{ch},{x:.1f},{y:.1f},{eirp:.1f},30,{sched}\n")


def _gen_cluster(seed, work, sizes):
    """16 CeNBs on a grid under OR fusion, PAL-D transmitters switching on
    inside the band the allocator hands out, and a geo-database whose
    near records make Black and Grey channels at the cluster."""
    rng = _rng("cluster", seed)
    side = int(round(math.sqrt(sizes["cenbs"])))
    spacing = sizes["spacing_m"]
    frames = sizes["frames"]
    duration = frames * FRAME_MS
    extent = (side - 1) * spacing
    cx = cy = extent / 2.0

    # Every transmitter is on for 40 % of the run, so each seed synthesizes
    # the same number of spectra; only when, where and on which channel vary.
    txs = []
    for i in range(sizes["transmitters"]):
        on = rng.randint(duration // 10, duration // 2)
        off = on + 4 * duration // 10
        txs.append((f"tv{i}", rng.randint(12, 36),
                    rng.uniform(-300.0, extent + 300.0), rng.uniform(-300.0, extent + 300.0),
                    rng.uniform(40.0, 46.0), [(on, off)]))
    tx_path = os.path.join(work, "transmitters.csv")
    _write_transmitters(tx_path, txs)

    # Near records: protected contours of ~1.9 km around services 2-3 km
    # from the cluster centre give Black and Grey channels; the far ones
    # only cost query time.
    db_path = os.path.join(work, "geodb.csv")
    with open(db_path, "w", encoding="utf-8") as fh:
        fh.write(GEODB_HEADER + "\n")
        for i in range(sizes["geodb_records"]):
            if i < 3:
                dist = rng.uniform(2000.0, 2300.0) if i == 0 else rng.uniform(2600.0, 3000.0)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                x, y, eirp = cx + dist * math.cos(ang), cy + dist * math.sin(ang), 60.0
            else:
                x = rng.uniform(-100_000.0, 100_000.0)
                y = rng.uniform(-100_000.0, 100_000.0)
                eirp = rng.uniform(50.0, 70.0)
            fh.write(f"db{i},AnalogPalD,{rng.randint(0, 36)},{x:.1f},{y:.1f},"
                     f"{eirp:.1f},{rng.uniform(30.0, 300.0):.1f},-84,\n")

    lines = [f"sim.seed = {seed}", f"sim.duration_ms = {duration}",
             "sim.fusion_rule = OR",
             f"sim.packets_per_dl_subframe = {PACKETS_PER_DL_SUBFRAME}",
             f"prop.shadowing_sigma_db = {sizes['shadowing_sigma_db']}",
             "files.transmitters = transmitters.csv", "files.geodb = geodb.csv"]
    for k in range(side * side):
        row, col = divmod(k, side)
        lines += [f"cenb{k + 1}.id = c{k + 1:02d}",
                  f"cenb{k + 1}.x_m = {col * spacing + rng.uniform(-50.0, 50.0):.1f}",
                  f"cenb{k + 1}.y_m = {row * spacing + rng.uniform(-50.0, 50.0):.1f}",
                  f"cenb{k + 1}.power_dbm = 20"]
    path = os.path.join(work, "cluster.ini")
    _write_scenario(path, lines)
    return path, [tx_path, db_path]


def _best_block(grid, vacant):
    """First three channels of the longest vacant run, ties to the lowest
    index: the rule the CeNB's spectrum decision applies."""
    runs = grid.contiguous_runs(vacant)
    best = max(runs, key=lambda r: (len(r), -r[0]))
    return tuple(best[:3])


def _gen_handover(seed, work, sizes):
    """One CeNB and one transmitter at a time, each switching on inside the
    block the CeNB holds at that moment, so that every switch-on forces
    a handover.  The block is followed with the decision rule on the
    default grid (one occupied channel at a time, no geo-database)."""
    rng = _rng("handover", seed)
    grid = china_tv_grid()
    channels = range(grid.n_channels)
    duration = sizes["frames"] * FRAME_MS
    block = _best_block(grid, channels)
    sites = {}
    schedule = {}
    # A fixed on/off rhythm gives every seed the same number of switch-ons
    # and of transmitter-on frames; the channel, site and power vary.
    t = 50
    while t + HANDOVER_ON_MS <= duration - 50:
        ch = rng.choice(block)
        if ch not in sites:
            ang = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(200.0, 500.0)
            sites[ch] = (dist * math.cos(ang), dist * math.sin(ang), rng.uniform(40.0, 46.0))
        schedule.setdefault(ch, []).append((t, t + HANDOVER_ON_MS))
        block = _best_block(grid, [c for c in channels if c != ch])
        t += HANDOVER_ON_MS + HANDOVER_OFF_MS
    rows = [(f"tv{ch}", ch, *sites[ch], schedule[ch]) for ch in sorted(schedule)]
    tx_path = os.path.join(work, "transmitters.csv")
    _write_transmitters(tx_path, rows)
    lines = [f"sim.seed = {seed}", f"sim.duration_ms = {duration}",
             f"sim.packets_per_dl_subframe = {PACKETS_PER_DL_SUBFRAME}",
             "files.transmitters = transmitters.csv",
             "cenb1.id = cenb1", "cenb1.x_m = 0", "cenb1.y_m = 0", "cenb1.power_dbm = 20"]
    path = os.path.join(work, "handover.ini")
    _write_scenario(path, lines)
    sizes["transmitters"] = len(rows)
    sizes["switch_ons"] = sum(len(s) for s in schedule.values())
    return path, [tx_path]


def _read_kv(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.split(":", 1) for line in fh.read().splitlines() if ":" in line)


def _check_simulate(prep, out, counts):
    sizes = prep.sizes
    fails = []
    expected = sizes["frames"] * DL_SUBFRAMES * sizes["cenbs"] * PACKETS_PER_DL_SUBFRAME
    if counts["harness.packets_offered"] != expected:
        fails.append(f"packets_offered {counts['harness.packets_offered']} != {expected}")
    written = int(_read_kv(os.path.join(out, "handover_summary.txt"))["handovers"])
    if written != counts["harness.handovers"]:
        fails.append(f"handover_summary says {written}, run returned "
                     f"{counts['harness.handovers']}")
    if written < MIN_HANDOVERS:
        fails.append(f"only {written} handovers (need {MIN_HANDOVERS})")
    fused = counts["cenb.fuse_cooperative.calls"]
    if prep.name == "cluster":
        if fused == 0:
            fails.append("no X2 fusion on a multi-CeNB scenario")
        if counts["geodb.black"] == 0 or counts["geodb.grey"] == 0:
            fails.append("geo-database gave no Black or no Grey channel")
    elif fused != 0:
        fails.append(f"{fused} fusion calls on a single-CeNB scenario")
    return fails


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_acir(_prep, out, _counts):
    rows = _read_csv(os.path.join(out, "acir_curve.csv"))
    fails = []
    for col in ("tv_outage_dl", "tv_outage_ul", "dl_cap_loss", "ul_cap_loss"):
        values = [float(r[col]) for r in rows]
        if any(b > a for a, b in zip(values, values[1:])):
            fails.append(f"{col} increases with ACIR")
    with open(os.path.join(out, "guard_band.txt"), encoding="utf-8") as fh:
        if not fh.readline().startswith("guard band "):
            fails.append("guard_band.txt has no guard band")
    return fails


def _check_roc(prep, out, _counts):
    rows = _read_csv(out)
    fails = []
    if len(rows) != ROC_N_POWERS:
        fails.append(f"{len(rows)} ROC points, expected {ROC_N_POWERS}")
    pd = [float(r["pd"]) for r in rows]
    if any(b < a for a, b in zip(pd, pd[1:])):
        fails.append("pd decreases with power")
    # The false-alarm rate is a binomial estimate of the calibrated target.
    trials = prep.sizes["trials"]
    pfa = float(rows[0]["pfa"])
    sigma = math.sqrt(ROC_TARGET_PFA * (1 - ROC_TARGET_PFA) / trials)
    if abs(pfa - ROC_TARGET_PFA) > 6 * sigma:
        fails.append(f"pfa {pfa} is more than 6 sigma from {ROC_TARGET_PFA}")
    return fails


def prepare(name, seed, work, scenarios_dir, smoke=False):
    """Generate workload ``name`` for ``seed`` under ``work``."""
    sizes = dict((SMOKE_SIZES if smoke else SIZES)[name])
    out = os.path.join(work, "out")
    if name in ("cluster", "handover"):
        gen = _gen_cluster if name == "cluster" else _gen_handover
        path, files = gen(seed, work, sizes)
        return Prepared(name, ["simulate", path, "--out", out], out,
                        sizes["cenbs"] * sizes["frames"], sizes,
                        f"harness.load_scenario({path!r})", [path, *files])
    if name == "acir":
        with open(os.path.join(scenarios_dir, "acir_default.ini"), encoding="utf-8") as fh:
            text = fh.read()
        text = re.sub(r"(?m)^interference\.seed = .*$", f"interference.seed = {seed}", text)
        if "snapshots" in sizes:
            text = re.sub(r"(?m)^interference\.snapshots = .*$",
                          f"interference.snapshots = {sizes['snapshots']}", text)
        path = os.path.join(work, "acir.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        study = harness.load_acir_study(path)
        sizes.update(snapshots=study.snapshots, acirs=len(study.acir_list))
        return Prepared(name, ["acir", path, "--out", out], out,
                        study.snapshots * len(study.acir_list), sizes,
                        f"harness.load_acir_study({path!r})", [path])
    if name == "roc":
        out = os.path.join(work, "roc.csv")
        return Prepared(name, ["roc", "default", "--seed", str(seed), "--trials",
                               str(sizes["trials"]), f"--powers={ROC_POWERS}", "--out", out],
                        out, sizes["trials"] * sizes["powers"], sizes,
                        "sensing.default_calibration()")
    raise ValueError(f"unknown workload {name!r}")


def check_outputs(prep, out, counts):
    """Invariants of one command's outputs; returns a list of failures.

    ``counts`` are the exact counts the traced validation run recorded.
    """
    check = {"cluster": _check_simulate, "handover": _check_simulate,
             "acir": _check_acir, "roc": _check_roc}[prep.name]
    return check(prep, out, counts)


# Fixed-reference checks on the committed scenarios: the paper's numbers
# as the repository reproduces them.

def reference_argv(name, scenarios_dir, out):
    if name in ("cluster", "handover"):
        return ["simulate", os.path.join(scenarios_dir, "handover_fig17.ini"), "--out", out]
    if name == "acir":
        return ["acir", os.path.join(scenarios_dir, "acir_default.ini"), "--out", out]
    return ["roc", "default", "--out", out]


def check_reference(name, out):
    fails = []
    if name in ("cluster", "handover"):
        summary = _read_kv(os.path.join(out, "handover_summary.txt"))
        if int(summary["handovers"]) != 1:
            fails.append(f"fig17: {summary['handovers'].strip()} handovers, expected 1")
        if float(summary["mean_latency_ms"]) != 27.0:
            fails.append(f"fig17: latency {summary['mean_latency_ms'].strip()} ms, expected 27")
        lost = [int(r["sample_index"]) for r in _read_csv(os.path.join(out, "plr.csv"))
                if float(r["plr"]) == 1.0]
        if lost != [100, 101, 102]:
            fails.append(f"fig17: PLR = 1 at samples {lost}, expected [100, 101, 102]")
    elif name == "acir":
        with open(os.path.join(out, "guard_band.txt"), encoding="utf-8") as fh:
            first = fh.readline().strip()
        expected = "guard band 7 MHz (binding ul_capacity_loss needs 73.67 dB ACIR)"
        if first != expected:
            fails.append(f"acir_default: {first!r}, expected {expected!r}")
    else:
        rows = _read_csv(out)
        pd = [float(r["pd"]) for r in rows]
        if any(b < a for a, b in zip(pd, pd[1:])):
            fails.append("roc default: pd decreases with power")
        if any(float(r["pfa"]) != 0.00991 for r in rows):
            fails.append(f"roc default: pfa {rows[0]['pfa']}, expected 0.00991")
    return fails
