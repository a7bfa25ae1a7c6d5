"""Command-line surface: one binary, one subcommand per subsystem.

Exit codes are a stable contract: 0 success, 2 configuration or input
error, 3 runtime error.  All outputs are byte-deterministic functions
of the inputs.  The contract covers the command-line options and every
input file: the scenario and study INI files, and the six CSV formats
(transmitters, geo-database, separation table, detector calibration,
sweep trace and sub-band table).  A bad value in any of them is exit 2
with one ``error:`` line that names the file (and, in a CSV file, the
line), printed before anything goes to stdout.

A command builds the argument parser of the subcommand it runs, not
those of all five: ``main`` registers only the subcommand named first,
and every one only where it has to list them (``-h``, no arguments, an
unknown name).  Help, usage and error text are the same either way.

A command imports only its subsystem: each ``_cmd_*`` function imports
the modules it runs and calls through them (``harness.run_simulation``).
The option parsers are those of ``radio_env``.
"""

import argparse
import os
import re
import sys

from .errors import (
    AlignmentError,
    ConfigError,
    CoverageError,
    DegenerateContourError,
    ParseError,
    TvwsimError,
)
from .radio_env import (
    FrequencyBand,
    PropagationConfig,
    build_channel_grid,
    finite_float,
    level_db,
    level_range,
    parse_exclusions,
    path_loss_exponent,
    positive_int,
    radio_freq_mhz,
    seed_int,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_simulate(args):
    from . import harness

    cfg = harness.load_scenario(args.scenario)
    metrics, events = harness.run_simulation(cfg)
    written = harness.emit_report(metrics, args.out, events)
    print(f"simulated {cfg.duration_ms} ms, {metrics.plr.size} plr samples")
    print(harness.handover_summary(metrics))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _option(flag, parse, value):
    """Parse a command-line value; a bad one is a configuration error."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {flag}: {exc}") from exc


def _cmd_roc(args):
    from . import sensing

    cfg = sensing.load_calibration(args.calibration) if args.calibration != "default" \
        else sensing.default_calibration()
    powers = _option("--powers", level_range, args.powers)
    trials = _option("--trials", positive_int, args.trials)
    seed = _option("--seed", seed_int, args.seed)
    points = sensing.estimate_roc(cfg, powers, trials=trials, seed=seed)
    print("power_dbm,pd,pfa")
    for p in points:
        print(f"{p.power_dbm:.10g},{p.pd:.10g},{p.pfa:.10g}")
    if args.out:
        sensing.roc_to_csv(points, trials, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_acir(args):
    from . import harness, interference

    study = harness.load_acir_study(args.study)
    curve, guard = harness.run_interference_study(study)
    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, "acir_curve.csv")
    interference.curve_to_csv(curve, curve_path)
    guard_path = os.path.join(args.out, "guard_band.txt")
    with open(guard_path, "w", encoding="utf-8") as fh:
        fh.write(guard.summary_line() + "\n")
        fh.write(f"binding_constraint: {guard.binding_constraint}\n")
        for name, acir in sorted(guard.required_acir_db.items()):
            fh.write(f"required_acir_db.{name}: {acir:.10g}\n")
        fh.write(f"baseline_tv_outage: {curve.baseline_tv_outage:.10g}\n")
    print(guard.summary_line())
    print(f"wrote {curve_path}")
    print(f"wrote {guard_path}")
    return EXIT_OK


def _grid_from_args(args):
    """The channel grid of the band options; a grid they cannot form is a
    configuration error that names them."""
    excluded = _option("--exclude", parse_exclusions, args.exclude)
    if args.channel_mhz <= 0:
        raise ConfigError(f"bad value for --channel-mhz: expected a positive number, "
                          f"got {args.channel_mhz:g}")
    try:
        return build_channel_grid(FrequencyBand(args.band_low, args.band_high),
                                  args.channel_mhz, excluded)
    except (ValueError, AlignmentError) as exc:
        raise ConfigError(f"bad --band-low, --band-high, --channel-mhz or --exclude: "
                          f"{exc}") from exc


def _cmd_geodb(args):
    from . import geodb

    if args.geodb_cmd == "separation":
        table = (geodb.default_separation_table() if args.table == "default"
                 else geodb.separation_table_from_csv(args.table))
        sep, clamped = geodb.required_separation(table, args.power, args.height)
        flag = " (clamped to table hull)" if clamped else ""
        print(f"required_separation_m: {sep:.10g}{flag}")
        return EXIT_OK
    _option("--freq", radio_freq_mhz, args.freq)
    prop = PropagationConfig(
        exponent=_option("--exponent", path_loss_exponent, args.exponent),
        ref_loss_db=(None if args.ref_loss_db is None
                     else _option("--ref-loss-db", level_db, args.ref_loss_db)))
    if args.geodb_cmd == "query":  # every flag is checked before the database is read
        grid = _grid_from_args(args)
        eirp = _option("--eirp", level_db, args.eirp)
    db = geodb.load(args.db, prop, args.freq)
    if args.geodb_cmd == "query":
        try:
            rows = geodb.query_vacant_channels(db, (args.x, args.y), eirp, prop, grid, args.freq)
        except DegenerateContourError as exc:
            raise ConfigError(f"{args.db}: protection_floor_dbm = "
                              f"{db.protection_floor_dbm:g} dBm is out of reach of "
                              f"--eirp = {eirp:g} dBm ({exc})") from exc
        print("channel,low_mhz,region")
        for ch, region in rows:
            print(f"{ch},{grid.low_edge_mhz(ch):.10g},{region.name.title()}")
        usable = sum(1 for _, r in rows if r is not geodb.Region.BLACK)
        print(f"# usable channels (white+grey): {usable}")
    else:  # contour
        cols = db.columns
        print("id,channel,protected_radius_m")
        for key, channel, radius in sorted(zip(cols.ids.tolist(), cols.channel.tolist(),
                                               cols.radius.tolist())):
            print(f"{key},{channel},{radius:.10g}")
    return EXIT_OK


def _cmd_occupancy(args):
    from . import occupancy

    matrix = occupancy.ingest_trace(args.trace)
    rule = (occupancy.ThresholdRule(fixed_dbm=args.threshold_dbm)
            if args.threshold_dbm is not None else occupancy.ThresholdRule())
    grid = _grid_from_args(args)
    noise, threshold = rule.levels(matrix)
    try:
        duty = occupancy.duty_cycle(matrix, grid, threshold)
    except CoverageError as exc:
        raise ConfigError(f"{args.trace}: {exc}; --band-low, --band-high and --exclude "
                          "must leave only channels the trace covers") from exc
    summary = None
    if args.subbands:
        subbands = occupancy.load_subband_table(args.subbands)
        try:
            summary = occupancy.summarize_band(matrix, subbands, threshold)
        except (ConfigError, CoverageError) as exc:
            raise ConfigError(f"{args.subbands}: {exc}") from exc
    print(f"threshold rule: {rule.describe()}")
    print(f"noise floor estimate: {noise:.10g} dBm")
    print("channel,low_mhz,duty_cycle,class")
    for ch in range(grid.n_channels):
        cls = occupancy.classify_channel(matrix, grid, ch, noise)
        label = cls.label.value + ("(never-seen)" if cls.never_seen else "")
        print(f"{ch},{grid.low_edge_mhz(ch):.10g},{duty[ch]:.10g},{label}")
    print(f"band_average: {occupancy.band_average(grid, duty):.10g}")
    if summary is not None:
        rows, overall = summary
        print(occupancy.render_report(rows, overall, rule))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            out_path = os.path.join(args.out, "subband_report.csv")
            occupancy.report_to_csv(rows, overall, out_path)
            print(f"wrote {out_path}")
    return EXIT_OK


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a scenario and emit metrics")
    p.add_argument("scenario", help="scenario INI file")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_simulate)


def _add_roc(sub):
    p = sub.add_parser("roc", help="detector ROC over received power levels")
    p.add_argument("calibration", help="calibration CSV, or 'default'")
    p.add_argument("--powers", default="-130:-110:1", help="lo:hi:step dBm sweep")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write roc CSV here")
    p.set_defaults(func=_cmd_roc)


def _add_acir(sub):
    p = sub.add_parser("acir", help="coexistence sweep and guard-band pick")
    p.add_argument("study", help="study INI file")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=_cmd_acir)


def _add_geodb(sub):
    p = sub.add_parser("geodb", help="geo-location database queries")
    gsub = p.add_subparsers(dest="geodb_cmd", required=True)
    for name in ("query", "contour"):
        g = gsub.add_parser(name)
        g.add_argument("db", help="geodb CSV file")
        g.add_argument("--freq", type=finite_float, default=700.0)
        g.add_argument("--exponent", type=finite_float, default=3.5)
        g.add_argument("--ref-loss-db", type=finite_float, default=None)
        if name == "query":
            g.add_argument("--x", type=finite_float, required=True)
            g.add_argument("--y", type=finite_float, required=True)
            g.add_argument("--eirp", type=finite_float, default=20.0)
            g.add_argument("--band-low", type=finite_float, default=470.0)
            g.add_argument("--band-high", type=finite_float, default=806.0)
            g.add_argument("--channel-mhz", type=finite_float, default=8.0)
            g.add_argument("--exclude", default="566-606")
    g = gsub.add_parser("separation")
    g.add_argument("--table", default="default", help="separation table CSV")
    g.add_argument("--power", type=finite_float, required=True)
    g.add_argument("--height", type=finite_float, required=True)
    p.set_defaults(func=_cmd_geodb)


def _add_occupancy(sub):
    from . import occupancy

    p = sub.add_parser("occupancy", help="duty-cycle analytics over a trace")
    p.add_argument("trace", help="sweep trace CSV")
    p.add_argument("--band-low", type=finite_float, default=470.0)
    p.add_argument("--band-high", type=finite_float, default=806.0)
    p.add_argument("--channel-mhz", type=finite_float, default=8.0)
    p.add_argument("--exclude", default="566-606")
    p.add_argument("--threshold-dbm", type=finite_float, default=None,
                   help="fixed occupancy threshold in dBm (default: "
                        f"{occupancy.ThresholdRule().describe()}, the noise floor "
                        "estimated once over all of the trace's cells)")
    p.add_argument("--subbands", default=None, help="sub-band table CSV")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_occupancy)


# Each subcommand's parser builder, in the order of the help's choice list.
_SUBCOMMANDS = {
    "simulate": _add_simulate,
    "roc": _add_roc,
    "acir": _add_acir,
    "geodb": _add_geodb,
    "occupancy": _add_occupancy,
}


def build_parser(command=None):
    """The ``tvwsim`` parser with every subcommand, or with ``command``'s alone.

    A one-subcommand parser parses that subcommand's arguments as the
    full one does.  Its choice list is named in full as the subparsers'
    metavar, so that an argument no parser knows is reported under the
    full top-level usage line.  (On the full parser that metavar would
    also rename the command in the no-command and invalid-choice errors,
    which a one-subcommand parser never reports.)
    """
    parser = argparse.ArgumentParser(
        prog="tvwsim",
        description="Cognitive TD-LTE in the TV band: simulator and analytics")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        builders = _SUBCOMMANDS.values()
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_SUBCOMMANDS) + "}")
        builders = [_SUBCOMMANDS[command]]
    for add in builders:
        add(sub)
    return parser


def _joined_powers(argv):
    """``argv`` with ``--powers value`` written ``--powers=value`` where the
    value starts like a negative number: argparse takes ``-120:-119:1``,
    which is not a plain number, for an option rather than for a value.
    The flag may be any prefix that argparse accepts for it, ``--p`` on."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and "--powers".startswith(out[-1])
                and re.match(r"-[\d.]", arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    Only the parser of the subcommand named first is built.  Without a
    known name first (``-h``, no arguments, an unknown name) every
    subcommand's is, for the help and the errors that list them.
    ``--powers -130:-110:1`` is read as ``--powers=-130:-110:1``, and so
    is an abbreviated flag (``--pow -130:-110:1``).
    """
    argv = _joined_powers(sys.argv[1:] if argv is None else argv)
    args = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TvwsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
