#!/usr/bin/env python3
"""List the function bodies of the tvwsim package that no command reaches.

Runs every subcommand under the stdlib ``trace`` module: ``simulate`` of
the shipped fig17 scenario, of a four-CeNB scenario under OR fusion with
a geo-database, shadowing, random loss and ASM epochs, and of a two-CeNB
narrow-scan scenario under MAJORITY fusion; ``acir`` of the shipped
study cut to 20 drops; ``roc``; ``geodb query``, ``contour`` and
``separation``; and ``occupancy`` with and without a sub-band table.
Then it runs a set of bad inputs, each of which must exit 2: a
geo-database with a channel cell that is not an integer, a sweep trace
with a number cell that is not a number, and a calibration file with a
bad value passed to ``roc``.  A good run that does not exit 0, or a bad
one that does not exit 2, stops the listing with an error.  The
generated inputs are small and go to a temporary directory.  Then it
prints, in source order, each function or method whose body none of the
commands ran, as ``path:line qualified.name``.

No test runs here, so a body on the list is one that only the tests,
the benchmark or nothing reaches.  A branch that no command takes inside
a reached body is not listed.

Run from the repository root:  python3 tools/reach.py

With ``--expect tools/unreached.txt`` it also compares the names listed
(``path qualified.name`` per line, without line numbers) with that file,
prints the names added to and removed from it, and exits 1 if the two
differ.  CI runs this form, so a change that leaves a body unreached, or
reaches one, updates the committed list with it.
"""

import argparse
import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
import trace

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PACKAGE = os.path.join(ROOT, "src", "tvwsim")
SCENARIOS = os.path.join(ROOT, "scenarios")

sys.path.insert(0, os.path.join(ROOT, "src"))

GEODB_HEADER = "id,standard,channel,x_m,y_m,eirp_dbm,height_m,required_rx_dbm,protected_radius_m"
TX_HEADER = "id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule"


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_inputs(work):
    """The generated inputs, in ``work``; returns the argument lists to run:
    those that must succeed, and those that must fail as bad input."""
    # A Black record (its blank radius resolves to about 1.9 km), a Grey
    # one and a far one around the cluster at the origin.
    geodb = _write(os.path.join(work, "geodb.csv"), [
        "# version=1", "# grey_margin_m=1000.0", GEODB_HEADER,
        "black,AnalogPalD,5,500,0,60,100,-84,", "grey,DigitalDtmb,9,0,3000,60,100,-84,1500",
        "far,AnalogPalD,2,90000,0,60,100,-84,"])
    # Switch-ons in the blocks the allocator and the handovers hand out.
    _write(os.path.join(work, "tx.csv"), [
        TX_HEADER, "tv-a,AnalogPalD,0,300,0,43,30,200:600", "tv-b,AnalogPalD,13,0,300,43,30,0:900",
        "tv-c,AnalogPalD,25,-300,0,43,30,300:700;800:950"])
    cluster = _write(os.path.join(work, "cluster.ini"), [
        "sim.seed = 3", "sim.duration_ms = 1000", "sim.fusion_rule = OR",
        "sim.random_loss_floor = 0.02", "sim.asm_epoch_frames = 20",
        "prop.shadowing_sigma_db = 6", "files.transmitters = tx.csv", "files.geodb = geodb.csv",
        *(f"cenb{k + 1}.x_m = {400 * (k % 2)}\ncenb{k + 1}.y_m = {400 * (k // 2)}"
          for k in range(4))])
    narrow = _write(os.path.join(work, "narrow.ini"), [
        "sim.seed = 5", "sim.duration_ms = 1000", "sim.fusion_rule = MAJORITY",
        "frame.wide_scan = false", "files.transmitters = tx.csv",
        "cenb1.block = 24,25,26", "cenb2.x_m = 600", "cenb2.block = 24,25,26"])
    with open(os.path.join(SCENARIOS, "acir_default.ini"), encoding="utf-8") as fh:
        study = [line.rstrip("\n") for line in fh
                 if not line.startswith("interference.snapshots")]
    acir = _write(os.path.join(work, "acir.ini"), [*study, "interference.snapshots = 20"])
    occupancy = _write(os.path.join(work, "trace.csv"), [
        "t_ms,p_471,p_475,p_479,p_483", "0,-100,-60,-101,-99", "10,-99,-61,-70,-100",
        "20,-101,-59,-100,-98", "30,-100,-62,-99,-101"])
    subbands = _write(os.path.join(work, "subbands.csv"),
                      ["low_mhz,high_mhz,label", "470,478,low", "478,486,high"])
    bad_channel = _write(os.path.join(work, "bad_channel.csv"), [
        GEODB_HEADER, "tv,AnalogPalD,5,500,0,60,100,-84,", "tv2,AnalogPalD,five,0,0,60,100,-84,"])
    bad_number = _write(os.path.join(work, "bad_number.csv"), [
        "t_ms,p_471,p_475", "0,-100,-60", "10,-99,high"])
    bad_calibration = _write(os.path.join(work, "bad_calibration.csv"), [
        "param,value", "noise_figure_db,6", "snapshots_per_ms,12500", "threshold_dbm,low",
        "k_required,2"])
    out = os.path.join(work, "out")
    band = ["--band-low=470", "--band-high=486", "--exclude="]
    good = [
        ["simulate", os.path.join(SCENARIOS, "handover_fig17.ini"), "--out", out],
        ["simulate", cluster, "--out", out],
        ["simulate", narrow, "--out", out],
        ["acir", acir, "--out", out],
        ["roc", "default", "--powers=-120:-110:5", "--trials=2000",
         "--out", os.path.join(out, "roc.csv")],
        ["geodb", "query", geodb, "--x=0", "--y=0"],
        ["geodb", "contour", geodb],
        ["geodb", "separation", "--power=30", "--height=30"],
        ["occupancy", occupancy, *band],
        ["occupancy", occupancy, *band, "--subbands", subbands, "--out", out],
    ]
    bad = [
        ["geodb", "contour", bad_channel],
        ["occupancy", bad_number, "--band-low=470", "--band-high=478", "--exclude="],
        ["roc", bad_calibration, "--trials=2000"],
    ]
    return good, bad


def function_bodies(path):
    """(first body line, last line, qualified name) of each function in a source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    bodies = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if ast.get_docstring(child) is not None and len(body) > 1:
                    body = body[1:]
                bodies.append((body[0].lineno, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return bodies


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="LIST",
                        help="the committed list of unreached bodies to compare with")
    expect = parser.parse_args().expect
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    cli = tracer.runfunc(importlib.import_module, "tvwsim.cli")
    with tempfile.TemporaryDirectory() as work:
        good, bad = write_inputs(work)
        runs = [(argv, cli.EXIT_OK) for argv in good] + [(argv, cli.EXIT_CONFIG) for argv in bad]
        for argv, expected in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = tracer.runfunc(cli.main, argv)
            if rc != expected:
                sys.exit(f"tvwsim {' '.join(argv)} exited with {rc}, not {expected}")
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    total = 0
    unreached = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = ran.get(os.path.realpath(path), set())
        for first, last, qualname in function_bodies(path):
            total += 1
            if not any(first <= line <= last for line in lines):
                unreached.append(f"{os.path.relpath(path, ROOT)} {qualname}")
                print(f"{os.path.relpath(path, ROOT)}:{first} {qualname}")
    print(f"{len(unreached)} of {total} function bodies reached by no command")
    if expect is not None:
        with open(expect, encoding="utf-8") as fh:
            listed = [line.strip() for line in fh if line.strip()]
        added = [name for name in unreached if name not in listed]
        removed = [name for name in listed if name not in unreached]
        for name in added:
            print(f"added: {name}")
        for name in removed:
            print(f"removed: {name}")
        if added or removed:
            sys.exit(1)


if __name__ == "__main__":
    main()
