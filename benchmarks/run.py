#!/usr/bin/env python3
"""Benchmark of the tvwsim simulator.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload cluster --seed 1 --seconds 18 --trace 0

``--workload all`` runs the four workloads in turn.  The benchmark
generates its inputs from ``--seed``, checks every output, and prints
one human-readable block per workload followed, as the last line, by a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``work_per_s``, ``peak_mb``); with ``--trace 1`` they are the per-layer
span times and exact counts of a separately traced pass.  Full results,
with machine information and output digests, are written to
``.bench_out/``; see ``benchmarks/README.md`` for the metric table.

Everything runs in this single thread, apart from fresh interpreters,
started one at a time, that time set-up and run the timed commands.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("cluster", "handover", "acir", "roc")

SETUP_REPEATS = 5
SMOKE_SETUP_REPEATS = 1
TIMED_PROCESSES = 4
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 120

# Runs in a fresh interpreter: the import plus the workload's input
# loading, timed from inside so that interpreter start-up is left out.
# Prints CPU seconds, then wall seconds.
SETUP_CODE = """\
import sys, time
t0, c0 = time.perf_counter(), time.process_time()
sys.path.insert(0, {src!r})
import tvwsim
from tvwsim import harness, sensing
{stmt}
print(repr(time.process_time() - c0), repr(time.perf_counter() - t0))
"""

# Runs in a fresh interpreter: commands back to back for a share of the
# timed pass.  Prints the seconds measured and, per command, its
# problems, wall s, CPU s and output sha256, as one JSON line.
TIMED_CODE = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import run
run.timed_commands({argv!r}, {out!r}, {seconds!r})
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of the timed (or traced) pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one set-up repeat: for the self-tests")
    return p.parse_args(argv)


class Operations:
    """Attempted and failed operations; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


def run_cli(main, argv):
    """One ``tvwsim`` command in this process: (problems, wall s, CPU s).

    Output goes to a buffer so that this program's own standard output
    stays clean; a nonzero exit code or an exception is a problem.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0, c0 = time.perf_counter(), time.process_time()
            rc = main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    except (Exception, SystemExit):
        return [f"raised: {traceback.format_exc(limit=3)}"], 0.0, 0.0
    if rc != 0:
        return [f"exit code {rc}: {buf.getvalue()[-500:]}"], wall, cpu
    return [], wall, cpu


def timed_commands(argv, out, seconds):
    """Body of a timed interpreter (see ``TIMED_CODE``)."""
    from tvwsim import cli

    import workloads

    commands = []
    t0 = time.perf_counter()
    while len(commands) < MIN_SAMPLES or time.perf_counter() - t0 < seconds:
        clear(out)
        gc.collect()
        problems, wall, cpu = run_cli(cli.main, argv)
        commands.append([problems, wall, cpu, None if problems else workloads.output_digest(out)])
    measured = time.perf_counter() - t0
    clear(out)
    print(json.dumps([measured, commands]))


def clear(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def machine_info():
    import numpy

    from tvwsim import __version__, _kernels

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernels_backend": _kernels.BACKEND,
            "tvwsim": __version__, "platform": platform.platform()}


class Bench:
    """Runs one workload: checks, then the timed or the traced pass."""

    def __init__(self, name, seed, seconds, smoke):
        from tvwsim import cli

        import tracing
        import workloads

        self.cli, self.tracing, self.workloads = cli, tracing, workloads
        self.name, self.seed, self.seconds, self.smoke = name, seed, seconds, smoke
        self.ops = Operations()
        self.work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
        self.results = {"workload": name, "seed": seed, "seconds": seconds,
                        "unit": workloads.UNITS[name], "machine": machine_info(),
                        "phase_s": {}}
        self._mark = time.perf_counter()

    def _phase(self, name):
        now = time.perf_counter()
        self.results["phase_s"][name] = now - self._mark
        self._mark = now

    def run(self, trace):
        clear(self.work)
        self.work.mkdir(parents=True)
        try:
            return self._run(trace)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self, trace):
        wl = self.workloads
        prep = wl.prepare(self.name, self.seed, str(self.work), str(SCENARIOS), self.smoke)
        self.prep = prep
        self.results.update(units_per_command=prep.units, sizes=prep.sizes)
        self._phase("generate")

        ref_out = str(self.work / "reference")
        problems, _, _ = run_cli(self.cli.main, wl.reference_argv(self.name, str(SCENARIOS),
                                                               ref_out))
        self.ops.record("reference check",
                        problems or wl.check_reference(self.name, ref_out))
        self._phase("reference")

        # Validation: one traced command gives the exact counts the
        # output checks need and fixes the digest later runs must repeat.
        summary, problems = self._traced_command()
        self.counts = {k: v for k, v in summary.items()
                       if k.endswith(".calls") or k in self.tracing.COUNT_NAMES}
        if not problems:
            problems = wl.check_outputs(prep, prep.out, self.counts)
        self.digest = wl.output_digest(prep.out) if not problems else None
        self.ops.record("validation run", problems)
        self.results.update(output_sha256=self.digest, counts=self.counts)
        self._phase("validation")
        if self.digest is None:
            return {}
        return self._traced_pass() if trace else self._timed_pass()

    def _same_output(self, problems):
        if not problems and self.workloads.output_digest(self.prep.out) != self.digest:
            problems = ["output differs from the validation run"]
        return problems

    def _command(self):
        clear(self.prep.out)
        gc.collect()
        problems, wall, cpu = run_cli(self.cli.main, self.prep.argv)
        return self._same_output(problems), wall, cpu

    def _traced_command(self):
        clear(self.prep.out)
        gc.collect()
        tracer = self.tracing.Tracer()
        with tracer.patched():
            problems, elapsed, _ = run_cli(
                lambda argv: tracer.call("cli.main", self.cli.main, argv), self.prep.argv)
        summary = tracer.summary()
        summary.update(tracer.counts)
        summary["elapsed_s"] = elapsed
        self.spans = tracer.spans
        return summary, problems

    def _timed_process(self, rates, walls, seconds):
        """One fresh interpreter runs commands back to back for ``seconds``;
        appends their rates and returns the seconds it measured."""
        code = TIMED_CODE.format(src=str(SRC), bench=str(BENCH_DIR), argv=self.prep.argv,
                                 out=self.prep.out, seconds=seconds)
        try:
            child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                                   capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.ops.record("timed interpreter", [f"no exit within {CHILD_TIMEOUT_S} s"])
            return seconds
        if child.returncode != 0:
            self.ops.record("timed interpreter",
                            [f"exit code {child.returncode}: {child.stderr[-500:]}"])
            return seconds
        measured, commands = json.loads(child.stdout.splitlines()[-1])
        for problems, wall, cpu, digest in commands:
            if not problems and digest != self.digest:
                problems = ["output differs from the validation run"]
            if self.ops.record(f"timed run {len(rates) + 1}", problems):
                rates.append(self.prep.units / cpu)
                walls.append(wall)
        return measured

    def _peak_memory(self):
        clear(self.prep.out)
        gc.collect()
        tracemalloc.start()
        try:
            problems, _, _ = run_cli(self.cli.main, self.prep.argv)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.ops.record("peak-memory run", self._same_output(problems))
        return peak_bytes

    def _setup_times(self):
        setup, setup_walls = [], []
        code = SETUP_CODE.format(src=str(SRC), stmt=self.prep.setup_stmt)
        for i in range(SMOKE_SETUP_REPEATS if self.smoke else SETUP_REPEATS):
            try:
                child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                                       capture_output=True, timeout=CHILD_TIMEOUT_S)
                problems = ([] if child.returncode == 0
                            else [f"exit code {child.returncode}: {child.stderr[-500:]}"])
            except subprocess.TimeoutExpired:
                problems = [f"no exit within {CHILD_TIMEOUT_S} s"]
            if self.ops.record(f"set-up interpreter {i + 1}", problems):
                cpu, wall = child.stdout.split()[-2:]
                setup.append(float(cpu))
                setup_walls.append(float(wall))
        return setup, setup_walls

    def _timed_pass(self):
        # The timed commands run in several fresh interpreters, half of
        # them before and half after the memory and set-up passes.  A
        # command's speed depends on the process it runs in (by up to 15 %
        # between two processes a few seconds apart, steady within each),
        # and the host's speed drifts; samples from several processes
        # spread over the whole run average out both.
        rates, walls = [], []
        measured = 0.0
        for i in range(TIMED_PROCESSES):
            if i == TIMED_PROCESSES // 2:
                self._phase("timed_first_half")
                peak_bytes = self._peak_memory()
                self._phase("peak_memory")
                setup, setup_walls = self._setup_times()
                self._phase("setup")
            share = (self.seconds - measured) / (TIMED_PROCESSES - i)
            measured += self._timed_process(rates, walls, share)
        self._phase("timed_second_half")

        metrics = {}
        if setup:
            metrics["setup_s"] = (statistics.median(setup), "s")
        if len(rates) > 1:
            # The lower quartile, not the median: at times the host runs
            # the same command up to twice as fast for a minute or two,
            # and the lower quartile stays with the common speed unless
            # such a spell covers three quarters of the run.
            metrics["work_per_s"] = (statistics.quantiles(rates, n=4)[0], "units/s")
        metrics["peak_mb"] = (peak_bytes / 1e6, "MB")
        self.results["samples"] = {"setup_s": setup, "work_per_s": rates,
                                   "setup_wall_s": setup_walls, "command_wall_s": walls}
        return metrics

    def _traced_pass(self):
        plain, traced = [], []
        deadline = time.perf_counter() + self.seconds
        while len(traced) < MIN_SAMPLES or time.perf_counter() < deadline:
            problems, wall, _ = self._command()
            if self.ops.record(f"untraced run {len(plain) + 1}", problems):
                plain.append(wall)
            summary, problems = self._traced_command()
            problems = self._same_output(problems)
            changed = [k for k, v in self.counts.items() if summary.get(k) != v]
            if changed and not problems:
                problems = [f"counts changed: {', '.join(changed)}"]
            if self.ops.record(f"traced run {len(traced) + 1}", problems):
                traced.append(summary)
        self._phase("traced")
        self._write_spans()
        if not traced or not plain:
            return {}

        metrics = {}
        for name in self.tracing.SPAN_NAMES:
            metrics[f"{name}.calls"] = (self.counts[f"{name}.calls"], "count")
            metrics[f"{name}.self_s"] = (
                statistics.median(s[f"{name}.self_s"] for s in traced), "s")
        c = self.counts
        for key in ("harness.packets_offered", "harness.packets_lost",
                    "harness.channel_reports", "harness.handovers", "cenb.decisions"):
            metrics[key] = (c[key], "count")
        executed = c["cenb.execute_handover.calls"]
        metrics["cenb.handover_success_ratio"] = (
            c["cenb.handovers_completed"] / executed if executed else 0.0, "fraction")
        traced_wall = statistics.median(s["elapsed_s"] for s in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.accounted"] = (statistics.median(
            sum(s[f"{n}.self_s"] for n in self.tracing.SPAN_NAMES) / s["elapsed_s"]
            for s in traced), "fraction")
        metrics["trace_overhead"] = (traced_wall / statistics.median(plain) - 1.0, "fraction")
        self.results["samples"] = {"untraced_s": plain,
                                   "traced_s": [s["elapsed_s"] for s in traced]}
        return metrics

    def _write_spans(self):
        """Spans of the last traced command, as name,parent,start_s,end_s."""
        OUT_ROOT.mkdir(exist_ok=True)
        path = OUT_ROOT / f"{self.name}-seed{self.seed}.spans.csv"
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,parent,start_s,end_s\n")
            for name, parent, start, end in self.spans:
                fh.write(f"{name},{parent},{start - t0:.9f},{end - t0:.9f}\n")
        self.results["spans_file"] = str(path.relative_to(ROOT))


def report(bench, metrics, trace):
    """Print the human-readable block and write the full results file."""
    ops = bench.ops
    error_rate = len(ops.failures) / ops.attempted if ops.attempted else 1.0
    unit = bench.results["unit"]
    res = bench.results
    res.update(trace=trace, attempted=ops.attempted, failed=len(ops.failures),
               error_rate=error_rate, failures=ops.failures,
               metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"{bench.name}-seed{bench.seed}-trace{trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)

    samples = res.get("samples", {})
    print(f"== {bench.name}  seed {bench.seed}  sizes {res.get('sizes')}")
    for key, (value, u) in metrics.items():
        label = {"work_per_s": f"{unit} per CPU s", "setup_s": "CPU s"}.get(key, u)
        values = samples.get(key)
        stat = "lower quartile" if key == "work_per_s" else "median"
        extra = (f"  {stat} of {len(values)} (min {min(values):.6g}, "
                 f"median {statistics.median(values):.6g}, max {max(values):.6g})"
                 if values else "")
        print(f"{key:40s} {value:<14.6g} {label}{extra}")
    print(f"{'error_rate':40s} {error_rate:<14.6g} fraction  "
          f"({len(ops.failures)} of {ops.attempted} operations failed)")
    print(f"{'output_sha256':40s} {res.get('output_sha256')}")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    print(f"results in {path.relative_to(ROOT)}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tvwsim" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no tvwsim sources under {SRC} or no {SCENARIOS}; run the "
              "benchmark inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out_metrics = {}
    for name in names:
        bench = Bench(name, args.seed, args.seconds, args.smoke)
        metrics = bench.run(args.trace)
        report(bench, metrics, args.trace)
        attempted += bench.ops.attempted
        failed += len(bench.ops.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        out_metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
