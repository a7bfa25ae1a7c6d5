"""Per-layer spans recorded from outside the program.

``Tracer.patched()`` replaces public functions of ``tvwsim`` with timing
wrappers for the length of a ``with`` block and restores the originals
afterwards.  Each wrapper is installed under the name its caller looks
up: ``harness`` imports ``received_spectrum``, ``spectrum_decision``,
``execute_handover``, ``asm_allocate`` and ``query_vacant_channels`` by
name, so those are patched on ``harness``; the rest are resolved on
their own modules at call time.

Spans are kept in memory as ``[name, parent index, start, end]`` rows.
A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the
root's duration.  Exact counts (calls, decisions, packets, handovers)
are taken from arguments and return values at the same boundaries.
"""

import functools
import time
from contextlib import contextmanager

from tvwsim import _kernels, cenb, geodb, harness, interference, radio_env, sensing
from tvwsim.geodb import Region

# (metric prefix, module the caller resolves the name on, attribute)
TRACED = [
    ("cli.main", None, None),   # root span, opened by the caller of cli.main
    ("harness.load_scenario", harness, "load_scenario"),
    ("harness.load_acir_study", harness, "load_acir_study"),
    ("harness.run_simulation", harness, "run_simulation"),
    ("harness.run_interference_study", harness, "run_interference_study"),
    ("harness.emit_report", harness, "emit_report"),
    ("radio_env.received_spectrum", harness, "received_spectrum"),
    ("radio_env.synthesize_tv_spectrum", radio_env, "synthesize_tv_spectrum"),
    ("radio_env.path_loss", radio_env, "path_loss"),
    ("sensing.estimate_roc", sensing, "estimate_roc"),
    ("sensing.measure_pfa", sensing, "measure_pfa"),
    ("sensing.carrier_signal_mw", sensing, "carrier_signal_mw"),
    ("geodb.load", geodb, "load"),
    ("geodb.query_vacant_channels", harness, "query_vacant_channels"),
    ("geodb.classify_region", geodb, "classify_region"),
    ("cenb.fuse_cooperative", cenb, "fuse_cooperative"),
    ("cenb.spectrum_decision", harness, "spectrum_decision"),
    ("cenb.execute_handover", harness, "execute_handover"),
    ("cenb.asm_allocate", harness, "asm_allocate"),
    ("interference.acir_sweep", interference, "acir_sweep"),
    ("kernels.pairwise_distances", _kernels, "pairwise_distances"),
    ("kernels.path_loss_db_matrix", _kernels, "path_loss_db_matrix"),
    ("kernels.aggregate_rx_power_mw", _kernels, "aggregate_rx_power_mw"),
]
SPAN_NAMES = [name for name, _, _ in TRACED]


def _observe_simulation(counts, result):
    metrics, events = result
    counts["harness.packets_offered"] += metrics.packets_offered
    counts["harness.packets_lost"] += metrics.packets_lost
    counts["harness.handovers"] += sum(not r.aborted for r in metrics.handover_records)
    counts["harness.channel_reports"] += sum(
        int(detail.split()[0].split("=")[1])
        for _, _, kind, detail in events if kind == "SENSE")


def _observe_region(counts, region):
    counts["geodb.black"] += region is Region.BLACK
    counts["geodb.grey"] += region is Region.GREY


def _observe_decision(counts, msg):
    counts["cenb.decisions"] += msg is not None


def _observe_handover(counts, result):
    counts["cenb.handovers_completed"] += not result[1].aborted


OBSERVERS = {
    "harness.run_simulation": _observe_simulation,
    "geodb.classify_region": _observe_region,
    "cenb.spectrum_decision": _observe_decision,
    "cenb.execute_handover": _observe_handover,
}
COUNT_NAMES = ["harness.packets_offered", "harness.packets_lost", "harness.handovers",
               "harness.channel_reports", "geodb.black", "geodb.grey",
               "cenb.decisions", "cenb.handovers_completed"]


class Tracer:
    """Span recorder for one traced command."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result
        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span of its own (the root span)."""
        return self._wrap(name, fn)(*args)

    @contextmanager
    def patched(self):
        """Install the wrappers; the originals are back when the block exits."""
        saved = []
        try:
            for name, module, attr in TRACED:
                if module is None:
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self):
        """Per span name: calls and self seconds, plus the root's wall time."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, _, start, end), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
        roots = [end - start for _, parent, start, end in self.spans if parent < 0]
        out["wall_s"] = sum(roots)
        return out
