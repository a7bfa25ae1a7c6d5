"""Self-tests of the benchmark: python3 -m pytest benchmarks/test_benchmark.py"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _generated(name, seed, work):
    work.mkdir()
    prep = workloads.prepare(name, seed, str(work), str(run.SCENARIOS))
    return prep, {os.path.basename(p): Path(p).read_bytes() for p in prep.files}


@pytest.mark.parametrize("name", ["cluster", "handover", "acir"])
def test_generator_is_deterministic_per_seed(tmp_path, name):
    prep_a, files_a = _generated(name, 7, tmp_path / "a")
    prep_b, files_b = _generated(name, 7, tmp_path / "b")
    _, files_c = _generated(name, 8, tmp_path / "c")
    assert files_a and files_a == files_b
    assert files_a != files_c
    assert prep_a.units == prep_b.units and prep_a.sizes == prep_b.sizes


def test_roc_receives_the_seed():
    prep = workloads.prepare("roc", 5, "unused", str(run.SCENARIOS))
    assert prep.argv[prep.argv.index("--seed") + 1] == "5"


def test_wrappers_restore_the_originals():
    patched = [(m, a, getattr(m, a)) for _, m, a in tracing.TRACED if m is not None]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            assert all(getattr(m, a) is not f for m, a, f in patched)
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is f for m, a, f in patched)


def test_self_time_adds_up_to_the_root():
    from tvwsim import radio_env

    tracer = tracing.Tracer()
    grid = radio_env.china_tv_grid()
    tx = radio_env.TvTransmitter("t", radio_env.TvStandard.ANALOG_PAL_D, 3, (100.0, 0.0), 40.0)
    with tracer.patched():
        tracer.call("cli.main", radio_env.received_spectrum, (0.0, 0.0), [tx], 0.0,
                    radio_env.PropagationConfig(), grid)
    summary = tracer.summary()
    assert summary["radio_env.synthesize_tv_spectrum.calls"] == 1
    assert summary["radio_env.path_loss.calls"] == 1
    total = sum(summary[f"{n}.self_s"] for n in tracing.SPAN_NAMES)
    assert total == pytest.approx(summary["wall_s"], rel=1e-9)


def _run_smoke(trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "all", "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--smoke"])
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_and_check(trace):
    result = _run_smoke(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in run.WORKLOADS:
        for metric in wanted:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
    if trace:
        calls = {w: result["metrics"][f"{w}.cenb.fuse_cooperative.calls"]["value"]
                 for w in ("cluster", "handover")}
        assert calls["cluster"] > 0 and calls["handover"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cluster", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
