"""Byte-level goldens of the reference outputs.

Each digest is the sha256 of one file the CLI writes for a committed
input: the Fig. 17 handover run, the default ACIR study and the default
ROC sweep.  A refactor keeps every digest; a change in behaviour updates
the digest and states the change in CHANGES.md.  The ACIR and ROC files
carry ten significant digits of floating-point results, so their digests
were taken with numpy 2.4.6.
"""

import hashlib
from pathlib import Path

import pytest

from tvwsim import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "simulate/plr.csv":
        "199dc29bf3810c11167ae438f531da0fa7701ed71995d5a30af473419a351637",
    "simulate/events.csv":
        "21bff1837ab3aa5e93b8e5f45c2454ef35479d105d2e12a6b6318f04dd09cc69",
    "simulate/handover_summary.txt":
        "3df6b59bbece627efd6b5aa9e660eab7edad850e2cb1dfc71da937cbe004c72e",
    "acir/acir_curve.csv":
        "1c0ecf0becfaae050f71cf1505e27e34e412f825417078182f6f0a3b3578f332",
    "acir/guard_band.txt":
        "c7a0be062e87469e9f49c38a7fbbfff8127b6a1278b95037664890dba391dd6e",
    "roc.csv":
        "fd7876f41ff5b5b38e94788cf8983776c3ca4ab44f0da34d383313403605bab2",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    commands = [
        ["simulate", str(SCENARIOS / "handover_fig17.ini"), "--out", str(out / "simulate")],
        ["acir", str(SCENARIOS / "acir_default.ini"), "--out", str(out / "acir")],
        ["roc", "default", "--out", str(out / "roc.csv")],
    ]
    for argv in commands:
        assert cli.main(argv) == cli.EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
