"""Property tests of ``tvwsim simulate`` over generated scenario keys.

For any value of the ``sim.*``, ``frame.*`` and ``prop.*`` keys the
command exits with 0, 2 or 3 and raises nothing (a traceback), a
configuration error names the scenario file, and two runs on the same
config bytes write the same bytes.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvwsim import cli

# Two CeNBs, a TV switching on 300 m from the first and one always on: a
# short run can sense, fuse, decide and hand over.
TRANSMITTERS = ("id,standard,channel,x_m,y_m,eirp_dbm,height_m,schedule\n"
                "tv-a,AnalogPalD,1,300,0,43,30,40:120\n"
                "tv-b,DigitalDtmb,20,6000,0,50,30,\n")
CENBS = "cenb1.x_m = 0\ncenb2.x_m = 2000\n"

BAD_TEXT = st.sampled_from(["", "nan", "inf", "-inf", "1e400", "x", "-1", "0", "0.5",
                            "1e-307", "tdd-9", "maybe", "AND"])


def _numbers(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(lambda v: f"{v:g}")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# Values in range, edges included; ``scenario_keys`` puts a bad value in
# one key of half the examples.
KEYS = {
    "sim.seed": st.one_of(_ints(0, 50), _ints(0, 2**64 + 3)),
    "sim.duration_ms": st.integers(1, 25).map(lambda n: str(10 * n)),  # at most 25 frames
    "sim.operational_pfa": _numbers(1e-9, 1.0),
    "sim.packets_per_dl_subframe": _ints(1, 40),
    "sim.retune_ms": _numbers(0.0, 60.0),
    "sim.random_loss_floor": _numbers(0.0, 1.0),
    "sim.fusion_rule": st.sampled_from(["OR", "MAJORITY", "OFF", "majority"]),
    "sim.asm_epoch_frames": _ints(1, 12),
    "sim.asm_reuse_distance_m": _numbers(-100.0, 5000.0),
    "frame.pattern": st.sampled_from(["tdd-1", "tdd-2", "DSUUUDSUUU", "DSDDDDSDDD"]),
    "frame.wide_scan": st.sampled_from(["true", "false", "yes", "off"]),
    "prop.exponent": _numbers(2.0, 6.0),
    "prop.ref_distance_m": _numbers(0.002, 500.0),
    "prop.ref_loss_db": _numbers(-60.0, 120.0),
    "prop.shadowing_sigma_db": _numbers(0.0, 12.0),
}
# The special subframe's split must sum to 1 ms: drawn as one triple.
SPLIT_KEYS = ("frame.dwpts_ms", "frame.gp_ms", "frame.uppts_ms")
split = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda ab: (min(ab), max(ab) - min(ab), 1.0 - max(ab)))


@st.composite
def scenario_keys(draw):
    keys = draw(st.fixed_dictionaries({}, optional=KEYS))
    if draw(st.booleans()):
        keys.update(zip(SPLIT_KEYS, (repr(v) for v in draw(split))))
    if draw(st.booleans()):     # one key out of range or malformed
        keys[draw(st.sampled_from([*KEYS, *SPLIT_KEYS]))] = draw(BAD_TEXT)
    return keys


def _simulate(scenario, out, capsys):
    rc = cli.main(["simulate", str(scenario), "--out", str(out)])
    captured = capsys.readouterr()
    files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))} \
        if out.exists() else {}
    return rc, captured.out, captured.err, files


# Derandomized, so that every run of the suite checks the same examples.
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=scenario_keys())
def test_simulate_exit_code_contract_and_determinism(tmp_path_factory, capsys, keys):
    work = tmp_path_factory.mktemp("scenario")
    (work / "tx.csv").write_text(TRANSMITTERS, encoding="utf-8")
    lines = "".join(f"{key} = {value}\n" for key, value in keys.items())
    if "sim.seed" not in keys:
        lines = "sim.seed = 1\n" + lines
    scenario = work / "s.ini"
    scenario.write_text(f"{lines}files.transmitters = tx.csv\n{CENBS}", encoding="utf-8")

    rc, out, err, files = _simulate(scenario, work / "a", capsys)
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME)
    assert "Traceback" not in err
    if rc == cli.EXIT_OK:
        assert sorted(files) == ["events.csv", "handover_summary.txt", "plr.csv"]
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if rc == cli.EXIT_CONFIG:
        assert err.startswith(f"error: {scenario}: ")       # names the file
    second = _simulate(scenario, work / "b", capsys)
    assert second[0] == rc and second[3] == files
    assert second[1].replace(str(work / "b"), str(work / "a")) == out
