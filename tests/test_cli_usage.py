"""Pinned help, usage and error text of the ``tvwsim`` command line.

Each pin is the exit code of ``cli.main(argv)`` and the sha256 of its
stdout and stderr (joined by a NUL byte), under ``COLUMNS=80`` so that
argparse wraps the text the same way on every terminal.  The corpus
covers the top-level help, no arguments and an unknown name; the help
of every subcommand and of every ``geodb`` action; a missing
positional; a bad typed value; and an argument no parser knows.
"""

import hashlib

import pytest

from tvwsim import cli

PINS = {
    "-h": (0, "b11042ab5a49ea0eb718423d68d8794d552ff84e751d23d6367ee38f1bd90bd2"),
    "": (2, "329d6ef68e1de08abda78477948a9dec7a326999d6d03bc9d929b3eded353612"),
    "nosuch": (2, "86e88e5e56b5d08a9d4cfe5453393d913f537368c3bd917aa47befbbebcaf0f4"),
    "simulate -h": (0, "cb7d0deb850a3e65f460c1db8d11ddcdb53838742c50da7de6811b84421da507"),
    "roc -h": (0, "829ed094e79c33d0249eebd89acf18cf741e7b941ae1d0a76641f46c94163116"),
    "acir -h": (0, "d2ad3e295d8a3d1be55f201da7acfa78a8f306e373d0f5b598c79428f9ce7c50"),
    "geodb -h": (0, "16dde24945bfdd23c1eaf2db7c9bb2c81a624644c94b10d1385cd8b3b0654468"),
    "occupancy -h": (0, "45ca706ab7b64d8ab4113bec134c14798c4bcb19e94e191c5bb53545dc090828"),
    "geodb query -h": (0, "116db381b8c3e7f7e4213483ebf41ed84711e5c2af82d398197be5e3cfdd1f51"),
    "geodb contour -h": (0, "aca6b9ebcb267fee0fb0bddd4e57b84c84608599a00efe4136ef964b180acd28"),
    "geodb separation -h":
        (0, "f218dd70559981a4c36802dd39ff0aaf2ac0c2491a176de3eac0b9e9559dffc8"),
    "simulate": (2, "00bc70cb7358b6dd5e151d13eae1096cf965c0be871cb7d95ec74e201d16088b"),
    "occupancy": (2, "c9854a48580b08d520a772df146c42d1fbb46dbf44aeaf8e74f132067100e6f4"),
    "geodb": (2, "88b46bc4531e07cd528596e735b84641299a940c26acb3fa1ed22fa5348e6e68"),
    "roc default --trials x":
        (2, "aa6d5e524226b846cb9f77815fe3bad1b3fd8b03dc3e4210e95b65efb6c9f23e"),
    "simulate a b": (2, "938a513c5fbf5fea770ba70b010d2c4dc667bab21bcf5c610f05f2662b09c9f4"),
}


def _run(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; argparse exits by SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("line", sorted(PINS))
def test_usage_text_is_pinned(monkeypatch, capsys, line):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _run(line.split(), capsys)
    digest = hashlib.sha256(f"{out}\0{err}".encode("utf-8")).hexdigest()
    assert (code, digest) == PINS[line]


def test_an_extra_argument_is_reported_with_the_top_level_usage(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(["simulate", "a", "b"], capsys) == (
        2, "", "usage: tvwsim [-h] {simulate,roc,acir,geodb,occupancy} ...\n"
               "tvwsim: error: unrecognized arguments: b\n")


# The pinned lines and lines that parse, each led by a subcommand's name.
PARSED = [
    "simulate s.ini --out o",
    "roc default --powers=-120:-110:5 --trials 10 --seed 3 --out r.csv",
    "acir study.ini",
    "geodb query db.csv --x 0 --y=-5 --eirp 30 --exclude=",
    "geodb contour db.csv --freq 600 --ref-loss-db 30",
    "geodb separation --power 30 --height 30",
    "occupancy t.csv --threshold-dbm -90 --subbands s.csv --out o",
    "geodb separation --power 30 --height 30 --exponent=9",
    "geodb query db.csv --x=nan --y=0",
    "geodb nosuch",
    "occupancy t.csv --threshold-dbm=-inf",
    "roc",
    "acir --out",
]


def _parse(parser, argv, capsys):
    """The namespace ``parser`` gives ``argv``, else its (exit code, stdout, stderr)."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("line", [line for line in [*sorted(PINS), *PARSED]
                                  if line.split()[:1] and line.split()[0] in cli._SUBCOMMANDS])
def test_one_subcommand_parser_parses_as_the_full_one(monkeypatch, capsys, line):
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    assert (_parse(cli.build_parser(argv[0]), argv, capsys)
            == _parse(cli.build_parser(), argv, capsys))
