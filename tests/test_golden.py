"""CLI output on every shipped fixture, diffed byte for byte.

The files under golden/ were recorded before the evaluated-cloud store
replaced per-layer map evaluation (the `solve` files before the
staircase domination kernel), so any output either change moves shows
up here.  Each colevel case uses one height strictly between the
fixture's scalar infimum and its maximum over the grid.
"""

import pathlib

import pytest

from setopt import fixtures
from setopt.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

LAMBDAS = {
    "decay_tail": "0.5",
    "hyperbola_escape": "0.0005",
    "kinked_interval": "1.234",
    "parabola_interval": "1.234",
    "ramp_gap": "0.8",
    "shifted_disc": "-2.5",
    "tradeoff_segment": "2.5",
    "wedge_strip": "-0.5",
}

SUBCOMMANDS = {
    "scalarize": lambda name: [],
    "colevel": lambda name: ["--lambda", LAMBDAS[name]],
    "asymptotic": lambda name: ["--horizon"],
    "check": lambda name: ["--all", "--transfer", "--rgi", "--coercivity", "--gap"],
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    fixtures.write_all(str(out))
    return out


def _stdout(argv, capsys) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_solve_matches_golden(name, fixture_dir, capsys):
    out = _stdout(["solve", str(fixture_dir / f"{name}.json")], capsys)
    assert out == (GOLDEN / f"{name}.solve.json").read_bytes()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_subcommand_matches_golden(name, command, fixture_dir, capsys):
    argv = [command, str(fixture_dir / f"{name}.json"), *SUBCOMMANDS[command](name)]
    assert _stdout(argv, capsys) == (GOLDEN / f"{name}.{command}.json").read_bytes()


def test_oracle_matches_golden(capsys):
    out = _stdout(["oracle", "random", "--seed", "7", "--count", "200"], capsys)
    assert out == (GOLDEN / "oracle.random.json").read_bytes()
