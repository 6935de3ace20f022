"""`setopt solve` on every shipped fixture, diffed byte for byte.

The files under golden/ were recorded with the pairwise domination scan,
so any verdict the domination kernel changes shows up here.
"""

import pathlib

import pytest

from setopt import fixtures
from setopt.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    fixtures.write_all(str(out))
    return out


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_solve_matches_golden(name, fixture_dir, capsys):
    assert main(["solve", str(fixture_dir / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.solve.json").read_bytes()
