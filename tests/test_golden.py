"""CLI output on every shipped fixture, diffed byte for byte.

The files under golden/ were recorded before the evaluated-cloud store
replaced per-layer map evaluation (the `solve` files before the
staircase domination kernel, the `compact_at` and `directions` files
before reports were encoded by one JSON hook, the benchmark-sized
`check` files before each check refined its collar in one batch), so
any output those changes move shows up here.  Each colevel case uses one height strictly
between the fixture's scalar infimum and its maximum over the grid;
each compact-at case uses one grid point, and together they cover the
holds and the fails verdict.

The skew_cone document under documents/ has non-dyadic generators and
cloud points, where a fused multiply-add rounds scores differently from
the unfused fold every score goes through; its goldens are checked
against scores recomputed in plain Python floats as well.  The
affine_cube document is the one three-dimensional domain: a 5 x 5 x 5
box, so its rays and refinement rings span three axes.
"""

import json
import pathlib

import pytest

from setopt import fixtures
from setopt import problem as problem_module
from setopt.cli import main

from conftest import unfused_forms

GOLDEN = pathlib.Path(__file__).parent / "golden"
SKEW_CONE = pathlib.Path(__file__).parent / "documents" / "skew_cone.json"
AFFINE_CUBE = pathlib.Path(__file__).parent / "documents" / "affine_cube.json"

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


COMPACT_AT = {
    "decay_tail": "0",
    "hyperbola_escape": "0",
    "kinked_interval": "0",
    "parabola_interval": "1",
    "ramp_gap": "0",
    "shifted_disc": "1,0",
    "tradeoff_segment": "0.5",
    "wedge_strip": "0",
}

# the ray report over directions given on the command line, not the cached compass report
DIRECTIONS = {
    "decay_tail": ["--direction", "1", "--direction", "-1"],
    "shifted_disc": ["--direction=1,0", "--direction=-1,0"],
}


# `check --all --transfer` at the grid and cloud sizes of the benchmark's
# lattice_checks ops: golden name -> (fixture, its arguments, resolution)
BENCHMARK_SIZED = {
    "decay_tail_2001": ("decay_tail", {}, [2001]),
    "kinked_interval_1401": ("kinked_interval", {}, [1401]),
    "shifted_disc_11x11": ("shifted_disc", {"samples": 36}, [11, 11]),
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


@pytest.mark.parametrize("name", sorted(COMPACT_AT))
def test_compact_at_matches_golden(name, fixture_dir, capsys):
    argv = ["check", str(fixture_dir / f"{name}.json"), f"--compact-at={COMPACT_AT[name]}"]
    assert _stdout(argv, capsys) == (GOLDEN / f"{name}.compact_at.json").read_bytes()


@pytest.mark.parametrize("name", sorted(DIRECTIONS))
def test_directions_match_golden(name, fixture_dir, capsys):
    argv = ["asymptotic", str(fixture_dir / f"{name}.json"), *DIRECTIONS[name]]
    assert _stdout(argv, capsys) == (GOLDEN / f"{name}.directions.json").read_bytes()


def test_oracle_matches_golden(capsys):
    out = _stdout(["oracle", "random", "--seed", "7", "--count", "200"], capsys)
    assert out == (GOLDEN / "oracle.random.json").read_bytes()


@pytest.mark.parametrize("name", sorted(BENCHMARK_SIZED))
def test_benchmark_sized_check_matches_golden(name, tmp_path, capsys):
    fixture, kwargs, resolution = BENCHMARK_SIZED[name]
    doc = fixtures.document(fixture, **kwargs)
    doc["domain"]["resolution"] = resolution
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    argv = ["check", str(path), "--all", "--transfer"]
    assert _stdout(argv, capsys) == (GOLDEN / f"{name}.check.json").read_bytes()


@pytest.mark.parametrize("command", ["scalarize", "solve"])
def test_skew_cone_matches_golden(command, capsys):
    out = _stdout([command, str(SKEW_CONE)], capsys)
    assert out == (GOLDEN / f"skew_cone.{command}.json").read_bytes()


@pytest.mark.parametrize("command", ["check", "asymptotic"])
def test_affine_cube_matches_golden(command, capsys):
    argv = [command, str(AFFINE_CUBE), *SUBCOMMANDS[command]("affine_cube")]
    assert _stdout(argv, capsys) == (GOLDEN / f"affine_cube.{command}.json").read_bytes()


def _every_golden(fixture_dir, tmp_path) -> list:
    """(argv, golden file) of every test above."""
    cases = []
    for name in sorted(fixtures.FIXTURES):
        path = str(fixture_dir / f"{name}.json")
        cases.append((["solve", path], f"{name}.solve.json"))
        cases += [([command, path, *args(name)], f"{name}.{command}.json")
                  for command, args in SUBCOMMANDS.items()]
        if name in COMPACT_AT:
            cases.append((["check", path, f"--compact-at={COMPACT_AT[name]}"],
                          f"{name}.compact_at.json"))
        if name in DIRECTIONS:
            cases.append((["asymptotic", path, *DIRECTIONS[name]], f"{name}.directions.json"))
    cases.append((["oracle", "random", "--seed", "7", "--count", "200"], "oracle.random.json"))
    for name, (fixture, kwargs, resolution) in BENCHMARK_SIZED.items():
        doc = fixtures.document(fixture, **kwargs)
        doc["domain"]["resolution"] = resolution
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        cases.append((["check", str(path), "--all", "--transfer"], f"{name}.check.json"))
    cases += [([command, str(SKEW_CONE)], f"skew_cone.{command}.json")
              for command in ("scalarize", "solve")]
    cases += [([command, str(AFFINE_CUBE), *SUBCOMMANDS[command]("affine_cube")],
               f"affine_cube.{command}.json") for command in ("check", "asymptotic")]
    return cases


@pytest.mark.parametrize("bound", [1, 3, 7])
def test_every_golden_at_a_few_points_of_scratch(bound, fixture_dir, tmp_path, capsys,
                                                 monkeypatch):
    # nearly every cloud a chunk of its own, most of them larger than one
    monkeypatch.setattr(problem_module, "SCRATCH_POINTS", bound)
    cases = _every_golden(fixture_dir, tmp_path)
    assert len(cases) == len(list(GOLDEN.iterdir()))
    for argv, golden in cases:
        assert _stdout(argv, capsys) == (GOLDEN / golden).read_bytes(), argv


def test_skew_cone_golden_values_are_plain_python_scores():
    doc = json.loads(SKEW_CONE.read_text())
    W, q = doc["cone"]["dual_generators"], doc["cone"]["q"]
    units = unfused_forms([q], W)[0].tolist()
    psi = [min(s / u for row in unfused_forms(cloud, W).tolist() for s, u in zip(row, units))
           for cloud in doc["map"]["parameters"]["clouds"]]
    scalarize = json.loads((GOLDEN / "skew_cone.scalarize.json").read_text())
    solve = json.loads((GOLDEN / "skew_cone.solve.json").read_text())
    for table in (scalarize["values"], solve["scalar_table"]):
        assert [row["value"].hex() for row in table] == [value.hex() for value in psi]
    assert scalarize["inf_value"].hex() == solve["inf_value"].hex() == min(psi).hex()
