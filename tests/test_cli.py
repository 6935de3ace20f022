import contextlib
import copy
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setopt import build_problem, check_asymptotic_gap, fixtures, to_document
from setopt.cli import _emit, main
from setopt.sampling import random_problem


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--out", str(out)]) == 0
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_tradeoff(fixture_dir, capsys):
    code, out, _ = _run(capsys, ["solve", str(fixture_dir / "tradeoff_segment.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["argmin"] == [0.0, 1.0]
    assert doc["inclusion_argmin_in_strict"] is True
    assert doc["argmin_strictly_smaller"] is True


def test_colevel_disc(fixture_dir, capsys):
    code, out, _ = _run(capsys, ["colevel", str(fixture_dir / "shifted_disc.json"),
                                 "--lambda", "-3"])
    assert code == 0
    assert json.loads(out)["points"] == [[1.0, 0.0]]


def test_scalarize_csv_and_json(fixture_dir, capsys, tmp_path):
    csv_path = tmp_path / "field.csv"
    code, out, _ = _run(capsys, ["scalarize", str(fixture_dir / "ramp_gap.json"),
                                 "--csv", str(csv_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["inf_value"] == 0.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x_0,value"
    assert len(lines) == 26  # header plus 25 grid points


def test_asymptotic_decay(fixture_dir, capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, out, _ = _run(capsys, [
        "asymptotic", str(fixture_dir / "decay_tail.json"),
        "--direction", "1", "--direction", "-1", "--horizon", "--csv", str(csv_path),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"]["holds"] is False
    assert doc["gap"]["witnesses"] == [[-1.0]]
    assert doc["horizon"]["directions"] == [[-1.0]]
    assert csv_path.read_text().startswith("direction,t,value")


def test_check_report(fixture_dir, capsys):
    code, out, _ = _run(capsys, ["check", str(fixture_dir / "ramp_gap.json"), "--all"])
    assert code == 0
    doc = json.loads(out)["report"]
    assert doc["coercive_theorem"]["applicable"] is True
    assert doc["noncoercive_theorem"]["applicable"] is False


def test_check_single_flags(fixture_dir, capsys):
    code, out, _ = _run(capsys, ["check", str(fixture_dir / "kinked_interval.json"),
                                 "--rgi", "--transfer", "--coercivity"])
    assert code == 0
    doc = json.loads(out)
    assert doc["regular_global_inf"]["status"] == "holds"
    assert doc["transfer_closed"]["status"] == "holds"
    assert doc["coercivity"]["status"] == "holds"
    assert "report" not in doc


def test_oracle_random(capsys):
    code, out, _ = _run(capsys, ["oracle", "random", "--seed", "7", "--count", "200"])
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7
    assert doc["gerstewitz"]["max_abs_deviation"] <= 1e-9
    assert doc["gerstewitz"]["pass"] and doc["solver"]["pass"]


def test_fixture_files_round_trip(fixture_dir):
    for name in sorted(os.listdir(fixture_dir)):
        with open(fixture_dir / name, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert to_document(build_problem(doc)) == doc


def test_deterministic_output(fixture_dir, capsys):
    _, first, _ = _run(capsys, ["solve", str(fixture_dir / "wedge_strip.json")])
    _, second, _ = _run(capsys, ["solve", str(fixture_dir / "wedge_strip.json")])
    assert first == second


def test_emit_encodes_reports_and_numpy_values_only(capsys):
    gap = check_asymptotic_gap(fixtures.build("decay_tail"), directions=[[1.0]])
    _emit({"gap": gap, "flag": np.bool_(True), "count": np.int64(3)})
    doc = json.loads(capsys.readouterr().out)
    assert doc["flag"] is True and doc["count"] == 3
    assert set(doc["gap"]) == {"holds", "inf_value", "margin", "per_direction", "witnesses",
                               "sampling_note"}
    assert doc["gap"]["per_direction"][0]["direction"] == [1.0]
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        _emit({"points": {1.0}})


def test_error_exit_codes(fixture_dir, capsys, tmp_path):
    code, _, err = _run(capsys, ["solve", str(tmp_path / "missing.json")])
    assert code == 1 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema_version\": \"1\"}")
    code, _, err = _run(capsys, ["solve", str(bad)])
    assert code == 1 and "error:" in err

    code, _, err = _run(capsys, ["confabulate"])
    assert code == 1 and "error:" in err

    code, _, err = _run(capsys, ["colevel", str(fixture_dir / "ramp_gap.json")])
    assert code == 1  # missing required --lambda

    code, _, err = _run(capsys, ["oracle", "exhaustive"])
    assert code == 1 and "oracle mode" in err


def test_asymptotic_csv_holds_plain_numbers(fixture_dir, capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["asymptotic", str(fixture_dir / "decay_tail.json"),
                               "--direction", "1", "--t-count", "8", "--csv", str(csv_path)])
    assert code == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 8
    for row in rows:
        assert [float(cell) for cell in row.split(",")][0] == 1.0


def test_scal_tol_is_accepted_and_ignored(fixture_dir, capsys, tmp_path):
    path = fixture_dir / "tradeoff_segment.json"
    doc = json.loads(path.read_text())
    assert "scal_tol" not in doc["tolerances"]
    doc["tolerances"]["scal_tol"] = 1e-9
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(doc))
    code, with_key, _ = _run(capsys, ["solve", str(legacy)])
    assert code == 0
    assert with_key == _run(capsys, ["solve", str(path)])[1]


def _constant_without_cloud():
    doc = fixtures.document("ramp_gap")
    doc["map"] = {"kind": "constant", "parameters": {}}
    return doc


def _fixed_centre_without_value():
    doc = fixtures.document("shifted_disc")
    doc["map"]["parameters"]["center"] = {"family": "fixed"}
    return doc


def _text_coefficient():
    doc = fixtures.document("decay_tail")
    doc["map"]["parameters"]["lower"][0]["fn"]["c"] = "minus one"
    return doc


def _box_without_resolution():
    doc = fixtures.document("kinked_interval")
    del doc["domain"]["resolution"]
    return doc


def _edited(name, *keys, value):
    """A maker for the fixture document `name` with doc[k0]...[kn] set to value."""
    def make():
        doc = fixtures.document(name)
        entry = doc
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        return doc
    make.__name__ = f"_{name}"
    return make


def _unreached_region(name, region):
    """A maker for the piecewise fixture `name` with `region` listed after its catch-all."""
    def make():
        doc = fixtures.document(name)
        doc["map"]["parameters"]["regions"].append(region)
        return doc
    make.__name__ = f"_{name}_unreached"
    return make


@pytest.mark.parametrize("path, make", [
    ("map.parameters.cloud", _constant_without_cloud),
    ("map.parameters.center.value", _fixed_centre_without_value),
    ("map.parameters.lower[0].fn.c", _text_coefficient),
    ("domain.resolution", _box_without_resolution),
    ("map.parameters.cloud", _edited(
        "ramp_gap", "map", value={"kind": "constant", "parameters": {"cloud": [["abc", 1]]}})),
    ("map.parameters.center", _edited("shifted_disc", "map", "parameters", "center", value=5)),
    ("map.parameters.radius", _edited("shifted_disc", "map", "parameters", "radius", value="abc")),
    ("map.parameters.center.value", _edited(
        "shifted_disc", "map", "parameters", "center", value={"family": "fixed", "value": 5})),
    ("map.parameters.center.overrides[0].value", _edited(
        "shifted_disc", "map", "parameters", "center", "overrides", value=[{"at": [1.0, 0.0]}])),
    ("map.parameters.regions[1].cloud.points", _edited(
        "tradeoff_segment", "map", "parameters", "regions", 1, "cloud", value={"type": "fixed"})),
    ("map.parameters.regions[0].where.point", _edited(
        "wedge_strip", "map", "parameters", "regions", 0, "where", value={"type": "eq"})),
    ("map.parameters.regions[0]", _edited("wedge_strip", "map", "parameters", "regions", 0,
                                          value=5)),
    ("map.parameters.clouds[0]", _edited("tradeoff_segment", "map", value={
        "kind": "table",
        "parameters": {"points": [[0.0], [1.0]], "clouds": [[["z", 0]], [[1.0, 0.0]]]}})),
    ("cone.dual_generators", _edited("tradeoff_segment", "cone", "dual_generators",
                                     value=[["one", 0.0], [0.0, 1.0]])),
    ("domain.points", _edited("tradeoff_segment", "domain", value={"points": [[0.0], ["half"]]})),
    ("tolerances.cone_tol", _edited("tradeoff_segment", "tolerances", "cone_tol", value="x")),
    ("cone must be an object", _edited("tradeoff_segment", "cone", value=5)),
    ("map.parameters.center.family", _edited(
        "shifted_disc", "map", "parameters", "center", "family", value=["x"])),
    ("map.parameters.center.family", _edited("ramp_gap", "map", value={
        "kind": "ball", "parameters": {"center": {"family": "identity"}, "radius": 1.0,
                                       "samples": 4}})),
    ("map.parameters.lower[0].fn.type", _edited(
        "decay_tail", "map", "parameters", "lower", 0, "fn", "type", value=["x"])),
    ("map.parameters.regions[0].cloud.matrix", _edited(
        "tradeoff_segment", "map", "parameters", "regions", 0, "cloud", "matrix",
        value=[[1.0, 2.0]])),
    ("map.parameters.regions[0].cloud.matrix has 2 columns", _edited(
        "tradeoff_segment", "map", "parameters", "regions", 0, "cloud", "matrix",
        value=[[1.0, 2.0], [0.0, 1.0]])),
    ("map.parameters.regions[0].where.type", _edited(
        "wedge_strip", "map", "parameters", "regions", 0, "where", "type", value=["eq"])),
    ("map.parameters.regions[1].cloud.type", _edited(
        "tradeoff_segment", "map", "parameters", "regions", 1, "cloud", "type",
        value=["fixed"])),
    ("map.parameters.points", _edited("tradeoff_segment", "map", value={
        "kind": "table",
        "parameters": {"points": [[0.0, 0.0], [1.0, 1.0]],
                       "clouds": [[[0.0, 1.0]], [[1.0, 0.0]]]}})),
    ("tolerances.tie_tol", _edited("ramp_gap", "tolerances", "tie_tol", value=float("nan"))),
    ("tolerances.tie_tol", _edited("decay_tail", "tolerances", "tie_tol", value=float("inf"))),
    ("tolerances.cone_tol", _edited("ramp_gap", "tolerances", "cone_tol", value=float("nan"))),
    ("tolerances.cone_tol", _edited("decay_tail", "tolerances", "cone_tol", value=float("inf"))),
    ("domain.resolution", _edited("kinked_interval", "domain", "resolution",
                                  value=[float("nan")])),
    ("domain.resolution", _edited("decay_tail", "domain", "resolution", value=[float("inf")])),
    ("domain.resolution", _edited("ramp_gap", "domain", "resolution", value=[24.5])),
    ("domain.resolution", _edited("parabola_interval", "domain", "resolution", value=[1e300])),
    ("domain.resolution", _edited("hyperbola_escape", "domain", "resolution", value=[1e9])),
    ("tolerances.tie_toll", _edited("tradeoff_segment", "tolerances", "tie_toll", value=1e-9)),
    ("map.parameters.lower[0].fn.d", _edited(
        "decay_tail", "map", "parameters", "lower", 0, "fn", "d", value=1.0)),
    ("document.comment", _edited("tradeoff_segment", "comment", value="a typo")),
    ("flags.K_q_set", _edited("decay_tail", "flags", "K_q_set", value="false")),
    ("map.parameters.lower[0].hi_strict", _edited(
        "decay_tail", "map", "parameters", "lower", 0, "hi_strict", value="true")),
    ("map.parameters.samples", _edited("shifted_disc", "map", "parameters", "samples", value=3.7)),
    ("map.parameters.regions[2].where.type", _unreached_region(
        "tradeoff_segment", {"where": {"type": "bogus"}, "cloud": {"points": [[0.0, 0.0]]}})),
    ("map.parameters.regions[2].cloud.points", _unreached_region(
        "wedge_strip", {"cloud": {"points": []}})),
    ("tolerances.tie_tol", _edited("tradeoff_segment", "tolerances", "tie_tol", value=True)),
    ("domain.box", _edited("kinked_interval", "domain", "box", value=[[True, 3.0]])),
    ("domain.resolution", _edited("wedge_strip", "domain", "resolution", value=[True])),
    ("tolerances.tie_tol", _edited("wedge_strip", "tolerances", "tie_tol", value="1e-3")),
    ("domain.box", _edited("ramp_gap", "domain", "box", value=[["-3", 3.0]])),
    ("map.parameters.lower[0].fn.c", _edited(
        "decay_tail", "map", "parameters", "lower", 0, "fn", "c", value="-1")),
    ("tolerances.cone_tol", _edited("kinked_interval", "tolerances", "cone_tol", value=10**400)),
    # rejected before the ring is allocated
    ("map.parameters.samples", _edited("ramp_gap", "map", value={
        "kind": "ball", "parameters": {"center": {"family": "identity"}, "radius": 1.0,
                                       "samples": 2**70}})),
    # clouds that would hold more points than a problem stores, rejected
    # before the store is allocated: 90,000 rings of 360 points, 13 rings of
    # 400,000 points, and 200 copies of a 30,000-point square
    ("domain.resolution", _edited("shifted_disc", "domain", "resolution", value=[300, 300])),
    ("map.parameters.samples", _edited("wedge_strip", "map", value={
        "kind": "ball", "parameters": {"center": {"family": "fixed", "value": [0.0, 0.0]},
                                       "radius": 1.0, "samples": 400_000}})),
    ("domain.resolution", _edited("tradeoff_segment", "map", "parameters", "regions", 1, "cloud",
                                  "points", value=[[3.0 + k / 1e4, 3.0] for k in range(30_000)])),
])
def test_malformed_document_exits_1_naming_its_path(path, make, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make()))
    code, out, err = _run(capsys, ["solve", str(bad)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and path in err


def test_compact_at_holds_under_a_wide_tie_band(capsys, tmp_path):
    # tie_tol widens the colevel sets the coercivity check probes, not the
    # relation's colevel set at F(x0), so the two need not agree
    path = tmp_path / "wide_tie.json"
    path.write_text(json.dumps(_edited("ramp_gap", "tolerances", "tie_tol", value=1.0)()))
    code, out, err = _run(capsys, ["check", str(path), "--compact-at", "0"])
    assert code == 0, err
    evidence = json.loads(out)["colevel_compact_at"]["evidence"]
    assert evidence["compactness_implication_active"] is True


@pytest.mark.parametrize("command", [["check", "--gap"], ["asymptotic"]])
def test_rays_past_a_box_that_misses_the_infimum_exit_0(capsys, tmp_path, command):
    # psi tends to 0 along both rays, below the infimum 1/11 over the box
    # grid, so both directions witness a failing gap instead of an error
    path = tmp_path / "short_box.json"
    path.write_text(json.dumps(_edited("decay_tail", "domain", "box", value=[[0.0, 10.0]])()))
    code, out, err = _run(capsys, [command[0], str(path), *command[1:]])
    assert code == 0, err
    report = json.loads(out)
    gap = report["asymptotic_gap"] if "asymptotic_gap" in report else report["gap"]
    assert gap["holds"] is False and gap["witnesses"] == [[1.0], [-1.0]]


def test_near_tied_table_solves_with_default_tolerances(capsys, tmp_path):
    # psi differs by 1e-10, below tie_tol but far above delta = 5e-13: the
    # argmin is the one point, and it is strictly efficient
    doc = {"schema_version": "1",
           "cone": {"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, 1.0]},
           "domain": {"points": [[0.0], [1.0]]},
           "map": {"kind": "table",
                   "parameters": {"points": [[0.0], [1.0]],
                                  "clouds": [[[0.0, 0.0]], [[1e-10, 1e-10]]]}}}
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["solve", str(path)])
    assert code == 0, err
    report = json.loads(out)
    assert report["argmin"] == [0.0] and report["strict_weak_efficient"] == [0.0]


def _small_documents() -> list[tuple[dict, str]]:
    """Every fixture on a grid of at most 7 points per axis, and a table document,
    each with its first grid point as a `--compact-at` argument."""
    docs = []
    for name in fixtures.FIXTURES:
        kwargs = {"shifted_disc": {"samples": 12},
                  "hyperbola_escape": {"sample_size": 16}}.get(name, {})
        doc = fixtures.document(name, **kwargs)
        if "resolution" in doc["domain"]:
            doc["domain"]["resolution"] = [min(r, 7) for r in doc["domain"]["resolution"]]
        docs.append(doc)
    docs.append(to_document(random_problem(np.random.default_rng(3))))
    return [(doc, "--compact-at=" + ",".join(map(repr, build_problem(doc).grid.points[0].tolist())))
            for doc in docs]


_JUNK = (None, True, "x", "", -1, 0, 2, 0.5, -0.5, 5e-324, -3e7, 1e154, 1e308, -1e308,
         float("nan"), float("inf"), 2**70, [], {}, [0], [[0, 0]], [[1e308, -1e308]], [["x"]],
         {"type": "x"})
_SMALL_DOCUMENTS = _small_documents()


def _mutate(doc, data) -> None:
    """Replace a value with junk, or delete a key, somewhere in doc."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = copy.deepcopy(data.draw(st.sampled_from(_JUNK)))
            return


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_documents_exit_0_or_1(tmp_path_factory, data):
    doc, compact_at = copy.deepcopy(data.draw(st.sampled_from(_SMALL_DOCUMENTS)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from([["solve"], ["scalarize"], ["colevel", "--lambda", "0"],
                                         ["check", "--gap", "--coercivity"],
                                         ["check", compact_at],
                                         ["check", "--all", "--transfer", "--rgi"],
                                         ["asymptotic", "--horizon"]]))
    out, err = io.StringIO(), io.StringIO()
    # any exception other than SetOptError escapes main and fails the test
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
