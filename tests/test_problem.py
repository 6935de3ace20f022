import copy
import json

import numpy as np
import pytest

from setopt import (DomainGrid, MapModel, ProblemValidationError, build_problem, colevel,
                    colevel_at_set, evaluate, evaluate_at, global_inf, scalar_field, solve,
                    to_document)
from setopt import asymptotics, diagnostics, scalarizer
from setopt import fixtures as fixture_catalog
from setopt.cli import main

from conftest import constant_problem


def test_evaluate_tradeoff_segment(tradeoff):
    got = evaluate(tradeoff, [0.25])
    assert got.points.shape == (1, 2)
    np.testing.assert_allclose(got.points[0], [0.25, 0.75], atol=1e-12)
    far = evaluate(tradeoff, [2.0])
    assert len(far) == 9  # the sampled square
    assert far.sampling_note is not None


def test_evaluate_constant_kind():
    prob = constant_problem([[1.0, 2.0]])
    for x in prob.grid.points[:3]:
        np.testing.assert_array_equal(evaluate(prob, x).points, [[1.0, 2.0]])


def test_evaluate_disc_four_samples():
    prob = fixture_catalog.build("shifted_disc", samples=4)
    got = evaluate(prob, [1.0, 0.0])
    expected = [[-2.0, 2.0], [-3.0, 3.0], [-4.0, 2.0], [-3.0, 1.0]]
    np.testing.assert_allclose(got.points, expected, atol=1e-12)


def test_evaluate_deterministic(shifted72):
    first = evaluate(shifted72, [1.0, 1.0]).points
    second = evaluate(shifted72, [1.0, 1.0]).points
    np.testing.assert_array_equal(first, second)


def test_evaluate_total_on_grid(wedge):
    for x in wedge.grid.points:
        assert len(evaluate(wedge, x)) >= 1


def test_evaluate_rejects_off_grid(tradeoff):
    with pytest.raises(ProblemValidationError, match="not in grid"):
        evaluate(tradeoff, [0.255])


def test_evaluate_at_rejects_table():
    prob = fixture_catalog.build("tradeoff_segment")
    doc = to_document(prob)
    table = {
        "schema_version": "1",
        "cone": doc["cone"],
        "domain": {"points": [[0.0], [1.0]]},
        "map": {"kind": "table",
                "parameters": {"points": [[0.0], [1.0]],
                               "clouds": [[[0.0, 1.0]], [[1.0, 0.0]]]}},
    }
    built = build_problem(table)
    assert not built.map_model.is_analytic
    with pytest.raises(ProblemValidationError, match="off the grid"):
        evaluate_at(built, [0.5])


def test_build_problem_validations():
    base = fixture_catalog.document("kinked_interval")

    doc = copy.deepcopy(base)
    doc["cone"]["q"] = [0.0]
    with pytest.raises(ProblemValidationError, match="not interior"):
        build_problem(doc)

    doc = copy.deepcopy(base)
    doc["domain"] = {"points": []}
    with pytest.raises(ProblemValidationError, match="empty grid"):
        build_problem(doc)

    doc = copy.deepcopy(base)
    doc["domain"] = {"points": [[0.0]], "box": [[-1.0, 1.0]]}
    with pytest.raises(ProblemValidationError, match="exactly one"):
        build_problem(doc)

    doc = copy.deepcopy(base)
    doc["schema_version"] = "99"
    with pytest.raises(ProblemValidationError, match="schema_version"):
        build_problem(doc)

    doc = copy.deepcopy(base)
    doc["map"]["kind"] = "mystery"
    with pytest.raises(ProblemValidationError, match="unknown map kind"):
        build_problem(doc)

    # lower bound above the upper bound must be rejected eagerly
    doc = copy.deepcopy(base)
    doc["map"]["parameters"]["upper"] = [{"fn": {"type": "const", "c": -5.0}}]
    with pytest.raises(ProblemValidationError, match="interval violation"):
        build_problem(doc)

    doc = copy.deepcopy(base)
    doc["tolerances"]["tie_tol"] = 0.0
    with pytest.raises(ProblemValidationError, match="positive"):
        build_problem(doc)


def test_order_unit_interior_error_matches_orthant_case():
    doc = {
        "schema_version": "1",
        "cone": {"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 1.0]},
        "domain": {"points": [[0.0]]},
        "map": {"kind": "constant", "parameters": {"cloud": [[0.0, 0.0]]}},
    }
    with pytest.raises(ProblemValidationError, match="order unit not interior"):
        build_problem(doc)


def test_image_dimension_checked():
    doc = {
        "schema_version": "1",
        "cone": {"dual_generators": [[1.0]], "q": [1.0]},
        "domain": {"points": [[0.0]]},
        "map": {"kind": "constant", "parameters": {"cloud": [[0.0, 0.0]]}},
    }
    with pytest.raises(ProblemValidationError, match="dimension"):
        build_problem(doc)


def test_grid_invariants():
    with pytest.raises(ProblemValidationError, match="distinct"):
        DomainGrid(np.array([[0.0], [0.0]]))
    with pytest.raises(ProblemValidationError, match="outside box"):
        DomainGrid(np.array([[3.0]]), box=np.array([[-1.0, 1.0]]))
    grid = DomainGrid.from_box([[-1.0, 1.0], [0.0, 2.0]], [3, 5])
    assert len(grid) == 15
    np.testing.assert_allclose(grid.step_estimate(), [1.0, 0.5])


def test_fixture_documents_round_trip():
    for name in fixture_catalog.FIXTURES:
        doc = fixture_catalog.document(name)
        rebuilt = to_document(build_problem(doc))
        assert rebuilt == doc, f"round trip changed {name}"


def counted_cloud_at(monkeypatch):
    """Count MapModel.cloud_at calls; returns the list of evaluated points."""
    calls = []
    real = MapModel.cloud_at

    def cloud_at(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(MapModel, "cloud_at", cloud_at)
    return calls


@pytest.mark.parametrize("name", sorted(fixture_catalog.FIXTURES))
def test_each_grid_cloud_is_evaluated_once(name, monkeypatch):
    calls = counted_cloud_at(monkeypatch)
    prob = fixture_catalog.build(name)
    assert len(calls) == len(prob.grid)
    np.testing.assert_array_equal(np.array(calls), prob.grid.points)

    solve(prob)
    field = scalar_field(prob)
    colevel(prob, global_inf(prob) + 0.5 * (field.values.max() - global_inf(prob)))
    for x in prob.grid.points:
        evaluate(prob, x)
    colevel_at_set(prob, evaluate(prob, prob.grid.points[0]))
    assert len(calls) == len(prob.grid)


@pytest.mark.parametrize("name", ["decay_tail", "shifted_disc"])
@pytest.mark.parametrize("command", [["check", "--all", "--transfer"], ["asymptotic", "--horizon"]],
                         ids=lambda command: command[0])
def test_each_off_grid_point_is_evaluated_once(name, command, monkeypatch, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(fixture_catalog.document(name)))
    grid = fixture_catalog.build(name).grid.points
    calls = counted_cloud_at(monkeypatch)
    passed = []
    real = scalarizer.scalar_value_at

    def scalar_value_at(problem, x):
        passed.append(np.asarray(x, dtype=float).tobytes())
        return real(problem, x)

    for module in (diagnostics, asymptotics):
        monkeypatch.setattr(module, "scalar_value_at", scalar_value_at)
    assert main([*command, str(path)]) == 0
    capsys.readouterr()

    np.testing.assert_array_equal(np.array(calls[:len(grid)]), grid)
    off_grid = [np.asarray(x, dtype=float).tobytes() for x in calls[len(grid):]]
    assert len(passed) > len(set(passed))  # the checkers do revisit points
    assert sorted(off_grid) == sorted(set(passed))


def test_table_map_matches_points_within_region_tol():
    model = MapModel(kind="table", params={"points": [[0.0], [1.0]], "clouds": [[[0.0]], [[5.0]]]})
    np.testing.assert_array_equal(model.cloud_at([1.0 + 1e-10]).points, [[5.0]])
    with pytest.raises(ProblemValidationError, match="no entry for x"):
        model.cloud_at([0.5])


def test_store_is_the_evaluated_clouds(shifted72):
    starts = shifted72.cloud_starts
    assert len(starts) == len(shifted72.clouds) == len(shifted72.grid)
    for i, x in enumerate(shifted72.grid.points):
        cloud = shifted72.clouds[i]
        assert evaluate(shifted72, x) is cloud
        np.testing.assert_array_equal(shifted72.map_model.cloud_at(x).points, cloud.points)
        np.testing.assert_array_equal(
            shifted72.cloud_points[starts[i]: starts[i] + len(cloud)], cloud.points)
    assert starts[-1] + len(shifted72.clouds[-1]) == len(shifted72.cloud_points)


def _with_map(name, kind, parameters):
    doc = fixture_catalog.document(name)
    doc["map"] = {"kind": kind, "parameters": parameters}
    return doc


@pytest.mark.parametrize("doc", [
    fixture_catalog.document("decay_tail"),
    fixture_catalog.document("shifted_disc", samples=12),
    fixture_catalog.document("tradeoff_segment"),
    _with_map("ramp_gap", "constant", {"cloud": [[0.5], [1.5]], "sampling_note": "two points"}),
    {"schema_version": "1",
     "cone": {"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, 1.0]},
     "domain": {"points": [[0.0], [1.0], [2.0]]},
     "map": {"kind": "table", "parameters": {
         "points": [[0.0], [1.0], [2.0]],
         "clouds": [[[0.0, 1.0]], [[1.0, 0.0]], [[2.0, 2.0], [3.0, 1.0]]],
         "sampling_note": "three listed clouds"}}},
], ids=lambda doc: doc["map"]["kind"])
def test_map_model_reads_its_parameters_once(doc):
    problem = build_problem(doc)
    model, grid = problem.map_model, problem.grid
    points = list(grid.points)
    if model.is_analytic:
        points += list(grid.points[:4] + 0.37 * grid.step_estimate()) + [grid.points[-1] * 100.0]
    before = [model.cloud_at(x) for x in points]
    notes = model.sampling_notes()

    model.params.clear()
    for x, cloud in zip(points, before):
        again = model.cloud_at(x)
        assert again.points.tobytes() == cloud.points.tobytes()
        assert again.points.shape == cloud.points.shape
        assert again.sampling_note == cloud.sampling_note
    assert model.sampling_notes() == notes
