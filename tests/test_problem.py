import copy
import inspect
import json

import numpy as np
import pytest

from setopt import (DomainGrid, MapModel, ProblemValidationError, SetOptError, SetValuedProblem,
                    build_problem, check_colevel_compact_at, colevel, efficient_sets, evaluate,
                    evaluate_at, gerstewitz_many, global_inf, scalar_field, scalar_value_at,
                    scalar_values_at, solve, to_document)
from setopt import asymptotics, diagnostics, scalarizer
from setopt import problem as problem_module
from setopt.problem import REGION_TOL, first_failure
from setopt.solver import domination_matrix
from setopt import fixtures as fixture_catalog
from setopt.cli import main

from conftest import colevel_at_set, constant_problem, unfused_forms


def test_evaluate_tradeoff_segment(tradeoff):
    got = evaluate(tradeoff, [0.25])
    assert got.points.shape == (1, 2)
    np.testing.assert_allclose(got.points[0], [0.25, 0.75], atol=1e-12)
    far = evaluate(tradeoff, [2.0])
    assert len(far) == 9  # the sampled square
    assert tradeoff.map_model.sampling_notes()  # the square's note, kept on the map


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
    for rows in ([[0.0], [0.0]], [[0.0], [-0.0]], [[2.0], [1.0], [2.0]],
                 [[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]], [[0.0, -1.0], [-0.0, -1.0]],
                 [[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [0.0, 9.0, 9.0], [1.0, 2.0, 3.0]],
                 [[5.0, 0.0, -0.0], [5.0, -0.0, 0.0]]):
        with pytest.raises(ProblemValidationError, match="distinct"):
            DomainGrid(np.array(rows))
    # rows that differ only in their last coordinate are distinct
    assert len(DomainGrid(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, -2.0]]))) == 3
    assert len(DomainGrid(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [0.0, 2.0, 3.0]]))) == 3
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


def counted_clouds_at(monkeypatch):
    """Record the batches MapModel.clouds_at evaluates; returns the list of them."""
    batches = []
    real = MapModel.clouds_at

    def clouds_at(self, X):
        batches.append(np.array(X, dtype=float))
        return real(self, X)

    monkeypatch.setattr(MapModel, "clouds_at", clouds_at)
    return batches


@pytest.mark.parametrize("name", sorted(fixture_catalog.FIXTURES))
def test_each_grid_cloud_is_evaluated_once(name, monkeypatch):
    batches = counted_clouds_at(monkeypatch)
    prob = fixture_catalog.build(name)
    assert len(batches) == 1  # the build evaluates the whole grid in one call
    np.testing.assert_array_equal(batches[0], prob.grid.points)

    solve(prob)
    check_colevel_compact_at(prob, prob.grid.points[0])
    field = scalar_field(prob)
    colevel(prob, global_inf(prob) + 0.5 * (field.values.max() - global_inf(prob)))
    for x in prob.grid.points:
        evaluate(prob, x)
    colevel_at_set(prob, evaluate(prob, prob.grid.points[0]))
    assert len(batches) == 1


@pytest.mark.parametrize("name", ["decay_tail", "shifted_disc"])
@pytest.mark.parametrize("command", [["check", "--all", "--transfer"], ["asymptotic", "--horizon"]],
                         ids=lambda command: command[0])
def test_each_off_grid_point_is_evaluated_once(name, command, monkeypatch, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(fixture_catalog.document(name)))
    grid = fixture_catalog.build(name).grid.points
    batches = counted_clouds_at(monkeypatch)
    passed = []
    real = scalarizer.scalar_values_at

    def scalar_values_at(problem, X):
        passed.extend(row.tobytes() for row in np.array(X, dtype=float))
        return real(problem, X)

    for module in (diagnostics, asymptotics):
        monkeypatch.setattr(module, "scalar_values_at", scalar_values_at)
    assert main([*command, str(path)]) == 0
    capsys.readouterr()

    np.testing.assert_array_equal(batches[0], grid)
    off_grid = [row.tobytes() for batch in batches[1:] for row in batch]
    assert len(passed) > len(set(passed))  # the checkers do revisit points
    assert sorted(off_grid) == sorted(set(passed))


def test_table_map_matches_points_within_region_tol():
    model = MapModel(kind="table", params={"points": [[0.0], [1.0]], "clouds": [[[0.0]], [[5.0]]]})
    np.testing.assert_array_equal(model.cloud_at([1.0 + 1e-10]).points, [[5.0]])
    with pytest.raises(ProblemValidationError, match="no entry for x"):
        model.cloud_at([0.5])


def test_store_is_the_evaluated_clouds(shifted72):
    starts = shifted72.cloud_starts
    assert len(starts) == len(shifted72.grid)
    for i, x in enumerate(shifted72.grid.points):
        cloud = shifted72.cloud(i)
        assert np.shares_memory(cloud, shifted72.cloud_points)  # a view of the store
        np.testing.assert_array_equal(evaluate(shifted72, x).points, cloud)
        np.testing.assert_array_equal(shifted72.map_model.cloud_at(x).points, cloud)
        np.testing.assert_array_equal(shifted72.cloud_points[starts[i]: starts[i] + len(cloud)],
                                      cloud)
    assert starts[-1] + len(shifted72.cloud(len(starts) - 1)) == len(shifted72.cloud_points)


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
    assert model.sampling_notes() == notes


# -- batch evaluation ----------------------------------------------------------

_SKEW = {"dual_generators": [[1.0, 0.3], [0.2, 1.0]], "q": [1.0, 1.0]}
_LINE = {"dual_generators": [[1.0]], "q": [1.0]}
_AFFINE_2D = {"type": "affine_point", "matrix": [[0.3, -1.7], [2.1, 0.9]], "offset": [0.05, -0.2]}

# name -> (cone, grid points the map evaluates on, special points, map document);
# the special points are where pieces, regions and overrides begin and end
_BATCH_MAPS = {
    "constant": (_SKEW, [[0.0]], [[0.0]], {"kind": "constant", "parameters": {
        "cloud": [[0.1, 0.7], [1.3, -0.2], [0.4, 0.4]], "sampling_note": "three points"}}),
    "interval": (_LINE, [[-1.0], [0.5], [2.0]], [[0.0], [1.0], [3.0]], {
        "kind": "interval", "parameters": {
            # no piece covers |x| <= REGION_TOL, and 3 is a pole of the last one
            "lower": [{"hi": 0.0, "hi_strict": True, "fn": {"type": "const", "c": -1.0}},
                      {"lo": 0.0, "lo_strict": True, "hi": 1.0,
                       "fn": {"type": "linear", "a": 0.75, "b": 0.875}},
                      {"lo": 1.0, "lo_strict": True,
                       "fn": {"type": "inv_linear", "a": 1.0, "b": -3.0, "offset": 0.1}}],
            "upper": [{"fn": {"type": "quadratic", "a": 1.0, "b": 0.1, "c": 2.0}}]}}),
    "ball": (_SKEW, [[0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]], {
        "kind": "ball", "parameters": {"radius": 0.7, "samples": 7, "center": {
            "family": "abs_components",
            "overrides": [{"at": [1.0, 0.0], "value": [-3.0, 2.0]},
                          {"at": [0.0, -1.0], "value": [0.5, 0.25]}]}}}),
    "ball_fixed": (_SKEW, [[0.0, 0.0]], [[0.5, 0.5]], {
        "kind": "ball", "parameters": {"radius": 1.3, "samples": 5, "center": {
            "family": "fixed", "value": [0.2, -0.1],
            "overrides": [{"at": [0.5, 0.5], "value": [1.0, 1.0]}]}}}),
    # off its override, an identity centre needs 2D domain points
    "ball_identity_1d": (_SKEW, [[0.5]], [[0.5]], {
        "kind": "ball", "parameters": {"radius": 1.0, "samples": 4, "center": {
            "family": "identity", "overrides": [{"at": [0.5], "value": [1.0, 1.0]}]}}}),
    "piecewise": (_SKEW, [[-1.0], [0.5], [3.0]], [[0.0], [0.5], [2.0]], {
        "kind": "piecewise", "parameters": {"regions": [
            {"where": {"type": "eq", "point": [0.5]},
             "cloud": {"points": [[0.25, 0.5]], "sampling_note": "at one half"}},
            {"where": {"type": "interval", "hi": 0.0},
             "cloud": {"type": "affine_point", "matrix": [[1.0], [-0.7]], "offset": [0.1, 1.0]}},
            {"where": {"type": "interval", "lo": 0.0, "lo_strict": True, "hi": 2.0},
             "cloud": {"points": [[0.0, 1.0], [0.6, 0.3], [1.1, -0.4]], "sampling_note": "three"}},
            {"cloud": {"type": "affine_point", "matrix": [[0.3], [1.1]], "offset": [0.0, 0.0]}}]}}),
    # clouds of 2, 4, 1 and 3 points, so a batch mixes sizes
    "piecewise_sizes": (_SKEW, [[-1.0], [0.5], [1.0], [3.0]], [[0.0], [0.5], [2.0]], {
        "kind": "piecewise", "parameters": {"regions": [
            {"where": {"type": "eq", "point": [0.5]},
             "cloud": {"points": [[0.5, 0.5], [1.0, -1.0]]}},
            {"where": {"type": "interval", "hi": 0.0},
             "cloud": {"points": [[0.0, 1.0], [0.6, 0.3], [1.1, -0.4], [-0.2, 2.0]]}},
            {"where": {"type": "interval", "lo": 0.0, "lo_strict": True, "hi": 2.0},
             "cloud": {"type": "affine_point", "matrix": [[1.0], [-0.7]], "offset": [0.1, 1.0]}},
            {"cloud": {"points": [[3.0, 0.0], [0.0, 3.0], [1.2, 1.2]]}}]}}),
    "piecewise_2d": (_SKEW, [[0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]], {
        "kind": "piecewise", "parameters": {"regions": [
            {"where": {"type": "eq", "point": [1.0, 1.0]}, "cloud": {"points": [[2.0, 2.0]]}},
            {"cloud": _AFFINE_2D}]}}),
    # off its eq point, the interval region is reached with 2D points
    "piecewise_2d_interval": (_SKEW, [[1.0, 1.0]], [[1.0, 1.0]], {
        "kind": "piecewise", "parameters": {"regions": [
            {"where": {"type": "eq", "point": [1.0, 1.0]}, "cloud": {"points": [[2.0, 2.0]]}},
            {"where": {"type": "interval", "hi": 0.0}, "cloud": {"points": [[0.0, 0.0]]}}]}}),
}
_OFFSETS = np.array([0.0, 0.5, 1.0, 1.5, 2.0, -0.5, -1.0, -1.5, -2.0]) * REGION_TOL


def _one_at_a_time(f, X):
    """f of each row of X up to the first error, and that error's message (None if none)."""
    out = []
    for x in X:
        try:
            out.append(f(x))
        except SetOptError as exc:
            return out, str(exc)
    return out, None


def _batch(rng, special, size=40):
    """Rows on the special points and within a few REGION_TOL of them, random rows,
    and repeats of both, shuffled."""
    special = np.asarray(special, dtype=float)
    near = special[rng.integers(len(special), size=size // 2)]
    near = near + rng.choice(_OFFSETS, near.shape)
    X = np.concatenate([near, rng.uniform(-4.0, 4.0, (size // 4, special.shape[1]))])
    X = np.concatenate([X, X[rng.integers(len(X), size=size // 4)]])
    return X[rng.permutation(len(X))]


def _batches(f, rng, special):
    """A random batch, which may fail mid-batch, and its rows on which f succeeds alone."""
    X = _batch(rng, special)
    ok = np.array([_one_at_a_time(f, [x])[1] is None for x in X])
    return X, X[ok]


@pytest.mark.parametrize("name", sorted(_BATCH_MAPS))
@pytest.mark.parametrize("seed", range(6))
def test_each_batch_row_is_the_cloud_of_that_point_alone(name, seed):
    model = build_problem({"schema_version": "1", "cone": _BATCH_MAPS[name][0],
                           "domain": {"points": _BATCH_MAPS[name][1]},
                           "map": _BATCH_MAPS[name][3]}).map_model
    for X in _batches(model.cloud_at, np.random.default_rng(seed), _BATCH_MAPS[name][2]):
        clouds, error = _one_at_a_time(model.cloud_at, X)
        if error is not None:
            with pytest.raises(SetOptError) as raised:
                first_failure(model.clouds_at, X)
            assert str(raised.value) == error
            continue
        points, starts = first_failure(model.clouds_at, X)
        ends = np.append(starts[1:], len(points))
        assert len(clouds) == len(starts)
        for cloud, start, end in zip(clouds, starts, ends):
            assert points[start:end].shape == cloud.points.shape
            assert points[start:end].tobytes() == cloud.points.tobytes()


def test_affine_rows_are_unfused_fixed_order_sums():
    # each row's image is the same whatever the batch, and whatever the BLAS
    model = MapModel(kind="piecewise", params={"regions": [{"cloud": _AFFINE_2D}]})
    X = np.random.default_rng(5).normal(size=(50, 2)) * 10.0 ** np.arange(-3, 2).repeat(10)[:, None]
    matrix, offset = _AFFINE_2D["matrix"], _AFFINE_2D["offset"]
    expected = [[s + o for s, o in zip(row, offset)]
                for row in unfused_forms(X, matrix).tolist()]
    points, _ = model.clouds_at(X)
    assert points.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("name", sorted(_BATCH_MAPS))
@pytest.mark.parametrize("seed", range(6))
def test_scalar_values_at_matches_one_point_at_a_time(name, seed):
    cone, grid, special, map_doc = _BATCH_MAPS[name]
    doc = {"schema_version": "1", "cone": cone, "domain": {"points": grid}, "map": map_doc}
    model = build_problem(doc).map_model
    cone_spec = build_problem(doc).cone

    def value(x):  # the one-point scalarization, as evaluated point by point
        return float(np.min(gerstewitz_many(cone_spec, model.cloud_at(x).points)))

    for X in _batches(value, np.random.default_rng(seed), special):
        expected, error = _one_at_a_time(value, X)
        if error is not None:
            with pytest.raises(SetOptError) as raised:
                scalar_values_at(build_problem(doc), X)
            assert str(raised.value) == error
            continue
        assert scalar_values_at(build_problem(doc), X).tobytes() == np.array(expected).tobytes()
        one_point = build_problem(doc)
        assert [scalar_value_at(one_point, x) for x in X] == expected


def test_off_grid_memo_keeps_rows_that_differ_only_in_signed_zeros():
    # a key is the row's bytes without their trailing NULs: the all-zero row
    # is the empty key, and each -0.0 sets a sign byte, so none of these meet
    prob = constant_problem([[1.0, -2.0]], box=[[-1.0, 1.0], [-1.0, 1.0]], resolution=[3, 3])
    X = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [5e-324, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(scalar_values_at(prob, X), np.full(6, -2.0))
    assert len(prob._cache["off_grid_values"]) == 5
    np.testing.assert_array_equal(scalar_values_at(prob, X[::-1]), np.full(6, -2.0))  # all hits
    assert len(prob._cache["off_grid_values"]) == 5


def test_off_grid_batches_near_the_float_maximum_take_the_exact_gate(monkeypatch):
    # |p| = 5e307 is above a quarter of the float maximum, so the whole-batch
    # bound cannot pass the batch; every exact gate value, 5e307 under the
    # orthant, is within half of it, so the exact gate runs and passes
    calls = []
    real = problem_module._magnitudes
    monkeypatch.setattr(problem_module, "_magnitudes",
                        lambda *args: calls.append(args) or real(*args))
    small, large = constant_problem([[1.0, -2.0]]), constant_problem([[5e307, -5e307]])
    calls.clear()  # the builds' gates
    np.testing.assert_array_equal(scalar_values_at(small, [[0.3], [0.7]]), [-2.0, -2.0])
    assert calls == []  # decided by the bound
    np.testing.assert_array_equal(scalar_values_at(large, [[0.3], [0.7]]), [-5e307, -5e307])
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(20))
def test_table_lookup_matches_an_argmin_scan(seed, monkeypatch):
    monkeypatch.setattr(problem_module, "_LOOKUP_BLOCK", 5)  # several blocks per batch
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 2
    base = rng.choice([-1.0, 0.0, 0.5, 2.0], (12, dim))  # shared first coordinates
    # points closer together than REGION_TOL, and exact repeats (ties)
    pts = np.concatenate([base, base[:6] + rng.choice([0.3, 0.9, 1.5, -0.6], (6, dim)) * REGION_TOL,
                          base[:3]])
    model = MapModel(kind="table", params={"points": pts.tolist(),
                                           "clouds": [[[float(k)]] for k in range(len(pts))]})
    X = _batch(rng, pts, size=80)

    def argmin_scan(x):  # the first nearest entry within REGION_TOL, else none
        dists = np.max(np.abs(pts - x), axis=1)
        return int(np.argmin(dists)) if dists.min() <= REGION_TOL else -1

    expected = np.array([argmin_scan(x) for x in X])
    found = expected >= 0
    assert found.any() and not found.all()
    np.testing.assert_array_equal(model.clouds_at(X[found])[0][:, 0], expected[found])
    _, error = _one_at_a_time(model.cloud_at, X)
    assert error.startswith("table map has no entry")
    with pytest.raises(ProblemValidationError) as raised:
        first_failure(model.clouds_at, X)
    assert str(raised.value) == error


def test_table_clouds_are_read_in_one_pass_or_named_one_by_one(monkeypatch):
    read_one = []
    real_cloud = problem_module._cloud
    monkeypatch.setattr(problem_module, "_cloud",
                        lambda *args: read_one.append(args[1]) or real_cloud(*args))
    pts = [[0.0], [1.0], [2.0], [3.0]]
    clouds = [[[0.5, 1]], [[2.0, -1.0], [3, 4.5]], [[0.0, 0.0]], [[-7.25, 1e300]]]
    model = MapModel(kind="table", params={"points": pts, "clouds": clouds})
    points, starts = model.clouds_at(np.array(pts))
    assert read_one == []
    assert points.tobytes() == np.concatenate([np.asarray(c, dtype=float) for c in clouds]).tobytes()
    np.testing.assert_array_equal(starts, [0, 1, 3, 4])

    for bad in (True, [[1.0, False]], [["1.0", 2.0]], [[1.0, float("nan")]], [], [[]],
                [[[1.0, 2.0]]], [[1.0], [1.0, 2.0]], [[10**400, 0.0]], {"points": []}):
        path = "map.parameters.clouds[2]"
        with pytest.raises(ProblemValidationError) as alone:
            real_cloud(bad, path)
        with pytest.raises(ProblemValidationError) as in_table:
            MapModel(kind="table", params={"points": pts, "clouds": clouds[:2] + [bad] + clouds[3:]})
        assert str(in_table.value) == str(alone.value) and path in str(alone.value)
    monkeypatch.setattr(problem_module, "MAX_CLOUD_POINTS", 1)
    with pytest.raises(ProblemValidationError, match=r"clouds\[1\] holds more than 1 points"):
        MapModel(kind="table", params={"points": pts, "clouds": clouds})
    monkeypatch.undo()
    # entries of two widths are read one by one; the first of another width is named
    with pytest.raises(ProblemValidationError, match=r"clouds\[3\] has points of dimension 1, "
                                                     r"but map.parameters.clouds\[0\] has 2"):
        MapModel(kind="table", params={"points": pts, "clouds": clouds[:3] + [[[1.0]]]})


def _shared_arrays(prob) -> dict:
    """Every array a problem hands out and keeps: its store and its derived artifacts."""
    strict, weak = efficient_sets(prob)
    return {
        "cloud_points": prob.cloud_points,
        "cloud_starts": prob.cloud_starts,
        "cloud_scores": prob.cloud_scores,
        "cloud_magnitudes": prob.cloud_magnitudes,
        "cloud_psi_bounds": prob.cloud_psi_bounds,
        "cloud(i)": prob.cloud(3),
        "evaluate(...).points": evaluate(prob, prob.grid.points[3]).points,
        "scalar_field(...).values": scalar_field(prob).values,
        "domination_matrix": domination_matrix(prob),
        "strict set": strict,
        "weak set": weak,
        "gap report trace": asymptotics.check_asymptotic_gap(prob).estimates[0].liminf_trace,
        "rgi evidence": diagnostics.check_regular_global_inf(prob).evidence["refinement_radii"],
        "coercivity evidence": diagnostics.check_coercivity(prob).evidence["colevel_points"],
    }


@pytest.mark.parametrize("name", ["tradeoff_segment", "ramp_gap"])
def test_every_array_a_problem_shares_is_read_only(name):
    prob = fixture_catalog.build(name)
    for label, array in _shared_arrays(prob).items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array
        assert not array.flags.writeable, label


def test_an_edit_to_the_scalar_field_cannot_change_a_later_solve():
    prob = fixture_catalog.build("ramp_gap")
    first = solve(prob).to_dict(prob)
    values = scalar_field(prob).values
    with pytest.raises(ValueError, match="read-only"):
        values -= values
    assert solve(prob).to_dict(prob) == first


def test_an_edit_to_an_evaluated_cloud_cannot_reach_the_store():
    # the cloud is a view of the store, whose points covers reads and whose
    # scores the row test reads; the two must not drift apart
    prob = fixture_catalog.build("tradeoff_segment")
    points = prob.cloud_points.copy()
    cloud = evaluate(prob, [0.5]).points
    with pytest.raises(ValueError, match="read-only"):
        cloud += 100.0
    np.testing.assert_array_equal(prob.cloud_points, points)


def test_the_memo_is_not_a_constructor_argument(tradeoff):
    assert "_cache" not in inspect.signature(SetValuedProblem).parameters
    with pytest.raises(TypeError):
        SetValuedProblem(grid=tradeoff.grid, map_model=tradeoff.map_model, cone=tradeoff.cone,
                         _cache={})

