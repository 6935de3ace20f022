import numpy as np
import pytest

from setopt import (ConeSpec, DomainGrid, InternalConsistencyError, MapModel, PointCloudSet,
                    ProblemValidationError, SetValuedProblem, colevel, colevel_points, contains,
                    evaluate, global_inf, scalar_field, scalar_value, strictly_lower_less)
from setopt import fixtures as fixture_catalog
from setopt import scalarizer
from setopt.scalarizer import ScalarField, colevel_masks
from setopt.cone import gerstewitz_many
from setopt.sampling import random_problem

from conftest import colevel_at_set, constant_problem, coords_1d


def _per_cloud_minima(prob):
    return np.array([gerstewitz_many(prob.cone, prob.cloud(i)).min()
                     for i in range(len(prob.grid))])


@pytest.mark.parametrize("name", sorted(fixture_catalog.FIXTURES))
def test_scalar_field_has_the_bits_of_each_clouds_gerstewitz_minimum(name):
    prob = fixture_catalog.build(name)
    assert scalar_field(prob).values.tobytes() == _per_cloud_minima(prob).tobytes()


def test_scalar_field_of_random_problems_has_the_bits_of_each_clouds_minimum():
    for seed in range(50):
        prob = random_problem(np.random.default_rng(seed))
        assert scalar_field(prob).values.tobytes() == _per_cloud_minima(prob).tobytes(), seed


def test_scalar_values_tradeoff(tradeoff):
    assert scalar_value(tradeoff, [0.25]) == pytest.approx(0.5, abs=1e-12)
    assert scalar_value(tradeoff, [2.0]) == pytest.approx(6.0, abs=1e-12)


def test_scalar_value_wedge(wedge):
    assert scalar_value(wedge, [0.0]) == pytest.approx(-2.0, abs=1e-12)
    assert scalar_value(wedge, [1.0]) == pytest.approx(1.0, abs=1e-12)


def test_global_inf_examples(shifted72, decay):
    assert global_inf(shifted72) == -4.0
    assert global_inf(decay) == pytest.approx(-1.0, abs=1e-12)
    # constant map with cloud {alpha * q}: translation invariance
    prob = constant_problem([[1.5, 1.5]])
    assert global_inf(prob) == pytest.approx(1.5, abs=1e-12)


def test_colevel_examples(shifted72, kinked):
    np.testing.assert_allclose(colevel_points(shifted72, -3.0), [[1.0, 0.0]])
    # below the infimum the colevel set is empty
    assert len(colevel(shifted72, global_inf(shifted72) - 1.0)) == 0
    got = coords_1d(kinked, colevel(kinked, 1.5))
    expected = sorted(float(x) for x in kinked.grid.points[:, 0] if x < 1.0 - 1e-9)
    assert got == expected


def test_interval_kind_matches_lower_bound_threshold(kinked):
    # with image dimension 1 and unit order direction, the colevel set at
    # height r is exactly the lower-bound sublevel set
    xs = kinked.grid.points[:, 0]
    field = scalar_field(kinked)
    for r in (-0.5, 0.3, 1.2, 2.4):
        got = set(colevel(kinked, r).tolist())
        expected = set(np.flatnonzero(field.values <= r + 1e-9).tolist())
        assert got == expected
    lower = np.where(xs < -1e-9, -xs, np.where(xs < 1.0 - 1e-9, xs, 2 * xs))
    np.testing.assert_allclose(field.values, lower, atol=1e-12)


def test_colevel_routes_may_differ_within_a_wide_cone_tol():
    # psi = 0.3 lies above lam = 0 but within cone_tol = 0.5 of it, so the
    # relation keeps every point while the threshold keeps none; the
    # thresholded field is returned and no route check fires
    prob = constant_problem([[0.3]])
    prob = SetValuedProblem(grid=prob.grid, map_model=prob.map_model,
                            cone=ConeSpec.orthant(1, cone_tol=0.5))
    assert len(colevel(prob, 0.0)) == 0
    assert len(colevel(prob, 0.3)) == len(prob.grid.points)


def test_colevel_monotone(ramp):
    prev = set()
    for lam in (0.05, 0.3, 0.6, 1.0, 2.0):
        cur = set(colevel(ramp, lam).tolist())
        assert prev <= cur
        prev = cur


def test_colevel_nonempty_above_inf(tradeoff, wedge, ramp):
    for prob in (tradeoff, wedge, ramp):
        m = global_inf(prob)
        for gap in (1e-6, 0.1, 1.0):
            assert len(colevel(prob, m + gap)) > 0


def test_upper_level_identity(ramp):
    # {value >= lam} as a containment statement about whole clouds
    field = scalar_field(ramp)
    for lam in (-0.5, 0.25, 0.9):
        for i, x in enumerate(ramp.grid.points):
            cloud = evaluate(ramp, x)
            shifted = cloud.points - lam * ramp.cone.order_unit
            all_inside = all(contains(ramp.cone, row) for row in shifted)
            assert all_inside == (field.values[i] >= lam - 1e-9)


def test_colevel_at_set_contains_base_point(tradeoff, wedge):
    for prob, x0 in ((tradeoff, [0.3]), (wedge, [0.5])):
        idx = prob.grid.locate(x0)
        members = colevel_at_set(prob, evaluate(prob, x0))
        assert idx in set(members.tolist())


def test_colevel_at_set_disc_is_whole_grid(shifted72):
    members = colevel_at_set(shifted72, evaluate(shifted72, [1.0, 0.0]))
    assert len(members) == len(shifted72.grid)


def test_colevel_at_set_tradeoff_square(tradeoff):
    # brute force oracle: directly test the strict relation point by point
    probe = PointCloudSet(np.array([[3.0, 3.0]]))
    members = set(colevel_at_set(tradeoff, probe).tolist())
    expected = {
        i for i, x in enumerate(tradeoff.grid.points)
        if not strictly_lower_less(probe, evaluate(tradeoff, x), tradeoff.cone)
    }
    assert members == expected
    assert members == set(range(len(tradeoff.grid)))


def test_colevel_relation_route_takes_an_overflowing_probe():
    # lam * <w, q> overflows for the second generator: the relation compares
    # the infinite probe as it is, with no overflow warning
    prob = constant_problem([[0.5, 0.5]], q=[1.0, 1e308])
    np.testing.assert_array_equal(colevel(prob, -2.0), [])
    np.testing.assert_array_equal(colevel(prob, 2.0), np.arange(len(prob.grid)))


def test_colevel_rejects_a_non_finite_lambda(tradeoff):
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(ProblemValidationError, match="lambda must be finite"):
            colevel(tradeoff, lam)


def test_route_agreement_on_random_problems():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        prob = random_problem(rng)
        m = global_inf(prob)
        for lam in (m - 0.5, m + 0.1, m + 2.0):
            colevel(prob, lam)  # raises on route disagreement


def test_scalar_field_cached(tradeoff):
    assert scalar_field(tradeoff) is scalar_field(tradeoff)


def _height_by_height(problem, values, lams):
    """Route two's set at each height until the routes first disagree outside the band, and
    the message of that disagreement (None if there is none): `colevel` one height at a
    time, its relation route taken over the whole store for every height."""
    cone, tie = problem.cone, problem.tolerances.tie_tol
    sets = []
    for lam in lams:
        by_field = values <= lam + tie
        with np.errstate(over="ignore"):
            probe = lam * cone._unit_scores
        above = np.all(problem.cloud_scores - probe > cone.cone_tol, axis=1)
        by_relation = ~np.logical_and.reduceat(above, problem.cloud_starts)
        for i in np.flatnonzero(by_field != by_relation):
            if abs(values[i] - lam) > 2.0 * tie + cone._tau:
                return sets, (f"colevel routes disagree at grid index {i}: "
                              f"value {values[i]} vs threshold {float(lam)}")
        sets.append(np.flatnonzero(by_field))
    return sets, None


def _drawn(problem, lams):
    """The sets colevel_masks yields, and the message it raises (None if it does not)."""
    sets = []
    try:
        for mask in colevel_masks(problem, lams):
            sets.append(np.flatnonzero(mask))
    except InternalConsistencyError as error:
        return sets, str(error)
    return sets, None


def _assert_same(got, expected):
    assert got[1] == expected[1]
    assert [a.tolist() for a in got[0]] == [b.tolist() for b in expected[0]]


def _ladders(problem, rng):
    """Heights around the field, shuffled, with repeats, one below the infimum, one above
    the maximum and some on grid values, where a route may sit on its threshold."""
    values = scalar_field(problem).values
    m, top = float(values.min()), float(values.max())
    ladder = m + (top - m + 1.0) * np.power(0.5, np.arange(20))
    on_grid = rng.choice(values, 5)
    return [ladder, rng.permutation(np.concatenate([ladder, ladder[:4], on_grid,
                                                    [m - 1.0, top + 1.0]])), on_grid[:1]]


@pytest.mark.parametrize("name", sorted(fixture_catalog.FIXTURES))
def test_each_colevel_mask_is_the_colevel_set_at_its_height(name):
    prob = fixture_catalog.build(name, **({"sample_size": 100} if name == "hyperbola_escape"
                                         else {}))
    values = scalar_field(prob).values
    for lams in _ladders(prob, np.random.default_rng(len(name))):
        got = _drawn(prob, lams)
        _assert_same(got, _height_by_height(prob, values, lams))
        assert got[1] is None and len(got[0]) == len(lams)
        for lam, members in zip(lams, got[0]):
            np.testing.assert_array_equal(members, colevel(prob, lam))


def test_colevel_masks_of_random_problems_match_the_height_by_height_loop():
    rng = np.random.default_rng(11)
    for _ in range(100):
        prob = random_problem(rng)
        for lams in _ladders(prob, rng):
            _assert_same(_drawn(prob, lams),
                         _height_by_height(prob, scalar_field(prob).values, lams))


@pytest.mark.parametrize("name", ["decay_tail", "kinked_interval", "shifted_disc", "wedge_strip"])
def test_a_route_disagreement_raises_at_the_height_a_loop_meets_it(name, monkeypatch):
    # route two reads a field moved up at some points and down at others, far
    # outside the band, while route one reads the clouds: the first height in
    # the given order whose sets then differ raises, at its least grid index
    prob = fixture_catalog.build(name, **({"samples": 36} if name == "shifted_disc" else {}))
    field = scalar_field(prob)
    rng = np.random.default_rng(len(name))
    raised = 0
    for trial in range(12):
        values = field.values.copy()
        moved = rng.choice(len(values), 1 + trial % 3, replace=False)
        values[moved] += rng.choice([-3.0, 3.0], len(moved)) * (trial % 4 != 3)
        monkeypatch.setattr(scalarizer, "scalar_field",
                            lambda problem, f=ScalarField(values, float(values.min())): f)
        for lams in _ladders(prob, rng):
            expected = _height_by_height(prob, values, lams)
            _assert_same(_drawn(prob, lams), expected)
            raised += expected[1] is not None
    assert raised > 0


def test_route_one_decides_each_height_by_the_relation_itself(monkeypatch):
    # with a cone_tol near the scores' size, <w, b> - cone_tol rounds, so a
    # rank read off it alone is a few probes off when the heights crowd
    # around it.  Route two is made to keep the one grid point at every
    # height, so route one raises at the first height that drops it: with
    # the heights in decreasing order, the height just below the one where
    # the relation itself first keeps it
    rng = np.random.default_rng(4)
    keep_all = ScalarField(np.full(1, -1e300), -1e300)
    monkeypatch.setattr(scalarizer, "scalar_field", lambda problem: keep_all)
    raised = 0
    for _ in range(60):
        tol = float(rng.choice([0.19, 0.53, 1.14, 1.46])) * (1.0 + rng.random())
        m = int(rng.integers(1, 3))
        cloud = rng.choice([0.7, 1.0, 3.0], (int(rng.integers(1, 4)), m))
        prob = SetValuedProblem(
            grid=DomainGrid(np.zeros((1, 1))),
            map_model=MapModel(kind="table", params={"points": [[0.0]],
                                                     "clouds": [cloud.tolist()]}),
            cone=ConeSpec.orthant(m, [4.0] * m, cone_tol=tol))
        edge = (float(cloud.min()) - tol) / 4.0
        heights = edge + np.arange(6, -7, -1) * np.spacing(edge)
        for lams in (heights, rng.permutation(heights)):
            expected = _height_by_height(prob, keep_all.values, lams)
            _assert_same(_drawn(prob, lams), expected)
            raised += expected[1] is not None
    assert raised > 0


def test_colevel_masks_raise_at_a_non_finite_height_once_reached(tradeoff):
    sets = []
    with pytest.raises(ProblemValidationError, match="lambda must be finite, got nan"):
        for mask in colevel_masks(tradeoff, [2.5, 3.0, np.nan, 1.0]):
            sets.append(np.flatnonzero(mask))
    assert len(sets) == 2
    np.testing.assert_array_equal(sets[1], colevel(tradeoff, 3.0))
    assert list(colevel_masks(tradeoff, [])) == []
