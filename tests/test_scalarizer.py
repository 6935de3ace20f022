import numpy as np
import pytest

from setopt import (ConeSpec, PointCloudSet, SetValuedProblem, colevel, colevel_at_set, colevel_points, contains,
                    evaluate, global_inf, scalar_field, scalar_value, strictly_lower_less)
from setopt import fixtures as fixture_catalog
from setopt.cone import gerstewitz_many
from setopt.sampling import random_problem

from conftest import constant_problem, coords_1d


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


def test_route_agreement_on_random_problems():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        prob = random_problem(rng)
        m = global_inf(prob)
        for lam in (m - 0.5, m + 0.1, m + 2.0):
            colevel(prob, lam)  # raises on route disagreement


def test_scalar_field_cached(tradeoff):
    assert scalar_field(tradeoff) is scalar_field(tradeoff)
