import numpy as np
import pytest

from setopt import (ConeSpec, DomainGrid, MapModel, ProblemValidationError, RaySchedule,
                    SetValuedProblem, asymptotic_cone_estimate, asymptotic_value,
                    check_asymptotic_gap, compass_directions, default_lambda_schedule,
                    existence_report, far_colevel_sample, fixtures, horizon_outer_limit,
                    lower_less, evaluate, scalar_field, scalar_value_at)
from setopt import asymptotics



def test_schedule_validation():
    with pytest.raises(ProblemValidationError, match="nonzero"):
        RaySchedule(np.array([0.0]))
    with pytest.raises(ProblemValidationError, match="increasing"):
        RaySchedule(np.array([1.0]), np.array([1.0, 3.0, 2.0, 1e5]))
    with pytest.raises(ProblemValidationError, match="1e4"):
        RaySchedule(np.array([1.0]), np.array([1.0, 10.0, 100.0, 1000.0]))
    for ts in ([1.0, 10.0, 1e3, np.inf], [1.0, 10.0, np.nan, 1e5], [np.nan] * 4):
        with pytest.raises(ProblemValidationError, match="finite"):
            RaySchedule(np.array([1.0]), np.array(ts))


def test_unit_direction_is_exact_at_any_finite_size():
    # scaling by a power of two changes no bit where the plain quotient
    # u / |u| neither overflows nor underflows, and rescues it where it does
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        for u in rng.normal(size=(200, d)) * 10.0 ** rng.uniform(-100, 100, (200, 1)):
            assert RaySchedule(u).unit_direction.tobytes() == (u / np.linalg.norm(u)).tobytes()
    for u, unit in [([1e308, -1e308], np.array([1.0, -1.0]) / np.sqrt(2.0)), ([5e-324], [1.0]),
                    ([0.0, -1e-320, 0.0], [0.0, -1.0, 0.0])]:
        np.testing.assert_array_equal(RaySchedule(np.array(u)).unit_direction, unit)
    for u in ([np.nan], [1.0, np.inf]):
        with pytest.raises(ProblemValidationError, match="ray direction must be finite"):
            RaySchedule(np.array(u))


def test_cone_estimate_bounded_set_is_trivial():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, (50, 2))
    assert len(asymptotic_cone_estimate(pts, radius_threshold=10.0)) == 0
    assert len(asymptotic_cone_estimate(np.empty((0, 2)), radius_threshold=10.0)) == 0


def test_cone_estimate_decay_colevels(decay):
    # colevel at -0.5 only extends along the negative axis
    sample = far_colevel_sample(decay, -0.5, radius_threshold=100.0)
    dirs = asymptotic_cone_estimate(sample, radius_threshold=100.0)
    np.testing.assert_allclose(dirs, [[-1.0]])
    # at 0.5 both tails are present
    sample = far_colevel_sample(decay, 0.5, radius_threshold=100.0)
    dirs = asymptotic_cone_estimate(sample, radius_threshold=100.0)
    np.testing.assert_allclose(dirs, [[-1.0], [1.0]])


def test_asymptotic_values_decay(decay):
    plus = asymptotic_value(decay, RaySchedule(np.array([1.0])))
    minus = asymptotic_value(decay, RaySchedule(np.array([-1.0])))
    assert abs(plus.value - 0.0) <= 1e-6
    assert minus.value == pytest.approx(-1.0, abs=1e-12)
    assert plus.constant_direction_surrogate and minus.constant_direction_surrogate


def test_degree_zero_homogeneity(decay, ramp):
    for prob in (decay, ramp):
        for u in ([1.0], [-1.0]):
            base = asymptotic_value(prob, RaySchedule(np.array(u)))
            scaled = asymptotic_value(prob, RaySchedule(2.0 * np.array(u)))
            assert abs(base.value - scaled.value) <= prob.tolerances.tie_tol


def test_gap_verdicts(decay, ramp, wedge):
    gap = check_asymptotic_gap(decay)
    assert not gap.holds
    np.testing.assert_allclose(gap.witnesses, [[-1.0]])
    assert check_asymptotic_gap(ramp).holds
    assert check_asymptotic_gap(wedge).holds


def test_gap_report_is_computed_once_per_problem(monkeypatch):
    rays = []
    real = asymptotics._ray_traces
    monkeypatch.setattr(asymptotics, "_ray_traces",
                        lambda problem, schedules: rays.extend(schedules)
                        or real(problem, schedules))
    decay = fixtures.build("decay_tail")
    report = existence_report(decay)
    horizon = horizon_outer_limit(decay, default_lambda_schedule(decay))
    assert check_asymptotic_gap(decay) is report.asymptotic_gap
    assert horizon.gap_holds is report.asymptotic_gap.holds is False
    assert len(rays) == 2  # the two compass directions of a 1-D domain, once
    # explicit directions are computed afresh
    check_asymptotic_gap(decay, directions=[[1.0]])
    assert len(rays) == 3


def test_gap_requires_directions(decay):
    with pytest.raises(ProblemValidationError, match="nonempty"):
        check_asymptotic_gap(decay, directions=np.empty((0, 1)))


def test_horizon_decay(decay):
    lams = -1.0 + 1.0 / np.arange(1.0, 13.0)
    report = horizon_outer_limit(decay, lams)
    np.testing.assert_allclose(report.directions, [[-1.0]])
    assert not report.gap_holds
    assert report.consistent_with_gap


def test_horizon_trivial_for_coercive(ramp, parabola):
    lams = 1.0 / np.arange(1.0, 13.0)
    report = horizon_outer_limit(ramp, lams)
    assert len(report.directions) == 0
    assert report.gap_holds and report.consistent_with_gap
    report = horizon_outer_limit(parabola, default_lambda_schedule(parabola))
    assert len(report.directions) == 0 and report.consistent_with_gap


def test_horizon_schedule_validation(decay):
    with pytest.raises(ProblemValidationError, match="decreasing"):
        horizon_outer_limit(decay, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ProblemValidationError, match="above"):
        horizon_outer_limit(decay, np.array([0.5, -2.0]))


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
def test_radius_threshold_must_be_finite_and_positive(decay, threshold):
    with pytest.raises(ProblemValidationError, match="radius_threshold"):
        far_colevel_sample(decay, 0.5, threshold)
    with pytest.raises(ProblemValidationError, match="radius_threshold"):
        horizon_outer_limit(decay, default_lambda_schedule(decay), radius_threshold=threshold)


def _table_pair():
    # F2 shifts every cloud of F1 one order unit up, so F1 <=l F2 pointwise
    rng = np.random.default_rng(77)
    pts = np.linspace(-20.0, 20.0, 41)[:, None]
    clouds1 = [rng.uniform(-3.0, 3.0, (3, 2)).tolist() for _ in range(len(pts))]
    cone = ConeSpec.orthant(2, [1.0, 1.0])
    clouds2 = [(np.asarray(c) + cone.order_unit).tolist() for c in clouds1]
    grid = DomainGrid(pts)
    make = lambda clouds: SetValuedProblem(
        grid=grid,
        map_model=MapModel(kind="table", params={"points": pts.tolist(), "clouds": clouds}),
        cone=cone,
    )
    return make(clouds1), make(clouds2)


def test_monotone_in_the_map():
    p1, p2 = _table_pair()
    for x in p1.grid.points[::8]:
        assert lower_less(evaluate(p1, x), evaluate(p2, x), p1.cone)
    for u in ([1.0], [-1.0]):
        e1 = asymptotic_value(p1, RaySchedule(np.array(u)))
        e2 = asymptotic_value(p2, RaySchedule(np.array(u)))
        assert e1.value <= e2.value + 1e-9
        assert e1.snapped_to_grid and e2.snapped_to_grid


def test_estimates_respect_inf_bound(decay, ramp, wedge, kinked):
    for prob in (decay, ramp, wedge, kinked):
        gap = check_asymptotic_gap(prob)
        for est in gap.estimates:
            assert est.value >= gap.inf_value - prob.tolerances.tie_tol


def test_horizon_agrees_with_gap_on_all_fixtures():
    from setopt import fixtures as fixture_catalog

    for name in sorted(fixture_catalog.FIXTURES):
        kwargs = {"sample_size": 100} if name == "hyperbola_escape" else {}
        prob = fixture_catalog.build(name, **kwargs)
        report = horizon_outer_limit(prob, default_lambda_schedule(prob))
        assert report.consistent_with_gap, name


def test_gap_report_reads_every_ray_in_one_call(monkeypatch):
    reads = []
    real = asymptotics.scalar_values_at
    monkeypatch.setattr(asymptotics, "scalar_values_at",
                        lambda problem, X: reads.append(len(X)) or real(problem, X))
    disc = fixtures.build("shifted_disc", samples=8)
    assert len(check_asymptotic_gap(disc).estimates) == 16
    assert reads == [16 * asymptotics.DEFAULT_T_COUNT]


def test_gap_report_raises_the_error_of_the_first_failing_ray():
    # psi is defined up to x = 100 only, so the rays along +1 fail past it;
    # an invalid direction after that ray is not reached, one before it is
    prob = SetValuedProblem(
        grid=DomainGrid.from_box([[-3.0, 3.0]], [7]),
        map_model=MapModel(kind="piecewise", params={"regions": [
            {"where": {"type": "interval", "hi": 100.0}, "cloud": {"points": [[0.0]]}}]}),
        cone=ConeSpec.orthant(1, [1.0]),
    )
    for directions, error in [([[-1.0], [1.0], [0.0]], "no region covers x=\\[142.51"),
                              ([[-1.0], [0.0], [1.0]], "nonzero"),
                              ([[1.0, 0.0], [1.0, 1.0]], "direction dimension")]:
        with pytest.raises(ProblemValidationError, match=error):
            check_asymptotic_gap(prob, directions=directions)


def _far_sample(problem, lam, threshold):
    """far_colevel_sample as one height's scan: the low grid points that lie far out, then
    the compass rays' points at or below the height."""
    tie = problem.tolerances.tie_tol
    low = problem.grid.points[scalar_field(problem).values <= lam + tie]
    pts = list(low[np.linalg.norm(low, axis=1) >= threshold])
    if problem.map_model.is_analytic:
        ts = np.geomspace(threshold, max(asymptotics.DEFAULT_T_MAX, threshold * 10.0),
                          asymptotics.FAR_T_COUNT)
        rays = np.concatenate([ts[:, None] * (u / np.linalg.norm(u))
                               for u in compass_directions(problem.grid.dim_domain)])
        pts.extend(rays[[scalar_value_at(problem, ray) <= lam + tie for ray in rays]])
    return np.asarray(pts).reshape(-1, problem.grid.dim_domain)


def _greedy_cone_estimate(points, threshold):
    """asymptotic_cone_estimate as the plain greedy scan over every far direction."""
    far = points[np.linalg.norm(points, axis=1) >= threshold]
    dirs = far / np.linalg.norm(far, axis=1)[:, None]
    reps = []
    for d in dirs[np.lexsort(dirs.T[::-1])]:
        if all(np.arccos(np.clip(d @ r, -1.0, 1.0)) > asymptotics.ANGULAR_CLUSTER_TOL
               for r in reps):
            reps.append(d)
    reps.sort(key=tuple)
    return np.asarray(reps).reshape(-1, points.shape[1])


def _table_far_out():
    # a 1-D table reaching radius 300 whose values fall toward +300, so the
    # low grid points lie far out
    pts = np.linspace(-300.0, 300.0, 61)[:, None]
    clouds = [[[-x / 100.0 if x >= 0.0 else 0.5]] for x in pts[:, 0]]
    return SetValuedProblem(
        grid=DomainGrid(pts),
        map_model=MapModel(kind="table", params={"points": pts.tolist(), "clouds": clouds}),
        cone=ConeSpec.orthant(1, [1.0]))


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES) + ["far_table"])
def test_horizon_samples_each_height_of_its_tail_as_its_own_scan(name):
    prob = _table_far_out() if name == "far_table" else fixtures.build(
        name, **({"sample_size": 100} if name == "hyperbola_escape" else {}))
    lams = default_lambda_schedule(prob, 16)
    tie = prob.tolerances.tie_tol
    for threshold in (3.0, 100.0):
        # the tail, and heights a half tie below the far values, which count as low
        far = asymptotics._far_samples(prob, [np.inf], threshold)[0]
        values = [scalar_value_at(prob, x) if prob.map_model.is_analytic else
                  scalar_field(prob).values[prob.grid.locate(x)] for x in far[::7]]
        heights = [*lams[8:].tolist(), *(v - 0.5 * tie for v in values)]
        samples = asymptotics._far_samples(prob, heights, threshold)
        collected = []
        for lam, sample in zip(heights, samples):
            expected = _far_sample(prob, float(lam), threshold)
            assert sample.tobytes() == expected.tobytes() and sample.shape == expected.shape
            np.testing.assert_array_equal(far_colevel_sample(prob, lam, threshold), sample)
            est = _greedy_cone_estimate(sample, threshold)
            np.testing.assert_array_equal(asymptotic_cone_estimate(sample, threshold), est)
            if len(est) and lam in lams:
                collected.append(est)
        report = horizon_outer_limit(prob, lams, radius_threshold=threshold)
        expected = (_greedy_cone_estimate(np.vstack(collected) * (2.0 * threshold), threshold)
                    if collected else np.empty((0, prob.grid.dim_domain)))
        assert report.directions.tobytes() == expected.tobytes()
    if name == "far_table":
        assert len(samples[-1]) > 0


def test_cone_estimate_keeps_what_the_greedy_scan_keeps():
    # repeated rows, scaled copies whose directions round alike or not, and
    # directions within and beyond the angular tolerance of each other
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        base = rng.normal(size=(6, d))
        near = base[:4] + [[1e-4], [1e-4], [5e-3], [5e-3]] * rng.normal(size=(4, d))
        pts = np.concatenate([base, base, near, 7.0 * base, 3.0 * near, base[::-1]]) * 200.0
        pts = pts[rng.permutation(len(pts))]
        got = asymptotic_cone_estimate(pts, 100.0)
        assert got.tobytes() == _greedy_cone_estimate(pts, 100.0).tobytes()
