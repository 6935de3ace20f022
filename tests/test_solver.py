import copy
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setopt import (ConeSpec, DomainGrid, MapModel, ProblemValidationError, SetValuedProblem,
                    argmin_scalarized, build_problem, fixtures, scalar_field, scalar_value_at,
                    setrel, solve, solver, strictly_lower_less, to_document)
from setopt import problem as problem_module
from setopt.cli import main
from setopt.sampling import random_cone, random_problem
from setopt.solver import domination_matrix, efficient_sets

from conftest import constant_problem, coords_1d


def test_argmin_examples(tradeoff, ramp):
    assert coords_1d(tradeoff, argmin_scalarized(tradeoff)) == [0.0, 1.0]
    assert coords_1d(ramp, argmin_scalarized(ramp)) == [1.5]
    prob = constant_problem([[2.0, 1.0]])
    assert len(argmin_scalarized(prob)) == len(prob.grid)


def test_strict_efficient_tradeoff(tradeoff):
    got = coords_1d(tradeoff, efficient_sets(tradeoff)[0])
    xs = tradeoff.grid.points[:, 0]
    expected = sorted(float(x) for x in xs if -1e-9 <= x <= 1.0 + 1e-9)
    assert got == expected


def test_strict_efficient_wedge(wedge):
    assert coords_1d(wedge, efficient_sets(wedge)[0]) == [0.0]


def test_single_point_grid():
    prob = constant_problem([[0.0, 0.0]], points=[[4.0]])
    assert coords_1d(prob, efficient_sets(prob)[0]) == [4.0]


def test_weak_superset_of_strict(tradeoff, wedge, ramp):
    for prob in (tradeoff, wedge, ramp):
        strict = set(efficient_sets(prob)[0].tolist())
        weak = set(efficient_sets(prob)[1].tolist())
        assert strict <= weak


def test_weak_equals_strict_on_tradeoff(tradeoff):
    np.testing.assert_array_equal(efficient_sets(tradeoff)[1],
                                  efficient_sets(tradeoff)[0])


def test_constant_map_everything_efficient():
    prob = constant_problem([[1.0, 3.0]])
    n = len(prob.grid)
    assert len(efficient_sets(prob)[0]) == n
    assert len(efficient_sets(prob)[1]) == n
    assert len(argmin_scalarized(prob)) == n


def test_solve_report_tradeoff(tradeoff):
    report = solve(tradeoff)
    assert report.inclusion_argmin_in_strict
    assert report.inclusion_strict_in_weak
    assert report.argmin_strictly_smaller  # {0, 1} inside [0, 1]
    out = report.to_dict(tradeoff)
    assert out["argmin"] == [0.0, 1.0]


def test_solve_report_disc(shifted72):
    report = solve(shifted72)
    argmin_pts = shifted72.grid.points[report.argmin_indices]
    np.testing.assert_allclose(argmin_pts, [[1.0, 0.0]])
    assert set(report.argmin_indices.tolist()) <= set(report.strict_indices.tolist())


def test_scale_invariance_of_argmin(tradeoff):
    doc = copy.deepcopy(to_document(tradeoff))
    doc["cone"]["q"] = [1.5, 1.5]  # q scaled by 3
    scaled = build_problem(doc)
    np.testing.assert_array_equal(argmin_scalarized(scaled), argmin_scalarized(tradeoff))
    np.testing.assert_allclose(scalar_field(scaled).values,
                               scalar_field(tradeoff).values / 3.0, atol=1e-12)


def table_problem(clouds, cone):
    """A table problem on the grid 0, 1, ... with the given clouds."""
    pts = [[float(i)] for i in range(len(clouds))]
    clouds = [np.atleast_2d(np.asarray(c, dtype=float)).tolist() for c in clouds]
    map_model = MapModel(kind="table", params={"points": pts, "clouds": clouds})
    return SetValuedProblem(grid=DomainGrid(np.array(pts)), map_model=map_model, cone=cone)


def test_cone_tol_survives_the_round_trip():
    # under cone_tol = 0.3 neither cloud strictly dominates the other; under
    # the default 1e-12 the first one would
    prob = table_problem([[0.0, 0.0], [0.2, 0.2]], ConeSpec.orthant(2, cone_tol=0.3))
    doc = to_document(prob)
    assert doc["tolerances"]["cone_tol"] == 0.3
    rebuilt = build_problem(doc)
    assert rebuilt.cone.cone_tol == 0.3
    np.testing.assert_array_equal(efficient_sets(prob)[0], [0, 1])
    np.testing.assert_array_equal(efficient_sets(rebuilt)[0], [0, 1])


def interval_problem(rng, n=None):
    """1D interval images under a one-generator cone of either sign, n of them
    (by default 1 to 39)."""
    n = int(rng.integers(1, 40)) if n is None else n
    lo = np.round(rng.uniform(-5.0, 5.0, n), int(rng.integers(0, 4)))
    hi = lo + rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.7)
    w = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    cone = ConeSpec(np.array([[w]]), np.array([np.sign(w)]))
    return table_problem([[[a], [b]] for a, b in zip(lo, hi)], cone)


def near_copy_problem(rng):
    """Copies of one cloud at scale 1e3-1e5, each moved by about cone_tol.

    At this scale the rounding of psi exceeds cone_tol: a copy can strictly
    dominate another whose computed psi is no larger.
    """
    cone = random_cone(rng)
    base = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), cone.dim_image))
    base *= 10.0 ** rng.uniform(3.0, 5.0)
    clouds = []
    for _ in range(int(rng.integers(2, 12))):
        moved = base + rng.normal(0.0, rng.choice([1e-12, 1e-11]), base.shape)
        clouds.append(moved[rng.permutation(len(base))[:int(rng.integers(1, len(base) + 1))]])
    return table_problem(clouds, cone)


def pairwise_oracle(problem):
    clouds = [problem.map_model.cloud_at(x) for x in problem.grid.points]
    return np.array([[strictly_lower_less(a, b, problem.cone) for b in clouds] for a in clouds])


def sets_from_matrix(d):
    """The strict and the weak efficient set read off a domination matrix."""
    weak = np.flatnonzero(((~d) | d.T).all(axis=0))
    others = d.copy()
    np.fill_diagonal(others, False)
    return np.flatnonzero(~others.any(axis=0)), weak


def assert_sweep_matches_matrix(prob):
    strict, weak = efficient_sets(prob)
    want_strict, want_weak = sets_from_matrix(domination_matrix(prob))
    np.testing.assert_array_equal(strict, want_strict)
    np.testing.assert_array_equal(weak, want_weak)


def counted_covers(monkeypatch):
    """Replace setrel.covers with a wrapper; returns its list of calls."""
    calls = []
    real = setrel.covers

    def covers(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(setrel, "covers", covers)
    return calls


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([random_problem, interval_problem,
                                                   near_copy_problem]))
def test_domination_matrix_matches_pairwise_oracle(seed, make):
    # random_problem and near_copy_problem draw their cone from orthant2,
    # orthant3 and wedge
    prob = make(np.random.default_rng(seed))
    np.testing.assert_array_equal(domination_matrix(prob), pairwise_oracle(prob))
    assert_sweep_matches_matrix(prob)


def test_fallback_decides_pairs_within_ulps_of_cone_tol(monkeypatch):
    calls = counted_covers(monkeypatch)
    # the other coordinates of b - a keep the other generators' scores far
    # from cone_tol
    for cone, dy in ((ConeSpec.orthant(1), None), (ConeSpec.orthant(2), 1.0),
                     (ConeSpec(np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.0]), 0.0),
                     (ConeSpec.orthant(3), 1.0)):
        clouds = []
        for bx in (0.3, 1.0, 3.7, 12.5, 1234.5, -7.1):
            b = [bx] + [0.6] * (cone.dim_image - 1)
            clouds.append([b])
            # the x coordinate of b - a steps through cone_tol ulp by ulp of b
            for steps in range(-6, 7):
                a = [bx - cone.cone_tol + steps * np.spacing(bx)]
                a += [y - dy for y in b[1:]]
                clouds.append([a])
        prob = table_problem(clouds, cone)
        before = len(calls)
        d = domination_matrix(prob)
        assert len(calls) > before
        np.testing.assert_array_equal(d, pairwise_oracle(prob))
        assert_sweep_matches_matrix(prob)


def test_fallback_decides_identical_large_clouds(monkeypatch):
    calls = counted_covers(monkeypatch)
    rng = np.random.default_rng(11)
    cones = (ConeSpec.orthant(1), ConeSpec.orthant(2),
             ConeSpec(np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.0]), ConeSpec.orthant(3))
    for cone in cones:
        for scale in (1e3, 1e4, 1e5):
            cloud = rng.uniform(-scale, scale, (5, cone.dim_image))
            # the rounding band of clouds this large exceeds cone_tol, so
            # every pair of copies lands between the two passes
            prob = table_problem([cloud, cloud.copy(), cloud[::-1], cloud + 1.0], cone)
            before = len(calls)
            d = domination_matrix(prob)
            assert len(calls) > before
            np.testing.assert_array_equal(d, pairwise_oracle(prob))
            assert_sweep_matches_matrix(prob)


def test_clouds_that_can_overflow_are_rejected_at_build(capsys, tmp_path):
    cone = ConeSpec(np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.0])
    half = np.finfo(float).max / 2
    # a coordinate above half the largest float, then a score above it
    for big in ([[1.0, 1.0]], [[1e308 - 1e300, 1e308]]), ([[1.0, 1.0]], [[0.6 * half] * 2]):
        with pytest.raises(ProblemValidationError, match=r"grid point \[1.0\]"):
            table_problem(big, cone)
    # at the bound every difference stays finite and D is still the oracle's
    prob = table_problem([[[0.5 * half] * 2], [[-0.5 * half] * 2], [[0.0, 0.0]]], cone)
    np.testing.assert_array_equal(domination_matrix(prob), pairwise_oracle(prob))

    doc = fixtures.document("shifted_disc")
    doc["map"]["parameters"]["radius"] = 1e308
    # every score is below the bound, but one over <w, q> = 0.01 is not, and
    # psi itself would overflow
    small_unit = {"schema_version": "1",
                  "cone": {"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [0.01, 0.01]},
                  "domain": {"points": [[0.0], [1.0]]},
                  "map": {"kind": "constant",
                          "parameters": {"cloud": [[8e307, 1e307], [1.0, 2.0]]}}}
    for name, doc in (("huge_radius", doc), ("small_unit", small_unit)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: map value at grid point")
    assert "[0.0]" in err


def test_off_grid_clouds_that_can_overflow_are_rejected(capsys, tmp_path):
    # 0.46875 is no grid point, but the rgi and transfer refinements probe it;
    # |w| . |p| of its cloud overflows under the first generator
    doc = {"schema_version": "1", "cone": {"dual_generators": [[2, 2], [1, 0]], "q": [1, 0.1]},
           "domain": {"box": [[-1, 1]], "resolution": [5]},
           "map": {"kind": "piecewise", "parameters": {"regions": [
               {"where": {"type": "eq", "point": [0.46875]},
                "cloud": {"points": [[1e308, -1e308]]}},
               {"where": {"type": "interval", "lo": -0.1, "hi": 0.1},
                "cloud": {"points": [[-1, -1]]}},
               {"where": {"type": "always"}, "cloud": {"points": [[0, 0]]}}]}}}
    with pytest.raises(ProblemValidationError, match=r"map value at point \[0.46875\] is too"):
        scalar_value_at(build_problem(doc), [0.46875])
    path = tmp_path / "off_grid_overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--all", "--transfer", "--rgi"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: map value at point [0.46875] is too large")


def test_a_solved_problem_is_freed_with_its_last_reference():
    # the row test lives in the problem's cache; it must not keep the problem,
    # and with it the store, alive until the cyclic collector runs
    prob = fixtures.build("tradeoff_segment")
    solve(prob)
    domination_matrix(prob)
    freed = weakref.ref(prob)
    del prob
    assert freed() is None


def test_sweep_window_absorbs_the_rounding_of_psi():
    # b - a = (1.2e-12, 0) is strictly inside the wedge, yet psi = a1 - a2
    # rounds at magnitude 16000, so the computed psi does not rise at all
    cone = ConeSpec(np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.0])
    prob = table_problem([[[1220.5669713526906, 17280.89450740313]],
                          [[1220.5669713526918, 17280.89450740313]]], cone)
    assert domination_matrix(prob)[0, 1]
    psi = scalar_field(prob).values
    assert psi[1] == psi[0]
    assert_sweep_matches_matrix(prob)
    np.testing.assert_array_equal(efficient_sets(prob)[0], [0])


def test_sweep_reads_any_relation_the_psi_bound_allows(monkeypatch):
    # Equal psi at magnitude 1e6: the rounding slack (~4e-9) exceeds delta
    # (1e-12), so every pair lies in each other's window and the psi bound
    # rules out no relation.  With the row test and `covers` replaced by an
    # arbitrary relation, the sweep must read the same sets off it as the
    # matrix does, including removed columns that dominate every dominator
    # back.
    rng = np.random.default_rng(7)
    relation = None
    monkeypatch.setattr(solver._RowTest, "block", lambda self, rows, cols, pairs=True:
                        relation[np.ix_(rows, cols)] & pairs)
    split = 0
    for _ in range(300):
        n = int(rng.integers(1, 10))
        prob = table_problem([[[1e6 + k, 1e6]] for k in range(n)], ConeSpec.orthant(2))
        index = {prob.cloud(k).tobytes(): k for k in range(n)}
        monkeypatch.setattr(setrel, "covers", lambda a, b, cone, strict:
                            bool(relation[index[a.tobytes()], index[b.tobytes()]]))
        relation = rng.random((n, n)) < rng.uniform(0.05, 0.7)
        assert_sweep_matches_matrix(prob)
        split += len(efficient_sets(prob)[1]) > len(efficient_sets(prob)[0])
    assert split > 0


def test_solve_memory_grows_linearly():
    peaks = []
    for n in (4001, 8001):
        doc = fixtures.document("decay_tail")
        doc["domain"]["resolution"] = [n]
        prob = build_problem(doc)
        tracemalloc.start()
        try:
            solve(prob)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # an N x N matrix would quadruple the peak
    assert peaks[1] < 3 * peaks[0]


def test_negative_orthant3_matches_oracle():
    # under the negative orthant the farthest point of a cloud is its best witness
    cone = ConeSpec(-np.eye(3), -np.ones(3))
    prob = table_problem([[[0.0, 0.0, 0.0]],
                          [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
                          [[5.0, 5.0, 5.0], [3.0, 1.0, 2.0], [-1.0, -1.0, -1.0]]], cone)
    np.testing.assert_array_equal(domination_matrix(prob), pairwise_oracle(prob))


def test_random_problems_inclusions():
    rng = np.random.default_rng(31)
    for _ in range(40):
        prob = random_problem(rng)
        argmin = set(argmin_scalarized(prob).tolist())
        strict = set(efficient_sets(prob)[0].tolist())
        weak = set(efficient_sets(prob)[1].tolist())
        assert argmin <= strict
        assert strict <= weak
        # finite clouds are order-closed and order-proper, which collapses
        # the weak and strict notions
        assert strict == weak


def lattice_clouds(rng, cone, count):
    """Clouds on a coarse lattice with exact duplicates, points dominated in
    score space and points tied with another in one score."""
    m, q = cone.dim_image, np.asarray(cone.order_unit)
    clouds = []
    for _ in range(count):
        cloud = rng.integers(-2, 3, (int(rng.integers(1, 9)), m)).astype(float)
        extra = [cloud[rng.integers(len(cloud))]]  # a duplicate
        extra.append(cloud[rng.integers(len(cloud))] + rng.integers(1, 3) * q)  # dominated
        tied = cloud[rng.integers(len(cloud))].copy()
        tied[rng.integers(m)] += 1.0  # under an orthant, tied with its source in k - 1 scores
        extra.append(tied)
        clouds.append(rng.permutation(np.vstack([cloud, extra])))
    return clouds


def test_skyline_cut_keeps_each_clouds_first_minimal_points():
    rng = np.random.default_rng(5)
    for k in (3, 4, 5):
        owner = np.repeat(np.arange(30), rng.integers(1, 40, 30))
        scores = rng.integers(0, 4, (len(owner), k)).astype(float)
        scores[rng.random(len(owner)) < 0.1] = -0.0  # equal to 0.0, kept first by index
        want = [b for b in range(len(owner))
                if not any(owner[a] == owner[b] and a != b and (scores[a] <= scores[b]).all()
                           and ((scores[a] < scores[b]).any() or a < b)
                           for a in range(len(owner)))]
        np.testing.assert_array_equal(solver._skyline_points(scores, owner), want)


def test_staircase_cut_keeps_each_clouds_first_minimal_points():
    rng = np.random.default_rng(7)
    for k in (1, 2):
        for sizes in (rng.integers(1, 40, 30), np.ones(12, dtype=int), [1, 5, 1, 1, 7]):
            owner = np.repeat(np.arange(len(sizes)), sizes)
            scores = rng.integers(0, 4, (len(owner), k)).astype(float)
            scores[rng.random(scores.shape) < 0.1] = -0.0  # equal to 0.0, kept first by index
            if k == 1:
                scores = np.repeat(scores, 2, axis=1)  # how the row test passes one generator
            want = [b for b in range(len(owner))
                    if not any(owner[a] == owner[b] and a != b and (scores[a] <= scores[b]).all()
                               and ((scores[a] < scores[b]).any() or a < b)
                               for a in range(len(owner)))]
            got = solver._staircase_points(scores, owner)
            np.testing.assert_array_equal(np.sort(got), want)
            # grouped by cloud, each a staircase: first score up, second down
            same = owner[got][1:] == owner[got][:-1]
            assert (owner[got][1:] >= owner[got][:-1]).all()
            assert (scores[got[1:], 0] > scores[got[:-1], 0])[same].all()
            assert (scores[got[1:], 1] < scores[got[:-1], 1])[same].all()


def _first_minimal_points(scores, owner) -> list:
    """Brute force: the points with no other point of their cloud at or below
    them in every score, but for an equal point earlier by index."""
    return [b for b in range(len(owner))
            if not any(a != b and (scores[a] <= scores[b]).all()
                       and ((scores[a] < scores[b]).any() or a < b)
                       for a in np.flatnonzero(owner == owner[b]))]


@pytest.mark.parametrize("bound", [1, 3, 7, None])
def test_staircase_cut_matches_brute_force_across_scratch_bounds(bound, monkeypatch):
    if bound is not None:
        monkeypatch.setattr(problem_module, "SCRATCH_POINTS", bound)
    bound = problem_module.SCRATCH_POINTS
    shapes = []
    real_lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys, axis=-1: shapes.append(
        np.shape(keys[0])) or real_lexsort(keys, axis=axis))
    rng = np.random.default_rng(17)
    # ragged runs: one-point clouds, a cloud larger than the small bounds,
    # clouds of a single repeated point
    layouts = [rng.integers(1, 12, 25), np.ones(9, dtype=int), [9, 1, 2, 1, 1, 20, 3],
               [1, 30, 1, 1, 6, 6, 2]]
    for sizes in layouts:
        owner = np.repeat(np.arange(len(sizes)), sizes)
        for k in (1, 2):
            scores = rng.integers(0, 3, (len(owner), k)).astype(float)
            scores[rng.random(scores.shape) < 0.2] = -0.0  # equal to 0.0, kept first by index
            scores[owner == 1] = scores[owner == 1][0]
            scores[owner == 5] = -0.0 if k == 1 else [0.0, -0.0]
            if k == 1:  # the row test passes one column; widened, it is read alike
                got = solver._staircase_points(scores, owner)
                scores = np.repeat(scores, 2, axis=1)
                np.testing.assert_array_equal(solver._staircase_points(scores, owner), got)
            shapes.clear()
            got = solver._staircase_points(scores, owner)
            np.testing.assert_array_equal(np.sort(got), _first_minimal_points(scores, owner))
            # grouped by cloud, each a staircase: first score up, second down
            same = owner[got][1:] == owner[got][:-1]
            assert (owner[got][1:] >= owner[got][:-1]).all()
            assert (scores[got[1:], 0] > scores[got[:-1], 0])[same].all()
            assert (scores[got[1:], 1] < scores[got[:-1], 1])[same].all()
            # each rectangle holds at most the bound's cells, or one cloud
            assert shapes and all(rows * cols <= bound or rows == 1 for rows, cols in shapes)
            assert sum(rows for rows, _ in shapes) == len(sizes)


def plane_clouds(rng, cone, count):
    """Clouds of generic points on x + y + z = 0, each shifted along q: under
    generators whose columns have equal sums, nearly every point is minimal
    in score space, and the skyline cut keeps it."""
    clouds = []
    for _ in range(count):
        xy = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 30)), 2))
        plane = np.column_stack([xy, -xy.sum(axis=1)])
        clouds.append(plane + rng.uniform(0.0, 3.0) * np.asarray(cone.order_unit))
    return clouds


def test_k3_and_k4_domination_matrix_matches_pairwise_covers():
    pyramid = ConeSpec(np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                                 [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]), [0.0, 0.0, 1.0])
    # non-dyadic, every column summing to 1: scores where BLAS and the fold
    # round apart, and plane clouds that stay whole through the cut
    skew = ConeSpec(np.array([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]]),
                    [1.1, 0.9, 1.3])
    cases = [(cone, lattice_clouds) for cone in (ConeSpec.orthant(3), ConeSpec.orthant(4), pyramid)]
    cases += [(ConeSpec.orthant(3), plane_clouds), (skew, plane_clouds)]
    for cone, make in cases:
        for seed in range(20):
            prob = table_problem(make(np.random.default_rng(seed), cone, 12), cone)
            clouds = [prob.cloud(i) for i in range(len(prob.grid))]
            want = np.array([[setrel.covers(a, b, cone, strict=True) for b in clouds]
                             for a in clouds])
            np.testing.assert_array_equal(domination_matrix(prob), want)
            assert_sweep_matches_matrix(prob)


def test_sweep_block_size_changes_nothing(monkeypatch):
    firsts = []
    real = solver._sweep
    monkeypatch.setattr(solver, "_sweep", lambda *args: firsts.append(real(*args)) or firsts[-1])
    rng = np.random.default_rng(23)
    problems = [make(rng) for make in (random_problem, interval_problem, near_copy_problem)
                for _ in range(25)]
    problems += [table_problem(lattice_clouds(rng, cone, 40), cone)
                 for cone in (ConeSpec.orthant(3), ConeSpec.orthant(4))]
    # the first rows remove nearly every column, so the sweep passes over
    # nearly every later row without a block
    problems += [interval_problem(rng, n) for n in (2000, 2001, 2002)]
    for prob in problems:
        got = []
        # the default, one row per block, and every row in one block (N^2
        # scratch; blocks of 64 pairs on the large problems instead)
        for budget in (solver._BLOCK_PAIRS, 1, 2**40 if len(prob.grid) < 2000 else 64):
            monkeypatch.setattr(solver, "_BLOCK_PAIRS", budget)
            prob._cache.pop("efficient_sets", None)
            got.append((*efficient_sets(prob), firsts[-1]))
        for strict, weak, first in got[1:]:
            np.testing.assert_array_equal(strict, got[0][0])
            np.testing.assert_array_equal(weak, got[0][1])
            np.testing.assert_array_equal(first, got[0][2])
        assert_sweep_matches_matrix(prob)


def test_orthant3_rung_memory_is_bounded():
    # 31 clouds of 1000 random points under three generators: every cloud
    # is cut to its skyline before the sweep compares points
    rng = np.random.default_rng(0)
    prob = table_problem([rng.uniform(-5.0, 5.0, (1000, 3)) for _ in range(31)],
                         ConeSpec.orthant(3))
    scalar_field(prob)
    tracemalloc.start()
    try:
        strict, weak = efficient_sets(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    np.testing.assert_array_equal(strict, np.arange(31))
    np.testing.assert_array_equal(weak, np.arange(31))
