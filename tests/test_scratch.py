"""One scratch bound for every pass over the cloud store.

Each pass whose temporaries would grow with the store runs over chunks of
whole clouds of at most `problem.SCRATCH_POINTS` points.  With the bound
lowered to a few points, so that nearly every cloud is a chunk of its own
and many clouds are larger than a chunk, every result must keep the bits
of one whole-array pass; and at the default bound, no pass may hold
scratch that grows with the store.
"""

import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from setopt import fixtures, solver
from setopt import problem as problem_module
from setopt.errors import ProblemValidationError
from setopt.problem import MAX_CLOUD_POINTS, build_problem
from setopt.sampling import random_problem
from setopt.scalarizer import colevel, scalar_field, scalar_values_at
from setopt.solver import domination_matrix, efficient_sets

AFFINE_CUBE = pathlib.Path(__file__).parent / "documents" / "affine_cube.json"


def _documents() -> list:
    """Every shipped fixture and the three-dimensional cube: all five map kinds,
    one and two generators, clouds of 1 to 1000 points."""
    return [fixtures.document(name) for name in sorted(fixtures.FIXTURES)] + [
        json.loads(AFFINE_CUBE.read_text())]


def _results(prob, firsts: list) -> list:
    """Everything the chunked passes feed, as bytes: the store the build gates and
    scores, psi, colevel sets at three heights, the efficient sets with each
    column's first dominator, and the off-grid values or the domination matrix."""
    field = scalar_field(prob)
    arrays = [prob.cloud_scores, prob.cloud_magnitudes, prob.cloud_psi_bounds, field.values]
    arrays += [colevel(prob, float(lam)) for lam in np.quantile(field.values, [0.0, 0.4, 1.0])]
    arrays += [*efficient_sets(prob), firsts[-1]]
    if prob.map_model.is_analytic:
        pts = prob.grid.points
        rng = np.random.default_rng(len(pts))
        X = rng.uniform(pts.min(axis=0), pts.max(axis=0), (40, pts.shape[1]))
        arrays.append(scalar_values_at(prob, np.vstack([X, X[::3], pts[:5]])))
    else:
        arrays.append(domination_matrix(prob))
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("bound", [1, 3, 7])
def test_chunked_passes_keep_every_bit(bound, monkeypatch):
    firsts = []
    real = solver._sweep
    monkeypatch.setattr(solver, "_sweep", lambda *args: firsts.append(real(*args)) or firsts[-1])

    def run(scratch):
        monkeypatch.setattr(problem_module, "SCRATCH_POINTS", scratch)
        rng = np.random.default_rng(11)
        problems = [random_problem(rng) for _ in range(12)]
        problems += [build_problem(doc) for doc in _documents()]
        return [_results(prob, firsts) for prob in problems]

    assert run(bound) == run(MAX_CLOUD_POINTS)


def test_chunks_are_greedy_runs_of_whole_clouds(monkeypatch):
    sizes = np.array([3, 1, 5, 2, 2, 9, 1, 1])
    starts = np.cumsum(sizes) - sizes
    for bound in (1, 3, 7, 100):
        monkeypatch.setattr(problem_module, "SCRATCH_POINTS", bound)
        chunks = list(problem_module._chunks(starts, int(sizes.sum())))
        assert [clouds.start for clouds, _, _ in chunks] == [
            0, *(clouds.stop for clouds, _, _ in chunks[:-1])]
        assert chunks[-1][0].stop == len(sizes)
        for clouds, rows, at in chunks:
            np.testing.assert_array_equal(at, starts[clouds] - rows.start)
            assert rows == slice(starts[clouds.start], starts[clouds.start] + sizes[clouds].sum())
            assert rows.stop - rows.start <= bound or clouds.stop - clouds.start == 1
            if clouds.stop < len(sizes):  # the next cloud would not have fit
                assert rows.stop - rows.start + sizes[clouds.stop] > bound


def _steep_interval(resolution=5) -> dict:
    """An interval map on [-1, 1] whose bounds are defined on [-10, 10] only and
    grow as 1e306 x^2: an off-grid read fails at |x| >= 10, too large at 10
    and uncovered beyond."""
    fn = {"type": "quadratic", "a": 1e306, "b": 0.0, "c": 0.0}
    return {"cone": {"dual_generators": [[1.0]], "q": [1.0]},
            "domain": {"box": [[-1.0, 1.0]], "resolution": [resolution]},
            "map": {"kind": "interval", "parameters": {
                "lower": [{"fn": fn, "lo": -10.0, "hi": 10.0}],
                "upper": [{"fn": {**fn, "offset": 1.0}, "lo": -10.0, "hi": 10.0}]}}}


@pytest.mark.parametrize("xs, message", [
    ([0.5, 0.25, 10.0, 0.1, 0.2, 20.0, 0.3], r"map value at point \[10.0\] is too large"),
    ([0.5, 0.25, 20.0, 0.1, 0.2, 10.0, 0.3], r"no piece covers x=20.0"),
])
def test_an_off_grid_read_raises_the_error_of_its_first_failing_row(xs, message, monkeypatch):
    # four cloud points a chunk: two rows of two-point intervals, so the two
    # failing rows fall in the second and the third chunk
    monkeypatch.setattr(problem_module, "SCRATCH_POINTS", 4)
    prob = build_problem(_steep_interval())
    with pytest.raises(ProblemValidationError, match=message):
        scalar_values_at(prob, np.array(xs)[:, None])
    monkeypatch.setattr(problem_module, "SCRATCH_POINTS", MAX_CLOUD_POINTS)
    with pytest.raises(ProblemValidationError, match=message):
        scalar_values_at(build_problem(_steep_interval()), np.array(xs)[:, None])


def _traced(run):
    """run()'s result, and the traced bytes it held at its peak beyond what it keeps."""
    tracemalloc.reset_peak()
    result = run()
    current, peak = tracemalloc.get_traced_memory()
    return result, peak - current


def test_each_pass_holds_bounded_scratch_on_a_large_store():
    # 441 rings of 360 points: a store of 158,760 points, 4.8 MiB of points
    # and scores, in ten chunks; a whole-array pass held up to eight times that
    doc = fixtures.document("shifted_disc", samples=360)
    doc["domain"]["resolution"] = [21, 21]
    probes = np.random.default_rng(3).uniform(-2.0, 2.0, (2000, 2))
    tracemalloc.start()
    try:
        prob, build = _traced(lambda: build_problem(doc))
        field, psi = _traced(lambda: scalar_field(prob))
        transients = {"build": build, "scalar_field": psi}
        lam = float(np.median(field.values))
        passes = {"colevel": lambda: colevel(prob, lam),
                  "row test": lambda: prob._derived("row_test", solver._RowTest),
                  "sweep": lambda: efficient_sets(prob),
                  "off-grid read": lambda: scalar_values_at(prob, probes)}
        for label, run in passes.items():
            transients[label] = _traced(run)[1]
    finally:
        tracemalloc.stop()
    assert len(prob.cloud_points) == 158_760
    for label, size in transients.items():
        assert size < 2 * 2**20, (label, size)


def test_the_row_test_cut_holds_bounded_scratch_on_a_ragged_store():
    # 384 one-point clouds and one of 16,000 points: a single store chunk of
    # 16,384 points, which one padded clouds x points rectangle would spread
    # over 385 x 16,000 cells
    rng = np.random.default_rng(5)
    points = [[float(i)] for i in range(385)]
    clouds = [[p] for p in rng.uniform(-5.0, 5.0, (384, 2)).tolist()]
    clouds.append(rng.uniform(-5.0, 5.0, (16_000, 2)).tolist())
    prob = build_problem({"cone": {"dual_generators": np.eye(2).tolist(), "q": [1.0, 1.0]},
                          "domain": {"points": points},
                          "map": {"kind": "table", "parameters": {"points": points,
                                                                  "clouds": clouds}}})
    assert len(prob._store_chunks()) == 1
    tracemalloc.start()
    try:
        _, transient = _traced(lambda: prob._derived("row_test", solver._RowTest))
    finally:
        tracemalloc.stop()
    assert transient < 2 * 2**20, transient
