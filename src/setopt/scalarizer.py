"""Scalarization of a set-valued problem and its colevel sets.

For each domain point x the scalarization takes the minimum of the
Gerstewitz value over the cloud F(x); the minimum is attained because
clouds are finite.  Colevel sets are computed along two independent
routes, via the order relation and via the scalar field, and the two
must agree; `colevel_masks` takes both routes for a whole ladder of
heights in one pass.

One reduction, `_least_ratios`, gives psi per cloud from the store's scores on
the grid and from fresh `cone.linear_forms` scores off it (analytic kinds only),
so a value has the same bits in any batch.  `scalar_values_at` keeps the value
of each point it evaluates (a float, never the cloud, keyed by its float64
bytes) and sends the points it misses to the map in batches of at most
`problem.SCRATCH_POINTS` cloud points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cone as _cone
from . import problem as _problem
from .errors import InternalConsistencyError, ProblemValidationError
from .problem import SetValuedProblem, _check_magnitudes, _chunks, first_failure

__all__ = ["ScalarField", "scalar_field", "scalar_value", "scalar_value_at", "scalar_values_at",
           "global_inf", "colevel", "colevel_masks", "colevel_points"]


@dataclass(frozen=True)
class ScalarField:
    """Scalarization values over the grid and their infimum."""

    values: np.ndarray
    inf_value: float


def scalar_field(problem: SetValuedProblem) -> ScalarField:
    """The scalar field of a problem, computed once; its values are read-only."""
    return problem._derived("scalar_field", _scalar_field)


def _scalar_field(problem: SetValuedProblem) -> ScalarField:
    values = _least_ratios(problem.cone, problem.cloud_scores, problem.cloud_starts)
    return ScalarField(values=values, inf_value=float(values.min()))


def scalar_value(problem: SetValuedProblem, x) -> float:
    """Scalarization at a grid point."""
    idx = problem.grid.locate(x)
    return float(scalar_field(problem).values[idx])


def scalar_value_at(problem: SetValuedProblem, x) -> float:
    """Scalarization at one arbitrary domain point; see `scalar_values_at`."""
    return float(scalar_values_at(problem, np.reshape(np.asarray(x, dtype=float), (1, -1)))[0])


def scalar_values_at(problem: SetValuedProblem, X) -> np.ndarray:
    """Scalarization at the rows of an (n, d) array of domain points; analytic kinds only.

    The value is kept per point, so each point is evaluated once per
    problem.  The points not kept yet are sent to the map in order, in
    calls of at most `problem.SCRATCH_POINTS` cloud points (one point per
    call if its cloud may hold more).  A failing point raises the error of
    the first one in X.
    """
    if not problem.map_model.is_analytic:
        raise ProblemValidationError("table maps cannot be evaluated off the grid")
    X = np.ascontiguousarray(X, dtype=float)
    memo = problem._derived("off_grid_values", lambda _: {})  # mutable: filled below
    # each row's float64 bytes as one fixed-width string; numpy strips its
    # trailing NUL bytes, which is injective at one width (two strings that
    # strip alike differ only in how many NULs they had, so not at all)
    width = X.itemsize * X.shape[1]
    keys = X.view((np.bytes_, width)).ravel().tolist()
    # each point the memo misses, once, in order; padded back to its width,
    # its key is its row's bytes again
    fresh = list(dict.fromkeys([key for key in keys if key not in memo]))
    rows = np.array(fresh, dtype=(np.bytes_, width)).view(float).reshape(-1, X.shape[1])
    step = max(1, _problem.SCRATCH_POINTS // problem.map_model.largest_cloud)
    for lo in range(0, len(rows), step):
        values = first_failure(lambda Y: _cloud_minima(problem, Y), rows[lo:lo + step])
        memo.update(zip(fresh[lo:lo + step], values.tolist()))
    return np.fromiter(map(memo.__getitem__, keys), float, len(keys))


def _least_ratios(cone: _cone.ConeSpec, scores: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per cloud of a stack, the least score ratio <w, p> / <w, q>: its psi value."""
    psi = np.empty(len(starts))
    for clouds, rows, at in _chunks(starts, len(scores)):
        ratios = _cone.fold_columns(np.minimum, scores[rows] / cone._unit_scores)
        psi[clouds] = np.minimum.reduceat(ratios, at)
    return psi


def _cloud_minima(problem: SetValuedProblem, X: np.ndarray) -> np.ndarray:
    """psi at each row of X, from its cloud held to the store's magnitude bounds."""
    points, starts = problem.map_model.clouds_at(X)
    _check_magnitudes(problem.cone, points, starts, X, "point")
    scores = _cone.linear_forms(points, problem.cone.dual_generators)
    return _least_ratios(problem.cone, scores, starts)


def global_inf(problem: SetValuedProblem) -> float:
    """Minimum of the scalarization over the grid."""
    return scalar_field(problem).inf_value


def colevel(problem: SetValuedProblem, lam: float) -> np.ndarray:
    """Sorted grid indices of the colevel set at height lam * q.

    Route one follows the definition: x survives iff the singleton
    {lam * q} does not strictly dominate F(x), i.e. unless every b in F(x)
    has <w, b> - lam <w, q> > cone_tol for every dual generator w; it
    tests the relation generator by generator, never the value of the
    scalarization.  Route two thresholds the scalar field at lam.  Route
    two is returned.  The routes may differ where psi lies within the tie
    band of lam or up to tau = cone_tol / min_w <w, q> above it, since the
    relation drops x only when psi(F(x)) - lam exceeds cone_tol / <w, q>
    for every w; a disagreement outside that band raises.  lam must be
    finite; an overflowing lam <w, q> is compared as an infinity.
    """
    return np.flatnonzero(next(colevel_masks(problem, [lam])))


def colevel_masks(problem: SetValuedProblem, lams):
    """Yield the colevel set at each height of lams in turn, as a grid mask; see `colevel`.

    Both routes decide every height in one pass.  Each test is monotone in
    lam (rounding is), so over the sorted heights a grid point joins each
    route's set at one rank: route two's is where its value falls among
    lam + tie_tol, route one's the least over the cloud's points and the
    generators of how many probes lam <w, q> a score beats.  A height
    raises as `colevel` would, once it is reached.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1)
    stop = int(np.argmin(np.isfinite(np.append(lams, np.nan))))  # the first non-finite one
    field = scalar_field(problem)
    tie = problem.tolerances.tie_tol
    cone = problem.cone
    order = np.argsort(lams[:stop], kind="stable")
    rank = order.argsort()
    inf = np.full((1, len(cone._unit_scores)), np.inf)
    joins_relation = np.empty(len(field.values), dtype=np.intp)
    with np.errstate(over="ignore"):  # an overflow compares as the infinity it rounds to
        joins_field = np.searchsorted(lams[order] + tie, field.values)
        # the probes in increasing order, between a -inf that every test
        # passes and a +inf that none does
        probes = np.vstack([-inf, lams[order, None] * cone._unit_scores, inf])
        for clouds, rows, at in problem._store_chunks():
            beaten = stop  # the fewest probes a point beats over every generator
            for probe, s in zip(probes.T, problem.cloud_scores[rows].T):
                # how many a score beats: its rank as cone_tol would give it,
                # moved one step at a time while the test on either side of
                # it says otherwise
                count = np.searchsorted(probe[1:-1], s - cone.cone_tol)
                while (step := (s - probe[count + 1] > cone.cone_tol).astype(np.intp)
                       - (s - probe[count] <= cone.cone_tol)).any():
                    count += step
                beaten = np.minimum(beaten, count)
            joins_relation[clouds] = np.minimum.reduceat(beaten, at)
    odd = np.flatnonzero(joins_field != joins_relation)
    # per height in the given order, the route disagreements outside the band
    wrong = ((np.minimum(joins_field, joins_relation)[odd] <= rank[:, None])
             & (rank[:, None] < np.maximum(joins_field, joins_relation)[odd])
             & (np.abs(field.values[odd] - lams[:stop, None]) > 2.0 * tie + cone._tau))
    for t in range(stop):
        if wrong[t].any():
            i = odd[wrong[t].argmax()]
            raise InternalConsistencyError(
                f"colevel routes disagree at grid index {i}: "
                f"value {field.values[i]} vs threshold {float(lams[t])}"
            )
        yield joins_field <= rank[t]
    if stop < len(lams):
        raise ProblemValidationError(f"lambda must be finite, got {float(lams[stop])}")


def colevel_points(problem: SetValuedProblem, lam: float) -> np.ndarray:
    """Grid points of the colevel set at height lam * q."""
    return problem.grid.points[colevel(problem, lam)]
