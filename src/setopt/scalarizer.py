"""Scalarization of a set-valued problem and its colevel sets.

For each domain point x the scalarization takes the minimum of the
Gerstewitz value over the cloud F(x); the minimum is attained because
clouds are finite.  Colevel sets are computed along two independent
routes, via the order relation and via the scalar field, and the two
must agree.

On the grid both routes reduce the problem's stored generator scores
per cloud.  Off the grid (analytic kinds only) `scalar_values_at` takes
a whole batch of points.  It keeps the value, a float and never the
cloud, of every point it has evaluated, keyed by the point's float64
bytes, so the map is evaluated at most once per point and problem.  The
points the memo misses are evaluated together, in one batch call to the
map, held to the store's magnitude bounds; each cloud's scores come from
one matrix product of that cloud's own shape, so a value has the same
bits in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cone as _cone
from .errors import InternalConsistencyError, ProblemValidationError
from .problem import MAX_CLOUD_POINTS, SetValuedProblem, _magnitudes, _runs, first_failure
from .setrel import PointCloudSet, strictly_lower_less

__all__ = [
    "ScalarField",
    "scalar_field",
    "scalar_value",
    "scalar_value_at",
    "scalar_values_at",
    "global_inf",
    "colevel",
    "colevel_points",
    "colevel_at_set",
]

@dataclass(frozen=True)
class ScalarField:
    """Scalarization values over the grid and their infimum."""

    values: np.ndarray
    inf_value: float


def scalar_field(problem: SetValuedProblem) -> ScalarField:
    """The cached scalar field of a problem."""
    cached = problem._cache.get("scalar_field")
    if cached is not None:
        return cached
    # gerstewitz_many's bits over the store: the same product, the same ratios
    ratios = _cone.fold_columns(np.minimum, problem.cloud_scores / problem.cone._unit_scores)
    values = np.minimum.reduceat(ratios, problem.cloud_starts)
    field = ScalarField(values=values, inf_value=float(values.min()))
    problem._cache["scalar_field"] = field
    return field


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
    problem.  The points not kept yet are evaluated in one call to the
    map, split only so that no call holds more cloud points than a problem
    may store.  A failing point raises the error of the first one in X.
    """
    if not problem.map_model.is_analytic:
        raise ProblemValidationError("table maps cannot be evaluated off the grid")
    X = np.ascontiguousarray(X, dtype=float)
    memo = problem._cache.setdefault("off_grid_values", {})
    keys = [row.tobytes() for row in X]
    new = {}  # the first row of each point the memo misses
    for i, key in enumerate(keys):
        if key not in memo:
            new.setdefault(key, i)
    fresh, rows = list(new), X[list(new.values())]
    step = max(1, MAX_CLOUD_POINTS // problem.map_model.largest_cloud)
    for lo in range(0, len(rows), step):
        values = first_failure(lambda Y: _cloud_minima(problem, Y), rows[lo:lo + step])
        memo.update(zip(fresh[lo:lo + step], values.tolist()))
    return np.array([memo[key] for key in keys])


def _cloud_minima(problem: SetValuedProblem, X: np.ndarray) -> np.ndarray:
    """The least Gerstewitz value over the cloud at each row of X.

    The clouds are held to the store's magnitude bounds first.  Clouds of
    one size are scored by one stacked product, a product per cloud: a
    flat product over all rows would take another BLAS kernel for
    one-point clouds and round them differently.
    """
    points, starts = problem.map_model.clouds_at(X)
    _magnitudes(problem.cone, points, starts, X, "point")
    sizes = np.diff(starts, append=len(points))
    values = np.empty(len(X))
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        run = slice(None) if len(rows) == len(X) else _runs(starts[rows], sizes[rows])[0]
        scores = _cone.gerstewitz_many(problem.cone, points[run].reshape(len(rows), size, -1))
        values[rows] = scores.min(axis=1)
    return values


def global_inf(problem: SetValuedProblem) -> float:
    """Minimum of the scalarization over the grid."""
    return scalar_field(problem).inf_value


def colevel(problem: SetValuedProblem, lam: float) -> np.ndarray:
    """Sorted grid indices of the colevel set at height lam * q.

    Route one follows the definition: x survives iff the singleton
    {lam * q} does not strictly dominate F(x), i.e. unless every b in F(x)
    has <w, b> - <w, lam * q> > cone_tol for every dual generator w; it
    tests the relation generator by generator, never the value of the
    scalarization.  Route two thresholds the scalar field at lam.  Route
    two is returned.  The routes may differ where psi lies within the tie
    band of lam or up to tau = cone_tol / min_w <w, q> above it, since the
    relation drops x only when psi(F(x)) - lam exceeds cone_tol / <w, q>
    for every w; a disagreement outside that band raises.
    """
    field = scalar_field(problem)
    tie = problem.tolerances.tie_tol
    by_field = field.values <= lam + tie

    cone = problem.cone
    probe = (lam * cone.order_unit) @ cone.dual_generators.T
    above = _cone.fold_columns(np.logical_and, problem.cloud_scores - probe > cone.cone_tol)
    by_relation = ~np.logical_and.reduceat(above, problem.cloud_starts)

    band = 2.0 * tie + cone.cone_tol / cone._unit_scores.min()
    disagree = np.flatnonzero(by_field != by_relation)
    for i in disagree:
        if abs(field.values[i] - lam) > band:
            raise InternalConsistencyError(
                f"colevel routes disagree at grid index {i}: "
                f"value {field.values[i]} vs threshold {lam}"
            )
    return np.flatnonzero(by_field)


def colevel_points(problem: SetValuedProblem, lam: float) -> np.ndarray:
    """Grid points of the colevel set at height lam * q."""
    return problem.grid.points[colevel(problem, lam)]


def colevel_at_set(problem: SetValuedProblem, cloud: PointCloudSet) -> np.ndarray:
    """Sorted grid indices x where the given set does not strictly dominate F(x)."""
    images = (PointCloudSet(problem.cloud(i)) for i in range(len(problem.grid)))
    return np.flatnonzero([not strictly_lower_less(cloud, b, problem.cone) for b in images])
