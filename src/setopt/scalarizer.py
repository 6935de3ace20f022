"""Scalarization of a set-valued problem and its colevel sets.

For each domain point x the scalarization takes the minimum of the
Gerstewitz value over the cloud F(x); the minimum is attained because
clouds are finite.  Colevel sets are computed along two independent
routes, via the order relation and via the scalar field, and the two
must agree.

On the grid both routes reduce the problem's stored clouds per cloud.
Off the grid (analytic kinds only) the map is evaluated at most once per
point: `scalar_value_at` keeps the value, a float and never the cloud,
of every point it has evaluated, keyed by the point's float64 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cone as _cone
from .errors import InternalConsistencyError
from .problem import SetValuedProblem, evaluate_at
from .setrel import PointCloudSet, strictly_lower_less

__all__ = [
    "ScalarField",
    "scalar_field",
    "scalar_value",
    "scalar_value_at",
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
    values = np.minimum.reduceat(_cone.gerstewitz_many(problem.cone, problem.cloud_points),
                                 problem.cloud_starts)
    field = ScalarField(values=values, inf_value=float(values.min()))
    problem._cache["scalar_field"] = field
    return field


def scalar_value(problem: SetValuedProblem, x) -> float:
    """Scalarization at a grid point."""
    idx = problem.grid.locate(x)
    return float(scalar_field(problem).values[idx])


def scalar_value_at(problem: SetValuedProblem, x) -> float:
    """Scalarization at an arbitrary domain point; analytic kinds only.

    The value is kept per point, so each point is evaluated once per problem.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    memo = problem._cache.setdefault("off_grid_values", {})
    key = x.tobytes()
    if key not in memo:
        cloud = evaluate_at(problem, x)
        memo[key] = float(np.min(_cone.gerstewitz_many(problem.cone, cloud.points)))
    return memo[key]


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
    two is returned; any disagreement beyond the tie tolerance band
    raises, since it signals misconfigured tolerances rather than bad
    input.
    """
    field = scalar_field(problem)
    tie = problem.tolerances.tie_tol
    by_field = field.values <= lam + tie

    cone = problem.cone
    probe = (lam * cone.order_unit) @ cone.dual_generators.T
    above = (problem.cloud_scores - probe > cone.cone_tol).all(axis=1)
    by_relation = ~np.logical_and.reduceat(above, problem.cloud_starts)

    disagree = np.flatnonzero(by_field != by_relation)
    for i in disagree:
        if abs(field.values[i] - lam) > 2.0 * tie:
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
    return np.flatnonzero([not strictly_lower_less(cloud, image, problem.cone)
                           for image in problem.clouds])
