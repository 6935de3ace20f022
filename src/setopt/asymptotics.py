"""Behavior at infinity: asymptotic cones, ray liminf estimates, horizon limits.

The asymptotic value of the scalarization along a direction u is
estimated as the liminf of scalar values along the ray t * u over a
finite schedule of radii.  The direction is held constant along the ray;
the exact definition takes an infimum over drifting direction sequences,
which is not computable.  In finite dimension with the norm topology the
constant-direction value upper-bounds the exact one and matches it on
every shipped fixture; every estimate carries a flag recording the
surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, ProblemValidationError
from .problem import SetValuedProblem
from .scalarizer import global_inf, scalar_field, scalar_values_at

DEFAULT_T_MAX = 1e6
DEFAULT_T_COUNT = 40
DEFAULT_RADIUS_THRESHOLD = 100.0
DEFAULT_LAMBDA_COUNT = 12
ANGULAR_CLUSTER_TOL = 1e-3
FAR_T_COUNT = 25  # radii per compass ray in far colevel samples
# A value counts as above the infimum only beyond MARGIN_FACTOR * tie_tol.
MARGIN_FACTOR = 10.0


def default_t_values(t_max: float = DEFAULT_T_MAX, count: int = DEFAULT_T_COUNT) -> np.ndarray:
    return np.geomspace(1.0, t_max, count)


@dataclass(frozen=True)
class RaySchedule:
    """A direction and an increasing schedule of radii along it."""

    direction: np.ndarray
    t_values: np.ndarray = field(default_factory=default_t_values)

    def __post_init__(self):
        u = np.asarray(self.direction, dtype=float).reshape(-1)
        ts = np.asarray(self.t_values, dtype=float).reshape(-1)
        if np.linalg.norm(u) == 0.0:
            raise ProblemValidationError("ray direction must be nonzero")
        if len(ts) < 4 or np.any(np.diff(ts) <= 0.0) or np.any(ts <= 0.0):
            raise ProblemValidationError("t_values must be positive and strictly increasing")
        if ts[-1] < 1e4:
            raise ProblemValidationError("t_values must reach at least 1e4")
        object.__setattr__(self, "direction", u)
        object.__setattr__(self, "t_values", ts)

    @property
    def unit_direction(self) -> np.ndarray:
        return self.direction / np.linalg.norm(self.direction)


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Estimated asymptotic value along one direction."""

    direction: np.ndarray          # unit vector
    value: float                   # liminf surrogate over the schedule tail
    liminf_trace: np.ndarray       # scalar values along the ray
    t_values: np.ndarray
    trend: str                     # "increasing", "stable" or "decreasing"
    snapped_to_grid: bool
    max_snap_distance: float
    constant_direction_surrogate: bool = True


def compass_directions(n: int) -> np.ndarray:
    """A fixed lattice of unit directions used for sampling at infinity."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        angles = np.arange(16) * (2.0 * np.pi / 16)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dirs = []
    for axis in range(n):
        for sign in (1.0, -1.0):
            d = np.zeros(n)
            d[axis] = sign
            dirs.append(d)
    for sign in (1.0, -1.0):
        dirs.append(sign * np.ones(n) / np.sqrt(n))
    return np.asarray(dirs)


def asymptotic_cone_estimate(points, radius_threshold: float) -> np.ndarray:
    """Unit directions of far points, clustered with an angular tolerance.

    Empty input yields an empty direction set (the asymptotic cone of the
    empty set is empty by convention; of a bounded set it is trivial).
    """
    if radius_threshold <= 0.0:
        raise ProblemValidationError("radius_threshold must be positive")
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return points.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    points = np.atleast_2d(points)
    norms = np.linalg.norm(points, axis=1)
    far = points[norms >= radius_threshold]
    if len(far) == 0:
        return np.empty((0, points.shape[1]))
    dirs = far / np.linalg.norm(far, axis=1)[:, None]
    order = np.lexsort(dirs.T[::-1])
    reps: list[np.ndarray] = []
    for d in dirs[order]:
        if all(np.arccos(np.clip(d @ r, -1.0, 1.0)) > ANGULAR_CLUSTER_TOL for r in reps):
            reps.append(d)
    reps.sort(key=lambda r: tuple(r))
    return np.asarray(reps)


def _ray_trace(problem: SetValuedProblem, schedule: RaySchedule) -> tuple[np.ndarray, bool, float]:
    u = schedule.unit_direction
    if u.shape[0] != problem.grid.dim_domain:
        raise ProblemValidationError("direction dimension does not match the domain")
    if problem.map_model.is_analytic:
        return scalar_values_at(problem, schedule.t_values[:, None] * u), False, 0.0
    values = np.empty(len(schedule.t_values))
    field = scalar_field(problem)
    max_snap = 0.0
    for i, t in enumerate(schedule.t_values):
        target = t * u
        dists = np.linalg.norm(problem.grid.points - target, axis=1)
        j = int(np.argmin(dists))
        max_snap = max(max_snap, float(dists[j]))
        values[i] = field.values[j]
    return values, True, max_snap


def asymptotic_value(problem: SetValuedProblem, schedule: RaySchedule) -> AsymptoticEstimate:
    """Liminf surrogate of the scalarization along a ray.

    The liminf over the finite schedule is the minimum over the last
    quarter of the radii.
    """
    trace, snapped, max_snap = _ray_trace(problem, schedule)
    tail = max(1, len(trace) // 4)
    value = float(np.min(trace[-tail:]))
    prev = float(np.min(trace[-2 * tail:-tail])) if len(trace) >= 2 * tail else value
    tie = problem.tolerances.tie_tol
    if value > prev + tie:
        trend = "increasing"
    elif value < prev - tie:
        trend = "decreasing"
    else:
        trend = "stable"
    # a snapped trace holds grid values only; an analytic ray runs past the
    # grid, where psi may fall below the grid's infimum
    if snapped and value < global_inf(problem) - tie:
        raise InternalConsistencyError(
            f"asymptotic estimate {value} fell below the global infimum "
            f"{global_inf(problem)}"
        )
    return AsymptoticEstimate(
        direction=schedule.unit_direction,
        value=value,
        liminf_trace=trace,
        t_values=schedule.t_values,
        trend=trend,
        snapped_to_grid=snapped,
        max_snap_distance=max_snap,
    )


@dataclass(frozen=True)
class GapReport:
    """Strict-gap-at-infinity verdict over sampled directions."""

    holds: bool
    inf_value: float
    margin: float
    estimates: list[AsymptoticEstimate] = field(metadata={"json": "per_direction"})
    witnesses: list[np.ndarray]
    sampling_note: str


def check_asymptotic_gap(problem: SetValuedProblem, directions=None,
                         t_max: float = DEFAULT_T_MAX,
                         t_count: int = DEFAULT_T_COUNT) -> GapReport:
    """Whether every sampled direction stays strictly above the infimum.

    Coercive problems satisfy this trivially; a failing direction is one
    along which scalar values keep approaching the global infimum at
    infinity.  A report over the compass directions is kept on the
    problem per ray schedule, so it is computed once per problem.
    """
    if directions is None:
        key = ("asymptotic_gap", t_max, t_count)
        if key not in problem._cache:
            problem._cache[key] = _gap_report(
                problem, compass_directions(problem.grid.dim_domain), t_max, t_count)
        return problem._cache[key]
    return _gap_report(problem, directions, t_max, t_count)


def _gap_report(problem: SetValuedProblem, directions, t_max: float,
                t_count: int) -> GapReport:
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if len(directions) == 0:
        raise ProblemValidationError("directions must be nonempty")
    margin = MARGIN_FACTOR * problem.tolerances.tie_tol
    m = global_inf(problem)
    ts = default_t_values(t_max, t_count)
    estimates = []
    witnesses = []
    for u in directions:
        est = asymptotic_value(problem, RaySchedule(u, ts))
        estimates.append(est)
        if not est.value > m + margin:
            witnesses.append(est.direction)
    note = (
        f"sampled {len(directions)} directions with constant-direction rays; "
        "a holds verdict is evidence at this sampling, not a proof"
    )
    return GapReport(holds=not witnesses, inf_value=m, margin=margin,
                     estimates=estimates, witnesses=witnesses, sampling_note=note)


def far_colevel_sample(problem: SetValuedProblem, lam: float,
                       radius_threshold: float = DEFAULT_RADIUS_THRESHOLD) -> np.ndarray:
    """Sample of the colevel set at radius >= threshold.

    Analytic map kinds are probed along compass rays beyond the grid;
    table kinds can only contribute far grid points.
    """
    tie = problem.tolerances.tie_tol
    low = problem.grid.points[scalar_field(problem).values <= lam + tie]
    norms = np.linalg.norm(low, axis=1)
    far = norms >= radius_threshold
    # a row's norm may round differently from the norm of that point alone,
    # so points within rounding of the threshold are measured alone
    near = np.flatnonzero(np.abs(norms - radius_threshold) <= 1e-12 * radius_threshold)
    far[near] = [np.linalg.norm(x) >= radius_threshold for x in low[near]]
    pts = list(low[far])
    if problem.map_model.is_analytic:
        ts = np.geomspace(radius_threshold, max(DEFAULT_T_MAX, radius_threshold * 10.0),
                          FAR_T_COUNT)
        rays = np.concatenate([ts[:, None] * (u / np.linalg.norm(u))
                               for u in compass_directions(problem.grid.dim_domain)])
        pts.extend(rays[scalar_values_at(problem, rays) <= lam + tie])
    if not pts:
        return np.empty((0, problem.grid.dim_domain))
    return np.asarray(pts)


@dataclass(frozen=True)
class HorizonReport:
    directions: np.ndarray
    lambda_schedule: np.ndarray
    radius_threshold: float
    gap_holds: bool
    consistent_with_gap: bool
    resolution_limited: bool


def default_lambda_schedule(problem: SetValuedProblem,
                            count: int = DEFAULT_LAMBDA_COUNT) -> np.ndarray:
    """A geometric ladder strictly decreasing toward the global infimum."""
    m = global_inf(problem)
    span = float(scalar_field(problem).values.max() - m)
    gap = span / 2.0 if span > 0.0 else 1.0
    return m + gap * np.power(0.5, np.arange(count))


def horizon_outer_limit(problem: SetValuedProblem, lam_schedule,
                        radius_threshold: float = DEFAULT_RADIUS_THRESHOLD) -> HorizonReport:
    """Directional limit set of colevel sets along a ladder of heights.

    The union of asymptotic cone estimates over the tail of the ladder.
    An empty direction set is the trivial horizon; it must agree with the
    strict-gap verdict, and the agreement is recorded.
    """
    lam = np.asarray(lam_schedule, dtype=float).reshape(-1)
    m = global_inf(problem)
    if len(lam) < 2 or np.any(np.diff(lam) >= 0.0):
        raise ProblemValidationError("lambda schedule must be strictly decreasing")
    if np.any(lam <= m):
        raise ProblemValidationError("lambda schedule must stay above the global infimum")
    if lam[-1] - m > 0.5 * (lam[0] - m):
        raise ProblemValidationError("lambda schedule must decrease toward the global infimum")

    tail = lam[len(lam) // 2:]
    collected: list[np.ndarray] = []
    for value in tail:
        sample = far_colevel_sample(problem, float(value), radius_threshold)
        est = asymptotic_cone_estimate(sample, radius_threshold)
        if len(est):
            collected.append(est)
    if collected:
        directions = asymptotic_cone_estimate(
            np.vstack(collected) * (2.0 * radius_threshold), radius_threshold
        )
    else:
        directions = np.empty((0, problem.grid.dim_domain))

    gap = check_asymptotic_gap(problem)
    trivial = len(directions) == 0
    return HorizonReport(
        directions=directions,
        lambda_schedule=lam,
        radius_threshold=radius_threshold,
        gap_holds=gap.holds,
        consistent_with_gap=(trivial == gap.holds),
        resolution_limited=not problem.map_model.is_analytic,
    )
