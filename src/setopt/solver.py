"""Solution pipeline: scalarized argmin and brute-force efficient sets.

Everything here rests on the strict domination matrix D, with D[i, j]
true iff F(x_i) <l F(x_j), i.e. every b in F(x_j) has some a in F(x_i)
with <w, b - a> > cone_tol for every dual generator w.  Both efficient
sets are read off D.  D is built from the problem's stored clouds and
generator scores; the map is not evaluated again.

D is built in score space, one row at a time, for any number k of
generators.  With the scores S = P @ W.T of all R cloud points computed
once, b is covered by A iff some a in A has S_a < S_b - cone_tol in
every generator.  That row test costs O(R) scratch memory.  With k <= 2
it is a staircase (Kung, Luccio & Preparata, J. ACM 1975): each cloud is
cut to its minimal points in score space, sorted by the first score
with the prefix minimum of the second, and one searchsorted decides
every point of every column, O(N * R * log p) time.  With k >= 3 the row
cloud's points are compared one at a time, O(N * R * p * k) time.

The kernel compares score differences fl(S_b) - fl(S_a) where the
oracle `setrel.covers` compares fl(<w, fl(b - a)>), so each row is
decided at cone_tol +- band, where band bounds the gap between the two
roundings.  A pair the two passes decide alike is decided the same way
by the oracle; a pair they split is handed to `setrel.covers`.  D is
therefore exactly what the pairwise oracle gives.  The problem build
rejects clouds whose scores or differences could overflow, so every
threshold is finite.  No threads are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import setrel
from .errors import InternalConsistencyError
from .problem import SetValuedProblem
from .scalarizer import scalar_field


def domination_matrix(problem: SetValuedProblem) -> np.ndarray:
    """Boolean matrix D with D[i, j] true iff F(x_i) <l F(x_j).

    One banded row loop serves every cone; only D itself is N x N.
    Scores S = P @ W.T are rounded once per point, so S_b - S_a differs
    from the oracle's fl(<w, fl(b - a)>) by at most
    band = 2 (m + 2) eps (M_i + M_j + cone_tol) per generator, where M_i
    is the cloud maximum of |w| . |p| over F(x_i).  The threshold
    arithmetic is inside that bound, which keeps a factor of two spare.
    A row is decided at cone_tol + band, where "covered" implies the
    oracle's verdict, and at cone_tol - band, where "not covered" does;
    pairs on which the two disagree are re-decided by `setrel.covers`,
    so D equals the pairwise oracle bit for bit.  The covered test is a
    staircase searchsorted with k <= 2 generators (a single generator
    fills both slots) and a point-by-point comparison with k >= 3.
    """
    cached = problem._cache.get("domination_matrix")
    if cached is not None:
        return cached
    cone = problem.cone
    tol = cone.cone_tol
    clouds = [c.points for c in problem.clouds]
    n = len(clouds)
    sizes, starts = np.array([len(c) for c in clouds]), problem.cloud_starts
    owner = np.repeat(np.arange(n), sizes)
    scores, mags = problem.cloud_scores, problem.cloud_magnitudes  # (R, k), (N, k)
    staircase = scores.shape[1] <= 2
    if scores.shape[1] == 1:
        scores = np.repeat(scores, 2, axis=1)
        mags = np.repeat(mags, 2, axis=1)
    if staircase:
        # Only the minimal points of a cloud in score space matter on either
        # side: a dominated b is covered whenever the point below it is, and a
        # dominated a witnesses nothing the point below it does not.
        keep = _staircase_points(scores, owner)
        scores, owner = scores[keep], owner[keep]
        sizes = np.bincount(owner, minlength=n)
        starts = np.cumsum(sizes) - sizes
        # cloud i's staircase: first score ascending, second strictly
        # descending, and in `second` preceded by +inf for "no point of A
        # is low enough"
        first = scores[:, 0]
        second = np.insert(scores[:, 1], starts, np.inf)
    beta = 2 * (cone.dim_image + 2) * np.finfo(float).eps
    # thresholds[pass, generator, b] for pass 0 at cone_tol + band (covered
    # implies the oracle's verdict) and pass 1 at cone_tol - band (not
    # covered implies it); the row's half of the band is added per row
    col_band = (beta * (mags + tol))[owner].T
    base = scores.T - tol
    thresholds = np.stack([base - col_band, base + col_band])
    row_band = np.array([-beta, beta])[None, :, None, None] * mags[:, None, :, None]
    d = np.empty((n, n), dtype=bool)
    for i, a in enumerate(clouds):
        lo, hi = starts[i], starts[i] + sizes[i]
        t = thresholds + row_band[i]  # (2, k, C)
        if staircase:
            below = np.searchsorted(first[lo:hi], t[:, 0])  # points with first score < t
            covered = second[lo + i: hi + i + 1][below] < t[:, 1]
        else:
            covered = np.zeros((2, t.shape[2]), dtype=bool)
            for s in scores[lo:hi]:
                covered |= (s[:, None] < t).all(axis=1)
        strict, loose = np.logical_and.reduceat(covered, starts, axis=1)
        d[i] = strict
        for j in np.flatnonzero(strict != loose):
            d[i, j] = setrel.covers(a, clouds[j], cone, strict=True)
    problem._cache["domination_matrix"] = d
    return d


def _staircase_points(scores: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Indices of each cloud's minimal points in (first, second) score space.

    Grouped by cloud; within a cloud the first score ascends and the second
    strictly descends.  Ties and duplicates keep one point.
    """
    order = np.lexsort((scores[:, 1], scores[:, 0], owner))
    second = scores[order, 1]
    # Integer ranks keep comparisons exact; lifting every earlier cloud by a
    # whole rank range lets one running minimum restart at each cloud.
    rank = np.searchsorted(np.sort(second), second)
    key = rank + (owner.max() - owner[order]) * (len(order) + 1)
    before = np.concatenate(([np.iinfo(key.dtype).max], np.minimum.accumulate(key)[:-1]))
    return order[key < before]


def argmin_scalarized(problem: SetValuedProblem) -> np.ndarray:
    """Sorted grid indices within tie tolerance of the scalar infimum."""
    field = scalar_field(problem)
    return np.flatnonzero(field.values <= field.inf_value + problem.tolerances.tie_tol)


def strict_weak_efficient_brute(problem: SetValuedProblem) -> np.ndarray:
    """Grid points no other point strictly dominates, by full pairwise scan."""
    d = domination_matrix(problem)
    others = d.copy()
    np.fill_diagonal(others, False)
    return np.flatnonzero(~others.any(axis=0))


def weak_efficient_brute(problem: SetValuedProblem) -> np.ndarray:
    """Grid points where strict domination is always mutual."""
    d = domination_matrix(problem)
    # x_j qualifies iff every i with D[i, j] also has D[j, i]
    ok = (~d) | d.T
    return np.flatnonzero(ok.all(axis=0))


@dataclass(frozen=True)
class SolveReport:
    inf_value: float
    argmin_indices: np.ndarray
    strict_indices: np.ndarray
    weak_indices: np.ndarray
    scalar_values: np.ndarray
    inclusion_argmin_in_strict: bool
    inclusion_strict_in_weak: bool
    argmin_strictly_smaller: bool

    def to_dict(self, problem: SetValuedProblem) -> dict:
        return {
            "inf_value": self.inf_value,
            "argmin": _point_list(problem, self.argmin_indices),
            "strict_weak_efficient": _point_list(problem, self.strict_indices),
            "weak_efficient": _point_list(problem, self.weak_indices),
            "inclusion_argmin_in_strict": self.inclusion_argmin_in_strict,
            "inclusion_strict_in_weak": self.inclusion_strict_in_weak,
            "argmin_strictly_smaller": self.argmin_strictly_smaller,
            "scalar_table": scalar_table(problem, self.scalar_values),
        }


def _reported(problem: SetValuedProblem, points: np.ndarray) -> list:
    # reports give a point of a 1-D domain as its bare coordinate
    return (points if problem.grid.dim_domain > 1 else points[:, 0]).tolist()


def _point_list(problem: SetValuedProblem, indices) -> list:
    """The grid points at indices, sorted, in report form."""
    return sorted(_reported(problem, problem.grid.points[indices]))


def scalar_table(problem: SetValuedProblem, values: np.ndarray) -> list:
    """One {"x", "value"} row per grid point, in grid order."""
    return [{"x": x, "value": v}
            for x, v in zip(_reported(problem, problem.grid.points), values.tolist())]


def solve(problem: SetValuedProblem) -> SolveReport:
    """Full report; raises if the guaranteed inclusions fail."""
    field = scalar_field(problem)
    argmin = argmin_scalarized(problem)
    strict = strict_weak_efficient_brute(problem)
    weak = weak_efficient_brute(problem)

    strict_set = set(strict.tolist())
    weak_set = set(weak.tolist())
    argmin_in_strict = set(argmin.tolist()) <= strict_set
    strict_in_weak = strict_set <= weak_set
    if not argmin_in_strict:
        raise InternalConsistencyError(
            "scalarized argmin escaped the strict weakly efficient set; "
            "check tie tolerance configuration"
        )
    if not strict_in_weak:
        raise InternalConsistencyError("strict efficient set escaped the weak efficient set")
    return SolveReport(
        inf_value=field.inf_value,
        argmin_indices=argmin,
        strict_indices=strict,
        weak_indices=weak,
        scalar_values=field.values,
        inclusion_argmin_in_strict=argmin_in_strict,
        inclusion_strict_in_weak=strict_in_weak,
        argmin_strictly_smaller=len(argmin) < len(strict),
    )
