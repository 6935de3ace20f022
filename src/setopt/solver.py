"""Solution pipeline: scalarized argmin and the efficient sets.

The strict domination matrix D has D[i, j] true iff F(x_i) <l F(x_j),
i.e. every b in F(x_j) has some a in F(x_i) with <w, b - a> > cone_tol
for every dual generator w.  The strict set is the columns of D with no
true entry off the diagonal; the weak set is the columns j where every
true D[i, j] is matched by a true D[j, i].  Both are computed from the
problem's stored clouds and generator scores; the map is not evaluated
again.

The row test decides one row of D in score space, for any number k of
generators.  With the scores S = P @ W.T of all R cloud points computed
once, b is covered by A iff some a in A has S_a < S_b - cone_tol in
every generator.  With k <= 2 it is a staircase (Kung, Luccio &
Preparata, J. ACM 1975): each cloud is cut to its minimal points in
score space, sorted by the first score with the prefix minimum of the
second, and one searchsorted decides every point of every column, so a
row costs O(R log p) time.  With k >= 3 the row cloud's points are
compared one at a time, O(R * p * k).  The kernel compares score
differences fl(S_b) - fl(S_a) where the oracle `setrel.covers` compares
fl(<w, fl(b - a)>), so each row is decided at cone_tol +- band, where
band bounds the gap between the two roundings.  A pair the two passes
decide alike is decided the same way by the oracle; a pair they split is
handed to `setrel.covers`.  Every row is therefore exactly what the
pairwise oracle gives.

`efficient_sets` never builds D.  It rests on the monotonicity of the
scalarization psi: with delta = cone_tol / max_w <w, q>, A <l B implies
psi(A) <= psi(B) - delta in exact arithmetic, since the witness a of the
point of B attaining psi(B) has <w, a> < <w, b> - cone_tol in every
generator (Hernandez & Rodriguez-Marin, J. Math. Anal. Appl. 325, 2007).
In floating point, take b and w attaining the computed psi_j.  The
oracle's value fl(<w, fl(b - a)>) is within gamma_(m+1) (M_i + M_j) of
<w, b - a>, with M the cloud maxima of |w| . |p| that the kernel's band
uses; each stored psi value is within gamma_m M of its exact score plus
one rounding of the division by <w, q>.  So D[i, j] implies

    psi_i < psi_j - cone_tol / <w, q> + (m + 1) eps (M_i + M_j) / <w, q>,

up to O(eps^2), hence psi_i < psi_j - delta + slack with

    slack = beta (mu_i + mu_j + tau),  beta = 2 (m + 2) eps,

where mu_i = max_w M_(i,w) / <w, q> bounds |psi| over F(x_i), and
tau = cone_tol / min_w <w, q> absorbs the rounding of delta.  beta is
the kernel's band factor; its factor-two spare covers the arithmetic of
the keys below.  The problem build rejects clouds whose mu exceeds half
the float maximum, so every key is finite.

The sweep visits rows in ascending psi.  Row i is tested only against
the live columns j with top_j = psi_j + beta mu_j at least
reach_i = psi_i + delta - beta (mu_i + tau); a column is removed at its
first dominator, which is recorded.  The strict set is the columns never
removed.  A removed column j is weak only if j dominates every dominator
back, and D[j, i] with D[i, j] needs both in each other's window, so
|psi_i - psi_j| <= slack.  Only a column whose first dominator lies in its
own window is checked further, with `setrel.covers`, against the rows
visited after that dominator that can reach it.  With the default
cone_tol that happens only for clouds whose scores are some hundreds or
more; for the rest the weak set equals the strict set at no cost.  Memory
is O(N + R); time is one row test per row over its live window.

`domination_matrix` builds D itself, N x N, with the same row test.  It
is the oracle the tests compare the sweep against; nothing in the
production path calls it.  No threads are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import setrel
from .errors import InternalConsistencyError
from .problem import SetValuedProblem
from .scalarizer import scalar_field


class _RowTest:
    """One row of D at a time: D[i, cols] by the banded score-space test.

    Scores S = P @ W.T are rounded once per point, so S_b - S_a differs
    from the oracle's fl(<w, fl(b - a)>) by at most
    band = 2 (m + 2) eps (M_i + M_j + cone_tol) per generator, where M_i
    is the cloud maximum of |w| . |p| over F(x_i).  The threshold
    arithmetic is inside that bound, which keeps a factor of two spare.
    A row is decided at cone_tol + band, where "covered" implies the
    oracle's verdict, and at cone_tol - band, where "not covered" does;
    pairs on which the two disagree are re-decided by `setrel.covers`,
    so every row equals the pairwise oracle bit for bit.  The covered
    test is a staircase searchsorted with k <= 2 generators (a single
    generator fills both slots) and a point-by-point comparison with
    k >= 3.  Scratch memory is O(R) per row.
    """

    def __init__(self, problem: SetValuedProblem):
        cone = self.cone = problem.cone
        tol = cone.cone_tol
        starts = problem.cloud_starts
        ends = np.append(starts[1:], len(problem.cloud_points))
        self.clouds = [problem.cloud_points[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        n = len(self.clouds)
        sizes = ends - starts
        owner = np.repeat(np.arange(n), sizes)
        scores, mags = problem.cloud_scores, problem.cloud_magnitudes  # (R, k), (N, k)
        self.staircase = scores.shape[1] <= 2
        if scores.shape[1] == 1:
            scores = np.repeat(scores, 2, axis=1)
            mags = np.repeat(mags, 2, axis=1)
        if self.staircase:
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
            self.first = scores[:, 0]
            self.second = np.insert(scores[:, 1], starts, np.inf)
        self.scores, self.sizes, self.starts = scores, sizes, starts
        beta = self.beta = 2 * (cone.dim_image + 2) * np.finfo(float).eps
        # thresholds[pass, generator, b] for pass 0 at cone_tol + band (covered
        # implies the oracle's verdict) and pass 1 at cone_tol - band (not
        # covered implies it); the row's half of the band is added per row
        col_band = (beta * (mags + tol))[owner].T
        base = scores.T - tol
        self.thresholds = np.stack([base - col_band, base + col_band])
        self.row_band = np.array([-beta, beta])[None, :, None, None] * mags[:, None, :, None]

    def __call__(self, i: int, cols: np.ndarray) -> np.ndarray:
        """D[i, cols] for a nonempty array of column indices."""
        sizes = self.sizes[cols]
        offsets = np.cumsum(sizes) - sizes
        # the columns' points, each column's run starting at its offset
        points = np.arange(offsets[-1] + sizes[-1]) + np.repeat(self.starts[cols] - offsets, sizes)
        t = self.thresholds[:, :, points] + self.row_band[i]  # (2, k, C)
        lo, hi = self.starts[i], self.starts[i] + self.sizes[i]
        if self.staircase:
            below = np.searchsorted(self.first[lo:hi], t[:, 0])  # points with first score < t
            covered = self.second[lo + i: hi + i + 1][below] < t[:, 1]
        else:
            covered = np.zeros((2, t.shape[2]), dtype=bool)
            for s in self.scores[lo:hi]:
                covered |= (s[:, None] < t).all(axis=1)
        strict, loose = np.logical_and.reduceat(covered, offsets, axis=1)
        for c in np.flatnonzero(strict != loose):
            strict[c] = setrel.covers(self.clouds[i], self.clouds[cols[c]], self.cone, strict=True)
        return strict


def _row_test(problem: SetValuedProblem) -> _RowTest:
    """The problem's cached row test."""
    test = problem._cache.get("row_test")
    if test is None:
        test = problem._cache["row_test"] = _RowTest(problem)
    return test


def domination_row(problem: SetValuedProblem, i: int) -> np.ndarray:
    """Row i of D, F(x_i) <l F(x_j) for every j, without building D."""
    return _row_test(problem)(i, np.arange(len(problem.clouds)))


def domination_matrix(problem: SetValuedProblem) -> np.ndarray:
    """Boolean matrix D with D[i, j] true iff F(x_i) <l F(x_j).

    Every row comes from the row test, so D equals the pairwise oracle
    `setrel.covers` bit for bit; only D itself is N x N.  This is the
    oracle for `efficient_sets` and is off the production path.
    """
    cached = problem._cache.get("domination_matrix")
    if cached is not None:
        return cached
    test = _row_test(problem)
    n = len(problem.clouds)
    d = np.empty((n, n), dtype=bool)
    for i in range(n):
        d[i] = test(i, np.arange(n))
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


def _separation(problem: SetValuedProblem) -> float:
    """delta = cone_tol / max_w <w, q>: the least psi drop strict domination forces."""
    return problem.cone.cone_tol / problem.cone._unit_scores.max()


def efficient_sets(problem: SetValuedProblem) -> tuple[np.ndarray, np.ndarray]:
    """Sorted grid indices of the strict and of the weak efficient set.

    One psi-ordered sweep over the live columns (see the module
    docstring); the sets equal those read off `domination_matrix`.
    """
    cached = problem._cache.get("efficient_sets")
    if cached is not None:
        return cached
    test = _row_test(problem)
    cone, beta = problem.cone, test.beta
    psi = scalar_field(problem).values
    n = len(psi)
    mu = problem.cloud_psi_bounds
    tau = cone.cone_tol / cone._unit_scores.min()
    # D[i, j] implies reach[i] < top[j]
    top = psi + beta * mu
    reach = psi + _separation(problem) - beta * (mu + tau)

    rows = np.argsort(psi, kind="stable")
    live = np.argsort(top, kind="stable")  # live columns, ascending top
    live_top = top[live]
    first = np.full(n, -1)  # each removed column's first dominator
    for i in rows:
        start = np.searchsorted(live_top, reach[i])
        if start == len(live):
            continue
        cols = live[start:]
        hit = test(i, cols)
        hit[cols == i] = False
        if hit.any():
            first[cols[hit]] = i
            keep = np.ones(len(live), dtype=bool)
            keep[start:] = ~hit
            live, live_top = live[keep], live_top[keep]
    weak = first < 0
    strict = np.flatnonzero(weak)

    # A removed column j stays weak only if it dominates back its first
    # dominator f, which must then lie in j's window, and every later row
    # that dominates it.  A row i that can reach j has
    # psi_i <= top[j] - delta + beta (mu_i + tau), below reach_bound[j].
    position = np.empty(n, dtype=int)
    position[rows] = np.arange(n)
    ordered_psi = psi[rows]
    reach_bound = top + 2 * beta * (mu.max() + tau)
    clouds = test.clouds

    def covers(i, j):
        return setrel.covers(clouds[i], clouds[j], cone, strict=True)

    removed = np.flatnonzero(~weak)
    for j in removed[top[first[removed]] >= reach[removed]]:
        f = first[j]
        later = rows[position[f] + 1: np.searchsorted(ordered_psi, reach_bound[j], side="right")]
        later = later[reach[later] <= top[j]]
        weak[j] = covers(j, f) and all(not covers(i, j) or covers(j, i) for i in later)
    result = (strict, np.flatnonzero(weak))
    for indices in result:
        indices.flags.writeable = False  # shared through the cache
    problem._cache["efficient_sets"] = result
    return result


def argmin_scalarized(problem: SetValuedProblem) -> np.ndarray:
    """Sorted grid indices within min(tie_tol, delta / 2) of the scalar infimum.

    Below delta / 2 no point that strictly dominates an argmin point can
    exist unless rounding beats delta (see the module docstring), so
    solve's argmin-in-strict inclusion holds by construction.
    """
    field = scalar_field(problem)
    band = min(problem.tolerances.tie_tol, _separation(problem) / 2)
    return np.flatnonzero(field.values <= field.inf_value + band)


def strict_weak_efficient_brute(problem: SetValuedProblem) -> np.ndarray:
    """Grid points no other point strictly dominates."""
    return efficient_sets(problem)[0]


def weak_efficient_brute(problem: SetValuedProblem) -> np.ndarray:
    """Grid points where strict domination is always mutual."""
    return efficient_sets(problem)[1]


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
    strict, weak = efficient_sets(problem)

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
