"""Solution pipeline: scalarized argmin and the efficient sets.

The strict domination matrix D has D[i, j] true iff F(x_i) <l F(x_j),
i.e. every b in F(x_j) has some a in F(x_i) with <w, b - a> > cone_tol
for every dual generator w.  The strict set is the columns of D with no
true entry off the diagonal; the weak set is the columns j where every
true D[i, j] is matched by a true D[j, i].  Both are computed from the
problem's stored clouds and generator scores; the map is not evaluated
again.

The row test decides a block of rows of D in score space, for any number
k of generators.  With the scores S = P @ W.T of all R cloud points
computed once, b is covered by A iff some a in A has S_a < S_b - cone_tol
in every generator.  Only the minimal points of a cloud in score space
matter, on either side: a b with some b' of its cloud at or below it in
every score is covered whenever b' is, and such an a witnesses nothing b'
does not.  So each cloud is cut to its minimal points first, keeping one
of equal points.  With k <= 2 the cut is a staircase (Kung, Luccio &
Preparata, J. ACM 1975), sorted by the first score with the prefix
minimum of the second, and one searchsorted per row decides every point
of every column, O(R log p).  With k >= 3 the cut is a sort-filter
skyline (Chomicki, Godfrey, Gryz & Liang, ICDE 2003), and every row point
is compared with every column point, generator by generator.  The kernel
compares score differences fl(S_b) - fl(S_a) where the oracle
`setrel.covers` compares fl(<w, fl(b - a)>), so each row is decided at
cone_tol +- band, where band bounds the gap between the two roundings.  A
pair the two passes decide alike is decided the same way by the oracle; a
pair they split is handed to `setrel.covers`.  Every row is therefore
exactly what the pairwise oracle gives.

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
reach_i = psi_i + delta - beta (mu_i + tau), its window; a column is
removed at its first dominator, which is recorded.  Rows are taken in
blocks of consecutive rows, one kernel call per block, against the
columns live at the block's start, each row masked to its own window and
never tested against itself; a column's first dominator is the earliest
block row that hits it, and the columns hit are removed after the block.
A column live when row i comes up one row at a time is live at the
block's start and in the same window, and a column that an earlier row
of the block removes is hit first by that row, so the first dominators
are the same whatever the block size.  A block compares at most
_BLOCK_PAIRS pairs of a row (k <= 2) or a row point (k >= 3) with a
column point, unless it is a single row.  The strict set is the columns
never removed.  A removed column j is weak only if j dominates every
dominator back, and D[j, i] with D[i, j] needs both in each other's
window, so |psi_i - psi_j| <= slack.  Only a column whose first
dominator lies in its own window is checked further, with
`setrel.covers`, against the rows visited after that dominator that can
reach it.  With the default cone_tol that happens only for clouds whose
scores are some hundreds or more; for the rest the weak set equals the
strict set at no cost.  Memory is O(N + R) plus one block's scratch;
time is one kernel call per block over the live windows.

`domination_matrix` builds D itself, N x N, one row at a time with the
same kernel.  It is the oracle the tests compare the sweep against;
nothing in the production path calls it.  It stays here, public, because
the benchmark's layer figures read its traced span by the name
`solver.domination_matrix`.  No threads are used.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import setrel
from .errors import InternalConsistencyError
from .problem import SetValuedProblem, _runs, _starts
from .scalarizer import scalar_field

# The most point pairs one step compares at once: a sweep block's rows
# (k <= 2) or row points (k >= 3) times its column points, and the pairs
# of one chunk of the k >= 3 cut.
_BLOCK_PAIRS = 4096


class _RowTest:
    """D[rows, cols] by the banded score-space test, a block of rows at a time.

    Scores S = P @ W.T are rounded once per point, so S_b - S_a differs
    from the oracle's fl(<w, fl(b - a)>) by at most
    band = 2 (m + 2) eps (M_i + M_j + cone_tol) per generator, where M_i
    is the cloud maximum of |w| . |p| over F(x_i).  The threshold
    arithmetic is inside that bound, which keeps a factor of two spare.
    A row is decided at cone_tol + band, where "covered" implies the
    oracle's verdict, and at cone_tol - band, where "not covered" does;
    pairs on which the two disagree are re-decided by `setrel.covers`,
    so every row equals the pairwise oracle bit for bit.  Each cloud is
    cut to its minimal points in score space.  The covered test is a
    staircase searchsorted per row with k <= 2 generators (a single
    generator fills both slots) and, with k >= 3, a comparison of every
    row point with every column point, one generator at a time, in chunks
    of about _BLOCK_PAIRS pairs.  Scratch memory is O(B C) for a block of
    B rows against C column points.
    """

    def __init__(self, problem: SetValuedProblem):
        self.problem = weakref.proxy(problem)  # weak: the problem's cache holds this test
        cone, tol = problem.cone, problem.cone.cone_tol
        scores, mags = problem.cloud_scores, problem.cloud_magnitudes  # (R, k), (N, k)
        n = len(mags)
        owner = np.repeat(np.arange(n), np.diff(problem.cloud_starts, append=len(scores)))
        self.staircase = scores.shape[1] <= 2
        if scores.shape[1] == 1:
            scores = np.repeat(scores, 2, axis=1)
            mags = np.repeat(mags, 2, axis=1)
        # Only the minimal points of a cloud in score space matter on either
        # side: a dominated b is covered whenever the point below it is, and a
        # dominated a witnesses nothing the point below it does not.
        keep = (_staircase_points if self.staircase else _skyline_points)(scores, owner)
        scores, owner = scores.take(keep, axis=0), owner[keep]  # take: a fast row gather
        sizes = np.bincount(owner, minlength=n)
        starts = _starts(sizes)
        if self.staircase:
            # cloud i's staircase: first score ascending, second strictly
            # descending, and in `second` preceded by +inf for "no point of A
            # is low enough"
            self.first = scores[:, 0]
            self.second = np.insert(scores[:, 1], starts, np.inf)
        self.scores, self.sizes, self.starts = scores, sizes, starts
        beta = self.beta = 2 * (cone.dim_image + 2) * np.finfo(float).eps
        # thresholds[b, pass, generator] for pass 0 at cone_tol + band (covered
        # implies the oracle's verdict) and pass 1 at cone_tol - band (not
        # covered implies it); the row's half of the band is added per row
        col_band = (beta * (mags + tol)).take(owner, axis=0)
        base = scores - tol
        self.thresholds = np.stack([base - col_band, base + col_band], axis=1)
        self.row_band = np.array([-beta, beta])[None, :, None] * mags[:, None, :]

    def block(self, rows: np.ndarray, cols: np.ndarray, pairs=True) -> np.ndarray:
        """D[rows, cols] where the boolean (len(rows), len(cols)) `pairs` is
        true, false elsewhere; rows and cols are nonempty index arrays."""
        points, offsets = _runs(self.starts[cols], self.sizes[cols])
        t = self.thresholds.take(points, axis=0) + self.row_band[rows, None]  # (B, C, 2, k)
        covered = np.zeros(t.shape[:3], dtype=bool)
        if self.staircase:
            lows = self.starts[rows]
            for b, (i, lo, hi) in enumerate(zip(rows.tolist(), lows.tolist(),
                                                (lows + self.sizes[rows]).tolist())):
                below = self.first[lo:hi].searchsorted(t[b, ..., 0])  # points with first score < t
                covered[b] = self.second[lo + i: hi + i + 1][below] < t[b, ..., 1]
        else:
            row_points, _ = _runs(self.starts[rows], self.sizes[rows])
            which = np.repeat(np.arange(len(rows)), self.sizes[rows])  # each row point's block row
            step = max(1, _BLOCK_PAIRS // len(points))
            for lo in range(0, len(row_points), step):
                r, s = which[lo: lo + step], self.scores.take(row_points[lo: lo + step], axis=0)
                hit = s[:, None, None, 0] < t[r, ..., 0]  # (row points, C, 2)
                for g in range(1, s.shape[1]):
                    hit &= s[:, None, None, g] < t[r, ..., g]
                heads = np.flatnonzero(np.diff(r, prepend=-1))
                covered[r[heads]] |= np.logical_or.reduceat(hit, heads)
        strict, loose = np.moveaxis(np.logical_and.reduceat(covered, offsets, axis=1), 2, 0) & pairs
        for b, c in zip(*np.nonzero(strict != loose)):
            strict[b, c] = self.covers(rows[b], cols[c])
        return strict

    def covers(self, i: int, j: int) -> bool:
        """D[i, j] by the pairwise oracle `setrel.covers`, on two views of the store."""
        problem = self.problem
        return setrel.covers(problem.cloud(i), problem.cloud(j), problem.cone, strict=True)


def _row_test(problem: SetValuedProblem) -> _RowTest:
    """The problem's cached row test."""
    test = problem._cache.get("row_test")
    if test is None:
        test = problem._cache["row_test"] = _RowTest(problem)
    return test


def domination_row(problem: SetValuedProblem, i: int) -> np.ndarray:
    """Row i of D, F(x_i) <l F(x_j) for every j, without building D."""
    return _row_test(problem).block(np.array([i]), np.arange(len(problem.grid)))[0]


def domination_matrix(problem: SetValuedProblem) -> np.ndarray:
    """Boolean matrix D with D[i, j] true iff F(x_i) <l F(x_j).

    Every row comes from the row test, so D equals the pairwise oracle
    `setrel.covers` bit for bit; only D itself is N x N.  This is the
    oracle for `efficient_sets` and is off the production path.
    """
    cached = problem._cache.get("domination_matrix")
    if cached is not None:
        return cached
    n = len(problem.grid)
    d = np.empty((n, n), dtype=bool)
    for i in range(n):
        d[i] = domination_row(problem, i)
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


def _skyline_points(scores: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Sorted indices of each cloud's minimal points in score space, any k.

    A point is dropped if another point of its cloud is at or below it in
    every score, or equals an earlier one.  Sort-filter: in the stable
    order of (cloud, score sum, scores) every point that drops b comes
    before b, since rounding keeps a sum taken in one fixed order monotone,
    and every earlier point of b's cloud at or below it drops b.  So b is
    compared with the earlier points of its cloud only: first with the
    first point of its cloud, of least score sum, which removes most points
    of a large cloud, then with the earlier points left, in chunks of about
    _BLOCK_PAIRS pairs.
    """
    total = scores[:, 0].copy()
    for column in scores.T[1:]:
        total += column
    order = np.lexsort((*scores.T[::-1], total, owner))
    s, cloud = scores.take(order, axis=0), owner[order]
    head = np.searchsorted(cloud, cloud)  # the first point of each one's cloud
    alive = np.flatnonzero((s.take(head, axis=0) > s).any(axis=1) | (head == np.arange(len(order))))
    s, cloud = s.take(alive, axis=0), cloud[alive]
    group = np.searchsorted(cloud, cloud)  # the first point left of each one's cloud
    earlier = np.arange(len(alive)) - group
    pairs = np.cumsum(earlier)
    dropped = np.zeros(len(alive), dtype=bool)
    lo = 0
    while lo < len(alive):
        hi = max(lo + 1, int(np.searchsorted(pairs, pairs[lo] - earlier[lo] + _BLOCK_PAIRS,
                                             side="right")))
        a, _ = _runs(group[lo:hi], earlier[lo:hi])
        b = np.repeat(np.arange(lo, hi), earlier[lo:hi])
        at_or_below = (s.take(a, axis=0) <= s.take(b, axis=0)).all(axis=1)
        dropped[b[at_or_below]] = True
        lo = hi
    return np.sort(order[alive[~dropped]])


def _separation(problem: SetValuedProblem) -> float:
    """delta = cone_tol / max_w <w, q>: the least psi drop strict domination forces."""
    return problem.cone.cone_tol / problem.cone._unit_scores.max()


def _sweep(test: _RowTest, rows: np.ndarray, top: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Each column's first dominator in the order of `rows`, or -1 if it has none.

    Rows go in blocks against the live columns; see the module docstring.
    """
    def column_points(live):  # of live[s:] at [s], for s up to len(live)
        return np.append(np.cumsum(test.sizes[live][::-1])[::-1], 0)

    n = len(rows)
    live = np.argsort(top, kind="stable")  # live columns, ascending top
    live_top = top[live]
    # a block of rows[pos:end] against live[s:] compares
    # (cost[end] - cost[pos]) * tail[s] pairs
    tail = column_points(live)
    cost = np.arange(n + 1) if test.staircase else np.append(0, np.cumsum(test.sizes[rows]))
    row_reach = reach[rows]
    first = np.full(n, -1)
    pos = 0
    while pos < n:
        start = np.searchsorted(live_top, row_reach[pos])
        if start == len(live):
            pos += 1
            continue
        # the longest run of rows from pos whose block fits in _BLOCK_PAIRS,
        # each row's window widening the block's columns to the lowest reach
        span = slice(pos, pos + max(1, _BLOCK_PAIRS // int(tail[start])))
        starts = np.searchsorted(live_top, np.minimum.accumulate(row_reach[span]))
        scratch = (cost[pos + 1: span.stop + 1] - cost[pos]) * tail[starts]
        size = max(1, int(np.searchsorted(scratch, _BLOCK_PAIRS, side="right")))
        block, start = rows[pos: pos + size], starts[size - 1]
        cols = live[start:]
        pairs = (live_top[start:] >= row_reach[pos: pos + size, None]) & (cols != block[:, None])
        hit = test.block(block, cols, pairs)
        hits = hit.any(axis=0)
        if hits.any():
            first[cols[hits]] = block[hit.argmax(axis=0)[hits]]
            keep = np.ones(len(live), dtype=bool)
            keep[start:] = ~hits
            live, live_top = live[keep], live_top[keep]
            tail = column_points(live)
        pos += size
    return first


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
    first = _sweep(test, rows, top, reach)
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
    covers = test.covers
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
