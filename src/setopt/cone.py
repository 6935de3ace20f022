"""Polyhedral ordering cones and the Gerstewitz scalarization.

A cone is given by dual generators w_1..w_k:

    P = {y in R^m : <w_j, y> >= 0 for all j}

together with an order unit q in the interior of P (<w_j, q> > 0 for
all j).  For such cones the scalarization

    psi(y) = sup{t : y in t*q + P}

has the exact closed form min_j <w_j, y> / <w_j, q>, since
y - t*q in P holds iff t <= <w_j, y>/<w_j, q> for every j.  A bisection
oracle that only uses the membership predicate is provided as an
independent cross-check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

import numpy as np

from .errors import DimensionMismatchError, ProblemValidationError

DEFAULT_CONE_TOL = 1e-12


@dataclass(frozen=True)
class ConeSpec:
    """A solid, proper, closed convex polyhedral cone with an order unit.

    Attributes:
        dual_generators: (k, m) array; rows are the nonzero vectors w_j.
        order_unit: (m,) interior point q used as scalarization direction.
        cone_tol: absolute tolerance for the membership predicates, finite
            and positive; a problem document gives it as tolerances.cone_tol.
    """

    dual_generators: np.ndarray
    order_unit: np.ndarray
    cone_tol: float = DEFAULT_CONE_TOL
    # <w_j, q>, precomputed; positive by the interiority invariant
    _unit_scores: np.ndarray = field(init=False, repr=False, compare=False)
    # cone_tol in psi units: delta = cone_tol / max_j <w_j, q>, the least psi drop
    # strict domination forces, and tau = cone_tol / min_j <w_j, q>, the largest
    _delta: float = field(init=False, repr=False, compare=False)
    _tau: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.dual_generators, dtype=float))
        q = np.asarray(self.order_unit, dtype=float).reshape(-1)
        object.__setattr__(self, "dual_generators", w)
        object.__setattr__(self, "order_unit", q)
        if w.ndim != 2 or w.shape[0] == 0:
            raise ProblemValidationError("cone needs at least one dual generator")
        if w.shape[1] != q.shape[0]:
            raise DimensionMismatchError(
                f"dual generators have dimension {w.shape[1]}, order unit {q.shape[0]}"
            )
        if not (np.isfinite(w).all() and np.isfinite(q).all()):
            raise ProblemValidationError("cone data must be finite")
        if not w.any(axis=1).all():
            raise ProblemValidationError("dual generators must be nonzero")
        if not 0.0 < self.cone_tol < np.inf:
            raise ProblemValidationError(
                f"cone_tol must be finite and positive, got {self.cone_tol!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: NaN, rejected below
            unit_scores = linear_forms(q, w)
        if np.any(unit_scores <= self.cone_tol):
            raise ProblemValidationError("order unit not interior")
        if not np.isfinite(unit_scores).all():
            raise ProblemValidationError("generator scores <w, q> of the order unit overflow")
        object.__setattr__(self, "_unit_scores", unit_scores)
        object.__setattr__(self, "_delta", self.cone_tol / unit_scores.max())
        object.__setattr__(self, "_tau", self.cone_tol / unit_scores.min())

    @property
    def dim_image(self) -> int:
        return self.dual_generators.shape[1]

    @classmethod
    def orthant(cls, m: int, order_unit=None, cone_tol: float = DEFAULT_CONE_TOL) -> "ConeSpec":
        """The nonnegative orthant of R^m; default order unit is all ones."""
        q = np.ones(m) if order_unit is None else order_unit
        return cls(np.eye(m), q, cone_tol)

    def to_dict(self) -> dict:
        return {
            "dual_generators": self.dual_generators.tolist(),
            "q": self.order_unit.tolist(),
        }


def _as_vector(cone: ConeSpec, y) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != cone.dim_image:
        raise DimensionMismatchError(
            f"vector has dimension {y.shape[0]}, cone expects {cone.dim_image}"
        )
    return y


def contains(cone: ConeSpec, y) -> bool:
    """Membership y in P, with absolute tolerance cone_tol per generator."""
    return bool(np.all(linear_forms(_as_vector(cone, y), cone.dual_generators) >= -cone.cone_tol))


def contains_interior(cone: ConeSpec, y) -> bool:
    """Strict membership y in int P."""
    return bool(np.all(linear_forms(_as_vector(cone, y), cone.dual_generators) > cone.cone_tol))


def gerstewitz(cone: ConeSpec, y) -> float:
    """Closed form of sup{t : y in t*q + P}."""
    scores = linear_forms(_as_vector(cone, y), cone.dual_generators)
    return float(np.min(scores / cone._unit_scores))


def linear_forms(points, W: np.ndarray) -> np.ndarray:
    """<w_j, p> for each row w_j of the (k, m) W and each p along the last axis of points.

    The package's one scoring route: ((0 + p_0 w_0) + p_1 w_1) + ..., each step
    rounded on its own, so no bit depends on the BLAS or the batch shape and no
    form is -0.0; its error is that of recursive summation (Higham 2002, 3.1).
    """
    points, rows = np.asarray(points, dtype=float), np.asarray(W, dtype=float).tolist()
    if points.ndim == 1:  # one point: the same fold on Python floats, without numpy's call costs
        return np.array([reduce(add, map(mul, points.tolist(), w), 0.0) for w in rows])
    flat = points.reshape(-1, points.shape[-1])
    forms, term = np.empty((len(flat), len(rows))), np.empty(len(flat))
    for total, w in zip(forms.T, rows):  # one column per form
        np.multiply(flat[:, 0], w[0], out=total)
        total += 0.0  # the fold starts from +0.0, so -0.0 products leave +0.0
        for c in range(1, len(w)):
            np.multiply(flat[:, c], w[c], out=term)
            total += term
    return forms.reshape(*points.shape[:-1], len(rows))


def fold_columns(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce over the last axis of a, folded one column at a time.

    numpy reduces a short last axis (a few generators or coordinates) with
    one inner-loop call per output element, many times slower than one
    whole-array call per column.  The fold takes the columns in the
    reduce's order, so minimum, maximum and logical_and give its bits,
    signed zeros included, and NaN where it gives NaN (the reduce picks
    the sign of a NaN its own way; nothing reads that sign).
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out


def gerstewitz_many(cone: ConeSpec, ys: np.ndarray) -> np.ndarray:
    """Vectorized gerstewitz over the rows of a (p, m) array, or of a (c, p, m) stack.

    The least score ratio is taken one generator at a time (`fold_columns`),
    since k is small and the stacks of a refinement read are large.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[-1] != cone.dim_image:
        raise DimensionMismatchError(
            f"points have dimension {ys.shape[-1]}, cone expects {cone.dim_image}"
        )
    return fold_columns(np.minimum, linear_forms(ys, cone.dual_generators) / cone._unit_scores)


def gerstewitz_bisect(cone: ConeSpec, y, tol: float = 1e-10, max_doublings: int = 200) -> float:
    """Bisection oracle for sup{t : y - t*q in P}.

    Brackets the supremum by exponential search on the membership
    predicate, then bisects to width <= tol.  Uses only `contains`, so it
    is independent of the closed form in `gerstewitz`.
    """
    if tol <= 0.0:
        raise ProblemValidationError("tol must be positive")
    y = _as_vector(cone, y)
    q = cone.order_unit

    def inside(t: float) -> bool:
        return contains(cone, y - t * q)

    if inside(0.0):
        lo, hi = 0.0, 1.0
        for _ in range(max_doublings):
            if not inside(hi):
                break
            lo, hi = hi, hi * 2.0
        else:
            return float("inf")
    else:
        lo, hi = -1.0, 0.0
        for _ in range(max_doublings):
            if inside(lo):
                break
            lo, hi = lo * 2.0, lo
        else:
            return float("-inf")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
