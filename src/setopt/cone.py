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

import numpy as np

from .errors import DimensionMismatchError, ProblemValidationError

DEFAULT_CONE_TOL = 1e-12


@dataclass(frozen=True)
class ConeSpec:
    """A solid, proper, closed convex polyhedral cone with an order unit.

    Attributes:
        dual_generators: (k, m) array; rows are the nonzero vectors w_j.
        order_unit: (m,) interior point q used as scalarization direction.
        cone_tol: absolute tolerance for the membership predicates.
    """

    dual_generators: np.ndarray
    order_unit: np.ndarray
    cone_tol: float = DEFAULT_CONE_TOL
    # <w_j, q>, precomputed; positive by the interiority invariant
    _unit_scores: np.ndarray = field(init=False, repr=False, compare=False)

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
        if self.cone_tol <= 0.0:
            raise ProblemValidationError("cone_tol must be positive")
        with np.errstate(over="ignore"):
            unit_scores = w @ q
        if np.any(unit_scores <= self.cone_tol):
            raise ProblemValidationError("order unit not interior")
        if not np.isfinite(unit_scores).all():
            raise ProblemValidationError("generator scores <w, q> of the order unit overflow")
        object.__setattr__(self, "_unit_scores", unit_scores)

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
    y = _as_vector(cone, y)
    return bool(np.all(cone.dual_generators @ y >= -cone.cone_tol))


def contains_interior(cone: ConeSpec, y) -> bool:
    """Strict membership y in int P."""
    y = _as_vector(cone, y)
    return bool(np.all(cone.dual_generators @ y > cone.cone_tol))


def gerstewitz(cone: ConeSpec, y) -> float:
    """Closed form of sup{t : y in t*q + P}."""
    y = _as_vector(cone, y)
    return float(np.min((cone.dual_generators @ y) / cone._unit_scores))


def gerstewitz_many(cone: ConeSpec, ys: np.ndarray) -> np.ndarray:
    """Vectorized gerstewitz over the rows of a (p, m) array, or of a (c, p, m) stack."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[-1] != cone.dim_image:
        raise DimensionMismatchError(
            f"points have dimension {ys.shape[-1]}, cone expects {cone.dim_image}"
        )
    return np.min((ys @ cone.dual_generators.T) / cone._unit_scores, axis=-1)


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
