"""Set order relations on finite point-cloud representations.

The lower set-less relation and its strict variant:

    A <=l B  iff  B is a subset of A + P
    A <l  B  iff  B is a subset of A + int P

decided for finite clouds by testing every pair (a, b): b - a lies in P
(int P) when <w, b - a> >= -cone_tol (> cone_tol) for every dual
generator w.  `covers` is that test, on plain point arrays such as slices
of a problem's cloud store.  It is the oracle that
`solver.domination_matrix` reproduces bit for bit, and the tie-breaker it
calls on the pairs its rounding band cannot decide.

A `PointCloudSet` is one cloud and nothing more: what it samples is
recorded once, on its map (`MapModel.sampling_notes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeSpec
from .errors import DimensionMismatchError, ProblemValidationError


@dataclass(frozen=True)
class PointCloudSet:
    """A finite, nonempty set of image-space points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ProblemValidationError("point cloud must be nonempty")
        if not np.isfinite(pts).all():
            raise ProblemValidationError("point cloud must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def _check_dims(a: PointCloudSet, b: PointCloudSet, cone: ConeSpec) -> None:
    if a.dim != b.dim or a.dim != cone.dim_image:
        raise DimensionMismatchError(
            f"cloud dimensions {a.dim}, {b.dim} must match cone dimension {cone.dim_image}"
        )


def covers(a_points: np.ndarray, b_points: np.ndarray, cone: ConeSpec, strict: bool) -> bool:
    """True iff every b has a witness a with b - a in P (int P when strict), scored
    by a matrix product the BLAS may fuse; `solver._RowTest`'s band bounds either form."""
    diff = b_points[:, None, :] - a_points[None, :, :]
    scores = diff @ cone.dual_generators.T  # (pb, pa, k)
    if strict:
        ok = (scores > cone.cone_tol).all(axis=2)
    else:
        ok = (scores >= -cone.cone_tol).all(axis=2)
    return bool(ok.any(axis=1).all())


def lower_less(a: PointCloudSet, b: PointCloudSet, cone: ConeSpec) -> bool:
    """A <=l B: every point of B dominated by some point of A within P."""
    _check_dims(a, b, cone)
    return covers(a.points, b.points, cone, strict=False)


def strictly_lower_less(a: PointCloudSet, b: PointCloudSet, cone: ConeSpec) -> bool:
    """A <l B: every point of B strictly dominated within int P."""
    _check_dims(a, b, cone)
    return covers(a.points, b.points, cone, strict=True)


def equivalent_l(a: PointCloudSet, b: PointCloudSet, cone: ConeSpec) -> bool:
    """A ~l B: lower_less in both directions (A + P equals B + P)."""
    return lower_less(a, b, cone) and lower_less(b, a, cone)
