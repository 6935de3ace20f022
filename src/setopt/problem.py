"""Problem instances: domain grids, set-valued map models, validation.

A problem is a finite domain sample, a map model producing one point
cloud per domain point, an ordering cone, and tolerances.  Map models
come in five kinds:

    table      explicit (point, cloud) pairs, defined on the grid only
    constant   one fixed cloud everywhere
    interval   1D image [lower(x), upper(x)] from a small registry of
               piecewise scalar functions
    ball       closed disc around a center function of x, sampled on a
               fixed angular lattice
    piecewise  domain-region predicates mapped to cloud constructors

Every kind except `table` is analytic: it can be evaluated at arbitrary
domain points, which the asymptotic and refinement machinery relies on.

Each kind has one reader.  It runs once, when the `MapModel` is built:
it validates and converts every parameter, rejecting unknown keys with
their document path, and returns one evaluator over a batch of domain
points, which gives their clouds in the store's layout (`clouds_at`);
`cloud_at` is its one-point view.  The map owns the facts that hold for
all its clouds: the dimension m of the R^m they lie in (`dim_image`),
read once, so a cloud of another width is rejected with its document
path, and the sampling notes (`sampling_notes`).  The raw parameters are
kept only for writing the document back.

Building a problem evaluates the map at all grid points in one call, into
the store that every grid-side layer reads instead of evaluating again.
This module is the one home of the store's layout (`_runs` gathers clouds
from a stack), its total bound (MAX_CLOUD_POINTS, checked before it is
allocated) and its magnitude bounds (`_magnitudes`, met off the grid too).
"""

from __future__ import annotations

import itertools
import json
import math
import reprlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cone import DEFAULT_CONE_TOL, ConeSpec, fold_columns
from .errors import DimensionMismatchError, ProblemValidationError, SetOptError
from .setrel import PointCloudSet

# Absolute slack for matching grid points and for region boundaries.
# Non-strict piece bounds absorb this band so that grid points produced
# by linspace with ~1e-16 noise land on their intended branch.
REGION_TOL = 1e-9

# Largest grid a box domain, or angular lattice a ball map, may ask for;
# either is allocated whole.
MAX_GRID_POINTS = 10**6

# Largest number of cloud points a problem stores, over all its grid points:
# each grid point keeps its own copy of its cloud.  It admits an interval
# map (two points per cloud) on every grid a box may ask for, and the
# 360-point rings of `shifted_disc` on a 101 x 101 grid.  No single cloud
# may hold more.
MAX_CLOUD_POINTS = 4 * MAX_GRID_POINTS

# Largest grid coordinate: norms of and distances between grid points,
# sums of squares, stay finite well beyond it.
MAX_COORDINATE = 1e150

SCHEMA_VERSION = "1"


def _tolerance(name: str, value: float) -> float:
    """value, if it is finite and positive; else an error naming tolerances.<name>."""
    if not 0.0 < value < np.inf:
        raise ProblemValidationError(
            f"tolerances.{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class Tolerances:
    """The problem's tie band; the cone's membership slack is `ConeSpec.cone_tol`."""

    tie_tol: float = 1e-9

    def __post_init__(self):
        _tolerance("tie_tol", self.tie_tol)


@dataclass(frozen=True)
class Flags:
    # Asserted minimizing-sequence compactness condition used by the
    # noncoercive existence theorem.  It cannot be verified numerically
    # (it quantifies over all unbounded sequences); in finite dimension
    # with the norm topology it always holds, hence the default.
    k_q_set: bool = True

    def to_dict(self) -> dict:
        return {"K_q_set": self.k_q_set}


@dataclass(frozen=True)
class DomainGrid:
    """A finite, distinct sample of the domain, optionally from a box."""

    points: np.ndarray
    box: np.ndarray | None = None
    resolution: tuple[int, ...] | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ProblemValidationError("empty grid")
        if not (np.abs(pts) <= MAX_COORDINATE).all():
            raise ProblemValidationError(
                f"grid points must be finite, with coordinates of at most {MAX_COORDINATE:g}")
        # distinctness: exact duplicate rows are authoring errors
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ProblemValidationError("grid points must be distinct")
        object.__setattr__(self, "points", pts)
        if self.box is not None:
            box = np.asarray(self.box, dtype=float)
            if box.shape != (pts.shape[1], 2) or np.any(box[:, 0] >= box[:, 1]):
                raise ProblemValidationError("box must be one (lo, hi) pair per axis with lo < hi")
            lo, hi = box[:, 0], box[:, 1]
            if np.any(pts < lo - REGION_TOL) or np.any(pts > hi + REGION_TOL):
                raise ProblemValidationError("grid point outside box")
            object.__setattr__(self, "box", box)
        if self.resolution is not None:
            object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))

    @property
    def dim_domain(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_box(cls, box, resolution) -> "DomainGrid":
        box = np.asarray(box, dtype=float)
        counts = np.atleast_1d(np.asarray(resolution, dtype=float))
        whole = (counts >= 2) & (counts < np.inf) & (np.floor(counts) == counts)
        if counts.ndim != 1 or not whole.all():
            raise ProblemValidationError(f"domain.resolution must be whole numbers >= 2, "
                                         f"got {reprlib.repr(counts.tolist())}")
        resolution = [int(r) for r in counts]
        if math.prod(resolution) > MAX_GRID_POINTS:
            raise ProblemValidationError(f"domain.resolution {reprlib.repr(counts.tolist())} asks "
                                         f"for more than {MAX_GRID_POINTS:,} grid points")
        if box.ndim != 2 or box.shape[1] != 2 or len(resolution) != box.shape[0]:
            raise ProblemValidationError("box and resolution must agree per axis")
        if not ((np.abs(box) <= MAX_COORDINATE).all() and (box[:, 0] < box[:, 1]).all()):
            raise ProblemValidationError(f"domain.box must be one (lo, hi) pair per axis with "
                                         f"lo < hi, within {MAX_COORDINATE:g}")
        axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, resolution)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return cls(pts, box=box, resolution=tuple(resolution))

    def locate(self, x, atol: float = REGION_TOL) -> int:
        """Index of the grid point equal to x up to atol; error if absent."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim_domain:
            raise DimensionMismatchError(
                f"point has dimension {x.shape[0]}, grid has {self.dim_domain}"
            )
        dists = np.max(np.abs(self.points - x), axis=1)
        idx = int(np.argmin(dists))
        if dists[idx] > atol:
            raise ProblemValidationError(f"x not in grid: {x.tolist()}")
        return idx

    def step_estimate(self) -> np.ndarray:
        """Per-axis grid spacing; from box metadata when present."""
        if self.box is not None and self.resolution is not None:
            lo, hi = self.box[:, 0], self.box[:, 1]
            return (hi - lo) / (np.asarray(self.resolution) - 1)
        steps = np.empty(self.dim_domain)
        for ax in range(self.dim_domain):
            vals = np.unique(self.points[:, ax])
            diffs = np.diff(vals)
            steps[ax] = diffs[diffs > 0].min() if np.any(diffs > 0) else 1.0
        return steps

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)


# ---------------------------------------------------------------------------
# map models: one reader per kind
# ---------------------------------------------------------------------------

_PARAMS = "map.parameters"  # document path of a map model's params


def _require(spec, key: str, path: str):
    """spec[key], or an error naming the document path of the missing entry."""
    if not isinstance(spec, dict) or key not in spec:
        raise ProblemValidationError(f"{path}.{key} is missing")
    return spec[key]


def _mapping(value, path: str) -> dict:
    """value itself if it is a JSON object, else an error naming its document path."""
    if not isinstance(value, dict):
        raise ProblemValidationError(f"{path} must be an object, got {reprlib.repr(value)}")
    return value


def _section(value, path: str, *known: str) -> dict:
    """value as a JSON object with no key outside `known`, else an error naming the path."""
    for key in _mapping(value, path):
        if key not in known:
            raise ProblemValidationError(f"unknown key {path}.{key}; expected {', '.join(known)}")
    return value


def _typed(spec, path: str, keys: dict, default=None, tag: str = "type") -> str:
    """spec[tag], one of `keys`; spec may hold only the tag and the keys listed for it."""
    kind = _mapping(spec, path).get(tag, default)
    if not isinstance(kind, str) or kind not in keys:
        raise ProblemValidationError(
            f"{path}.{tag} must be one of {', '.join(keys)}, got {reprlib.repr(kind)}")
    _section(spec, path, tag, *keys[kind])
    return kind


def _numeric(value, path: str, scalar: bool = False):
    """value as a float (scalar) or a float array, or an error naming its document path.

    Every number a document supplies is converted here, so a malformed one
    fails validation instead of escaping as a numpy or builtin error.  A
    JSON boolean is not a number, at any depth, although Python and numpy
    would convert it to 0.0 or 1.0, nor is a JSON string, although both
    would parse "1e-3".
    """
    try:
        number = float(value) if scalar else np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer beyond floats
        number = None
    if number is not None:
        # the conversion succeeded, so value nests lists exactly ndim deep
        ndim = np.ndim(number)
        leaves = value if ndim else [value]
        for _ in range(ndim - 1):
            leaves = itertools.chain.from_iterable(leaves)
        if {bool, str}.isdisjoint(map(type, leaves)):
            return number
    raise ProblemValidationError(f"{path} must be numeric, got {reprlib.repr(value)}")


def _number(spec, key: str, path: str) -> float:
    return _numeric(_require(spec, key, path), f"{path}.{key}", scalar=True)


def _flag(spec: dict, key: str, path: str, default: bool = False) -> bool:
    value = spec.get(key, default)
    if not isinstance(value, bool):
        raise ProblemValidationError(f"{path}.{key} must be a boolean, got {reprlib.repr(value)}")
    return value


def _note(spec: dict, notes: list) -> None:
    """Append spec's sampling_note to notes, if it has a nonempty one."""
    if spec.get("sampling_note"):
        notes.append(spec["sampling_note"])


def _cloud(value, path: str) -> np.ndarray:
    """value as the (p, m) points of a cloud, or an error naming its document path."""
    points = _numeric(value, path)
    if points.ndim > 2:
        raise ProblemValidationError(f"{path} must be a list of points")
    if points.ndim == 2 and len(points) > MAX_CLOUD_POINTS:
        raise ProblemValidationError(f"{path} holds more than {MAX_CLOUD_POINTS:,} points")
    try:
        return PointCloudSet(points).points
    except ProblemValidationError as exc:  # an empty or non-finite cloud
        raise ProblemValidationError(f"{path}: {exc}") from None


def _one_width(widths: list, paths: list) -> int:
    """The width every cloud of a map shares; else an error naming the first other one."""
    for width, path in zip(widths, paths):
        if width != widths[0]:
            raise ProblemValidationError(
                f"{path} has points of dimension {width}, but {paths[0]} has {widths[0]}")
    return widths[0]


def _stacked_clouds(clouds: list):
    """The clouds of a JSON list stacked into one (R, m) array, read in one pass.

    None unless every entry is a nonempty list of at most MAX_CLOUD_POINTS
    points of one width m >= 1 whose coordinates are finite numbers, which
    are the checks `_cloud` makes of each entry; the caller then reads the
    entries one by one, so that the first failing entry is named.
    """
    if not all(type(cloud) is list and 0 < len(cloud) <= MAX_CLOUD_POINTS for cloud in clouds):
        return None
    rows = list(itertools.chain.from_iterable(clouds))
    try:
        points = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or beyond floats
        return None
    if (points.ndim != 2 or points.shape[1] == 0 or not np.isfinite(points).all()
            or not {bool, str}.isdisjoint(map(type, itertools.chain.from_iterable(rows)))):
        return None
    return points


def _entries(items, path: str, *known: str) -> list[tuple[dict, str]]:
    """(item, its path) per item of the JSON list items; each an object with keys in known."""
    if not isinstance(items, list):
        raise ProblemValidationError(f"{path} must be a list, got {reprlib.repr(items)}")
    return [(_section(item, f"{path}[{i}]", *known), f"{path}[{i}]")
            for i, item in enumerate(items)]


class _StoreTooLarge(ProblemValidationError):
    """Clouds that would hold more points than a problem may store.

    A limit on a whole batch, not the failure of one row, so `first_failure`
    passes it on as it is.
    """


def _starts(sizes: np.ndarray, knobs: str | None = None) -> np.ndarray:
    """Where each cloud starts when clouds of `sizes` points are stacked.

    Given the `knobs`, the document entries that set the sizes, the total
    is checked here, before a batch's stack is allocated.
    """
    total = int(sizes.sum())
    if knobs is not None and total > MAX_CLOUD_POINTS:
        raise _StoreTooLarge(
            f"the clouds at {len(sizes):,} domain points hold {total:,} points in all, more "
            f"than the {MAX_CLOUD_POINTS:,} a problem may store; lower {knobs}")
    return np.cumsum(sizes) - sizes


def _runs(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the runs starts[c], ..., starts[c] + sizes[c] - 1 laid end
    to end, and where each run begins in them: the gather of clouds from a stack."""
    offsets = _starts(sizes)
    return np.arange(int(sizes.sum())) + np.repeat(starts - offsets, sizes), offsets


def _read_point(value, path: str):
    """X -> which rows of X are the document point `value` up to REGION_TOL."""
    target = _numeric(value, path).reshape(-1)
    def at(X: np.ndarray) -> np.ndarray:
        if X.shape[1:] != target.shape:
            return np.zeros(len(X), dtype=bool)
        return fold_columns(np.logical_and, np.abs(X - target) <= REGION_TOL)
    return at


def _read_fn(fn, path: str):
    """t -> the values of one function from the registry of interval bounds at t."""
    kind = _typed(fn, path, {"const": ("c", "offset"), "linear": ("a", "b", "offset"),
                             "quadratic": ("a", "b", "c", "offset"),
                             "inv_linear": ("a", "b", "offset")})
    offset = _numeric(fn.get("offset", 0.0), f"{path}.offset", scalar=True)
    if kind == "const":
        c = _number(fn, "c", path)
        return lambda t: np.full(len(t), c + offset)
    if kind == "quadratic":
        a, b, c = (_number(fn, key, path) for key in ("a", "b", "c"))
        return lambda t: a * t * t + b * t + c + offset
    a, b = _number(fn, "a", path), _number(fn, "b", path)
    if kind == "linear":
        return lambda t: a * t + b + offset
    def inv_linear(t: np.ndarray) -> np.ndarray:
        den = a * t + b
        pole = np.abs(den) < 1e-300
        if pole.any():
            raise ProblemValidationError(f"inv_linear pole at x={float(t[np.argmax(pole)])}")
        return 1.0 / den + offset
    return inv_linear


def _read_bounds(spec: dict, path: str):
    """t -> which entries of t lie within spec's optional lo/hi, widened by REGION_TOL
    unless strict."""
    lo_strict, hi_strict = _flag(spec, "lo_strict", path), _flag(spec, "hi_strict", path)
    lo = hi = None
    if spec.get("lo") is not None:
        lo = _number(spec, "lo", path) + (REGION_TOL if lo_strict else -REGION_TOL)
    if spec.get("hi") is not None:
        hi = _number(spec, "hi", path) + (-REGION_TOL if hi_strict else REGION_TOL)
    def inside(t: np.ndarray) -> np.ndarray:
        keep = np.ones(len(t), dtype=bool)
        if lo is not None:
            keep &= t > lo if lo_strict else t >= lo
        if hi is not None:
            keep &= t < hi if hi_strict else t <= hi
        return keep
    return inside


def _read_pieces(pieces, path: str):
    """t -> per entry of t, the value of the first listed piece whose bounds hold there."""
    read = [(_read_bounds(piece, entry), _read_fn(_require(piece, "fn", entry), f"{entry}.fn"))
            for piece, entry in _entries(pieces, path, "fn", "lo", "hi", "lo_strict", "hi_strict")]
    if not read:
        raise ProblemValidationError(f"{path} needs a nonempty piece list")
    def value(t: np.ndarray) -> np.ndarray:
        out = np.empty(len(t))
        todo = np.ones(len(t), dtype=bool)
        for inside, fn in read:
            rows = np.flatnonzero(todo & inside(t))
            out[rows] = fn(t[rows])
            todo[rows] = False
        if todo.any():
            raise ProblemValidationError(f"no piece covers x={float(t[np.argmax(todo)])}")
        return out
    return value


def _read_where(where, path: str):
    """X -> which rows of X satisfy a region's predicate."""
    kind = _typed(where, path, {"always": (), "eq": ("point",),
                                "interval": ("lo", "hi", "lo_strict", "hi_strict")},
                  default="always")
    if kind == "always":
        return lambda X: np.ones(len(X), dtype=bool)
    if kind == "eq":
        return _read_point(_require(where, "point", path), f"{path}.point")
    inside = _read_bounds(where, path)
    def matches(X: np.ndarray) -> np.ndarray:
        if X.shape[1] != 1:
            raise ProblemValidationError(f"{path}: interval region predicates are 1D only")
        return inside(X[:, 0])
    return matches


def _read_cloud_spec(spec, path: str, notes: list):
    """(X -> the clouds a region assigns to the rows of X, stacked; their size, width)."""
    kind = _typed(spec, path, {"fixed": ("points", "sampling_note"),
                               "affine_point": ("matrix", "offset", "sampling_note")},
                  default="fixed")
    _note(spec, notes)
    if kind == "fixed":
        cloud = _cloud(_require(spec, "points", path), f"{path}.points")
        return lambda X: np.tile(cloud, (len(X), 1)), *cloud.shape
    matrix = _numeric(_require(spec, "matrix", path), f"{path}.matrix")
    offset = _numeric(_require(spec, "offset", path), f"{path}.offset")
    if matrix.ndim != 2 or matrix.size == 0 or offset.shape != matrix.shape[:1]:
        raise ProblemValidationError(f"{path}.matrix must be 2D, one row per {path}.offset entry")
    def affine_point(X: np.ndarray) -> np.ndarray:
        if X.shape[1] != matrix.shape[1]:
            raise ProblemValidationError(f"{path}.matrix has {matrix.shape[1]} columns, but "
                                         f"domain points have dimension {X.shape[1]}")
        # one matrix-vector product per row, as for a single point; a flat
        # product over the batch would round some rows differently
        return (matrix @ X[:, :, None])[:, :, 0] + offset
    return affine_point, 1, len(offset)


# Candidate (row, table point) pairs a table lookup compares at once.
_LOOKUP_BLOCK = 2**16


def _nearest(points: np.ndarray, order: np.ndarray, keys: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per row of X, the first (lowest index) nearest of `points` in the Chebyshev
    distance if that is at most REGION_TOL, else -1.

    A match lies within REGION_TOL of the row on axis 0, so only the points
    whose axis-0 `keys` (sorted by `order`) fall in that window are
    compared; the window is twice as wide, so that rounding its ends never
    drops a match.  Rows are compared in blocks of about _LOOKUP_BLOCK pairs.
    """
    lo = np.searchsorted(keys, X[:, 0] - 2 * REGION_TOL, "left")
    counts = np.searchsorted(keys, X[:, 0] + 2 * REGION_TOL, "right") - lo
    index = np.full(len(X), -1)
    per_block = max(1, _LOOKUP_BLOCK // max(1, int(counts.max())))
    for first in range(0, len(X), per_block):
        block = slice(first, first + per_block)
        c = counts[block]
        if not c.any():
            continue
        row = np.repeat(np.arange(first, first + len(c)), c)
        cand = order[_runs(lo[block], c)[0]]
        dist = np.max(np.abs(points[cand] - X[row]), axis=1)
        pick = np.lexsort((cand, dist, row))  # per row: least distance, then least index
        head = pick[np.r_[True, row[pick][1:] != row[pick][:-1]]]
        head = head[dist[head] <= REGION_TOL]
        index[row[head]] = cand[head]
    return index


def _read_table(params, notes: list):
    _section(params, _PARAMS, "points", "clouds", "sampling_note")
    _note(params, notes)
    pts = np.atleast_2d(_numeric(_require(params, "points", _PARAMS), f"{_PARAMS}.points"))
    clouds = _require(params, "clouds", _PARAMS)
    if pts.ndim != 2 or pts.size == 0 or not isinstance(clouds, list) or len(clouds) != len(pts):
        raise ProblemValidationError(f"table map needs matching {_PARAMS}.points and clouds")
    if np.isnan(pts).any():
        raise ProblemValidationError(f"{_PARAMS}.points must not hold NaN")
    stacked = _stacked_clouds(clouds)
    if stacked is None:  # some entry fails a check, or the widths differ
        paths = [f"{_PARAMS}.clouds[{i}]" for i in range(len(clouds))]
        clouds = [_cloud(cloud, path) for cloud, path in zip(clouds, paths)]
        _one_width([cloud.shape[1] for cloud in clouds], paths)
        stacked = np.concatenate(clouds)
    order = np.argsort(pts[:, 0], kind="stable")
    keys = pts[order, 0]
    sizes = np.array([len(cloud) for cloud in clouds])
    offsets = _starts(sizes)
    def table(X: np.ndarray):
        if X.shape[1:] != pts.shape[1:]:
            raise ProblemValidationError(f"{_PARAMS}.points have dimension {pts.shape[1]}, but "
                                         f"domain points have dimension {X.shape[1]}")
        index = _nearest(pts, order, keys, X)
        if (index < 0).any():
            raise ProblemValidationError(
                f"table map has no entry for x={X[np.argmax(index < 0)].tolist()}")
        starts = _starts(sizes[index], "domain.resolution")
        return stacked.take(_runs(offsets[index], sizes[index])[0], axis=0), starts
    return table, int(sizes.max()), stacked.shape[1]


def _read_constant(params, notes: list):
    _section(params, _PARAMS, "cloud", "sampling_note")
    _note(params, notes)
    cloud = _cloud(_require(params, "cloud", _PARAMS), f"{_PARAMS}.cloud")
    def constant(X: np.ndarray):
        starts = _starts(np.full(len(X), len(cloud)), "domain.resolution")
        return np.tile(cloud, (len(X), 1)), starts
    return constant, *cloud.shape


def _read_interval(params, notes: list):
    _section(params, _PARAMS, "lower", "upper", "sampling_note")
    _note(params, notes)
    lower = _read_pieces(params.get("lower"), f"{_PARAMS}.lower")
    upper = _read_pieces(params.get("upper"), f"{_PARAMS}.upper")
    def interval(X: np.ndarray):
        if X.shape[1] != 1:
            raise ProblemValidationError("interval maps take 1D domain points")
        t = X[:, 0]
        lo, hi = lower(t), upper(t)
        bad = lo > hi + REGION_TOL
        if bad.any():
            i = np.argmax(bad)
            raise ProblemValidationError(f"interval violation: lower {float(lo[i])} > upper "
                                         f"{float(hi[i])} at x={float(t[i])}")
        starts = _starts(np.full(len(X), 2), "domain.resolution")
        return np.stack([lo, hi], axis=1).reshape(-1, 1), starts
    return interval, 2, 1


def _read_ball(params, notes: list):
    _section(params, _PARAMS, "center", "radius", "samples", "sampling_note")
    _note(params, notes)
    radius = _numeric(params.get("radius", 0.0), f"{_PARAMS}.radius", scalar=True)
    samples = _numeric(params.get("samples", 0), f"{_PARAMS}.samples", scalar=True)
    if not (radius > 0.0 and 3 <= samples <= MAX_GRID_POINTS and samples == int(samples)):
        raise ProblemValidationError(f"ball map needs {_PARAMS}.radius > 0 and {_PARAMS}.samples "
                                     f"a whole number from 3 to {MAX_GRID_POINTS:,}")
    # fixed angular lattice starting at angle 0; even counts include pi
    angles = np.arange(int(samples)) * (2.0 * np.pi / int(samples))
    ring = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    def point(value, path: str) -> np.ndarray:
        centre = _numeric(value, path)
        if centre.shape != (2,):
            raise ProblemValidationError(f"{path} must be a 2D point, got {reprlib.repr(value)}")
        return centre

    path = f"{_PARAMS}.center"
    spec = params.get("center", {})
    family = _typed(spec, path, {"abs_components": ("overrides",), "identity": ("overrides",),
                                 "fixed": ("value", "overrides")}, tag="family")
    fixed = point(_require(spec, "value", path), f"{path}.value") if family == "fixed" else None
    read = [(_read_point(_require(override, "at", entry), f"{entry}.at"),
             point(_require(override, "value", entry), f"{entry}.value"))
            for override, entry in _entries(spec.get("overrides", []), f"{path}.overrides",
                                            "at", "value")]
    def ball(X: np.ndarray):
        centres = np.empty((len(X), 2))
        todo = np.ones(len(X), dtype=bool)
        for at, value in read:  # the first matching override wins
            hit = todo & at(X)
            centres[hit] = value
            todo &= ~hit
        if family == "fixed":
            centres[todo] = fixed
        elif todo.any():
            if X.shape[1] != 2:
                raise ProblemValidationError(f"{path}.family {family} needs 2D domain points: "
                                             "ball maps produce 2D image clouds")
            centres[todo] = np.abs(X[todo]) if family == "abs_components" else X[todo]
        starts = _starts(np.full(len(X), len(ring)), f"domain.resolution or {_PARAMS}.samples")
        return (centres[:, None, :] + ring).reshape(-1, 2), starts
    return ball, len(ring), 2


def _read_piecewise(params, notes: list):
    _section(params, _PARAMS, "regions", "sampling_note")
    _note(params, notes)
    regions = _entries(params.get("regions"), f"{_PARAMS}.regions", "where", "cloud")
    read = [(_read_where(region.get("where", {}), f"{path}.where"),
             *_read_cloud_spec(_require(region, "cloud", path), f"{path}.cloud", notes))
            for region, path in regions]
    if not read:
        raise ProblemValidationError(f"piecewise map needs a nonempty {_PARAMS}.regions list")
    sizes = np.array([size for _, _, size, _ in read])
    width = _one_width([width for *_, width in read], [f"{path}.cloud" for _, path in regions])
    def piecewise(X: np.ndarray):
        region = np.full(len(X), -1)
        for k, (where, *_) in enumerate(read):  # the first listed region that holds wins
            todo = np.flatnonzero(region < 0)
            if len(todo):
                region[todo[where(X[todo])]] = k
        if (region < 0).any():
            raise ProblemValidationError(f"no region covers x={X[np.argmax(region < 0)].tolist()}")
        starts = _starts(sizes[region], "domain.resolution")
        points = np.empty((int(sizes[region].sum()), width))
        for k, (_, cloud, _, _) in enumerate(read):
            rows = np.flatnonzero(region == k)
            if len(rows):
                points[_runs(starts[rows], sizes[region[rows]])[0]] = cloud(X[rows])
        return points, starts
    return piecewise, int(sizes.max()), width


# kind -> reader(params, notes): checks and converts params once, appends the
# sampling notes it reads to notes, and returns the evaluator, the most points
# one domain point's cloud can hold, and the dimension m of the R^m every
# cloud lies in; a cloud of another width is rejected here, naming its
# document path.  The evaluator takes an (n, d) batch X and returns the
# clouds at its rows in the store's layout: their points stacked, (R, m),
# and the cloud of row i from starts[i] on.  It works row by row, so a
# row's cloud, or its failure, never depends on the rest of the batch.
_READERS = {"table": _read_table, "constant": _read_constant, "interval": _read_interval,
            "ball": _read_ball, "piecewise": _read_piecewise}


def first_failure(evaluate: Callable, X: np.ndarray):
    """evaluate(X); if that raises, the error evaluate raises on the first failing row of X.

    `evaluate` must work row by row, so that a prefix of X fails exactly
    when it reaches the first failing row, which bisection then finds.
    An error thus names the point, with the message, that evaluating the
    rows one at a time would have stopped at.
    """
    try:
        return evaluate(X)
    except _StoreTooLarge:
        raise
    except SetOptError:
        passing, failing = 0, len(X)  # X[:passing] passes, X[:failing] fails
        while failing - passing > 1:
            middle = (passing + failing) // 2
            try:
                evaluate(X[:middle])
                passing = middle
            except SetOptError:
                failing = middle
        evaluate(X[passing:failing])  # raises the error of row `passing`
        raise


@dataclass(frozen=True)
class MapModel:
    """One of the supported set-valued map kinds plus its parameters.

    Construction reads `params` once, through the reader of `kind`, into
    the batch evaluator that `clouds_at` calls, the image dimension and the
    sampling notes; `params` itself is kept only for writing the document
    back (`to_dict`).
    """

    kind: str
    params: dict
    _evaluate: Callable[[np.ndarray], tuple] = field(init=False, repr=False, compare=False)
    # the most points the cloud of one domain point can hold
    largest_cloud: int = field(init=False, repr=False, compare=False)
    # the m of the R^m every cloud lies in
    dim_image: int = field(init=False, repr=False, compare=False)
    _notes: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reader = _READERS.get(self.kind) if isinstance(self.kind, str) else None
        if reader is None:
            raise ProblemValidationError(f"unknown map kind {reprlib.repr(self.kind)} at "
                                         f"map.kind; expected {', '.join(_READERS)}")
        notes = []
        evaluate, largest, dim = reader(self.params, notes)
        object.__setattr__(self, "_evaluate", evaluate)
        object.__setattr__(self, "largest_cloud", largest)
        object.__setattr__(self, "dim_image", dim)
        object.__setattr__(self, "_notes", tuple(notes))

    @property
    def is_analytic(self) -> bool:
        """Whether the model can be evaluated at arbitrary domain points."""
        return self.kind != "table"

    def clouds_at(self, X) -> tuple[np.ndarray, np.ndarray]:
        """The clouds at the rows of the (n, d) array X, in the store's layout.

        Returns their points stacked, (R, dim_image), and the cloud of row i
        from row starts[i] on.  Each row's cloud is bit for bit the one
        `cloud_at` gives for that row alone.  If some row fails, this
        raises; `first_failure` finds the error of the first one.
        """
        with np.errstate(all="ignore"):  # an overflow ends in a non-finite cloud, rejected below
            points, starts = self._evaluate(np.asarray(X, dtype=float))
        if not np.isfinite(points).all():
            raise ProblemValidationError("point cloud must be finite")
        return points, starts

    def cloud_at(self, x) -> PointCloudSet:
        return PointCloudSet(self.clouds_at(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def sampling_notes(self) -> list[str]:
        """All sampling notes declared anywhere in the parameters, the map's only record
        of them."""
        return list(self._notes)

    def to_dict(self) -> dict:
        # a plain-JSON copy, so the document written back shares nothing with params
        return {"kind": self.kind, "parameters": json.loads(json.dumps(self.params))}


def _magnitudes(cone: ConeSpec, points: np.ndarray, starts: np.ndarray, X: np.ndarray,
                where: str) -> tuple[np.ndarray, np.ndarray]:
    """Per cloud of a stack, the maxima of |w_j| . |p| and the bound on |psi| over it.

    Twice every |p|, every |w| . |p| and every |w| . |p| / <w, q> must
    stay finite, so that point differences, scores, score differences and
    psi with its rounding slack cannot overflow; else this raises, naming
    the row of X (a `where`) of the first cloud that does not.
    """
    abs_points = np.abs(points)
    with np.errstate(over="ignore"):
        mags = np.maximum.reduceat(abs_points @ np.abs(cone.dual_generators).T, starts)
        psi_bounds = fold_columns(np.maximum, mags / cone._unit_scores)
    coords = fold_columns(np.maximum, np.maximum.reduceat(abs_points, starts))
    half = np.finfo(float).max / 2
    large = np.maximum(np.maximum(fold_columns(np.maximum, mags), coords), psi_bounds) > half
    if large.any():
        raise ProblemValidationError(
            f"map value at {where} {X[np.argmax(large)].tolist()} is too large: coordinates, "
            f"generator scores and generator scores over <w, q> must not exceed {half:g}")
    return mags, psi_bounds


@dataclass
class SetValuedProblem:
    """A full instance: grid, map model, cone, tolerances, asserted flags.

    The store: the clouds' rows stacked in grid order in `cloud_points`,
    cloud i from row `cloud_starts[i]`, viewed alone as `cloud(i)`; the
    generator scores <w_j, p> of those rows in `cloud_scores`, and from
    `_magnitudes`, per cloud the maximum of |w_j| . |p| in
    `cloud_magnitudes` and the bound on |psi| in `cloud_psi_bounds`.
    Instances are immutable by convention after construction; the private
    cache holds derived artifacts (scalar field, efficient sets, gap
    report, off-grid scalar values).
    """

    grid: DomainGrid
    map_model: MapModel
    cone: ConeSpec
    tolerances: Tolerances = field(default_factory=Tolerances)
    flags: Flags = field(default_factory=Flags)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    cloud_points: np.ndarray = field(init=False, repr=False, compare=False)
    cloud_starts: np.ndarray = field(init=False, repr=False, compare=False)
    cloud_scores: np.ndarray = field(init=False, repr=False, compare=False)
    cloud_magnitudes: np.ndarray = field(init=False, repr=False, compare=False)
    cloud_psi_bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every grid point must produce a valid cloud, in the cone's image space;
        # the space is compared after the build, so a failing row is named first
        self.cloud_points, self.cloud_starts = first_failure(self.map_model.clouds_at,
                                                             self.grid.points)
        dim, cone_dim = self.map_model.dim_image, self.cone.dim_image
        if dim != cone_dim:
            raise ProblemValidationError(
                f"map image dimension {dim} does not match cone dimension {cone_dim}")
        self.cloud_magnitudes, self.cloud_psi_bounds = _magnitudes(
            self.cone, self.cloud_points, self.cloud_starts, self.grid.points, "grid point")
        self.cloud_scores = self.cloud_points @ self.cone.dual_generators.T

    def cloud(self, i: int) -> np.ndarray:
        """The points of the cloud at grid index i, a view of `cloud_points`."""
        starts = self.cloud_starts
        return self.cloud_points[starts[i]: starts[i + 1] if i + 1 < len(starts) else None]


def evaluate(problem: SetValuedProblem, x) -> PointCloudSet:
    """The stored cloud of a grid point x."""
    return PointCloudSet(problem.cloud(problem.grid.locate(x)))


def evaluate_at(problem: SetValuedProblem, x) -> PointCloudSet:
    """Evaluate the map at an arbitrary point; analytic kinds only."""
    if not problem.map_model.is_analytic:
        raise ProblemValidationError("table maps cannot be evaluated off the grid")
    return problem.map_model.cloud_at(x)


def build_problem(doc: dict) -> SetValuedProblem:
    """Construct and validate a problem from a problem document."""
    _section(doc, "document", "schema_version", "cone", "domain", "map", "tolerances", "flags")
    version = str(doc.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ProblemValidationError(f"unrecognized schema_version {version!r}")

    # a scal_tol key, which no computation ever read, is accepted and ignored
    tol_doc = _section(doc.get("tolerances", {}), "tolerances", "cone_tol", "tie_tol", "scal_tol")
    cone_tol = _tolerance("cone_tol", _numeric(tol_doc.get("cone_tol", DEFAULT_CONE_TOL),
                                               "tolerances.cone_tol", scalar=True))
    tolerances = Tolerances(
        tie_tol=_numeric(tol_doc.get("tie_tol", 1e-9), "tolerances.tie_tol", scalar=True))

    if "cone" not in doc:
        raise ProblemValidationError("problem document needs a cone section")
    cone_doc = _section(doc["cone"], "cone", "dual_generators", "q")
    generators = _require(cone_doc, "dual_generators", "cone")
    cone = ConeSpec(_numeric(generators, "cone.dual_generators"),
                    _numeric(_require(cone_doc, "q", "cone"), "cone.q"), cone_tol)

    domain = _mapping(doc.get("domain", {}), "domain")
    has_points = "points" in domain
    has_box = "box" in domain
    if has_points == has_box:
        raise ProblemValidationError("domain needs exactly one of points or box")
    if has_points:
        _section(domain, "domain", "points")
        pts = _numeric(domain["points"], "domain.points")
        if pts.ndim == 1:
            pts = pts[:, None]
        grid = DomainGrid(pts)
    else:
        _section(domain, "domain", "box", "resolution")
        resolution = _require(domain, "resolution", "domain")
        grid = DomainGrid.from_box(_numeric(domain["box"], "domain.box"),
                                   _numeric(resolution, "domain.resolution"))

    map_doc = _section(doc.get("map", {}), "map", "kind", "parameters")
    map_model = MapModel(kind=map_doc.get("kind", ""), params=map_doc.get("parameters", {}))

    flags_doc = _section(doc.get("flags", {}), "flags", "K_q_set")
    flags = Flags(k_q_set=_flag(flags_doc, "K_q_set", "flags", default=True))

    return SetValuedProblem(grid=grid, map_model=map_model, cone=cone,
                            tolerances=tolerances, flags=flags)


def to_document(problem: SetValuedProblem) -> dict:
    """Serialize a problem back to its document form."""
    if problem.grid.box is not None and problem.grid.resolution is not None:
        domain = {"box": problem.grid.box.tolist(),
                  "resolution": list(problem.grid.resolution)}
    else:
        domain = {"points": problem.grid.points.tolist()}
    return {
        "schema_version": SCHEMA_VERSION,
        "cone": problem.cone.to_dict(),
        "domain": domain,
        "map": problem.map_model.to_dict(),
        "tolerances": {"cone_tol": problem.cone.cone_tol, "tie_tol": problem.tolerances.tie_tol},
        "flags": problem.flags.to_dict(),
    }
