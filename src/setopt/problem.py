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
their document path, and returns the evaluator that `cloud_at` calls.
The raw parameters are kept only for writing the document back.

Building a problem evaluates the map once per grid point into the store
that every grid-side layer reads instead of evaluating again.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeSpec
from .errors import DimensionMismatchError, ProblemValidationError
from .setrel import PointCloudSet

# Absolute slack for matching grid points and for region boundaries.
# Non-strict piece bounds absorb this band so that grid points produced
# by linspace with ~1e-16 noise land on their intended branch.
REGION_TOL = 1e-9

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Tolerances:
    cone_tol: float = 1e-12
    tie_tol: float = 1e-9

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not 0.0 < value < np.inf:
                raise ProblemValidationError(
                    f"tolerances.{name} must be finite and positive, got {value!r}")

    def to_dict(self) -> dict:
        return {"cone_tol": self.cone_tol, "tie_tol": self.tie_tol}


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
        if not np.isfinite(pts).all():
            raise ProblemValidationError("grid points must be finite")
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
        if box.ndim != 2 or box.shape[1] != 2 or len(resolution) != box.shape[0]:
            raise ProblemValidationError("box and resolution must agree per axis")
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
    fails validation instead of escaping as a numpy or builtin error.
    """
    try:
        return float(value) if scalar else np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ProblemValidationError(f"{path} must be numeric, got {reprlib.repr(value)}")


def _number(spec, key: str, path: str) -> float:
    return _numeric(_require(spec, key, path), f"{path}.{key}", scalar=True)


def _flag(spec: dict, key: str, path: str, default: bool = False) -> bool:
    value = spec.get(key, default)
    if not isinstance(value, bool):
        raise ProblemValidationError(f"{path}.{key} must be a boolean, got {reprlib.repr(value)}")
    return value


def _note(spec: dict, notes: list):
    """spec's sampling_note; a nonempty one is also appended to notes."""
    note = spec.get("sampling_note")
    if note:
        notes.append(note)
    return note


def _cloud(value, path: str, note) -> PointCloudSet:
    points = _numeric(value, path)
    if points.ndim > 2:
        raise ProblemValidationError(f"{path} must be a list of points")
    try:
        return PointCloudSet(points, sampling_note=note)
    except ProblemValidationError as exc:  # an empty or non-finite cloud
        raise ProblemValidationError(f"{path}: {exc}") from None


def _entries(items, path: str, *known: str) -> list[tuple[dict, str]]:
    """(item, its path) per item of the JSON list items; each an object with keys in known."""
    if not isinstance(items, list):
        raise ProblemValidationError(f"{path} must be a list, got {reprlib.repr(items)}")
    return [(_section(item, f"{path}[{i}]", *known), f"{path}[{i}]")
            for i, item in enumerate(items)]


def _read_point(value, path: str):
    """x -> whether x is the document point `value` up to REGION_TOL."""
    target = _numeric(value, path).reshape(-1)
    return lambda x: target.shape == x.shape and bool(np.max(np.abs(x - target)) <= REGION_TOL)


def _read_fn(fn, path: str):
    """t -> value of one function from the registry of interval bounds."""
    kind = _typed(fn, path, {"const": ("c", "offset"), "linear": ("a", "b", "offset"),
                             "quadratic": ("a", "b", "c", "offset"),
                             "inv_linear": ("a", "b", "offset")})
    offset = _numeric(fn.get("offset", 0.0), f"{path}.offset", scalar=True)
    if kind == "const":
        c = _number(fn, "c", path)
        return lambda t: c + offset
    if kind == "quadratic":
        a, b, c = (_number(fn, key, path) for key in ("a", "b", "c"))
        return lambda t: a * t * t + b * t + c + offset
    a, b = _number(fn, "a", path), _number(fn, "b", path)
    if kind == "linear":
        return lambda t: a * t + b + offset
    def inv_linear(t: float) -> float:
        den = a * t + b
        if abs(den) < 1e-300:
            raise ProblemValidationError(f"inv_linear pole at x={t}")
        return 1.0 / den + offset
    return inv_linear


def _read_bounds(spec: dict, path: str):
    """t -> whether t is within spec's optional lo/hi, widened by REGION_TOL unless strict."""
    lo_strict, hi_strict = _flag(spec, "lo_strict", path), _flag(spec, "hi_strict", path)
    lo = hi = None
    if spec.get("lo") is not None:
        lo = _number(spec, "lo", path) + (REGION_TOL if lo_strict else -REGION_TOL)
    if spec.get("hi") is not None:
        hi = _number(spec, "hi", path) + (-REGION_TOL if hi_strict else REGION_TOL)
    return lambda t: ((lo is None or (t > lo if lo_strict else t >= lo))
                      and (hi is None or (t < hi if hi_strict else t <= hi)))


def _read_pieces(pieces, path: str):
    """t -> the value of the first listed piece whose bounds hold at t."""
    read = [(_read_bounds(piece, entry), _read_fn(_require(piece, "fn", entry), f"{entry}.fn"))
            for piece, entry in _entries(pieces, path, "fn", "lo", "hi", "lo_strict", "hi_strict")]
    if not read:
        raise ProblemValidationError(f"{path} needs a nonempty piece list")
    def value(t: float) -> float:
        for inside, fn in read:
            if inside(t):
                return fn(t)
        raise ProblemValidationError(f"no piece covers x={t}")
    return value


def _read_where(where, path: str):
    """x -> whether a region's predicate holds at x."""
    kind = _typed(where, path, {"always": (), "eq": ("point",),
                                "interval": ("lo", "hi", "lo_strict", "hi_strict")},
                  default="always")
    if kind == "always":
        return lambda x: True
    if kind == "eq":
        return _read_point(_require(where, "point", path), f"{path}.point")
    inside = _read_bounds(where, path)
    def matches(x: np.ndarray) -> bool:
        if x.shape[0] != 1:
            raise ProblemValidationError(f"{path}: interval region predicates are 1D only")
        return inside(float(x[0]))
    return matches


def _read_cloud_spec(spec, path: str, notes: list):
    """x -> the cloud a region assigns to x."""
    kind = _typed(spec, path, {"fixed": ("points", "sampling_note"),
                               "affine_point": ("matrix", "offset", "sampling_note")},
                  default="fixed")
    note = _note(spec, notes)
    if kind == "fixed":
        cloud = _cloud(_require(spec, "points", path), f"{path}.points", note)
        return lambda x: cloud
    matrix = _numeric(_require(spec, "matrix", path), f"{path}.matrix")
    offset = _numeric(_require(spec, "offset", path), f"{path}.offset")
    if matrix.ndim != 2 or matrix.size == 0 or offset.shape != matrix.shape[:1]:
        raise ProblemValidationError(f"{path}.matrix must be 2D, one row per {path}.offset entry")
    def affine_point(x: np.ndarray) -> PointCloudSet:
        if x.shape[0] != matrix.shape[1]:
            raise ProblemValidationError(f"{path}.matrix has {matrix.shape[1]} columns, but "
                                         f"domain points have dimension {x.shape[0]}")
        return PointCloudSet((matrix @ x + offset)[None, :])
    return affine_point


def _read_table(params, notes: list):
    _section(params, _PARAMS, "points", "clouds", "sampling_note")
    note = _note(params, notes)
    pts = np.atleast_2d(_numeric(_require(params, "points", _PARAMS), f"{_PARAMS}.points"))
    clouds = _require(params, "clouds", _PARAMS)
    if pts.ndim != 2 or pts.size == 0 or not isinstance(clouds, list) or len(clouds) != len(pts):
        raise ProblemValidationError(f"table map needs matching {_PARAMS}.points and clouds")
    clouds = [_cloud(cloud, f"{_PARAMS}.clouds[{i}]", note) for i, cloud in enumerate(clouds)]
    def lookup(x: np.ndarray) -> PointCloudSet:
        if x.shape != pts.shape[1:]:
            raise ProblemValidationError(f"{_PARAMS}.points have dimension {pts.shape[1]}, but "
                                         f"domain points have dimension {x.shape[0]}")
        dists = np.max(np.abs(pts - x), axis=1)
        idx = int(np.argmin(dists))
        if dists[idx] > REGION_TOL:
            raise ProblemValidationError(f"table map has no entry for x={x.tolist()}")
        return clouds[idx]
    return lookup


def _read_constant(params, notes: list):
    _section(params, _PARAMS, "cloud", "sampling_note")
    cloud = _cloud(_require(params, "cloud", _PARAMS), f"{_PARAMS}.cloud", _note(params, notes))
    return lambda x: cloud


def _read_interval(params, notes: list):
    _section(params, _PARAMS, "lower", "upper", "sampling_note")
    _note(params, notes)
    lower = _read_pieces(params.get("lower"), f"{_PARAMS}.lower")
    upper = _read_pieces(params.get("upper"), f"{_PARAMS}.upper")
    def interval(x: np.ndarray) -> PointCloudSet:
        if x.shape[0] != 1:
            raise ProblemValidationError("interval maps take 1D domain points")
        t = float(x[0])
        lo, hi = lower(t), upper(t)
        if lo > hi + REGION_TOL:
            raise ProblemValidationError(f"interval violation: lower {lo} > upper {hi} at x={t}")
        return PointCloudSet(np.array([[lo], [hi]]))
    return interval


def _read_ball(params, notes: list):
    _section(params, _PARAMS, "center", "radius", "samples", "sampling_note")
    _note(params, notes)
    radius = _numeric(params.get("radius", 0.0), f"{_PARAMS}.radius", scalar=True)
    samples = _numeric(params.get("samples", 0), f"{_PARAMS}.samples", scalar=True)
    if not (radius > 0.0 and 3 <= samples < np.inf and samples == int(samples)):
        raise ProblemValidationError(f"ball map needs {_PARAMS}.radius > 0 and "
                                     f"{_PARAMS}.samples a whole number >= 3")
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
    def ball(x: np.ndarray) -> PointCloudSet:
        for at, value in read:
            if at(x):
                return PointCloudSet(value + ring)
        centre = fixed if family == "fixed" else np.abs(x) if family == "abs_components" else x
        if centre.shape[0] != 2:
            raise ProblemValidationError(f"{path}.family {family} needs 2D domain points: "
                                         "ball maps produce 2D image clouds")
        return PointCloudSet(centre + ring)
    return ball


def _read_piecewise(params, notes: list):
    _section(params, _PARAMS, "regions", "sampling_note")
    _note(params, notes)
    read = [(_read_where(region.get("where", {}), f"{path}.where"),
             _read_cloud_spec(_require(region, "cloud", path), f"{path}.cloud", notes))
            for region, path in _entries(params.get("regions"), f"{_PARAMS}.regions",
                                         "where", "cloud")]
    if not read:
        raise ProblemValidationError(f"piecewise map needs a nonempty {_PARAMS}.regions list")
    def piecewise(x: np.ndarray) -> PointCloudSet:
        for where, cloud in read:  # the first listed region that holds wins
            if where(x):
                return cloud(x)
        raise ProblemValidationError(f"no region covers x={x.tolist()}")
    return piecewise


# kind -> reader(params, notes): checks and converts params once, appends the
# sampling notes it reads to notes, and returns the evaluator x -> cloud
_READERS = {"table": _read_table, "constant": _read_constant, "interval": _read_interval,
            "ball": _read_ball, "piecewise": _read_piecewise}


@dataclass(frozen=True)
class MapModel:
    """One of the supported set-valued map kinds plus its parameters.

    Construction reads `params` once, through the reader of `kind`, into
    the evaluator that `cloud_at` calls and the sampling notes; `params`
    itself is kept only for writing the document back (`to_dict`).
    """

    kind: str
    params: dict
    _evaluate: Callable[[np.ndarray], PointCloudSet] = field(init=False, repr=False, compare=False)
    _notes: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reader = _READERS.get(self.kind) if isinstance(self.kind, str) else None
        if reader is None:
            raise ProblemValidationError(f"unknown map kind {reprlib.repr(self.kind)} at "
                                         f"map.kind; expected {', '.join(_READERS)}")
        notes = []
        object.__setattr__(self, "_evaluate", reader(self.params, notes))
        object.__setattr__(self, "_notes", tuple(notes))

    @property
    def is_analytic(self) -> bool:
        """Whether the model can be evaluated at arbitrary domain points."""
        return self.kind != "table"

    def cloud_at(self, x) -> PointCloudSet:
        return self._evaluate(np.asarray(x, dtype=float).reshape(-1))

    def sampling_notes(self) -> list[str]:
        """All sampling notes declared anywhere in the parameters."""
        return list(self._notes)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "parameters": jsonable(self.params)}


def jsonable(obj):
    """obj with numpy arrays and scalars replaced by plain JSON values."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


@dataclass
class SetValuedProblem:
    """A full instance: grid, map model, cone, tolerances, asserted flags.

    The store: `clouds` in grid order, and their rows stacked in
    `cloud_points`, cloud i from row `cloud_starts[i]`.  Instances are
    immutable by convention after construction; the private cache holds
    derived artifacts (generator scores, scalar field, domination matrix,
    off-grid scalar values).
    """

    grid: DomainGrid
    map_model: MapModel
    cone: ConeSpec
    tolerances: Tolerances = field(default_factory=Tolerances)
    flags: Flags = field(default_factory=Flags)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    clouds: list[PointCloudSet] = field(init=False, repr=False, compare=False)
    cloud_points: np.ndarray = field(init=False, repr=False, compare=False)
    cloud_starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every grid point must produce a valid cloud of the cone's image dimension
        self.clouds = []
        for x in self.grid.points:
            cloud = self.map_model.cloud_at(x)
            if cloud.dim != self.cone.dim_image:
                raise ProblemValidationError(
                    f"map image dimension {cloud.dim} does not match cone "
                    f"dimension {self.cone.dim_image}"
                )
            self.clouds.append(cloud)
        sizes = np.array([len(c) for c in self.clouds])
        self.cloud_points = np.concatenate([c.points for c in self.clouds])
        self.cloud_starts = np.cumsum(sizes) - sizes

    def cloud_scores(self) -> np.ndarray:
        """(R, k) scores <w_j, b> of the stored points, computed on first use.

        Not at construction, since scores can overflow where points do not.
        """
        scores = self._cache.get("cloud_scores")
        if scores is None:
            scores = self._cache["cloud_scores"] = self.cloud_points @ self.cone.dual_generators.T
        return scores


def evaluate(problem: SetValuedProblem, x) -> PointCloudSet:
    """The stored cloud of a grid point x."""
    return problem.clouds[problem.grid.locate(x)]


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
    tolerances = Tolerances(
        cone_tol=_numeric(tol_doc.get("cone_tol", 1e-12), "tolerances.cone_tol", scalar=True),
        tie_tol=_numeric(tol_doc.get("tie_tol", 1e-9), "tolerances.tie_tol", scalar=True),
    )

    if "cone" not in doc:
        raise ProblemValidationError("problem document needs a cone section")
    cone_doc = _section(doc["cone"], "cone", "dual_generators", "q")
    generators = _require(cone_doc, "dual_generators", "cone")
    cone = ConeSpec(_numeric(generators, "cone.dual_generators"),
                    _numeric(_require(cone_doc, "q", "cone"), "cone.q"), tolerances.cone_tol)

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
        "tolerances": problem.tolerances.to_dict(),
        "flags": problem.flags.to_dict(),
    }
