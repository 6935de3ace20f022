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

Building a problem evaluates the map once per grid point into the store
that every grid-side layer reads instead of evaluating again.
"""

from __future__ import annotations

import reprlib
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
        if min(self.cone_tol, self.tie_tol) <= 0.0:
            raise ProblemValidationError("tolerances must be positive")

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
        resolution = [int(r) for r in np.atleast_1d(resolution)]
        if box.ndim != 2 or box.shape[1] != 2 or len(resolution) != box.shape[0]:
            raise ProblemValidationError("box and resolution must agree per axis")
        if any(r < 2 for r in resolution):
            raise ProblemValidationError("resolution must be at least 2 per axis")
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
# scalar function registry for interval maps
# ---------------------------------------------------------------------------

# the coefficients each function type reads; every type takes an optional offset
_FN_TYPES = {"const": ("c",), "linear": ("a", "b"), "quadratic": ("a", "b", "c"),
             "inv_linear": ("a", "b")}


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


def _eval_fn(fn: dict, x: float) -> float:
    kind = fn["type"]
    offset = float(fn.get("offset", 0.0))
    if kind == "const":
        return float(fn["c"]) + offset
    if kind == "linear":
        return float(fn["a"]) * x + float(fn["b"]) + offset
    if kind == "quadratic":
        return float(fn["a"]) * x * x + float(fn["b"]) * x + float(fn["c"]) + offset
    if kind == "inv_linear":
        den = float(fn["a"]) * x + float(fn["b"])
        if abs(den) < 1e-300:
            raise ProblemValidationError(f"inv_linear pole at x={x}")
        return 1.0 / den + offset
    raise ProblemValidationError(f"unknown function type {kind!r}")


def _validate_fn(fn, path: str) -> None:
    if not isinstance(fn, dict) or fn.get("type") not in _FN_TYPES:
        raise ProblemValidationError(f"{path} needs a type in {sorted(_FN_TYPES)}")
    for key in _FN_TYPES[fn["type"]] + (("offset",) if "offset" in fn else ()):
        _number(fn, key, path)


def _bound_ok(x: float, piece: dict) -> bool:
    lo, hi = piece.get("lo"), piece.get("hi")
    if lo is not None:
        if piece.get("lo_strict", False):
            if not x > float(lo) + REGION_TOL:
                return False
        elif not x >= float(lo) - REGION_TOL:
            return False
    if hi is not None:
        if piece.get("hi_strict", False):
            if not x < float(hi) - REGION_TOL:
                return False
        elif not x <= float(hi) + REGION_TOL:
            return False
    return True


def _eval_pieces(pieces: list[dict], x: float) -> float:
    # ties between overlapping pieces go to the first listed
    for piece in pieces:
        if _bound_ok(x, piece):
            return _eval_fn(piece["fn"], x)
    raise ProblemValidationError(f"no piece covers x={x}")


def _validate_pieces(pieces, path: str) -> None:
    if not isinstance(pieces, list) or not pieces:
        raise ProblemValidationError(f"{path} needs a nonempty piece list")
    for i, piece in enumerate(pieces):
        _validate_fn(_require(piece, "fn", f"{path}[{i}]"), f"{path}[{i}].fn")
        _validate_bounds(piece, f"{path}[{i}]")


def _validate_bounds(spec: dict, path: str) -> None:
    for key in ("lo", "hi"):
        if spec.get(key) is not None:
            _number(spec, key, path)


# ---------------------------------------------------------------------------
# map models
# ---------------------------------------------------------------------------

_MAP_KINDS = {"table", "constant", "interval", "ball", "piecewise"}
_PARAMS = "map.parameters"  # document path of a map model's params
_CENTER_FAMILIES = {"abs_components", "identity", "fixed"}
_CLOUD_SPEC_KEYS = {"fixed": ("points",), "affine_point": ("matrix", "offset")}


def _circle(samples: int) -> np.ndarray:
    # fixed angular lattice starting at angle 0; even counts include pi
    angles = np.arange(samples) * (2.0 * np.pi / samples)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _ball_center(value, path: str) -> None:
    if _numeric(value, path).shape != (2,):
        raise ProblemValidationError(f"{path} must be a 2D point, got {reprlib.repr(value)}")


def _match_point(x: np.ndarray, target, atol: float = REGION_TOL) -> bool:
    target = np.asarray(target, dtype=float).reshape(-1)
    return target.shape == x.shape and bool(np.max(np.abs(x - target)) <= atol)


def _region_matches(region: dict, x: np.ndarray) -> bool:
    kind = region.get("type", "always")
    if kind == "always":
        return True
    if kind == "eq":
        return _match_point(x, region["point"])
    if kind == "interval":
        if x.shape[0] != 1:
            raise ProblemValidationError("interval region predicates are 1D only")
        return _bound_ok(float(x[0]), region)
    raise ProblemValidationError(f"unknown region type {kind!r}")


def _validate_region(region, path: str) -> None:
    region = _mapping(region, path)
    where = _mapping(region.get("where", {}), f"{path}.where")
    if where.get("type") == "eq":
        _numeric(_require(where, "point", f"{path}.where"), f"{path}.where.point")
    elif where.get("type") == "interval":
        _validate_bounds(where, f"{path}.where")
    spec = _mapping(_require(region, "cloud", path), f"{path}.cloud")
    kind = spec.get("type", "fixed")
    for key in _CLOUD_SPEC_KEYS.get(kind, ()) if isinstance(kind, str) else ():
        _numeric(_require(spec, key, f"{path}.cloud"), f"{path}.cloud.{key}")


def _cloud_from_spec(spec: dict, x: np.ndarray) -> PointCloudSet:
    kind = spec.get("type", "fixed")
    if kind == "fixed":
        return PointCloudSet(np.asarray(spec["points"], dtype=float),
                             sampling_note=spec.get("sampling_note"))
    if kind == "affine_point":
        a = np.asarray(spec["matrix"], dtype=float)
        b = np.asarray(spec["offset"], dtype=float)
        return PointCloudSet((a @ x + b)[None, :])
    raise ProblemValidationError(f"unknown cloud spec type {kind!r}")


@dataclass(frozen=True)
class MapModel:
    """One of the supported set-valued map kinds plus its parameters."""

    kind: str
    params: dict
    # table kind only: its points and clouds as float arrays, converted once
    _table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _MAP_KINDS:
            raise ProblemValidationError(f"unknown map kind {self.kind!r}")
        _mapping(self.params, _PARAMS)
        getattr(self, f"_validate_{self.kind}")()

    # -- validation per kind ------------------------------------------------

    def _validate_table(self):
        pts = np.atleast_2d(_numeric(self.params.get("points", []), f"{_PARAMS}.points"))
        clouds = self.params.get("clouds", [])
        if pts.size == 0 or not isinstance(clouds, list) or len(clouds) != len(pts):
            raise ProblemValidationError("table map needs matching points and clouds")
        clouds = [_numeric(c, f"{_PARAMS}.clouds[{i}]") for i, c in enumerate(clouds)]
        object.__setattr__(self, "_table", (pts, clouds))

    def _validate_constant(self):
        PointCloudSet(_numeric(_require(self.params, "cloud", _PARAMS), f"{_PARAMS}.cloud"))

    def _validate_interval(self):
        _validate_pieces(self.params.get("lower"), f"{_PARAMS}.lower")
        _validate_pieces(self.params.get("upper"), f"{_PARAMS}.upper")

    def _validate_ball(self):
        radius = _numeric(self.params.get("radius", 0.0), f"{_PARAMS}.radius", scalar=True)
        samples = _numeric(self.params.get("samples", 0), f"{_PARAMS}.samples", scalar=True)
        if not (radius > 0.0 and 3 <= samples < np.inf):
            raise ProblemValidationError("ball map needs radius > 0 and samples >= 3")
        path = f"{_PARAMS}.center"
        center = _mapping(self.params.get("center", {}), path)
        if center.get("family") not in _CENTER_FAMILIES:
            raise ProblemValidationError(
                f"ball center family must be one of {sorted(_CENTER_FAMILIES)}"
            )
        if center["family"] == "fixed":
            _ball_center(_require(center, "value", path), f"{path}.value")
        overrides = center.get("overrides", [])
        if not isinstance(overrides, list):
            raise ProblemValidationError(f"{path}.overrides must be a list")
        for i, override in enumerate(overrides):
            entry = f"{path}.overrides[{i}]"
            _numeric(_require(override, "at", entry), f"{entry}.at")
            _ball_center(_require(override, "value", entry), f"{entry}.value")

    def _validate_piecewise(self):
        regions = self.params.get("regions")
        if not isinstance(regions, list) or not regions:
            raise ProblemValidationError("piecewise map needs a nonempty region list")
        for i, region in enumerate(regions):
            _validate_region(region, f"{_PARAMS}.regions[{i}]")

    # -- evaluation ----------------------------------------------------------

    @property
    def is_analytic(self) -> bool:
        """Whether the model can be evaluated at arbitrary domain points."""
        return self.kind != "table"

    def cloud_at(self, x) -> PointCloudSet:
        x = np.asarray(x, dtype=float).reshape(-1)
        return getattr(self, f"_cloud_{self.kind}")(x)

    def _cloud_table(self, x: np.ndarray) -> PointCloudSet:
        pts, clouds = self._table
        dists = np.max(np.abs(pts - x), axis=1)
        idx = int(np.argmin(dists))
        if dists[idx] > REGION_TOL:
            raise ProblemValidationError(f"table map has no entry for x={x.tolist()}")
        return PointCloudSet(clouds[idx], sampling_note=self.params.get("sampling_note"))

    def _cloud_constant(self, x: np.ndarray) -> PointCloudSet:
        return PointCloudSet(np.asarray(self.params["cloud"], dtype=float),
                             sampling_note=self.params.get("sampling_note"))

    def _cloud_interval(self, x: np.ndarray) -> PointCloudSet:
        if x.shape[0] != 1:
            raise ProblemValidationError("interval maps take 1D domain points")
        t = float(x[0])
        lo = _eval_pieces(self.params["lower"], t)
        hi = _eval_pieces(self.params["upper"], t)
        if lo > hi + REGION_TOL:
            raise ProblemValidationError(f"interval violation: lower {lo} > upper {hi} at x={t}")
        return PointCloudSet(np.array([[lo], [hi]]))

    def _cloud_ball(self, x: np.ndarray) -> PointCloudSet:
        center_spec = self.params["center"]
        center = None
        for override in center_spec.get("overrides", []):
            if _match_point(x, override["at"]):
                center = np.asarray(override["value"], dtype=float)
                break
        if center is None:
            family = center_spec["family"]
            if family == "abs_components":
                center = np.abs(x)
            elif family == "identity":
                center = x.copy()
            else:  # fixed
                center = np.asarray(center_spec["value"], dtype=float)
        if center.shape[0] != 2:
            raise ProblemValidationError("ball maps produce 2D image clouds")
        ring = center + float(self.params["radius"]) * _circle(int(float(self.params["samples"])))
        return PointCloudSet(ring)

    def _cloud_piecewise(self, x: np.ndarray) -> PointCloudSet:
        for region in self.params["regions"]:
            if _region_matches(region.get("where", {"type": "always"}), x):
                return _cloud_from_spec(region["cloud"], x)
        raise ProblemValidationError(f"no region covers x={x.tolist()}")

    def sampling_notes(self) -> list[str]:
        """All sampling notes declared anywhere in the parameters."""
        notes = []
        if self.params.get("sampling_note"):
            notes.append(self.params["sampling_note"])
        for region in self.params.get("regions", []):
            note = region.get("cloud", {}).get("sampling_note")
            if note:
                notes.append(note)
        return notes

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
    if not isinstance(doc, dict):
        raise ProblemValidationError("problem document must be a mapping")
    version = str(doc.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ProblemValidationError(f"unrecognized schema_version {version!r}")

    # a scal_tol key, which no computation ever read, is accepted and ignored
    tol_doc = _mapping(doc.get("tolerances", {}), "tolerances")
    tolerances = Tolerances(
        cone_tol=_numeric(tol_doc.get("cone_tol", 1e-12), "tolerances.cone_tol", scalar=True),
        tie_tol=_numeric(tol_doc.get("tie_tol", 1e-9), "tolerances.tie_tol", scalar=True),
    )

    if "cone" not in doc:
        raise ProblemValidationError("problem document needs a cone section")
    cone_doc = _mapping(doc["cone"], "cone")
    generators = _require(cone_doc, "dual_generators", "cone")
    cone = ConeSpec(_numeric(generators, "cone.dual_generators"),
                    _numeric(_require(cone_doc, "q", "cone"), "cone.q"), tolerances.cone_tol)

    domain = _mapping(doc.get("domain", {}), "domain")
    has_points = "points" in domain
    has_box = "box" in domain
    if has_points == has_box:
        raise ProblemValidationError("domain needs exactly one of points or box")
    if has_points:
        pts = _numeric(domain["points"], "domain.points")
        if pts.ndim == 1:
            pts = pts[:, None]
        grid = DomainGrid(pts)
    else:
        resolution = _require(domain, "resolution", "domain")
        grid = DomainGrid.from_box(_numeric(domain["box"], "domain.box"),
                                   _numeric(resolution, "domain.resolution"))

    map_doc = _mapping(doc.get("map", {}), "map")
    map_model = MapModel(kind=map_doc.get("kind", ""), params=map_doc.get("parameters", {}))

    flags_doc = _mapping(doc.get("flags", {}), "flags")
    flags = Flags(k_q_set=bool(flags_doc.get("K_q_set", True)))

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
