"""Numerical checkers for the existence-theorem hypotheses.

All verdicts are evidence at a stated resolution, never proofs.  Each
checker returns holds, fails or inconclusive; a fails verdict always
carries a concrete witness, an inconclusive verdict always names the
limiting resource.

The regular-global-inf and transfer-closedness checkers have to
distinguish genuine failures (a minimizing sequence piling up against a
point whose own value stays high) from one-grid-step artifacts around an
attained minimizer.  On a fixed grid the two look identical, so both
refine below the grid step around the collar of a low set: the
non-members within one grid step of a member on every axis.  On a box
grid the collar is computed on the index lattice, as the 3^d - 1 lattice
neighbours of each member; a grid given as points is scanned pairwise.
Regular-global-inf takes the near-infimum set inside its norm ball,
transfer closedness the colevel set at the smallest sampled height, and
one refinement verdict (`_refine`) classifies every collar point for
both.  `_refine` builds all its probe rings, keeps those in the domain
and reads them in one `scalar_values_at` call; that keeps each off-grid
value, so a probe point costs one map evaluation per problem however
often it is revisited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import MARGIN_FACTOR, GapReport, check_asymptotic_gap, compass_directions
from .errors import InternalConsistencyError, ProblemValidationError
from .problem import SetValuedProblem
from .scalarizer import colevel, scalar_field, scalar_values_at
from .solver import domination_row, strict_weak_efficient_brute

_REFINE_LEVELS = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
_COERCIVITY_LADDER = 16  # halvings of lam_probe - inf probed for a bounded colevel set
_MAX_RESTRICTIONS = 6    # norm balls 1..6 get their own regular-global-inf check


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds", "fails" or "inconclusive"
    witness: list | None = None
    evidence: dict = field(default_factory=dict)
    caveats: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def _margin(problem: SetValuedProblem) -> float:
    return MARGIN_FACTOR * problem.tolerances.tie_tol


def check_attainment(problem: SetValuedProblem) -> Verdict:
    """Whether scalar infima over the map values are attained.

    Finite clouds are compact, so attainment always holds for the built
    problem; sampling notes are surfaced as caveats because the analytic
    set a cloud samples may behave differently.
    """
    notes = problem.map_model.sampling_notes()
    return Verdict(
        status="holds",
        evidence={"reason": "finite point clouds are compact"},
        caveats=[f"sampled analytic set: {n}" for n in notes],
    )


# ---------------------------------------------------------------------------
# regular-global-inf, and the collar and refinement it shares with transfer
# ---------------------------------------------------------------------------

def _domain_mask(problem: SetValuedProblem, pts: np.ndarray,
                 restrict_norm: float | None) -> np.ndarray:
    """Which of pts lie in the grid's box, if any, and in the norm ball, if given."""
    keep = np.ones(len(pts), dtype=bool)
    if problem.grid.box is not None:
        lo, hi = problem.grid.box[:, 0], problem.grid.box[:, 1]
        keep &= np.all(pts >= lo - 1e-12, axis=1) & np.all(pts <= hi + 1e-12, axis=1)
    if restrict_norm is not None:
        keep &= np.linalg.norm(pts, axis=1) <= restrict_norm + 1e-12
    return keep


def _collar(problem: SetValuedProblem, members: np.ndarray) -> np.ndarray:
    """Sorted indices of the non-members within one grid step of a member on every axis.

    This one-step Chebyshev dilation is the grid surrogate of a closure.
    On a box grid it is taken on the `resolution` lattice: the member mask
    grows by one index both ways along each axis in turn, which adds the
    3^d - 1 lattice neighbours of each member.  A grid given as points is
    scanned pairwise, in units of the grid step.
    """
    if problem.grid.resolution is not None:
        near = np.zeros(problem.grid.resolution, dtype=bool)
        near.flat[members] = True
        for axis in range(near.ndim):
            rows = np.moveaxis(near, axis, 0)
            grown = rows.copy()
            grown[1:] |= rows[:-1]
            grown[:-1] |= rows[1:]
            near = np.moveaxis(grown, 0, axis)
        near.flat[members] = False
        return np.flatnonzero(near)
    pts = problem.grid.points
    steps = problem.grid.step_estimate()
    outside = np.setdiff1d(np.arange(len(pts)), members)
    inner, outer = pts[members], pts[outside]
    if len(members) <= len(outside):  # loop over the smaller side
        near = np.zeros(len(outside), dtype=bool)
        for p in inner:
            near |= np.max(np.abs(outer - p) / steps, axis=1) <= 1.01
    else:
        near = np.array([np.any(np.max(np.abs(inner - p) / steps, axis=1) <= 1.01)
                         for p in outer], dtype=bool)
    return outside[near]


def _probe_ring(x0: np.ndarray, r: float) -> np.ndarray:
    n = x0.shape[0]
    if n == 1:
        offsets = np.concatenate([np.linspace(r / 8.0, r, 8), -np.linspace(r / 8.0, r, 8)])
        return x0[None, :] + offsets[:, None]
    ring = compass_directions(n)[: 16 if n == 2 else 2 * n]
    return np.vstack([x0 + r * ring, x0 + 0.5 * r * ring])


def _refine(problem: SetValuedProblem, x0: np.ndarray, level: float,
            restrict_norm: float | None) -> tuple[str | None, list[float]]:
    """Refine below the grid step around x0; returns (verdict, minima trace).

    The trace holds the least probe value inside the domain per sub-step
    radius, smallest radius last.  The verdict is "witness" if its last
    entry is at most `level`; "unresolved" for a table map, for no probe
    inside the domain, or for minima still descending at the floor; else None.
    """
    if not problem.map_model.is_analytic:
        return "unresolved", []
    rings = [_probe_ring(x0, float(r))
             for r in float(problem.grid.step_estimate().max()) * np.asarray(_REFINE_LEVELS)]
    probes = np.concatenate(rings)
    inside = _domain_mask(problem, probes, restrict_norm)
    ring = np.repeat(np.arange(len(rings)), [len(p) for p in rings])[inside]
    values = scalar_values_at(problem, probes[inside])
    minima = [min(values[ring == k].tolist()) for k in np.unique(ring)]
    if not minima:
        return "unresolved", minima
    if minima[-1] <= level:
        return "witness", minima
    tie = problem.tolerances.tie_tol
    if len(minima) >= 3 and minima[-1] < minima[-2] - tie and minima[-2] < minima[-3] - tie:
        return "unresolved", minima  # still descending toward the level
    return None, minima


def _inconclusive(problem: SetValuedProblem, evidence: dict, unresolved: list) -> Verdict:
    evidence["limiting_resource"] = "refinement floor" if problem.map_model.is_analytic \
        else "grid resolution (map not refinable off the grid)"
    evidence["suspicious_points"] = [u.tolist() for u in unresolved]
    return Verdict(status="inconclusive", evidence=evidence)


def check_regular_global_inf(problem: SetValuedProblem,
                             restrict_norm: float | None = None) -> Verdict:
    """Whether points above the infimum admit neighborhoods bounded away from it.

    A witness is a point whose own value sits above the infimum while
    arbitrarily small punctured neighborhoods keep reaching it: the grid
    signature is a collar point of the near-infimum set that does not
    dissolve under sub-step refinement.
    """
    pts = problem.grid.points
    inside = _domain_mask(problem, pts, restrict_norm)
    if inside.sum() < 2:
        return Verdict(status="holds",
                       evidence={"reason": "restriction holds fewer than two grid points"})
    values = scalar_field(problem).values
    m = float(values[inside].min())
    margin = _margin(problem)
    step = float(problem.grid.step_estimate().max())
    witnesses, unresolved = [], []
    for c in _collar(problem, np.flatnonzero(inside & (values <= m + margin))):
        if not inside[c]:
            continue
        verdict, minima = _refine(problem, pts[c], m + margin, restrict_norm)
        if verdict == "witness":
            witnesses.append((pts[c], minima))
        elif verdict == "unresolved":
            unresolved.append(pts[c])
    evidence = {
        "inf_value": m,
        "margin": margin,
        "grid_step": step,
        "restricted_to_norm": restrict_norm,
        "refinement_radii": step * np.asarray(_REFINE_LEVELS),
    }
    if witnesses:
        w, trace = witnesses[0]
        evidence["local_minima_trace"] = trace
        evidence["all_witnesses"] = [wi.tolist() for wi, _ in witnesses]
        return Verdict(status="fails", witness=w.tolist(), evidence=evidence)
    if unresolved:
        return _inconclusive(problem, evidence, unresolved)
    return Verdict(status="holds", evidence=evidence)


# ---------------------------------------------------------------------------
# transfer closedness
# ---------------------------------------------------------------------------

def check_transfer_closed(problem: SetValuedProblem, lam_samples=None) -> Verdict:
    """Whether intersecting colevel closures adds nothing over the plain sets.

    Grid closure dilates by one grid step, so at any finite resolution the
    dilated intersection may pick up a one-step collar; collar points are
    classified by the same refinement as in the regular-global-inf check.
    """
    field = scalar_field(problem)
    m = field.inf_value
    margin = _margin(problem)
    span = float(field.values.max() - m)
    if span <= margin:
        return Verdict(status="holds", evidence={"reason": "scalar field is flat"})
    if lam_samples is None:
        lam_samples = m + (span / 2.0) * np.power(0.5, np.arange(20))
    lam_samples = np.asarray(lam_samples, dtype=float)
    if lam_samples.size == 0:
        raise ProblemValidationError("lambda samples must be nonempty")
    if np.any(lam_samples <= m):
        raise ProblemValidationError("lambda samples must be strictly above the infimum")

    # Colevel sets are nested in lam (values <= lam + tie_tol, and rounding
    # is monotone), so their intersection is the set at the smallest lam;
    # dilation is monotone, so the intersection of the dilations is the
    # dilation of that one set.  Every lam still runs the route cross-check.
    members = [colevel(problem, float(lam)) for lam in lam_samples][int(np.argmin(lam_samples))]
    pts = problem.grid.points
    collar = _collar(problem, members)
    evidence = {
        "lambda_samples": lam_samples,
        "inf_value": m,
        "plain_intersection": pts[members],
        "collar_points": pts[collar],
    }
    level = float(lam_samples.min()) + margin
    unresolved = []
    for i in collar:
        if field.values[i] <= level:
            continue  # value at the collar point itself is already low; not a closure gap
        verdict, minima = _refine(problem, pts[i], level, None)
        if verdict == "witness":
            evidence["local_minima_trace"] = minima
            evidence["witness_lambda"] = float(
                lam_samples[np.argmax(field.values[i] > lam_samples)]
            )
            return Verdict(status="fails", witness=pts[i].tolist(), evidence=evidence)
        if verdict == "unresolved":
            unresolved.append(pts[i])
    if unresolved:
        return _inconclusive(problem, evidence, unresolved)
    return Verdict(status="holds", evidence=evidence)


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------

def _strictly_inside(problem: SetValuedProblem, indices: np.ndarray) -> bool:
    box = problem.grid.box
    steps = problem.grid.step_estimate()
    pts = problem.grid.points[indices]
    lo, hi = box[:, 0], box[:, 1]
    eps = 1e-9 * np.maximum(1.0, np.abs(steps))
    return bool(np.all(pts - lo >= steps - eps) and np.all(hi - pts >= steps - eps))


def check_coercivity(problem: SetValuedProblem, lam_probe: float | None = None) -> Verdict:
    """Whether some colevel set above the infimum stays inside the box.

    Relative compactness is implemented as boundedness, and boundedness on
    a sampled box as lying at least one grid step inside every face.  A
    grid cannot certify unboundedness, hence inconclusive without box
    metadata.
    """
    field = scalar_field(problem)
    m = field.inf_value
    if lam_probe is None:
        span = float(field.values.max() - m)
        lam_probe = m + (span / 2.0 if span > 0.0 else 1.0)
    if lam_probe <= m:
        raise ProblemValidationError("lam_probe must be above the global infimum")
    if problem.grid.box is None:
        return Verdict(status="inconclusive",
                       evidence={"limiting_resource": "no box metadata on the grid"})

    touched = []
    for j in range(_COERCIVITY_LADDER):
        lam = m + (lam_probe - m) * (0.5 ** j)
        members = colevel(problem, float(lam))
        if _strictly_inside(problem, members):
            return Verdict(
                status="holds",
                evidence={
                    "lambda": lam,
                    "colevel_size": int(len(members)),
                    "colevel_points": problem.grid.points[members]
                    if len(members) <= 16 else problem.grid.points[members[:16]],
                },
            )
        touched.append(lam)
    pts = problem.grid.points[members]  # the colevel set at touched[-1]
    witness = pts[int(np.argmax(np.linalg.norm(pts, axis=1)))]
    return Verdict(
        status="fails",
        witness=witness.tolist(),
        evidence={"probed_lambdas": touched,
                  "reason": "every probed colevel set touches the domain box"},
    )


def check_colevel_compact_at(problem: SetValuedProblem, x0) -> Verdict:
    """Boundedness of the colevel set at height F(x0), with the cross-check
    that the set holds x0 and a strictly efficient point."""
    idx0 = problem.grid.locate(x0)
    if problem.grid.box is None:
        return Verdict(status="inconclusive",
                       evidence={"limiting_resource": "no box metadata on the grid"})
    # row idx0 of D is F(x0) <l F(x); the colevel set is where it is false
    members = np.flatnonzero(~domination_row(problem, idx0))
    bounded = _strictly_inside(problem, members)
    strict = strict_weak_efficient_brute(problem)
    in_strict = idx0 in strict
    coercive = check_coercivity(problem).holds
    # <l is irreflexive, so x0 is a member; it is transitive, so a <l-minimal
    # member is minimal on the whole grid, that is, strictly efficient
    if idx0 not in members or not np.isin(members, strict).any():
        raise InternalConsistencyError(
            "the colevel set at F(x0) misses x0 or every strictly efficient point")
    evidence = {
        "colevel_size": int(len(members)),
        "x0": problem.grid.points[idx0],
        "compactness_implication_active": bool(bounded),
        "x0_strictly_efficient": in_strict,
        "coercivity_holds": coercive,
        "disjunction_holds": bool(in_strict or coercive),
    }
    if not bounded:
        evidence["reason"] = "colevel set at F(x0) touches the domain box"
        return Verdict(status="fails", witness=problem.grid.points[idx0].tolist(),
                       evidence=evidence)
    return Verdict(status="holds", evidence=evidence)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremVerdict:
    applicable: bool
    blocked_by: list


@dataclass(frozen=True)
class HypothesisReport:
    attainment: Verdict
    regular_global_inf: Verdict
    coercivity: Verdict
    asymptotic_gap: GapReport
    restricted_rgi: dict
    k_q_set_asserted: bool
    coercive: TheoremVerdict = field(metadata={"json": "coercive_theorem"})
    noncoercive: TheoremVerdict = field(metadata={"json": "noncoercive_theorem"})
    strict_solutions_nonempty: bool
    strict_solution_sample: list
    notes: list


def existence_report(problem: SetValuedProblem) -> HypothesisReport:
    """Run all hypothesis checkers and declare which existence route applies.

    Whenever a route is declared applicable the strict solution set must
    be nonempty; a contradiction raises, since it would mean the checkers
    accepted hypotheses the grid itself refutes.
    """
    attainment = check_attainment(problem)
    rgi = check_regular_global_inf(problem)
    coercivity = check_coercivity(problem)
    gap = check_asymptotic_gap(problem)

    max_norm = float(problem.grid.norms().max())
    ns = range(1, min(math.ceil(max_norm), _MAX_RESTRICTIONS) + 1)
    restricted = {}
    for n in ns:
        if _domain_mask(problem, problem.grid.points, float(n)).sum() >= 2:
            restricted[n] = check_regular_global_inf(problem, restrict_norm=float(n))

    coercive_blockers = []
    if not rgi.holds:
        coercive_blockers.append(f"regular_global_inf ({rgi.status})")
    if not coercivity.holds:
        coercive_blockers.append(f"coercivity ({coercivity.status})")
    coercive = TheoremVerdict(applicable=not coercive_blockers, blocked_by=coercive_blockers)

    noncoercive_blockers = []
    for n, verdict in restricted.items():
        if not verdict.holds:
            noncoercive_blockers.append(
                f"regular_global_inf on norm ball {n} ({verdict.status})"
            )
    if not gap.holds:
        noncoercive_blockers.append("asymptotic_gap")
    if not problem.flags.k_q_set:
        noncoercive_blockers.append("K_q_set flag not asserted")
    noncoercive = TheoremVerdict(applicable=not noncoercive_blockers,
                                 blocked_by=noncoercive_blockers)

    strict = strict_weak_efficient_brute(problem)
    nonempty = len(strict) > 0
    if (coercive.applicable or noncoercive.applicable) and not nonempty:
        raise InternalConsistencyError(
            "an existence route was declared applicable but the strict "
            "solution set is empty"
        )
    sample = problem.grid.points[strict[: min(8, len(strict))]].tolist()
    notes = [
        "image of the grid is a finite union of finite clouds, hence order-bounded",
        "finite-dimensional domain with the norm topology: unit ball compactness "
        "is automatic and the asserted minimizing-sequence condition holds by default",
    ]
    return HypothesisReport(
        attainment=attainment,
        regular_global_inf=rgi,
        coercivity=coercivity,
        asymptotic_gap=gap,
        restricted_rgi=restricted,
        k_q_set_asserted=problem.flags.k_q_set,
        coercive=coercive,
        noncoercive=noncoercive,
        strict_solutions_nonempty=nonempty,
        strict_solution_sample=sample,
        notes=notes,
    )
