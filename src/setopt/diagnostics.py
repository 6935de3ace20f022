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
one refinement verdict (`_refine`) classifies the collar points for
both.  Each checker decides its ladder of parameters in one array pass:
the norm balls 1..6 of the existence report are the rungs of one
regular-global-inf call (stacked masks, one collar dilation, one read of
the union of their probes, taken in the order a ball-by-ball loop meets
them), the sampled heights of transfer closedness and of coercivity one
`colevel_masks` pass.  The probes are the collar points plus the same
per-radius offsets, kept where they lie in the domain, so each check
makes one off-grid read, and `scalar_values_at` keeps each off-grid
value, so a probe point costs one map evaluation per problem.  Transfer
closedness stops at its first witness; if the batch read raises, it
reads its points one at a time, so that only an error met before that
witness is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (GapReport, _margin, check_asymptotic_gap, compass_directions,
                          default_lambda_schedule)
from .cone import fold_columns
from .errors import InternalConsistencyError, ProblemValidationError, SetOptError
from .problem import SetValuedProblem
from .scalarizer import colevel_masks, scalar_field, scalar_values_at
from .solver import domination_row, efficient_sets

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

def _domain_mask(problem: SetValuedProblem, pts: np.ndarray, norms) -> np.ndarray:
    """Which of pts lie in the grid's box, if any, and in each norm ball of norms (None:
    no ball); one row per ball."""
    keep = np.ones(len(pts), dtype=bool)
    if problem.grid.box is not None:
        lo, hi = problem.grid.box[:, 0], problem.grid.box[:, 1]
        keep &= fold_columns(np.logical_and, (pts >= lo - 1e-12) & (pts <= hi + 1e-12))
    if all(n is None for n in norms):
        return np.tile(keep, (len(norms), 1))
    radii = np.array([np.inf if n is None else n + 1e-12 for n in norms])
    return keep & (np.linalg.norm(pts, axis=1) <= radii[:, None])


def _collar(problem: SetValuedProblem, members: np.ndarray) -> np.ndarray:
    """The non-members within one grid step of a member on every axis, as a mask like members.

    members is a grid mask, or a stack of them along leading axes.  This
    one-step Chebyshev dilation is the grid surrogate of a closure.  On a
    box grid it is taken on the `resolution` lattice, for the whole stack
    at once: the member mask grows by one index both ways along each axis
    in turn, which adds the 3^d - 1 lattice neighbours of each member.  A
    grid given as points is scanned pairwise, in units of the grid step.
    """
    lead = members.shape[:-1]
    if problem.grid.resolution is not None:
        near = members.reshape(*lead, *problem.grid.resolution)
        for axis in range(len(lead), near.ndim):
            rows = np.moveaxis(near, axis, 0)
            grown = rows.copy()
            grown[1:] |= rows[:-1]
            grown[:-1] |= rows[1:]
            near = np.moveaxis(grown, 0, axis)
        return near.reshape(members.shape) & ~members
    pts = problem.grid.points
    steps = problem.grid.step_estimate()
    collars = np.zeros_like(members)
    for mask, collar in zip(members.reshape(-1, len(pts)), collars.reshape(-1, len(pts))):
        inner, outer = pts[mask], pts[~mask]
        if len(inner) <= len(outer):  # loop over the smaller side
            near = np.zeros(len(outer), dtype=bool)
            for p in inner:
                near |= np.max(np.abs(outer - p) / steps, axis=1) <= 1.01
        else:
            near = np.array([np.any(np.max(np.abs(inner - p) / steps, axis=1) <= 1.01)
                             for p in outer], dtype=bool)
        collar[~mask] = near
    return collars


def _probe_offsets(d: int, r: float) -> np.ndarray:
    """The offsets from a point of R^d to its probes at the sub-step radius r."""
    if d == 1:
        return np.concatenate([np.linspace(r / 8.0, r, 8), -np.linspace(r / 8.0, r, 8)])[:, None]
    ring = compass_directions(d)[: 16 if d == 2 else 2 * d]
    return np.vstack([r * ring, 0.5 * r * ring])


def _refinement_offsets(problem: SetValuedProblem) -> np.ndarray:
    """The probe offsets of every sub-step radius, stacked radius by radius."""
    radii = float(problem.grid.step_estimate().max()) * np.asarray(_REFINE_LEVELS)
    return np.stack([_probe_offsets(problem.grid.dim_domain, float(r)) for r in radii])


def _refine(problem: SetValuedProblem, X0: np.ndarray, levels, norms=(None,),
            rungs: np.ndarray | None = None) -> list[list[tuple[str | None, list[float]]]]:
    """Refine below the grid step around rows of X0; per rung, a (verdict, minima trace) per row.

    Rung r refines the rows of X0 that rungs[r] marks (every row if rungs is
    None) against levels[r], inside the norm ball norms[r] (None: the whole
    domain).  A row's trace holds the least probe value inside the domain
    per sub-step radius, smallest radius last.  Its verdict is "witness" if
    the last entry is at most the level; "unresolved" for a table map, for
    no probe inside the domain, or for minima still descending at the
    floor; else None.  Every radius has as many probes; the probes of all
    rows are the rows plus the same offsets, and those inside the domain
    of some rung of their row are read in one `scalar_values_at` call, in
    the order rung-by-rung calls would first reach them, so each row's
    result, and a failing probe's error, is the one it gets alone.
    """
    rungs = np.ones((len(levels), len(X0)), dtype=bool) if rungs is None else rungs
    if not problem.map_model.is_analytic:
        return [[("unresolved", [])] * int(rows.sum()) for rows in rungs]
    d = X0.shape[1]
    probes = X0[:, None, None, :] + problem._derived("refinement_offsets", _refinement_offsets)
    inside = _domain_mask(problem, probes.reshape(-1, d), norms).reshape(
        len(norms), *probes.shape[:3]) & rungs[:, :, None, None]
    # each probe point once, rung by rung, as a rung-by-rung read meets them
    first = inside.copy()
    first[1:] &= ~np.logical_or.accumulate(inside, axis=0)[:-1]
    at = np.nonzero(first.reshape(len(first), -1))[1]
    values = np.full(inside.shape[1:], np.inf)
    values.reshape(-1)[at] = scalar_values_at(problem, probes.reshape(-1, d)[at])
    values = np.where(inside, values, np.inf)  # a probe outside never lowers a minimum
    # min() of the values inside the domain at one radius: the first of them
    # if it is NaN, else the first least one; so no later NaN may win the argmin
    later = np.arange(inside.shape[3]) != inside.argmax(axis=3)[..., None]
    values[later & np.isnan(values)] = np.inf
    lows = np.take_along_axis(values, values.argmin(axis=3)[..., None], axis=3)[..., 0]
    reached = inside.any(axis=3)
    tie = problem.tolerances.tie_tol
    results = [[] for _ in levels]
    for r, i in zip(*np.nonzero(rungs)):
        minima = [low for low, hit in zip(lows[r, i].tolist(), reached[r, i].tolist()) if hit]
        if not minima:
            verdict = "unresolved"
        elif minima[-1] <= levels[r]:
            verdict = "witness"
        elif (len(minima) >= 3 and minima[-1] < minima[-2] - tie
              and minima[-2] < minima[-3] - tie):
            verdict = "unresolved"  # still descending toward the level
        else:
            verdict = None
        results[r].append((verdict, minima))
    return results


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
    dissolve under sub-step refinement.  The unrestricted verdict is
    computed once per problem, its evidence read-only.
    """
    if restrict_norm is None:
        return problem._derived("regular_global_inf", lambda p: _regular_global_inf(p, [None])[0])
    return _regular_global_inf(problem, [restrict_norm])[0]


def _regular_global_inf(problem: SetValuedProblem, norms: list) -> list[Verdict]:
    """The regular-global-inf verdict inside each norm ball of norms (None: the whole domain).

    Each ball is a rung with its own grid points, infimum and collar; the
    collars are one dilation of the stacked near-infimum masks, and the
    collar points of every rung are refined in one `_refine` call.  A ball
    holding fewer than two grid points holds and is not refined.
    """
    pts = problem.grid.points
    values = scalar_field(problem).values
    margin = _margin(problem)
    step = float(problem.grid.step_estimate().max())
    inside = _domain_mask(problem, pts, norms)
    m = np.where(inside, values, np.inf).min(axis=1)
    counts = inside.sum(axis=1)
    collars = _collar(problem, inside & (values <= (m + margin)[:, None])) & inside
    collars &= (counts >= 2)[:, None]
    rows = np.flatnonzero(collars.any(axis=0))
    refined = _refine(problem, pts[rows], m + margin, norms, collars[:, rows])
    verdicts = []
    for n, m_n, count, collar, results in zip(norms, m.tolist(), counts, collars, refined):
        if count < 2:
            verdicts.append(Verdict(status="holds", evidence={
                "reason": "restriction holds fewer than two grid points"}))
            continue
        witnesses, unresolved = [], []
        for c, (verdict, minima) in zip(np.flatnonzero(collar), results):
            if verdict == "witness":
                witnesses.append((pts[c], minima))
            elif verdict == "unresolved":
                unresolved.append(pts[c])
        evidence = {
            "inf_value": m_n,
            "margin": margin,
            "grid_step": step,
            "restricted_to_norm": n,
            "refinement_radii": step * np.asarray(_REFINE_LEVELS),
        }
        if witnesses:
            w, trace = witnesses[0]
            evidence["local_minima_trace"] = trace
            evidence["all_witnesses"] = [wi.tolist() for wi, _ in witnesses]
            verdicts.append(Verdict(status="fails", witness=w.tolist(), evidence=evidence))
        elif unresolved:
            verdicts.append(_inconclusive(problem, evidence, unresolved))
        else:
            verdicts.append(Verdict(status="holds", evidence=evidence))
    return verdicts


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
        lam_samples = default_lambda_schedule(problem, 20)
    lam_samples = np.asarray(lam_samples, dtype=float)
    if lam_samples.size == 0:
        raise ProblemValidationError("lambda samples must be nonempty")
    if np.any(lam_samples <= m):
        raise ProblemValidationError("lambda samples must be strictly above the infimum")

    # Colevel sets are nested in lam (values <= lam + tie_tol, and rounding
    # is monotone), so their intersection is the set at the smallest lam;
    # dilation is monotone, so the intersection of the dilations is the
    # dilation of that one set.  Every lam still runs the route cross-check.
    first = int(np.argmin(lam_samples))
    low = [mask for t, mask in enumerate(colevel_masks(problem, lam_samples)) if t == first][0]
    pts = problem.grid.points
    collar = np.flatnonzero(_collar(problem, low))
    evidence = {
        "lambda_samples": lam_samples,
        "inf_value": m,
        "plain_intersection": pts[low],
        "collar_points": pts[collar],
    }
    level = float(lam_samples.min()) + margin
    # a collar point whose own value is already low is no closure gap
    gaps = collar[~(field.values[collar] <= level)]
    try:
        refined = _refine(problem, pts[gaps], [level])[0]
    except SetOptError:
        # the batch reads past the first witness, where the check stops;
        # one point at a time, only an error met before it is raised
        refined = (_refine(problem, pts[[i]], [level])[0][0] for i in gaps)
    unresolved = []
    for i, (verdict, minima) in zip(gaps, refined):
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

def _interior(problem: SetValuedProblem) -> np.ndarray:
    """Which grid points lie at least one grid step inside every face of the box."""
    box = problem.grid.box
    steps = problem.grid.step_estimate()
    pts = problem.grid.points
    lo, hi = box[:, 0], box[:, 1]
    eps = 1e-9 * np.maximum(1.0, np.abs(steps))
    return fold_columns(np.logical_and, (pts - lo >= steps - eps) & (hi - pts >= steps - eps))


def check_coercivity(problem: SetValuedProblem, lam_probe: float | None = None) -> Verdict:
    """Whether some colevel set above the infimum stays inside the box.

    Relative compactness is implemented as boundedness, and boundedness on
    a sampled box as lying at least one grid step inside every face.  A
    grid cannot certify unboundedness, hence inconclusive without box
    metadata.  The verdict at the default lam_probe is computed once per
    problem, its evidence read-only.
    """
    if lam_probe is None:
        return problem._derived("coercivity", _coercivity)
    return _coercivity(problem, lam_probe)


def _coercivity(problem: SetValuedProblem, lam_probe: float | None = None) -> Verdict:
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
    interior = _interior(problem)
    ladder = [m + (lam_probe - m) * (0.5 ** j) for j in range(_COERCIVITY_LADDER)]
    for lam, low in zip(ladder, colevel_masks(problem, ladder)):
        if interior[low].all():
            members = np.flatnonzero(low)
            return Verdict(
                status="holds",
                evidence={
                    "lambda": lam,
                    "colevel_size": int(len(members)),
                    "colevel_points": problem.grid.points[members[:16]],
                },
            )
        touched.append(lam)
    pts = problem.grid.points[low]  # the colevel set at touched[-1]
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
    bounded = bool(_interior(problem)[members].all())
    strict = efficient_sets(problem)[0]
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
    ns = [float(n) for n in range(1, min(math.ceil(max_norm), _MAX_RESTRICTIONS) + 1)]
    ns = [n for n, count in zip(ns, _domain_mask(problem, problem.grid.points, ns).sum(axis=1))
          if count >= 2]
    restricted = dict(zip(map(int, ns), _regular_global_inf(problem, ns)))

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

    strict = efficient_sets(problem)[0]
    nonempty = len(strict) > 0
    if (coercive.applicable or noncoercive.applicable) and not nonempty:
        raise InternalConsistencyError(
            "an existence route was declared applicable but the strict "
            "solution set is empty"
        )
    sample = problem.grid.points[strict[:8]].tolist()
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
