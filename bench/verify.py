"""Output checks behind the benchmark's failure count.

Each check returns a list of problems; an empty list means the output
passed.  The rechecks recompute facts by routes independent of the code
path under test: efficient-set membership is re-decided pair by pair with
`setrel.strictly_lower_less`, the infimum with the closed-form
scalarization written out in numpy, and fixture facts are the documented
ones, moved by the seed's shift where the workload shifts them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from types import SimpleNamespace

import numpy as np

INF_TOL = 1e-9
ASYMPTOTIC_TOL = 1e-5  # the ray liminf reaches the decay limit only to ~1e-6
PAIR_SAMPLES = 24
COLUMN_SCANS = 2


def _problem_data(doc: dict):
    """Grid points, clouds and cone of a document, built by `build_problem`."""
    from setopt.problem import build_problem

    problem = build_problem(doc)
    clouds = [problem.map_model.cloud_at(x) for x in problem.grid.points]
    return problem.grid.points, clouds, problem.cone


def _index_of(points: np.ndarray) -> dict:
    return {tuple(p.tolist()): i for i, p in enumerate(points)}


def _indices(listed, index: dict, problems: list, key: str) -> set:
    out = set()
    for p in listed:
        coords = tuple(p) if isinstance(p, list) else (p,)
        if coords not in index:
            problems.append(f"{key}: {p} is not a grid point")
        else:
            out.add(index[coords])
    return out


def _closed_form_inf(doc: dict, clouds) -> float:
    w = np.asarray(doc["cone"]["dual_generators"], dtype=float)
    q = np.asarray(doc["cone"]["q"], dtype=float)
    unit = w @ q
    return min(float(np.min(np.min((c.points @ w.T) / unit, axis=1))) for c in clouds)


def _close(a, b, tol: float) -> bool:
    return isinstance(a, (int, float)) and abs(float(a) - float(b)) <= tol


def check_efficient_sample(clouds, cone, strict: set, rng, candidates=None) -> list[str]:
    """Re-decide efficient-set membership on a seeded sample of pairs.

    A point in `strict` must not be strictly dominated by any sampled
    point; a few sampled columns are scanned in full, where a point
    outside `strict` must have a dominator and a point inside none.
    """
    from setopt.setrel import strictly_lower_less

    n = len(clouds)
    problems = []
    inside = sorted(strict)
    outside = [] if candidates is None else sorted(set(candidates) - strict)
    for _ in range(PAIR_SAMPLES if inside and n > 1 else 0):
        j = inside[int(rng.integers(len(inside)))]
        i = (j + 1 + int(rng.integers(n - 1))) % n
        if strictly_lower_less(clouds[i], clouds[j], cone):
            problems.append(f"efficient point {j} is strictly dominated by {i}")
    columns = [inside[int(k)] for k in rng.permutation(len(inside))[:COLUMN_SCANS]]
    columns += [outside[int(k)] for k in rng.permutation(len(outside))[:COLUMN_SCANS]]
    for j in columns:
        dominated = any(strictly_lower_less(clouds[i], clouds[j], cone)
                        for i in range(n) if i != j)
        if dominated == (j in strict):
            problems.append(f"grid point {j}: listed efficient={j in strict}, "
                            f"dominated={dominated}")
    return problems


def check_solve(op, out: dict, rng) -> list[str]:
    points, clouds, cone = _problem_data(op.doc)
    index = _index_of(points)
    problems: list[str] = []
    strict = _indices(out["strict_weak_efficient"], index, problems, "strict_weak_efficient")
    argmin = _indices(out["argmin"], index, problems, "argmin")
    if not argmin or not argmin <= strict:
        problems.append("argmin is empty or not inside the strict efficient set")
    if not _close(out["inf_value"], _closed_form_inf(op.doc, clouds), INF_TOL):
        problems.append(f"inf_value {out['inf_value']} differs from the closed form")
    problems += check_efficient_sample(clouds, cone, strict, rng, range(len(points)))
    facts = op.facts
    if "inf_value" in facts and not _close(out["inf_value"], facts["inf_value"], INF_TOL):
        problems.append(f"inf_value {out['inf_value']} != expected {facts['inf_value']}")
    for key in ("argmin", "strict_weak_efficient"):
        if key in facts and out[key] != facts[key]:
            problems.append(f"{key} {out[key]} != expected {facts[key]}")
    return problems


def check_check(op, out: dict, rng) -> list[str]:
    report = out["report"]
    gap = report["asymptotic_gap"]
    facts = op.facts
    problems = []
    if "gap_inf" in facts and not _close(gap["inf_value"], facts["gap_inf"], INF_TOL):
        problems.append(f"gap inf_value {gap['inf_value']} != expected {facts['gap_inf']}")
    if "gap_holds" in facts and gap["holds"] != facts["gap_holds"]:
        problems.append(f"asymptotic gap holds={gap['holds']}, expected {facts['gap_holds']}")
    if "gap_witnesses" in facts and gap["witnesses"] != facts["gap_witnesses"]:
        problems.append(f"gap witnesses {gap['witnesses']} != {facts['gap_witnesses']}")
    if "rgi_status" in facts and report["regular_global_inf"]["status"] != facts["rgi_status"]:
        problems.append(f"regular_global_inf {report['regular_global_inf']['status']} "
                        f"!= {facts['rgi_status']}")
    if ("coercive_applicable" in facts
            and report["coercive_theorem"]["applicable"] != facts["coercive_applicable"]):
        problems.append("coercive route applicability differs from the expected verdict")
    if "transfer_closed" not in out:
        problems.append("--transfer output missing")
    points, clouds, cone = _problem_data(op.doc)
    index = _index_of(points)
    sample = _indices(report["strict_solution_sample"], index, problems, "strict_solution_sample")
    if report["strict_solutions_nonempty"] != bool(sample):
        problems.append("strict_solutions_nonempty disagrees with the sample")
    problems += check_efficient_sample(clouds, cone, sample, rng)
    return problems


def check_asymptotic(op, out: dict, rng) -> list[str]:
    facts = op.facts
    problems = []
    values = {str(e["direction"][0]): e["value"] for e in out["gap"]["per_direction"]}
    for direction, expected in facts.get("direction_values", {}).items():
        if not _close(values.get(direction), expected, ASYMPTOTIC_TOL):
            problems.append(f"asymptotic value along {direction}: {values.get(direction)} "
                            f"!= expected {expected}")
    if "horizon_directions" in facts:
        horizon = out.get("horizon", {})
        if horizon.get("directions") != facts["horizon_directions"]:
            problems.append(f"horizon directions {horizon.get('directions')} "
                            f"!= {facts['horizon_directions']}")
        if not horizon.get("consistent_with_gap"):
            problems.append("horizon is inconsistent with the gap verdict")
    return problems


CHECKERS = {"solve": check_solve, "check": check_check, "asymptotic": check_asymptotic}


def verify_output(op, text: str, rng) -> list[str]:
    """Problems found in one op's stdout; [] when it passes."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    try:
        return CHECKERS[op.argv[0]](op, out, rng)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"output lacks an expected field: {exc!r}"]


def _run_cli(argv) -> tuple[int, dict | None]:
    from setopt import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, (json.loads(buf.getvalue()) if code == 0 else None)


def canonical_facts(workdir: str) -> list[str]:
    """The documented facts of the shipped fixtures, through the CLI.

    shifted_disc: infimum exactly -4.  decay_tail: asymptotic values 0
    along +1 and -1 along -1, horizon directions {-1}.  kinked_interval:
    regular-global-inf holds.
    """
    from setopt import fixtures

    paths = {os.path.splitext(os.path.basename(p))[0]: p for p in fixtures.write_all(workdir)}
    problems = []
    code, out = _run_cli(["scalarize", paths["shifted_disc"]])
    if code != 0 or out["inf_value"] != -4.0:
        problems.append("shifted_disc: infimum is not exactly -4")
    code, out = _run_cli(["asymptotic", "--horizon", paths["decay_tail"]])
    decay = SimpleNamespace(facts={"direction_values": {"1.0": 0.0, "-1.0": -1.0},
                                   "horizon_directions": [[-1.0]]})
    problems += [f"decay_tail: {p}" for p in
                 (check_asymptotic(decay, out, None) if code == 0 else ["command failed"])]
    code, out = _run_cli(["check", "--rgi", paths["kinked_interval"]])
    if code != 0 or out["regular_global_inf"]["status"] != "holds":
        problems.append("kinked_interval: regular-global-inf does not hold")
    return problems
