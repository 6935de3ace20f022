"""Command-line surface.

Subcommands: solve, scalarize, colevel, asymptotic, check, oracle,
fixtures.  Reports are JSON with sorted keys and shortest round-trip
float formatting, so identical inputs produce byte-identical output.
Exit codes: 0 success, 1 validation or usage error, 2 internal
consistency violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fixtures as fixture_catalog
from .asymptotics import (DEFAULT_LAMBDA_COUNT, DEFAULT_RADIUS_THRESHOLD, DEFAULT_T_COUNT,
                          DEFAULT_T_MAX, check_asymptotic_gap, default_lambda_schedule,
                          horizon_outer_limit)
from .cone import gerstewitz, gerstewitz_bisect
from .diagnostics import (check_coercivity, check_colevel_compact_at,
                          check_regular_global_inf, check_transfer_closed,
                          existence_report)
from .errors import InternalConsistencyError, SetOptError
from .problem import build_problem, jsonable
from .sampling import random_cone, random_point, random_problem
from .scalarizer import colevel_points, scalar_field
from .solver import argmin_scalarized, scalar_table, solve, strict_weak_efficient_brute


class CLIUsageError(SetOptError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise CLIUsageError(message)


def _emit(obj) -> None:
    print(json.dumps(jsonable(obj), sort_keys=True, indent=2))


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CLIUsageError(f"unreadable file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIUsageError(f"invalid JSON in {path}: {exc}") from exc
    return build_problem(doc)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise CLIUsageError(f"cannot parse vector {text!r}") from exc


def _write_scalar_csv(problem, path: str) -> None:
    field = scalar_field(problem)
    n = problem.grid.dim_domain
    header = ",".join([f"x_{i}" for i in range(n)] + ["value"])
    lines = [header]
    for x, v in zip(problem.grid.points, field.values):
        lines.append(",".join([repr(float(c)) for c in x] + [repr(float(v))]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    _emit(solve(problem).to_dict(problem))
    return 0


def _cmd_scalarize(args) -> int:
    problem = _load_problem(args.problem)
    field = scalar_field(problem)
    if args.csv:
        _write_scalar_csv(problem, args.csv)
    _emit({"inf_value": field.inf_value, "values": scalar_table(problem, field.values)})
    return 0


def _cmd_colevel(args) -> int:
    problem = _load_problem(args.problem)
    _emit({"lambda": args.lam, "points": sorted(colevel_points(problem, args.lam).tolist())})
    return 0


def _cmd_asymptotic(args) -> int:
    problem = _load_problem(args.problem)
    directions = [_parse_vector(d) for d in args.direction] if args.direction else None
    gap = check_asymptotic_gap(problem, directions=directions,
                               t_max=args.t_max, t_count=args.t_count)
    out = {"gap": gap.to_dict()}
    if args.horizon:
        schedule = default_lambda_schedule(problem, count=args.lambda_count)
        out["horizon"] = horizon_outer_limit(problem, schedule,
                                             radius_threshold=args.threshold).to_dict()
    if args.csv and directions:
        lines = ["direction,t,value"]
        for e in gap.estimates:
            label = ";".join(repr(c) for c in e.direction.tolist())
            for t, v in zip(e.t_values.tolist(), e.liminf_trace.tolist()):
                lines.append(f"{label},{t!r},{v!r}")
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    _emit(out)
    return 0


def _cmd_check(args) -> int:
    problem = _load_problem(args.problem)
    run_all = args.all or not (args.rgi or args.coercivity or args.gap
                               or args.transfer or args.compact_at)
    out = {}
    if run_all:
        out["report"] = existence_report(problem).to_dict()
    if args.rgi:
        out["regular_global_inf"] = check_regular_global_inf(problem).to_dict()
    if args.coercivity:
        out["coercivity"] = check_coercivity(problem).to_dict()
    if args.gap:
        out["asymptotic_gap"] = check_asymptotic_gap(problem).to_dict()
    if args.transfer:
        out["transfer_closed"] = check_transfer_closed(problem).to_dict()
    if args.compact_at:
        x0 = _parse_vector(args.compact_at)
        out["colevel_compact_at"] = check_colevel_compact_at(problem, x0).to_dict()
    _emit(out)
    return 0


def _cmd_oracle(args) -> int:
    if args.mode != "random":
        raise CLIUsageError(f"unknown oracle mode {args.mode!r}")
    rng = np.random.default_rng(args.seed)
    max_dev = 0.0
    for _ in range(args.count):
        cone = random_cone(rng)
        y = random_point(rng, cone.dim_image)
        max_dev = max(max_dev, abs(gerstewitz(cone, y) - gerstewitz_bisect(cone, y, tol=1e-10)))
    problems = max(1, args.count // 50)
    violations = 0
    for _ in range(problems):
        prob = random_problem(rng)
        strict = set(strict_weak_efficient_brute(prob).tolist())
        if not set(argmin_scalarized(prob).tolist()) <= strict:
            violations += 1
    out = {
        "seed": args.seed,
        "gerstewitz": {"count": args.count, "max_abs_deviation": max_dev,
                       "tolerance": 1e-9, "pass": max_dev <= 1e-9},
        "solver": {"problems": problems, "inclusion_violations": violations,
                   "pass": violations == 0},
    }
    _emit(out)
    if max_dev > 1e-9 or violations:
        raise InternalConsistencyError("oracle cross-validation failed")
    return 0


def _cmd_fixtures(args) -> int:
    paths = fixture_catalog.write_all(args.out)
    _emit({"written": paths})
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="setopt",
                     description="Set optimization toolkit: scalarization, "
                                 "efficient sets, asymptotics, diagnostics.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="full solve report for a problem file")
    p.add_argument("problem")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("scalarize", help="emit the scalar field as JSON and CSV")
    p.add_argument("problem")
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_scalarize)

    p = sub.add_parser("colevel", help="grid points of a colevel set")
    p.add_argument("problem")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(handler=_cmd_colevel)

    p = sub.add_parser("asymptotic", help="directional analysis at infinity")
    p.add_argument("problem")
    p.add_argument("--direction", action="append", default=None,
                   help="comma-separated components; repeatable")
    p.add_argument("--t-max", type=float, default=DEFAULT_T_MAX)
    p.add_argument("--t-count", type=int, default=DEFAULT_T_COUNT)
    p.add_argument("--horizon", action="store_true")
    p.add_argument("--lambda-count", type=int, default=DEFAULT_LAMBDA_COUNT)
    p.add_argument("--threshold", type=float, default=DEFAULT_RADIUS_THRESHOLD)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_asymptotic)

    p = sub.add_parser("check", help="hypothesis checkers and existence report")
    p.add_argument("problem")
    p.add_argument("--all", action="store_true")
    p.add_argument("--rgi", action="store_true")
    p.add_argument("--coercivity", action="store_true")
    p.add_argument("--gap", action="store_true")
    p.add_argument("--transfer", action="store_true")
    p.add_argument("--compact-at", default=None)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("oracle", help="seeded cross-validation summary")
    p.add_argument("mode", help="only 'random' is supported")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("fixtures", help="regenerate the built-in problem files")
    p.add_argument("--out", default="fixtures")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "handler", None):
            raise CLIUsageError("a subcommand is required (see --help)")
        return args.handler(args)
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except SetOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
