"""Set optimization toolkit.

Computes weakly and strictly-weakly efficient solutions of set-valued
optimization problems under the lower set-less order via Gerstewitz
scalarization, and numerically checks the hypotheses of coercive and
noncoercive Weierstrass-type existence results on finite, finitely
represented problems.
"""

from .asymptotics import (AsymptoticEstimate, GapReport, HorizonReport, RaySchedule,
                          asymptotic_cone_estimate, asymptotic_value,
                          check_asymptotic_gap, compass_directions,
                          default_lambda_schedule, far_colevel_sample,
                          horizon_outer_limit)
from .cone import ConeSpec, contains, contains_interior, gerstewitz, gerstewitz_bisect, \
    gerstewitz_many
from .diagnostics import (HypothesisReport, Verdict, check_attainment, check_coercivity,
                          check_colevel_compact_at, check_regular_global_inf,
                          check_transfer_closed, existence_report)
from .errors import (DimensionMismatchError, InternalConsistencyError,
                     ProblemValidationError, SetOptError)
from .problem import (DomainGrid, Flags, MapModel, SetValuedProblem, Tolerances,
                      build_problem, evaluate, evaluate_at, to_document)
from .scalarizer import (ScalarField, colevel, colevel_at_set, colevel_points,
                         global_inf, scalar_field, scalar_value, scalar_value_at,
                         scalar_values_at)
from .setrel import PointCloudSet, equivalent_l, lower_less, strictly_lower_less
from .solver import (SolveReport, argmin_scalarized, solve, strict_weak_efficient_brute,
                     weak_efficient_brute)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEstimate", "ConeSpec", "DimensionMismatchError", "DomainGrid", "Flags",
    "GapReport", "HorizonReport", "HypothesisReport", "InternalConsistencyError",
    "MapModel", "PointCloudSet", "ProblemValidationError", "RaySchedule", "ScalarField",
    "SetOptError", "SetValuedProblem", "SolveReport", "Tolerances", "Verdict",
    "argmin_scalarized", "asymptotic_cone_estimate", "asymptotic_value", "build_problem",
    "check_asymptotic_gap", "check_attainment", "check_coercivity",
    "check_colevel_compact_at", "check_regular_global_inf", "check_transfer_closed",
    "colevel", "colevel_at_set", "colevel_points", "compass_directions", "contains",
    "contains_interior", "default_lambda_schedule", "equivalent_l", "evaluate",
    "evaluate_at", "existence_report", "far_colevel_sample", "gerstewitz",
    "gerstewitz_bisect", "gerstewitz_many", "global_inf", "horizon_outer_limit",
    "lower_less", "scalar_field", "scalar_value", "scalar_value_at", "scalar_values_at",
    "solve",
    "strict_weak_efficient_brute", "strictly_lower_less", "to_document",
    "weak_efficient_brute",
]
