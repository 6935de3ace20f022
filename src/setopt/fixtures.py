"""Built-in problem documents used by the test suite and the CLI.

Each builder returns a plain JSON-ready document; `build` runs it through
the normal validation path.  The catalog:

    tradeoff_segment   R -> R^2, a segment of trade-off singletons on
                       [0, 1] and a far constant square elsewhere; the
                       scalarized argmin {0, 1} is strictly smaller than
                       the efficient set [0, 1]
    shifted_disc       R^2 -> R^2, unit-disc clouds centered at
                       (|x|, |y|) with one center moved to (-3, 2); a
                       single deep minimizer makes the problem coercive
    wedge_strip        wedge cone order, one unbounded-strip value at
                       x = 0 and a constant singleton elsewhere
    kinked_interval    1D intervals whose lower bound has a jump at 1;
                       colevel sets are not closed there, yet the
                       regular-global-inf property survives
    parabola_interval  1D intervals with a smooth lower bound; every
                       colevel set closed
    decay_tail         1D intervals, constant at the infimum for x < 0
                       and decaying toward 0 as x -> +inf; noncoercive,
                       with a nontrivial horizon direction
    ramp_gap           1D intervals with a downward jump at 3/2; globally
                       regular-global-inf but not on the unit ball
    hyperbola_escape   value sampling the region above b = 1/a; the true
                       scalar infimum 0 is approached, never attained
"""

from __future__ import annotations

import json
import os

import numpy as np

from .problem import SetValuedProblem, build_problem

_TOLERANCES = {"cone_tol": 1e-12, "tie_tol": 1e-9}
_FLAGS = {"K_q_set": True}


def _doc(cone: dict, domain: dict, map_doc: dict) -> dict:
    return {
        "schema_version": "1",
        "cone": cone,
        "domain": domain,
        "map": map_doc,
        "tolerances": dict(_TOLERANCES),
        "flags": dict(_FLAGS),
    }


def tradeoff_segment() -> dict:
    square = [[a, b] for a in (3.0, 3.5, 4.0) for b in (3.0, 3.5, 4.0)]
    return _doc(
        cone={"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [0.5, 0.5]},
        domain={"box": [[-1.0, 2.0]], "resolution": [301]},
        map_doc={
            "kind": "piecewise",
            "parameters": {
                "regions": [
                    {
                        "where": {"type": "interval", "lo": 0.0, "hi": 1.0},
                        "cloud": {
                            "type": "affine_point",
                            "matrix": [[1.0], [-1.0]],
                            "offset": [0.0, 1.0],
                        },
                    },
                    {
                        "where": {"type": "always"},
                        "cloud": {
                            "type": "fixed",
                            "points": square,
                            "sampling_note": "square [3,4]^2 sampled on a 3x3 lattice",
                        },
                    },
                ]
            },
        },
    )


def shifted_disc(samples: int = 360) -> dict:
    return _doc(
        cone={"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, 1.0]},
        domain={"box": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": [5, 5]},
        map_doc={
            "kind": "ball",
            "parameters": {
                "center": {
                    "family": "abs_components",
                    "overrides": [{"at": [1.0, 0.0], "value": [-3.0, 2.0]}],
                },
                "radius": 1.0,
                "samples": int(samples),
            },
        },
    )


def wedge_strip() -> dict:
    # boundary of {(a, b): a >= 0, 0 <= b <= 2} minus the origin,
    # truncated at a = 3; includes (0, 2) and points (t, 0) with t < 1
    strip = (
        [[0.0, b] for b in (0.5, 1.0, 1.5, 2.0)]
        + [[t, 0.0] for t in np.arange(1, 13) * 0.25]
        + [[t, 2.0] for t in np.arange(1, 13) * 0.25]
        + [[3.0, b] for b in (0.5, 1.0, 1.5)]
    )
    return _doc(
        cone={"dual_generators": [[1.0, 1.0], [1.0, -1.0]], "q": [1.0, 0.0]},
        domain={"box": [[-3.0, 3.0]], "resolution": [13]},
        map_doc={
            "kind": "piecewise",
            "parameters": {
                "regions": [
                    {
                        "where": {"type": "eq", "point": [0.0]},
                        "cloud": {
                            "type": "fixed",
                            "points": [[float(a), float(b)] for a, b in strip],
                            "sampling_note": "boundary of the strip {a >= 0, 0 <= b <= 2} "
                                             "minus the origin, truncated at a = 3, step 0.25",
                        },
                    },
                    {
                        "where": {"type": "always"},
                        "cloud": {"type": "fixed", "points": [[1.0, 0.0]]},
                    },
                ]
            },
        },
    )


def kinked_interval() -> dict:
    return _doc(
        cone={"dual_generators": [[1.0]], "q": [1.0]},
        domain={"box": [[-1.5, 2.0]], "resolution": [351]},
        map_doc={
            "kind": "interval",
            "parameters": {
                "lower": [
                    {"hi": 0.0, "hi_strict": True,
                     "fn": {"type": "linear", "a": -1.0, "b": 0.0}},
                    {"lo": 0.0, "hi": 1.0, "hi_strict": True,
                     "fn": {"type": "linear", "a": 1.0, "b": 0.0}},
                    {"lo": 1.0, "fn": {"type": "linear", "a": 2.0, "b": 0.0}},
                ],
                "upper": [
                    {"hi": 0.0, "hi_strict": True,
                     "fn": {"type": "linear", "a": -2.0, "b": 0.0}},
                    {"lo": 0.0, "fn": {"type": "linear", "a": 2.0, "b": 0.0}},
                ],
            },
        },
    )


def parabola_interval() -> dict:
    return _doc(
        cone={"dual_generators": [[1.0]], "q": [1.0]},
        domain={"box": [[-2.0, 2.0]], "resolution": [81]},
        map_doc={
            "kind": "interval",
            "parameters": {
                "lower": [{"fn": {"type": "quadratic", "a": 1.0, "b": 0.0, "c": 0.0}}],
                "upper": [{"fn": {"type": "quadratic", "a": 1.0, "b": 0.0, "c": 1.0}}],
            },
        },
    )


def decay_tail() -> dict:
    return _doc(
        cone={"dual_generators": [[1.0]], "q": [1.0]},
        domain={"box": [[-10.0, 10.0]], "resolution": [201]},
        map_doc={
            "kind": "interval",
            "parameters": {
                "lower": [
                    {"hi": 0.0, "hi_strict": True, "fn": {"type": "const", "c": -1.0}},
                    {"lo": 0.0, "fn": {"type": "inv_linear", "a": 1.0, "b": 1.0}},
                ],
                "upper": [
                    {"hi": 0.0, "hi_strict": True, "fn": {"type": "const", "c": 0.0}},
                    {"lo": 0.0,
                     "fn": {"type": "inv_linear", "a": 1.0, "b": 1.0, "offset": 1.0}},
                ],
            },
        },
    )


def ramp_gap() -> dict:
    return _doc(
        cone={"dual_generators": [[1.0]], "q": [1.0]},
        domain={"box": [[-3.0, 3.0]], "resolution": [25]},
        map_doc={
            "kind": "interval",
            "parameters": {
                "lower": [
                    {"hi": -0.5, "fn": {"type": "const", "c": 1.0}},
                    {"lo": -0.5, "lo_strict": True, "hi": 1.5, "hi_strict": True,
                     "fn": {"type": "linear", "a": 0.75, "b": 0.875}},
                    {"lo": 1.5, "fn": {"type": "linear", "a": 1.0, "b": -1.5}},
                ],
                "upper": [
                    {"hi": -0.5, "fn": {"type": "linear", "a": -1.0, "b": 0.5}},
                    {"lo": -0.5, "lo_strict": True, "hi": 1.5, "hi_strict": True,
                     "fn": {"type": "const", "c": 2.0}},
                    {"lo": 1.5, "fn": {"type": "linear", "a": 1.0, "b": -1.5}},
                ],
            },
        },
    )


def hyperbola_escape(sample_size: int = 1000) -> dict:
    a = np.logspace(0.0, np.log10(float(sample_size)), int(sample_size))
    cloud = np.stack([a, 1.0 / a], axis=1).tolist()
    return _doc(
        cone={"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, 1.0]},
        domain={"box": [[-1.0, 2.0]], "resolution": [31]},
        map_doc={
            "kind": "piecewise",
            "parameters": {
                "regions": [
                    {
                        "where": {"type": "eq", "point": [0.0]},
                        "cloud": {"type": "fixed", "points": [[0.0, 0.0]]},
                    },
                    {
                        "where": {"type": "always"},
                        "cloud": {
                            "type": "fixed",
                            "points": cloud,
                            "sampling_note": "boundary b = 1/a of {(a, b): a > 0, b >= 1/a} "
                                             f"on a log grid, a in [1, {int(sample_size)}], "
                                             f"{int(sample_size)} samples",
                        },
                    },
                ]
            },
        },
    )


FIXTURES = {
    "tradeoff_segment": tradeoff_segment,
    "shifted_disc": shifted_disc,
    "wedge_strip": wedge_strip,
    "kinked_interval": kinked_interval,
    "parabola_interval": parabola_interval,
    "decay_tail": decay_tail,
    "ramp_gap": ramp_gap,
    "hyperbola_escape": hyperbola_escape,
}


def document(name: str, **kwargs) -> dict:
    return FIXTURES[name](**kwargs)


def build(name: str, **kwargs) -> SetValuedProblem:
    return build_problem(document(name, **kwargs))


def write_all(out_dir: str) -> list[str]:
    """Write every fixture document as a JSON file; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name in sorted(FIXTURES):
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document(name), handle, sort_keys=True, indent=2)
            handle.write("\n")
        paths.append(path)
    return paths
