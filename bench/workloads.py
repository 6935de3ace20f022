"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of ops, replayed in rounds.  An op is one
`setopt` command line on a problem file written from the seed.  Sizes
(grid resolutions, cloud sizes, table lengths) never depend on the seed:
the seed moves only coordinates, centres and shifts, so every seed asks
the library for the same amount of work.  Each op carries the facts its
output must show; `verify.py` checks them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Sizes of the table_stream documents come from this fixed stream, never
# from --seed, so that every seed replays the same N and cloud sizes.
TABLE_LAYOUT_SEED = 20231114
TABLE_DOCS = 48
TABLE_CONES = ("orthant2", "wedge", "orthant3")


@dataclass(frozen=True)
class Op:
    """One CLI invocation, `setopt <argv...>`, on the problem file written from `doc`."""

    label: str
    argv: tuple
    doc: dict = field(repr=False)
    facts: dict = field(default_factory=dict)


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
    return path


def _op(workdir, label, command, name, doc, facts=None, extra=()) -> Op:
    return Op(label, (command, *extra, _write(workdir, name, doc)), doc, facts or {})


def _shifted_disc(fixtures, rng, samples: int, resolution: int, at_index) -> tuple[dict, float]:
    """shifted_disc on its shipped box with a seeded deep centre.

    The deep centre (-3 - u, 2 + v) sits on the grid point `at_index`, so
    the infimum is -4 - u, the seeded form of the documented -4.  The box
    stays put: shifting it would move which grid points the checkers
    refine around, and with it the amount of work.
    """
    doc = fixtures.document("shifted_disc", samples=samples)
    u, v = rng.uniform(0.0, 1.0, 2)
    at = [float(np.linspace(lo, hi, resolution)[i])
          for (lo, hi), i in zip(doc["domain"]["box"], at_index)]
    doc["domain"]["resolution"] = [resolution, resolution]
    doc["map"]["parameters"]["center"]["overrides"] = [{"at": at, "value": [-3.0 - u, 2.0 + v]}]
    return doc, float((-3.0 - u) - 1.0)


def _hyperbola(fixtures, rng) -> tuple[dict, list, float]:
    """hyperbola_escape at 200 samples, box and image translated by the seed."""
    doc = fixtures.document("hyperbola_escape", sample_size=200)
    s = rng.uniform(-0.5, 0.5)
    t = rng.uniform(-1.0, 1.0, 2)
    lo, hi = -1.0 + s, 2.0 + s
    x0 = float(np.linspace(lo, hi, 31)[10])
    doc["domain"]["box"] = [[lo, hi]]
    regions = doc["map"]["parameters"]["regions"]
    regions[0]["where"]["point"] = [x0]
    for region in regions:
        region["cloud"]["points"] = (np.asarray(region["cloud"]["points"]) + t).tolist()
    return doc, [x0], float(min(t))


def dense_clouds(fixtures, rng, workdir: str) -> list[Op]:
    disc, disc_inf = _shifted_disc(fixtures, rng, samples=360, resolution=5, at_index=(3, 2))
    hyper, x0, hyper_inf = _hyperbola(fixtures, rng)
    return [
        _op(workdir, "solve:shifted_disc", "solve", "shifted_disc", disc,
            {"inf_value": disc_inf}),
        _op(workdir, "solve:hyperbola_escape", "solve", "hyperbola_escape", hyper,
            {"inf_value": hyper_inf, "argmin": x0, "strict_weak_efficient": x0}),
    ]


def _offset_interval(doc: dict, c: float) -> dict:
    """Add c to every bound function of an interval map (a vertical shift)."""
    for side in ("lower", "upper"):
        for piece in doc["map"]["parameters"][side]:
            piece["fn"]["offset"] = float(piece["fn"].get("offset", 0.0)) + c
    return doc


def lattice_checks(fixtures, rng, workdir: str) -> list[Op]:
    # dyadic offsets keep the shifted bounds exact to the last bit that matters
    c_decay = int(rng.integers(-64, 65)) / 64.0
    c_kink = int(rng.integers(-64, 65)) / 64.0
    decay = _offset_interval(fixtures.document("decay_tail"), c_decay)
    decay["domain"]["resolution"] = [2001]
    kinked = _offset_interval(fixtures.document("kinked_interval"), c_kink)
    kinked["domain"]["resolution"] = [1401]
    disc, disc_inf = _shifted_disc(fixtures, rng, samples=36, resolution=11, at_index=(8, 5))
    check = ("--all", "--transfer")
    return [
        _op(workdir, "check:decay_tail@2001", "check", "decay_tail", decay,
            {"gap_inf": c_decay - 1.0, "gap_holds": False, "gap_witnesses": [[-1.0]]},
            check),
        _op(workdir, "check:kinked_interval@1401", "check", "kinked_interval", kinked,
            {"rgi_status": "holds"}, check),
        _op(workdir, "check:shifted_disc@11x11", "check", "shifted_disc_11", disc,
            {"gap_inf": disc_inf, "coercive_applicable": True}, check),
        _op(workdir, "asymptotic:decay_tail@2001", "asymptotic", "decay_tail", decay,
            {"direction_values": {"1.0": c_decay, "-1.0": c_decay - 1.0},
             "horizon_directions": [[-1.0]]},
            ("--horizon",)),
    ]


def table_layout() -> list[tuple[int, int, list]]:
    """(grid size, domain dimension, cloud sizes) per document, seed-free."""
    layout_rng = np.random.default_rng(TABLE_LAYOUT_SEED)
    out = []
    for _ in range(TABLE_DOCS):
        n = int(layout_rng.integers(20, 201))
        dim = int(layout_rng.integers(1, 3))
        sizes = layout_rng.integers(1, 9, n).tolist()
        out.append((n, dim, sizes))
    return out


def _distinct_points(rng, n: int, dim: int) -> np.ndarray:
    while True:
        pts = np.round(rng.uniform(-5.0, 5.0, (n, dim)), 6)
        if len(np.unique(pts, axis=0)) == n:
            return pts


def table_stream(fixtures, rng, workdir: str, random_cone) -> list[Op]:
    ops = []
    for i, (n, dim, sizes) in enumerate(table_layout()):
        cone = random_cone(rng, TABLE_CONES[i % len(TABLE_CONES)])
        m = cone.dim_image
        pts = _distinct_points(rng, n, dim).tolist()
        clouds = [rng.uniform(-5.0, 5.0, (p, m)).tolist() for p in sizes]
        doc = {
            "schema_version": "1",
            "cone": cone.to_dict(),
            "domain": {"points": pts},
            "map": {"kind": "table", "parameters": {"points": pts, "clouds": clouds}},
        }
        ops.append(_op(workdir, f"solve:table{i:02d}(N={n})", "solve", f"table{i:02d}", doc))
    return ops


WORKLOADS = ("dense_clouds", "lattice_checks", "table_stream")


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """The op list of workload `name` for `seed`, with problem files in workdir."""
    from setopt import fixtures
    from setopt.sampling import random_cone

    rng = np.random.default_rng(seed)
    if name == "dense_clouds":
        return dense_clouds(fixtures, rng, workdir)
    if name == "lattice_checks":
        return lattice_checks(fixtures, rng, workdir)
    if name == "table_stream":
        return table_stream(fixtures, rng, workdir, random_cone)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
