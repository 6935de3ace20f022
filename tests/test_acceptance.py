"""Acceptance gate: every shipped behavior pinned at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import numpy as np
import pytest

from setopt import (RaySchedule, argmin_scalarized, asymptotic_value,
                    check_asymptotic_gap, check_coercivity, check_regular_global_inf,
                    colevel, colevel_points, compass_directions, contains,
                    contains_interior, efficient_sets, evaluate, existence_report,
                    gerstewitz, gerstewitz_bisect, global_inf, horizon_outer_limit,
                    scalar_value)
from setopt import fixtures as fixture_catalog
from setopt.sampling import random_cone, random_point, random_problem

from conftest import coords_1d

SEED_TRIPLES = 20240501
SEED_PROBLEMS = 20240607


def _report(ok: bool, label: str) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


@pytest.fixture(scope="module")
def triples():
    rng = np.random.default_rng(SEED_TRIPLES)
    out = []
    for _ in range(1000):
        cone = random_cone(rng)
        out.append((cone, random_point(rng, cone.dim_image)))
    return out


def test_gerstewitz_bisection_agreement(triples):
    worst = max(abs(gerstewitz(c, y) - gerstewitz_bisect(c, y, tol=1e-10))
                for c, y in triples)
    _report(worst <= 1e-9,
            f"closed form vs bisection on 1000 seeded triples, max deviation {worst:.2e}")


def test_level_set_identities(triples):
    rng = np.random.default_rng(SEED_TRIPLES + 1)
    ok = True
    for cone, y in triples:
        psi = gerstewitz(cone, y)
        q = cone.order_unit
        ok &= contains(cone, y - psi * q)  # (i)
        lams = [psi - 1.75, psi - 0.25, psi, psi + 0.25, psi + 1.75,
                float(rng.uniform(-20.0, 20.0))]
        for lam in lams:
            shifted = y - lam * q
            strict = contains_interior(cone, shifted)
            weak = contains(cone, shifted)
            if lam != psi:
                ok &= (psi > lam) == strict       # (ii)
            ok &= (psi >= lam) == weak            # (iii)
            ok &= (weak and not strict) == (psi == lam)  # (iv)
        if not ok:
            break
    _report(ok, "level-set identities hold predicate-level on 1000 seeded samples")


def test_tradeoff_segment_fixture(tradeoff):
    values = {x: scalar_value(tradeoff, [x]) for x in (0.0, 0.25, 0.5, 1.0, 2.0)}
    expected = {0.0: 0.0, 0.25: 0.5, 0.5: 1.0, 1.0: 0.0, 2.0: 6.0}
    ok = all(abs(values[x] - expected[x]) <= 1e-12 for x in expected)
    ok &= coords_1d(tradeoff, argmin_scalarized(tradeoff)) == [0.0, 1.0]
    strict = coords_1d(tradeoff, efficient_sets(tradeoff)[0])
    xs = tradeoff.grid.points[:, 0]
    ok &= strict == sorted(float(x) for x in xs if -1e-9 <= x <= 1.0 + 1e-9)
    ok &= len(strict) > 2  # the argmin pair is a proper subset
    _report(ok, "trade-off segment: scalar values, argmin {0, 1}, efficient set [0, 1]")


def test_shifted_disc_fixture(shifted360):
    cloud = evaluate(shifted360, [1.0, 0.0])
    ok = len(cloud) == 360 and cloud.points[:, 0].min() == -4.0  # lattice includes pi
    ok &= global_inf(shifted360) == -4.0
    ok &= colevel_points(shifted360, -3.0).tolist() == [[1.0, 0.0]]
    ok &= check_coercivity(shifted360, lam_probe=-3.0).holds
    _report(ok, "shifted disc: infimum -4 exact, colevel(-3) = {(1, 0)}, coercive")


def test_wedge_strip_fixture(wedge):
    ok = abs(scalar_value(wedge, [0.0]) + 2.0) <= 1e-12
    others = [scalar_value(wedge, [x]) for x in wedge.grid.points[:, 0] if x != 0.0]
    ok &= all(abs(v - 1.0) <= 1e-12 for v in others)
    ok &= coords_1d(wedge, colevel(wedge, 0.5)) == [0.0]
    report = existence_report(wedge)
    ok &= report.coercive.applicable
    ok &= coords_1d(wedge, efficient_sets(wedge)[0]) == [0.0]
    _report(ok, "wedge strip: value -2 at 0, colevel(0.5) = {0}, coercive route, "
                "strict solutions {0}")


def test_kinked_interval_fixture(kinked):
    got = coords_1d(kinked, colevel(kinked, 1.5))
    xs = kinked.grid.points[:, 0]
    ok = got == sorted(float(x) for x in xs if x < 1.0 - 1e-9)
    ok &= check_regular_global_inf(kinked).holds
    _report(ok, "kinked interval: colevel(3/2) is the open ray below 1, "
                "regular-global-inf holds")


def test_decay_tail_fixture(decay):
    plus = asymptotic_value(decay, RaySchedule(np.array([1.0])))
    minus = asymptotic_value(decay, RaySchedule(np.array([-1.0])))
    ok = abs(plus.value - 0.0) <= 1e-6 and abs(minus.value + 1.0) <= 1e-6
    gap = check_asymptotic_gap(decay)
    ok &= (not gap.holds) and np.allclose(gap.witnesses, [[-1.0]])
    lams = -1.0 + 1.0 / np.arange(1.0, 13.0)
    horizon = horizon_outer_limit(decay, lams)
    ok &= horizon.directions.tolist() == [[-1.0]] and horizon.consistent_with_gap
    _report(ok, "decay tail: asymptotic values 0 and -1, gap fails at -1, "
                "horizon directions {-1}")


def test_ramp_gap_fixture(ramp):
    expected = {-1.0: 1.0, 0.0: 0.875, 1.5: 0.0, 2.0: 0.5}
    ok = all(abs(scalar_value(ramp, [x]) - v) <= 1e-12 for x, v in expected.items())
    report = existence_report(ramp)
    ok &= report.coercive.applicable
    ok &= not report.noncoercive.applicable
    ok &= any("norm ball 1" in reason for reason in report.noncoercive.blocked_by)
    _report(ok, "ramp gap: scalar values, coercive route applies, noncoercive route "
                "blocked on the unit ball")


def test_argmin_within_strict_solutions_random():
    rng = np.random.default_rng(SEED_PROBLEMS)
    violations = 0
    for _ in range(200):
        prob = random_problem(rng)
        argmin = set(argmin_scalarized(prob).tolist())
        strict = set(efficient_sets(prob)[0].tolist())
        violations += argmin > strict or not argmin <= strict
    _report(violations == 0,
            "argmin inside the strict efficient set on 200 seeded random problems")


def test_direction_scale_invariance():
    ok = True
    for name in sorted(fixture_catalog.FIXTURES):
        kwargs = {"sample_size": 200} if name == "hyperbola_escape" else {}
        prob = fixture_catalog.build(name, **kwargs)
        tie = prob.tolerances.tie_tol
        for u in compass_directions(prob.grid.dim_domain):
            base = asymptotic_value(prob, RaySchedule(u))
            scaled = asymptotic_value(prob, RaySchedule(3.0 * u))
            ok &= abs(base.value - scaled.value) <= tie
    _report(ok, "asymptotic estimates agree for u and 3u on every fixture direction")


def test_unattained_inf_sampling_convergence():
    values = []
    for size in (10, 100, 1000, 10000):
        prob = fixture_catalog.build("hyperbola_escape", sample_size=size)
        values.append(scalar_value(prob, [1.0]))
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    ok = decreasing and values[-1] <= 0.05 and values[-1] >= 0.0
    _report(ok, "hyperbola sampling: scalar value at x = 1 decreases "
                f"{values[0]:.3g} -> {values[-1]:.3g} toward the unattained infimum 0")
