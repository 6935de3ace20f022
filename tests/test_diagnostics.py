import json
import zlib

import numpy as np
import pytest

from setopt import (ConeSpec, DomainGrid, MapModel, PointCloudSet,
                    ProblemValidationError, SetValuedProblem, check_asymptotic_gap,
                    check_attainment, check_coercivity, check_colevel_compact_at,
                    check_regular_global_inf, check_transfer_closed, existence_report)
from setopt import colevel, colevel_at_set
from setopt.problem import build_problem
from setopt.scalarizer import scalar_field
from setopt import InternalConsistencyError
from setopt import diagnostics, fixtures as fixture_catalog
from setopt.cli import main
from setopt.solver import domination_matrix, efficient_sets

from conftest import constant_problem


def test_attainment_verdicts(shifted72):
    assert check_attainment(shifted72).status == "holds"
    assert check_attainment(shifted72).caveats == []
    hyper = fixture_catalog.build("hyperbola_escape", sample_size=50)
    verdict = check_attainment(hyper)
    assert verdict.status == "holds"
    assert any("log grid" in c for c in verdict.caveats)
    table = _table_with_gap()
    assert check_attainment(table).status == "holds"


def test_rgi_holds_on_kinked(kinked):
    assert check_regular_global_inf(kinked).status == "holds"


def test_rgi_fails_on_ramp_unit_ball(ramp):
    verdict = check_regular_global_inf(ramp, restrict_norm=1.0)
    assert verdict.status == "fails"
    assert verdict.witness == pytest.approx([-0.5], abs=1e-9)
    # globally the same map is fine: the infimum is attained at 1.5
    assert check_regular_global_inf(ramp).status == "holds"


def test_rgi_constant_map():
    assert check_regular_global_inf(constant_problem([[1.0, 1.0]])).status == "holds"


def test_rgi_fails_decay_at_origin(decay):
    verdict = check_regular_global_inf(decay)
    assert verdict.status == "fails"
    assert verdict.witness == pytest.approx([0.0], abs=1e-9)


def _table_with_gap():
    # scalar values (0, 5, 5) on three points: the middle point sits one
    # step from the minimizer, and a table map cannot be refined
    pts = [[0.0], [1.0], [2.0]]
    clouds = [[[0.0]], [[5.0]], [[5.0]]]
    return SetValuedProblem(
        grid=DomainGrid(np.asarray(pts)),
        map_model=MapModel(kind="table", params={"points": pts, "clouds": clouds}),
        cone=ConeSpec.orthant(1, [1.0]),
    )


def test_rgi_inconclusive_for_coarse_table():
    verdict = check_regular_global_inf(_table_with_gap())
    assert verdict.status == "inconclusive"
    assert "resolution" in verdict.evidence["limiting_resource"]


def test_transfer_closed_verdicts(kinked, parabola):
    ladder = np.concatenate([[1.5], 1.5 * np.power(0.5, np.arange(1, 20))])
    assert check_transfer_closed(kinked, ladder).status == "holds"
    assert check_transfer_closed(parabola).status == "holds"
    assert check_transfer_closed(constant_problem([[0.5, 0.5]])).status == "holds"


def test_transfer_closed_rejects_bad_samples(kinked):
    with pytest.raises(ProblemValidationError):
        check_transfer_closed(kinked, [-1.0])
    with pytest.raises(ProblemValidationError, match="nonempty"):
        check_transfer_closed(kinked, [])


def _per_lambda_intersection(problem, lam_samples):
    """(plain, collar) points, intersecting each colevel set and its dilation per lambda."""
    steps = problem.grid.step_estimate()
    pts = problem.grid.points
    plain = np.ones(len(pts), dtype=bool)
    dilated = np.ones(len(pts), dtype=bool)
    for lam in lam_samples:
        members = colevel(problem, float(lam))
        in_set = np.zeros(len(pts), dtype=bool)
        in_set[members] = True
        plain &= in_set
        close = np.zeros(len(pts), dtype=bool)
        member_pts = pts[members]
        for i in range(len(pts)):
            if in_set[i]:
                close[i] = True
                continue
            gaps = np.abs(member_pts - pts[i]) / steps
            close[i] = bool(np.any(np.max(gaps, axis=1) <= 1.01))
        dilated &= close
    return pts[plain], pts[dilated & ~plain]


@pytest.mark.parametrize("name", sorted(fixture_catalog.FIXTURES))
def test_transfer_single_dilation_matches_per_lambda_reference(name):
    prob = fixture_catalog.build(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    default = check_transfer_closed(prob).evidence["lambda_samples"]
    ladders = [None,
               rng.permutation(np.concatenate([default, rng.choice(default, 5)])),
               rng.choice(default[:6], 8)]
    for ladder in ladders:
        evidence = check_transfer_closed(prob, ladder).evidence
        plain, collar = _per_lambda_intersection(prob, evidence["lambda_samples"])
        np.testing.assert_array_equal(evidence["plain_intersection"], plain)
        np.testing.assert_array_equal(evidence["collar_points"], collar)


def _build(doc):
    return build_problem({"schema_version": "1", **doc})


def test_transfer_and_rgi_agree_on_a_point_still_descending_at_the_refinement_floor():
    # psi is -5 up to 0.4, then |x - 0.5| on either side of 0.5, where it
    # is 2: refined minima around 0.5 keep falling toward 0, never to -5
    prob = _build({
        "cone": {"dual_generators": [[1.0]], "q": [1.0]},
        "domain": {"box": [[-1.0, 1.0]], "resolution": [21]},
        "map": {"kind": "piecewise", "parameters": {"regions": [
            {"where": {"type": "eq", "point": [0.5]}, "cloud": {"points": [[2.0]]}},
            {"where": {"type": "interval", "hi": 0.4}, "cloud": {"points": [[-5.0]]}},
            {"where": {"type": "interval", "hi": 0.5, "hi_strict": True},
             "cloud": {"type": "affine_point", "matrix": [[-1.0]], "offset": [0.5]}},
            {"cloud": {"type": "affine_point", "matrix": [[1.0]], "offset": [-0.5]}}]}}})
    for verdict in (check_transfer_closed(prob), check_regular_global_inf(prob)):
        assert verdict.status == "inconclusive"
        assert verdict.evidence["limiting_resource"] == "refinement floor"
        assert verdict.evidence["suspicious_points"] == [[0.5]]


def test_rgi_refines_every_lattice_neighbour_of_the_infimum(monkeypatch):
    # the disc sits lower at the centre of the 3 x 3 grid only, so its collar
    # is the other 8 points, diagonals included
    centre = {"family": "fixed", "value": [0.0, 0.0],
              "overrides": [{"at": [0.0, 0.0], "value": [-3.0, -3.0]}]}
    prob = _build({
        "cone": {"dual_generators": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0, 1.0]},
        "domain": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "resolution": [3, 3]},
        "map": {"kind": "ball", "parameters": {"center": centre, "radius": 0.5,
                                               "samples": 8}}})
    refined = []
    refine = diagnostics._refine
    monkeypatch.setattr(diagnostics, "_refine",
                        lambda problem, X0, *args: refined.extend(X0.tolist())
                        or refine(problem, X0, *args))
    assert check_regular_global_inf(prob).status == "holds"
    assert refined == [p for p in prob.grid.points.tolist() if p != [0.0, 0.0]]


def test_coercivity_reads_each_colevel_set_once(decay, monkeypatch):
    calls = []
    monkeypatch.setattr(diagnostics, "colevel",
                        lambda problem, lam: calls.append(lam) or colevel(problem, lam))
    verdict = check_coercivity(decay)
    assert verdict.status == "fails"
    assert calls == verdict.evidence["probed_lambdas"]


def test_refine_verdicts(decay):
    level = scalar_field(decay).inf_value + diagnostics._margin(decay)
    (at_zero, _), (at_five, _) = diagnostics._refine(decay, np.array([[0.0], [5.0]]), level, None)
    assert at_zero == "witness"
    assert at_five is None
    # every probe around 5 lies outside the unit ball
    assert diagnostics._refine(decay, np.array([[5.0]]), level, 1.0) == [("unresolved", [])]
    assert diagnostics._refine(_table_with_gap(), np.array([[1.0]]), 0.0, None) \
        == [("unresolved", [])]


def _bits(results):
    """Refinement results with every minimum as its exact bits (signed zeros apart)."""
    return [(verdict, [low.hex() for low in minima]) for verdict, minima in results]


@pytest.mark.parametrize("name", sorted(fixture_catalog.FIXTURES))
def test_batched_refine_equals_its_row_by_row_calls(name, monkeypatch):
    # every batch the checks refine: the rgi collars, unrestricted and per
    # norm ball, and the transfer collar; each check reads its collar once
    calls = []
    refine = diagnostics._refine
    monkeypatch.setattr(diagnostics, "_refine",
                        lambda problem, X0, *args: calls.append((X0, *args))
                        or refine(problem, X0, *args))
    sizes = {"sample_size": 100} if name == "hyperbola_escape" else {}
    prob = fixture_catalog.build(name, **sizes)
    report = existence_report(prob)
    check_transfer_closed(prob)
    restrictions = [None] + [float(n) for n in report.restricted_rgi]
    assert [restrict for _, _, restrict in calls[:-1]] == restrictions
    alone = fixture_catalog.build(name, **sizes)  # a fresh memo for the one-row calls
    for X0, level, restrict in calls:
        rows = [refine(alone, X0[i:i + 1], level, restrict)[0] for i in range(len(X0))]
        assert _bits(refine(prob, X0, level, restrict)) == _bits(rows)


def _one_point_refinement_minima(problem, x0, restrict_norm):
    """The minima trace of one point, taken ring by ring with Python's min()."""
    step = float(problem.grid.step_estimate().max())
    rings = [x0 + diagnostics._probe_offsets(len(x0), float(r))
             for r in step * np.asarray(diagnostics._REFINE_LEVELS)]
    probes = np.concatenate(rings)
    inside = diagnostics._domain_mask(problem, probes, restrict_norm)
    ring = np.repeat(np.arange(len(rings)), [len(p) for p in rings])[inside]
    values = diagnostics.scalar_values_at(problem, probes[inside])
    return [min(values[ring == k].tolist()) for k in np.unique(ring)]


def test_refinement_minima_are_pythons_min_over_each_radius(decay, shifted72, monkeypatch):
    # probe values drawn from ties, signed zeros, infinities and NaN, fixed
    # per probe point: each radius's minimum is min() of its values inside
    # the domain, NaN only when the first of them is NaN
    pool = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
    monkeypatch.setattr(diagnostics, "scalar_values_at", lambda problem, X: np.array(
        [pool[zlib.crc32(row.tobytes()) % len(pool)] for row in np.asarray(X)]))
    for prob, restrict in [(decay, None), (decay, 9.95), (shifted72, None), (shifted72, 1.7)]:
        X0 = prob.grid.points
        for (_, minima), x0 in zip(diagnostics._refine(prob, X0, 0.0, restrict), X0):
            expected = _one_point_refinement_minima(prob, x0, restrict)
            assert [low.hex() for low in minima] == [low.hex() for low in expected]


def _mirrored(where):
    """The region predicate of the mirror image x -> -x."""
    if where["type"] == "eq":
        return {"type": "eq", "point": [-where["point"][0]]}
    out = {"type": "interval"}
    if "hi" in where:
        out["lo"], out["lo_strict"] = -where["hi"], where.get("hi_strict", False)
    if "lo" in where:
        out["hi"], out["hi_strict"] = -where["lo"], where.get("lo_strict", False)
    return out


def _piecewise_with_an_uncovered_probe(witness_first: bool):
    # psi is -5 below -0.4 and from 0.5 on, 2 at the collar points -0.4 and
    # 0.4, and 1 on (-0.4, 0.35]; no region covers the probes beside 0.4,
    # while the probes left of -0.4 reach -5, a transfer witness
    regions = [
        {"where": {"type": "interval", "hi": -0.4, "hi_strict": True},
         "cloud": {"points": [[-5.0]]}},
        {"where": {"type": "interval", "lo": 0.5}, "cloud": {"points": [[-5.0]]}},
        {"where": {"type": "eq", "point": [-0.4]}, "cloud": {"points": [[2.0]]}},
        {"where": {"type": "eq", "point": [0.4]}, "cloud": {"points": [[2.0]]}},
        {"where": {"type": "interval", "lo": -0.4, "lo_strict": True, "hi": 0.35},
         "cloud": {"points": [[1.0]]}},
    ]
    if not witness_first:  # mirrored, the uncovered probes come first
        regions = [{**region, "where": _mirrored(region["where"])} for region in regions]
    return {"schema_version": "1", "cone": {"dual_generators": [[1.0]], "q": [1.0]},
            "domain": {"box": [[-1.0, 1.0]], "resolution": [21]},
            "map": {"kind": "piecewise", "parameters": {"regions": regions}}}


def test_transfer_stops_at_its_first_witness_before_an_uncovered_probe(tmp_path, capsys):
    doc = _piecewise_with_an_uncovered_probe(witness_first=True)
    verdict = check_transfer_closed(build_problem(doc))
    assert verdict.status == "fails"
    assert verdict.witness == pytest.approx([-0.4])
    path = tmp_path / "witness_first.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--transfer"]) == 0
    assert json.loads(capsys.readouterr().out)["transfer_closed"]["status"] == "fails"
    # regular-global-inf refines every collar point, so it meets the uncovered probe
    assert main(["check", str(path), "--rgi"]) == 1
    assert "no region covers x=[0.406" in capsys.readouterr().err
    # mirrored, the uncovered probe comes before the witness
    path = tmp_path / "uncovered_first.json"
    path.write_text(json.dumps(_piecewise_with_an_uncovered_probe(witness_first=False)))
    assert main(["check", str(path), "--transfer"]) == 1
    assert "no region covers x=[-0.39" in capsys.readouterr().err


def _constant_box(resolution):
    """A constant map on the box [-1, 1]^d at the given resolution."""
    return _build({"cone": {"dual_generators": [[1.0]], "q": [1.0]},
                   "domain": {"box": [[-1.0, 1.0]] * len(resolution), "resolution": resolution},
                   "map": {"kind": "constant", "parameters": {"cloud": [[0.0]]}}})


@pytest.mark.parametrize("fraction", [0.05, 0.5, 0.95])
def test_collar_matches_a_pairwise_chebyshev_scan(fraction):
    # box grids in one to three dimensions with unequal resolutions, and a
    # grid given as points, whose collar loops over whichever side is smaller
    problems = [_constant_box(resolution) for resolution in
                ([11], [7, 5], [5, 9], [9, 5], [7, 21], [3, 3], [4, 3, 5], [2, 6, 3])]
    doc = fixture_catalog.document("shifted_disc", samples=8)
    doc["domain"]["resolution"] = [7, 5]
    problems.append(_build({**doc, "domain": {"points": _build(doc).grid.points.tolist()}}))
    for prob in problems:
        pts, steps = prob.grid.points, prob.grid.step_estimate()
        rng = np.random.default_rng(int(100 * fraction))
        members = np.flatnonzero(rng.random(len(pts)) < fraction)
        gaps = np.max(np.abs(pts[:, None, :] - pts[None, members, :]) / steps, axis=2)
        expected = [i for i in range(len(pts)) if i not in members and (gaps[i] <= 1.01).any()]
        np.testing.assert_array_equal(diagnostics._collar(prob, members), expected)


def test_coercivity_verdicts(shifted72, decay):
    verdict = check_coercivity(shifted72, lam_probe=-3.0)
    assert verdict.status == "holds"
    np.testing.assert_allclose(verdict.evidence["colevel_points"], [[1.0, 0.0]])
    assert check_coercivity(decay).status == "fails"
    assert check_coercivity(constant_problem([[1.0, 1.0]])).status == "fails"
    with pytest.raises(ProblemValidationError):
        check_coercivity(decay, lam_probe=-5.0)


def test_coercivity_inconclusive_without_box():
    prob = constant_problem([[1.0, 1.0]], points=[[0.0], [1.0]])
    verdict = check_coercivity(prob)
    assert verdict.status == "inconclusive"
    assert "box" in verdict.evidence["limiting_resource"]


def test_colevel_compact_at_disc(shifted72):
    verdict = check_colevel_compact_at(shifted72, [1.0, 0.0])
    assert verdict.status == "fails"  # whole grid, touches the box
    assert verdict.evidence["compactness_implication_active"] is False


def test_colevel_compact_at_tradeoff(tradeoff):
    verdict = check_colevel_compact_at(tradeoff, [0.0])
    assert verdict.status == "holds"
    assert verdict.evidence["x0_strictly_efficient"] is True


def test_colevel_compact_at_constant():
    prob = constant_problem([[1.0, 1.0]])
    verdict = check_colevel_compact_at(prob, [0.0])
    assert verdict.status == "fails"
    # the disjunction still holds: every point of a constant map is efficient
    assert verdict.evidence["x0_strictly_efficient"] is True


# x0 = 2.0, the last grid point, is not strictly efficient
@pytest.mark.parametrize("dominated", [
    lambda n, strict: np.arange(n) == n - 1,    # a row that drops x0 only
    lambda n, strict: np.isin(np.arange(n), strict),  # one that drops every strict point only
])
def test_colevel_compact_at_raises_on_a_row_the_relation_cannot_give(tradeoff, monkeypatch,
                                                                     dominated):
    row = dominated(len(tradeoff.grid), efficient_sets(tradeoff)[0])
    monkeypatch.setattr("setopt.diagnostics.domination_row", lambda problem, i: row)
    with pytest.raises(InternalConsistencyError, match="misses x0 or every strictly efficient"):
        check_colevel_compact_at(tradeoff, [2.0])


@pytest.mark.parametrize("name", sorted(fixture_catalog.FIXTURES))
def test_colevel_at_set_is_a_row_of_the_domination_matrix(name):
    # check_colevel_compact_at reads its colevel set off D; the pairwise
    # route costs p^2 per pair, so hyperbola_escape keeps 200 of its samples
    prob = fixture_catalog.build(name, **({"sample_size": 200} if name == "hyperbola_escape"
                                         else {}))
    d = domination_matrix(prob)
    for i in np.unique(np.linspace(0, len(prob.grid) - 1, 6).astype(int)):
        np.testing.assert_array_equal(colevel_at_set(prob, PointCloudSet(prob.cloud(i))),
                                      np.flatnonzero(~d[i]))


def test_existence_report_disc(shifted72):
    report = existence_report(shifted72)
    assert report.coercive.applicable
    assert report.strict_solutions_nonempty
    assert [1.0, 0.0] in report.strict_solution_sample


def test_existence_report_wedge(wedge):
    report = existence_report(wedge)
    assert report.coercive.applicable
    assert report.strict_solution_sample == [[0.0]]


def test_existence_report_ramp(ramp):
    report = existence_report(ramp)
    assert report.coercive.applicable
    assert not report.noncoercive.applicable
    assert any("norm ball 1" in reason for reason in report.noncoercive.blocked_by)
    assert report.restricted_rgi[1].status == "fails"


def test_existence_report_decay(decay):
    report = existence_report(decay)
    assert not report.coercive.applicable
    assert not report.noncoercive.applicable
    assert "asymptotic_gap" in report.noncoercive.blocked_by
    assert report.strict_solutions_nonempty  # conclusion check must not fire


def test_coercive_problems_pass_gap_check(shifted72, wedge, ramp, kinked, tradeoff):
    for prob in (shifted72, wedge, ramp, kinked, tradeoff):
        if check_coercivity(prob).holds:
            assert check_asymptotic_gap(prob).holds


def test_applicable_report_means_solutions_exist(shifted72, wedge, ramp, kinked, tradeoff,
                                                 parabola):
    for prob in (shifted72, wedge, ramp, kinked, tradeoff, parabola):
        report = existence_report(prob)
        if report.coercive.applicable or report.noncoercive.applicable:
            assert report.strict_solutions_nonempty
