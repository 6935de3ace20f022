import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setopt import (ConeSpec, DimensionMismatchError, ProblemValidationError, contains,
                    contains_interior, gerstewitz, gerstewitz_bisect, gerstewitz_many)
from setopt.cone import linear_forms

from conftest import unfused_forms

ORTHANT2 = ConeSpec.orthant(2, [1.0, 1.0])
ORTHANT3 = ConeSpec.orthant(3, [1.0, 2.0, 4.0])
# {(a, b): -a <= b <= a} with order unit (1, 0)
WEDGE = ConeSpec(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.0]))

CONES = [ORTHANT2, ORTHANT3, WEDGE]


def test_contains_examples():
    assert contains(ORTHANT2, [0.0, 0.0])  # the apex belongs to every cone
    assert contains(WEDGE, [1.0, 0.0])
    # direct inner product: <(1, -1), (0, 2)> = -2 < 0
    assert not contains(WEDGE, [0.0, 2.0])


def test_contains_interior_examples():
    assert contains_interior(ORTHANT2, [1.0, 1.0])
    assert not contains_interior(ORTHANT2, [1.0, 0.0])  # boundary point
    assert contains_interior(WEDGE, WEDGE.order_unit)


def test_gerstewitz_examples():
    assert gerstewitz(ORTHANT2, [3.0, 5.0]) == pytest.approx(3.0, abs=1e-12)
    assert gerstewitz(WEDGE, [0.0, 2.0]) == pytest.approx(-2.0, abs=1e-12)


def test_gerstewitz_along_order_unit():
    for cone in CONES:
        for alpha in (-2.5, 0.0, 0.75, 4.0):
            value = gerstewitz(cone, alpha * cone.order_unit)
            assert value == pytest.approx(alpha, abs=1e-12)


def test_bisect_examples():
    assert gerstewitz_bisect(ORTHANT2, [3.0, 5.0], tol=1e-9) == pytest.approx(3.0, abs=1e-9)
    assert gerstewitz_bisect(ORTHANT3, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-9)
    # hand computation: sup{t: t <= x - |y|} for the wedge with q = (1, 0)
    for x, y in [(0.7, -0.3), (-1.2, 0.5), (2.0, 2.0)]:
        assert gerstewitz_bisect(WEDGE, [x, y], tol=1e-10) == pytest.approx(
            x - abs(y), abs=1e-9
        )


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains(ORTHANT2, [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        gerstewitz(ORTHANT3, [1.0, 2.0])


def test_cone_validation():
    with pytest.raises(ProblemValidationError, match="not interior"):
        ConeSpec(np.eye(2), np.array([0.0, 1.0]))
    with pytest.raises(ProblemValidationError, match="nonzero"):
        ConeSpec(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ProblemValidationError):
        ConeSpec(np.eye(2), np.array([np.inf, 1.0]))
    # 2e308 - 2e308 overflows to inf - inf, NaN, with no warning
    with pytest.raises(ProblemValidationError, match="overflow"):
        ConeSpec(np.array([[1e308, -1e308], [1.0, 1.0]]), np.array([2.0, 2.0]))
    for cone_tol in (np.nan, np.inf, 0.0, -1e-12):
        with pytest.raises(ProblemValidationError, match="cone_tol must be finite and positive"):
            ConeSpec(np.eye(2), np.array([1.0, 1.0]), cone_tol)


coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def cone_and_points(draw, count=1):
    cone = draw(st.sampled_from(CONES))
    pts = [np.array([draw(coords) for _ in range(cone.dim_image)]) for _ in range(count)]
    return (cone, *pts)


@given(cone_and_points(), st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_translation_invariance(cp, alpha):
    cone, y = cp
    shifted = gerstewitz(cone, y + alpha * cone.order_unit)
    assert shifted == pytest.approx(gerstewitz(cone, y) + alpha, abs=1e-9)


@given(cone_and_points(count=2), st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_monotonicity(cp, t):
    cone, y1, y2 = cp
    # the shifted point is always comparable; the random pair only sometimes
    assert gerstewitz(cone, y1) <= gerstewitz(cone, y1 + t * cone.order_unit) + 1e-9
    if contains(cone, y2 - y1):
        assert gerstewitz(cone, y1) <= gerstewitz(cone, y2) + 1e-9
    if contains_interior(cone, y2 - y1):
        assert gerstewitz(cone, y1) < gerstewitz(cone, y2) + 1e-12


@given(cone_and_points(), st.floats(min_value=0.01, max_value=8.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_positive_homogeneity(cp, t):
    cone, y = cp
    assert gerstewitz(cone, t * y) == pytest.approx(t * gerstewitz(cone, y), abs=1e-8)


@given(cone_and_points(count=2))
@settings(max_examples=200, deadline=None)
def test_superadditive(cp):
    # witnesses add: y in t1*q + P and z in t2*q + P put y + z in
    # (t1 + t2)*q + P, so the sup-form scalarization is superadditive
    cone, y, z = cp
    assert gerstewitz(cone, y + z) >= gerstewitz(cone, y) + gerstewitz(cone, z) - 1e-9


@given(cone_and_points())
@settings(max_examples=300, deadline=None)
def test_level_identities(cp):
    cone, y = cp
    psi = gerstewitz(cone, y)
    # (i): y sits in psi * q + P
    assert contains(cone, y - psi * cone.order_unit)
    for lam in (psi - 1.75, psi - 0.25, psi, psi + 0.25, psi + 1.75):
        shifted = y - lam * cone.order_unit
        assert (psi > lam) == contains_interior(cone, shifted) or lam == psi
        assert (psi >= lam) == contains(cone, shifted)
        if lam != psi:
            assert (psi > lam) == contains_interior(cone, shifted)


@given(cone_and_points())
@settings(max_examples=200, deadline=None)
def test_oracle_matches_closed_form(cp):
    cone, y = cp
    assert abs(gerstewitz(cone, y) - gerstewitz_bisect(cone, y, tol=1e-10)) <= 1e-9


def test_gerstewitz_many_matches_scalar():
    rng = np.random.default_rng(11)
    for cone in CONES:
        ys = rng.uniform(-10, 10, (40, cone.dim_image))
        batch = gerstewitz_many(cone, ys)
        for row, expected in zip(ys, batch):
            assert gerstewitz(cone, row) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_gerstewitz_many_equals_the_reduce_over_generators(k):
    # scores from a few exact values tie often, hit both signed zeros and
    # overflow to +-inf (or NaN); the generator-by-generator minimum must
    # keep the bits of np.min over the generator axis of the unfused score
    # ratios, NaN where it has NaN (numpy's reduce picks the sign of a NaN
    # its own way; JSON, comparisons and arithmetic never read it)
    rng = np.random.default_rng(k)
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, np.inf, -np.inf, 1e308, -1e308])
    for m in (1, 2, 3):
        rows = []
        while len(rows) < k:
            w = rng.integers(-1, 3, m).astype(float)
            if w.sum() > 0.0:
                rows.append(w)
        cone = ConeSpec(np.array(rows), np.full(m, 0.5))
        units = unfused_forms([cone.order_unit], cone.dual_generators)[0].tolist()
        for shape in [(int(rng.integers(1, 400)), m), (int(rng.integers(1, 30)), 36, m)]:
            ys = rng.choice(values, size=shape)
            ys[rng.random(shape[:-1]) < 0.3] = rng.normal(size=m)
            ratios = [[s / u for s, u in zip(row, units)]
                      for row in unfused_forms(ys.reshape(-1, m), cone.dual_generators).tolist()]
            expected = np.min(np.array(ratios), axis=-1).reshape(shape[:-1])
            with np.errstate(all="ignore"):
                got = gerstewitz_many(cone, ys)
            assert got.shape == expected.shape
            nan = np.isnan(expected)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == expected[~nan].tobytes()


def test_linear_forms_are_unfused_fixed_order_sums():
    # generic values, where a fused multiply-add rounds differently
    rng = np.random.default_rng(3)
    for m, k in ((1, 1), (2, 2), (2, 3), (3, 3), (4, 2)):
        W = rng.normal(size=(k, m))
        points = rng.normal(size=(5000, m)) * 10.0 ** rng.integers(-3, 4, (5000, 1))
        points[:50] = -0.0
        got = linear_forms(points, W)
        assert got.tobytes() == unfused_forms(points, W).tobytes()
        assert not np.signbit(got[:50]).any()  # the fold starts from +0.0
        # leading shapes and batch sizes change no bit
        stacked = linear_forms(points.reshape(50, 100, m), W)
        assert stacked.tobytes() == got.tobytes()
        for i in (0, 7, 4999):  # one point takes the Python-float path
            assert linear_forms(points[i], W).tobytes() == got[i].tobytes()


def test_delta_and_tau_are_cone_tol_over_the_extreme_unit_scores():
    cone = ConeSpec(np.array([[0.8, 0.3], [0.1, 1.7]]), np.array([0.9, 0.6]), 3e-12)
    units = [0.8 * 0.9 + 0.3 * 0.6, 0.1 * 0.9 + 1.7 * 0.6]
    assert cone._delta.hex() == (3e-12 / max(units)).hex()
    assert cone._tau.hex() == (3e-12 / min(units)).hex()
