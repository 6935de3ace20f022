import numpy as np
import pytest

from setopt import ConeSpec, DomainGrid, MapModel, PointCloudSet, SetValuedProblem, \
    strictly_lower_less
from setopt import fixtures as fixture_catalog


@pytest.fixture(scope="session")
def tradeoff():
    return fixture_catalog.build("tradeoff_segment")


@pytest.fixture(scope="session")
def shifted72():
    return fixture_catalog.build("shifted_disc", samples=72)


@pytest.fixture(scope="session")
def shifted360():
    return fixture_catalog.build("shifted_disc")


@pytest.fixture(scope="session")
def wedge():
    return fixture_catalog.build("wedge_strip")


@pytest.fixture(scope="session")
def kinked():
    return fixture_catalog.build("kinked_interval")


@pytest.fixture(scope="session")
def parabola():
    return fixture_catalog.build("parabola_interval")


@pytest.fixture(scope="session")
def decay():
    return fixture_catalog.build("decay_tail")


@pytest.fixture(scope="session")
def ramp():
    return fixture_catalog.build("ramp_gap")


def constant_problem(cloud, box=None, resolution=None, points=None, q=None):
    """A constant-map problem on a small grid, for trivial-case tests."""
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    m = cloud.shape[1]
    cone = ConeSpec.orthant(m, np.ones(m) if q is None else q)
    if points is not None:
        grid = DomainGrid(np.asarray(points, dtype=float))
    else:
        grid = DomainGrid.from_box(box or [[-2.0, 2.0]], resolution or [9])
    map_model = MapModel(kind="constant", params={"cloud": cloud.tolist()})
    return SetValuedProblem(grid=grid, map_model=map_model, cone=cone)


def coords_1d(problem, indices):
    """Sorted 1D coordinates for a set of grid indices."""
    return sorted(float(problem.grid.points[i, 0]) for i in indices)


def colevel_at_set(problem, cloud):
    """Sorted grid indices x where the given set does not strictly dominate F(x).

    The pairwise route: `strictly_lower_less` on every grid cloud in turn,
    which `solver.domination_row` must reproduce.
    """
    images = (PointCloudSet(problem.cloud(i)) for i in range(len(problem.grid)))
    return np.flatnonzero([not strictly_lower_less(cloud, b, problem.cone) for b in images])


def unfused_forms(points, W) -> np.ndarray:
    """<w, p> for every row p of points and w of W, in plain Python floats.

    Each is ((0.0 + p_0 w_0) + p_1 w_1) + ..., every multiply and add
    rounded on its own: the reference that `cone.linear_forms` must match
    bit for bit, independent of numpy and the BLAS.
    """
    rows = []
    for p in np.asarray(points, dtype=float).tolist():
        row = []
        for w in np.asarray(W, dtype=float).tolist():
            total = 0.0
            for x, c in zip(p, w):
                total = total + x * c
            row.append(total)
        rows.append(row)
    return np.array(rows).reshape(len(rows), len(W))
