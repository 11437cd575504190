import inspect

import numpy as np
import pytest

from vemsupg.forms import ProblemData
from vemsupg.geometry import ElementGeometry
from vemsupg.mesh import generate_cartesian, generate_concave_pentagons, generate_voronoi

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

_SHARED_MESHES = {}


def shared_mesh(generator, *args, **kwargs):
    """``generator(*args, **kwargs)``, built once per test session.

    Calls that bind the generator's parameters to the same values share one
    mesh.  Its arrays are read-only, so a test that writes into a shared mesh
    fails; a test that changes a mesh builds or copies its own.
    """
    bound = inspect.signature(generator).bind(*args, **kwargs)
    bound.apply_defaults()
    key = (generator, tuple(bound.arguments.items()))
    if key not in _SHARED_MESHES:
        mesh = generator(*args, **kwargs)
        for value in vars(mesh).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        _SHARED_MESHES[key] = mesh
    return _SHARED_MESHES[key]


def share_voronoi(monkeypatch, module):
    """For one test, route ``module.generate_voronoi`` through ``shared_mesh``."""
    monkeypatch.setattr(
        module, "generate_voronoi",
        lambda *args, **kwargs: shared_mesh(generate_voronoi, *args, **kwargs),
    )


def make_geometry(verts, k=1, ell=1, cell=None):
    return ElementGeometry(verts, 2 * (k + ell) + 2, k + ell + 1, cell=cell)


def swirl_problem(kappa=1e-2):
    """Sine solution transported by a divergence-free rotating velocity field."""

    def beta(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([pts[:, 1] - 0.5, 0.5 - pts[:, 0]])

    def u(pts):
        pts = np.atleast_2d(pts)
        return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def grad(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack(
            [
                np.pi * np.cos(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1]),
                np.pi * np.sin(np.pi * pts[:, 0]) * np.cos(np.pi * pts[:, 1]),
            ]
        )

    return ProblemData(
        kappa=kappa,
        beta=beta,
        source=lambda pts: 2 * np.pi**2 * kappa * u(pts)
        + (beta(pts) * grad(pts)).sum(axis=1),
        dirichlet={"*": u},
        exact=u,
        exact_grad=grad,
        name="swirl",
    )


@pytest.fixture(scope="session")
def square_geom():
    return make_geometry(UNIT_SQUARE, k=4, ell=6)


@pytest.fixture(scope="session")
def mesh_t1():
    return generate_cartesian(4, 4)


@pytest.fixture(scope="session")
def mesh_t2():
    return generate_concave_pentagons(4)


@pytest.fixture(scope="session")
def mesh_t3():
    return generate_voronoi(25, lloyd_iters=50, seed=42)


@pytest.fixture(scope="session")
def acceptance_meshes(mesh_t1, mesh_t2, mesh_t3):
    return {"t1": mesh_t1, "t2": mesh_t2, "t3": mesh_t3}
