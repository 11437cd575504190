"""Cross-module invariants monitored on the acceptance meshes."""

import numpy as np
import pytest

from conftest import make_geometry, swirl_problem
from vemsupg.basis import poly_dim
from vemsupg.errors import MeshError
from vemsupg.harness import generate_mesh, solve_problem
from vemsupg.mesh import _reject_duplicate_sites
from vemsupg.problems import problem_test1, problem_test2
from vemsupg.space import LocalSpace


def test_duplicate_sites_rejected():
    sites = np.array([[0.25, 0.5], [0.25, 0.5], [0.75, 0.5]])
    with pytest.raises(MeshError, match="duplicate"):
        _reject_duplicate_sites(sites)


def test_projector_reproduction_k4(acceptance_meshes):
    # module invariant covers orders up to 4, on every family
    rng = np.random.default_rng(44)
    for mesh in acceptance_meshes.values():
        for c in (0, mesh.n_cells - 1):
            geom = make_geometry(mesh.cell_vertices(c), k=4, ell=1, cell=c)
            space = LocalSpace(geom, 4, 1)
            p = rng.standard_normal(poly_dim(4))
            dofs = space.polynomial_dofs(p)
            got = space.pinabla_coeff @ dofs
            assert got == pytest.approx(p, rel=1e-11, abs=1e-11 * np.abs(p).max())
            low = space.pizero_scalar(4) @ dofs
            assert low == pytest.approx(p, rel=1e-11, abs=1e-11 * np.abs(p).max())


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the k = 4 L2 projector reproduces P_4 only to 4e-11..6e-10 "
    "on the thin-kernel pentagons (the odd cells)",
)
def test_projector_reproduction_k4_every_pentagon(mesh_t2):
    # every cell of the t2 n = 4 tiling and every monomial of P_4, at the
    # tolerance of test_projector_reproduction_k4; the H1 projector passes
    # everywhere, the L2 projector misses on all 16 odd cells
    eye = np.eye(poly_dim(4))
    missed = []
    for c in range(mesh_t2.n_cells):
        geom = make_geometry(mesh_t2.cell_vertices(c), k=4, ell=1, cell=c)
        space = LocalSpace(geom, 4, 1)
        dofs = np.column_stack([space.polynomial_dofs(p) for p in eye])
        assert space.pinabla_coeff @ dofs == pytest.approx(eye, abs=1e-11), c
        if np.abs(space.pizero_scalar(4) @ dofs - eye).max() > 1e-11:
            missed.append(c)
    assert missed == [], f"P_4 not reproduced to 1e-11 on cells {missed}"


@pytest.mark.parametrize("family,n", [("t1", 4), ("t2", 2), ("t3", 4)])
def test_global_form_positive_on_acceptance_meshes(family, n):
    # monitored realization of the well-posedness statement: the assembled
    # form is strictly positive on the Dirichlet-reduced space
    mesh = generate_mesh(family, n, seed=42)
    problem = problem_test1()
    res = solve_problem(mesh, problem, 1, ell="auto")
    system = res.solution.system
    a = system.reduced_matrix.toarray()
    lam = np.linalg.eigvalsh(0.5 * (a + a.T))
    assert lam.min() > 0.0


def test_test2_mesh_peclet_magnitude():
    # mean element Peclet on a 1/32 cartesian mesh sits in the 1e4..1e5 band
    mesh = generate_mesh("t1", 32)
    res = solve_problem(mesh, problem_test2(), 1, ell={4: 1})
    assert 1e4 <= res.mean_peclet <= 1e5


def test_coefficient_invariants(acceptance_meshes):
    from vemsupg.forms import element_coefficients

    problem = problem_test1()
    for mesh in acceptance_meshes.values():
        for c in (0, mesh.n_cells - 1):
            geom = make_geometry(mesh.cell_vertices(c), k=2, ell=1, cell=c)
            coef = element_coefficients(geom, problem, 2)
            assert coef.peclet >= 0.0
            assert 0.0 <= coef.tau <= geom.h / (2.0 * coef.beta_sup)


def test_variable_velocity_field_end_to_end():
    # divergence-free rotating field through the full pipeline; projections
    # are exact only for constant coefficients, so expect small but nonzero
    # errors that shrink under refinement
    problem = swirl_problem()
    errs = []
    for n in (8, 16):
        mesh = generate_mesh("t1", n)
        res = solve_problem(mesh, problem, 2, ell="auto")
        errs.append(res.error(problem))
    assert errs[1] < 0.4 * errs[0]
    assert errs[1] < 0.02


def test_fan_triangles_tile_each_cell(acceptance_meshes):
    from vemsupg.geometry import polygon_signed_area

    for mesh in acceptance_meshes.values():
        for c in (0, mesh.n_cells // 2):
            geom = make_geometry(mesh.cell_vertices(c), k=1, ell=0, cell=c)
            tri_areas = [polygon_signed_area(tri) for tri in geom.triangles]
            assert min(tri_areas) > 0.0
            assert sum(tri_areas) == pytest.approx(geom.area, rel=1e-12)
            assert geom.quad_weights.sum() == pytest.approx(geom.area, rel=1e-12)
