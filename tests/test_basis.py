from types import SimpleNamespace

import numpy as np
import pytest

from conftest import UNIT_SQUARE, make_geometry
from oracles import (
    eval_basis_by_member,
    grad_map_by_member,
    laplace_map_by_member,
    polygon_monomial_gram,
    triangle_monomial_integral,
)
from vemsupg.basis import (
    MonomialBasis,
    _derivative_patterns,
    div_map,
    eval_basis,
    grad_map,
    laplace_map,
    mass_matrix,
    monomial_exponents,
    monomial_index,
    poly_dim,
)


def test_graded_lex_order():
    exps = monomial_exponents(3)
    assert poly_dim(3) == 10 == len(exps)
    degrees = exps.sum(axis=1)
    assert np.all(np.diff(degrees) >= 0)
    for i, (a1, a2) in enumerate(exps):
        assert monomial_index(a1, a2) == i


def test_eval_basis_scaling(square_geom):
    basis = MonomialBasis(square_geom, 2)
    center, h = basis.center, basis.scale
    # constant member is 1 anywhere, others vanish at the star center
    vals = eval_basis(basis, center[None, :])
    assert vals[0, 0] == 1.0
    assert np.allclose(vals[1:, 0], 0.0)
    # unit offset along x gives exactly 1 for the (1, 0) member
    vals = eval_basis(basis, (center + [h, 0.0])[None, :])
    assert vals[monomial_index(1, 0), 0] == pytest.approx(1.0, rel=1e-15)
    # random point agrees with direct power evaluation
    rng = np.random.default_rng(3)
    pts = rng.random((5, 2))
    vals = eval_basis(basis, pts)
    for i, (a1, a2) in enumerate(basis.exponents):
        direct = ((pts[:, 0] - center[0]) / h) ** a1 * ((pts[:, 1] - center[1]) / h) ** a2
        assert vals[i] == pytest.approx(direct, rel=1e-14)


def test_derivative_maps(square_geom):
    basis = MonomialBasis(square_geom, 3)
    h = basis.scale
    lap = laplace_map(basis)
    # laplacian of m_(2,0) is 2/h^2 on the constant
    col = monomial_index(2, 0)
    expect = np.zeros(poly_dim(1))
    expect[0] = 2.0 / h**2
    assert lap[:, col] == pytest.approx(expect, rel=1e-15)
    # div of grad equals laplacian as matrices
    dx, dy = grad_map(basis)
    sub = MonomialBasis(square_geom, 2)
    div = div_map(sub)
    lap2 = div @ np.vstack([dx, dy])
    assert lap2 == pytest.approx(lap, rel=1e-14, abs=1e-16)
    # gradient of the constant vanishes
    assert np.all(dx[:, 0] == 0.0)
    assert np.all(dy[:, 0] == 0.0)


def test_gradient_nilpotent(square_geom):
    n = 3
    coeff = np.zeros(poly_dim(n))
    coeff[-1] = 1.0  # pure degree-n member
    basis = MonomialBasis(square_geom, n)
    cur = coeff
    for order in range(n, 0, -1):
        dx, _ = grad_map(MonomialBasis(square_geom, order))
        cur = dx @ cur
    assert cur.shape == (1,)
    dx0, dy0 = grad_map(MonomialBasis(square_geom, 0))
    assert dx0.shape == (0, 1) and dy0.shape == (0, 1)


def test_mass_matrix_unit_square_order0(square_geom):
    basis = MonomialBasis(square_geom, 0)
    h = mass_matrix(basis)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_mass_matrix_matches_closed_form(order, square_geom):
    basis = MonomialBasis(square_geom, order)
    h = mass_matrix(basis)
    exact = polygon_monomial_gram(
        UNIT_SQUARE, basis.exponents.tolist(), basis.center, basis.scale
    )
    assert h == pytest.approx(exact, rel=1e-13, abs=1e-16)
    assert np.allclose(h, h.T)
    assert np.linalg.eigvalsh(h).min() > 0.0


def test_mass_matrix_spd_on_families(mesh_t1, mesh_t2, mesh_t3):
    for mesh in (mesh_t1, mesh_t2, mesh_t3):
        geom = make_geometry(mesh.cell_vertices(0), k=3, ell=3)
        for order in (2, 6):
            h = mass_matrix(MonomialBasis(geom, order))
            assert np.allclose(h, h.T, atol=1e-15)
            assert np.linalg.eigvalsh(h).min() > 0.0


def test_mass_matrix_requires_quadrature():
    geom = make_geometry(UNIT_SQUARE, k=1, ell=0)  # exact to degree 4
    with pytest.raises(ValueError, match="needs"):
        mass_matrix(MonomialBasis(geom, 3))


def test_quadrature_exactness_invariant(mesh_t2):
    # rule on a concave cell integrates every monomial the contract promises
    k, ell = 2, 1
    geom = make_geometry(mesh_t2.cell_vertices(1), k=k, ell=ell, cell=1)
    verts = mesh_t2.cell_vertices(1)
    deg = 2 * (k + ell) + 2
    for p in range(deg + 1):
        for q in range(deg + 1 - p):
            val = np.sum(
                geom.quad_weights
                * (geom.quad_points[:, 0] - geom.star_center[0]) ** p
                * (geom.quad_points[:, 1] - geom.star_center[1]) ** q
            )
            exact = sum(
                triangle_monomial_integral(tri, p, q, geom.star_center)
                for tri in geom.triangles
            )
            assert val == pytest.approx(exact, rel=1e-13, abs=1e-17)


@pytest.mark.parametrize("order", range(9))
def test_tables_match_member_loops_bitwise(order):
    # maps from per-order tables equal, bit for bit, the member-by-member
    # construction they replace; values built by repeated multiplication
    # stay within `order` ulp of the member-by-member powers
    rng = np.random.default_rng(order)
    cell = SimpleNamespace(star_center=rng.random(2), h=0.1 + rng.random())
    basis = MonomialBasis(cell, order)
    pts = rng.random((37, 2))
    got, want = eval_basis(basis, pts), eval_basis_by_member(basis, pts)
    np.testing.assert_array_max_ulp(got, want, maxulp=max(order, 1))
    for got, want in zip(grad_map(basis), grad_map_by_member(basis)):
        assert np.array_equal(got, want)
    assert np.array_equal(laplace_map(basis), laplace_map_by_member(basis))
    # the integer patterns are built once per order and shared read-only
    tables = _derivative_patterns(order)
    assert all(a is b for a, b in zip(tables, _derivative_patterns(order)))
    assert not any(a.flags.writeable for a in tables)
    assert not monomial_exponents(order).flags.writeable
    # callers get their own, writable copies of the scaled maps
    assert all(m.flags.writeable for m in (*grad_map(basis), laplace_map(basis)))


@pytest.mark.parametrize("order", [3, 6])
def test_stacked_points_match_parts_bitwise(order):
    # one call on a stacked point set gives the per-part calls' bits, for
    # parts shorter than a vector register and a whole longer than numpy's
    # ufunc buffer (8192 elements), where `**` took another path
    rng = np.random.default_rng(10 + order)
    cell = SimpleNamespace(star_center=rng.random(2), h=0.1 + rng.random())
    basis = MonomialBasis(cell, order)
    pts = rng.random((9000, 2))
    parts = np.split(pts, [1, 4, 11, 64, 150, 4000])
    stacked = eval_basis(basis, pts)
    assert np.array_equal(stacked, np.hstack([eval_basis(basis, p) for p in parts]))
    one_by_one = np.hstack([eval_basis(basis, p[None]) for p in pts[:200]])
    assert np.array_equal(stacked[:, :200], one_by_one)
