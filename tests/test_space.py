import numpy as np
import pytest

from conftest import UNIT_SQUARE, make_geometry
from oracles import cell_dofs, hat_pinabla_square_k1, interpolate, l2_projection_coeffs
from vemsupg.basis import MonomialBasis, eval_basis, eval_poly, grad_map, poly_dim
from vemsupg.errors import ElementQualityError
from vemsupg.geometry import ElementGeometry
from vemsupg.quadrature import edge_rule, gauss_lobatto_interior
from vemsupg.space import (
    DofLayout,
    LocalSpace,
    _checked_solve,
    _gram_solve,
    dof_layout,
    edge_dofs,
    edge_nodes,
    lagrange_values,
)


def random_poly(k, rng):
    return rng.standard_normal(poly_dim(k))


class TestDofLayout:
    @pytest.mark.parametrize("k,nv", [(1, 4), (2, 5), (3, 4), (4, 6)])
    def test_counts(self, k, nv):
        layout = DofLayout(nv, k)
        assert layout.n_dofs == nv * k + k * (k - 1) // 2

    def test_trace_dofs_wrap(self):
        # last edge of a k = 2 quadrilateral: vertex 3, its midpoint DOF 7, vertex 0
        layout = DofLayout(4, 2)
        traces = layout.edge_traces([0.0, 0.5, 1.0])
        assert traces.shape == (4, 3, layout.n_dofs)
        assert traces[3] == pytest.approx(np.eye(layout.n_dofs)[[3, 7, 0]], abs=1e-15)

    def test_edge_traces_interpolate_on_each_edge(self):
        layout = DofLayout(5, 3)
        t = np.linspace(0.0, 1.0, 6)
        traces = layout.edge_traces(t)
        vals = lagrange_values(layout.trace_params, t)
        for e in range(5):
            dofs = [e, 5 + 2 * e, 6 + 2 * e, (e + 1) % 5]
            assert traces[e][:, dofs] == pytest.approx(vals, abs=1e-15)
            rest = np.delete(traces[e], dofs, axis=1)
            assert not rest.any()

    def test_nodes_in_dof_order(self):
        layout = DofLayout(4, 3)
        nodes = layout.nodes(UNIT_SQUARE)
        assert nodes.shape == (layout.n_nodes, 2)
        assert nodes[:4] == pytest.approx(np.asarray(UNIT_SQUARE, dtype=float))
        # edge 1 runs from (1, 0) to (1, 1); its internal nodes are DOFs 6, 7
        lobatto = layout.trace_params[1:-1]
        assert nodes[6:8] == pytest.approx(np.column_stack([[1.0, 1.0], lobatto]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_edge_dofs_sit_at_edge_nodes(self, k):
        # edge e's DOFs in trace order are its start, its Gauss-Lobatto
        # internal nodes and its end, bit for bit the layout's nodes
        v = np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 0.7], [0.5, 0.4], [0.1, 0.9]])
        nodes = DofLayout(5, k).nodes(v)
        for e in range(5):
            a, b = v[e], v[(e + 1) % 5]
            dofs = edge_dofs(5, e, k)
            assert dofs.tolist() == [e, *range(5 + (k - 1) * e, 5 + (k - 1) * (e + 1)), (e + 1) % 5]
            assert np.array_equal(nodes[dofs], np.vstack([a, edge_nodes(a, b, k), b]))
        assert np.array_equal(edge_dofs(5, np.arange(5), k),
                              np.array([edge_dofs(5, e, k) for e in range(5)]))
        t = edge_nodes(np.zeros(2), np.array([1.0, 0.0]), k)
        assert np.array_equal(t, np.column_stack([gauss_lobatto_interior(k), np.zeros(k - 1)]))

    def test_layout_tables_shared_read_only(self):
        # one layout per (vertex count, order) and one trace table per edge
        # rule, shared by every space and protected against writes
        geom = make_geometry(UNIT_SQUARE, k=3, ell=1)
        spaces = [LocalSpace(geom, 3, 0), LocalSpace(geom, 3, 1)]
        layout = dof_layout(4, 3)
        assert all(space.layout is layout for space in spaces)
        traces = layout.edge_traces(geom.edge_params)
        assert traces is layout.edge_traces(np.array(geom.edge_params))
        assert np.array_equal(traces, DofLayout(4, 3).edge_traces(geom.edge_params))
        for a in (traces, layout.trace_params, layout.edge_internal_params):
            assert not a.flags.writeable

    def test_lagrange_partition_of_unity(self):
        nodes = DofLayout(4, 3).trace_params
        vals = lagrange_values(nodes, np.linspace(0, 1, 7))
        assert vals.sum(axis=1) == pytest.approx(np.ones(7), rel=1e-13)
        vals = lagrange_values(nodes, nodes)
        assert vals == pytest.approx(np.eye(len(nodes)), abs=1e-13)


class TestPiNabla:
    def test_constants_reproduced(self, mesh_t2):
        geom = make_geometry(mesh_t2.cell_vertices(1), k=2, ell=1, cell=1)
        space = LocalSpace(geom, 2, 1)
        ones = space.polynomial_dofs(np.r_[1.0, np.zeros(poly_dim(2) - 1)])
        coeff = space.pinabla_coeff @ ones
        assert coeff == pytest.approx(np.r_[1.0, np.zeros(poly_dim(2) - 1)], abs=1e-13)

    def test_hat_dense_oracle(self):
        # k = 1 square, hat at vertex 0: coefficients frozen from the explicit
        # 3x3 dense system (boundary mean 1/4, plane slopes -1/2 each)
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        space = LocalSpace(geom, 1, 1)
        got = space.pinabla_coeff @ np.array([1.0, 0.0, 0.0, 0.0])
        expect = hat_pinabla_square_k1()
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_projection_reproduces_polynomials(self, k, acceptance_meshes):
        rng = np.random.default_rng(11)
        for mesh in acceptance_meshes.values():
            for c in (0, mesh.n_cells - 1):
                geom = make_geometry(mesh.cell_vertices(c), k=k, ell=1, cell=c)
                space = LocalSpace(geom, k, 1)
                p = random_poly(k, rng)
                dofs = space.polynomial_dofs(p)
                assert space.pinabla_coeff @ dofs == pytest.approx(
                    p, rel=1e-11, abs=1e-12
                )
                # the DOF form is idempotent on polynomial DOF vectors
                assert space.pinabla_dof @ dofs == pytest.approx(dofs, rel=1e-10, abs=1e-12)


class TestMoments:
    def test_constant_moment_is_area(self, mesh_t3):
        geom = make_geometry(mesh_t3.cell_vertices(3), k=1, ell=1, cell=3)
        space = LocalSpace(geom, 1, 1)
        ones = np.ones(space.n_dofs)
        assert space.moments[0] @ ones == pytest.approx(geom.area, rel=1e-13)

    def test_k1_mean_is_definitional(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        space = LocalSpace(geom, 1, 1)
        hat = np.array([1.0, 0.0, 0.0, 0.0])
        pinabla = space.pinabla_coeff @ hat
        h_row = space.h_full[0, : poly_dim(1)]
        assert space.moments[0] @ hat == pytest.approx(h_row @ pinabla, rel=1e-13)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (3, 2)])
    def test_polynomial_moments_match_quadrature(self, k, ell, mesh_t2):
        rng = np.random.default_rng(5)
        c = 3
        geom = make_geometry(mesh_t2.cell_vertices(c), k=k, ell=ell, cell=c)
        space = LocalSpace(geom, k, ell)
        p = random_poly(k, rng)
        dofs = space.polynomial_dofs(p)
        got = space.moments @ dofs
        basis_full = MonomialBasis(geom, k + ell)
        vals_p = eval_poly(space.basis_k, p, geom.quad_points)
        vals_m = eval_basis(basis_full, geom.quad_points)
        expect = vals_m @ (geom.quad_weights * vals_p)
        assert got == pytest.approx(expect, rel=1e-11, abs=1e-13)


class TestPiZeroScalar:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_reproduces_members(self, n, mesh_t3):
        geom = make_geometry(mesh_t3.cell_vertices(7), k=3, ell=1, cell=7)
        space = LocalSpace(geom, 3, 1)
        rng = np.random.default_rng(n)
        p3 = np.zeros(poly_dim(3))
        p3[: poly_dim(n)] = rng.standard_normal(poly_dim(n))
        dofs = space.polynomial_dofs(p3)
        got = space.pizero_scalar(n) @ dofs
        assert got == pytest.approx(p3[: poly_dim(n)], rel=1e-11, abs=1e-12)

    def test_mean_projection(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        space = LocalSpace(geom, 1, 1)
        hat = np.array([1.0, 0.0, 0.0, 0.0])
        mean = (space.pizero_scalar(0) @ hat)[0]
        assert mean == pytest.approx(space.moments[0] @ hat / geom.area, rel=1e-13)

    def test_truncation_against_dense_oracle(self):
        # L2 projection of a degree-2 polynomial onto P_1 on the unit square
        geom = make_geometry(UNIT_SQUARE, k=2, ell=0)
        space = LocalSpace(geom, 2, 0)
        coeff2 = np.array([0.3, -1.2, 0.7, 0.4, -0.9, 1.1])
        dofs = space.polynomial_dofs(coeff2)
        got = space.pizero_scalar(1) @ dofs
        basis = space.basis_k
        func = lambda pts: eval_poly(basis, coeff2, pts)
        expect = l2_projection_coeffs(
            UNIT_SQUARE,
            basis.exponents[: poly_dim(1)].tolist(),
            basis.center,
            basis.scale,
            func,
            n_quad=120,
        )
        assert got == pytest.approx(expect, rel=2e-4)


class TestPiZeroGrad:
    def test_constant_gives_zero(self, mesh_t2):
        geom = make_geometry(mesh_t2.cell_vertices(0), k=2, ell=1, cell=0)
        space = LocalSpace(geom, 2, 1)
        ones = space.polynomial_dofs(np.r_[1.0, np.zeros(poly_dim(2) - 1)])
        gx, gy = space.pizero_grad(2)
        assert gx @ ones == pytest.approx(np.zeros(poly_dim(2)), abs=1e-12)
        assert gy @ ones == pytest.approx(np.zeros(poly_dim(2)), abs=1e-12)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 2), (3, 1)])
    def test_reproduces_polynomial_gradients(self, k, ell, acceptance_meshes):
        rng = np.random.default_rng(17)
        for mesh in acceptance_meshes.values():
            c = mesh.n_cells // 2
            geom = make_geometry(mesh.cell_vertices(c), k=k, ell=ell, cell=c)
            space = LocalSpace(geom, k, ell)
            p = random_poly(k, rng)
            dofs = space.polynomial_dofs(p)
            dx, dy = grad_map(space.basis_k)
            deg = k + ell - 1
            gx, gy = space.pizero_grad(deg)
            expect_x = np.zeros(poly_dim(deg))
            expect_x[: poly_dim(k - 1)] = dx @ p
            expect_y = np.zeros(poly_dim(deg))
            expect_y[: poly_dim(k - 1)] = dy @ p
            scale = max(np.abs(expect_x).max(), np.abs(expect_y).max())
            assert gx @ dofs == pytest.approx(expect_x, abs=1e-11 * scale)
            assert gy @ dofs == pytest.approx(expect_y, abs=1e-11 * scale)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 1), (3, 2)])
    def test_one_solve_per_call(self, k, ell, monkeypatch):
        # both components come from one guarded solve of the stacked sides
        import vemsupg.space as space_module

        space = LocalSpace(make_geometry(UNIT_SQUARE, k=k, ell=ell), k, ell)
        calls = []
        real = space_module._checked_solve
        monkeypatch.setattr(
            space_module, "_checked_solve", lambda *a: calls.append(1) or real(*a)
        )
        for deg in range(k + ell):
            space.pizero_grad(deg)
        assert len(calls) == k + ell

    def test_orthogonality_via_green_oracle(self):
        # (pi grad phi_i, q) must equal -(phi_i, div q) + boundary, with the
        # right side integrated by an independent rule
        k, ell = 2, 1
        geom = make_geometry(UNIT_SQUARE, k=k, ell=ell)
        space = LocalSpace(geom, k, ell)
        deg = k + ell - 1
        gx, gy = space.pizero_grad(deg)
        basis_g = MonomialBasis(geom, deg)
        h_g = space.mass_block(deg)
        layout = space.layout
        for a in range(poly_dim(deg)):
            for d, g_mat in ((0, gx), (1, gy)):
                lhs = h_g[a, :] @ g_mat
                # oracle: -(phi, d m_a / dx_d) via moments + independent edge rule
                dxa, dya = grad_map(basis_g)
                dm = (dxa if d == 0 else dya)[:, a]
                rhs = -(dm @ space.moments[: poly_dim(deg - 1), :])
                for e in range(4):
                    p0 = UNIT_SQUARE[e]
                    p1 = UNIT_SQUARE[(e + 1) % 4]
                    pts, w, t = edge_rule(p0, p1, 9)  # deliberately different order
                    normal = geom.edge_normals[e]
                    trace = layout.edge_traces(t)[e]
                    mvals = eval_basis(basis_g, pts)[a]
                    rhs = rhs + normal[d] * ((mvals * w) @ trace)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestConformity:
    @pytest.mark.parametrize("k", [2, 3])
    def test_shared_edge_dofs_consistent(self, k, mesh_t2):
        # interpolating a global polynomial cell by cell must assign the same
        # value to every shared edge DOF
        from vemsupg.assemble import DofMap

        mesh = mesh_t2
        dofmap = DofMap(mesh, k)
        coeff = np.array([0.2, 1.0, -0.7, 0.31, 0.17, -0.45, 0.08, 0.6, -0.3, 0.12])

        def poly(pts):
            pts = np.atleast_2d(pts)
            x, y = pts[:, 0], pts[:, 1]
            total = np.zeros(len(pts))
            from vemsupg.basis import monomial_exponents

            for c_val, (a1, a2) in zip(coeff, monomial_exponents(k)):
                total += c_val * x**a1 * y**a2
            return total

        values = np.full(dofmap.n_dofs, np.nan)
        for c in range(mesh.n_cells):
            geom = make_geometry(mesh.cell_vertices(c), k=k, ell=0, cell=c)
            space = LocalSpace(geom, k, 0)
            local = interpolate(space, poly)
            idx = cell_dofs(dofmap, c)
            for i, v in zip(idx, local):
                if np.isfinite(values[i]):
                    assert v == pytest.approx(values[i], rel=1e-12, abs=1e-13)
                values[i] = v
        assert np.all(np.isfinite(values))


@pytest.mark.parametrize("solve", [_checked_solve, _gram_solve])
@pytest.mark.parametrize(
    "mat",
    [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]]],
    ids=["singular", "rcond-below-1e-14"],
)
def test_guarded_solve_names_the_cell(solve, mat):
    # neither an exactly singular factor nor a tiny condition estimate lets
    # a LinAlgError or a meaningless solution through
    with pytest.raises(ElementQualityError) as info:
        solve(np.array(mat), np.ones((2, 3)), "mass", 7)
    assert str(info.value).startswith("cell 7: singular mass system (rcond=")
    assert info.value.cell == 7


THIN_QUAD = [[0.0, 0.0], [1.0, 0.0], [1.0, 1e-9], [0.0, 1e-9]]


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
@pytest.mark.parametrize("bad", [[12], [12, 14]], ids=["12", "12-and-14"])
def test_stacked_guard_names_lowest_failing_cell(bad, order):
    # a stack of quads with cell ids 10..14 (in either order) where the thin
    # ones make the projector Gram singular: the whole stack fails, naming
    # the lowest failing cell id, not the first failing position
    cells = list(range(10, 15))[::order]
    verts = np.array([THIN_QUAD if c in bad else UNIT_SQUARE + [c, 0.0] for c in cells])
    geom = ElementGeometry(verts, 2 * (2 + 1) + 2, 2 + 1 + 1, cell=cells)
    with pytest.raises(ElementQualityError) as info:
        LocalSpace(geom, 2, 1)
    assert str(info.value).startswith("cell 12: singular projector Gram system (rcond=")
    assert info.value.cell == 12
    # the good cells alone build, each as it builds on its own
    good = [i for i, c in enumerate(cells) if c not in bad]
    stack = LocalSpace(geom[np.array(good)], 2, 1)
    for j, i in enumerate(good):
        alone = LocalSpace(make_geometry(verts[i], k=2, ell=1, cell=cells[i]), 2, 1)
        assert np.array_equal(stack[j].pinabla_coeff, alone.pinabla_coeff)
