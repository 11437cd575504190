import copy
import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_geometry, swirl_problem
from oracles import boundary_values_by_node, energy_error_by_cell
from vemsupg.assemble import (
    DofMap,
    apply_dirichlet,
    assemble,
    energy_error,
    export_vtk,
    solve,
)
from vemsupg.errors import MeshError, SolveError
from vemsupg.forms import ProblemData, element_coefficients, local_a_h, sf_forms
from vemsupg.geometry import ElementGeometry
from vemsupg.harness import solve_problem
from vemsupg.mesh import generate_cartesian, relabel_boundary
from vemsupg.problems import problem_smooth, problem_test1, problem_test2
from vemsupg.space import LocalSpace

# the package re-exports the function assemble() under the module's name
assemble_module = importlib.import_module("vemsupg.assemble")


def build_cells(mesh, problem, k, ell):
    geoms, spaces, coeffs, forms = [], [], [], []
    for c in range(mesh.n_cells):
        geom = make_geometry(mesh.cell_vertices(c), k=k, ell=ell, cell=c)
        space = LocalSpace(geom, k, ell)
        coef = element_coefficients(geom, problem, k)
        geoms.append(geom)
        spaces.append(space)
        coeffs.append(coef)
        forms.append(sf_forms(geom, space, coef, problem))
    return geoms, spaces, coeffs, forms


class TestDofMap:
    def test_counts(self):
        mesh = generate_cartesian(2, 2)
        dm1 = DofMap(mesh, 1)
        assert dm1.n_dofs == 9
        dm2 = DofMap(mesh, 2)
        assert dm2.n_dofs == 9 + mesh.n_edges + 4
        dm3 = DofMap(mesh, 3)
        assert dm3.n_dofs == 9 + 2 * mesh.n_edges + 3 * 4

    def test_shared_edge_flip(self):
        mesh = generate_cartesian(2, 1)
        dm = DofMap(mesh, 3)
        # shared edge between cells 0 and 1 is (1, 4)
        d0 = dm.cell_dofs(0)
        d1 = dm.cell_dofs(1)
        shared0 = [d for d in d0 if d >= dm.edge_offset and d in set(d1)]
        assert len(shared0) == 2  # k - 1 = 2 internal dofs on the shared edge


def cell_blocks(forms):
    """One (cells, matrices, loads) block per cell, in cell order."""
    return [(np.array([c]), lf.full[None], lf.rhs[None]) for c, lf in enumerate(forms)]


class TestAssemble:
    def test_single_cell_global_equals_local(self):
        mesh = generate_cartesian(1, 1)
        problem = problem_smooth()
        _, _, _, forms = build_cells(mesh, problem, 1, 1)
        dofmap = DofMap(mesh, 1)
        system = assemble(dofmap, cell_blocks(forms))
        dofs = dofmap.cell_dofs(0)
        dense = system.matrix.toarray()
        assert dense[np.ix_(dofs, dofs)] == pytest.approx(forms[0].full)
        assert system.rhs[dofs] == pytest.approx(forms[0].rhs)

    def test_two_cell_hand_scatter(self):
        # 2x1 grid, k = 1: scatter the two local matrices by hand and compare
        mesh = generate_cartesian(2, 1)
        problem = problem_smooth(kappa=1.0, beta=(0.0, 0.0))
        _, _, _, forms = build_cells(mesh, problem, 1, 1)
        dofmap = DofMap(mesh, 1)
        system = assemble(dofmap, cell_blocks(forms))
        hand = np.zeros((6, 6))
        for c in range(2):
            idx = mesh.cells[c]
            for i in range(4):
                for j in range(4):
                    hand[idx[i], idx[j]] += forms[c].full[i, j]
        assert system.matrix.toarray() == pytest.approx(hand, rel=1e-14)
        # pure diffusion: every row of the assembled operator sums to zero
        assert system.matrix @ np.ones(6) == pytest.approx(np.zeros(6), abs=1e-13)

    def test_symmetry_without_advection(self):
        mesh = generate_cartesian(3, 3)
        problem = problem_smooth(kappa=1.0, beta=(0.0, 0.0))
        _, _, _, forms = build_cells(mesh, problem, 2, 2)
        dofmap = DofMap(mesh, 2)
        system = assemble(dofmap, cell_blocks(forms))
        a = system.matrix.toarray()
        assert a == pytest.approx(a.T, abs=1e-13 * np.abs(a).max())

    def test_nan_rejected(self):
        mesh = generate_cartesian(1, 1)
        dofmap = DofMap(mesh, 1)
        bad = np.full((1, 4, 4), np.nan)
        with pytest.raises(MeshError, match="cell 0"):
            assemble(dofmap, [(np.array([0]), bad, np.zeros((1, 4)))])

    def test_block_order_keeps_every_bit(self, mesh_t2):
        # stacked blocks in shuffled order, cells reversed inside each block,
        # give the same matrix and load bit for bit: values go to cell-ordered
        # positions, so the reduction order does not depend on the blocks
        problem = swirl_problem()
        _, _, _, forms = build_cells(mesh_t2, problem, 2, 1)
        dofmap = DofMap(mesh_t2, 2)
        sizes = np.diff(dofmap.offsets)
        blocks = []
        for size in np.unique(sizes):
            same = np.flatnonzero(sizes == size)
            for cells in np.array_split(same, 3):
                blocks.append((
                    cells,
                    np.array([forms[c].full for c in cells]),
                    np.array([forms[c].rhs for c in cells]),
                ))
        ref = assemble(dofmap, cell_blocks(forms))
        order = np.random.default_rng(3).permutation(len(blocks))
        shuffled = [tuple(x[::-1] for x in blocks[i]) for i in order]
        got = assemble(dofmap, shuffled)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got.matrix, name), getattr(ref.matrix, name))
        assert np.array_equal(got.rhs, ref.rhs)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing", "cell 3: 0 local blocks"),
            ("doubled", "cell 2: 2 local blocks"),
            ("wrong_size", "cell 1: local matrix does not match"),
            ("nan_load", "non-finite local contribution from cell 2"),
        ],
    )
    def test_bad_blocks_name_the_cell(self, case, message):
        mesh = generate_cartesian(2, 2)
        _, _, _, forms = build_cells(mesh, problem_smooth(), 1, 1)
        blocks = cell_blocks(forms)
        if case == "missing":
            del blocks[3]
        elif case == "doubled":
            blocks.append(blocks[2])
        elif case == "wrong_size":
            blocks[1] = (np.array([1]), np.zeros((1, 3, 3)), np.zeros((1, 3)))
        else:
            load = blocks[2][2].copy()
            load[0, 1] = np.nan
            blocks[2] = (blocks[2][0], blocks[2][1], load)
        with pytest.raises(MeshError, match=message):
            assemble(DofMap(mesh, 1), blocks)

    def test_solve_builds_no_per_cell_objects(self, monkeypatch):
        # the solve keeps Peclet, tau and the local forms in stacked arrays
        import vemsupg.forms as forms

        calls = []
        for cls in (forms.ElementCoefficients, forms.LocalForms):
            real = cls.__init__
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *a, real=real, **kw: calls.append(1) or real(self, *a, **kw),
            )
        for method in ("sf", "vem"):
            res = solve_problem(generate_cartesian(3, 3), problem_test1(), 2, method=method)
            assert res.solution.peclet.shape == res.solution.tau.shape == (9,)
        assert calls == []


class TestDirichlet:
    def test_zero_data_keeps_interior_rhs(self):
        mesh = generate_cartesian(3, 3)
        problem = problem_smooth(kappa=1.0, beta=(0.0, 0.0))
        _, _, _, forms = build_cells(mesh, problem, 1, 1)
        dofmap = DofMap(mesh, 1)
        system = assemble(dofmap, cell_blocks(forms))
        apply_dirichlet(system, problem)
        assert system.reduced_rhs == pytest.approx(system.rhs[system.free_idx])

    def test_unlabeled_edge_fatal(self):
        mesh = generate_cartesian(2, 2)
        mesh.boundary_labels = {k: v for k, v in list(mesh.boundary_labels.items())[:-1]}
        problem = problem_smooth()
        dofmap = DofMap(mesh, 1)
        with pytest.raises(MeshError, match="no label"):
            dofmap.boundary_values(problem)

    SIDES = {"left": 1.0, "right": 2.0, "bottom": 3.0, "top": 4.0}

    @classmethod
    def side_problem(cls):
        """A linear function shifted per side, only "top" ranked."""
        return ProblemData(
            kappa=1.0,
            beta=(1.0, 0.0),
            source=lambda p: np.zeros(len(p)),
            dirichlet={
                side: (lambda p, v=v: v + p[:, 0] + 2.0 * p[:, 1])
                for side, v in cls.SIDES.items()
            },
            label_priority=["top"],
        )

    @pytest.mark.parametrize(
        "family, problem, orders",
        [
            ("t1", "test1", (1, 3)),
            ("t1", "sides", (1, 2, 3)),
            ("t2", "test2", (1, 2, 3)),
            ("t3", "test2", (1, 2, 3)),
        ],
    )
    def test_values_match_node_loop(self, acceptance_meshes, family, problem, orders):
        if family == "t1":
            mesh = generate_cartesian(8, 8)
        else:
            mesh = acceptance_meshes[family]
        if problem == "sides":
            # unranked names in turn along the boundary order, every fifth edge
            # the ranked "top": the equal-rank ties at shared vertices go to
            # the earlier edge, which is not always the label seen first
            mesh = copy.copy(mesh)
            mesh.boundary_labels = {
                edge: "top" if j % 5 == 4 else ("left", "right", "bottom")[j % 3]
                for j, edge in enumerate(mesh.boundary_edges)
            }
        problem = {"test1": problem_test1, "test2": problem_test2}.get(
            problem, self.side_problem
        )()
        if problem.boundary_classifier is not None:
            mesh = relabel_boundary(copy.copy(mesh), problem.boundary_classifier)
        for k in orders:
            dofmap = DofMap(mesh, k)
            idx, vals = dofmap.boundary_values(problem)
            ref_idx, ref_vals = boundary_values_by_node(dofmap, problem)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(vals, ref_vals)

    def test_errors_match_node_loop(self):
        mesh = generate_cartesian(3, 3)
        unlabeled = copy.copy(mesh)
        unlabeled.boundary_labels = dict(list(mesh.boundary_labels.items())[1:])
        left_only = ProblemData(
            kappa=1.0, beta=(1.0, 0.0), source=lambda p: np.zeros(len(p)),
            dirichlet={"left": lambda p: np.zeros(len(p))},
        )
        for case, problem in ((unlabeled, problem_smooth()), (mesh, left_only)):
            dofmap = DofMap(case, 2)
            with pytest.raises(MeshError) as want:
                boundary_values_by_node(dofmap, problem)
            with pytest.raises(MeshError) as got:
                dofmap.boundary_values(problem)
            assert str(got.value) == str(want.value)
            assert "cell " in str(got.value)


class TestSolve:
    def test_patch_test_k2(self):
        # exact solution in P_k with constant velocity: solved to roundoff
        mesh = generate_cartesian(3, 3)
        res = _patch_result(mesh, k=2, kappa=1.0)
        problem, result = res
        err = result.error(problem)
        assert err <= 1e-9

    def test_residual_reported(self, capsys):
        mesh = generate_cartesian(2, 2)
        problem = problem_smooth()
        solve_problem(mesh, problem, 1, ell=1)
        out = capsys.readouterr().out
        assert "solve: n=" in out
        assert "residual=" in out

    def test_singular_system_raises(self):
        mat = sp.csr_matrix(np.zeros((3, 3)))
        from vemsupg.assemble import GlobalSystem

        class FakeMap:
            n_dofs = 3

        system = GlobalSystem(mat, np.ones(3), FakeMap())
        system.fixed_idx = np.empty(0, dtype=int)
        system.fixed_vals = np.empty(0)
        system.free_idx = np.arange(3)
        system.reduced_matrix = mat
        system.reduced_rhs = np.ones(3)
        with pytest.raises(SolveError):
            solve(system)

    def test_single_interior_dof(self):
        mesh = generate_cartesian(2, 2)
        problem = problem_smooth(kappa=1.0, beta=(0.0, 0.0))
        result = solve_problem(mesh, problem, 1, ell=1)
        assert result.solution.residual <= 1e-12


def _patch_poly(k):
    rng = np.random.default_rng(100 + k)
    coeff = rng.standard_normal((k + 1, k + 1))
    coeff = np.triu(coeff[::-1])[::-1]  # keep total degree <= k

    def u(pts):
        pts = np.atleast_2d(pts)
        return sum(
            coeff[i, j] * pts[:, 0] ** i * pts[:, 1] ** j
            for i in range(k + 1)
            for j in range(k + 1 - i)
        )

    def grad(pts):
        pts = np.atleast_2d(pts)
        gx = sum(
            i * coeff[i, j] * pts[:, 0] ** (i - 1) * pts[:, 1] ** j
            for i in range(1, k + 1)
            for j in range(k + 1 - i)
        )
        gy = sum(
            j * coeff[i, j] * pts[:, 0] ** i * pts[:, 1] ** (j - 1)
            for i in range(k + 1)
            for j in range(1, k + 1 - i)
        )
        return np.column_stack([gx + 0 * pts[:, 0], gy + 0 * pts[:, 0]])

    def lap(pts):
        pts = np.atleast_2d(pts)
        xx = sum(
            i * (i - 1) * coeff[i, j] * pts[:, 0] ** (i - 2) * pts[:, 1] ** j
            for i in range(2, k + 1)
            for j in range(k + 1 - i)
        )
        yy = sum(
            j * (j - 1) * coeff[i, j] * pts[:, 0] ** i * pts[:, 1] ** (j - 2)
            for i in range(k + 1)
            for j in range(2, k + 1 - i)
        )
        return xx + yy + 0 * pts[:, 0]

    return u, grad, lap


def _patch_result(mesh, k, kappa, beta=(1.0, 0.545)):
    from vemsupg.forms import ProblemData

    u, grad, lap = _patch_poly(k)
    beta_arr = np.asarray(beta)
    problem = ProblemData(
        kappa=kappa,
        beta=beta,
        source=lambda pts: -kappa * lap(pts) + grad(pts) @ beta_arr,
        dirichlet={"*": u},
        exact=u,
        exact_grad=grad,
        name="patch",
    )
    result = solve_problem(mesh, problem, k, ell="auto")
    return problem, result


class TestEnergyError:
    def test_zero_solution_normalizes_to_one(self):
        mesh = generate_cartesian(2, 2)
        problem = problem_smooth()
        result = solve_problem(mesh, problem, 1, ell=1)
        result.solution.dofs[:] = 0.0
        result.solution.reconstructions[:] = 0.0
        err = energy_error(result.spaces, result.shifts, result.solution, problem)
        assert err == pytest.approx(1.0, rel=1e-12)

    def test_needs_gradient(self):
        mesh = generate_cartesian(2, 2)
        problem = problem_smooth()
        result = solve_problem(mesh, problem, 1, ell=1)
        from vemsupg.problems import problem_test2

        with pytest.raises(ValueError):
            energy_error(result.spaces, result.shifts, result.solution, problem_test2())

    def test_energy_norm_two_ways(self):
        # matrix quadratic form of the reference diffusion-streamline forms
        # against re-quadrature of the solve's projections with its tau
        mesh = generate_cartesian(3, 3)
        problem = problem_test1()
        result = solve_problem(mesh, problem, 2, ell="auto")
        blocks = []
        for c, space in enumerate(result.spaces):
            geom = make_geometry(mesh.cell_vertices(c), k=2, ell=space.ell, cell=c)
            coef = element_coefficients(geom, problem, 2)
            a = local_a_h(geom, LocalSpace(geom, 2, space.ell), coef, problem)
            blocks.append((np.array([c]), a[None], np.zeros((1, len(a)))))
        a_only = assemble(result.dofmap, blocks)
        u = result.solution.dofs
        quad_form = u @ (a_only.matrix @ u)
        total = 0.0
        from vemsupg.basis import MonomialBasis, eval_basis

        for c, (space, shift, tau) in enumerate(
            zip(result.spaces, result.shifts, result.solution.tau)
        ):
            geom = space.geom
            local = u[result.dofmap.cell_dofs(c)]
            deg = space.k + space.ell - 1
            gx, gy = space.pizero_grad(deg)
            vals = eval_basis(MonomialBasis(geom, deg), geom.quad_points)
            vx = vals.T @ (gx @ local)
            vy = vals.T @ (gy @ local)
            w = geom.quad_weights
            total += problem.kappa * np.sum(w * (vx**2 + vy**2))
            beta = problem.beta(geom.quad_points + shift)
            total += tau * np.sum(w * (beta[:, 0] * vx + beta[:, 1] * vy) ** 2)
        assert quad_form == pytest.approx(total, rel=1e-11)

    @staticmethod
    def check_against_cell_loop(result, problem, spaces=None, shifts=None):
        """Batched error equals the per-cell loop; DOFs and reconstructions untouched."""
        spaces = result.spaces if spaces is None else spaces
        shifts = result.shifts if shifts is None else shifts
        sol = result.solution
        dofs = sol.dofs.copy()
        recon = sol.reconstructions.copy()
        err = energy_error(spaces, shifts, sol, problem)
        ref = energy_error_by_cell(spaces, shifts, sol, problem)
        assert err == pytest.approx(ref, rel=1e-12)
        assert np.array_equal(sol.dofs, dofs)
        assert np.array_equal(sol.reconstructions, recon)
        return err

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("method", ["sf", "vem"])
    def test_matches_cell_loop_t1(self, mesh_t1, k, method):
        problem = problem_test1()
        result = solve_problem(mesh_t1, problem, k, ell="auto", method=method)
        self.check_against_cell_loop(result, problem)

    @pytest.mark.parametrize("family", ["t2", "t3"])
    @pytest.mark.parametrize("problem", [problem_smooth, swirl_problem])
    def test_matches_cell_loop_polygons(self, acceptance_meshes, family, problem):
        problem = problem()
        result = solve_problem(acceptance_meshes[family], problem, 2, ell="auto")
        self.check_against_cell_loop(result, problem)

    def test_group_larger_than_chunk(self, monkeypatch):
        # 144 translates of one square: one group, three chunks, one basis
        # evaluation per chunk
        problem = problem_test1()
        result = solve_problem(generate_cartesian(12, 12), problem, 2, ell=1)
        calls = []
        traced = assemble_module.eval_basis
        monkeypatch.setattr(
            assemble_module, "eval_basis", lambda *a: calls.append(1) or traced(*a)
        )
        self.check_against_cell_loop(result, problem)
        assert len(calls) == -(-144 // assemble_module.CHUNK) == 3

    def test_mixed_translated_and_independent_elements(self, mesh_t2):
        # independently built elements, with zero shifts, form groups of one
        # beside the translates that share their shape's space
        problem = swirl_problem()
        result = solve_problem(mesh_t2, problem, 2, ell="auto")
        spaces, shifts = list(result.spaces), result.shifts.copy()
        for c in range(0, mesh_t2.n_cells, 3):
            ell = spaces[c].ell
            geom = ElementGeometry(
                mesh_t2.cell_vertices(c), 2 * (2 + ell) + 2, 2 + ell + 1, cell=c
            )
            spaces[c] = LocalSpace(geom, 2, ell)
            shifts[c] = 0.0
        mixed = self.check_against_cell_loop(result, problem, spaces, shifts)
        assert mixed == pytest.approx(result.error(problem), rel=1e-10)


class TestVtk:
    def test_single_cell_schema(self, tmp_path):
        mesh = generate_cartesian(1, 1)
        problem = problem_smooth()
        result = solve_problem(mesh, problem, 1, ell=1)
        path = tmp_path / "out.vtk"
        export_vtk(result.solution, mesh, path)
        text = path.read_text()
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert "POINTS 4 double" in text
        assert "CELL_TYPES 1" in text
        for field in ("u_vertex", "u_pi_center", "ell", "peclet"):
            assert field in text

    def test_re_export_byte_identical(self, tmp_path):
        mesh = generate_cartesian(2, 2)
        problem = problem_smooth()
        result = solve_problem(mesh, problem, 1, ell=1)
        p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
        export_vtk(result.solution, mesh, p1)
        export_vtk(result.solution, mesh, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_shared_code_path_for_baseline():
    # identical numbering, data and BC path: only local matrices differ
    mesh = generate_cartesian(3, 3)
    problem = problem_test1()
    sf = solve_problem(mesh, problem, 1, ell="auto", method="sf")
    vem = solve_problem(mesh, problem, 1, ell="auto", method="vem")
    assert sf.dofmap.n_dofs == vem.dofmap.n_dofs
    assert np.array_equal(sf.solution.system.fixed_idx, vem.solution.system.fixed_idx)
    assert sf.solution.system.fixed_vals == pytest.approx(
        vem.solution.system.fixed_vals, abs=0.0
    )
