import copy
import importlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from conftest import make_geometry, shared_mesh, swirl_problem
from oracles import boundary_values_by_node, cell_dofs, energy_error_by_cell
from vemsupg.assemble import (
    DofMap,
    ReducedSystem,
    apply_dirichlet,
    assemble,
    energy_error,
    export_vtk,
    solve,
)
from vemsupg.errors import MeshError, SolveError
from vemsupg.forms import ProblemData
from vemsupg.geometry import ElementGeometry
from vemsupg.harness import solve_problem
from vemsupg.mesh import PolyMesh, generate_cartesian, generate_concave_pentagons, generate_voronoi
from vemsupg.problems import problem_smooth, problem_test1, problem_test2
from vemsupg.space import LocalSpace, edge_dofs

# the package re-exports the function assemble() under the module's name
assemble_module = importlib.import_module("vemsupg.assemble")


def build_cells(mesh, problem, k, ell):
    """Every cell's geometry, space, coefficients and forms from the per-element oracle."""
    geoms, spaces, coeffs, forms = [], [], [], []
    for c in range(mesh.n_cells):
        geom = make_geometry(mesh.cell_vertices(c), k=k, ell=ell, cell=c)
        space = LocalSpace(geom, k, ell)
        coef = oracles.element_coefficients(geom, problem, k)
        geoms.append(geom)
        spaces.append(space)
        coeffs.append(coef)
        forms.append(oracles.sf_forms(geom, space, coef, problem))
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
        d0 = cell_dofs(dm, 0)
        d1 = cell_dofs(dm, 1)
        shared0 = [d for d in d0 if d >= dm.edge_offset and d in set(d1)]
        assert len(shared0) == 2  # k - 1 = 2 internal dofs on the shared edge

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_boundary_rows_are_edge_dofs(self, k):
        # each boundary edge's row holds its cell's DOFs at the edge's local
        # DOFs in trace order, on a mesh of mixed vertex counts
        mesh = generate_voronoi(16, lloyd_iters=20, seed=1)
        dm = DofMap(mesh, k)
        assert len(np.unique(mesh.cell_sizes)) > 1
        assert len(dm.boundary) == len(mesh.boundary_edges)
        for row, (c, i) in zip(dm.boundary, mesh.boundary_edges):
            local = edge_dofs(mesh.cell_sizes[c], i, k)
            assert np.array_equal(row, dm.flat[dm.offsets[c] + local])


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
        dofs = cell_dofs(dofmap, 0)
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
        # the solve keeps Peclet, tau and the local forms in stacked arrays:
        # it calls none of the one-cell entry points, ShapeForms.batch once
        # per chunk of the cell table, and neither the solve nor the energy
        # error nor sample makes a one-cell view of a space
        import vemsupg.forms as forms
        import vemsupg.harness as harness
        from vemsupg.mesh import generate_voronoi

        calls = []
        for module, name in itertools.product(
            (forms, harness), ("sf_forms", "baseline_vem_forms", "element_coefficients")
        ):
            monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        batches = []
        batch = forms.ShapeForms.batch
        monkeypatch.setattr(forms.ShapeForms, "batch",
                            lambda self, *a: batches.append(1) or batch(self, *a))
        views = []
        getitem = LocalSpace.__getitem__

        def counted(self, at):
            if np.ndim(at) == 0:
                views.append(at)
            return getitem(self, at)

        monkeypatch.setattr(LocalSpace, "__getitem__", counted)
        points = np.random.default_rng(3).random((300, 2))
        meshes = [generate_cartesian(3, 3), generate_voronoi(40, lloyd_iters=20, seed=1)]
        for mesh, method in itertools.product(meshes, ("sf", "vem")):
            batches.clear()
            res = solve_problem(mesh, problem_test1(), 2, method=method)
            n = mesh.n_cells
            assert res.solution.peclet.shape == res.solution.tau.shape == (n,)
            assert len(batches) == len(res.spaces.chunks) > 0
            res.error(problem_test1())
            res.sample(points)
            assert views == [], (mesh, method)
        assert len(batches) > 1  # the Voronoi cells fill several stacks
        assert calls == []


def coo_system(dofmap, forms):
    """The global matrix of one-cell forms by COO triplets, summed by scipy."""
    rows, cols, vals = [], [], []
    for c, lf in enumerate(forms):
        dofs = cell_dofs(dofmap, c)
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        vals.append(lf.full.ravel())
    n = dofmap.n_dofs
    triplets = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sp.coo_matrix(triplets, shape=(n, n)).tocsr()


class TestPlan:
    """The DOF map of (mesh, k) is its assembly plan, built once and kept on the mesh."""

    def test_pattern_and_gathers_match_triplets_and_slices(self, mesh_t2):
        # the plan's summed CSR matrix has the pattern of the COO triplets
        # and their values up to the order of the duplicate sums; its
        # reduced matrix and lift are the slices of that matrix
        problem = swirl_problem()
        _, _, _, forms = build_cells(mesh_t2, problem, 2, 1)
        dofmap = DofMap(mesh_t2, 2)
        system = assemble(dofmap, cell_blocks(forms))
        ref = coo_system(dofmap, forms)
        assert np.array_equal(system.matrix.indices, ref.indices)
        assert np.array_equal(system.matrix.indptr, ref.indptr)
        assert np.abs(system.matrix.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
        reduced = apply_dirichlet(system, problem)
        a = system.matrix.toarray()
        free, fixed = dofmap.free, dofmap.fixed
        assert reduced.matrix.format == "csc" and reduced.matrix.has_sorted_indices
        assert np.array_equal(reduced.matrix.toarray(), a[np.ix_(free, free)])
        assert reduced.matrix.nnz == ref[free][:, free].nnz
        want = system.rhs[free] - a[np.ix_(free, fixed)] @ reduced.values
        assert np.abs(reduced.rhs - want).max() <= 1e-14 * np.abs(want).max()

    def test_index_arrays_are_int32_and_read_only(self, mesh_t2, capsys):
        # also on the one-cell k = 1 mesh, whose four DOFs are all on the
        # boundary: its plan has no free DOF and nothing to order or factor
        one_cell = generate_cartesian(1, 1)
        empty = DofMap(one_cell, 1)
        for dofmap in (DofMap(mesh_t2, 3), empty):
            arrays = [dofmap.flat, dofmap.positions, dofmap.indices, dofmap.indptr,
                      dofmap.boundary, dofmap.fixed, dofmap.free, *dofmap.reduced[:3],
                      *dofmap.lift[:3]]
            for a in arrays:
                assert a.dtype == np.int32 and not a.flags.writeable
            assert len(dofmap.positions) == (np.diff(dofmap.offsets) ** 2).sum()
            free, fixed = dofmap.free, dofmap.fixed
            assert len(free) + len(fixed) == dofmap.n_dofs
            assert len(np.unique(free)) == len(free)
            assert np.array_equal(np.union1d(fixed, free), np.arange(dofmap.n_dofs))
            assert dofmap.boundary.shape == (len(dofmap.mesh.boundary_edges), dofmap.k + 1)
            assert np.array_equal(np.unique(dofmap.boundary), fixed)
        assert len(empty.free) == 0 and empty.reduced[3] == (0, 0)
        res = solve_problem(one_cell, problem_smooth(), 1, ell=1)
        assert res.solution.lu_nnz == 0 and res.dofmap.elimination is None
        assert "solve: n=4 residual=0.0e+00" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("family, first, then", [
        ("t1", (problem_test1, "sf"), (problem_test1, "vem")),
        ("t1", (problem_test1, "vem"), (problem_test1, "sf")),
        ("t2", (problem_smooth, "sf"), (problem_test2, "sf")),
    ], ids=["t1-sf-vem", "t1-vem-sf", "t2-smooth-test2"])
    def test_later_factor_takes_the_plans_order(self, monkeypatch, family, first, then):
        # the plan's first factor orders the reduced matrix by minimum degree
        # and the plan keeps that order; a later solve on the plan, with
        # other values, factors in it without ordering again, and gets the
        # order, fill and solution of that matrix's own minimum-degree
        # factor, bit for bit
        specs = []
        real = assemble_module.spla.splu

        def spy(*args, **kwargs):
            specs.append(kwargs["permc_spec"])
            return real(*args, **kwargs)

        monkeypatch.setattr(assemble_module.spla, "splu", spy)
        if family == "t1":
            mesh, ell = generate_cartesian(16, 16), {4: 2}
        else:
            mesh, ell = generate_concave_pentagons(4), "auto"
        plan = solve_problem(mesh, first[0](), 3, ell=ell, method=first[1]).dofmap
        kept = plan.elimination
        assert kept.block is None  # a one-shot solve builds no gather
        # its own copy: SuperLU's perm_c would keep the whole factor alive
        assert kept.perm_c.base is None
        res = solve_problem(mesh, then[0](), 3, ell=ell, method=then[1])
        assert specs == ["MMD_AT_PLUS_A", "NATURAL"]
        assert res.dofmap is plan and plan.elimination is kept
        order = kept.order
        for a in (order, kept.perm_c, *kept.block[:3]):
            assert a.dtype == np.int32 and not a.flags.writeable
        reduced = res.solution.reduced
        lu = real(reduced.matrix, permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=assemble_module.DIAG_PIVOT_THRESH,
                  options={"SymmetricMode": True})
        assert not np.array_equal(order, np.arange(len(order)))
        assert np.array_equal(order, np.argsort(lu.perm_c))
        assert res.solution.lu_nnz == lu.nnz
        assert np.array_equal(res.solution.dofs[plan.free], lu.solve(reduced.rhs))

    def test_one_plan_per_mesh_and_order(self, monkeypatch):
        # the sf and vem solves on one (mesh, k), a repeated solve and a
        # test2 solve share the plan of the caller's mesh, which every
        # result holds; numbering runs once per order
        numbered = []
        real = DofMap._number_cells
        monkeypatch.setattr(DofMap, "_number_cells",
                            lambda self: numbered.append(self.k) or real(self))
        mesh = generate_cartesian(4, 4)
        results = [solve_problem(mesh, problem_test1(), 2, ell={4: 1}, method=method)
                   for method in ("sf", "vem", "sf")]
        results.append(solve_problem(mesh, problem_test2(), 2, ell={4: 1}))
        plan = mesh.dof_map(2)
        assert all(res.dofmap is plan for res in results)
        assert all(res.mesh is mesh for res in results) and plan.mesh is mesh
        assert numbered == [2]
        solve_problem(mesh, problem_test1(), 1, ell={4: 1})
        assert mesh.dof_map(1) is not plan and mesh.dof_map(2) is plan
        assert numbered == [2, 1]

    @pytest.mark.parametrize("family", ["t1", "t2", "t3"])
    def test_second_solve_is_bit_equal_to_the_first(self, acceptance_meshes, family):
        # the first solve on a mesh builds its plan and the second reuses
        # it: the same path, so the same bits, as on a newly built mesh
        base = acceptance_meshes[family]
        mesh = PolyMesh(base.vertices, base.cells, base.boundary_labels)
        first, second = (solve_problem(mesh, problem_test2(), 2) for _ in range(2))
        fresh = solve_problem(PolyMesh(base.vertices, base.cells, base.boundary_labels),
                              problem_test2(), 2)
        for res in (second, fresh):
            assert np.array_equal(res.solution.dofs, first.solution.dofs)
            assert np.array_equal(res.solution.reduced.matrix.data,
                                  first.solution.reduced.matrix.data)

    def test_test2_after_plan_takes_the_relabelled_values(self, mesh_t2):
        # the plan was built by a solve on the side labels; a later test2
        # solve prescribes the values of the classified labels, those of a
        # mesh that carries them (classifying them again changes none)
        mesh = PolyMesh(mesh_t2.vertices, mesh_t2.cells, mesh_t2.boundary_labels)
        solve_problem(mesh, problem_smooth(), 2)
        problem = problem_test2()
        res = solve_problem(mesh, problem, 2)
        labels = {}
        for (c, i), label in mesh_t2.boundary_labels.items():
            loop = mesh_t2.cells[c]
            ends = mesh_t2.vertices[[loop[i], loop[(i + 1) % len(loop)]]]
            labels[(c, i)] = problem.boundary_classifier(*ends, label)
        relabelled = PolyMesh(mesh_t2.vertices, mesh_t2.cells, labels)
        assert set(labels.values()) == {"inflow1", "rest"}
        plan = DofMap(relabelled, 2)
        idx, vals = plan.fixed, plan.boundary_values(problem)
        reduced = res.solution.reduced
        assert np.array_equal(reduced.dofmap.fixed, idx)
        assert np.array_equal(reduced.values, vals)
        assert np.array_equal(res.solution.dofs[idx], vals)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing", "cell 3: 0 local blocks"),
            ("doubled", "cell 2: 2 local blocks"),
            ("wrong_size", "cell 1: local matrix does not match"),
            ("nan_matrix", "non-finite local contribution from cell 3"),
        ],
    )
    def test_bad_blocks_name_the_cell_on_a_kept_plan(self, case, message):
        # the checks run on every assemble, also when an earlier solve built
        # the plan, and a rejected assemble leaves the plan as it was
        mesh = generate_cartesian(2, 2)
        solve_problem(mesh, problem_smooth(), 1, ell=1)
        _, _, _, forms = build_cells(mesh, problem_smooth(), 1, 1)
        blocks = cell_blocks(forms)
        if case == "missing":
            del blocks[3]
        elif case == "doubled":
            blocks.append(blocks[2])
        elif case == "wrong_size":
            blocks[1] = (np.array([1]), np.zeros((1, 3, 3)), np.zeros((1, 3)))
        else:
            mats = blocks[3][1].copy()
            mats[0, 2, 1] = np.inf
            blocks[3] = (blocks[3][0], mats, blocks[3][2])
        with pytest.raises(MeshError, match=message):
            assemble(mesh.dof_map(1), blocks)
        kept = assemble(mesh.dof_map(1), cell_blocks(forms)).matrix
        fresh = assemble(DofMap(mesh, 1), cell_blocks(forms)).matrix
        assert all(np.array_equal(getattr(kept, name), getattr(fresh, name))
                   for name in ("data", "indices", "indptr"))


class TestDirichlet:
    def test_zero_data_keeps_interior_rhs(self):
        mesh = generate_cartesian(3, 3)
        problem = problem_smooth(kappa=1.0, beta=(0.0, 0.0))
        _, _, _, forms = build_cells(mesh, problem, 1, 1)
        dofmap = DofMap(mesh, 1)
        system = assemble(dofmap, cell_blocks(forms))
        reduced = apply_dirichlet(system, problem)
        assert reduced.rhs == pytest.approx(system.rhs[dofmap.free])

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
            ("t1", "test1", (1, 3, 4)),
            ("t1", "sides", (1, 2, 3, 4)),
            ("t2", "test2", (1, 2, 3, 4)),
            ("t3", "test2", (1, 2, 3, 4)),
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
        for k in orders:
            dofmap = DofMap(mesh, k)
            vals = dofmap.boundary_values(problem)
            ref_idx, ref_vals = boundary_values_by_node(dofmap, problem)
            assert np.array_equal(dofmap.fixed, ref_idx)
            assert np.array_equal(vals, ref_vals)

    def test_reduction_matches_dense_slices(self):
        mesh = generate_cartesian(3, 3)
        problem = problem_smooth()
        _, _, _, forms = build_cells(mesh, problem, 2, 2)
        system = assemble(DofMap(mesh, 2), cell_blocks(forms))
        matrix = system.matrix
        a, b = matrix.toarray(), system.rhs.copy()
        reduced = apply_dirichlet(system, problem)
        assert system.matrix is matrix and system.matrix.format == "csr"
        assert np.array_equal(system.matrix.toarray(), a)
        free, fixed = system.dofmap.free, system.dofmap.fixed
        assert len(fixed) and np.array_equal(np.union1d(free, fixed), np.arange(len(b)))
        assert np.array_equal(reduced.matrix.toarray(), a[free][:, free])
        want = b[free] - a[free][:, fixed] @ reduced.values
        assert np.abs(reduced.rhs - want).max() <= 1e-14

    def test_stages_leave_their_inputs_as_they_were(self):
        # a library call must not change its input: apply_dirichlet returns a
        # new reduced system and leaves every field of the assembled one as
        # it was, so two calls give equal systems; a solve's result has every
        # field set when it is returned
        mesh = generate_cartesian(3, 3)
        problem = problem_test1()
        _, _, _, forms = build_cells(mesh, problem, 2, 1)
        system = assemble(DofMap(mesh, 2), cell_blocks(forms))
        matrix = system.matrix
        fields = {name: getattr(system, name) for name in dir(system)
                  if not name.startswith("_") and not callable(getattr(system, name))}
        before = [a.copy() for a in (matrix.data, matrix.indices, matrix.indptr, system.rhs)]
        first, second = (apply_dirichlet(system, problem) for _ in range(2))
        assert {name for name, value in fields.items() if getattr(system, name) is not value} == set()
        after = [matrix.data, matrix.indices, matrix.indptr, system.rhs]
        assert system.matrix is matrix
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        with pytest.raises(AttributeError):
            system.rhs = None
        assert first is not system and first is not second
        assert first.dofmap is second.dofmap is system.dofmap
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(first.matrix, name), getattr(second.matrix, name))
        assert np.array_equal(first.rhs, second.rhs)
        assert np.array_equal(first.values, second.values)
        res = solve_problem(mesh, problem, 2, ell={4: 1})
        assert [name for name, value in vars(res.solution).items() if value is None] == []
        assert not hasattr(res.solution, "system")

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

    @staticmethod
    def free_system(mat, rhs):
        """The reduced system of ``mat`` and ``rhs`` with no Dirichlet DOF, for ``solve``."""
        n = mat.shape[0]
        plan = SimpleNamespace(n_dofs=n, free=np.arange(n), fixed=np.empty(0, dtype=int),
                               elimination=None)
        return ReducedSystem(mat, rhs, np.empty(0), plan)

    def test_singular_system_raises(self):
        mat = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(SolveError, match="Factor is exactly singular"):
            solve(self.free_system(mat, np.ones(3)))

    def test_pivots_off_a_small_diagonal(self, monkeypatch):
        # nonsingular, but every diagonal entry lies far below the threshold
        # times its column's largest entry: the symmetric-mode factor must
        # pivot off the diagonal and still meet the residual guard
        n = 8
        mat = sp.diags([np.ones(n - 1), np.full(n, 1e-12), np.ones(n - 1)], [-1, 0, 1]).tocsc()
        factors = []
        real = assemble_module.spla.splu

        def spy(*args, **kwargs):
            factors.append(real(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(assemble_module.spla, "splu", spy)
        system = self.free_system(mat, np.arange(1.0, n + 1))
        x, residual, _ = solve(system)
        [lu] = factors
        assert not np.array_equal(lu.perm_r, lu.perm_c)
        assert residual <= 1e-12
        # a later factor on the plan takes the first one's column order and
        # repeats its pivots off the diagonal
        again, _, _ = solve(system)
        assert np.array_equal(again, x)
        assert not np.array_equal(factors[1].perm_r, factors[1].perm_c)

    def test_factorization_facts(self):
        # 32x32 test1 at k = 3, stabilization-free: the symmetric-mode LU of
        # the reduced matrix fills less than scipy's default COLAMD LU of it
        # (0.53M against 1.31M nonzeros), and solve leaves its input as it was
        res = solve_problem(generate_cartesian(32, 32), problem_test1(), 3, ell={4: 2})
        reduced = res.solution.reduced.matrix
        assert res.solution.nnz == reduced.nnz
        colamd = spla.splu(reduced.tocsc())
        assert 0 < res.solution.lu_nnz < colamd.L.nnz + colamd.U.nnz
        a, b = reduced.copy(), res.solution.reduced.rhs.copy()
        before = [a.format, a.shape, a.data.copy(), a.indices.copy(), a.indptr.copy(), b.copy()]
        system = self.free_system(a, b)
        dofs, _, lu_nnz = solve(system)
        assert system.matrix is a and system.rhs is b
        after = [a.format, a.shape, a.data, a.indices, a.indptr, b]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        assert (a.nnz, lu_nnz) == (res.solution.nnz, res.solution.lu_nnz)
        assert np.array_equal(dofs, res.solution.dofs[res.solution.reduced.dofmap.free])

    def test_voronoi_k3_matches_refined_reference(self):
        # the voronoi_auto system at k = 3 has a diagonal from 3.7e-4 to 93
        # and a 1-norm condition estimate of 1.8e10; against a reference
        # refined with extended-precision residuals, COLAMD with partial
        # pivoting erred by 2.2e-10 of max |DOF|, the symmetric-mode factor
        # by 8.0e-13
        mesh = shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3)
        solution = solve_problem(mesh, problem_test2(), 3, ell="auto").solution
        reduced = solution.reduced
        want = oracles.refined_solve(reduced.matrix, reduced.rhs)
        error = np.abs(solution.dofs[reduced.dofmap.free] - want).max()
        assert error < 2e-11 * np.abs(want).max()

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
        err = energy_error(result.spaces, result.solution, problem)
        assert err == pytest.approx(1.0, rel=1e-12)

    def test_needs_gradient(self):
        mesh = generate_cartesian(2, 2)
        problem = problem_smooth()
        result = solve_problem(mesh, problem, 1, ell=1)
        from vemsupg.problems import problem_test2

        with pytest.raises(ValueError):
            energy_error(result.spaces, result.solution, problem_test2())

    def test_energy_norm_two_ways(self):
        # matrix quadratic form of the reference diffusion-streamline forms
        # against re-quadrature of the solve's projections with its tau
        mesh = generate_cartesian(3, 3)
        problem = problem_test1()
        result = solve_problem(mesh, problem, 2, ell="auto")
        blocks = []
        for c, space in enumerate(result.spaces):
            geom = make_geometry(mesh.cell_vertices(c), k=2, ell=space.ell, cell=c)
            coef = oracles.element_coefficients(geom, problem, 2)
            a = oracles.local_a_h(geom, LocalSpace(geom, 2, space.ell), coef, problem)
            blocks.append((np.array([c]), a[None], np.zeros((1, len(a)))))
        a_only = assemble(result.dofmap, blocks)
        u = result.solution.dofs
        quad_form = u @ (a_only.matrix @ u)
        total = 0.0
        from vemsupg.basis import MonomialBasis, eval_basis

        for c, (space, shift, tau) in enumerate(
            zip(result.spaces, result.spaces.shift, result.solution.tau)
        ):
            geom = space.geom
            local = u[cell_dofs(result.dofmap, c)]
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
    def check_against_cell_loop(result, problem, spaces=None):
        """Batched error equals the per-cell loop; DOFs and reconstructions untouched."""
        spaces = result.spaces if spaces is None else spaces
        sol = result.solution
        dofs = sol.dofs.copy()
        recon = sol.reconstructions.copy()
        err = energy_error(spaces, sol, problem)
        ref = energy_error_by_cell(spaces, sol, problem)
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
        # independently built elements, with zero shifts, are stacks of one
        # in the cell table beside the translates that share their shape's
        # stack
        from vemsupg.harness import CellSpaces

        problem = swirl_problem()
        result = solve_problem(mesh_t2, problem, 2, ell="auto")
        table = result.spaces
        shifts = table.shift.copy()
        stacks, stack, member = list(table.stacks), table.stack.copy(), table.member.copy()
        for c in range(0, mesh_t2.n_cells, 3):
            ell = int(table.ell[c])
            geom = ElementGeometry(
                mesh_t2.cell_vertices(c), 2 * (2 + ell) + 2, 2 + ell + 1, cell=c
            )
            stack[c], member[c] = len(stacks), 0
            stacks.append(LocalSpace(geom, 2, ell).stack)
            shifts[c] = 0.0
        mixed = CellSpaces(stacks, stack, member, shifts)
        assert len(mixed.chunks) > len(table.chunks)
        assert len({id(space) for space, _, _ in mixed.chunks}) == len(stacks)
        mixed_err = self.check_against_cell_loop(result, problem, mixed)
        assert mixed_err == pytest.approx(result.error(problem), rel=1e-10)


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


@pytest.mark.parametrize("n", [8, 2], ids=["more-cells", "fewer-cells"])
def test_vtk_rejects_another_mesh(n, tmp_path):
    # a 32-cell solution written with a 128-cell mesh once gave CELL_DATA 128
    # and 32 values, and with an 8-cell mesh a truncated file
    solution = solve_problem(generate_concave_pentagons(4), problem_smooth(), 1, ell=1).solution
    other = generate_concave_pentagons(n)
    path = tmp_path / "out.vtk"
    with pytest.raises(ValueError) as info:
        export_vtk(solution, other, path)
    assert str(info.value) == (f"the solution has 61 vertices and 32 cells, the mesh "
                               f"{other.n_vertices} vertices and {other.n_cells} cells")
    assert not path.exists()


@pytest.mark.parametrize("family", ["t1", "t2", "t3"])
def test_vtk_bytes_match_line_writer(family, tmp_path):
    # formatting the tolist() values gives the bytes of formatting each numpy
    # scalar on its own line: coordinates, connectivity, the int ell column
    # and negative values alike
    mesh = {"t1": lambda: generate_cartesian(6, 6),
            "t2": lambda: shared_mesh(generate_concave_pentagons, 4),
            "t3": lambda: shared_mesh(generate_voronoi, 64, lloyd_iters=100, seed=3)}[family]()
    signs = set()
    for k in (1, 2, 3):
        solution = solve_problem(mesh, problem_test2(), k, ell="auto").solution
        signs.update(np.sign(solution.dofs).tolist())
        export_vtk(solution, mesh, tmp_path / "got.vtk")
        oracles.export_vtk_by_line(solution, mesh, tmp_path / "want.vtk")
        assert (tmp_path / "got.vtk").read_bytes() == (tmp_path / "want.vtk").read_bytes()
    assert -1.0 in signs


def test_shared_code_path_for_baseline():
    # identical numbering, data and BC path: only local matrices differ
    mesh = generate_cartesian(3, 3)
    problem = problem_test1()
    sf = solve_problem(mesh, problem, 1, ell="auto", method="sf")
    vem = solve_problem(mesh, problem, 1, ell="auto", method="vem")
    assert sf.dofmap.n_dofs == vem.dofmap.n_dofs
    assert np.array_equal(sf.solution.reduced.dofmap.fixed, vem.solution.reduced.dofmap.fixed)
    assert sf.solution.reduced.values == pytest.approx(
        vem.solution.reduced.values, abs=0.0
    )
