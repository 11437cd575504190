import itertools
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import UNIT_SQUARE, share_voronoi, shared_mesh, swirl_problem
from oracles import chebyshev_center_by_block_diag, kernel_balls_by_polygon
from vemsupg.assemble import DofMap, apply_dirichlet, assemble, solve
from vemsupg.forms import probe_min_ell, rank_bound_ell
from vemsupg.errors import ElementQualityError, MeshError, ProbeError, SolveError
from vemsupg.geometry import ElementGeometry
from vemsupg.harness import (
    ConvergenceReport,
    ExperimentConfig,
    build_spaces,
    cell_spaces,
    format_probe_table,
    generate_mesh,
    place_shapes,
    probe_shapes,
    probe_table,
    run_convergence,
    run_field,
    solve_problem,
)
from vemsupg.mesh import (PolyMesh, check_regularity, generate_cartesian,
                          generate_concave_pentagons, generate_voronoi)
from vemsupg.problems import problem_smooth, problem_test2
from vemsupg.space import LocalSpace, dof_layout


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k=5)
        with pytest.raises(ValueError):
            ExperimentConfig(refinements=(8, 8))
        with pytest.raises(ValueError):
            ExperimentConfig(refinements=(16, 8))
        with pytest.raises(ValueError, match="refinement schedule is empty"):
            ExperimentConfig(refinements=())
        assert ExperimentConfig(k=np.int64(4), refinements=(np.int64(2), 4)).k == 4

    @pytest.mark.parametrize("field, value, message", [
        ("k", 0, "order k must be an integer in 1..4, not 0"),
        ("k", 5, "order k must be an integer in 1..4, not 5"),
        ("k", 2.5, "order k must be an integer in 1..4, not 2.5"),
        ("k", True, "order k must be an integer in 1..4, not True"),
        ("k", "2", "order k must be an integer in 1..4, not '2'"),
        ("refinements", (4, 8.5), "mesh size n must be an integer, got 8.5"),
        ("refinements", (0, 4), "mesh size n must be at least 1, got 0"),
        ("refinements", (-3,), "mesh size n must be at least 1, got -3"),
        ("refinements", (True, 4), "mesh size n must be an integer, got True"),
        ("refinements", ("4", "8"), "mesh size n must be an integer, got '4'"),
        ("refinements", 8, "refinements must be a list or tuple of mesh sizes, not int"),
        ("refinements", np.array([4, 8]),
         "refinements must be a list or tuple of mesh sizes, not ndarray"),
    ])
    def test_bad_values_raise_one_line(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(**{field: value})

    def test_generate_mesh_families(self):
        assert generate_mesh("t1", 3).n_cells == 9
        assert generate_mesh("t2", 3).n_cells == 18
        assert generate_mesh("t3", 4, seed=1).n_cells == 16
        with pytest.raises(ValueError):
            generate_mesh("t9", 3)
        for family in ("t1", "t2", "t3"):
            for n in (0, -3):
                with pytest.raises(ValueError, match="mesh size n must be at least 1"):
                    generate_mesh(family, n)

    @pytest.mark.parametrize("make, message", [
        (lambda: generate_mesh("t1", 2.5), "mesh size n must be an integer, got 2.5"),
        (lambda: generate_mesh("t2", 2.5), "mesh size n must be an integer, got 2.5"),
        (lambda: generate_mesh("t3", 2.5), "mesh size n must be an integer, got 2.5"),
        (lambda: generate_mesh("t1", True), "mesh size n must be an integer, got True"),
        (lambda: generate_cartesian(3, 2.5), "ny must be an integer, got 2.5"),
        (lambda: generate_concave_pentagons(2.0), "n must be an integer, got 2.0"),
        (lambda: generate_voronoi(8.0), "n_cells must be an integer, got 8.0"),
        (lambda: generate_voronoi(8, lloyd_iters=1.5), "lloyd_iters must be an integer, got 1.5"),
    ], ids=["t1", "t2", "t3", "bool", "cartesian", "pentagons", "voronoi", "lloyd"])
    def test_non_integer_mesh_size_raises_one_line(self, make, message):
        # not numpy's TypeError from linspace or range
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


class TestRateFormula:
    def test_exact_halving(self):
        # errors (0.1, 0.05) at h (0.2, 0.1) give rate exactly 1
        assert ConvergenceReport.rate(0.2, 0.1, 0.1, 0.05) == pytest.approx(1.0)

    def test_rows_recompute_alphas(self, tmp_path):
        cfg = ExperimentConfig(
            problem="smooth", family="t1", k=1, ell=1,
            refinements=(4, 8, 16), out_dir=str(tmp_path),
        )
        rep = run_convergence(cfg)
        for prev, cur in zip(rep.rows, rep.rows[1:]):
            want = np.log(prev["err_sf"] / cur["err_sf"]) / np.log(
                prev["h_max"] / cur["h_max"]
            )
            assert cur["alpha_sf"] == pytest.approx(want, rel=1e-15)
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert csv[0] == ConvergenceReport.HEADER
        assert len(csv) == 4


class TestDeterminism:
    def test_csv_bytes_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig(
                problem="smooth", family="t3", k=1, refinements=(2, 4),
                seed=3, lloyd_iters=20, out_dir=str(out),
            )
            os.makedirs(out, exist_ok=True)
            run_convergence(cfg)
        b1 = (out1 / "convergence.csv").read_bytes()
        b2 = (out2 / "convergence.csv").read_bytes()
        assert b1 == b2

    def test_baseline_toggle_leaves_sf_untouched(self):
        base = dict(problem="smooth", family="t2", k=1, refinements=(2, 4))
        rep_off = run_convergence(ExperimentConfig(**base, baseline=False))
        rep_on = run_convergence(ExperimentConfig(**base, baseline=True))
        for r0, r1 in zip(rep_off.rows, rep_on.rows):
            assert r0["err_sf"] == r1["err_sf"]  # bitwise
            assert r1["err_vem"] is not None


class TestProbeTable:
    def test_t1_column_and_layout(self, tmp_path):
        cfg = ExperimentConfig(family="t1", out_dir=str(tmp_path))
        table = probe_table(cfg, orders=(1, 2, 3, 4), families=["t1"])
        assert table[("t1", 4, 1)] == 1
        assert table[("t1", 4, 2)] == 2
        assert table[("t1", 4, 4)] == 2
        text = format_probe_table(table)
        assert "t1:N_V=4" in text
        csv = (tmp_path / "probe_table.csv").read_text().splitlines()
        assert csv[0] == "family,n_vertices,k,ell"
        assert len(csv) == 5

    def test_table_in_stacks_matches_shape_by_shape(self, tmp_path, monkeypatch):
        # one probe_shapes call per family and order gives the table and the
        # CSV of probing every shape alone
        import vemsupg.harness as harness

        share_voronoi(monkeypatch, harness)
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        table = probe_table(cfg, orders=(1, 2, 3, 4))
        want = oracles.probe_table_by_shape(("t1", "t2", "t3"), (1, 2, 3, 4))
        assert table == want
        assert "—" in want.values()  # an exhausted entry is among them
        csv = ["family,n_vertices,k,ell"] + [f"{f},{n_v},{k},{want[(f, n_v, k)]}"
                                              for f, n_v, k in sorted(want)]
        assert (tmp_path / "probe_table.csv").read_text(encoding="utf-8").splitlines() == csv

    def test_probe_minimality_in_table(self):
        # by search order the table never reports a larger value than the
        # first passing increment
        from conftest import UNIT_SQUARE, make_geometry
        from vemsupg.forms import probe_min_ell

        cfg = ExperimentConfig(family="t1")
        table = probe_table(cfg, orders=(2,), families=["t1"])
        geom = make_geometry(UNIT_SQUARE, k=2, ell=6)
        assert table[("t1", 4, 2)] == probe_min_ell(geom, 2)


class TestSolveDrivers:
    def test_run_field_summary(self, tmp_path):
        cfg = ExperimentConfig(
            problem="test2", family="t2", k=1, refinements=(4,),
            out_dir=str(tmp_path),
        )
        summary = run_field(cfg)
        assert -0.5 <= summary["min_vertex"] <= summary["max_vertex"] <= 1.5
        vtks = [f for f in os.listdir(tmp_path) if f.endswith(".vtk")]
        assert len(vtks) == 1
        assert (tmp_path / "run.log").exists()

    def test_convergence_requires_exact(self):
        cfg = ExperimentConfig(problem="test2", family="t1", k=1, refinements=(2, 4))
        with pytest.raises(ValueError, match="exact"):
            run_convergence(cfg)

    def test_shape_cache_matches_direct_build(self):
        # the shape table with batched forms agrees to roundoff with an
        # independent build of every cell from scratch, probed on one
        # geometry exact to the cap, with the per-element oracle's forms
        meshes = {
            "t1": generate_mesh("t1", 3),
            "t2": generate_mesh("t2", 2),
            "t3": generate_voronoi(16, lloyd_iters=20, seed=1),
        }
        for k, (name, mesh), problem, method in itertools.product(
            (2, 3), meshes.items(), (problem_smooth(), swirl_problem()), ("sf", "vem")
        ):
            res = solve_problem(mesh, problem, k, ell="auto", method=method)
            blocks = []
            for c in range(mesh.n_cells):
                verts = mesh.cell_vertices(c)
                ell = 0
                if method == "sf":
                    probe_geom = ElementGeometry(verts, 2 * (k + 6) + 2, k + 7, cell=c)
                    ell = probe_min_ell(probe_geom, k)
                geom = ElementGeometry(verts, 2 * (k + ell) + 2, k + ell + 1, cell=c)
                space = LocalSpace(geom, k, ell)
                coef = oracles.element_coefficients(geom, problem, k)
                build = oracles.sf_forms if method == "sf" else oracles.baseline_vem_forms
                lf = build(geom, space, coef, problem)
                blocks.append((np.array([c]), lf.full[None], lf.rhs[None]))
            dofmap = DofMap(mesh, k)
            direct = solve(apply_dirichlet(assemble(dofmap, blocks), problem))[0]
            assert res.solution.dofs == pytest.approx(direct, rel=1e-11), (
                k, name, problem.name, method,
            )

    def test_shape_table_builds_once_per_shape(self, monkeypatch):
        # one kernel LP for the shapes of a chunk (all of them here), its
        # centers shared by every geometry of the shape; one stacked geometry
        # and space per probe round, that is per vertex count and trial ell
        # from the rank bound on (the solve keeps the accepted members
        # instead of building them again); and one inverse-inequality
        # constant call per stack of accepted members, here one per
        # (vertex count, ell)
        import vemsupg.forms as forms
        import vemsupg.geometry as geometry

        calls = dict.fromkeys(["lp", "c_tilde", "geometry", "space"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(geometry, "chebyshev_center",
                            counted("lp", geometry.chebyshev_center))
        monkeypatch.setattr(forms, "tilde_c_k", counted("c_tilde", forms.tilde_c_k))
        # on the classes, so that constructions through any module count
        monkeypatch.setattr(ElementGeometry, "__init__",
                            counted("geometry", ElementGeometry.__init__))
        monkeypatch.setattr(LocalSpace, "__init__", counted("space", LocalSpace.__init__))

        def rounds_and_stacks(mesh, ell):
            n_v = np.array([len(cell) for cell in mesh.cells])
            rounds = sum(int(ell[n_v == nv].max()) - rank_bound_ell(dof_layout(nv, 2).n_dofs, 2) + 1
                         for nv in np.unique(n_v))
            return rounds, len(set(zip(n_v.tolist(), ell.tolist())))

        voronoi = generate_voronoi(16, lloyd_iters=20, seed=1)
        res = solve_problem(voronoi, problem_smooth(), 2, ell="auto")
        rounds, stacks = rounds_and_stacks(voronoi, res.solution.ell)
        assert (rounds, stacks) == (4, 4)  # 16 geometries and spaces cell by cell
        assert calls == {"lp": 1, "c_tilde": stacks, "geometry": rounds, "space": rounds}
        pentagons = generate_mesh("t2", 4)
        calls.update(dict.fromkeys(calls, 0))
        res = solve_problem(pentagons, problem_smooth(), 2, ell="auto")
        assert sorted(set(res.solution.ell.tolist())) == [1]  # both shapes
        rounds, stacks = rounds_and_stacks(pentagons, res.solution.ell)
        assert (rounds, stacks) == (1, 1)  # the two shapes form one stack
        assert calls == {"lp": 1, "c_tilde": stacks, "geometry": rounds, "space": rounds}

    def test_probe_on_square_rejects_ell_1_accepts_ell_2(self):
        # the rank bound starts the square's probe at ell = 1 for k = 2
        from vemsupg.forms import coercive

        mesh = generate_mesh("t1", 2)
        shapes = place_shapes(mesh, [0])
        [trial], _, _ = build_spaces(mesh, shapes, 2, 1)
        assert not coercive(trial)[0][0]
        ([space], stack, member), failed = probe_shapes(mesh, shapes, 2)
        assert failed == {} and space.ell == 2
        assert stack.tolist() == member.tolist() == [0]

    @pytest.mark.parametrize("family", ["t1", "t2", "t3"])
    def test_place_shapes(self, family, monkeypatch):
        # shapes come in first-cell order, each from the first cell of its
        # index in ``of``, and a cell is its shape's first cell moved by its
        # shift; the star centers of all shapes come from one call, on the
        # first cells' polygons, and the placement's five arrays are read-only
        import vemsupg.mesh as mesh_module

        calls = []
        real = mesh_module.star_centers

        def counted(polys, cells):
            calls.append((list(cells), [p.tolist() for p in polys]))
            return real(polys, cells)

        monkeypatch.setattr(mesh_module, "star_centers", counted)
        mesh = {"t1": lambda: generate_mesh("t1", 3), "t2": lambda: generate_mesh("t2", 4),
                "t3": lambda: generate_voronoi(16, lloyd_iters=20, seed=1)}[family]()
        shapes = place_shapes(mesh, range(mesh.n_cells))
        assert isinstance(shapes, mesh_module.Placement)
        firsts = shapes.cell.tolist()
        n_shapes = {"t1": 1, "t2": 2, "t3": 16}[family]
        assert len(firsts) == n_shapes
        assert shapes.center.shape == (n_shapes, 2) and shapes.radius.shape == (n_shapes,)
        assert shapes.of.shape == (mesh.n_cells,) and shapes.shift.shape == (mesh.n_cells, 2)
        assert not any(table.flags.writeable for table in shapes)
        assert firsts == sorted(firsts)
        assert firsts == [int(np.flatnonzero(shapes.of == i)[0]) for i in range(n_shapes)]
        assert calls == [(firsts, [mesh.cell_vertices(c).tolist() for c in firsts])]
        for c in range(mesh.n_cells):
            placed = mesh.cell_vertices(firsts[shapes.of[c]]) + shapes.shift[c]
            assert np.abs(placed - mesh.cell_vertices(c)).max() <= 1e-14, (family, c)

    def test_one_placement_per_mesh_and_no_shared_spaces(self, monkeypatch):
        # a mesh is placed once, by the first solve on it, also when that
        # solve is test2's, whose result holds the caller's mesh;
        # build_element places its one cell and probe_table its own meshes.
        # Spaces live on no shape, so probing leaves the shapes as placed
        # and two calls share no stack
        import vemsupg.harness as harness
        import vemsupg.mesh as mesh_module

        calls = []
        real = mesh_module.place_shapes

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(mesh_module, "place_shapes", counted)
        monkeypatch.setattr(harness, "place_shapes", counted)
        mesh = generate_mesh("t2", 2)
        res = solve_problem(mesh, problem_test2(), 1)
        assert res.mesh is mesh and "placement" in vars(mesh)
        solve_problem(mesh, problem_smooth(), 2)
        solve_problem(mesh, problem_smooth(), 2, method="vem")
        assert len(calls) == 1
        solve_problem(generate_mesh("t2", 2), problem_smooth(), 2)
        assert len(calls) == 2
        for run in (lambda: harness.build_element(mesh, 3, 2, "auto"),
                    lambda: probe_table(ExperimentConfig(), orders=(1, 2), families=["t2"])):
            calls.clear()
            run()
            assert len(calls) == 1
        shapes = real(mesh, range(mesh.n_cells))
        placed = [table.copy() for table in shapes]
        probe_shapes(mesh, shapes, 2)
        build_spaces(mesh, oracles.one_shape(shapes, 0), 2, 1)
        assert all(map(np.array_equal, shapes, placed))
        first = cell_spaces(mesh, 2, "auto")
        second = cell_spaces(mesh, 2, "auto")
        assert not {id(stack) for stack in first.stacks} & {id(stack) for stack in second.stacks}

    def test_monomials_evaluated_once_per_point_set(self, monkeypatch):
        # a stacked space evaluates its degree k+ell monomials at the volume
        # points (its mass matrices) and at the edge points, and its P_k
        # monomials at the DOF nodes, once for all its cells; every lower
        # degree reads leading blocks of those.  Each ShapeForms evaluates
        # once more, at the volume points, and tilde_c_k reads the space's
        # mass matrices.  At k = 2 the Voronoi mesh builds 4 stacks of trial
        # spaces and keeps 4 stacks, the pentagons 1 and 1 (see above), so
        # a solve makes 3 calls per trial stack and 1 per kept stack
        import vemsupg.basis as basis
        import vemsupg.forms as forms
        import vemsupg.space as space

        calls = [0]
        eval_basis = basis.eval_basis

        def counted(*args, **kwargs):
            calls[0] += 1
            return eval_basis(*args, **kwargs)

        for module in (basis, space, forms):
            monkeypatch.setattr(module, "eval_basis", counted)
        voronoi = generate_voronoi(16, lloyd_iters=20, seed=1)
        solve_problem(voronoi, problem_smooth(), 2, ell="auto")
        assert calls[0] == 3 * 4 + 4  # 64 cell by cell, 208 projector by projector
        calls[0] = 0
        solve_problem(generate_mesh("t2", 4), problem_smooth(), 2, ell="auto")
        assert calls[0] == 3 + 1  # 8 shape by shape, 26 projector by projector

    @pytest.mark.parametrize("ell", [1.7, True, -1, {4: 1.5}, {4: -1}, None, "1"])
    def test_bad_ell_rejected_before_elements(self, ell, monkeypatch):
        import vemsupg.harness as harness

        def no_geometry(*args, **kwargs):
            raise AssertionError("element built before the ell check")

        monkeypatch.setattr(harness, "ElementGeometry", no_geometry)
        with pytest.raises(ValueError, match="^ell must be") as info:
            solve_problem(generate_mesh("t1", 2), problem_smooth(), 1, ell=ell)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("k", [2.0, True, "2", 0])
    def test_bad_order_rejected_before_placement(self, k, monkeypatch):
        # k = 2.0 died in the monomial tables and k = True solved as k = 1
        import vemsupg.harness as harness
        import vemsupg.mesh as mesh_module

        def no_geometry(*args, **kwargs):
            raise AssertionError("mesh placed before the order check")

        monkeypatch.setattr(harness, "ElementGeometry", no_geometry)
        monkeypatch.setattr(mesh_module, "star_centers", no_geometry)
        with pytest.raises(ValueError, match="^order k must be an integer >= 1") as info:
            solve_problem(generate_mesh("t1", 2), problem_smooth(), k, ell=1)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("ell", [np.int64(1), {4: 1}, {4: np.int64(0)}])
    def test_integer_ell_accepted(self, ell):
        res = solve_problem(generate_mesh("t1", 2), problem_smooth(), 1, ell=ell)
        assert np.all(res.solution.ell == (ell[4] if isinstance(ell, dict) else ell))

    @pytest.mark.parametrize("run", [run_convergence, run_field, probe_table])
    def test_run_log_closed_on_error(self, run, tmp_path, monkeypatch):
        import vemsupg.harness as harness

        logs = []

        class Recorded(harness._RunLog):
            def __init__(self, config):
                super().__init__(config)
                logs.append(self)

        def fail(*args, **kwargs):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(harness, "_RunLog", Recorded)
        monkeypatch.setattr(harness, "solve_problem", fail)
        monkeypatch.setattr(harness, "probe_shapes", fail)
        cfg = ExperimentConfig(family="t1", refinements=(2,), out_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="solve failed"):
            run(cfg)
        assert len(logs) == 1 and logs[0]._fh.closed
        assert (tmp_path / "run.log").read_text().startswith("config: ")

    def test_cells_are_shape_placements(self, monkeypatch):
        # each cell is its shape's space plus a shift: translates share one
        # (stack, member) of the cell table, and a solve builds no per-cell
        # basis
        import vemsupg.basis as basis

        meshes = {
            "t1": generate_mesh("t1", 3),
            "t2": generate_mesh("t2", 4),
            "t3": generate_voronoi(16, lloyd_iters=20, seed=1),
        }
        for name, mesh in meshes.items():
            res = solve_problem(mesh, problem_smooth(), 2, ell="auto")
            # the cell table carries the placement's own shifts
            assert res.spaces.shift is mesh.placement.shift and not hasattr(res, "shifts")
            assert res.spaces.shift.shape == (mesh.n_cells, 2)
            for c in range(mesh.n_cells):
                placed = res.spaces[c].geom.vertices + res.spaces.shift[c]
                assert np.abs(placed - mesh.cell_vertices(c)).max() <= 1e-14, (name, c)
            distinct = set(zip(res.spaces.stack.tolist(), res.spaces.member.tolist()))
            assert len(distinct) == {"t1": 1, "t2": 2, "t3": 16}[name], name
        assert np.all(res.spaces.shift == 0.0)  # Voronoi cells are shapes of their own

        calls = []
        real = basis.MonomialBasis.__init__
        monkeypatch.setattr(
            basis.MonomialBasis, "__init__",
            lambda self, *args: calls.append(1) or real(self, *args),
        )
        counts = []
        for n in (4, 8):
            calls.clear()
            solve_problem(generate_mesh("t1", n), swirl_problem(), 3, ell={4: 2})
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_solve_leaves_mesh_labels_unchanged(self):
        # test2 classifies the boundary for its inflow data as it reads the
        # labels and writes no label of its own
        mesh = generate_mesh("t2", 2)
        before = dict(mesh.boundary_labels)
        solve_problem(mesh, problem_test2(), 1, ell="auto")
        assert mesh.boundary_labels == before

    def test_fixed_ell_dict_mode(self):
        mesh = generate_mesh("t1", 2)
        problem = problem_smooth()
        res = solve_problem(mesh, problem, 2, ell={4: 2})
        assert np.all(res.solution.ell == 2)
        with pytest.raises(ValueError, match=r"^ell has no increment for 4-vertex cells"):
            solve_problem(mesh, problem, 2, ell={5: 1})

    @pytest.mark.parametrize("family, ell, message", [
        ("t2", {4: 1}, "5-vertex cells (the first is cell 0)"),
        ("t3", {4: 1, 5: 1, 6: 1}, "7-vertex cells (the first is cell 5)"),
    ])
    def test_ell_dict_missing_vertex_count_rejected_before_elements(
        self, family, ell, message, monkeypatch
    ):
        import vemsupg.harness as harness
        import vemsupg.mesh as mesh_module

        def no_geometry(*args, **kwargs):
            raise AssertionError("element built before the ell check")

        monkeypatch.setattr(harness, "ElementGeometry", no_geometry)
        monkeypatch.setattr(mesh_module, "star_centers", no_geometry)
        mesh = generate_mesh(family, 2 if family == "t2" else 4, seed=1, lloyd_iters=20)
        for solve_or_build in (
            lambda: solve_problem(mesh, problem_smooth(), 1, ell=ell),
            lambda: harness.build_element(mesh, 0, 1, ell),
        ):
            with pytest.raises(ValueError) as info:
                solve_or_build()
            assert str(info.value) == f"ell has no increment for {message}"

    def test_ell_dict_check_matches_cell_loop(self):
        # the check reads the vertex counts as an array; it names the first
        # cell whose count is missing, as a loop over the cells does
        from vemsupg.harness import _check_ell

        mesh = shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3)
        counts = sorted(set(mesh.cell_sizes.tolist()))
        assert len(counts) >= 4
        for drop in itertools.chain.from_iterable(
            itertools.combinations(counts, r) for r in range(len(counts) + 1)
        ):
            ell = {n_v: 1 for n_v in counts if n_v not in drop}
            first = next((c for c, cell in enumerate(mesh.cells) if len(cell) not in ell), None)
            if first is None:
                _check_ell(ell, mesh)
                continue
            want = (f"ell has no increment for {len(mesh.cells[first])}-vertex cells "
                    f"(the first is cell {first})")
            with pytest.raises(ValueError) as info:
                _check_ell(ell, mesh)
            assert str(info.value) == want


class TestStackedElements:
    """Element data built in stacks of shapes with one vertex count."""

    def test_probe_choices_on_benchmark_mesh(self):
        # the increments the probe picks on the voronoi_auto mesh, measured
        # when every cell was probed on its own: probing in rounds over
        # stacks must not move one of them
        mesh = shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3)
        want = {1: {1: 256}, 2: {1: 223, 2: 33}, 3: {1: 193, 2: 63}}
        for k, hist in want.items():
            ell = solve_problem(mesh, problem_test2(), k, ell="auto").solution.ell
            assert dict(zip(*np.unique(ell, return_counts=True))) == hist, k

    def test_increments_do_not_depend_on_lp_chunk(self, monkeypatch):
        # a cell's star center depends, at about 1e-14 h, on which shapes share
        # its chunk of the center LP; 78 of these 256 cells sit within a
        # decade of the probe's cutoff at k = 3, yet the increments must not
        # move.  Measured: with chunks of 16 (1) instead of 64 the k = 3
        # smooth energy error moves by 3.3e-11 (4.9e-10) relative, the k = 2
        # one by up to 6.7e-13
        import vemsupg.geometry as geometry

        sizes = []
        real = geometry.chebyshev_center
        monkeypatch.setattr(
            geometry, "chebyshev_center", lambda kernels: sizes.append(len(kernels)) or real(kernels)
        )
        shared = shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3)
        for k in (1, 2, 3):
            ells = []
            for chunk in (1, 16, 64):
                monkeypatch.setattr(geometry, "CHUNK", chunk)
                sizes.clear()
                # a mesh keeps its placement, so each chunk size places a new one
                mesh = PolyMesh(shared.vertices, shared.cells, shared.boundary_labels)
                ells.append(solve_problem(mesh, problem_smooth(), k, ell="auto").solution.ell)
                assert sizes == [chunk] * (256 // chunk)
            assert all(np.array_equal(ell, ells[-1]) for ell in ells), k

    def test_repeated_solve_places_nothing(self, monkeypatch):
        # a mesh keeps its placement: a second solve on it sends no center LP
        # and gives what a solve on a newly built copy of the mesh gives
        import vemsupg.geometry as geometry

        lp_calls = []
        real = geometry.linprog
        monkeypatch.setattr(geometry, "linprog",
                            lambda *args, **kwargs: lp_calls.append(1) or real(*args, **kwargs))
        shared = shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3)

        def new_mesh():
            return PolyMesh(shared.vertices, shared.cells, shared.boundary_labels)

        mesh, problem = new_mesh(), problem_smooth()
        solve_problem(mesh, problem_test2(), 2)
        assert len(lp_calls) == 256 // geometry.CHUNK
        lp_calls.clear()
        again = solve_problem(mesh, problem, 2)
        assert lp_calls == []
        fresh = solve_problem(new_mesh(), problem, 2)
        assert np.array_equal(again.solution.dofs, fresh.solution.dofs)
        assert np.array_equal(again.solution.ell, fresh.solution.ell)
        assert again.error(problem) == fresh.error(problem)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stacked_spaces_match_stack_of_one(self, k):
        # each cell's view into its stack matches the space built for that
        # cell alone (a stack of one) on the same star center; at k = 3 the
        # probe exhausts its cap on cell 6 of this mesh, so every cell takes
        # ell = 2 there
        mesh = shared_mesh(generate_voronoi, 64, lloyd_iters=20, seed=1)
        ell = "auto"
        if k == 3:
            with pytest.raises(ProbeError, match="^cell 6: "):
                solve_problem(mesh, problem_smooth(), k, ell=ell)
            ell = 2
        res = solve_problem(mesh, problem_smooth(), k, ell=ell)
        assert max(len(space.stack.h_full) for space in res.spaces) > 1
        for c, space in enumerate(res.spaces):
            ell = space.ell
            geom = ElementGeometry(mesh.cell_vertices(c), 2 * (k + ell) + 2, k + ell + 1, cell=c,
                                   center=(space.geom.star_center, space.geom.kernel_radius))
            alone = LocalSpace(geom, k, ell)
            pairs = [(space.h_full, alone.h_full), (space.pinabla_coeff, alone.pinabla_coeff),
                     (space.moments, alone.moments),
                     *zip(space.pizero_grad(k + ell - 1), alone.pizero_grad(k + ell - 1))]
            for got, ref in pairs:
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), c


def _slit(mesh, cell, neighbour):
    """``mesh`` with a thin finger of ``neighbour`` pushed into ``cell``.

    The finger's walls are parallel, so ``cell`` gets an empty kernel; the
    neighbour's kernel keeps the strip between the walls.
    """
    cells = [list(c) for c in mesh.cells]
    loop = cells[cell]
    i = next(i for i, a in enumerate(loop) if loop[(i + 1) % len(loop)] in cells[neighbour]
             and a in cells[neighbour])
    p, q = mesh.vertices[loop[i]], mesh.vertices[loop[(i + 1) % len(loop)]]
    mid = 0.5 * (p + q)
    inward = mesh.cell_vertices(cell).mean(axis=0) - mid
    along = 0.05 * (q - p)
    base_a, base_b = mid - along, mid + along
    new = np.array([base_a, base_a + 0.5 * inward, base_b + 0.5 * inward, base_b])
    ids = list(range(mesh.n_vertices, mesh.n_vertices + 4))
    loop[i + 1 : i + 1] = ids
    other = cells[neighbour]
    j = other.index(loop[(i + 5) % len(loop)])
    other[j + 1 : j + 1] = ids[::-1]
    return PolyMesh(np.vstack([mesh.vertices, new]), cells)


class TestStarCenters:
    """The solve's star centers come from one LP per chunk of new shapes."""

    @staticmethod
    def standalone(mesh, c):
        geom = ElementGeometry(mesh.cell_vertices(c), 2, 2, cell=c)
        return geom.star_center, geom.kernel_radius, geom.h

    @pytest.mark.parametrize("n_cells", [64, 256])
    def test_stacked_centers_match_standalone(self, n_cells):
        mesh = shared_mesh(generate_voronoi, n_cells, lloyd_iters=100, seed=3)
        res = solve_problem(mesh, problem_smooth(), 1, ell=1)
        for c, space in enumerate(res.spaces):
            center, radius, h = self.standalone(mesh, c)
            assert np.abs(space.geom.star_center - center).max() <= 1e-12 * h, c
            assert abs(space.geom.kernel_radius - radius) <= 1e-12 * h, c

    @pytest.mark.parametrize("family", ["t1", "t2"])
    def test_translated_shapes_bit_identical(self, family):
        mesh = generate_mesh(family, 4)
        res = solve_problem(mesh, problem_smooth(), 1, ell=1)
        shapes = {space.geom.cell: space.geom for space in res.spaces}
        assert len(shapes) == (1 if family == "t1" else 2)
        for c, geom in shapes.items():
            center, radius, _ = self.standalone(mesh, c)
            assert np.array_equal(geom.star_center, center), c
            assert geom.kernel_radius == radius, c

    def test_failed_lp_names_lowest_cell_of_its_chunk(self, monkeypatch):
        import vemsupg.geometry as geometry

        def infeasible(*args, **kwargs):
            return SimpleNamespace(success=False, message="The problem is infeasible.")

        monkeypatch.setattr(geometry, "linprog", infeasible)
        polys = [generate_mesh("t2", 1).cell_vertices(c) for c in (0, 1)]
        with pytest.raises(ElementQualityError) as info:
            geometry.star_centers(polys, [7, 3])
        assert str(info.value) == "cell 3: Chebyshev center LP failed: The problem is infeasible."

    @pytest.mark.parametrize("bad", [[31], [40, 31]])
    def test_non_star_cell_named(self, bad):
        mesh = shared_mesh(generate_voronoi, 64, lloyd_iters=100, seed=3)
        for c in bad:
            neighbour = next(d for d in range(mesh.n_cells) if d not in bad
                             and len(set(mesh.cells[c]) & set(mesh.cells[d])) == 2)
            mesh = _slit(mesh, c, neighbour)
        for _ in range(2):  # a placement that raises is not kept
            with pytest.raises(ElementQualityError) as info:
                solve_problem(mesh, problem_smooth(), 1)
            assert str(info.value) == "cell 31: polygon is not star-shaped (empty kernel)"
            assert info.value.cell == 31
            assert "placement" not in vars(mesh)
        report = check_regularity(mesh)
        assert np.flatnonzero(np.isnan(report.rho)).tolist() == sorted(bad)
        assert np.flatnonzero(~report.star_ok).tolist() == sorted(bad)


    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_length_edge_named(self, k):
        # vertices 1 and 4 coincide: the fault is named before any division
        mesh = PolyMesh([[0, 0], [1, 0], [1, 1], [0, 1], [1, 0]], [[0, 1, 4, 2, 3]])
        with pytest.raises(ElementQualityError) as info:
            solve_problem(mesh, problem_smooth(), k)
        assert str(info.value) == "cell 0: zero-length edge"
        assert np.isnan(check_regularity(mesh).rho).all()

    def test_non_finite_vertex_named(self):
        # PolyMesh rejects the vertex, naming the lowest cell that uses it; a
        # mesh's vertices cannot change afterwards, and the star centers
        # still fault a non-finite polygon
        with pytest.raises(MeshError) as info:
            PolyMesh([[0, 0], [1, 0], [1, np.nan], [0, 1]], [[0, 1, 2, 3]])
        assert str(info.value) == "cell 0: non-finite vertex coordinates"
        two = [[0, 0], [0.5, 0], [1, 0], [1, 1], [0.5, 1], [0, 1]]
        for bad, first in ((2, 1), (4, 0)):
            verts = np.array(two, dtype=float)
            verts[bad, 0] = np.inf
            with pytest.raises(MeshError, match=f"^cell {first}: non-finite vertex coordinates$"):
                PolyMesh(verts, [[0, 1, 4, 5], [1, 2, 3, 4]])
        import vemsupg.geometry as geometry

        mesh = PolyMesh(UNIT_SQUARE.copy(), [[0, 1, 2, 3]])
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[2, 1] = np.nan
        poly = mesh.cell_vertices(0)
        poly[2, 1] = np.nan
        with pytest.raises(ElementQualityError) as info:
            geometry.star_centers([poly], [0])
        assert str(info.value) == "cell 0: non-finite vertex coordinates"

    @pytest.mark.parametrize(
        "make_mesh, n_convex",
        [(lambda: shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3), 256),
         (lambda: generate_concave_pentagons(4), 16)],
        ids=["voronoi", "pentagons"],
    )
    def test_convex_cells_are_their_own_kernel(self, make_mesh, n_convex):
        # a convex cell skips the clipping, and its center agrees with the one
        # of its clipped kernel; every other cell is still clipped
        import vemsupg.geometry as geometry

        mesh = make_mesh()
        polys = [mesh.cell_vertices(c) for c in range(mesh.n_cells)]
        kernels = [oracles.polygon_kernel_by_polygon(v) for v in polys]
        convex = [c for c, (v, kv) in enumerate(zip(polys, kernels)) if np.array_equal(kv, v)]
        assert len(convex) == n_convex
        for c in set(range(mesh.n_cells)) - set(convex):
            assert np.array_equal(kernels[c], geometry._clipped_kernel(polys[c]))
        centers, _ = geometry.star_centers(polys, list(range(mesh.n_cells)))
        clipped_kernels = [geometry._clipped_kernel(polys[c]) for c in convex]
        clipped, _ = geometry.chebyshev_center(clipped_kernels)
        for c, center in zip(convex, clipped):
            h = geometry.polygon_diameter(polys[c])
            assert np.abs(centers[c] - center).max() <= 1e-13 * h, c

    def test_convex_shortcut_keeps_the_faults(self):
        import vemsupg.geometry as geometry

        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ElementQualityError, match="^cell 0: polygon is not star-shaped"):
            geometry.star_centers([square[::-1]], [0])
        sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13]])
        with pytest.raises(ElementQualityError, match="^cell 4: polygon kernel is degenerate"):
            geometry.star_centers([square, sliver], [3, 4])


    @pytest.mark.parametrize(
        "make_mesh",
        [lambda: shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3),
         lambda: generate_concave_pentagons(16),
         lambda: generate_mesh("t1", 32),
         lambda: generate_voronoi(256, lloyd_iters=20, seed=1)],
        ids=["voronoi_auto", "pentagon_layers", "cart_layer_conv", "lloyd20-seed1"],
    )
    def test_placement_matches_per_polygon_oracle(self, make_mesh):
        # the benchmark meshes and one of mixed vertex counts, placed in
        # arrays, give the per-polygon centers and radii bit for bit
        import vemsupg.geometry as geometry

        mesh = make_mesh()
        polys = [mesh.cell_vertices(c) for c in range(mesh.n_cells)]
        centers, radii, faults = geometry.kernel_balls(polys)
        want_centers, want_radii, want_faults = kernel_balls_by_polygon(polys)
        assert np.array_equal(centers, want_centers)
        assert np.array_equal(radii, want_radii)
        assert faults == want_faults == {}

    def test_faults_and_chunks_match_per_polygon_oracle(self, monkeypatch):
        # three chunks of kernels from polygons of four to eight vertices,
        # with every fault kind inside chunks and next to their boundaries:
        # the same chunks, centers, radii and faults as the per-polygon loop
        import vemsupg.geometry as geometry
        from vemsupg.assemble import CHUNK

        voronoi = generate_voronoi(100, lloyd_iters=20, seed=1)
        verts = voronoi.vertices.copy()
        verts[voronoi.cells[40][0]] = np.nan  # past the mesh's own checks
        pentagons = generate_concave_pentagons(4)  # every other cell is clipped
        polys = ([verts[cell] for cell in voronoi.cells]
                 + [pentagons.cell_vertices(c) for c in range(pentagons.n_cells)])
        sliver = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13]])
        faulty = {
            0: np.array(UNIT_SQUARE, dtype=float)[::-1],  # clockwise: empty kernel
            CHUNK - 1: np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], dtype=float),
            CHUNK: sliver,
            CHUNK + 2: np.array([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]],
                                dtype=float),  # U shape: empty kernel
            2 * CHUNK + 3: sliver,
        }
        for at in sorted(faulty):
            polys.insert(at, faulty[at])
        assert len(polys) > 2 * CHUNK

        def recording(center, sizes):
            return lambda kernels: sizes.append(len(kernels)) or center(kernels)

        sizes, want_sizes = [], []
        monkeypatch.setattr(geometry, "chebyshev_center",
                            recording(geometry.chebyshev_center, sizes))
        centers, radii, faults = geometry.kernel_balls(polys)
        want_centers, want_radii, want_faults = kernel_balls_by_polygon(
            polys, recording(chebyshev_center_by_block_diag, want_sizes)
        )
        assert sizes == want_sizes and len(sizes) == 3
        assert np.array_equal(centers, want_centers, equal_nan=True)
        assert np.array_equal(radii, want_radii, equal_nan=True)
        assert faults == want_faults
        assert set(faults.values()) == {
            "non-finite vertex coordinates", "zero-length edge", "polygon kernel is degenerate",
            "polygon is not star-shaped (empty kernel)",
        }
        cells = np.random.default_rng(2).permutation(len(polys)) + 10
        lowest = min(faults, key=lambda i: cells[i])
        with pytest.raises(ElementQualityError) as info:
            geometry.star_centers(polys, cells.tolist())
        assert info.value.cell == cells[lowest]
        assert str(info.value) == f"cell {cells[lowest]}: {faults[lowest]}"


def _locate_by_scan(res, pt):
    """The original point location: every cell, then every fan triangle."""
    for c in range(res.mesh.n_cells):
        verts = res.mesh.cell_vertices(c)
        d = np.roll(verts, -1, axis=0) - verts
        rel = pt - verts
        if np.all(d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0] >= -1e-12):
            return c
    for c, (space, shift) in enumerate(zip(res.spaces, res.spaces.shift)):
        for a, b, cc in space.geom.triangles + shift:
            s1 = (b - a)[0] * (pt - a)[1] - (b - a)[1] * (pt - a)[0]
            s2 = (cc - b)[0] * (pt - b)[1] - (cc - b)[1] * (pt - b)[0]
            s3 = (a - cc)[0] * (pt - cc)[1] - (a - cc)[1] * (pt - cc)[0]
            if min(s1, s2, s3) >= -1e-12:
                return c
    return None


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: generate_concave_pentagons(4),
        lambda: generate_voronoi(64, lloyd_iters=20, seed=2),
    ],
    ids=["t2", "t3"],
)
def test_sample_location_matches_scan(make_mesh):
    # bounding-box candidates give the same cell as the full scan, ties on
    # shared edges and vertices included
    mesh = make_mesh()
    res = solve_problem(mesh, problem_smooth(), 1, ell="auto")
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 17)
    edges = np.array(mesh.edges)
    points = np.vstack([
        rng.random((200, 2)),
        np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2),
        mesh.vertices,
        0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]]),
    ])
    want = [_locate_by_scan(res, pt) for pt in points]
    np.testing.assert_array_equal(mesh.locate(points), want)
    with pytest.raises(ValueError, match="outside"):
        res.sample([[1.5, 0.5]])


@pytest.mark.parametrize("case", ["t2-16", "voronoi_auto"])
def test_bucket_location_matches_box_search(case):
    # testing each point against its own bucket's cells only finds the cells
    # the all-pairs box search finds, ties on shared edges and vertices
    # included, also for points exactly on the bucket grid's lines
    mesh = (generate_concave_pentagons(16) if case == "t2-16"
            else shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3))
    res = solve_problem(mesh, problem_test2(), 1, ell="auto")
    rng = np.random.default_rng(7)
    edges = np.array(mesh.edges)
    lo, hi = mesh.locate_table.lo, mesh.locate_table.hi
    # the grid's lines, as box_buckets draws them: sqrt(n) buckets a side over the boxes
    n = int(np.sqrt(mesh.n_cells))
    lines = lo.min(axis=0) + np.arange(n + 1)[:, None] * (hi.max(axis=0) - lo.min(axis=0)) / n
    on_lines = np.vstack([
        np.stack(np.meshgrid(lines[:, 0], lines[:, 1]), axis=-1).reshape(-1, 2),
        np.column_stack([lines[:, 0], rng.random(n + 1)]),
        np.column_stack([rng.random(n + 1), lines[:, 1]]),
    ])
    on_lines = on_lines[((on_lines >= 0.0) & (on_lines <= 1.0)).all(axis=1)]
    assert len(on_lines) > 3 * (n - 1)
    corners = np.vstack([lo, hi])  # on the boundary of the box test
    for points in (
        rng.random((2200, 2)),
        mesh.vertices,
        0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]]),
        on_lines,
        corners[((corners >= 0.0) & (corners <= 1.0)).all(axis=1)],
    ):
        np.testing.assert_array_equal(mesh.locate(points), oracles.locate_by_boxes(res, points))


@pytest.mark.parametrize("case", ["one-cell", "strip-64x1", "far-apart"])
def test_bucket_location_on_small_and_sparse_meshes(case):
    # one bucket, a grid much wider than the strip's cells are tall, and two
    # squares 1e6 apart with an empty grid between them
    pair = np.array([[0.1, 0.1], [0.8, 0.1], [0.8, 0.8], [0.1, 0.8]])
    mesh = {"one-cell": lambda: generate_cartesian(1, 1),
            "strip-64x1": lambda: generate_cartesian(64, 1),
            "far-apart": lambda: PolyMesh(np.vstack([pair, pair + 1e6]),
                                          [[0, 1, 2, 3], [4, 5, 6, 7]])}[case]()
    res = solve_problem(mesh, problem_smooth(), 1, ell="auto")
    rng = np.random.default_rng(8)
    per_cell = [v.min(axis=0) + rng.random((50, 2)) * np.ptp(v, axis=0)
                for v in map(mesh.cell_vertices, range(mesh.n_cells))]
    points = np.vstack([mesh.vertices, *per_cell])
    np.testing.assert_array_equal(mesh.locate(points), oracles.locate_by_boxes(res, points))
    if case == "far-apart":
        gap = np.array([[0.5, 0.5], [5e5, 5e5]])
        for locate in (mesh.locate, lambda pts: oracles.locate_by_boxes(res, pts)):
            with pytest.raises(ValueError) as info:
                locate(gap)
            assert str(info.value) == "point [500000. 500000.] is outside the mesh"


def test_post_processing_tables_built_once_per_mesh(monkeypatch, tmp_path):
    # three solves on one mesh share its point-location table and its VTK
    # geometry lines: each is built by the first sample or export and kept,
    # and the location arrays are read-only
    import vemsupg.mesh as mesh_module
    from vemsupg.assemble import export_vtk

    builds = {"box_buckets": 0, "format_vtk_geometry": 0}
    for name in builds:
        real = getattr(mesh_module, name)

        def counted(*args, name=name, real=real):
            builds[name] += 1
            return real(*args)

        monkeypatch.setattr(mesh_module, name, counted)
    mesh = generate_concave_pentagons(4)
    points = np.random.default_rng(6).random((100, 2))
    results = [solve_problem(mesh, problem_test2(), k, ell="auto") for k in (1, 2, 3)]
    for k, res in zip((1, 2, 3), results):
        res.sample(points)
        export_vtk(res.solution, mesh, tmp_path / f"k{k}.vtk")
    assert builds == {"box_buckets": 1, "format_vtk_geometry": 1}
    table = mesh.locate_table
    for array in (table.fans, table.lo, table.hi, table.starts, table.boxes):
        assert not array.flags.writeable
    assert isinstance(mesh.vtk_geometry, tuple)
    assert mesh.vtk_geometry[0] == f"POINTS {mesh.n_vertices} double"


@pytest.mark.parametrize("family", ["t1", "t2", "t3"])
def test_mesh_fans_are_the_spaces_triangles(family):
    # the mesh builds each cell's fan as its stack's geometry builds the
    # triangles of the shape's first cell, then moves it by the cell's shift:
    # bit for bit the triangles a solve's spaces hold, at every order
    mesh = {"t1": lambda: generate_mesh("t1", 6), "t2": lambda: generate_mesh("t2", 4),
            "t3": lambda: shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3)}[family]()
    fans = mesh.locate_table.fans
    width = int(mesh.cell_sizes.max())
    for k in (1, 3):
        spaces = solve_problem(mesh, problem_smooth(), k, ell="auto").spaces
        for stack, rows, cells in spaces.chunks:
            want = stack.geom.triangles[rows] + spaces.shift[cells][:, None, None]
            assert np.array_equal(fans[cells], want[:, np.arange(width) % stack.geom.n_vertices])


def test_post_processing_batched_by_stack(monkeypatch):
    # every cell of this mesh is its own shape, and the 16 shapes fill a few
    # stacks: the energy error evaluates the monomials once per stack, and
    # sample once per chunk of CHUNK points on one stack, each point's value
    # bit for bit the one its cell's own view gives
    import importlib

    import vemsupg.harness as harness
    from vemsupg.assemble import CHUNK
    from vemsupg.basis import eval_basis

    res = solve_problem(generate_voronoi(16, lloyd_iters=20, seed=1), problem_smooth(), 2)
    stacks = [id(space.stack) for space in res.spaces]
    assert len(set(stacks)) < 16
    calls = []
    for module in (importlib.import_module("vemsupg.assemble"), harness):
        monkeypatch.setattr(module, "eval_basis",
                            lambda *args: calls.append(1) or eval_basis(*args))
    res.error(problem_smooth())
    assert len(calls) == len(set(stacks))
    points = np.random.default_rng(1).random((200, 2))
    cells = res.mesh.locate(points)
    calls.clear()
    values = res.sample(points)
    per_stack = np.unique([stacks[c] for c in cells], return_counts=True)[1]
    assert len(calls) == sum(-(-per_stack // CHUNK))
    want = [np.sum(res.solution.reconstructions[c]
                   * eval_basis(res.spaces[c].basis_k, (p - res.spaces.shift[c])[None])[:, 0])
            for p, c in zip(points, cells)]
    np.testing.assert_array_equal(values, want)


@pytest.mark.parametrize("ell, method", [("auto", "sf"), ("auto", "vem"), (2, "sf")],
                         ids=["auto-sf", "vem", "fixed-sf"])
@pytest.mark.parametrize("family", ["t1", "t2", "t3"])
def test_table_chunks_match_view_chunker(family, ell, method, monkeypatch):
    # the cell table's chunks, and those sample makes of its points, are the
    # view-list chunker's: the same stack objects, the same rows (type and
    # value) and the same cells; t1 fills three chunks of one member's
    # translates, t2 gathers two members' rows, then one member's, and t3
    # takes whole stacks
    import vemsupg.harness as harness
    from vemsupg.assemble import CHUNK

    def same(got, want):
        assert len(got) == len(want) > 0
        for (stack, rows, cells), (stack0, rows0, cells0) in zip(got, want):
            assert stack is stack0
            assert type(rows) is type(rows0)
            assert (rows == rows0 if isinstance(rows, slice) else np.array_equal(rows, rows0))
            assert cells.dtype == cells0.dtype and np.array_equal(cells, cells0)

    mesh = {"t1": lambda: generate_mesh("t1", 12), "t2": lambda: generate_mesh("t2", 6),
            "t3": lambda: generate_voronoi(40, lloyd_iters=20, seed=1)}[family]()
    res = solve_problem(mesh, problem_smooth(), 1, ell=ell, method=method)
    table = res.spaces
    same(table.chunks, list(oracles.stack_chunks([table[c] for c in range(len(table))])))
    kinds = {type(rows) for _, rows, _ in table.chunks}
    assert {"t1": {np.int64}, "t2": {np.ndarray, np.int64}, "t3": {slice}}[family] <= kinds
    if family == "t1":
        assert [len(cells) for _, _, cells in table.chunks] == [CHUNK, CHUNK, 144 - 2 * CHUNK]
    made = []
    real = harness.CellSpaces

    class Recorded(real):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(harness, "CellSpaces", Recorded)
    points = np.random.default_rng(4).random((500, 2))
    res.sample(points)
    [points_table] = made
    cells = res.mesh.locate(points)
    same(points_table.chunks, list(oracles.stack_chunks([table[c] for c in cells])))


@pytest.mark.parametrize("points", [[[0.5], [0.2]], [[0.5, 0.2, 0.1]], [0.5], 0.5, [[[0.5, 0.2]]]],
                         ids=["n-by-1", "n-by-3", "1-vector", "scalar", "3d"])
def test_sample_takes_only_n_by_2_points(points):
    # an (n, 1) array once broadcast against the (n, 2) shifts and sampled
    # the diagonal; an (n, 3) one died in numpy's broadcasting
    res = solve_problem(generate_mesh("t1", 2), problem_smooth(), 1, ell=1)
    shape = np.shape(points)
    with pytest.raises(ValueError, match=re.escape(
            f"points must be (n, 2) or one 2-vector, not shape {shape}")):
        res.sample(points)
    one = res.sample([0.3, 0.6])
    assert one.shape == (1,) and one[0] == res.sample([[0.3, 0.6]])[0]
    assert res.sample(np.empty((0, 2))).shape == (0,)


def _one_cell(vertices, cell):
    return PolyMesh(np.array(vertices, dtype=float), [cell])


SWEEP_MESHES = {
    "t3-16-seed0": lambda: shared_mesh(generate_mesh, "t3", 16, seed=0),
    "voronoi256-lloyd100-seed3": lambda: shared_mesh(generate_voronoi, 256, lloyd_iters=100, seed=3),
    "voronoi256-lloyd20-seed3": lambda: shared_mesh(generate_voronoi, 256, lloyd_iters=20, seed=3),
    "voronoi64-lloyd20-seed1": lambda: shared_mesh(generate_voronoi, 64, lloyd_iters=20, seed=1),
    "pentagons8": lambda: generate_concave_pentagons(8),
    "t1-8": lambda: generate_mesh("t1", 8),
    "clockwise": lambda: _one_cell(UNIT_SQUARE, [0, 3, 2, 1]),
    "repeated-index": lambda: _one_cell([*UNIT_SQUARE, [0.5, 0.5]], [0, 1, 2, 0, 3]),
    "thin": lambda: _one_cell([[0, 0], [1, 0], [1, 1e-9], [0, 1e-9]], [0, 1, 2, 3]),
    "coincident": lambda: _one_cell([*UNIT_SQUARE, [1, 0]], [0, 1, 4, 2, 3]),
    "nan-vertex": lambda: _one_cell([[0, 0], [1, 0], [1, np.nan], [0, 1]], [0, 1, 2, 3]),
    # the left cell has a 180-degree vertex at 6, where the two right cells meet
    "hanging-node": lambda: PolyMesh(
        np.array([[0, 0], [0.5, 0], [1, 0], [0, 1], [0.5, 1], [1, 1], [0.5, 0.5], [1, 0.5]]),
        [[0, 1, 6, 4, 3], [1, 2, 7, 6], [6, 7, 5, 4]],
    ),
    "square-6-extra": lambda: _one_cell(
        [[0, 0]] + [[i / 7, 0] for i in range(1, 7)] + [[1, 0], [1, 1], [0, 1]], list(range(10))
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(SWEEP_MESHES))
def test_input_sweep(name, k):
    # every case solves or fails with a typed one-line error naming a cell,
    # and the solve leaves the caller's mesh as it was
    error = None
    try:
        mesh = SWEEP_MESHES[name]()
    except MeshError as exc:  # rejected on construction
        error = exc
    else:
        vertices, cells = mesh.vertices.copy(), [list(c) for c in mesh.cells]
        labels = dict(mesh.boundary_labels)
        try:
            solve_problem(mesh, problem_test2(), k, ell="auto")
        except (MeshError, ElementQualityError, ProbeError, SolveError) as exc:
            error = exc
        assert np.array_equal(mesh.vertices, vertices, equal_nan=True)
        assert [c.tolist() for c in mesh.cells] == cells and mesh.boundary_labels == labels
    if error is not None:
        assert re.match(r"cell \d+: ", str(error)) and "\n" not in str(error), str(error)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "vemsupg.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_mesh_gen(self, tmp_path):
        res = self.run_cli("mesh", "gen", "--family", "t1", "--n", "3",
                           "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        from vemsupg.mesh import read_mesh

        mesh = read_mesh(tmp_path / "mesh_t1_3.json")
        assert mesh.n_cells == 9

    def test_convergence_csv_deterministic(self, tmp_path):
        outs = [str(tmp_path / d) for d in ("x", "y")]
        for out in outs:
            res = self.run_cli(
                "convergence", "--problem", "smooth", "--family", "t1",
                "--k", "1", "--ell", "1", "--refinements", "4,8", "--out", out,
            )
            assert res.returncode == 0, res.stderr
        a, b = (pathlib.Path(out, "convergence.csv").read_bytes() for out in outs)
        assert a == b

    def test_solve_command(self, tmp_path):
        res = self.run_cli(
            "solve", "--problem", "smooth", "--family", "t1", "--k", "1",
            "--n", "4", "--out", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        assert "solve: n=" in res.stdout
        assert "field: min=" in res.stdout

    @pytest.mark.parametrize(
        "args, status, message",
        [
            (["solve", "--family", "t3", "--n", "8", "--k", "3", "--lloyd", "20",
              "--seed", "1", "--problem", "test2"], 1, "vemsupg: error: cell 6: "),
            (["solve", "--ell", "abc"], 2, "argument --ell"),
            (["solve", "--ell", "-1"], 2, "argument --ell"),
            (["solve", "--k", "5"], 2, "argument --k"),
            (["convergence", "--problem", "test2", "--refinements", "4,8"], 1,
             "vemsupg: error: problem 'test2' has no exact solution"),
            (["convergence", "--refinements", "8,4"], 1,
             "vemsupg: error: refinement schedule must strictly decrease h"),
            (["mesh", "gen", "--family", "t3", "--n", "4", "--lloyd", "-5"], 1,
             "vemsupg: error: lloyd_iters must be non-negative, got -5"),
            (["solve", "--family", "t3", "--n", "-3"], 1,
             "vemsupg: error: mesh size n must be at least 1, got -3"),
            (["solve", "--family", "t3", "--n", "4", "--lloyd", "20", "--seed", "1",
              "--ell", "4:1,5:1,6:1"], 1,
             "vemsupg: error: ell has no increment for 7-vertex cells (the first is cell 5)"),
        ],
        ids=["probe-cap", "ell-abc", "ell-negative", "k-5", "conv-no-exact",
             "conv-coarsening", "lloyd-negative", "t3-n-negative", "ell-dict-missing-count"],
    )
    def test_errors_are_one_line(self, tmp_path, args, status, message):
        res = self.run_cli(*args, "--out", str(tmp_path))
        assert res.returncode == status
        assert "Traceback" not in res.stderr
        if status == 1:
            assert len(res.stderr.splitlines()) == 1
        assert message in res.stderr.splitlines()[-1]

    @pytest.mark.parametrize(
        "args",
        [
            ["mesh", "gen", "--family", "t1", "--n", "2"],
            ["solve", "--family", "t1", "--n", "2"],
        ],
        ids=["mesh-gen", "solve"],
    )
    def test_unwritable_out_is_one_line(self, tmp_path, args):
        # --out below a regular file: the output directory cannot be made
        # (probe and convergence make it on the same line as solve)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "sub")
        res = self.run_cli(*args, "--out", out)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        [line] = res.stderr.splitlines()
        assert line.startswith("vemsupg: error: ") and out in line

    def test_probe_all_families(self, tmp_path):
        res = self.run_cli("probe", "--all-families", "--k", "1", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        head = res.stdout.splitlines()[0].split()
        assert {col.split(":")[0] for col in head[1:]} == {"t1", "t2", "t3"}

    def test_probe_command(self, tmp_path):
        res = self.run_cli("probe", "--family", "t1", "--k", "2",
                           "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "t1:N_V=4" in res.stdout
        assert (tmp_path / "probe_table.csv").exists()
