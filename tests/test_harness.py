import itertools
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import swirl_problem
from vemsupg.assemble import DofMap, apply_dirichlet, assemble, solve
from vemsupg.forms import (
    baseline_vem_forms,
    element_coefficients,
    probe_min_ell,
    rank_bound_ell,
    sf_forms,
)
from vemsupg.errors import ElementQualityError
from vemsupg.geometry import ElementGeometry
from vemsupg.harness import (
    ConvergenceReport,
    ExperimentConfig,
    ShapeTable,
    format_probe_table,
    generate_mesh,
    probe_table,
    run_convergence,
    run_field,
    solve_problem,
)
from vemsupg.mesh import PolyMesh, check_regularity, generate_concave_pentagons, generate_voronoi
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
        # geometry exact to the cap
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
                coef = element_coefficients(geom, problem, k)
                build = sf_forms if method == "sf" else baseline_vem_forms
                lf = build(geom, space, coef, problem)
                blocks.append((np.array([c]), lf.full[None], lf.rhs[None]))
            dofmap = DofMap(mesh, k)
            system = apply_dirichlet(assemble(dofmap, blocks), problem)
            direct = solve(system).dofs
            assert res.solution.dofs == pytest.approx(direct, rel=1e-11), (
                k, name, problem.name, method,
            )

    def test_shape_table_builds_once_per_shape(self, monkeypatch):
        # one kernel LP for the shapes of a chunk (all of them here), its
        # centers shared by every geometry of the shape,
        # one inverse-inequality constant per shape and order, and one
        # geometry and space per probed trial ell = start..ell of each shape,
        # where start is the rank bound: the solve keeps the accepted trial
        # instead of building it again
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

        def trials(mesh, cells, ell):
            starts = [rank_bound_ell(dof_layout(len(mesh.cells[c]), 2).n_dofs, 2)
                      for c in cells]
            return int(np.sum(ell[cells] - starts + 1))

        voronoi = generate_voronoi(16, lloyd_iters=20, seed=1)
        res = solve_problem(voronoi, problem_smooth(), 2, ell="auto")
        built = trials(voronoi, np.arange(16), res.solution.ell)
        assert built == 16  # 34 spaces when every probe starts at ell = 0
        assert calls == {"lp": 1, "c_tilde": 16, "geometry": built, "space": built}
        pentagons = generate_mesh("t2", 4)
        table = ShapeTable()
        table.place(pentagons, range(pentagons.n_cells))
        firsts = np.array([shape.cell for shape in table.shapes.values()])
        calls.update(dict.fromkeys(calls, 0))
        res = solve_problem(pentagons, problem_smooth(), 2, ell="auto")
        assert sorted(set(res.solution.ell.tolist())) == [1]  # both shapes
        built = trials(pentagons, firsts, res.solution.ell)
        assert built == 2  # 4 from ell = 0
        assert calls == {"lp": 1, "c_tilde": 2, "geometry": built, "space": built}

    def test_monomials_evaluated_once_per_point_set(self, monkeypatch):
        # a space evaluates its degree k+ell monomials at the volume points
        # (its mass matrix) and at the edge points, and its P_k monomials at
        # the DOF nodes; every lower degree reads leading blocks of those.
        # Each ShapeForms evaluates once more, at the volume points, and
        # tilde_c_k reads the space's mass matrix.  Both meshes build one
        # space per shape at k = 2 (see above), so a solve makes 3 + 1 calls
        # per shape
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
        assert calls[0] == 4 * 16  # 208 when each projector evaluated its own
        calls[0] = 0
        solve_problem(generate_mesh("t2", 4), problem_smooth(), 2, ell="auto")
        assert calls[0] == 4 * 2  # 26 when each projector evaluated its own

    @pytest.mark.parametrize("ell", [1.7, True, -1, {4: 1.5}, {4: -1}, None, "1"])
    def test_bad_ell_rejected_before_elements(self, ell, monkeypatch):
        import vemsupg.harness as harness

        def no_geometry(*args, **kwargs):
            raise AssertionError("element built before the ell check")

        monkeypatch.setattr(harness, "ElementGeometry", no_geometry)
        with pytest.raises(ValueError, match="^ell must be") as info:
            solve_problem(generate_mesh("t1", 2), problem_smooth(), 1, ell=ell)
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
        monkeypatch.setattr(harness.Shape, "probe", fail)
        cfg = ExperimentConfig(family="t1", refinements=(2,), out_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="solve failed"):
            run(cfg)
        assert len(logs) == 1 and logs[0]._fh.closed
        assert (tmp_path / "run.log").read_text().startswith("config: ")

    def test_cells_are_shape_placements(self, monkeypatch):
        # each cell is its shape's space plus a shift: translates share one
        # space object, and a solve builds no per-cell basis
        import vemsupg.basis as basis

        meshes = {
            "t1": generate_mesh("t1", 3),
            "t2": generate_mesh("t2", 4),
            "t3": generate_voronoi(16, lloyd_iters=20, seed=1),
        }
        for name, mesh in meshes.items():
            res = solve_problem(mesh, problem_smooth(), 2, ell="auto")
            assert res.shifts.shape == (mesh.n_cells, 2)
            for c in range(mesh.n_cells):
                placed = res.spaces[c].geom.vertices + res.shifts[c]
                assert np.abs(placed - mesh.cell_vertices(c)).max() <= 1e-14, (name, c)
            distinct = {id(space) for space in res.spaces}
            assert len(distinct) == {"t1": 1, "t2": 2, "t3": 16}[name], name
        assert np.all(res.shifts == 0.0)  # Voronoi cells are shapes of their own

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
        # test2 re-tags the boundary for its inflow data on a copy
        mesh = generate_mesh("t2", 2)
        before = dict(mesh.boundary_labels)
        res = solve_problem(mesh, problem_test2(), 1, ell="auto")
        assert mesh.boundary_labels == before
        assert set(res.mesh.boundary_labels.values()) == {"inflow1", "rest"}

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

        def no_geometry(*args, **kwargs):
            raise AssertionError("element built before the ell check")

        monkeypatch.setattr(harness, "ElementGeometry", no_geometry)
        monkeypatch.setattr(harness, "star_centers", no_geometry)
        mesh = generate_mesh(family, 2 if family == "t2" else 4, seed=1, lloyd_iters=20)
        for solve_or_build in (
            lambda: solve_problem(mesh, problem_smooth(), 1, ell=ell),
            lambda: harness.build_element(mesh, 0, 1, ell, ShapeTable()),
        ):
            with pytest.raises(ValueError) as info:
                solve_or_build()
            assert str(info.value) == f"ell has no increment for {message}"


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
    return PolyMesh(np.vstack([mesh.vertices, new]), cells, check_simple=True)


class TestStarCenters:
    """The solve's star centers come from one LP per chunk of new shapes."""

    @staticmethod
    def standalone(mesh, c):
        geom = ElementGeometry(mesh.cell_vertices(c), 2, 2, cell=c)
        return geom.star_center, geom.kernel_radius, geom.h

    @pytest.mark.parametrize("n_cells", [64, 256])
    def test_stacked_centers_match_standalone(self, n_cells):
        mesh = generate_voronoi(n_cells, lloyd_iters=100, seed=3)
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
        mesh = generate_voronoi(64, lloyd_iters=100, seed=3)
        for c in bad:
            neighbour = next(d for d in range(mesh.n_cells) if d not in bad
                             and len(set(mesh.cells[c]) & set(mesh.cells[d])) == 2)
            mesh = _slit(mesh, c, neighbour)
        with pytest.raises(ElementQualityError) as info:
            solve_problem(mesh, problem_smooth(), 1)
        assert str(info.value) == "cell 31: polygon is not star-shaped (empty kernel)"
        assert info.value.cell == 31
        report = check_regularity(mesh)
        assert np.flatnonzero(np.isnan(report.rho)).tolist() == sorted(bad)
        assert np.flatnonzero(~report.star_ok).tolist() == sorted(bad)


def _locate_by_scan(res, pt):
    """The original point location: every cell, then every fan triangle."""
    for c in range(res.mesh.n_cells):
        verts = res.mesh.cell_vertices(c)
        d = np.roll(verts, -1, axis=0) - verts
        rel = pt - verts
        if np.all(d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0] >= -1e-12):
            return c
    for c, (space, shift) in enumerate(zip(res.spaces, res.shifts)):
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
    np.testing.assert_array_equal(res._locate(points), want)
    with pytest.raises(ValueError, match="outside"):
        res.sample([[1.5, 0.5]])


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

    def test_probe_command(self, tmp_path):
        res = self.run_cli("probe", "--family", "t1", "--k", "2",
                           "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "t1:N_V=4" in res.stdout
        assert (tmp_path / "probe_table.csv").exists()
