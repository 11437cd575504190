import json
import re

import numpy as np
import pytest

from conftest import shared_mesh
from oracles import (
    clipped_voronoi_by_cell,
    generate_voronoi_by_cell,
    polygon_centroid,
    polygon_is_simple_by_pair,
    topology_by_edge,
)
from vemsupg.errors import MeshError, MeshFormatError, ElementQualityError
from vemsupg.geometry import polygon_is_simple, polygon_signed_area, star_centers
from vemsupg.mesh import (
    PolyMesh,
    _clipped_voronoi,
    _loop_centroids,
    check_regularity,
    generate_cartesian,
    generate_concave_pentagons,
    generate_voronoi,
    read_mesh,
    write_mesh,
)


class TestCartesian:
    def test_2x2(self):
        mesh = generate_cartesian(2, 2)
        assert mesh.n_cells == 4
        assert mesh.n_vertices == 9
        assert mesh.cell_areas == pytest.approx(np.full(4, 0.25), rel=1e-15)

    def test_1x1_identity(self):
        mesh = generate_cartesian(1, 1)
        assert mesh.n_cells == 1
        assert mesh.max_diameter() == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_16x16_uniform_regularity(self):
        mesh = generate_cartesian(16, 16)
        assert mesh.n_cells == 256
        rep = check_regularity(mesh)
        assert np.ptp(rep.rho_ratio) < 1e-12
        assert np.ptp(rep.edge_ratio) < 1e-12

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            generate_cartesian(0, 3)

    def test_cell_topology_is_read_only(self):
        # placement and DOF maps are derived from the cells once, so on a
        # solved grid neither rotating a cell's loop nor writing into it nor
        # into its edges gets past the write
        from vemsupg.harness import solve_problem
        from vemsupg.problems import problem_smooth

        m = generate_cartesian(2, 2)
        solve_problem(m, problem_smooth(), 1, ell=1)
        loop = m.cells[0].tolist()
        with pytest.raises(TypeError):
            m.cells[0] = loop[1:] + loop[:1]
        with pytest.raises(ValueError, match="read-only"):
            m.cells[0][:] = loop[1:] + loop[:1]
        with pytest.raises(ValueError, match="read-only"):
            m.cells[0][0] = loop[1]
        with pytest.raises(ValueError, match="read-only"):
            m.cell_edges[0][0, 1] = 0
        with pytest.raises(ValueError, match="read-only"):
            m.cell_sizes[0] = 3
        with pytest.raises(ValueError, match="read-only"):
            m.edges[0] = (1, 0)
        with pytest.raises(TypeError):
            m.boundary_edges[0] = (0, 0)
        assert m.cells[0].tolist() == loop
        assert np.array_equal(m.cell_vertices(0), m.vertices[loop])


class TestPentagons:
    def test_n1_reflex(self):
        mesh = generate_concave_pentagons(1)
        assert mesh.n_cells == 2
        assert all(len(c) == 5 for c in mesh.cells)

        def has_reflex(poly):
            n = len(poly)
            for i in range(n):
                u = poly[(i + 1) % n] - poly[i]
                w = poly[(i + 2) % n] - poly[(i + 1) % n]
                if u[0] * w[1] - u[1] * w[0] < 0:
                    return True
            return False

        reflex = [has_reflex(mesh.cell_vertices(c)) for c in range(2)]
        assert reflex == [False, True]

    def test_tiling(self):
        mesh = generate_concave_pentagons(2)
        assert mesh.n_cells == 8
        assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-12)

    def test_refinement_halves_h(self):
        h4 = generate_concave_pentagons(4).max_diameter()
        h8 = generate_concave_pentagons(8).max_diameter()
        assert h4 / h8 == pytest.approx(2.0, abs=1e-12)


class TestVoronoi:
    def test_area_and_convexity(self):
        mesh = generate_voronoi(16, lloyd_iters=50, seed=42)
        assert mesh.n_cells == 16
        assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-10)
        for c in range(mesh.n_cells):
            poly = mesh.cell_vertices(c)
            n = len(poly)
            for i in range(n):
                u = poly[(i + 1) % n] - poly[i]
                w = poly[(i + 2) % n] - poly[(i + 1) % n]
                assert u[0] * w[1] - u[1] * w[0] > -1e-12 * mesh.max_diameter() ** 2

    def test_deterministic(self):
        a = generate_voronoi(16, lloyd_iters=50, seed=42)
        b = generate_voronoi(16, lloyd_iters=50, seed=42)
        assert np.array_equal(a.vertices, b.vertices)
        assert [c.tolist() for c in a.cells] == [c.tolist() for c in b.cells]
        assert a.boundary_labels == b.boundary_labels

    def test_shared_mesh_is_a_read_only_build(self):
        # the tests' session cache hands out the generator's own mesh, once
        # per binding of its parameters, with arrays nobody can write into
        mesh = shared_mesh(generate_voronoi, 16, lloyd_iters=20, seed=1)
        assert shared_mesh(generate_voronoi, 16, 20, 1) is mesh
        assert shared_mesh(generate_voronoi, 16, lloyd_iters=20, seed=2) is not mesh
        fresh = generate_voronoi(16, lloyd_iters=20, seed=1)
        assert np.array_equal(mesh.vertices, fresh.vertices)
        assert np.array_equal(mesh.cell_areas, fresh.cell_areas)
        assert [c.tolist() for c in mesh.cells] == [c.tolist() for c in fresh.cells]
        assert mesh.boundary_labels == fresh.boundary_labels
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            mesh.cell_areas[0] = 0.5

    def test_mesh_keeps_a_read_only_copy_of_the_vertices(self):
        # the placement is derived once per mesh, so its vertices cannot
        # change; the caller's array stays as it was, and writeable
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = PolyMesh(verts, [[0, 1, 2, 3]])
        assert verts.flags.writeable and not mesh.vertices.flags.writeable
        assert not np.shares_memory(verts, mesh.vertices)
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0, 0] = 0.5
        verts[0, 0] = 0.5
        assert mesh.vertices[0, 0] == 0.0

    def test_histogram_relaxed(self):
        mesh = generate_voronoi(100, lloyd_iters=100, seed=7)
        hist = mesh.vertex_count_histogram()
        assert set(hist) <= set(range(3, 10))
        mode = max(hist, key=hist.get)
        assert mode in (5, 6)

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            generate_voronoi(1)

    def test_rejects_negative_lloyd(self):
        with pytest.raises(ValueError, match="lloyd_iters must be non-negative"):
            generate_voronoi(16, lloyd_iters=-5)

    @pytest.mark.parametrize(
        "n_cells, lloyd_iters, seed",
        [(64, 100, 3), (64, 20, 1), (25, 100, 3), (16, 50, 42), (256, 100, 3)],
    )
    def test_matches_cell_loop(self, n_cells, lloyd_iters, seed):
        mesh = generate_voronoi(n_cells, lloyd_iters=lloyd_iters, seed=seed)
        ref = generate_voronoi_by_cell(n_cells, lloyd_iters=lloyd_iters, seed=seed)
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert [c.tolist() for c in mesh.cells] == [c.tolist() for c in ref.cells]

    def test_stacked_centroids_bitwise(self):
        # the first Lloyd step of the 256-cell seed-3 mesh has 8-10 vertex
        # cells, where np.sum switches from sequential to pairwise sums
        sites = np.random.default_rng(3).random((256, 2))
        loops, starts, verts = _clipped_voronoi(sites)
        cells = np.split(loops, starts[1:])
        assert [c.tolist() for c in cells] == clipped_voronoi_by_cell(sites)[0]
        assert sum(len(c) >= 8 for c in cells) == 22
        ref = np.array([polygon_centroid(verts[c]) for c in cells])
        assert np.array_equal(_loop_centroids(loops, starts, verts), ref)

    def test_unbounded_region_names_lowest_site(self):
        sites = np.array([[0.2, 0.3], [0.5, 3.0], [0.7, 0.6], [3.0, 0.5]])
        with pytest.raises(MeshError, match="^site 1: unbounded Voronoi region"):
            _clipped_voronoi(sites)


class TestRegularity:
    def test_unit_square_ratio(self):
        mesh = generate_cartesian(1, 1)
        rep = check_regularity(mesh)
        assert rep.rho_ratio[0] == pytest.approx(0.5 / np.sqrt(2.0), rel=1e-9)
        assert rep.star_ok.all()
        assert 0 < rep.regularity_constant <= 1

    def test_concave_pentagon_kernel(self):
        mesh = generate_concave_pentagons(1)
        rep = check_regularity(mesh)
        assert rep.star_ok.all()
        assert np.all(rep.rho > 0)
        # independent check: the center keeps distance rho to every edge line
        [center], [rho] = star_centers([mesh.cell_vertices(1)], [1])
        poly = mesh.cell_vertices(1)
        for i in range(len(poly)):
            d = poly[(i + 1) % len(poly)] - poly[i]
            rel = center - poly[i]
            dist = (d[0] * rel[1] - d[1] * rel[0]) / np.hypot(*d)
            assert dist >= 0.99 * rho

    def test_u_shape_flagged(self):
        u_shape = np.array(
            [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]],
            dtype=float,
        )
        assert polygon_signed_area(u_shape) > 0
        with pytest.raises(ElementQualityError, match="^cell 0: polygon is not star-shaped"):
            star_centers([u_shape], [0])
        mesh = PolyMesh(u_shape / 3.0, [list(range(8))])
        rep = check_regularity(mesh)
        assert not rep.star_ok.all()


class TestSimplicity:
    def test_matches_pairwise_oracle(self):
        # random polygons, many of them self-intersecting, some with vertices
        # on a coarse lattice so that edges touch without crossing; each stack
        # of 200 is tested in one call and one polygon at a time
        rng = np.random.default_rng(0)
        found = 0
        for n in range(3, 10):
            stack = []
            for _ in range(200):
                v = rng.random((n, 2))
                if rng.random() < 0.3:
                    v = np.round(3 * v) / 3
                stack.append(v)
            simple = polygon_is_simple(np.array(stack))
            assert simple.shape == (200,)
            for v, stacked in zip(stack, simple):
                assert stacked == polygon_is_simple(v) == polygon_is_simple_by_pair(v), v
                found += not stacked
        assert found > 500

    def test_self_intersecting_cell_named(self):
        # positive area, but edge 2 crosses edge 0
        verts = [[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [1.0, -1.0], [0.0, 3.0]]
        with pytest.raises(MeshError, match="^cell 0: self-intersecting$"):
            PolyMesh(verts, [[0, 1, 2, 3, 4]])


class TestMeshIO:
    def test_round_trip_byte_identical(self, tmp_path, mesh_t2):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_mesh(mesh_t2, p1)
        mesh2 = read_mesh(p1)
        write_mesh(mesh2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fixture_2x2(self, tmp_path):
        path = tmp_path / "m.json"
        write_mesh(generate_cartesian(2, 2), path)
        mesh = read_mesh(path)
        assert mesh.n_cells == 4
        assert mesh.n_vertices == 9

    def test_clockwise_cell_reports_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"vertices": [[0,0],[1,0],[1,1],[0,1]],'
            ' "cells": [[0,3,2,1]], "boundary_labels": []}'
        )
        with pytest.raises(MeshFormatError, match="cell 0"):
            read_mesh(path)

    def test_dangling_vertex(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"vertices": [[0,0],[1,0],[1,1]],'
            ' "cells": [[0,1,7]], "boundary_labels": []}'
        )
        with pytest.raises(MeshFormatError, match="missing vertex"):
            read_mesh(path)

    def test_non_integer_cell_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"vertices": [[0,0],[1,0],[1,1]],'
            ' "cells": [[0, 1.5, 2]], "boundary_labels": []}'
        )
        with pytest.raises(MeshFormatError, match="list of integers"):
            read_mesh(path)

    @pytest.mark.parametrize("cell, edge", [(7, 0), (0, 1)], ids=["no-cell", "interior"])
    def test_label_off_the_boundary(self, tmp_path, cell, edge):
        # cell 7 does not exist in the 2x2 grid; edge 1 of cell 0 is interior
        path = tmp_path / "m.json"
        write_mesh(generate_cartesian(2, 2), path)
        text = path.read_text().replace(
            '"boundary_labels": [',
            f'"boundary_labels": [{{"cell": {cell}, "edge": {edge}, "label": "left"}}, ',
        )
        path.write_text(text)
        with pytest.raises(
            MeshFormatError, match=rf"\(cell {cell}, edge {edge}\), not a boundary edge"
        ):
            read_mesh(path)

    @pytest.mark.parametrize(
        "key, value, entry",
        [
            ("vertices", [[0, 0], [1, 0], ["1", 1], [0, 1]], "vertex 2"),
            ("vertices", [[0, 0], [1, 0], [1, None], [0, 1]], "vertex 2"),
            ("vertices", [[0, 0], [float("nan"), 0], [1, 1], [0, 1]], "vertex 1"),
            ("vertices", [[0, 0], [1, 0], [1, 1], [True, 1]], "vertex 3"),
            ("vertices", [[0, 0], [10**400, 0], [1, 1], [0, 1]], "vertex 1"),
            ("vertices", 5, "'vertices'"),
            ("cells", 5, "'cells'"),
            ("boundary_labels", 5, "'boundary_labels'"),
            ("boundary_labels", [{"cell": "x", "edge": 0, "label": "left"}],
             "boundary label entry 0"),
            ("boundary_labels", [{"cell": 0, "edge": 0, "label": None}],
             "boundary label entry 0"),
        ],
        ids=["string", "null", "nan", "bool", "huge", "vertices-5", "cells-5",
             "labels-5", "label-cell-x", "label-null"],
    )
    def test_malformed_entry_named(self, tmp_path, key, value, entry):
        # a one-line MeshFormatError naming the file and the entry, never a
        # raw ValueError or TypeError, and no NaN or boolean read as a number
        data = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]],
                "boundary_labels": []}
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(MeshFormatError) as info:
            read_mesh(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and entry in message
        assert "\n" not in message

    def test_voronoi_round_trip(self, tmp_path, mesh_t3):
        path = tmp_path / "v.json"
        write_mesh(mesh_t3, path)
        mesh = read_mesh(path)
        assert mesh.n_cells == mesh_t3.n_cells
        assert np.array_equal(mesh.vertices, mesh_t3.vertices)


class TestTopologyValidation:
    def test_no_cells(self):
        with pytest.raises(MeshError, match="^mesh has no cells$"):
            PolyMesh(np.array([[0, 0], [1, 0], [1, 1.0]]), [])

    def test_orientation_required(self):
        with pytest.raises(MeshError, match="counter-clockwise"):
            PolyMesh(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]), [[0, 3, 2, 1]])

    def test_overshared_edge(self):
        verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0.0]])
        cells = [[0, 1, 2, 3], [1, 4, 2], [1, 2, 3]]
        with pytest.raises(MeshError):
            PolyMesh(verts, cells)

    SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
    PAIR = [[0.1, 0.1], [0.8, 0.1], [0.8, 0.8], [0.1, 0.8]]
    # a pentagon whose edge 2 crosses edge 0 (signed area 4), then a unit square
    CROSSED = [[0, 0], [4, 0], [4, 3], [1, -1], [0, 3], [5, 0], [6, 0], [6, 1], [5, 1]]
    # 5 points on a circle, joined as a pentagram (signed area 0.235)
    ANGLES = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    STAR = (0.5 + 0.4 * np.column_stack([np.cos(ANGLES), np.sin(ANGLES)])).tolist()

    @pytest.mark.parametrize(
        "vertices, cells, message",
        [
            (SQUARE, [[0, 1]], "cell 0: fewer than 3 vertices"),
            (SQUARE, [[0, 1, 7]], "cell 0: references missing vertex"),
            (SQUARE, [[0, -1, 2]], "cell 0: references missing vertex"),
            (SQUARE, [[0, 1, 2], [0, 10**30, 3]], "cell 1: references missing vertex"),
            (SQUARE, [[0, 1, 1], [0, 10**30, 3]], "cell 0: zero-length edge"),
            (SQUARE, [[0, 1, 1, 2]], "cell 0: zero-length edge"),
            (SQUARE + [[np.nan, 0.5]], [[0, 1, 2], [0, 2, 3, 4]],
             "cell 1: non-finite vertex coordinates"),
            (SQUARE, [[0, 3, 2, 1]], r"cell 0: not counter-clockwise \(signed area -1\)"),
            (SQUARE, [[0, 1, 2], [0, 1, 3]],
             r"edge \(0, 1\) traversed twice in the same direction \(cells 0 and 1\)"),
            (SQUARE + [[2, 0]], [[0, 1, 2, 3], [1, 4, 2], [1, 2, 3]],
             r"edge \(1, 2\) shared by 3 cells"),
            # the first faulty cell wins, whatever its fault
            (SQUARE, [[0, 1, 1, 2], [0, 1]], "cell 0: zero-length edge"),
            (SQUARE, [[0, 3, 2, 1], [0, 1, 9]], "cell 1: references missing vertex"),
            (SQUARE, [[0, 1], [0, 1, 9]], "cell 0: fewer than 3 vertices"),
            # in one cell: fewer than 3 before its edges, then edge by edge,
            # a missing vertex before a zero-length edge on one edge
            (SQUARE, [[0, 9]], "cell 0: fewer than 3 vertices"),
            (SQUARE, [[5, 5]], "cell 0: fewer than 3 vertices"),
            (SQUARE, [[0, 0, 1, 9]], "cell 0: zero-length edge"),
            (SQUARE, [[0, 1, 9, 9]], "cell 0: references missing vertex"),
            # orientation before sharing
            (SQUARE, [[0, 1, 2], [0, 1, 3], [0, 3, 2]],
             r"cell 2: not counter-clockwise \(signed area -0.5\)"),
            # a vertex index must be an integer, and a bool is not one
            (SQUARE, [[0, 1, 2, 3.5]], "cell 0: non-integer vertex index 3.5"),
            (SQUARE, [["0", "1", "2", "3"]], "cell 0: non-integer vertex index '0'"),
            (SQUARE, [[0, 1, 2, np.nan]], "cell 0: non-integer vertex index nan"),
            (SQUARE, [[0, 1, True, 3]], "cell 0: non-integer vertex index True"),
            (SQUARE, [[0, 1, 2, 3], [0, 1, 2.5]], "cell 1: non-integer vertex index 2.5"),
            (SQUARE, [[0, 1, 9], [0, 1, 2.5]], "cell 0: references missing vertex"),
            (SQUARE, [[0, 1, 2.5], [0, 1]], "cell 0: non-integer vertex index 2.5"),
            (SQUARE, [[0, 2.5]], "cell 0: non-integer vertex index 2.5"),
            # a cell that crosses itself, built in code; in one cell,
            # orientation before self-intersection
            (STAR, [[0, 2, 4, 1, 3]], "cell 0: self-intersecting"),
            (STAR, [[0, 3, 1, 4, 2]], r"cell 0: not counter-clockwise \(signed area -0.235114\)"),
            (CROSSED, [[0, 1, 2, 3, 4], [5, 8, 7, 6]], "cell 0: self-intersecting"),
            (CROSSED, [[5, 8, 7, 6], [0, 1, 2, 3, 4]],
             r"cell 0: not counter-clockwise \(signed area -1\)"),
            (CROSSED, [[5, 6, 7, 8], [4, 3, 2, 1, 0]],
             r"cell 1: not counter-clockwise \(signed area -4\)"),
        ],
        ids=["two-vertices", "missing", "negative", "huge", "huge-later", "zero-length", "nan", "clockwise",
             "same-direction", "three-users", "earlier-cell", "later-cell",
             "short-first", "short-missing", "short-zero", "zero-then-missing",
             "missing-on-zero", "orientation-first",
             "float-index", "string-index", "nan-index", "bool-index", "float-later",
             "missing-before-float", "float-before-short", "float-on-short",
             "pentagram", "pentagram-clockwise", "crossed-then-clockwise",
             "clockwise-then-crossed", "crossed-and-clockwise"],
    )
    def test_construction_errors_are_exact(self, vertices, cells, message):
        with pytest.raises(MeshError, match=f"^{message}$"):
            PolyMesh(np.array(vertices, dtype=float), cells)

    @pytest.mark.parametrize("offset", [1e5, 1e6])
    def test_disjoint_squares_far_apart_are_accepted(self, offset):
        # two valid squares far apart: the checks are each cell's orientation
        # and each edge's users, and no area sum is compared, so rounding
        # cannot reject them
        mesh = PolyMesh(np.array(self.PAIR + (np.array(self.PAIR) + offset).tolist()),
                        [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert mesh.n_cells == 2 and len(mesh.boundary_edges) == 8

    def test_self_intersecting_cell_read_from_file(self, tmp_path):
        # positive area, but edge 2 crosses edge 0; a clockwise later cell
        # does not hide it
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "vertices": [[0, 0], [4, 0], [4, 3], [1, -1], [0, 3], [5, 0], [5, 1]],
            "cells": [[0, 1, 2, 3, 4], [1, 6, 5]], "boundary_labels": []}))
        with pytest.raises(MeshFormatError, match=f"^{re.escape(str(path))}: cell 0: "
                           "self-intersecting$"):
            read_mesh(path)

    @pytest.mark.parametrize("case", ["t1-8", "t2-4", "voronoi-lloyd20", "read-mesh"])
    def test_topology_matches_edge_loop(self, tmp_path, case):
        # the array-built tables are those of one dict lookup per cell edge,
        # bit for bit: the edges numbered by first use, the cell edge
        # tables, the boundary in edge order and the cell areas
        if case == "read-mesh":
            write_mesh(shared_mesh(generate_concave_pentagons, 3), tmp_path / "m.json")
            mesh = read_mesh(tmp_path / "m.json")
        else:
            mesh = {"t1-8": lambda: generate_cartesian(8, 8),
                    "t2-4": lambda: generate_concave_pentagons(4),
                    "voronoi-lloyd20": lambda: generate_voronoi(64, lloyd_iters=20, seed=1)}[case]()
        edges, tables, boundary, areas = topology_by_edge(mesh.vertices, mesh.cells)
        assert isinstance(mesh.edges, np.ndarray) and mesh.edges.shape == (mesh.n_edges, 2)
        assert np.array_equal(mesh.edges, edges) and mesh.edges.dtype == edges.dtype
        assert len(mesh.cell_edges) == len(tables)
        assert all(np.array_equal(got, want) for got, want in zip(mesh.cell_edges, tables))
        assert mesh.boundary_edges == boundary
        assert np.array_equal(mesh.cell_areas, areas)
        assert not hasattr(mesh, "edge_cells")

    def test_tiling_invariant_all_families(self, acceptance_meshes):
        for mesh in acceptance_meshes.values():
            assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(mesh.cell_areas > 0)

    def test_refinement_halves_h_cartesian(self):
        h8 = generate_cartesian(8, 8).max_diameter()
        h16 = generate_cartesian(16, 16).max_diameter()
        assert h8 / h16 == pytest.approx(2.0, abs=1e-12)

