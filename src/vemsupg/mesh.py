"""Polygonal meshes of the unit square: generators, checks, and file I/O.

Three mesh families cover the benchmark geometries: tensor-product cartesian
grids, a deterministic concave/convex pentagon tiling, and Lloyd-relaxed
clipped Voronoi tessellations.  Cells are stored as CCW vertex-index loops;
interior edges must be shared by exactly two cells with opposite orientation.
"""

import json

import numpy as np
from scipy.spatial import Voronoi

from .errors import ElementQualityError, MeshError, MeshFormatError
from .geometry import (
    polygon_centroid,
    polygon_diameter,
    polygon_is_simple,
    polygon_signed_area,
    star_center,
)

_SNAP_TOL = 1e-9
_AREA_RTOL = 1e-12


class PolyMesh:
    """Polygonal tessellation of a planar domain.

    Parameters
    ----------
    vertices : (n, 2) array
    cells : sequence of CCW vertex-index lists
    boundary_labels : dict mapping (cell, local_edge) -> label string
    """

    def __init__(self, vertices, cells, boundary_labels=None, check_simple=False):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        self.cells = [list(map(int, c)) for c in cells]
        self._build_topology()
        self._validate(check_simple=check_simple)
        if boundary_labels is None:
            boundary_labels = _label_unit_square_sides(self)
        self.boundary_labels = dict(boundary_labels)

    # -- topology ---------------------------------------------------------

    def _build_topology(self):
        n_vert = len(self.vertices)
        edge_index = {}
        edges = []
        edge_cells = []
        cell_edges = []
        for c, cell in enumerate(self.cells):
            if len(cell) < 3:
                raise MeshError(f"cell {c} has fewer than 3 vertices")
            loc = []
            for i, a in enumerate(cell):
                b = cell[(i + 1) % len(cell)]
                if not (0 <= a < n_vert) or not (0 <= b < n_vert):
                    raise MeshError(f"cell {c} references missing vertex")
                if a == b:
                    raise MeshError(f"cell {c} has a zero-length edge")
                key = (a, b) if a < b else (b, a)
                e = edge_index.get(key)
                if e is None:
                    e = len(edges)
                    edge_index[key] = e
                    edges.append(key)
                    edge_cells.append([])
                edge_cells[e].append((c, i, a < b))
                loc.append((e, a < b))
            cell_edges.append(loc)
        self.edges = edges
        self.edge_index = edge_index
        self.edge_cells = edge_cells
        self.cell_edges = cell_edges
        self.n_vertices = n_vert
        self.n_cells = len(self.cells)
        self.n_edges = len(edges)

    def _validate(self, check_simple):
        areas = []
        for c, cell in enumerate(self.cells):
            poly = self.vertices[cell]
            area = polygon_signed_area(poly)
            if area <= 0.0:
                raise MeshError(f"cell {c} is not counter-clockwise (signed area {area:g})")
            if check_simple and not polygon_is_simple(poly):
                raise MeshError(f"cell {c} is self-intersecting")
            areas.append(area)
        self.cell_areas = np.asarray(areas)
        boundary = []
        for e, users in enumerate(self.edge_cells):
            if len(users) == 1:
                boundary.append(users[0][:2])
            elif len(users) == 2:
                if users[0][2] == users[1][2]:
                    a, b = self.edges[e]
                    raise MeshError(
                        f"edge ({a}, {b}) traversed twice in the same direction "
                        f"(cells {users[0][0]} and {users[1][0]})"
                    )
            else:
                a, b = self.edges[e]
                raise MeshError(f"edge ({a}, {b}) shared by {len(users)} cells")
        self.boundary_edges = boundary
        # tiling consistency: cells must add up to the area enclosed by the
        # boundary loop (interior edge contributions cancel pairwise)
        loop = 0.0
        for c, i in boundary:
            cell = self.cells[c]
            a = self.vertices[cell[i]]
            b = self.vertices[cell[(i + 1) % len(cell)]]
            loop += 0.5 * (a[0] * b[1] - b[0] * a[1])
        total = self.cell_areas.sum()
        if abs(total - loop) > _AREA_RTOL * max(abs(loop), 1.0) * self.n_cells:
            raise MeshError(
                f"cells do not tile the domain: sum {total!r} vs boundary loop {loop!r}"
            )
        self.domain_area = total

    # -- convenience ------------------------------------------------------

    def cell_vertices(self, c):
        return self.vertices[self.cells[c]]

    def max_diameter(self):
        return max(polygon_diameter(self.cell_vertices(c)) for c in range(self.n_cells))

    def vertex_count_histogram(self):
        counts = {}
        for cell in self.cells:
            counts[len(cell)] = counts.get(len(cell), 0) + 1
        return counts

    def __repr__(self):
        return f"PolyMesh({self.n_cells} cells, {self.n_vertices} vertices)"


def _label_unit_square_sides(mesh):
    """Label boundary edges of a unit-square mesh by the side they lie on."""
    labels = {}
    sides = [
        ("left", 0, 0.0),
        ("right", 0, 1.0),
        ("bottom", 1, 0.0),
        ("top", 1, 1.0),
    ]
    for c, i in mesh.boundary_edges:
        cell = mesh.cells[c]
        a = mesh.vertices[cell[i]]
        b = mesh.vertices[cell[(i + 1) % len(cell)]]
        label = "boundary"
        for name, axis, value in sides:
            if abs(a[axis] - value) <= _SNAP_TOL and abs(b[axis] - value) <= _SNAP_TOL:
                label = name
                break
        labels[(c, i)] = label
    return labels


def relabel_boundary(mesh, classifier):
    """Re-tag boundary edges; ``classifier(p0, p1, old_label) -> new label``."""
    labels = {}
    for (c, i), old in mesh.boundary_labels.items():
        cell = mesh.cells[c]
        a = mesh.vertices[cell[i]]
        b = mesh.vertices[cell[(i + 1) % len(cell)]]
        labels[(c, i)] = classifier(a, b, old)
    mesh.boundary_labels = labels
    return mesh


# -- generators -------------------------------------------------------------


def generate_cartesian(nx, ny):
    """nx-by-ny axis-aligned grid of the unit square."""
    if nx < 1 or ny < 1:
        raise ValueError("cell counts must be >= 1")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    verts = np.array([[x, y] for y in ys for x in xs])
    cells = []
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            cells.append([v00, v00 + 1, v00 + nx + 2, v00 + nx + 1])
    return PolyMesh(verts, cells)


def generate_concave_pentagons(n):
    """2 n^2 pentagons tiling the unit square, one convex and one concave per block.

    Each of the n-by-n blocks is split by the polyline bottom-midpoint ->
    (x0 + 0.75 dx, y0 + 0.5 dy) -> top-midpoint; the right cell has a reflex
    vertex at the interior point.
    """
    if n < 1:
        raise ValueError("block count must be >= 1")
    d = 1.0 / n
    corner = lambda i, j: j * (n + 1) + i
    n_corner = (n + 1) * (n + 1)
    mid = lambda i, j: n_corner + j * n + i
    n_mid = (n + 1) * n
    interior = lambda i, j: n_corner + n_mid + j * n + i
    verts = []
    for j in range(n + 1):
        for i in range(n + 1):
            verts.append([i * d, j * d])
    for j in range(n + 1):
        for i in range(n):
            verts.append([(i + 0.5) * d, j * d])
    for j in range(n):
        for i in range(n):
            verts.append([(i + 0.75) * d, (j + 0.5) * d])
    cells = []
    for j in range(n):
        for i in range(n):
            cells.append(
                [corner(i, j), mid(i, j), interior(i, j), mid(i, j + 1), corner(i, j + 1)]
            )
            cells.append(
                [mid(i, j), corner(i + 1, j), corner(i + 1, j + 1), mid(i, j + 1), interior(i, j)]
            )
    return PolyMesh(np.asarray(verts), cells)


def generate_voronoi(n_cells, lloyd_iters=100, seed=0):
    """Lloyd-relaxed Voronoi tessellation of the unit square.

    Sites are drawn from a seeded generator, relaxed by ``lloyd_iters``
    centroid updates, and cells are clipped exactly to the square by
    mirroring sites across its four sides.
    """
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    rng = np.random.default_rng(seed)
    sites = rng.random((n_cells, 2))
    _reject_duplicate_sites(sites)
    for _ in range(lloyd_iters):
        cells, verts = _clipped_voronoi(sites)
        sites = np.array([polygon_centroid(verts[c]) for c in cells])
    cells, verts = _clipped_voronoi(sites)
    verts = _snap_to_sides(verts)
    verts, cells = _compress_vertices(verts, cells)
    return PolyMesh(verts, cells)


def _reject_duplicate_sites(sites):
    diff = sites[:, None, :] - sites[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    if dist.min() < 1e-12:
        raise MeshError("degenerate site configuration: duplicate sites")


def _clipped_voronoi(sites):
    """Voronoi cells of ``sites`` clipped to the unit square via mirroring."""
    mirrors = [
        np.column_stack([-sites[:, 0], sites[:, 1]]),
        np.column_stack([2.0 - sites[:, 0], sites[:, 1]]),
        np.column_stack([sites[:, 0], -sites[:, 1]]),
        np.column_stack([sites[:, 0], 2.0 - sites[:, 1]]),
    ]
    vor = Voronoi(np.vstack([sites] + mirrors))
    cells = []
    for i in range(len(sites)):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or len(region) < 3:
            raise MeshError("unbounded Voronoi region despite mirroring")
        pts = vor.vertices[region]
        center = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))
        cells.append([region[o] for o in order])
    return cells, vor.vertices


def _snap_to_sides(verts):
    v = verts.copy()
    for value in (0.0, 1.0):
        for axis in (0, 1):
            hit = np.abs(v[:, axis] - value) <= _SNAP_TOL
            v[hit, axis] = value
    return v


def _compress_vertices(verts, cells):
    """Drop unused vertices, merge coincident ones, reindex cells."""
    key_of = {}
    new_verts = []
    new_cells = []
    for cell in cells:
        out = []
        for vi in cell:
            key = (round(verts[vi, 0], 12), round(verts[vi, 1], 12))
            idx = key_of.get(key)
            if idx is None:
                idx = len(new_verts)
                key_of[key] = idx
                new_verts.append(verts[vi])
            if not out or out[-1] != idx:
                out.append(idx)
        if out[0] == out[-1]:
            out.pop()
        new_cells.append(out)
    return np.asarray(new_verts), new_cells


# -- regularity --------------------------------------------------------------


class RegularityReport:
    """Shape-regularity metrics per cell and their global minima.

    ``rho`` is the kernel inscribed-circle radius of each cell; the global
    regularity constant is the smaller of min(rho/h) and min(min_edge/h).
    """

    def __init__(self, rho, min_edge, h, star_ok):
        self.rho = np.asarray(rho)
        self.min_edge = np.asarray(min_edge)
        self.h = np.asarray(h)
        self.star_ok = np.asarray(star_ok, dtype=bool)
        with np.errstate(invalid="ignore"):
            self.rho_ratio = self.rho / self.h
            self.edge_ratio = self.min_edge / self.h
        ok = self.star_ok
        if ok.any():
            self.min_rho_ratio = float(self.rho_ratio[ok].min())
            self.min_edge_ratio = float(self.edge_ratio[ok].min())
            self.regularity_constant = min(self.min_rho_ratio, self.min_edge_ratio)
        else:
            self.min_rho_ratio = self.min_edge_ratio = self.regularity_constant = 0.0

    @property
    def all_star_shaped(self):
        return bool(self.star_ok.all())

    def __repr__(self):
        return (
            f"RegularityReport(min rho/h={self.min_rho_ratio:.4g}, "
            f"min |e|/h={self.min_edge_ratio:.4g}, "
            f"star-shaped={int(self.star_ok.sum())}/{len(self.star_ok)})"
        )


def check_regularity(mesh):
    """Kernel-based regularity metrics for every cell of ``mesh``."""
    rho = np.empty(mesh.n_cells)
    min_edge = np.empty(mesh.n_cells)
    h = np.empty(mesh.n_cells)
    ok = np.ones(mesh.n_cells, dtype=bool)
    for c in range(mesh.n_cells):
        poly = mesh.cell_vertices(c)
        h[c] = polygon_diameter(poly)
        edge_vec = np.roll(poly, -1, axis=0) - poly
        min_edge[c] = np.hypot(edge_vec[:, 0], edge_vec[:, 1]).min()
        try:
            _, rho[c] = star_center(poly)
        except ElementQualityError:
            rho[c] = np.nan
            ok[c] = False
    return RegularityReport(rho, min_edge, h, ok)


# -- file I/O ----------------------------------------------------------------


def _fmt(x):
    return format(float(x), ".17g")


def write_mesh(mesh, path):
    """Write the canonical JSON mesh format (17 significant digits)."""
    lines = ["{", '  "vertices": [']
    for i, (x, y) in enumerate(mesh.vertices):
        comma = "," if i + 1 < mesh.n_vertices else ""
        lines.append(f"    [{_fmt(x)}, {_fmt(y)}]{comma}")
    lines.append("  ],")
    lines.append('  "cells": [')
    for i, cell in enumerate(mesh.cells):
        comma = "," if i + 1 < mesh.n_cells else ""
        lines.append("    [" + ", ".join(str(v) for v in cell) + f"]{comma}")
    lines.append("  ],")
    lines.append('  "boundary_labels": [')
    items = sorted(mesh.boundary_labels.items())
    for i, ((c, e), label) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(
            f'    {{"cell": {c}, "edge": {e}, "label": {json.dumps(label)}}}{comma}'
        )
    lines.append("  ]")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Read a mesh file, validating every mesh invariant."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshFormatError(f"{path}: invalid JSON ({exc})") from None
    for key in ("vertices", "cells", "boundary_labels"):
        if key not in data:
            raise MeshFormatError(f"{path}: missing key {key!r}")
    verts = data["vertices"]
    if not all(isinstance(v, list) and len(v) == 2 for v in verts):
        raise MeshFormatError(f"{path}: vertices must be [x, y] pairs")
    for i, cell in enumerate(data["cells"]):
        if not isinstance(cell, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in cell
        ):
            raise MeshFormatError(f"{path}: cell {i} must be a list of integers")
    labels = {}
    for item in data["boundary_labels"]:
        try:
            labels[(int(item["cell"]), int(item["edge"]))] = str(item["label"])
        except (KeyError, TypeError) as exc:
            raise MeshFormatError(f"{path}: bad boundary label entry {item!r}") from None
    try:
        mesh = PolyMesh(
            np.asarray(verts, dtype=float),
            data["cells"],
            boundary_labels=labels,
            check_simple=True,
        )
    except MeshError as exc:
        raise MeshFormatError(f"{path}: {exc}") from None
    return mesh
