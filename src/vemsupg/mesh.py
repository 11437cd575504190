"""Polygonal meshes of the unit square: generators, checks, placement, point location, file I/O.

Three mesh families cover the benchmark geometries: tensor-product cartesian
grids, a deterministic concave/convex pentagon tiling, and Lloyd-relaxed
clipped Voronoi tessellations.  Cells are stored as CCW vertex-index loops
of simple polygons; interior edges must be shared by exactly two cells with
opposite orientation.  The topology is built and checked by array operations
on one flat table of the cells' edges, and the cells' shapes by stacked tests
per vertex count.  The checks are local: overlapping cells are accepted.
"""

import collections
import functools
import itertools
import json
import numbers
import sys
from typing import NamedTuple

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .assemble import DofMap, format_vtk_geometry
from .errors import MeshError, MeshFormatError
from .geometry import (edge_vectors, kernel_balls, polygon_diameter, polygon_is_simple,
                       polygon_signed_area, star_centers)

_SNAP_TOL = 1e-9


class PolyMesh:
    """Polygonal tessellation of a planar domain.

    Parameters
    ----------
    vertices : (n, 2) array
    cells : sequence of integer vertex-index lists, CCW loops of simple polygons
    boundary_labels : dict mapping the (cell, local_edge) of a boundary edge
        -> label string

    Tables derived from the vertices and cells are derived once: the cell
    areas, the edges and ``boundary_edges`` at construction; ``placement``,
    the point-location table ``locate_table`` and the VTK text
    ``vtk_geometry`` on first use, shared by the solves of every order; and
    the DOF map of each order k on its first ``dof_map(k)`` (kept with
    read-only arrays; one that raises is not kept).  So the mesh
    keeps read-only copies: the vertices as an (n, 2) array, leaving the
    caller's array as it was, ``cells`` as a tuple of int arrays (cell c's
    CCW loop), ``cell_sizes`` as their vertex counts, ``edges`` as an
    (E, 2) int array of (low, high) vertex pairs numbered by first use
    along the loops, ``cell_edges`` as a tuple of (n_v, 2) int arrays (each
    edge's index and whether the cell runs along it in ascending vertex
    order) and ``boundary_edges`` as a tuple of the (cell, local edge) of
    each edge with one user, in edge order.
    """

    def __init__(self, vertices, cells, boundary_labels=None):
        self.vertices = np.array(vertices, dtype=float)
        self.vertices.flags.writeable = False
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        cells = list(map(list, cells))
        if not cells:
            raise MeshError("mesh has no cells")
        ends = self._build_topology(cells)
        self._validate(ends)
        self._dof_maps = {}  # order k -> DofMap, filled by ``dof_map``
        if boundary_labels is None:
            boundary_labels = _label_unit_square_sides(self)
        self.boundary_labels = dict(boundary_labels)
        stray = set(self.boundary_labels) - set(self.boundary_edges)
        if stray:
            c, i = min(stray)
            raise MeshError(f"boundary label on (cell {c}, edge {i}), not a boundary edge")

    # -- topology ---------------------------------------------------------

    def _build_topology(self, cells):
        """Number the edges by first use; return the flat (cell, a) table of the edges' starts."""
        n_vert = self.n_vertices = len(self.vertices)
        self.n_cells = len(cells)
        sizes = np.fromiter(map(len, cells), int, len(cells))
        starts = np.cumsum(sizes) - sizes
        flat = list(itertools.chain.from_iterable(cells))
        # the test reads only the type, so one entry of each type stands for all
        verdict = {t: is_integer(v) for t, v in dict(zip(map(type, flat), flat)).items()}
        integer = np.fromiter(map(verdict.get, map(type, flat)), bool, len(flat))
        # -1 for an index that is not an integer or names no vertex
        a = np.array([v if ok and 0 <= v < n_vert else -1
                      for v, ok in zip(flat, integer.tolist())], int)
        cell = np.repeat(np.arange(len(cells)), sizes)
        nxt = np.arange(1, len(a) + 1)
        used = sizes > 0
        nxt[(starts + sizes - 1)[used]] = starts[used]
        b = a[nxt]
        missing = (a < 0) | (b < 0)
        bad = missing | (a == b)
        # the first faulty cell; in it a non-integer, else < 3 vertices, else its first bad edge
        odd = cell[~integer][:1].tolist()
        faults = odd + np.flatnonzero(sizes < 3)[:1].tolist() + cell[bad][:1].tolist()
        if faults:
            c = min(faults)
            if odd == [c]:
                raise MeshError(f"cell {c}: non-integer vertex index {flat[np.argmin(integer)]!r}")
            if sizes[c] < 3:
                raise MeshError(f"cell {c}: fewer than 3 vertices")
            p = starts[c] + np.argmax(bad[starts[c]:])
            raise MeshError(f"cell {c}: " + ("references missing vertex" if missing[p]
                                             else "zero-length edge"))
        pairs = np.column_stack([np.minimum(a, b), np.maximum(a, b)])
        _, first, inverse = np.unique(pairs[:, 0] * n_vert + pairs[:, 1],
                                      return_index=True, return_inverse=True)
        firsts = np.sort(first)  # each edge's first use, in edge order
        self.edges = pairs[firsts]
        self.n_edges = len(firsts)
        self.cell_sizes, self._starts, self._loops = sizes, starts, a
        self._edge_table = np.column_stack([np.searchsorted(firsts, first[inverse]), a < b])
        for table in (self.edges, sizes, starts, a, self._edge_table):
            table.flags.writeable = False
        self.cells = tuple(np.split(a, starts[1:]))
        self.cell_edges = tuple(np.split(self._edge_table, starts[1:]))
        return cell, a

    def cell_table(self, cells):
        """Loops (C, n_v) and edge tables (C, n_v, 2) of ``cells``, which have one vertex count."""
        at = self._starts[cells][:, None] + np.arange(self.cell_sizes[cells[0]])
        return self._loops[at], self._edge_table[at]

    def _validate(self, ends):
        cell, a = ends
        nonfinite = ~np.isfinite(self.vertices).all(axis=1)[a]
        if nonfinite.any():
            raise MeshError(f"cell {cell[np.argmax(nonfinite)]}: non-finite vertex coordinates")
        self.cell_areas, simple = np.empty(self.n_cells), np.empty(self.n_cells, bool)
        for cells, polys in self.cell_polygons():
            self.cell_areas[cells] = polygon_signed_area(polys)
            simple[cells] = polygon_is_simple(polys)
        bad = np.flatnonzero((self.cell_areas <= 0.0) | ~simple)  # in a cell, orientation first
        if len(bad):
            c = bad[0]
            if self.cell_areas[c] > 0.0:
                raise MeshError(f"cell {c}: self-intersecting")
            raise MeshError(f"cell {c}: not counter-clockwise (signed area {self.cell_areas[c]:g})")
        # each edge's users in cell order: an edge has one or two, in opposite directions
        edge, ascending = self._edge_table.T
        users = np.argsort(edge, kind="stable")
        count = np.bincount(edge)
        at = np.cumsum(count) - count
        second = users[np.minimum(at + 1, len(users) - 1)]
        same = (count == 2) & (ascending[users[at]] == ascending[second])
        bad = np.flatnonzero((count > 2) | same)
        if len(bad):
            e = bad[0]
            lo, hi = self.edges[e]
            if count[e] > 2:
                raise MeshError(f"edge ({lo}, {hi}) shared by {count[e]} cells")
            raise MeshError(f"edge ({lo}, {hi}) traversed twice in the same direction "
                            f"(cells {cell[users[at[e]]]} and {cell[second[e]]})")
        boundary = users[at[count == 1]]
        self.boundary_edges = tuple(zip(cell[boundary].tolist(),
                                        (boundary - self._starts[cell[boundary]]).tolist()))

    # -- convenience ------------------------------------------------------

    @functools.cached_property
    def placement(self):
        """The ``Placement`` of all cells."""
        return place_shapes(self, range(self.n_cells))

    def dof_map(self, k):
        """The ``DofMap`` of order k, the mesh's assembly plan: built on first use, one per k."""
        if k not in self._dof_maps:
            self._dof_maps[k] = DofMap(self, k)
        return self._dof_maps[k]

    @functools.cached_property
    def locate_table(self):
        """The cells' ``LocateTable``, built on first use.

        Each fan is built as ``ElementGeometry.triangles`` is, on the shape's
        first cell, and moved by the cell's shift, so it is bit for bit the
        fan of the cell's space.
        """
        shapes, width = self.placement, int(self.cell_sizes.max())
        fans = np.empty((self.n_cells, width, 3, 2))
        for n_v in np.unique(self.cell_sizes).tolist():
            cells = np.flatnonzero(self.cell_sizes == n_v)
            of = shapes.of[cells]
            # the vertices of each cell's shape's first cell, and the next vertices
            v = self.vertices[self.cell_table(shapes.cell[of])[0]]
            nxt = np.concatenate([v[:, 1:], v[:, :1]], axis=1)
            center = np.broadcast_to(shapes.center[of][:, None, :], v.shape)
            fan = np.stack([center, v, nxt], axis=2)
            fans[cells] = fan[:, np.arange(width) % n_v] + shapes.shift[cells][:, None, None]
        lo, hi = fans.min(axis=(1, 2)), fans.max(axis=(1, 2))
        pad = 1e-3 * (hi - lo).max(axis=1, keepdims=True)
        lo, hi = lo - pad, hi + pad
        table = LocateTable(fans, lo, hi, *box_buckets(lo, hi))
        for array in (fans, lo, hi, table.starts, table.boxes):
            array.flags.writeable = False
        return table

    @functools.cached_property
    def vtk_geometry(self):
        """The POINTS, CELLS and CELL_TYPES lines of the mesh's VTK file, formatted on first use."""
        return format_vtk_geometry(self)

    def locate(self, points):
        """Lowest-index cell holding each of the (n, 2) ``points``, by the cells' fan triangles.

        Every cell is star-shaped about its star center, so its fan triangles
        cover it.  A point is tested only against its bucket's cells from
        ``box_buckets``, which hold every padded bounding box that holds it.
        The test accepts points up to about 1e-12/|edge| outside a cell; the
        pad of 1e-3 of the box size covers that with a wide margin.
        """
        points = np.asarray(points, dtype=float)
        fans, lo, hi, bucket, starts, boxes = self.locate_table
        home = bucket(points)
        out = np.full(len(points), -1)
        step = max(1, 2**20 // np.diff(starts).max())  # bounds the point-by-cell table
        for start in range(0, len(points), step):
            p, own = points[start : start + step], home[start : start + step]
            # each point's bucket's cells: pairs by point, then by increasing cell
            count = starts[own + 1] - starts[own]
            ip = np.repeat(np.arange(len(p)), count)
            ic = boxes[starts[own][ip] + np.arange(len(ip)) - (np.cumsum(count) - count)[ip]]
            inside = ((lo[ic] <= p[ip]) & (p[ip] <= hi[ic])).all(axis=1)
            ip, ic = ip[inside], ic[inside]
            a, b, c, q = fans[ic, :, 0], fans[ic, :, 1], fans[ic, :, 2], p[ip, None]
            side = np.minimum(np.minimum(_cross(a, b, q), _cross(b, c, q)), _cross(c, a, q))
            hit = np.any(side >= -1e-12, axis=1)
            # each point's first hit is its lowest cell
            found, first = np.unique(ip[hit], return_index=True)
            out[start + found] = ic[hit][first]
        if np.any(out < 0):
            raise ValueError(f"point {points[np.argmax(out < 0)]} is outside the mesh")
        return out

    def cell_vertices(self, c):
        return self.vertices[self.cells[c]]

    def cell_polygons(self):
        """(cells, (C, n_v, 2) vertices) of the cells of each vertex count, by vertex count."""
        for n_v in np.unique(self.cell_sizes):
            cells = np.flatnonzero(self.cell_sizes == n_v)
            yield cells, self.vertices[self.cell_table(cells)[0]]

    def max_diameter(self):
        return max(polygon_diameter(polys).max() for _, polys in self.cell_polygons())

    def vertex_count_histogram(self):
        return dict(collections.Counter(self.cell_sizes.tolist()))

    def __repr__(self):
        return f"PolyMesh({self.n_cells} cells, {self.n_vertices} vertices)"


def _shape_signatures(polys):
    """Keys equal for translated copies of one polygon, for stacked (C, nv, 2) polygons.

    The key holds the size, so dilated copies get keys of their own.  Returns
    the keys and the vertex means the translations are measured from.
    """
    anchor = polys.mean(axis=1)
    rel = polys - anchor[:, None, :]
    h = np.sqrt((rel**2).sum(axis=2).max(axis=1))
    rel = np.round(rel / h[:, None, None], 12).reshape(len(polys), -1)
    n_v = polys.shape[1]
    keys = [(n_v, float(f"{r:.12g}")) + tuple(row) for r, row in zip(h.tolist(), rel.tolist())]
    return keys, anchor


class Placement(NamedTuple):
    """The shapes of some cells and each cell's place, as read-only arrays.

    Per shape, in first-cell order: ``cell`` (S,) its first cell, ``center``
    (S, 2) and ``radius`` (S,) that cell's star center and kernel radius.
    Per placed cell: ``of`` (C,) its shape and ``shift`` (C, 2) its
    translation from the shape's first cell.  All projector matrices are
    translation-invariant, so one space per shape serves all its cells.
    """

    cell: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    of: np.ndarray
    shift: np.ndarray


def place_shapes(mesh, cells):
    """The ``Placement`` of ``cells``: shapes in first-cell order, each cell's shape and shift.

    A cartesian grid has one shape and the pentagon tiling two; on a Voronoi
    mesh every cell is its own shape.  The star centers of all shapes come
    from one ``star_centers`` call.
    """
    cells = np.asarray(cells, dtype=int)
    n_v = mesh.cell_sizes[cells]
    keys = [None] * len(cells)
    anchors = np.empty((len(cells), 2))  # vertex means, the points shifts are measured from
    for nv in np.unique(n_v):
        at = np.flatnonzero(n_v == nv)
        polys = mesh.vertices[mesh.cell_table(cells[at])[0]]
        group_keys, anchors[at] = _shape_signatures(polys)
        for i, key in zip(at, group_keys):
            keys[i] = key
    index = {}  # key -> shape, numbered by first cell
    of = np.array([index.setdefault(key, len(index)) for key in keys], dtype=int)
    first = np.unique(of, return_index=True)[1]
    firsts = cells[first]
    centers, radii = star_centers([mesh.cell_vertices(c) for c in firsts], firsts.tolist())
    placement = Placement(firsts, centers, radii, of, anchors - anchors[first][of])
    for table in placement:
        table.flags.writeable = False
    return placement


class LocateTable(NamedTuple):
    """The cells' point-location table, as read-only arrays.

    ``fans`` (C, width, 3, 2) holds each cell's fan triangles about its
    shape's star center, moved by its shift and padded to the widest cell by
    repeating its own triangles; ``lo`` and ``hi`` (C, 2) the corners of its
    bounding box, padded by 1e-3 of its size; ``bucket``, ``starts`` and
    ``boxes`` the ``box_buckets`` grid of those boxes.
    """

    fans: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    bucket: object
    starts: np.ndarray
    boxes: np.ndarray


def _cross(a, b, q):
    """Cross product of b - a with q - a: not negative when q is left of a->b."""
    return (b - a)[..., 0] * (q - a)[..., 1] - (b - a)[..., 1] * (q - a)[..., 0]


def box_buckets(lo, hi):
    """Boxes [lo, hi], (n, 2) each, on a uniform grid of about sqrt(n) x sqrt(n) buckets.

    Returns ``(bucket, starts, boxes)``: ``bucket(points)`` is the bucket of
    each (m, 2) point, and bucket b holds ``boxes[starts[b]:starts[b + 1]]``,
    the boxes touching it, in increasing order.  Points and box corners share
    one monotone, clipped bucket expression, so a point in a box is in one of its buckets.
    """
    n = int(np.sqrt(len(lo)))  # buckets per side
    origin, top = lo.min(axis=0), hi.max(axis=0)
    width = (top - origin) / n

    def axes(x):  # fmin and fmax also clip nan and inf
        return np.minimum((np.fmin(np.fmax(x, origin), top) - origin) // width, n - 1).astype(int)

    first = axes(lo)
    span = axes(hi) - first + 1
    count = span[:, 0] * span[:, 1]
    box = np.repeat(np.arange(len(lo)), count)
    at = np.arange(len(box)) - (np.cumsum(count) - count)[box]  # each entry's place in its box
    bucket = (first[box] + np.column_stack([at % span[box, 0], at // span[box, 0]])) @ [1, n]
    order = np.lexsort((box, bucket))
    starts = np.searchsorted(bucket[order], np.arange(n * n + 1))
    return (lambda x: axes(x) @ [1, n]), starts, box[order]


def _label_unit_square_sides(mesh):
    """Label boundary edges of a unit-square mesh by the side they lie on."""
    c, i = np.array(mesh.boundary_edges, dtype=int).reshape(-1, 2).T
    ends = mesh.vertices[mesh.edges[mesh._edge_table[mesh._starts[c] + i, 0]]]
    on = [np.abs(ends[..., axis] - value).max(axis=1) <= _SNAP_TOL
          for axis, value in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0))]
    labels = np.select(on, ["left", "right", "bottom", "top"], "boundary")
    return dict(zip(mesh.boundary_edges, labels.tolist()))


# -- generators -------------------------------------------------------------


def is_integer(x):
    """True for an integer, such as Python's or numpy's, that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_integers(**counts):
    """Raise a one-line ``ValueError`` for a count that is not an integer."""
    for name, n in counts.items():
        if not is_integer(n):
            raise ValueError(f"{name} must be an integer, got {n!r}")


def generate_cartesian(nx, ny):
    """nx-by-ny axis-aligned grid of the unit square."""
    _check_integers(nx=nx, ny=ny)
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
    _check_integers(n=n)
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
    _check_integers(n_cells=n_cells, lloyd_iters=lloyd_iters)
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    if lloyd_iters < 0:
        raise ValueError(f"lloyd_iters must be non-negative, got {lloyd_iters}")
    rng = np.random.default_rng(seed)
    sites = rng.random((n_cells, 2))
    _reject_duplicate_sites(sites)
    for _ in range(lloyd_iters):
        sites = _loop_centroids(*_clipped_voronoi(sites))
    loops, starts, verts = _clipped_voronoi(sites)
    cells = [c.tolist() for c in np.split(loops, starts[1:])]
    verts = _snap_to_sides(verts)
    verts, cells = _compress_vertices(verts, cells)
    return PolyMesh(verts, cells)


def _reject_duplicate_sites(sites):
    dist, _ = cKDTree(sites).query(sites, k=2)
    if dist[:, 1].min() < 1e-12:
        raise MeshError("degenerate site configuration: duplicate sites")


def _clipped_voronoi(sites):
    """Voronoi cells of ``sites`` clipped to the unit square via mirroring.

    Returns ``(loops, starts, vertices)``: the CCW vertex-index loops of all
    cells in one flat array, cell ``c`` starting at ``starts[c]``.
    """
    mirrors = [
        np.column_stack([-sites[:, 0], sites[:, 1]]),
        np.column_stack([2.0 - sites[:, 0], sites[:, 1]]),
        np.column_stack([sites[:, 0], -sites[:, 1]]),
        np.column_stack([sites[:, 0], 2.0 - sites[:, 1]]),
    ]
    vor = Voronoi(np.vstack([sites] + mirrors))
    regions = [vor.regions[r] for r in vor.point_region[: len(sites)]]
    lens = np.array([len(r) for r in regions])
    loops = np.fromiter(itertools.chain.from_iterable(regions), np.intp, lens.sum())
    cell = np.repeat(np.arange(len(sites)), lens)
    bad = (lens < 3) | (np.bincount(cell, loops < 0, len(sites)) > 0)
    if bad.any():
        site = np.argmax(bad)
        raise MeshError(f"site {site}: unbounded Voronoi region despite mirroring")
    # bincount sums each cell's points in turn, the order of mean(axis=0)
    pts = vor.vertices[loops]
    center = np.column_stack([np.bincount(cell, p) for p in pts.T]) / lens[:, None]
    d = pts - center[cell]
    order = np.lexsort((np.arctan2(d[:, 1], d[:, 0]), cell))
    return loops[order], np.cumsum(lens) - lens, vor.vertices


def _loop_centroids(loops, starts, verts):
    """Area centroids of the flat CCW loops from ``_clipped_voronoi``.

    One shoelace over all loops; each cell's sums run from a 0.0 slot ahead
    of its segment, so ``np.add.reduceat`` adds in the order ``np.sum`` uses
    on one cell's terms (sequential below 8 terms, pairwise from 8).
    """
    nxt = np.roll(loops, -1)
    nxt[np.append(starts[1:], len(loops)) - 1] = loops[starts]
    (x, y), (xn, yn) = verts[loops].T, verts[nxt].T
    cross = x * yn - xn * y
    terms = np.insert([cross, (x + xn) * cross, (y + yn) * cross], starts, 0.0, axis=1)
    area, mx, my = np.add.reduceat(terms, starts + np.arange(len(starts)), axis=1)
    return np.column_stack([mx, my]) / (6.0 * (0.5 * area))[:, None]


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

    def __repr__(self):
        return (
            f"RegularityReport(min rho/h={self.min_rho_ratio:.4g}, "
            f"min |e|/h={self.min_edge_ratio:.4g}, "
            f"star-shaped={int(self.star_ok.sum())}/{len(self.star_ok)})"
        )


def check_regularity(mesh):
    """Kernel-based regularity metrics for every cell of ``mesh``.

    A cell without a usable kernel gets a NaN ``rho`` and is not star-shaped.
    """
    polys = [mesh.cell_vertices(c) for c in range(mesh.n_cells)]
    min_edge = np.empty(mesh.n_cells)
    h = np.empty(mesh.n_cells)
    for cells, v in mesh.cell_polygons():
        h[cells] = polygon_diameter(v)
        edges = edge_vectors(v)
        min_edge[cells] = np.hypot(edges[..., 0], edges[..., 1]).min(axis=1)
    _, rho, _ = kernel_balls(polys)
    return RegularityReport(rho, min_edge, h, ~np.isnan(rho))


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
        lines.append("    [" + ", ".join(map(str, cell.tolist())) + f"]{comma}")
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


def _is_coordinate(x):
    """A finite number: not a boolean, null, NaN, an infinity or beyond the float range."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def read_mesh(path):
    """Read a mesh file, validating every mesh invariant."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise MeshFormatError(f"{path}: expected a JSON object")
    for key in ("vertices", "cells", "boundary_labels"):
        if key not in data:
            raise MeshFormatError(f"{path}: missing key {key!r}")
        if not isinstance(data[key], list):
            raise MeshFormatError(f"{path}: {key!r} must be a list")
    for i, v in enumerate(data["vertices"]):
        if not (isinstance(v, list) and len(v) == 2 and all(map(_is_coordinate, v))):
            raise MeshFormatError(f"{path}: vertex {i} must be a pair of finite numbers, not {v!r}")
    for i, cell in enumerate(data["cells"]):
        if not isinstance(cell, list) or not all(map(is_integer, cell)):
            raise MeshFormatError(f"{path}: cell {i} must be a list of integers")
    labels = {}
    for i, item in enumerate(data["boundary_labels"]):
        if not (isinstance(item, dict) and is_integer(item.get("cell"))
                and is_integer(item.get("edge")) and isinstance(item.get("label"), str)):
            raise MeshFormatError(f"{path}: bad boundary label entry {i}: {item!r}")
        labels[(item["cell"], item["edge"])] = item["label"]
    try:
        mesh = PolyMesh(np.asarray(data["vertices"], dtype=float), data["cells"], labels)
    except MeshError as exc:
        raise MeshFormatError(f"{path}: {exc}") from None
    return mesh
