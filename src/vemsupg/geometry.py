"""Polygon geometry: kernels, star centers, and per-element quadrature.

An element's star center is the Chebyshev center of its kernel (the set of
points that see the whole boundary), so concave star-shaped cells are handled
the same way as convex ones.  All element integrals run over a fan
sub-triangulation rooted at that center.  Centers are computed for many
polygons at once: the polygons a solve places for the first time are
checked in arrays, one per vertex count (a convex polygon is its own kernel,
any other is clipped), and one sparse block-diagonal Chebyshev-center LP is
solved per chunk of ``assemble.CHUNK`` kernels.  A single polygon is a
chunk of one.  Element geometry is built the same way, for a stack of
polygons with one vertex count at once.
"""

import copy

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from .assemble import CHUNK
from .errors import ElementQualityError, first_failure
from .quadrature import edge_rule, map_rule_to_triangle, triangle_rule

_KERNEL_EPS = 1e-12


def polygon_signed_area(vertices):
    """Shoelace signed area of polygons (..., nv, 2); positive for counter-clockwise order."""
    v = np.asarray(vertices, dtype=float)
    nxt = np.concatenate([v[..., 1:, :], v[..., :1, :]], axis=-2)
    return 0.5 * np.sum(v[..., 0] * nxt[..., 1] - nxt[..., 0] * v[..., 1], axis=-1)


def polygon_diameter(vertices):
    """Largest vertex-to-vertex distance of polygons (..., nv, 2)."""
    v = np.asarray(vertices, dtype=float)
    diff = v[..., :, None, :] - v[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1).max(axis=(-2, -1)))


def polygon_is_simple(vertices):
    """For polygons (..., nv, 2): no two non-adjacent edges cross (touching is not crossing)."""
    v = np.asarray(vertices, dtype=float)
    n = v.shape[-2]
    i, j = np.triu_indices(n, 2)
    i, j = i[(j + 1) % n != i], j[(j + 1) % n != i]  # edges i and j share no vertex
    p, q, r, s = v[..., i, :], v[..., (i + 1) % n, :], v[..., j, :], v[..., (j + 1) % n, :]

    def cross(u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    crossing = (cross(q - p, r - p) * cross(q - p, s - p) < 0) & (
        cross(s - r, p - r) * cross(s - r, q - r) < 0)
    return ~crossing.any(axis=-1)


def edge_vectors(vertices):
    """Edge vectors of polygons (..., nv, 2): edge e runs from vertex e to vertex e + 1."""
    return np.roll(vertices, -1, axis=-2) - vertices


def _convex(vertices):
    """Which polygons (C, nv, 2) have positive area and no right turn: each is its own kernel."""
    d = edge_vectors(vertices)
    nd = np.roll(d, -1, axis=-2)
    turns = d[..., 0] * nd[..., 1] - d[..., 1] * nd[..., 0]
    return (turns >= 0.0).all(axis=-1) & (polygon_signed_area(vertices) > 0.0)


def _clipped_kernel(vertices):
    """Kernel of a CCW polygon by half-plane clipping of its bounding box, or None."""
    v = np.asarray(vertices, dtype=float)
    lo, hi = v.min(axis=0), v.max(axis=0)
    pad = 0.5 * max(hi - lo)
    (x0, y0), (x1, y1) = lo - pad, hi + pad
    poly = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    scale = polygon_diameter(v)
    for a, d in zip(v, edge_vectors(v)):
        poly = _clip_half_plane(poly, a, d, scale)
        if poly is None:
            return None
    return poly


def _clip_half_plane(poly, a, d, scale):
    """Clip convex ``poly`` to the half-plane left of the ray a + t*d."""
    cut = -_KERNEL_EPS * scale * np.hypot(*d)
    rel = poly - a
    side = d[0] * rel[:, 1] - d[1] * rel[:, 0]
    j = np.roll(np.arange(len(poly)), -1)
    cross = ((side > cut) & (cut > side[j])) | ((side[j] > cut) & (cut > side))
    i = np.flatnonzero(cross)
    t = (side[i] - cut) / (side[i] - side[j[i]])
    out = np.repeat(poly, 2, axis=0)  # each vertex, then the crossing of its edge
    out[2 * i + 1] = poly[i] + t[:, None] * (poly[j[i]] - poly[i])
    out = out[np.column_stack([side >= cut, cross]).ravel()]
    return out if len(out) >= 3 else None


def chebyshev_center(kernels):
    """Centers (C, 2) and radii (C,) of the largest circles inscribed in convex polygons.

    One LP for all of them: polygon i's block holds its own rows
    n_e . c_i + r_i <= n_e . a_e (outward unit normals n_e, edge start points
    a_e, r_i >= 0), and the objective is the sum of the radii, so each
    block's optimum is its own polygon's.  The rows of all polygons are
    formed at once, and the block-diagonal matrix is passed sparse.
    """
    sizes = np.array([len(v) for v in kernels])
    v = np.concatenate(kernels, dtype=float)
    ends = np.cumsum(sizes)
    nxt = np.arange(1, len(v) + 1)
    nxt[ends - 1] = ends - sizes
    d = v[nxt] - v
    ln = np.hypot(d[:, 0], d[:, 1])
    keep = ln != 0.0
    nrm = np.column_stack([d[keep, 1], -d[keep, 0]]) / ln[keep, None]  # outward for CCW
    cols = 3 * np.repeat(np.arange(len(kernels)), sizes)[keep, None] + np.arange(3)
    a_ub = csr_array((np.column_stack([nrm, np.ones(len(nrm))]).ravel(), cols.ravel(),
                      np.arange(0, cols.size + 1, 3)), shape=(len(nrm), 3 * len(kernels)))
    a_ub.eliminate_zeros()  # as a dense matrix would be read
    res = linprog(
        c=np.tile([0.0, 0.0, -1.0], len(kernels)),
        A_ub=a_ub,
        b_ub=np.vecdot(nrm, v[keep]),
        bounds=np.tile([[-np.inf, np.inf], [-np.inf, np.inf], [0.0, np.inf]], (len(kernels), 1)),
        method="highs",
    )
    if not res.success:
        raise ElementQualityError(f"Chebyshev center LP failed: {res.message}")
    x = res.x.reshape(-1, 3)
    return x[:, :2].copy(), x[:, 2].copy()


def kernel_balls(polys):
    """Kernel Chebyshev centers (C, 2) and radii (C,) of CCW polygons, NaN where none.

    Polygons are checked in stacks of one vertex count; only the non-convex
    ones are clipped.  The centers of the non-empty kernels, in polygon
    order, come from one ``chebyshev_center`` LP per chunk of CHUNK.
    Returns the centers, the radii and, for each polygon without a usable
    kernel, its index mapped to the reason: non-finite vertex coordinates, a
    zero-length edge (two consecutive vertices at one point), an empty
    kernel, a degenerate one (radius at most 1e-12 of the diameter), or a
    failed LP, which marks every polygon of its chunk.
    """
    centers = np.full((len(polys), 2), np.nan)
    radii = np.full(len(polys), np.nan)
    diameters = np.full(len(polys), np.nan)
    reasons = np.full(len(polys), "", dtype=object)
    kernels = {}
    n_v = np.array([len(v) for v in polys], dtype=int)
    for nv in np.unique(n_v):
        at = np.flatnonzero(n_v == nv)
        v = np.array([polys[i] for i in at], dtype=float)
        finite = np.isfinite(v).all(axis=(1, 2))
        reasons[at[~finite]] = "non-finite vertex coordinates"
        at, v = at[finite], v[finite]
        short = (edge_vectors(v) == 0.0).all(axis=2).any(axis=1)
        reasons[at[short]] = "zero-length edge"
        at, v = at[~short], v[~short]
        diameters[at] = polygon_diameter(v)
        convex = _convex(v)
        kernels.update(zip(at[convex].tolist(), v[convex]))
        kernels.update(zip(at[~convex].tolist(), map(_clipped_kernel, v[~convex])))
    placed = sorted(i for i, kernel in kernels.items() if kernel is not None)
    reasons[list(kernels.keys() - set(placed))] = "polygon is not star-shaped (empty kernel)"
    for start in range(0, len(placed), CHUNK):
        at = placed[start : start + CHUNK]
        try:
            centers[at], radii[at] = chebyshev_center([kernels[i] for i in at])
        except ElementQualityError as exc:
            reasons[at] = str(exc)
    degenerate = radii <= _KERNEL_EPS * diameters
    reasons[degenerate] = "polygon kernel is degenerate"
    centers[degenerate], radii[degenerate] = np.nan, np.nan
    return centers, radii, {i: reasons[i] for i in np.flatnonzero(reasons).tolist()}


def star_centers(polys, cells):
    """Kernel Chebyshev centers (C, 2) and kernel-ball radii (C,) of star-shaped polygons.

    ``cells`` holds the cell id of each polygon.  Raises ElementQualityError
    naming the lowest cell whose kernel is empty or degenerate, or whose
    chunk's LP failed.
    """
    centers, radii, faults = kernel_balls(polys)
    if faults:
        failed = np.zeros(len(polys), dtype=bool)
        failed[list(faults)] = True
        i, cell = first_failure(failed, cells)
        raise ElementQualityError(faults[i], cell)
    return centers, radii


class ElementGeometry:
    """Geometric data and quadrature of a stack of polygons with one vertex count.

    ``vertices`` (C, nv, 2) gives a stack of C cells, and every per-cell
    attribute below then carries a leading cell axis.  ``vertices`` (nv, 2)
    gives one cell: the cell-0 view of a stack of one.  ``geom[i]`` is the
    view of cell i, ``geom[index]`` for an index array the stack of those
    cells; their arrays are views or copies of the stack's.

    Per-cell attributes
    -------------------
    vertices : (nv, 2) array, CCW
    cell : cell id, or None
    h : diameter
    area : polygon area
    perimeter : boundary length
    star_center : kernel Chebyshev center (x_E, y_E)
    kernel_radius : inscribed-circle radius of the kernel
    edge_normals : (nv, 2) outward unit normals, edge e from vertex e to e+1
    triangles : (nv, 3, 2) fan sub-triangulation from the star center
    quad_points, quad_weights : (nv * nq, 2) and (nv * nq,) volume rule,
        exact to ``exact_degree``, triangle by triangle
    edge_points : (nv, n_edge_points, 2) Gauss points, edge e from vertex e
        to vertex e+1
    edge_weights : (nv, n_edge_points) Gauss weights, summing to each length

    Shared: ``n_vertices``, ``exact_degree``, ``n_edge_points`` and
    ``edge_params``, the (n_edge_points,) Gauss nodes in [0, 1].

    ``cell`` gives the cell id of each polygon (one id for one polygon), and
    ``center`` optionally the known (star centers, kernel radii), so that
    geometries of one polygon at several quadrature degrees share a single
    kernel and Chebyshev-center computation.
    """

    PER_CELL = frozenset(["vertices", "cell", "h", "area", "perimeter", "star_center",
                          "kernel_radius", "edge_normals", "triangles", "quad_points",
                          "quad_weights", "edge_points", "edge_weights"])

    def __init__(self, vertices, exact_degree, n_edge_points, cell=None, center=None):
        v = np.asarray(vertices, dtype=float)
        one = v.ndim == 2
        if one:
            v, cell = v[None], [cell]
            if center is not None:
                center = np.asarray(center[0], dtype=float)[None], np.array([center[1]])
        cells = np.empty(len(v), dtype=object)
        cells[:] = [None] * len(v) if cell is None else list(cell)
        if v.shape[1] < 3:
            raise ElementQualityError("polygon needs at least 3 vertices",
                                      first_failure(np.ones(len(v), dtype=bool), cells)[1])
        area = polygon_signed_area(v)
        if (area <= 0.0).any():
            raise ElementQualityError("polygon is not counter-clockwise",
                                      first_failure(area <= 0.0, cells)[1])
        self.cell = cells
        self.vertices = v
        self.n_vertices = v.shape[1]
        self.area = area
        self.h = polygon_diameter(v)
        if center is None:
            center = star_centers(list(v), cells)
        self.star_center, self.kernel_radius = (np.asarray(a, dtype=float) for a in center)
        self.exact_degree = int(exact_degree)
        self.n_edge_points = int(n_edge_points)

        nxt = np.concatenate([v[:, 1:], v[:, :1]], axis=1)
        tang = nxt - v
        lengths = np.hypot(tang[..., 0], tang[..., 1])
        unit = tang / lengths[..., None]
        self.edge_normals = np.stack([unit[..., 1], -unit[..., 0]], axis=-1)
        self.perimeter = lengths.sum(axis=-1)

        self.triangles = np.stack(
            [np.broadcast_to(self.star_center[:, None, :], v.shape), v, nxt], axis=2
        )
        pts, wts = map_rule_to_triangle(
            *triangle_rule(self.exact_degree), self.triangles
        )
        self.quad_points = pts.reshape(len(v), -1, 2)
        self.quad_weights = wts.reshape(len(v), -1)
        self.edge_points, self.edge_weights, self.edge_params = edge_rule(
            v, nxt, self.n_edge_points
        )
        if one:
            self.__dict__.update(self[0].__dict__)

    def __getitem__(self, at):
        """Cell ``at`` (an int) as a one-cell geometry, or cells ``at`` (an index array) as a stack."""
        out = object.__new__(type(self))
        out.__dict__ = {name: value[at] if name in self.PER_CELL else value
                        for name, value in self.__dict__.items()}
        return out

    def as_stack(self):
        """This geometry with a leading cell axis: a one-cell geometry becomes a stack of one."""
        if np.ndim(self.h):
            return self
        out = copy.copy(self)
        for name in self.PER_CELL:
            setattr(out, name, np.asarray(getattr(self, name))[None])
        out.cell = np.empty(1, dtype=object)
        out.cell[0] = self.cell
        return out
