"""Independent reference computations used to freeze expected test values.

Everything here is deliberately built from first principles (closed-form
simplex integrals, multinomial expansions, finite differences) and shares no
code path with the library's quadrature or projector machinery.
"""

import math

import numpy as np


def triangle_monomial_integral(tri, p, q, center=(0.0, 0.0), scale=1.0):
    """Exact signed integral of ((x-cx)/h)^p ((y-cy)/h)^q over a triangle.

    Uses the affine map to the unit simplex, binomial expansion, and the
    closed form  int_simplex u^m v^n = m! n! / (m+n+2)!.
    """
    v0, v1, v2 = [np.asarray(v, dtype=float) for v in tri]
    cx, cy = center
    a = v1 - v0
    b = v2 - v0
    det = a[0] * b[1] - a[1] * b[0]
    t1 = (v0[0] - cx) / scale
    t2 = (v0[1] - cy) / scale
    a1, b1 = a[0] / scale, b[0] / scale
    a2, b2 = a[1] / scale, b[1] / scale
    total = 0.0
    for i1 in range(p + 1):
        for j1 in range(p - i1 + 1):
            c_x = (
                math.comb(p, i1)
                * math.comb(p - i1, j1)
                * t1 ** (p - i1 - j1)
                * a1**i1
                * b1**j1
            )
            if c_x == 0.0:
                continue
            for i2 in range(q + 1):
                for j2 in range(q - i2 + 1):
                    c_y = (
                        math.comb(q, i2)
                        * math.comb(q - i2, j2)
                        * t2 ** (q - i2 - j2)
                        * a2**i2
                        * b2**j2
                    )
                    if c_y == 0.0:
                        continue
                    m = i1 + i2
                    n = j1 + j2
                    simplex = (
                        math.factorial(m)
                        * math.factorial(n)
                        / math.factorial(m + n + 2)
                    )
                    total += c_x * c_y * simplex
    return det * total


def polygon_monomial_integral(verts, p, q, center=(0.0, 0.0), scale=1.0):
    """Exact integral over a simple polygon via signed fan triangles from v0."""
    verts = np.asarray(verts, dtype=float)
    total = 0.0
    for i in range(1, len(verts) - 1):
        total += triangle_monomial_integral(
            (verts[0], verts[i], verts[i + 1]), p, q, center, scale
        )
    return total


def polygon_monomial_gram(verts, exponents, center, scale):
    """Exact Gram matrix of scaled monomials over a polygon."""
    m = len(exponents)
    h = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            p = exponents[a][0] + exponents[b][0]
            q = exponents[a][1] + exponents[b][1]
            h[a, b] = h[b, a] = polygon_monomial_integral(verts, p, q, center, scale)
    return h


def l2_projection_coeffs(verts, exponents_target, center, scale, func, n_quad=60):
    """L2 projection of ``func`` onto monomials by brute-force dense quadrature.

    Quadrature: midpoint rule on a fine bounding-box grid restricted to the
    polygon (points classified by winding).  Accuracy is limited but
    independent; callers pick tolerances accordingly.
    """
    verts = np.asarray(verts, dtype=float)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n_quad + 1)
    ys = np.linspace(lo[1], hi[1], n_quad + 1)
    xm = 0.5 * (xs[:-1] + xs[1:])
    ym = 0.5 * (ys[:-1] + ys[1:])
    gx, gy = np.meshgrid(xm, ym)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = points_in_polygon(pts, verts)
    pts = pts[inside]
    w = (xs[1] - xs[0]) * (ys[1] - ys[0])
    vals = np.array(
        [
            ((pts[:, 0] - center[0]) / scale) ** a * ((pts[:, 1] - center[1]) / scale) ** b
            for a, b in exponents_target
        ]
    )
    gram = (vals * w) @ vals.T
    rhs = (vals * w) @ func(pts)
    return np.linalg.solve(gram, rhs)


def points_in_polygon(pts, verts):
    """Even-odd rule point-in-polygon test."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < xc)
    return inside


class Poly2:
    """Tiny independent bivariate polynomial algebra in shifted coordinates.

    Terms map exponent pairs of (x - cx, y - cy) to coefficients; integration
    over polygons goes through the closed-form simplex formulas above.
    """

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def from_scaled_coeffs(cls, coeffs, exponents, scale):
        terms = {}
        for c, (a, b) in zip(coeffs, exponents):
            if c != 0.0:
                terms[(a, b)] = terms.get((a, b), 0.0) + c / scale ** (a + b)
        return cls(terms)

    def dx(self):
        return Poly2(
            {(a - 1, b): a * c for (a, b), c in self.terms.items() if a > 0}
        )

    def dy(self):
        return Poly2(
            {(a, b - 1): b * c for (a, b), c in self.terms.items() if b > 0}
        )

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly2({k: other * c for k, c in self.terms.items()})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return Poly2(out)

    def integrate(self, verts, center):
        return sum(
            c * polygon_monomial_integral(verts, a, b, center, 1.0)
            for (a, b), c in self.terms.items()
        )


def directional(poly_x, poly_y, beta):
    return poly_x * beta[0] + poly_y * beta[1]


def fd_gradient(func, pts, step=1e-6):
    """Central finite-difference gradient of a scalar callable."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    gx = (func(pts + ex) - func(pts - ex)) / (2 * step)
    gy = (func(pts + ey) - func(pts - ey)) / (2 * step)
    return np.column_stack([gx, gy])


def fd_laplacian(func, pts, step=1e-4):
    """Second-order finite-difference Laplacian of a scalar callable."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    f0 = func(pts)
    return (
        func(pts + ex) + func(pts - ex) + func(pts + ey) + func(pts - ey) - 4 * f0
    ) / step**2


def hat_pinabla_square_k1():
    """Dense-solve reference: order-1 projection of the first hat on the unit square.

    Builds the 3x3 system for the plane fit explicitly: gradients of the hat
    function integrate by parts to boundary terms only, and the boundary mean
    of the hat is 1/4.  Monomials are centered at (1/2, 1/2), scale sqrt(2).
    """
    h = np.sqrt(2.0)
    # gradient Gram of m_1 = (x-1/2)/h, m_2 = (y-1/2)/h over the square
    g = np.array([[1.0 / h**2, 0.0], [0.0, 1.0 / h**2]])
    # (grad hat, grad m_a) = boundary integral of hat * dm/dn
    # hat = 1 at (0,0), linear on edges (0,0)-(1,0) and (0,1)-(0,0), zero elsewhere
    # dm1/dn: bottom edge n=(0,-1): 0; left edge n=(-1,0): -1/h
    # bottom edge: hat = 1-x; left edge: hat = 1-y (arc from (0,1) to (0,0): hat=y at... )
    # careful: on left edge from (0,1) to (0,0) the hat at (0,y) equals 1-y
    b1 = -(1.0 / h) * 0.5  # integral of hat over left edge = 1/2, times dm1/dn=-1/h
    b2 = -(1.0 / h) * 0.5  # integral over bottom edge of hat times dm2/dn=-1/h
    plane = np.linalg.solve(g, np.array([b1, b2]))
    mean = 0.25  # boundary mean of the hat
    # constant coefficient: mean condition on the boundary
    # boundary mean of m_1: mean of (x-1/2)/h over the perimeter = 0 by symmetry
    return np.array([mean, plane[0], plane[1]])


# -- element-wise monomial maps -------------------------------------------
# Scaled-monomial evaluation and derivative maps written member by member:
# one power per member and one loop over the exponents.  The library builds
# the same numbers from per-order tables; with the same operations on the
# same operands the two agree bit for bit.


def _graded_lex_index(a1, a2):
    d = a1 + a2
    return d * (d + 1) // 2 + a2


def eval_basis_by_member(basis, points):
    """(dim, n) values of the members of ``basis``, each power taken on its own."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xi = (pts[:, 0] - basis.center[0]) / basis.scale
    eta = (pts[:, 1] - basis.center[1]) / basis.scale
    a = basis.exponents
    return xi[None, :] ** a[:, 0, None] * eta[None, :] ** a[:, 1, None]


def grad_map_by_member(basis):
    """(Dx, Dy) coefficient maps P_n -> P_{n-1}, filled one member at a time."""
    rows = basis.order * (basis.order + 1) // 2
    dx = np.zeros((rows, basis.dim))
    dy = np.zeros((rows, basis.dim))
    inv_h = 1.0 / basis.scale
    for col, (a1, a2) in enumerate(basis.exponents):
        if a1 > 0:
            dx[_graded_lex_index(a1 - 1, a2), col] = a1 * inv_h
        if a2 > 0:
            dy[_graded_lex_index(a1, a2 - 1), col] = a2 * inv_h
    return dx, dy


def laplace_map_by_member(basis):
    """Laplacian coefficient map P_n -> P_{n-2}, filled one member at a time."""
    rows = max(basis.order - 1, 0) * basis.order // 2
    lap = np.zeros((rows, basis.dim))
    inv_h2 = 1.0 / basis.scale**2
    for col, (a1, a2) in enumerate(basis.exponents):
        if a1 > 1:
            lap[_graded_lex_index(a1 - 2, a2), col] += a1 * (a1 - 1) * inv_h2
        if a2 > 1:
            lap[_graded_lex_index(a1, a2 - 2), col] += a2 * (a2 - 1) * inv_h2
    return lap


def tilde_c_k_by_schur(basis, h_km1):
    """Largest c with c h^2 |lap p|^2 <= |grad p|^2 over P_k (k > 1).

    Reference for ``forms.tilde_c_k``'s single pencil: the Laplacian kernel
    (harmonic polynomials, found by a 1e-12 relative cut of the Laplacian
    Gram's spectrum) is eliminated by a Schur complement of the gradient
    Gram, and the constant is the smallest eigenvalue of that complement
    against the kept Laplacian eigenvalues.
    """
    from scipy.linalg import eigh

    from vemsupg.basis import grad_map, laplace_map

    if basis.order <= 1:
        raise ValueError("inverse-inequality constant defined only for k > 1")
    dx, dy = grad_map(basis)
    s = dx.T @ h_km1 @ dx + dy.T @ h_km1 @ dy
    lap = laplace_map(basis)
    m = len(lap)  # the degree k-2 mass matrix is the leading block
    l = basis.scale**2 * (lap.T @ h_km1[:m, :m] @ lap)

    lam, vec = eigh(l)
    keep = lam > 1e-12 * lam[-1]
    vr = vec[:, keep]
    vk = vec[:, ~keep]
    s_rr = vr.T @ s @ vr
    s_rk = vr.T @ s @ vk
    s_kk = vk.T @ s @ vk
    schur = s_rr - s_rk @ np.linalg.pinv(s_kk, rcond=1e-12) @ s_rk.T
    mu = eigh(schur, np.diag(lam[keep]), eigvals_only=True)
    return float(mu[0])


# -- per-cell post-processing and per-node boundary data -------------------
# The loops the library ran before it stacked these computations: one cell,
# or one boundary node, at a time.  They call the library's basis functions,
# so they check the grouping, gathering and reduction order, not the basis.


def cell_dofs(dofmap, c):
    """Global DOF indices of cell c, aligned with the local layout."""
    return dofmap.flat[dofmap.offsets[c] : dofmap.offsets[c + 1]]


def stack_chunks(spaces):
    """Chunks of at most CHUNK cells on one stack, as (stack, rows, cells), from one-cell views.

    ``spaces[c]`` is cell c's view into its stack.  Cells are grouped by a
    dict over the views' stacks, in the order of each stack's first cell,
    then ordered by member with a stable sort; the rows rule is that of
    ``harness.CellSpaces.chunks``.
    """
    from vemsupg.assemble import CHUNK

    groups = {}
    for c, space in enumerate(spaces):
        groups.setdefault(space.stack, []).append(c)
    members = np.array([space.index for space in spaces])
    for stack, cells in groups.items():
        cells = np.array(cells)
        cells = cells[np.argsort(members[cells], kind="stable")]
        for start in range(0, len(cells), CHUNK):
            chunk = cells[start : start + CHUNK]
            rows = members[chunk]
            if (rows == rows[0]).all():
                rows = rows[0]
            elif len(rows) == len(stack.h_full) and (rows == np.arange(len(rows))).all():
                rows = slice(None)
            yield stack, rows, chunk


def energy_error_by_cell(spaces, solution, problem):
    """Relative energy-norm error, summed cell by cell in cell order.

    Cell c is ``spaces[c]`` translated by ``spaces.shift[c]``: its quadrature
    points and star center are placed here, one cell at a time, and the
    scaled monomials are formed about the placed center.  Each cell is
    weighted by ``problem.kappa`` and its ``solution.tau``.
    """
    from vemsupg.basis import grad_map, monomial_exponents

    num = 0.0
    den = 0.0
    kappa = problem.kappa
    for c, (space, shift, tau) in enumerate(zip(spaces, spaces.shift, solution.tau)):
        geom = space.geom
        pts = geom.quad_points + shift
        center = geom.star_center + shift
        local = solution.dofs[cell_dofs(solution.reduced.dofmap, c)]
        poly = space.pinabla_coeff @ local
        dx, dy = grad_map(space.basis_k)
        xi, eta = ((pts - center) / geom.h).T
        exps = monomial_exponents(space.k - 1)
        vals = xi ** exps[:, :1] * eta ** exps[:, 1:]
        gh = np.column_stack([vals.T @ (dx @ poly), vals.T @ (dy @ poly)])
        gu = np.asarray(problem.exact_grad(pts), dtype=float)
        bvals = np.asarray(problem.beta(pts), dtype=float)
        w = geom.quad_weights
        diff = gu - gh
        num += kappa * np.sum(w * (diff**2).sum(axis=1))
        num += tau * np.sum(w * (bvals * diff).sum(axis=1) ** 2)
        den += kappa * np.sum(w * (gu**2).sum(axis=1))
        den += tau * np.sum(w * (bvals * gu).sum(axis=1) ** 2)
    return float(np.sqrt(num / den))


def boundary_values_by_node(dofmap, problem):
    """Dirichlet (indices, values) with one Dirichlet call per boundary node.

    Each edge's label is the mesh's, passed through the problem's
    ``boundary_classifier`` when it has one.  A DOF keeps the first offer of
    the lowest label rank, offers coming in ``mesh.boundary_edges`` order:
    start vertex, end vertex, internal nodes.
    """
    from vemsupg.errors import MeshError
    from vemsupg.quadrature import gauss_lobatto_interior

    mesh, n_int = dofmap.mesh, dofmap.n_edge_internal
    params = gauss_lobatto_interior(dofmap.k)
    best = {}

    def offer(dof, rank, value):
        cur = best.get(dof)
        if cur is None or rank < cur[0]:
            best[dof] = (rank, value)

    for c, i in mesh.boundary_edges:
        label = mesh.boundary_labels.get((c, i))
        if label is None:
            raise MeshError(f"boundary edge (cell {c}, edge {i}) has no label")
        cell = mesh.cells[c]
        a, b = cell[i], cell[(i + 1) % len(cell)]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        if problem.boundary_classifier is not None:
            label = problem.boundary_classifier(pa, pb, label)
        g = problem.dirichlet_for(label)
        if g is None:
            raise MeshError(f"no Dirichlet data for boundary label {label!r} (cell {c})")
        rank = problem.label_rank(label)
        offer(a, rank, float(g(pa[None, :])[0]))
        offer(b, rank, float(g(pb[None, :])[0]))
        if n_int:
            e, forward = mesh.cell_edges[c][i]
            vals = np.asarray(g(pa + np.outer(params, pb - pa)), dtype=float)
            base = dofmap.edge_offset + e * n_int
            order = range(n_int)
            for t, v in zip(order if forward else reversed(order), vals):
                offer(base + t, rank, float(v))
    if not best:
        return np.empty(0, dtype=int), np.empty(0)
    idx = np.fromiter(sorted(best), dtype=int)
    return idx, np.array([best[i][1] for i in idx])


def locate_by_boxes(res, pts):
    """``PolyMesh.locate`` by testing every point against every cell's padded box.

    The library's point location before it bucketed the boxes: the same pad,
    side test, tie rule and error, with all point-box pairs of a chunk of
    points in one (points, cells, 2) comparison.  The fan triangles come
    from the solve's spaces, ``stack.geom.triangles`` moved by each cell's
    shift, not from the mesh's ``locate_table``, so the oracle shares no
    table with the library.
    """
    width = int(res.mesh.cell_sizes.max())
    tris = np.empty((res.mesh.n_cells, width, 3, 2))
    for stack, rows, cells in res.spaces.chunks:
        fan = stack.geom.triangles[:, np.arange(width) % stack.geom.n_vertices]
        tris[cells] = fan[rows] + res.spaces.shift[cells][:, None, None]
    lo, hi = tris.min(axis=(1, 2)), tris.max(axis=(1, 2))
    pad = 1e-3 * (hi - lo).max(axis=1, keepdims=True)
    lo, hi = lo - pad, hi + pad

    def cross(a, b, q):
        return (b - a)[..., 0] * (q - a)[..., 1] - (b - a)[..., 1] * (q - a)[..., 0]

    out = np.full(len(pts), -1)
    step = max(1, 2**20 // len(lo))  # bounds the point-by-box table
    for start in range(0, len(pts), step):
        p = pts[start : start + step]
        ip, ic = np.nonzero(((lo <= p[:, None]) & (p[:, None] <= hi)).all(axis=2))
        a, b, c, q = tris[ic, :, 0], tris[ic, :, 1], tris[ic, :, 2], p[ip, None]
        side = np.minimum(np.minimum(cross(a, b, q), cross(b, c, q)), cross(c, a, q))
        hit = np.any(side >= -1e-12, axis=1)
        # pairs run by point, then by increasing cell: keep each point's first
        found, first = np.unique(ip[hit], return_index=True)
        out[start + found] = ic[hit][first]
    if np.any(out < 0):
        raise ValueError(f"point {pts[np.argmax(out < 0)]} is outside the mesh")
    return out


def export_vtk_by_line(solution, mesh, path):
    """``assemble.export_vtk`` formatting numpy scalars one line at a time."""
    lines = [
        "# vtk DataFile Version 3.0",
        "vemsupg solution",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    size = sum(len(c) + 1 for c in mesh.cells)
    lines.append(f"CELLS {mesh.n_cells} {size}")
    for cell in mesh.cells:
        lines.append(" ".join(map(str, [len(cell)] + cell.tolist())))
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["7"] * mesh.n_cells)  # VTK_POLYGON
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    lines.append("SCALARS u_vertex double 1")
    lines.append("LOOKUP_TABLE default")
    for v in solution.dofs[: mesh.n_vertices]:
        lines.append(f"{v:.17g}")
    lines.append(f"CELL_DATA {mesh.n_cells}")
    lines.append("SCALARS u_pi_center double 1")
    lines.append("LOOKUP_TABLE default")
    for v in solution.reconstructions[:, 0]:
        lines.append(f"{v:.17g}")
    lines.append("SCALARS ell int 1")
    lines.append("LOOKUP_TABLE default")
    for e in solution.ell:
        lines.append(str(int(e)))
    lines.append("SCALARS peclet double 1")
    lines.append("LOOKUP_TABLE default")
    for p in solution.peclet:
        lines.append(f"{p:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def interpolate(space, func):
    """DOF vector of a smooth function on a one-cell space.

    Vertex and edge values at the layout's nodes, then the scaled moments
    against the degree k-2 monomials by the cell's volume quadrature.
    """
    from vemsupg.basis import MonomialBasis, eval_basis

    geom, layout = space.geom, space.layout
    dofs = np.zeros(layout.n_dofs)
    dofs[: layout.n_nodes] = func(layout.nodes(geom.vertices))
    if layout.n_moments:
        fvals = func(geom.quad_points)
        mvals = eval_basis(MonomialBasis(geom, space.k - 2), geom.quad_points)
        dofs[layout.n_nodes :] = (mvals @ (geom.quad_weights * fvals)) / geom.area
    return dofs


def refined_solve(matrix, rhs, steps=5):
    """Sparse solve refined ``steps`` times with ``np.longdouble`` residuals.

    The corrections come from scipy's default ``splu`` (COLAMD, partial
    pivoting) of ``matrix``; the residual b - A x is summed in extended
    precision, so the result is accurate to about the double rounding of x.
    """
    import scipy.sparse.linalg as spla

    a = matrix.tocsr()
    lu = spla.splu(a.tocsc())
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    data = a.data.astype(np.longdouble)
    b = np.asarray(rhs, dtype=np.longdouble)
    x = lu.solve(np.asarray(rhs, dtype=float)).astype(np.longdouble)
    for _ in range(steps):
        r = b.copy()
        np.subtract.at(r, rows, data * x[a.indices])
        x += lu.solve(r.astype(float))
    return x.astype(float)


def topology_by_edge(vertices, cells):
    """Edges, cell edge tables, boundary edges and cell areas, one edge at a time.

    Edges are numbered by first use along the cells' loops and stored as
    (low, high) vertex pairs; a cell's table holds each edge's index and
    whether the cell runs along it in ascending vertex order.  An edge with
    one user is a boundary edge, (cell, local edge), in edge order.
    """
    from vemsupg.geometry import polygon_signed_area

    edge_index, edges, users, tables = {}, [], [], []
    for c, cell in enumerate(cells):
        cell = [int(v) for v in cell]
        tables.append([])
        for i, a in enumerate(cell):
            b = cell[(i + 1) % len(cell)]
            key = (a, b) if a < b else (b, a)
            e = edge_index.get(key)
            if e is None:
                e = edge_index[key] = len(edges)
                edges.append(key)
                users.append([])
            users[e].append((c, i))
            tables[-1].append((e, a < b))
    boundary = tuple(used[0] for used in users if len(used) == 1)
    areas = np.array([polygon_signed_area(vertices[list(cell)]) for cell in cells])
    return np.array(edges), [np.array(t, dtype=int) for t in tables], boundary, areas


def polygon_centroid(vertices):
    """Area centroid of a simple polygon (one shoelace per polygon)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    return np.array([cx, cy])


def clipped_voronoi_by_cell(sites):
    """Mirrored Voronoi cells of ``sites`` as a list of CCW index lists."""
    from scipy.spatial import Voronoi

    from vemsupg.errors import MeshError

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


def generate_voronoi_by_cell(n_cells, lloyd_iters=100, seed=0):
    """``generate_voronoi`` with one ``polygon_centroid`` call per cell and step."""
    from vemsupg.mesh import PolyMesh, _compress_vertices, _snap_to_sides

    sites = np.random.default_rng(seed).random((n_cells, 2))
    for _ in range(lloyd_iters):
        cells, verts = clipped_voronoi_by_cell(sites)
        sites = np.array([polygon_centroid(verts[c]) for c in cells])
    cells, verts = clipped_voronoi_by_cell(sites)
    verts, cells = _compress_vertices(_snap_to_sides(verts), cells)
    return PolyMesh(verts, cells)


# -- per-polygon placement ---------------------------------------------------
# Kernels and Chebyshev centers as the library found them before it placed
# polygons in arrays: one polygon at a time, and one dense block-diagonal LP
# per chunk.  A non-convex polygon's kernel is clipped by the library's
# ``_clipped_kernel``.


def polygon_kernel_by_polygon(v):
    """Kernel of a CCW polygon (m, 2): itself if convex (positive area, no right turn)."""
    from vemsupg.geometry import _clipped_kernel, polygon_signed_area

    d = np.concatenate([v[1:], v[:1]]) - v
    nd = np.concatenate([d[1:], d[:1]])
    if np.all(d[:, 0] * nd[:, 1] - d[:, 1] * nd[:, 0] >= 0.0) and polygon_signed_area(v) > 0.0:
        return v
    return _clipped_kernel(v)


def chebyshev_center_by_block_diag(kernels):
    """Centers (C, 2) and radii (C,) of convex polygons from one dense block-diagonal LP."""
    from scipy.linalg import block_diag
    from scipy.optimize import linprog

    from vemsupg.errors import ElementQualityError

    blocks, offsets = [], []
    for v in kernels:
        v = np.asarray(v, dtype=float)
        d = np.concatenate([v[1:], v[:1]]) - v
        ln = np.hypot(d[:, 0], d[:, 1])
        keep = ln != 0.0
        nrm = np.column_stack([d[keep, 1], -d[keep, 0]]) / ln[keep, None]  # outward for CCW
        blocks.append(np.column_stack([nrm, np.ones(len(nrm))]))
        offsets.append(np.vecdot(nrm, v[keep]))
    res = linprog(
        c=np.tile([0.0, 0.0, -1.0], len(blocks)),
        A_ub=block_diag(*blocks),
        b_ub=np.concatenate(offsets),
        bounds=[(None, None), (None, None), (0.0, None)] * len(blocks),
        method="highs",
    )
    if not res.success:
        raise ElementQualityError(f"Chebyshev center LP failed: {res.message}")
    x = res.x.reshape(-1, 3)
    return x[:, :2].copy(), x[:, 2].copy()


def kernel_balls_by_polygon(polys, center=chebyshev_center_by_block_diag):
    """``geometry.kernel_balls`` with one kernel and one set of fault checks per polygon.

    ``center`` solves the LP of each chunk of CHUNK kernels.
    """
    from vemsupg.assemble import CHUNK
    from vemsupg.errors import ElementQualityError
    from vemsupg.geometry import polygon_diameter

    centers = np.full((len(polys), 2), np.nan)
    radii = np.full(len(polys), np.nan)
    faults = {}
    kernels = []
    for i, v in enumerate(polys):
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():
            faults[i] = "non-finite vertex coordinates"
        elif (np.concatenate([v[1:], v[:1]]) == v).all(axis=1).any():
            faults[i] = "zero-length edge"
        elif (kernel := polygon_kernel_by_polygon(v)) is None:
            faults[i] = "polygon is not star-shaped (empty kernel)"
        else:
            kernels.append((i, kernel))
    for start in range(0, len(kernels), CHUNK):
        at, chunk = zip(*kernels[start : start + CHUNK])
        try:
            centers[list(at)], radii[list(at)] = center(chunk)
        except ElementQualityError as exc:
            faults.update(dict.fromkeys(at, str(exc)))
            continue
        for i in at:
            if radii[i] <= 1e-12 * polygon_diameter(polys[i]):
                faults[i] = "polygon kernel is degenerate"
                centers[i], radii[i] = np.nan, np.nan
    return centers, radii, faults


def polygon_is_simple_by_pair(vertices):
    """True if no two non-adjacent edges of the polygon cross, one edge pair at a time."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)

    def cross2(u, w):
        return u[0] * w[1] - u[1] * w[0]

    for i in range(n):
        for j in range(i + 2, n):
            if (j + 1) % n == i:
                continue
            p, q, r, s = v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]
            if (cross2(q - p, r - p) * cross2(q - p, s - p) < 0
                    and cross2(s - r, p - r) * cross2(s - r, q - r) < 0):
                return False
    return True


# -- per-element SUPG coefficients and local forms --------------------------
# The library forms every element's coefficients, matrices and loads in
# stacks (``forms.ShapeForms``).  These are the forms one element at a time,
# split into their terms: the diffusion-streamline form a_h (with the
# baseline's stabilization), the transport form b_h, the SUPG consistency
# form d_h and the load.  They call the library's projectors and basis, so
# they check the stacking and the summation, not the projectors.


class ElementCoefficients:
    """Per-element SUPG data: local velocity bound, Peclet number and tau."""

    def __init__(self, kappa, beta_sup, peclet, tau):
        self.kappa = kappa
        self.beta_sup = beta_sup
        self.peclet = peclet
        self.tau = tau


class LocalForms:
    """Local matrices of one element over its DOF basis."""

    def __init__(self, a, b, d, rhs, stab=None):
        self.a = a
        self.b = b
        self.d = d
        self.rhs = rhs
        self.stab = stab

    @property
    def full(self):
        return self.a + self.b + self.d


def beta_sup(geom, beta):
    """Largest |beta| sampled over the element's volume and edge quadrature."""
    pts = np.vstack([geom.quad_points, geom.edge_points.reshape(-1, 2)])
    vals = np.asarray(beta(pts), dtype=float)
    return float(np.hypot(vals[:, 0], vals[:, 1]).max())


def peclet_tau(geom, kappa, beta_e, k):
    """Element Peclet number and SUPG weight tau.

    Pe = m_k beta_e h / kappa with m_1 = 1/3 and m_k = 2 ``tilde_c_k`` for
    k > 1, the constant taken from the element's own degree-k basis;
    tau = h/(2 beta_e) min(1, Pe).  A vanishing velocity gives (0, 0), which
    turns all streamline terms off.
    """
    from vemsupg.basis import MonomialBasis, mass_matrix
    from vemsupg.forms import _peclet_tau, tilde_c_k

    if kappa <= 0:
        raise ValueError("diffusivity must be positive")
    if k == 1:
        m_k = 1.0 / 3.0
    else:
        m_k = 2.0 * tilde_c_k(MonomialBasis(geom, k), mass_matrix(MonomialBasis(geom, k - 1)))
    pe, tau = _peclet_tau(geom.h, kappa, np.asarray(beta_e, dtype=float), m_k)
    return float(pe), float(tau), float(m_k)


def element_coefficients(geom, problem, k):
    """Bundle beta bound, Peclet number and tau for one element."""
    b_e = beta_sup(geom, problem.beta)
    pe, tau, _ = peclet_tau(geom, problem.kappa, b_e, k)
    return ElementCoefficients(problem.kappa, b_e, pe, tau)


def _beta_at(problem, pts):
    return np.asarray(problem.beta(pts), dtype=float)


def _grad_values(space, degree, pts):
    """Projected-gradient values of every DOF basis function at ``pts``."""
    from vemsupg.basis import MonomialBasis, eval_basis

    gx, gy = space.pizero_grad(degree)
    vals = eval_basis(MonomialBasis(space.geom, degree), pts)
    return vals.T @ gx, vals.T @ gy


def local_a_h(geom, space, coeffs, problem):
    """Diffusion plus streamline-streamline term, no added stabilization."""
    degree = space.k + space.ell - 1
    gx, gy = space.pizero_grad(degree)
    h = space.mass_block(degree)
    a = coeffs.kappa * (gx.T @ h @ gx + gy.T @ h @ gy)
    if coeffs.tau > 0.0:
        bvals = _beta_at(problem, geom.quad_points)
        vx, vy = _grad_values(space, degree, geom.quad_points)
        s = bvals[:, :1] * vx + bvals[:, 1:] * vy
        a = a + coeffs.tau * (s.T @ (geom.quad_weights[:, None] * s))
    return a


def local_b_h(geom, space, coeffs, problem):
    """Transport term tested against the degree k-1 scalar projection."""
    from vemsupg.basis import MonomialBasis, eval_basis

    low = space.k - 1
    proj_v = space.pizero_scalar(low)
    mvals = eval_basis(MonomialBasis(geom, low), geom.quad_points)
    tvals = mvals.T @ proj_v
    bvals = _beta_at(problem, geom.quad_points)
    vx, vy = _grad_values(space, low, geom.quad_points)
    s = bvals[:, :1] * vx + bvals[:, 1:] * vy
    return tvals.T @ (geom.quad_weights[:, None] * s)


def local_d_h(geom, space, coeffs, problem):
    """SUPG consistency term with the Laplacian of the projected gradient."""
    from vemsupg.basis import MonomialBasis, div_map, eval_basis

    n = space.n_dofs
    if coeffs.tau == 0.0 or space.k == 1:
        return np.zeros((n, n))
    low = space.k - 1
    gx, gy = space.pizero_grad(low)
    div = div_map(MonomialBasis(geom, low)) @ np.vstack([gx, gy])
    dvals = eval_basis(MonomialBasis(geom, low - 1), geom.quad_points).T @ div
    bvals = _beta_at(problem, geom.quad_points)
    vx, vy = _grad_values(space, space.k + space.ell - 1, geom.quad_points)
    s = bvals[:, :1] * vx + bvals[:, 1:] * vy
    return -coeffs.tau * coeffs.kappa * (s.T @ (geom.quad_weights[:, None] * dvals))


def local_rhs(geom, space, coeffs, problem):
    """Load vector (f, projected v + tau beta . projected grad v)."""
    from vemsupg.basis import MonomialBasis, eval_basis

    fvals = np.asarray(problem.source(geom.quad_points), dtype=float)
    low = space.k - 1
    proj_v = space.pizero_scalar(low)
    tvals = eval_basis(MonomialBasis(geom, low), geom.quad_points).T @ proj_v
    test = tvals
    if coeffs.tau > 0.0:
        bvals = _beta_at(problem, geom.quad_points)
        vx, vy = _grad_values(space, space.k + space.ell - 1, geom.quad_points)
        test = tvals + coeffs.tau * (bvals[:, :1] * vx + bvals[:, 1:] * vy)
    return test.T @ (geom.quad_weights * fvals)


def sf_forms(geom, space, coeffs, problem):
    """All stabilization-free local forms of one element."""
    return LocalForms(
        a=local_a_h(geom, space, coeffs, problem),
        b=local_b_h(geom, space, coeffs, problem),
        d=local_d_h(geom, space, coeffs, problem),
        rhs=local_rhs(geom, space, coeffs, problem),
    )


def baseline_vem_forms(geom, space, coeffs, problem, sigma=None):
    """Classical VEM-SUPG forms on the standard (ell = 0) space.

    Diffusion and streamline terms use the degree k-1 projected gradient in
    both slots; coercivity comes from the dof-dof stabilization of the H1
    projection residual, scaled by sigma = kappa + tau beta_sup^2.
    """
    if space.ell != 0:
        raise ValueError("baseline forms require the standard space (ell = 0)")
    if sigma is None:
        sigma = coeffs.kappa + coeffs.tau * coeffs.beta_sup**2
    low = space.k - 1
    gx, gy = space.pizero_grad(low)
    h = space.mass_block(low)
    a = coeffs.kappa * (gx.T @ h @ gx + gy.T @ h @ gy)
    if coeffs.tau > 0.0:
        bvals = _beta_at(problem, geom.quad_points)
        vx, vy = _grad_values(space, low, geom.quad_points)
        s = bvals[:, :1] * vx + bvals[:, 1:] * vy
        a = a + coeffs.tau * (s.T @ (geom.quad_weights[:, None] * s))
    resid = np.eye(space.n_dofs) - space.pinabla_dof
    stab = sigma * (resid.T @ resid)
    return LocalForms(
        a=a + stab,
        b=local_b_h(geom, space, coeffs, problem),
        d=local_d_h(geom, space, coeffs, problem),
        rhs=local_rhs(geom, space, coeffs, problem),
        stab=stab,
    )


# -- the probe table, one shape at a time -----------------------------------


def one_shape(shapes, i):
    """Shape i of a ``Placement`` on its own: its first cell, center and radius, at zero shift."""
    from vemsupg.mesh import Placement

    at = slice(i, i + 1)
    return Placement(shapes.cell[at], shapes.center[at], shapes.radius[at],
                     np.zeros(1, dtype=int), np.zeros((1, 2)))


def probe_table_by_shape(families, orders, seed=0, lloyd_iters=100):
    """``harness.probe_table``'s table with every shape probed alone, as a stack of one."""
    from vemsupg.harness import PROBE_MESH_SIZE, generate_mesh, place_shapes, probe_shapes

    table = {}
    for family in families:
        mesh = generate_mesh(family, PROBE_MESH_SIZE[family], seed=seed, lloyd_iters=lloyd_iters)
        shapes = place_shapes(mesh, range(mesh.n_cells))
        for k in orders:
            ells = {}  # vertex count -> probed increments, None where it fails
            for i, c in enumerate(shapes.cell):
                (stacks, _, _), _ = probe_shapes(mesh, one_shape(shapes, i), k)
                ell = stacks[0].ell if stacks else None
                ells.setdefault(len(mesh.cells[c]), []).append(ell)
            for n_v, found in ells.items():
                table[(family, n_v, k)] = "—" if None in found else max(found)
    return table
