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


def energy_error_by_cell(spaces, shifts, solution, problem):
    """Relative energy-norm error, summed cell by cell in cell order.

    Cell c is ``spaces[c]`` translated by ``shifts[c]``: its quadrature
    points and star center are placed here, one cell at a time, and the
    scaled monomials are formed about the placed center.  Each cell is
    weighted by ``problem.kappa`` and its ``solution.tau``.
    """
    from vemsupg.basis import grad_map, monomial_exponents

    num = 0.0
    den = 0.0
    kappa = problem.kappa
    for c, (space, shift, tau) in enumerate(zip(spaces, shifts, solution.tau)):
        geom = space.geom
        pts = geom.quad_points + shift
        center = geom.star_center + shift
        local = solution.dofs[solution.system.dofmap.cell_dofs(c)]
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

    A DOF keeps the first offer of the lowest label rank, offers coming in
    ``mesh.boundary_edges`` order: start vertex, end vertex, internal nodes.
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
        g = problem.dirichlet_for(label)
        if g is None:
            raise MeshError(f"no Dirichlet data for boundary label {label!r} (cell {c})")
        rank = problem.label_rank(label)
        cell = mesh.cells[c]
        a, b = cell[i], cell[(i + 1) % len(cell)]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
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
