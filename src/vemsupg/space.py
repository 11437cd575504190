"""Local virtual element spaces: DOF layout and computable projectors.

The local space of order k with enhancement increment ell keeps the standard
VEM degrees of freedom (vertex values, k-1 Gauss-Lobatto values per edge,
scaled moments up to degree k-2) while constraining higher moments to match
the H1-type projection.  That makes the following matrices computable from
DOFs alone:

* ``pinabla_coeff``  DOFs -> P_k coefficients of the H1 projection,
* ``moments``        DOFs -> all L2 moments up to degree k+ell,
* ``pizero_scalar``  DOFs -> P_n coefficients of the L2 projection, n <= k+ell,
* ``pizero_grad``    DOFs -> [P_n]^2 coefficients of the projected gradient,
  n <= k+ell-1.

A space evaluates its degree k+ell monomials once at the volume points, for
the mass matrix ``h_full``, and once at the edge points, for the H1 projector
and for ``edge_flux``: the boundary terms (m_a n_x, phi_i) and (m_a n_y, phi_i)
of every |a| <= k+ell-1, contracted once with the DOF traces.  The graded
order puts lower degrees first: projectors read leading blocks.
"""

import functools

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

from .basis import (
    MonomialBasis,
    eval_basis,
    grad_map,
    laplace_map,
    mass_matrix,
    poly_dim,
)
from .errors import ElementQualityError
from .quadrature import gauss_lobatto_interior

_RCOND_MIN = 1e-14


def _checked_solve(mat, rhs, what, cell):
    """Solve ``mat @ x = rhs`` (rhs (n, m)) by one LU factorization.

    Raises ElementQualityError naming ``cell`` when a pivot is zero or LAPACK's
    1-norm reciprocal-condition estimate is non-finite or below ``_RCOND_MIN``.
    """
    lu, piv, info = dgetrf(mat)
    rcond = dgecon(lu, np.abs(mat).sum(axis=0).max())[0] if info == 0 else 0.0
    if not (np.isfinite(rcond) and rcond >= _RCOND_MIN):
        raise ElementQualityError(f"singular {what} system (rcond={rcond:.3e})", cell)
    return dgetrs(lu, piv, rhs)[0]


def _gram_solve(gram, rhs, what, cell):
    """Solve against an SPD Gram matrix with Jacobi equilibration.

    Scaled monomials of high degree produce badly conditioned Gram matrices;
    normalizing rows/columns by the diagonal (unit L2 mass) restores most of
    the lost accuracy.  The conditioning guard applies to the equilibrated
    matrix, where a failure indicates true element degeneracy.
    """
    d = np.sqrt(np.diag(gram))
    if not np.all(d > 0.0):
        raise ElementQualityError(f"non-positive {what} diagonal", cell)
    scaled = gram / np.outer(d, d)
    return _checked_solve(scaled, rhs / d[:, None], what, cell) / d[:, None]


class DofLayout:
    """Numbering of the local DOFs for a polygon with ``n_vertices`` vertices.

    Order: vertex values, then k-1 edge-internal values per edge (ascending
    along the CCW edge direction), then scaled moments in graded-lex order.
    The first ``n_nodes`` DOFs are point values at ``nodes``.  Layouts are
    shared through ``dof_layout``, so their arrays and tables are read-only.
    """

    def __init__(self, n_vertices, k):
        if k < 1:
            raise ValueError("order must be >= 1")
        self.k = k
        self.n_vertices = n_vertices
        self.n_nodes = n_vertices * k
        self.n_moments = poly_dim(k - 2)
        self.n_dofs = self.n_nodes + self.n_moments
        self.edge_internal_params = gauss_lobatto_interior(k)
        # trace interpolation nodes on [0, 1] for one edge
        self.trace_params = np.concatenate([[0.0], self.edge_internal_params, [1.0]])
        self.trace_params.flags.writeable = False
        self._traces = {}  # edge-trace tables by the bytes of their params

    def nodes(self, vertices):
        """Vertices, then each edge's internal nodes: the (n_nodes, 2) DOF nodes."""
        v = np.asarray(vertices, dtype=float)
        d = np.concatenate([v[1:], v[:1]]) - v
        internal = v[:, None, :] + self.edge_internal_params[:, None] * d[:, None, :]
        return np.vstack([v, internal.reshape(-1, 2)])

    def edge_traces(self, params):
        """(n_vertices, n, n_dofs) map from DOFs to each edge's trace at ``params``.

        Entry [e, j] gives the trace on edge e at the parameter ``params[j]``
        in [0, 1] along the CCW edge direction.  The table is built once per
        set of ``params`` (in the solver, once per edge rule) and is read-only.
        """
        params = np.atleast_1d(np.asarray(params, dtype=float))
        key = params.tobytes()
        if key not in self._traces:
            vals = lagrange_values(self.trace_params, params)
            nv, k = self.n_vertices, self.k
            e = np.arange(nv)[:, None]
            # DOFs of each edge's k+1 trace nodes, in trace-node order
            cols = np.hstack([e, nv + (k - 1) * e + np.arange(k - 1), (e + 1) % nv])
            out = np.zeros((nv, len(vals), self.n_dofs))
            out[e[:, :, None], np.arange(len(vals))[:, None], cols[:, None, :]] = vals
            out.flags.writeable = False
            self._traces[key] = out
        return self._traces[key]


@functools.lru_cache(maxsize=None)
def dof_layout(n_vertices, k):
    """The shared ``DofLayout`` of an ``n_vertices``-gon at order k."""
    return DofLayout(n_vertices, k)


def lagrange_values(nodes, params):
    """Values of the Lagrange basis on ``nodes`` at ``params``; shape (np, nn)."""
    nodes = np.asarray(nodes, dtype=float)
    params = np.atleast_1d(np.asarray(params, dtype=float))
    out = np.ones((len(params), len(nodes)))
    for j in range(len(nodes)):
        for i in range(len(nodes)):
            if i != j:
                out[:, j] *= (params - nodes[i]) / (nodes[j] - nodes[i])
    return out


def enhancement_degrees(k, ell):
    """Moment degrees constrained through the H1 projection.

    The remaining moments (degrees <= k-2 when k >= 2) are genuine DOFs; the
    exclusive lower bound keeps the DOF set unisolvent.  For k = 1 every
    degree from 0 to 1+ell is constrained.
    """
    lo = k - 1 if k >= 2 else 0
    return range(lo, k + ell + 1)


def build_pinabla(geom, k, h_full, edge_vals):
    """H1-type projector of order k, from the leading blocks of ``h_full``/``edge_vals``.

    Returns (coeff, dof_form, basis) where ``coeff`` maps DOFs to P_k
    coefficients and ``dof_form`` maps DOFs to the DOFs of the projected
    polynomial.  The Gram system is augmented by the boundary mean (k = 1)
    or the cell mean (k > 1).
    """
    layout = dof_layout(geom.n_vertices, k)
    basis = MonomialBasis(geom, k)
    n = layout.n_dofs
    nk, nkm1 = poly_dim(k), poly_dim(k - 1)

    # stiffness Gram via exact derivative maps
    h_km1 = h_full[:nkm1, :nkm1]
    dx, dy = grad_map(basis)
    gram = dx.T @ h_km1 @ dx + dy.T @ h_km1 @ dy

    # right-hand sides by integration by parts, all edge points at once
    w = geom.edge_weights.reshape(-1)
    traces = layout.edge_traces(geom.edge_params).reshape(-1, n)
    nw = (geom.edge_normals[:, None, :] * geom.edge_weights[..., None]).reshape(-1, 2)
    mvals = edge_vals[:nkm1]
    rhs = ((dx.T @ mvals) * nw[:, 0] + (dy.T @ mvals) * nw[:, 1]) @ traces
    if k >= 2:
        rhs[:, layout.n_nodes :] -= geom.area * laplace_map(basis).T

    # mean condition replaces the constant row
    h_k = h_full[:nk, :nk]
    if k == 1:
        gram[0, :] = edge_vals[:nk] @ w / geom.perimeter
        rhs[0, :] = w @ traces / geom.perimeter
    else:
        gram[0, :] = h_k[0, :] / geom.area
        rhs[0, :] = 0.0
        rhs[0, layout.n_nodes] = 1.0

    coeff = _checked_solve(gram, rhs, "projector Gram", geom.cell)

    # DOFs of the projected polynomial
    nodal = eval_basis(basis, layout.nodes(geom.vertices)).T
    dof_of_poly = np.vstack([nodal, h_k[: layout.n_moments] / geom.area])
    return coeff, dof_of_poly @ coeff, basis


def build_moments(geom, k, ell, pinabla_coeff, h_full):
    """Moments (phi_i, m_a) for all |a| <= k + ell, from the degree k+ell mass matrix.

    Low-degree rows come straight from the moment DOFs; the constrained
    degrees use the enhancement property through the H1 projection.
    """
    layout = dof_layout(geom.n_vertices, k)
    moments = np.zeros((len(h_full), layout.n_dofs))
    moments[: layout.n_moments, layout.n_nodes :] = geom.area * np.eye(layout.n_moments)
    lo = poly_dim(enhancement_degrees(k, ell).start - 1)  # equals n_moments
    moments[lo:] = h_full[lo:, : poly_dim(k)] @ pinabla_coeff
    return moments


def build_pizero_scalar(n, moments, h_full, cell=None):
    """L2 projector onto P_n from the moment matrix (requires n <= k + ell)."""
    m = poly_dim(n)
    if m > moments.shape[0]:
        raise ValueError("moments not built to the requested degree")
    return _gram_solve(h_full[:m, :m], moments[:m, :], "mass", cell)


def build_pizero_grad(geom, k, ell, moments, h_full, edge_flux, degree):
    """L2 projection of the gradient onto [P_degree]^2, degree <= k + ell - 1.

    Both components are assembled by parts: the interior term uses the
    moment matrix, the boundary term the leading rows of ``edge_flux``.  One
    solve against the degree mass block serves the stacked right-hand sides.
    Returns (gx, gy), each mapping DOFs to P_degree coefficients.
    """
    if degree > k + ell - 1:
        raise ValueError("gradient projection degree exceeds k + ell - 1")
    mg, n = poly_dim(degree), moments.shape[1]
    dx, dy = grad_map(MonomialBasis(geom, degree))
    low = moments[: poly_dim(degree - 1)]
    rhs = edge_flux[:mg] - np.hstack([dx.T @ low, dy.T @ low])
    g = _gram_solve(h_full[:mg, :mg], rhs, "vector mass", geom.cell)
    return g[:, :n], g[:, n:]


class LocalSpace:
    """All computable projector matrices of one element for fixed (k, ell)."""

    def __init__(self, geom, k, ell):
        if ell < 0:
            raise ValueError("enhancement increment must be >= 0")
        need = 2 * (k + ell)
        if geom.exact_degree < need:
            raise ValueError(
                f"geometry quadrature exact to {geom.exact_degree}, "
                f"order {k} with increment {ell} needs {need}"
            )
        self.geom = geom
        self.k = k
        self.ell = ell
        self.layout = dof_layout(geom.n_vertices, k)
        # the degree k+ell monomials, evaluated once per point set
        basis_full = MonomialBasis(geom, k + ell)
        self.h_full = mass_matrix(basis_full)
        edge_vals = eval_basis(basis_full, geom.edge_points.reshape(-1, 2))
        self.pinabla_coeff, self.pinabla_dof, self.basis_k = build_pinabla(
            geom, k, self.h_full, edge_vals
        )
        self.moments = build_moments(geom, k, ell, self.pinabla_coeff, self.h_full)
        # [(m_a n_x, phi_i) | (m_a n_y, phi_i)] on the boundary, |a| <= k+ell-1
        traces = self.layout.edge_traces(geom.edge_params).reshape(-1, self.n_dofs)
        nw = (geom.edge_normals[:, None, :] * geom.edge_weights[..., None]).reshape(-1, 2)
        mvals = edge_vals[: poly_dim(k + ell - 1)]
        self.edge_flux = np.hstack([(mvals * nw[:, 0]) @ traces, (mvals * nw[:, 1]) @ traces])
        self._pizero_scalar = {}
        self._pizero_grad = {}

    @property
    def n_dofs(self):
        return self.layout.n_dofs

    def pizero_scalar(self, n):
        if n not in self._pizero_scalar:
            self._pizero_scalar[n] = build_pizero_scalar(
                n, self.moments, self.h_full, self.geom.cell
            )
        return self._pizero_scalar[n]

    def pizero_grad(self, degree):
        if degree not in self._pizero_grad:
            self._pizero_grad[degree] = build_pizero_grad(
                self.geom, self.k, self.ell, self.moments, self.h_full, self.edge_flux, degree
            )
        return self._pizero_grad[degree]

    def mass_block(self, n):
        """Gram matrix of the monomials up to degree n (principal block)."""
        m = poly_dim(n)
        return self.h_full[:m, :m]

    def polynomial_dofs(self, coeffs):
        """Exact DOF vector of a polynomial given by P_k coefficients."""
        layout = self.layout
        nodal = coeffs @ eval_basis(self.basis_k, layout.nodes(self.geom.vertices))
        moments = self.h_full[: layout.n_moments, : self.basis_k.dim] @ coeffs
        return np.concatenate([nodal, moments / self.geom.area])

    def interpolate(self, func):
        """DOF vector of a smooth function (vertex/edge values, quadrature moments)."""
        geom, layout = self.geom, self.layout
        dofs = np.zeros(layout.n_dofs)
        dofs[: layout.n_nodes] = func(layout.nodes(geom.vertices))
        if layout.n_moments:
            fvals = func(geom.quad_points)
            basis_m = MonomialBasis(geom, self.k - 2)
            mvals = eval_basis(basis_m, geom.quad_points)
            dofs[layout.n_nodes :] = (mvals @ (geom.quad_weights * fvals)) / geom.area
        return dofs
