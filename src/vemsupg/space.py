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

A space is built for a stack of elements with one vertex count at once, with
batched products and solves; a single element is a stack of one.  It
evaluates its degree k+ell monomials once at the volume points, for the mass
matrix ``h_full``, and once at the edge points, for the H1 projector and for
``edge_flux``: the boundary terms (m_a n_x, phi_i) and (m_a n_y, phi_i) of
every |a| <= k+ell-1, contracted once with the DOF traces.  The graded order
puts lower degrees first: projectors read leading blocks.
"""

import copy
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
from .errors import ElementQualityError, first_failure
from .quadrature import gauss_lobatto_interior

_RCOND_MIN = 1e-14


def _checked_solve(mat, rhs, what, cell):
    """Solve the systems ``mat @ x = rhs``, (..., n, n) and (..., n, m) alike, one LU each.

    ``cell`` holds the cell id of each system, or one for all.  Raises
    ElementQualityError naming the lowest cell whose system has a zero pivot
    or a LAPACK 1-norm reciprocal-condition estimate that is non-finite or
    below ``_RCOND_MIN``.  Every system goes through scipy's ``dgetrf``,
    ``dgecon`` and ``dgetrs``, so a stack gives bit for bit the solutions of
    its systems one by one, each solution in LAPACK's column-major order.
    """
    shape = mat.shape[:-2]
    mats, rhss = mat.reshape(-1, *mat.shape[-2:]), rhs.reshape(-1, *rhs.shape[-2:])
    out = np.empty((len(rhss), rhs.shape[-1], rhs.shape[-2])).mT
    rcond = np.zeros(len(mats))
    norms = np.abs(mats).sum(axis=-2).max(axis=-1)  # 1-norms, one reduction per stack
    for i, (a, b) in enumerate(zip(mats, rhss)):
        lu, piv, info = dgetrf(a)
        if info == 0:
            rcond[i] = dgecon(lu, norms[i])[0]
        if rcond[i] >= _RCOND_MIN:
            out[i] = dgetrs(lu, piv, b)[0]
    failed = ~(rcond >= _RCOND_MIN)
    if failed.any():
        i, c = first_failure(failed.reshape(shape), cell)
        raise ElementQualityError(f"singular {what} system (rcond={rcond[i]:.3e})", c)
    return out.reshape(shape + rhs.shape[-2:])


def _gram_solve(gram, rhs, what, cell):
    """Solve against SPD Gram matrices (..., n, n) with Jacobi equilibration.

    Scaled monomials of high degree produce badly conditioned Gram matrices;
    normalizing rows/columns by the diagonal (unit L2 mass) restores most of
    the lost accuracy.  The conditioning guard applies to the equilibrated
    matrix, where a failure indicates true element degeneracy.
    """
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    failed = ~(diag > 0.0).all(axis=-1)
    if failed.any():
        raise ElementQualityError(f"non-positive {what} diagonal", first_failure(failed, cell)[1])
    d = np.sqrt(diag)[..., :, None]
    scaled = gram / (d * d.mT)
    return _checked_solve(scaled, rhs / d, what, cell) / d


def edge_dofs(n_v, e, k):
    """Local DOFs (..., k + 1) of edge ``e`` of ``n_v``-gons at order k, in trace order."""
    n_v, e = np.broadcast_arrays(np.asarray(n_v)[..., None], np.asarray(e)[..., None])
    return np.concatenate([e, n_v + (k - 1) * e + np.arange(k - 1), (e + 1) % n_v], axis=-1)


def edge_nodes(start, end, k):
    """The k - 1 Gauss-Lobatto internal nodes (..., k - 1, 2) of edges from ``start`` to ``end``."""
    t = gauss_lobatto_interior(k)[:, None]
    return start[..., None, :] + t * (end - start)[..., None, :]


class DofLayout:
    """Numbering of the local DOFs for a polygon with ``n_vertices`` vertices.

    Order: vertex values, then k-1 edge-internal values per edge (ascending
    along the CCW edge direction), then scaled moments in graded-lex order.
    The first ``n_nodes`` DOFs are point values at ``nodes``, the internal
    ones at ``edge_nodes``; edge e's trace reads ``edge_dofs(n_vertices, e,
    k)``.  Layouts are shared through ``dof_layout``, so their arrays and
    tables are read-only.
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
        """Vertices, then each edge's internal nodes: the (..., n_nodes, 2) DOF nodes."""
        v = np.asarray(vertices, dtype=float)
        internal = edge_nodes(v, np.concatenate([v[..., 1:, :], v[..., :1, :]], axis=-2), self.k)
        return np.concatenate([v, internal.reshape(*v.shape[:-2], -1, 2)], axis=-2)

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
            cols = edge_dofs(self.n_vertices, np.arange(self.n_vertices), self.k)
            out = np.zeros((self.n_vertices, len(vals), self.n_dofs))
            np.put_along_axis(out, cols[:, None, :], vals, axis=2)
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


def build_pinabla(geom, k, h_full, edge_vals, nw, traces):
    """H1-type projector of order k on a stack of elements.

    Reads the leading blocks of the mass matrices ``h_full`` and of the
    monomial values ``edge_vals`` at the edge points, whose normal-weighted
    quadrature weights are ``nw`` and DOF traces ``traces``.  Returns
    (coeff, dof_form, basis) where ``coeff`` maps DOFs to P_k coefficients
    and ``dof_form`` maps DOFs to the DOFs of the projected polynomial.  The
    Gram system is augmented by the boundary mean (k = 1) or the cell mean
    (k > 1).
    """
    layout = dof_layout(geom.n_vertices, k)
    basis = MonomialBasis(geom, k)
    nk, nkm1 = poly_dim(k), poly_dim(k - 1)
    area = geom.area[:, None, None]

    # stiffness Gram via exact derivative maps
    h_km1 = h_full[:, :nkm1, :nkm1]
    dx, dy = grad_map(basis)
    gram = dx.mT @ h_km1 @ dx + dy.mT @ h_km1 @ dy

    # right-hand sides by integration by parts, all edge points at once
    mvals = edge_vals[:, :nkm1]
    rhs = ((dx.mT @ mvals) * nw[:, None, :, 0] + (dy.mT @ mvals) * nw[:, None, :, 1]) @ traces
    if k >= 2:
        rhs[:, :, layout.n_nodes :] -= area * laplace_map(basis).mT

    # mean condition replaces the constant row
    h_k = h_full[:, :nk, :nk]
    if k == 1:
        w = geom.edge_weights.reshape(len(h_full), -1)
        perimeter = geom.perimeter[:, None]
        gram[:, 0, :] = (edge_vals[:, :nk] @ w[:, :, None])[..., 0] / perimeter
        rhs[:, 0, :] = (w[:, None, :] @ traces)[:, 0] / perimeter
    else:
        gram[:, 0, :] = h_k[:, 0, :] / geom.area[:, None]
        rhs[:, 0, :] = 0.0
        rhs[:, 0, layout.n_nodes] = 1.0

    coeff = _checked_solve(gram, rhs, "projector Gram", geom.cell)

    # DOFs of the projected polynomial
    nodal = eval_basis(basis, layout.nodes(geom.vertices)).mT
    dof_of_poly = np.concatenate([nodal, h_k[:, : layout.n_moments] / area], axis=1)
    return coeff, dof_of_poly @ coeff, basis


def build_moments(geom, k, pinabla_coeff, h_full):
    """Moments (phi_i, m_a) for all |a| <= k + ell on a stack, from the degree k+ell mass matrices.

    Low-degree rows come straight from the moment DOFs; the constrained
    degrees use the enhancement property through the H1 projection.
    """
    layout = dof_layout(geom.n_vertices, k)
    moments = np.zeros((*h_full.shape[:2], layout.n_dofs))
    moments[:, : layout.n_moments, layout.n_nodes :] = (
        geom.area[:, None, None] * np.eye(layout.n_moments)
    )
    lo = layout.n_moments  # rows of the degrees constrained by the enhancement
    moments[:, lo:] = h_full[:, lo:, : poly_dim(k)] @ pinabla_coeff
    return moments


def build_pizero_scalar(n, moments, h_full, cell=None):
    """L2 projector onto P_n from the moment matrices (requires n <= k + ell)."""
    m = poly_dim(n)
    if m > moments.shape[-2]:
        raise ValueError("moments not built to the requested degree")
    return _gram_solve(h_full[..., :m, :m], moments[..., :m, :], "mass", cell)


def build_pizero_grad(geom, k, ell, moments, h_full, edge_flux, degree):
    """L2 projection of the gradient onto [P_degree]^2, degree <= k + ell - 1.

    Both components are assembled by parts: the interior term uses the
    moment matrix, the boundary term the leading rows of ``edge_flux``.  One
    solve against the degree mass block serves the stacked right-hand sides.
    Returns (gx, gy), each mapping DOFs to P_degree coefficients.
    """
    if degree > k + ell - 1:
        raise ValueError("gradient projection degree exceeds k + ell - 1")
    mg, n = poly_dim(degree), moments.shape[-1]
    dx, dy = grad_map(MonomialBasis(geom, degree))
    low = moments[..., : poly_dim(degree - 1), :]
    rhs = edge_flux[..., :mg, :] - np.concatenate([dx.mT @ low, dy.mT @ low], axis=-1)
    g = _gram_solve(h_full[..., :mg, :mg], rhs, "vector mass", geom.cell)
    return g[..., :n], g[..., n:]


class LocalSpace:
    """All computable projector matrices of a stack of elements for fixed (k, ell).

    Built on a stacked geometry, every matrix carries the geometry's leading
    cell axis; built on a one-cell geometry, the space is the cell-0 view of
    a stack of one.  ``space[i]`` is the view of cell i: its arrays are views
    into the stack's, and the projectors it is asked for are computed for
    the whole stack and shared.  ``space[index]`` for an index array is a new
    stack of those cells, with the projectors computed so far.
    """

    PER_CELL = frozenset(["geom", "h_full", "pinabla_coeff", "pinabla_dof", "moments",
                          "edge_flux"])

    def __init__(self, geom, k, ell):
        if ell < 0:
            raise ValueError("enhancement increment must be >= 0")
        need = 2 * (k + ell)
        if geom.exact_degree < need:
            raise ValueError(
                f"geometry quadrature exact to {geom.exact_degree}, "
                f"order {k} with increment {ell} needs {need}"
            )
        one = np.ndim(geom.h) == 0
        geom = geom.as_stack()
        self.geom = geom
        self.k = k
        self.ell = ell
        self.stack, self.index = None, None
        self.layout = dof_layout(geom.n_vertices, k)
        # the degree k+ell monomials, evaluated once per point set
        basis_full = MonomialBasis(geom, k + ell)
        self.h_full = mass_matrix(basis_full)
        edge_vals = eval_basis(basis_full, geom.edge_points.reshape(len(self.h_full), -1, 2))
        traces = self.layout.edge_traces(geom.edge_params).reshape(-1, self.n_dofs)
        nw = (geom.edge_normals[:, :, None, :] * geom.edge_weights[..., None]).reshape(
            len(self.h_full), -1, 2
        )
        self.pinabla_coeff, self.pinabla_dof, self.basis_k = build_pinabla(
            geom, k, self.h_full, edge_vals, nw, traces
        )
        self.moments = build_moments(geom, k, self.pinabla_coeff, self.h_full)
        # [(m_a n_x, phi_i) | (m_a n_y, phi_i)] on the boundary, |a| <= k+ell-1
        mvals = edge_vals[:, : poly_dim(k + ell - 1)]
        self.edge_flux = np.concatenate(
            [(mvals * nw[:, None, :, 0]) @ traces, (mvals * nw[:, None, :, 1]) @ traces], axis=-1
        )
        self._pizero_scalar = {}
        self._pizero_grad = {}
        if one:
            self.__dict__.update(copy.copy(self)[0].__dict__)

    def __getitem__(self, at):
        """Cell ``at`` (an int) as a view into this stack, or cells ``at`` (an index array) as a stack."""
        out = object.__new__(type(self))
        out.__dict__ = {name: value[at] if name in self.PER_CELL else value
                        for name, value in self.__dict__.items()}
        out.basis_k = MonomialBasis(out.geom, self.k)
        if np.ndim(at) == 0:
            out.stack, out.index = self, int(at)
        else:
            out._pizero_scalar = {n: p[at] for n, p in self._pizero_scalar.items()}
            out._pizero_grad = {d: (gx[at], gy[at]) for d, (gx, gy) in self._pizero_grad.items()}
        return out

    @property
    def n_dofs(self):
        return self.layout.n_dofs

    def pizero_scalar(self, n):
        if self.stack is not None:
            return self.stack.pizero_scalar(n)[self.index]
        if n not in self._pizero_scalar:
            self._pizero_scalar[n] = build_pizero_scalar(
                n, self.moments, self.h_full, self.geom.cell
            )
        return self._pizero_scalar[n]

    def pizero_grad(self, degree):
        if self.stack is not None:
            return tuple(g[self.index] for g in self.stack.pizero_grad(degree))
        if degree not in self._pizero_grad:
            self._pizero_grad[degree] = build_pizero_grad(
                self.geom, self.k, self.ell, self.moments, self.h_full, self.edge_flux, degree
            )
        return self._pizero_grad[degree]

    def mass_block(self, n):
        """Gram matrix of the monomials up to degree n (principal block)."""
        m = poly_dim(n)
        return self.h_full[..., :m, :m]

    def polynomial_dofs(self, coeffs):
        """Exact DOF vector of a polynomial given by P_k coefficients (one cell)."""
        layout = self.layout
        nodal = coeffs @ eval_basis(self.basis_k, layout.nodes(self.geom.vertices))
        moments = self.h_full[: layout.n_moments, : self.basis_k.dim] @ coeffs
        return np.concatenate([nodal, moments / self.geom.area])
