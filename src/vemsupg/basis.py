"""Scaled monomial bases on polygonal elements.

A basis member with exponent pair (a1, a2) is
``((x - xc)/h)**a1 * ((y - yc)/h)**a2`` where (xc, yc) is the element star
center and h its diameter.  Members are ordered graded-lexicographically:
degree blocks in increasing total degree, x-power descending inside a block.
Derivatives act on coefficient vectors as exact linear maps between bases.
A basis on a stack of elements has one center and scale per element, and
its tables carry the stack's leading cell axis.
"""

import functools

import numpy as np


def poly_dim(n):
    """Dimension of the polynomial space of total degree <= n (0 for n < 0)."""
    if n < 0:
        return 0
    return (n + 1) * (n + 2) // 2


@functools.lru_cache(maxsize=None)
def monomial_exponents(n):
    """Exponent pairs of the degree-n basis in graded-lex order, shape (dim, 2).

    The array is shared between calls and read-only.
    """
    exps = [(d - j, j) for d in range(n + 1) for j in range(d + 1)]
    out = np.array(exps, dtype=int).reshape(-1, 2)
    out.flags.writeable = False
    return out


def monomial_index(a1, a2):
    """Position of exponent (a1, a2) in graded-lex order."""
    d = a1 + a2
    return d * (d + 1) // 2 + a2


class MonomialBasis:
    """Scaled monomials of total degree <= order on one element.

    Parameters
    ----------
    geom : ElementGeometry
        Element (or stack of elements) providing the star center, diameter
        and quadrature.
    order : int
        Maximal total degree.
    """

    def __init__(self, geom, order):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.geom = geom
        self.order = order
        self.center = np.asarray(geom.star_center, dtype=float)
        self.scale = np.asarray(geom.h, dtype=float)
        self.exponents = monomial_exponents(order)
        self.dim = poly_dim(order)


def eval_basis(basis, points):
    """Evaluate all basis members at ``points`` (..., n, 2); returns (..., dim, n).

    On a stack of elements the leading axes of ``points`` follow the
    stack's cells.  The powers 0..order of both scaled coordinates are built
    by one multiplication per power, and members are products of gathered
    rows, so a stacked point set gives bit for bit the values of its parts.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None]
    t = (pts - basis.center[..., None, :]) / basis.scale[..., None, None]
    t = t.transpose(t.ndim - 1, *range(t.ndim - 1))  # coordinates first: (2, ..., n)
    pw = np.empty((basis.order + 1, *t.shape))
    pw[0] = 1.0
    for p in range(basis.order):
        np.multiply(pw[p], t, out=pw[p + 1])
    a = basis.exponents
    vals = pw[a[:, 0], 0] * pw[a[:, 1], 1]  # (dim, ..., n)
    return vals.transpose(*range(1, vals.ndim - 1), 0, vals.ndim - 1)


def eval_poly(basis, coeffs, points):
    """Evaluate the polynomial with coefficient vector(s) ``coeffs`` at points.

    ``coeffs`` may be (dim,) or (dim, m); returns (n,) or (m, n) values.
    """
    vals = eval_basis(basis, points)
    return np.asarray(coeffs).T @ vals


@functools.lru_cache(maxsize=None)
def _derivative_patterns(n):
    """Integer maps of d/dxi, d/deta and the Laplacian on the degree-n monomials.

    Returns read-only (Dx, Dy, L) of shapes (dim P_{n-1}, dim P_n) twice and
    (dim P_{n-2}, dim P_n); the derivatives of one member land in distinct
    rows, so each entry holds a single exponent product.
    """
    dim = poly_dim(n)
    dx = np.zeros((poly_dim(n - 1), dim))
    dy = np.zeros((poly_dim(n - 1), dim))
    lap = np.zeros((poly_dim(n - 2), dim))
    for col, (a1, a2) in enumerate(monomial_exponents(n).tolist()):
        if a1 > 0:
            dx[monomial_index(a1 - 1, a2), col] = a1
        if a2 > 0:
            dy[monomial_index(a1, a2 - 1), col] = a2
        if a1 > 1:
            lap[monomial_index(a1 - 2, a2), col] = a1 * (a1 - 1)
        if a2 > 1:
            lap[monomial_index(a1, a2 - 2), col] = a2 * (a2 - 1)
    for a in (dx, dy, lap):
        a.flags.writeable = False
    return dx, dy, lap


def grad_map(basis):
    """Coefficient maps of d/dx and d/dy from P_n to P_{n-1}.

    Returns (Dx, Dy), each of shape (dim P_{n-1}, dim P_n), carrying the
    1/h chain factor of the scaled coordinates.
    """
    dx, dy, _ = _derivative_patterns(basis.order)
    inv_h = 1.0 / basis.scale[..., None, None]
    return dx * inv_h, dy * inv_h


def laplace_map(basis):
    """Coefficient map of the Laplacian from P_n to P_{n-2}."""
    return _derivative_patterns(basis.order)[2] * (1.0 / basis.scale**2)[..., None, None]


def div_map(basis):
    """Coefficient map of the divergence from [P_n]^2 to P_{n-1}.

    Acts on stacked vector coefficients [x-component; y-component].
    """
    return np.concatenate(grad_map(basis), axis=-1)


def mass_matrix(basis):
    """Gram matrix H_ab = integral of m_a m_b over the element.

    Symmetric positive definite; requires element quadrature exact to
    degree 2n, checked against the geometry's declared exactness.
    """
    geom = basis.geom
    if geom.exact_degree < 2 * basis.order:
        raise ValueError(
            f"element quadrature exact to degree {geom.exact_degree}, "
            f"mass matrix of order {basis.order} needs {2 * basis.order}"
        )
    vals = eval_basis(basis, geom.quad_points)
    return (vals * geom.quad_weights[..., None, :]) @ vals.mT

