"""Quadrature rules for polygon sub-triangulations and edges.

Triangle rules are collapsed tensor products (Duffy map with a Gauss-Jacobi
rule absorbing the map Jacobian), exact for any requested total degree with
all-positive weights.  Edge rules are plain Gauss-Legendre.
"""

import functools

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def gauss_legendre_01(n):
    """n-point Gauss-Legendre rule on [0, 1]; exact for degree 2n-1.

    The arrays are shared between calls and read-only.
    """
    if n < 1:
        raise ValueError("need at least one quadrature point")
    t, w = roots_legendre(n)
    return _frozen(0.5 * (t + 1.0), 0.5 * w)


@functools.lru_cache(maxsize=None)
def gauss_lobatto_interior(k):
    """Interior Gauss-Lobatto nodes on [0, 1]: the k-1 roots of P_k'.

    These are the edge-internal interpolation points of an order-k trace;
    returns an empty array for k = 1.  The array is shared between calls
    and read-only.
    """
    if k < 1:
        raise ValueError("order must be >= 1")
    if k == 1:
        return _frozen(np.empty(0))[0]
    dleg = np.polynomial.legendre.Legendre.basis(k).deriv()
    t = np.sort(dleg.roots().real)
    return _frozen(0.5 * (t + 1.0))[0]


@functools.lru_cache(maxsize=None)
def triangle_rule(degree):
    """Quadrature on the unit simplex {u, v >= 0, u + v <= 1}.

    Exact for all polynomials of total degree <= ``degree``.  Returns
    (points (n, 2), weights (n,)) with weights summing to 1/2; the arrays
    are shared between calls and read-only.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = max(1, (degree + 2) // 2)  # 2n-1 >= degree
    # u-direction: Gauss-Jacobi with weight (1-u) eats the Duffy Jacobian.
    tj, wj = roots_jacobi(n, 1.0, 0.0)
    u = 0.5 * (tj + 1.0)
    wu = 0.25 * wj
    tl, wl = roots_legendre(n)
    b = 0.5 * (tl + 1.0)
    wb = 0.5 * wl
    uu = np.repeat(u, n)
    vv = np.tile(b, n) * (1.0 - uu)
    ww = np.repeat(wu, n) * np.tile(wb, n)
    return _frozen(np.column_stack([uu, vv]), ww)


def map_rule_to_triangle(ref_points, ref_weights, tri):
    """Push a unit-simplex rule onto the physical triangles ``tri`` (..., 3, 2).

    Returns (points (..., n, 2), weights (..., n)).  Each triangle must be
    positively oriented; its weights then sum to its area.
    """
    tri = np.asarray(tri, dtype=float)
    v0 = tri[..., 0, :]
    jac = np.stack([tri[..., 1, :] - v0, tri[..., 2, :] - v0], axis=-1)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    pts = ref_points @ np.swapaxes(jac, -1, -2) + v0[..., None, :]
    return pts, ref_weights * det[..., None]


def edge_rule(p0, p1, n):
    """n-point Gauss rule along the segments p0 -> p1, each (..., 2).

    Returns (points (..., n, 2), weights (..., n), params (n,)); each
    segment's weights sum to its length, params are the Gauss nodes in [0, 1].
    """
    t, w = gauss_legendre_01(n)
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    pts = p0[..., None, :] + t[:, None] * d[..., None, :]
    length = np.hypot(d[..., 0], d[..., 1])
    return pts, w * length[..., None], t
