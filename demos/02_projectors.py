"""Local projectors on a concave cell: what is computable from DOFs alone.

Builds the local space of order 2 with one extra enhancement degree on a
concave pentagon and shows that the H1 projection, the L2 projections and
the projected gradient all reproduce polynomials exactly.
"""

import numpy as np

from vemsupg import ElementGeometry, LocalSpace, generate_concave_pentagons
from vemsupg.basis import eval_poly, grad_map, poly_dim

mesh = generate_concave_pentagons(1)
cell = 1  # the cell with the reflex vertex
k, ell = 2, 1
verts = mesh.cell_vertices(cell)
# volume rule exact to degree 2(k+ell)+2, k+ell+1 Gauss points per edge
geom = ElementGeometry(verts, 2 * (k + ell) + 2, k + ell + 1, cell=cell)
space = LocalSpace(geom, k, ell)

print(f"cell {cell}: {geom.n_vertices} vertices, h = {geom.h:.4f}, "
      f"star center {np.round(geom.star_center, 4)}")
print(f"order {k}, increment {ell}: {space.n_dofs} local DOFs")

rng = np.random.default_rng(0)
p = rng.standard_normal(poly_dim(k))
dofs = space.polynomial_dofs(p)

err = np.abs(space.pinabla_coeff @ dofs - p).max()
print(f"H1 projection reproduces a random quadratic to {err:.2e}")

got = space.pizero_scalar(k) @ dofs
err = np.abs(got - p).max()
print(f"L2 projection (degree {k}) reproduces it to {err:.2e}")

dx, dy = grad_map(space.basis_k)
gx, gy = space.pizero_grad(k + ell - 1)
ex = np.zeros(poly_dim(k + ell - 1))
ex[: poly_dim(k - 1)] = dx @ p
err = np.abs(gx @ dofs - ex).max()
print(f"projected gradient (degree {k + ell - 1}) reproduces the gradient to {err:.2e}")

# moments of an implicit (non-polynomial) member: take the first hat DOF
hat = np.zeros(space.n_dofs)
hat[0] = 1.0
moments = space.moments @ hat
print("first moments of the vertex-0 basis function:",
      np.array2string(moments[:6], precision=5))
value = eval_poly(space.basis_k, space.pinabla_coeff @ hat, geom.star_center[None, :])
print(f"its H1 projection at the star center: {value[0]:.5f}")
