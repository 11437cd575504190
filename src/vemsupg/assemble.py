"""Global assembly, boundary conditions, linear solve and postprocessing."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import MonomialBasis, eval_basis, grad_map, poly_dim
from .errors import MeshError, SolveError

_RESIDUAL_TOL = 1e-10
# cells stacked in one batch (forms, reconstructions, energy error); bounds
# the batch's temporaries
CHUNK = 64


def cell_chunks(keys):
    """Indices of the cells with equal ``keys``, in chunks of at most CHUNK.

    Groups come in the order of their first cell, cells in increasing order.
    Keyed by their spaces, a group is the cells that share one space object
    (spaces compare by identity).
    """
    groups = {}
    for c, key in enumerate(keys):
        groups.setdefault(key, []).append(c)
    for cells in groups.values():
        for start in range(0, len(cells), CHUNK):
            yield np.array(cells[start : start + CHUNK])


class DofMap:
    """Global numbering: vertex DOFs, then edge DOFs, then cell moments.

    Edge-internal DOFs of a shared edge coincide for both cells: they are
    stored along the ascending-vertex-index direction, and the symmetric
    Gauss-Lobatto layout makes the reversed traversal a pure index flip.
    """

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        self.n_edge_internal = k - 1
        self.n_moments = poly_dim(k - 2)
        self.vertex_offset = 0
        self.edge_offset = mesh.n_vertices
        self.cell_offset = mesh.n_vertices + mesh.n_edges * self.n_edge_internal
        self.n_dofs = self.cell_offset + mesh.n_cells * self.n_moments
        self.offsets, self.flat = self._number_cells()

    def _number_cells(self):
        """Global DOFs of every cell, concatenated in cell order, plus offsets.

        Cells with equal vertex counts are numbered together as one
        (cells, n_dofs) array and scattered into place.
        """
        mesh = self.mesh
        n_v = np.array([len(cell) for cell in mesh.cells], dtype=int)
        sizes = n_v * self.k + self.n_moments
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        flat = np.empty(offsets[-1], dtype=int)
        t = np.arange(self.n_edge_internal)
        for nv in np.unique(n_v):
            cells = np.flatnonzero(n_v == nv)
            verts = np.array([mesh.cells[c] for c in cells], dtype=int)
            edges = np.array([mesh.cell_edges[c] for c in cells], dtype=int)
            internal = np.where(edges[..., 1:].astype(bool), t, self.n_edge_internal - 1 - t)
            edge_dofs = self.edge_offset + edges[..., :1] * self.n_edge_internal + internal
            moments = self.cell_offset + cells[:, None] * self.n_moments + np.arange(
                self.n_moments
            )
            table = np.hstack([verts, edge_dofs.reshape(len(cells), -1), moments])
            flat[offsets[cells][:, None] + np.arange(table.shape[1])] = table
        flat.flags.writeable = False
        return offsets, flat

    def cell_dofs(self, c):
        """Global DOF indices of cell c, aligned with the local layout."""
        return self.flat[self.offsets[c] : self.offsets[c + 1]]

    def stacked_dofs(self, cells):
        """Global DOFs of ``cells``, which have equal DOF counts; shape (C, n)."""
        n = self.offsets[cells[0] + 1] - self.offsets[cells[0]]
        return self.flat[self.offsets[cells][:, None] + np.arange(n)]

    def boundary_values(self, problem):
        """Prescribed Dirichlet DOFs and values, with label-priority tie-break.

        Each label's function is evaluated once, on all nodes of its edges.
        A DOF offered by several edges takes the value of the lowest label
        rank, then of the first offer in ``mesh.boundary_edges`` order.
        Returns (indices, values); raises MeshError on an unlabeled or
        unresolvable boundary edge.
        """
        mesh, n_int = self.mesh, self.n_edge_internal
        from .quadrature import gauss_lobatto_interior

        params = gauss_lobatto_interior(self.k)
        edges = {}  # label -> (position in boundary order, cell, local edge)
        for j, (c, i) in enumerate(mesh.boundary_edges):
            label = mesh.boundary_labels.get((c, i))
            if label is None:
                raise MeshError(f"boundary edge (cell {c}, edge {i}) has no label")
            if problem.dirichlet_for(label) is None:
                raise MeshError(
                    f"no Dirichlet data for boundary label {label!r} (cell {c})"
                )
            edges.setdefault(label, []).append((j, c, i))
        if not edges:
            return np.empty(0, dtype=int), np.empty(0)
        t = np.arange(n_int)
        dofs, ranks, firsts, vals = [], [], [], []
        for label, members in edges.items():
            pos, ends, edge_ids = [], [], []
            for j, c, i in members:
                cell = mesh.cells[c]
                pos.append(j)
                ends.append((cell[i], cell[(i + 1) % len(cell)]))
                edge_ids.append(mesh.cell_edges[c][i])
            ends = np.array(ends, dtype=int)
            e, forward = np.array(edge_ids, dtype=int).T
            pa, pb = mesh.vertices[ends[:, 0]], mesh.vertices[ends[:, 1]]
            internal = pa[:, None, :] + params[:, None] * (pb - pa)[:, None, :]
            # per edge: its two vertices, then its internal nodes along the edge
            pts = np.concatenate([pa[:, None], pb[:, None], internal], axis=1)
            g = problem.dirichlet_for(label)
            vals.append(np.asarray(g(pts.reshape(-1, 2)), dtype=float))
            slot = np.where(forward[:, None] == 1, t, n_int - 1 - t)
            dofs.append(np.hstack([ends, self.edge_offset + e[:, None] * n_int + slot]).ravel())
            ranks.append(np.full(len(dofs[-1]), problem.label_rank(label)))
            firsts.append(np.repeat(pos, 2 + n_int))
        dofs, vals = np.concatenate(dofs), np.concatenate(vals)
        # sorted by DOF, then rank, then boundary position: an edge offers each
        # of its DOFs once, so the first entry of each DOF is the winning offer
        pick = np.lexsort((np.concatenate(firsts), np.concatenate(ranks), dofs))
        idx, first = np.unique(dofs[pick], return_index=True)
        return idx, vals[pick[first]]


class GlobalSystem:
    """Assembled sparse operator and load, before and after elimination."""

    def __init__(self, matrix, rhs, dofmap):
        self.matrix = matrix
        self.rhs = rhs
        self.dofmap = dofmap
        self.n_dofs = dofmap.n_dofs
        self.fixed_idx = None
        self.fixed_vals = None
        self.free_idx = None
        self.reduced_matrix = None
        self.reduced_rhs = None


def assemble(dofmap, blocks):
    """Scatter-add stacked local matrices and loads into the global sparse system.

    ``blocks`` is an iterable of (cells, matrices, loads): cell ids (C,),
    their local matrices (C, n, n) and loads (C, n).  Every cell comes in
    exactly one block.  Values are placed at positions ordered by cell,
    whatever the order of the blocks, so the reduction order is fixed by
    cell index and entries are deterministic.
    """
    offsets = dofmap.offsets
    sizes = np.diff(offsets)
    mat_ends = np.cumsum(sizes * sizes)
    starts = mat_ends - sizes * sizes
    vals = np.zeros(mat_ends[-1])
    load = np.zeros(offsets[-1])
    count = np.zeros(len(sizes), dtype=int)
    misfit = np.zeros(len(sizes), dtype=bool)
    for cells, mats, loads in blocks:
        cells = np.asarray(cells, dtype=int)
        mats = np.asarray(mats, dtype=float)
        loads = np.asarray(loads, dtype=float)
        np.add.at(count, cells, 1)
        n = loads.shape[1]
        wrong = (sizes[cells] != n) | (mats.shape[1:] != (n, n))
        if wrong.any():
            misfit[cells[wrong]] = True
            continue
        vals[starts[cells][:, None] + np.arange(n * n)] = mats.reshape(len(cells), -1)
        load[offsets[cells][:, None] + np.arange(n)] = loads
    bad = np.zeros(len(sizes), dtype=bool)
    bad[np.searchsorted(mat_ends, np.flatnonzero(~np.isfinite(vals)), side="right")] = True
    bad[np.searchsorted(offsets[1:], np.flatnonzero(~np.isfinite(load)), side="right")] = True
    failed = (count != 1) | misfit | bad
    if failed.any():
        c = int(np.flatnonzero(failed)[0])
        if count[c] != 1:
            raise MeshError(f"cell {c}: {count[c]} local blocks, expected one")
        if misfit[c]:
            raise MeshError(f"cell {c}: local matrix does not match DOF count")
        raise MeshError(f"non-finite local contribution from cell {c}")
    n = dofmap.n_dofs
    rows = np.empty(len(vals), dtype=int)
    cols = np.empty(len(vals), dtype=int)
    for size in np.unique(sizes):
        cells = np.flatnonzero(sizes == size)
        dofs = dofmap.stacked_dofs(cells)
        at = starts[cells][:, None] + np.arange(size * size)
        rows[at] = np.repeat(dofs, size, axis=1)
        cols[at] = np.tile(dofs, (1, size))
    rhs = np.bincount(dofmap.flat, weights=load, minlength=n)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return GlobalSystem(matrix, rhs, dofmap)


def apply_dirichlet(system, problem):
    """Eliminate prescribed boundary DOFs, correcting the right-hand side."""
    idx, vals = system.dofmap.boundary_values(problem)
    mask = np.zeros(system.n_dofs, dtype=bool)
    mask[idx] = True
    free = np.nonzero(~mask)[0]
    rows = system.matrix.tocsc()[free]
    system.fixed_idx = idx
    system.fixed_vals = vals
    system.free_idx = free
    system.reduced_matrix = rows[:, free]
    lift = rows[:, idx] @ vals if len(idx) else 0.0
    system.reduced_rhs = system.rhs[free] - lift
    return system


def solve(system):
    """Direct sparse solve of the reduced system with a residual guarantee."""
    if system.reduced_matrix is None:
        raise SolveError("apply_dirichlet must run before solve")
    a = system.reduced_matrix.tocsc()
    b = system.reduced_rhs
    n = a.shape[0]
    full = np.zeros(system.n_dofs)
    if len(system.fixed_idx):
        full[system.fixed_idx] = system.fixed_vals
    if n == 0:
        print(f"solve: n={system.n_dofs} residual=0.0e+00")
        return DiscreteSolution(full, system, residual=0.0)
    try:
        lu = spla.splu(a)
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SolveError(f"sparse factorization failed: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise SolveError("singular system: factorization produced non-finite values")
    norm_b = np.linalg.norm(b)
    residual = np.linalg.norm(a @ x - b) / (norm_b if norm_b > 0 else 1.0)
    if residual > _RESIDUAL_TOL:
        raise SolveError(f"residual {residual:.3e} above tolerance {_RESIDUAL_TOL:g}")
    full[system.free_idx] = x
    print(f"solve: n={system.n_dofs} residual={residual:.6e}")
    return DiscreteSolution(full, system, residual=residual)


class DiscreteSolution:
    """Global DOF vector plus per-element polynomial reconstructions."""

    def __init__(self, dofs, system, residual):
        self.dofs = dofs
        self.system = system
        self.residual = residual
        self.n_dofs = len(dofs)
        self.reconstructions = None  # (n_cells, dim P_k) coefficients
        self.ell = None
        self.peclet = None
        self.tau = None

    def attach_reconstructions(self, dofmap, spaces, peclet, tau):
        """Attach each cell's P_k coefficients, increment, Peclet number and tau.

        The coefficients are computed per chunk of cells sharing a space.
        """
        self.reconstructions = np.empty((len(spaces), spaces[0].pinabla_coeff.shape[0]))
        self.ell = np.array([s.ell for s in spaces], dtype=int)
        self.peclet = peclet
        self.tau = tau
        for cells in cell_chunks(spaces):
            # a stack of matrix-vector products, not one matrix product: each
            # cell's coefficients are then bit for bit those of ``coeff @ local``
            local = self.dofs[dofmap.stacked_dofs(cells)][..., None]
            self.reconstructions[cells] = (spaces[cells[0]].pinabla_coeff @ local)[..., 0]
        return self


def _dot(a, b):
    """Pointwise dot product of stacked 2-vectors (last axis of length 2).

    Spelled out, since numpy's strided sum over a length-2 axis gives the
    same numbers about ten times slower.
    """
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def energy_error(spaces, shifts, solution, problem):
    """Relative energy-norm error of the reconstructed solution.

    err^2 = sum_E kappa |grad(u - P u_h)|^2 + tau |beta . grad(u - P u_h)|^2
    normalized by the same quantity with u alone; P u_h is the cell's row of
    ``solution.reconstructions`` (the element H1 projection) and tau the
    cell's ``solution.tau``.  Requires the exact gradient.  Cell c is
    ``spaces[c]`` translated by ``shifts[c]``.

    Cells that share one space object (the translates of one shape) are
    evaluated together, in chunks of CHUNK cells.  The four integrals of
    each cell are summed over its own points, then added into the totals in
    cell order.
    """
    if problem.exact_grad is None:
        raise ValueError("energy error needs the exact gradient")
    sums = np.empty((len(spaces), 4))  # kappa and tau terms of num, then of den
    for cells in cell_chunks(spaces):
        space = spaces[cells[0]]
        geom = space.geom
        polys = solution.reconstructions[cells][..., None]
        # a translate's points about its star center are the shape's own
        vals = eval_basis(MonomialBasis(geom, space.k - 1), geom.quad_points).T
        gh = np.concatenate([vals @ (d @ polys) for d in grad_map(space.basis_k)], axis=2)
        pts = geom.quad_points + shifts[cells][:, None, :]
        flat = pts.reshape(-1, 2)
        gu = np.asarray(problem.exact_grad(flat), dtype=float).reshape(pts.shape)
        bvals = np.asarray(problem.beta(flat), dtype=float).reshape(pts.shape)
        w = geom.quad_weights
        diff = gu - gh
        sums[cells] = np.column_stack(
            [
                np.sum(w * _dot(diff, diff), axis=1),
                np.sum(w * _dot(bvals, diff) ** 2, axis=1),
                np.sum(w * _dot(gu, gu), axis=1),
                np.sum(w * _dot(bvals, gu) ** 2, axis=1),
            ]
        )
    kappa = problem.kappa
    num = 0.0
    den = 0.0
    for tau, (err_k, err_t, u_k, u_t) in zip(solution.tau.tolist(), sums.tolist()):
        num += kappa * err_k
        num += tau * err_t
        den += kappa * u_k
        den += tau * u_t
    if den == 0.0:
        raise ValueError("energy error undefined: exact solution has zero energy")
    return float(np.sqrt(num / den))


def export_vtk(solution, mesh, path):
    """Legacy ASCII unstructured-grid file with polygon cells.

    Point data: vertex DOF values ("u_vertex").  Cell data: the H1-projected
    solution at the star centers ("u_pi_center"), the enhancement increment
    ("ell") and the element Peclet number ("peclet").
    """
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
        lines.append(" ".join([str(len(cell))] + [str(v) for v in cell]))
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
    # the constant-mode coefficient is the projected value at the star center
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
