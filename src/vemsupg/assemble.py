"""Global assembly, boundary conditions, linear solve and postprocessing."""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import MonomialBasis, eval_basis, grad_map, poly_dim
from .errors import MeshError, SolveError
from .space import edge_dofs, edge_nodes

_RESIDUAL_TOL = 1e-10
# SuperLU's symmetric mode pivots on the diagonal unless it falls below this
# fraction of its column's largest entry; a nonzero value keeps off-diagonal
# pivoting for the cases that need it
DIAG_PIVOT_THRESH = 0.01
# cells stacked in one batch (forms, reconstructions, energy error); bounds
# the batch's temporaries
CHUNK = 64


def _index(a):
    """``a`` as a read-only int32 index array."""
    a = np.asarray(a, dtype=np.int32)
    a.flags.writeable = False
    return a


def _csc_block(rows, cols, keep_rows, keep_cols):
    """(take, indices, indptr, shape) of the CSC block of the kept rows and columns.

    ``rows``/``cols`` are the entries of a CSR pattern in data order; the
    block's CSC data is ``data[take]``.
    """
    rank_rows, rank_cols = np.cumsum(keep_rows) - 1, np.cumsum(keep_cols) - 1
    take = np.flatnonzero(keep_rows[rows] & keep_cols[cols])
    r, c = rank_rows[rows[take]], rank_cols[cols[take]]
    order = np.argsort(c, kind="stable")  # each column's rows stay ascending
    n_cols = int(keep_cols.sum())
    indptr = np.concatenate([[0], np.cumsum(np.bincount(c, minlength=n_cols))])
    return _index(take[order]), _index(r[order]), _index(indptr), (int(keep_rows.sum()), n_cols)


class _Elimination:
    """SuperLU's column order ``perm_c`` of a plan's first factor.

    ``order`` lists the reduced matrix's columns in elimination order;
    ``gather`` returns a matrix of the plan's reduced pattern in that order.
    ``perm_c`` is copied: SuperLU's own array keeps the whole factor alive.
    """

    def __init__(self, perm_c):
        self.perm_c = _index(perm_c.copy())
        self.order = _index(np.argsort(perm_c))
        self.block = None  # built by the plan's second factor

    def gather(self, a):
        """The CSC matrix ``a[order][:, order]``, each column's rows in a's order.

        The gather is a ``_csc_block`` of a's data, except that each column
        keeps its rows as a stores them, renumbered.  The natural order
        factor of the result repeats, bit for bit, the factor of ``a`` in
        the order ``perm_c``: SuperLU visits each column's rows as stored.
        """
        if self.block is None:
            counts = np.diff(a.indptr)[self.order]
            indptr = np.concatenate([[0], np.cumsum(counts)])
            take = np.repeat(a.indptr[self.order] - indptr[:-1], counts) + np.arange(indptr[-1])
            # perm_c is each column's new number
            self.block = (_index(take), _index(self.perm_c[a.indices[take]]), _index(indptr),
                          a.shape)
        m = _gather(self.block, a.data)
        # the rows are not ascending: splu would sort them, and the factor
        # would differ in its last bits
        m.has_canonical_format = True
        return m


def _gather(block, data):
    """The CSC matrix of a (take, indices, indptr, shape) block from the data it indexes."""
    take, indices, indptr, shape = block
    return sp.csc_matrix((data[take], indices, indptr), shape=shape)


class DofMap:
    """Global numbering and assembly plan of one (mesh, k).

    Numbering: vertex DOFs, then edge DOFs, then cell moments.  Edge-internal
    DOFs of a shared edge coincide for both cells: they are stored along the
    ascending-vertex-index direction, and the symmetric Gauss-Lobatto layout
    makes the reversed traversal a pure index flip.  The plan is what
    depends only on the mesh and k: each cell's DOFs (``flat``, ``offsets``),
    each local matrix entry's position in the CSR data of the pattern
    ``indices``/``indptr``, the (B, k + 1) DOFs ``boundary`` of the mesh's
    boundary edges in trace order (``space.edge_dofs``), the boundary DOFs
    ``fixed`` and the ``free`` rest, and the gathers ``reduced`` and
    ``lift`` of the free-by-free and free-by-fixed CSC blocks.  Its index
    arrays are int32 and read-only.
    ``elimination`` is None until the plan's first factor, which orders the
    reduced matrix by minimum degree; that order depends only on the
    pattern, so ``solve`` keeps it there (``_Elimination``), and every later
    factor on the plan takes it as given.
    """

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        self.n_edge_internal = k - 1
        self.n_moments = poly_dim(k - 2)
        self.edge_offset = mesh.n_vertices
        self.cell_offset = mesh.n_vertices + mesh.n_edges * self.n_edge_internal
        self.n_dofs = self.cell_offset + mesh.n_cells * self.n_moments
        self.offsets, self.flat, tables = self._number_cells()
        self._plan(tables)
        self.elimination = None

    def _number_cells(self):
        """Offsets, global DOFs of every cell in cell order, and (cells, table) by vertex count.

        The cells of each vertex count are numbered together as one
        (cells, n_dofs) table and scattered into place.
        """
        mesh = self.mesh
        sizes = mesh.cell_sizes * self.k + self.n_moments
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        flat = np.empty(offsets[-1], dtype=np.int32)
        t = np.arange(self.n_edge_internal)
        tables = []
        for cells, _ in mesh.cell_polygons():
            verts, edges = mesh.cell_table(cells)
            internal = np.where(edges[..., 1:].astype(bool), t, self.n_edge_internal - 1 - t)
            on_edges = self.edge_offset + edges[..., :1] * self.n_edge_internal + internal
            moments = self.cell_offset + cells[:, None] * self.n_moments + np.arange(self.n_moments)
            table = np.hstack([verts, on_edges.reshape(len(cells), -1), moments])
            flat[offsets[cells][:, None] + np.arange(table.shape[1])] = table
            tables.append((cells, table))
        flat.flags.writeable = False
        return offsets, flat, tables

    def _plan(self, tables):
        """The CSR pattern of ``_number_cells``'s DOF tables, the boundary DOFs and the gathers."""
        n = self.n_dofs
        sizes = np.diff(self.offsets)
        ends = np.cumsum(sizes * sizes)
        keys = np.empty(ends[-1], dtype=np.int64)
        for cells, dofs in tables:
            at = (ends - sizes * sizes)[cells][:, None] + np.arange(dofs.shape[1] ** 2)
            keys[at] = (dofs[:, :, None] * n + dofs[:, None, :]).reshape(len(cells), -1)
        keys, positions = np.unique(keys, return_inverse=True)
        rows, cols = keys // n, keys % n
        c, i = np.array(self.mesh.boundary_edges, dtype=int).reshape(-1, 2).T
        local = edge_dofs(self.mesh.cell_sizes[c], i, self.k)
        self.boundary = _index(self.flat[self.offsets[c][:, None] + local])
        fixed = np.zeros(n, dtype=bool)
        fixed[self.boundary] = True
        self.positions, self.indices, self.fixed, self.free = map(_index, (
            positions, cols, np.flatnonzero(fixed), np.flatnonzero(~fixed)))
        self.indptr = _index(np.searchsorted(rows, np.arange(n + 1)))
        self.reduced = _csc_block(rows, cols, ~fixed, ~fixed)
        self.lift = _csc_block(rows, cols, ~fixed, fixed)

    def stacked_dofs(self, cells):
        """Global DOFs of ``cells``, which have equal DOF counts; shape (C, n)."""
        n = self.offsets[cells[0] + 1] - self.offsets[cells[0]]
        return self.flat[self.offsets[cells][:, None] + np.arange(n)]

    def boundary_values(self, problem):
        """Prescribed Dirichlet DOFs and values, with label-priority tie-break.

        An edge's label is the mesh's, passed through the problem's
        ``boundary_classifier(start, end, label)`` when it has one; the
        mesh keeps its own labels.  Each label's function is evaluated once,
        on all nodes of its edges (in ``boundary``'s trace order: start,
        ``space.edge_nodes``, end).  A DOF offered by several edges takes the
        value of the lowest label rank, then of the first offer in
        ``mesh.boundary_edges`` order.  Returns the values on ``fixed``;
        raises MeshError on an unlabeled or unresolvable boundary edge.
        """
        mesh, classify, dofs = self.mesh, problem.boundary_classifier, self.boundary
        pa, pb = mesh.vertices[dofs[:, 0]], mesh.vertices[dofs[:, -1]]
        groups = {}  # label -> positions of its edges in boundary order
        for j, (c, i) in enumerate(mesh.boundary_edges):
            label = mesh.boundary_labels.get((c, i))
            if label is None:
                raise MeshError(f"boundary edge (cell {c}, edge {i}) has no label")
            if classify is not None:
                label = classify(pa[j], pb[j], label)
            if problem.dirichlet_for(label) is None:
                raise MeshError(
                    f"no Dirichlet data for boundary label {label!r} (cell {c})"
                )
            groups.setdefault(label, []).append(j)
        pts = np.concatenate([pa[:, None], edge_nodes(pa, pb, self.k), pb[:, None]], axis=1)
        vals = np.empty(dofs.shape)
        ranks = np.empty(len(dofs), dtype=int)
        for label, pos in groups.items():
            g = problem.dirichlet_for(label)
            vals[pos] = np.reshape(g(pts[pos].reshape(-1, 2)), (len(pos), -1))
            ranks[pos] = problem.label_rank(label)
        # sorted by DOF, then rank, then boundary position: an edge offers each
        # of its DOFs once, so the first entry of each DOF is the winning offer
        firsts = np.repeat(np.arange(len(dofs)), dofs.shape[1])
        pick = np.lexsort((firsts, np.repeat(ranks, dofs.shape[1]), dofs.ravel()))
        _, first = np.unique(dofs.ravel()[pick], return_index=True)
        return vals.ravel()[pick[first]]


class GlobalSystem(NamedTuple):
    """The assembled CSR operator and load on every DOF of the plan ``dofmap``."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap

    @property
    def n_dofs(self):
        return self.dofmap.n_dofs


class ReducedSystem(NamedTuple):
    """The free-by-free system left once the Dirichlet DOFs are eliminated.

    ``matrix`` is the CSC block of the plan's ``dofmap.free`` DOFs, ``rhs``
    their load minus the lift of the ``values`` prescribed on ``dofmap.fixed``.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    values: np.ndarray
    dofmap: DofMap


def assemble(dofmap, blocks):
    """Scatter-add stacked local matrices and loads into a ``GlobalSystem``.

    ``blocks`` is an iterable of (cells, matrices, loads): cell ids (C,),
    their local matrices (C, n, n) and loads (C, n).  Every cell comes in
    exactly one block.  Values are placed at positions ordered by cell,
    whatever the order of the blocks, then summed into the CSR data of the
    DOF map's pattern by one ``np.bincount`` over its ``positions``, so the
    reduction order is fixed by cell index and entries are deterministic.
    The system is immutable; its CSR matrix shares the pattern's read-only
    ``indices`` and ``indptr``.
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
    rhs = np.bincount(dofmap.flat, weights=load, minlength=n)
    data = np.bincount(dofmap.positions, weights=vals, minlength=len(dofmap.indices))
    matrix = sp.csr_matrix((data, dofmap.indices, dofmap.indptr), shape=(n, n))
    return GlobalSystem(matrix, rhs, dofmap)


def apply_dirichlet(system, problem):
    """The ``ReducedSystem`` of ``system`` with its boundary DOFs prescribed.

    Every boundary DOF is prescribed, so the reduced matrix and the lift are
    the plan's gathers from the assembled CSR data; ``system`` is left as is.
    """
    plan, data = system.dofmap, system.matrix.data
    values = plan.boundary_values(problem)
    lift = _gather(plan.lift, data) @ values
    return ReducedSystem(_gather(plan.reduced, data), system.rhs[plan.free] - lift, values, plan)


def solve(reduced):
    """Direct sparse solve of a ``ReducedSystem`` with a residual guarantee.

    SuperLU factors in symmetric mode.  The plan's first factor orders
    A^T + A by minimum degree and leaves that order in
    ``dofmap.elimination``; later factors on the plan take the matrix in
    that order, through the plan's gather, and skip the ordering, with the
    same factor bit for bit.  ``reduced.matrix`` must have the plan's
    reduced pattern, as every ``apply_dirichlet`` result has.  Returns
    (dofs, residual, lu_nnz): the DOF vector of the whole plan, the relative
    residual of the reduced system and the nonzeros of its sparse LU
    factors, SuperLU's own count (``lu.nnz``), 0 when nothing was factored.
    """
    a, b, plan = reduced.matrix.tocsc(), reduced.rhs, reduced.dofmap
    full = np.zeros(plan.n_dofs)
    full[plan.fixed] = reduced.values
    if a.shape[0] == 0:
        print(f"solve: n={plan.n_dofs} residual=0.0e+00")
        return full, 0.0, 0
    kept = plan.elimination
    if kept is None:
        # every assembled matrix has a symmetric pattern (dense local blocks):
        # order A^T + A by minimum degree and pivot on the diagonal
        order, m, spec = slice(None), a, "MMD_AT_PLUS_A"
    else:
        order, m, spec = kept.order, kept.gather(a), "NATURAL"
    try:
        lu = spla.splu(
            m,
            permc_spec=spec,
            diag_pivot_thresh=DIAG_PIVOT_THRESH,
            options={"SymmetricMode": True},
        )
        x = np.empty(len(b))
        x[order] = lu.solve(b[order])
    except RuntimeError as exc:
        raise SolveError(f"sparse factorization failed: {exc}") from None
    if kept is None:
        plan.elimination = _Elimination(lu.perm_c)
    if not np.all(np.isfinite(x)):
        raise SolveError("singular system: factorization produced non-finite values")
    norm_b = np.linalg.norm(b)
    residual = np.linalg.norm(a @ x - b) / (norm_b if norm_b > 0 else 1.0)
    if residual > _RESIDUAL_TOL:
        raise SolveError(f"residual {residual:.3e} above tolerance {_RESIDUAL_TOL:g}")
    full[plan.free] = x
    print(f"solve: n={plan.n_dofs} residual={residual:.6e}")
    return full, residual, lu.nnz


class DiscreteSolution:
    """Global DOF vector plus per-element polynomial reconstructions, built once.

    From the solved ``ReducedSystem``, ``solve``'s (dofs, residual, lu_nnz)
    and the solve's ``harness.CellSpaces``, Peclet numbers and tau.  ``nnz``
    counts the reduced matrix's nonzeros; ``reconstructions`` holds each
    cell's P_k coefficients, computed per chunk of ``spaces.chunks``.
    """

    def __init__(self, reduced, dofs, residual, lu_nnz, spaces, peclet, tau):
        self.reduced, self.dofs, self.residual, self.lu_nnz = reduced, dofs, residual, lu_nnz
        self.nnz, self.n_dofs = reduced.matrix.nnz, len(dofs)
        self.ell, self.peclet, self.tau = spaces.ell, peclet, tau
        self.reconstructions = np.empty((len(spaces), poly_dim(reduced.dofmap.k)))
        for stack, rows, cells in spaces.chunks:
            # a stack of matrix-vector products, not one matrix product: each
            # cell's coefficients are then bit for bit those of ``coeff @ local``
            coeff = stack.pinabla_coeff[rows]
            local = dofs[reduced.dofmap.stacked_dofs(cells)][..., None]
            self.reconstructions[cells] = (coeff @ local)[..., 0]


def _dot(a, b):
    """Pointwise dot product of stacked 2-vectors (last axis of length 2).

    Spelled out, since numpy's strided sum over a length-2 axis gives the
    same numbers about ten times slower.
    """
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def energy_error(spaces, solution, problem):
    """Relative energy-norm error of the reconstructed solution.

    err^2 = sum_E kappa |grad(u - P u_h)|^2 + tau |beta . grad(u - P u_h)|^2
    normalized by the same quantity with u alone; P u_h is the cell's row of
    ``solution.reconstructions`` (the element H1 projection) and tau the
    cell's ``solution.tau``.  Requires the exact gradient.  Cell c is
    ``spaces[c]`` of the solve's ``harness.CellSpaces``, moved by
    ``spaces.shift[c]``.  Each chunk of ``spaces.chunks`` is evaluated at
    once, each cell on its member's points.  The four integrals of each cell
    are summed over its own points, then added into the totals in cell order.
    """
    if problem.exact_grad is None:
        raise ValueError("energy error needs the exact gradient")
    sums = np.empty((len(spaces), 4))  # kappa and tau terms of num, then of den
    for stack, rows, cells in spaces.chunks:
        geom = stack.geom[rows]
        polys = solution.reconstructions[cells][..., None]
        # a translate's points about its star center are the shape's own
        vals = eval_basis(MonomialBasis(geom, stack.k - 1), geom.quad_points).mT
        grads = grad_map(MonomialBasis(geom, stack.k))
        gh = np.concatenate([vals @ (d @ polys) for d in grads], axis=2)
        pts = geom.quad_points + spaces.shift[cells][:, None, :]
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
    # one sequential sum per total, kappa term then tau term cell by cell
    terms = np.stack([problem.kappa * sums[:, 0::2], solution.tau[:, None] * sums[:, 1::2]], 1)
    num, den = np.add.accumulate(terms.reshape(-1, 2))[-1].tolist()
    if den == 0.0:
        raise ValueError("energy error undefined: exact solution has zero energy")
    return float(np.sqrt(num / den))


def format_vtk_geometry(mesh):
    """The POINTS, CELLS and CELL_TYPES lines of ``mesh`` in a legacy VTK file, as a tuple."""
    return (
        f"POINTS {mesh.n_vertices} double",
        *map("{:.17g} {:.17g} 0".format, *mesh.vertices.T.tolist()),
        f"CELLS {mesh.n_cells} {int(mesh.cell_sizes.sum()) + mesh.n_cells}",
        *(" ".join(map(str, [len(cell), *cell.tolist()])) for cell in mesh.cells),
        f"CELL_TYPES {mesh.n_cells}", *["7"] * mesh.n_cells,  # VTK_POLYGON
    )


def export_vtk(solution, mesh, path):
    """Legacy ASCII unstructured-grid file with polygon cells.

    Point data: vertex DOF values ("u_vertex").  Cell data: the H1-projected
    solution at the star centers ("u_pi_center"), the enhancement increment
    ("ell") and the element Peclet number ("peclet").  The geometry lines
    are the mesh's ``vtk_geometry``, formatted once per mesh.  Raises
    ``ValueError`` when ``mesh`` has other vertex or cell counts than the
    solution's mesh.
    """
    own = (solution.reduced.dofmap.mesh.n_vertices, len(solution.reconstructions))
    if own != (mesh.n_vertices, mesh.n_cells):
        raise ValueError(f"the solution has {own[0]} vertices and {own[1]} cells, the mesh "
                         f"{mesh.n_vertices} vertices and {mesh.n_cells} cells")
    real = "{:.17g}".format  # 17 digits read back exactly

    def scalars(name, values, fmt=real):
        return [f"SCALARS {name} 1", "LOOKUP_TABLE default", *map(fmt, values.tolist())]

    lines = [
        "# vtk DataFile Version 3.0", "vemsupg solution", "ASCII", "DATASET UNSTRUCTURED_GRID",
        *mesh.vtk_geometry,
        f"POINT_DATA {mesh.n_vertices}",
        *scalars("u_vertex double", solution.dofs[: mesh.n_vertices]),
        f"CELL_DATA {mesh.n_cells}",
        # the constant-mode coefficient is the projected value at the star center
        *scalars("u_pi_center double", solution.reconstructions[:, 0]),
        *scalars("ell int", solution.ell, str),
        *scalars("peclet double", solution.peclet),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
