"""Experiment driver: mesh families, solves, convergence studies, probe tables.

Every solve builds its element data through one shape table.  Cells that
are translated copies of one another (all cells of a cartesian grid, the two
pentagons of the concave tiling) share one kernel and star center, one
space per (k, ell) and one probe result, built on the first cell of the
shape.  The probe tries the shape's own (k, ell) spaces in increasing ell,
from the smallest ell a dimension count allows, and the solve keeps the one
it accepts; the rejected trials are dropped.  A cell is a placement of its
shape: the shape's space plus the cell's shift from the shape's first cell.
Since every projector matrix is translation-invariant, the shift only moves
the points at which velocity, source and exact solution are sampled, so the
local forms and loads of each shape are formed in stacked batches from one
set of form tables.  The batches stay stacked: each goes to ``assemble`` as
its cells with their (C, n, n) matrices and (C, n) loads, and its Peclet
numbers and tau fill per-cell arrays, so no per-cell coefficient or form
object is made.  The solve result, the energy error and ``sample`` keep the
shape's space and the shift, never a per-cell copy of the element.
On a Voronoi mesh every cell is its own shape, with zero shift, and the same
path runs with groups of one.
"""

import copy
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .assemble import (
    DofMap,
    apply_dirichlet,
    assemble,
    cell_chunks,
    energy_error,
    export_vtk,
    solve,
)
from .basis import eval_basis
from .errors import ProbeError
# the per-element forms and the one-geometry probe are not called here: callers
# and perfbench/tracing.py look them up on this module
from .forms import (  # noqa: F401
    DEFAULT_ELL_MAX,
    ShapeForms,
    baseline_vem_forms,
    element_coefficients,
    first_coercive,
    probe_exhausted,
    probe_min_ell,
    rank_bound_ell,
    sf_forms,
)
from .geometry import ElementGeometry, star_centers
from .mesh import (
    generate_cartesian,
    generate_concave_pentagons,
    generate_voronoi,
    relabel_boundary,
)
from .problems import get_problem
from .space import LocalSpace, dof_layout

FAMILIES = ("t1", "t2", "t3")


def generate_mesh(family, n, seed=0, lloyd_iters=100, level=0):
    """One mesh of the requested family at per-side resolution ``n``.

    The Voronoi family cannot be refined by splitting, so each level is
    regenerated with n^2 cells from a level-shifted seed.
    """
    if n < 1:
        raise ValueError(f"mesh size n must be at least 1, got {n}")
    if family == "t1":
        return generate_cartesian(n, n)
    if family == "t2":
        return generate_concave_pentagons(n)
    if family == "t3":
        return generate_voronoi(n * n, lloyd_iters=lloyd_iters, seed=seed + level)
    raise ValueError(f"unknown mesh family {family!r}; choose from {FAMILIES}")


# -- per-shape element table ----------------------------------------------


def _shape_signatures(polys):
    """Keys equal for translated copies of one polygon, for stacked (C, nv, 2) polygons.

    The key holds the size, so dilated copies get keys of their own.  Returns
    the keys and the vertex means the translations are measured from.
    """
    anchor = polys.mean(axis=1)
    rel = polys - anchor[:, None, :]
    h = np.sqrt((rel**2).sum(axis=2).max(axis=1))
    rel = np.round(rel / h[:, None, None], 12).reshape(len(polys), -1)
    n_v = polys.shape[1]
    keys = [(n_v, float(f"{r:.12g}")) + tuple(row) for r, row in zip(h.tolist(), rel.tolist())]
    return keys, anchor


class Shape:
    """Element data of one cell shape, built on the first cell that has it.

    Every other cell of the shape is a translate of that cell, and all its
    projector matrices are translation-invariant (integrals run in
    star-centered scaled monomials), so spaces and probe results are built
    once here and shared.  Each (k, ell) space carries its own geometry,
    exact to the degree the space needs; all of them share the shape's
    kernel star center, which ``ShapeTable.place`` computes.
    """

    def __init__(self, verts, anchor, cell, center):
        self.vertices = verts
        self.anchor = anchor
        self.cell = cell
        self.center = center  # (star center, kernel radius)
        self.spaces = {}
        self.probed = {}

    def space(self, k, ell):
        if (k, ell) not in self.spaces:
            geom = ElementGeometry(
                self.vertices, 2 * (k + ell) + 2, k + ell + 1, cell=self.cell,
                center=self.center,
            )
            self.spaces[(k, ell)] = LocalSpace(geom, k, ell)
        return self.spaces[(k, ell)]

    def probe(self, k):
        """Smallest coercive increment at order k, tried on this shape's spaces.

        Trials start at the rank bound: the increments below it are rejected
        by a dimension count, so their spaces are not built.
        """
        if k not in self.probed:
            start = rank_bound_ell(dof_layout(len(self.vertices), k).n_dofs, k)
            if start > DEFAULT_ELL_MAX:
                skipped = [(ell, None) for ell in range(DEFAULT_ELL_MAX + 1)]
                raise probe_exhausted(k, skipped, self.cell)

            def trials():
                for ell in range(start, DEFAULT_ELL_MAX + 1):
                    yield self.space(k, ell)
                    # rejected: dropped, a Voronoi mesh has a shape per cell
                    del self.spaces[(k, ell)]

            self.probed[k] = first_coercive(trials()).ell
        return self.probed[k]


class ShapeTable:
    """The shapes met so far, keyed by ``_shape_signatures``.

    A cartesian grid has one shape and the pentagon tiling two; on a Voronoi
    mesh every cell is its own shape.  The star centers of the shapes one
    ``place`` call meets first are computed together, by ``star_centers``.
    """

    def __init__(self):
        self.shapes = {}

    def place(self, mesh, cells):
        """Shape of each cell and the cell's translation from the shape's first cell."""
        cells = list(cells)
        n_v = np.array([len(mesh.cells[c]) for c in cells], dtype=int)
        keys = [None] * len(cells)
        anchors = np.empty((len(cells), 2))
        for nv in np.unique(n_v):
            at = np.flatnonzero(n_v == nv)
            polys = mesh.vertices[np.array([mesh.cells[cells[i]] for i in at])]
            group_keys, anchors[at] = _shape_signatures(polys)
            for i, key in zip(at, group_keys):
                keys[i] = key
        new = {}  # key -> position of the key's first cell
        for i, key in enumerate(keys):
            if key not in self.shapes:
                new.setdefault(key, i)
        firsts = [cells[i] for i in new.values()]
        polys = [mesh.cell_vertices(c) for c in firsts]
        centers, radii = star_centers(polys, firsts)
        for (key, i), verts, center, radius in zip(new.items(), polys, centers, radii):
            self.shapes[key] = Shape(verts, anchors[i], cells[i], (center, float(radius)))
        return [(self.shapes[key], anchor - self.shapes[key].anchor)
                for key, anchor in zip(keys, anchors)]


def _check_ell(ell, mesh):
    """Raise ``ValueError`` unless ``ell`` is "auto", a count >= 0 or a dict of counts.

    A dict maps vertex counts to counts and must hold every vertex count of ``mesh``.
    """

    def count(v):
        return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 0

    if not (isinstance(ell, str) and ell == "auto" or count(ell)
            or isinstance(ell, dict) and all(map(count, ell.values()))):
        raise ValueError(f'ell must be "auto", an integer >= 0 or a dict of them, not {ell!r}')
    if isinstance(ell, dict):
        for c, cell in enumerate(mesh.cells):
            if len(cell) not in ell:
                raise ValueError(f"ell has no increment for {len(cell)}-vertex cells "
                                 f"(the first is cell {c})")


def _choose_ell(mesh, c, shape, k, ell_mode):
    if ell_mode == "auto":
        return shape.probe(k)
    if isinstance(ell_mode, dict):
        return ell_mode[len(mesh.cells[c])]
    return int(ell_mode)


def build_element(mesh, c, k, ell_mode, cache):
    """(space, shift, chosen ell) of one cell, from the shape table ``cache``.

    The cell is the shape's space translated by ``shift``.
    """
    _check_ell(ell_mode, mesh)
    [(shape, shift)] = cache.place(mesh, [c])
    ell = _choose_ell(mesh, c, shape, k, ell_mode)
    return shape.space(k, ell), shift, ell


class SolveResult:
    """Everything one solve produced, for error evaluation and export.

    Cell c's element is ``spaces[c]`` translated by ``shifts[c]``: the space
    is its shape's own, shared by every translate of the shape, with the
    geometry of the shape's first cell, and ``shifts`` (n_cells, 2) holds
    each cell's translation from that cell.
    """

    def __init__(self, solution, mesh, dofmap, spaces, shifts):
        self.solution = solution
        self.mesh = mesh
        self.dofmap = dofmap
        self.spaces = spaces
        self.shifts = shifts
        self._cell_tables = None  # padded per-cell arrays, for ``sample``

    @property
    def mean_peclet(self):
        return float(np.mean(self.solution.peclet))

    def error(self, problem):
        return energy_error(self.spaces, self.shifts, self.solution, problem)

    def sample(self, points):
        """Evaluate the reconstructed solution at points inside the domain."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self._locate(pts)
        local = pts - self.shifts[cells]  # each point moved onto its cell's shape
        out = np.empty(len(pts))
        for group in cell_chunks([self.spaces[c] for c in cells]):
            vals = eval_basis(self.spaces[cells[group[0]]].basis_k, local[group])
            out[group] = np.sum(self.solution.reconstructions[cells[group]] * vals.T, axis=1)
        return out

    def _locate(self, pts):
        """Lowest-index cell holding each point: all-edges test, then fan triangles.

        Only cells whose padded vertex bounding box holds the point are
        tested.  Both tests accept points up to about 1e-12/|edge| outside a
        cell; the pad of 1e-3 of the box size covers that with a wide margin.
        Cells are padded to the largest with zero-length edges and NaN triangles.
        """
        if self._cell_tables is None:
            width = max(len(cell) for cell in self.mesh.cells) + 1
            loops = self.mesh.vertices[
                [list(cell) + [cell[0]] * (width - len(cell)) for cell in self.mesh.cells]
            ]
            tris = np.full((len(loops), width - 1, 3, 2), np.nan)
            for cells in cell_chunks(self.spaces):
                shape_tris = self.spaces[cells[0]].geom.triangles
                tris[cells, : len(shape_tris)] = shape_tris + self.shifts[cells][:, None, None]
            lo, hi = loops.min(axis=1), loops.max(axis=1)
            pad = 1e-3 * (hi - lo).max(axis=1, keepdims=True)
            self._cell_tables = lo - pad, hi + pad, loops, tris
        lo, hi, loops, tris = self._cell_tables
        out = np.full(len(pts), -1)
        step = max(1, 2**20 // len(lo))  # bounds the point-by-box table
        for start in range(0, len(pts), step):
            p = pts[start : start + step]
            ip, ic = np.nonzero(((lo <= p[:, None]) & (p[:, None] <= hi)).all(axis=2))
            q = p[ip, None]
            hit = np.all(_cross(loops[ic, :-1], loops[ic, 1:], q) >= -1e-12, axis=1)
            # concave cells: fall back to the sub-triangulation test
            rest = np.isin(ip, ip[hit], invert=True)
            a, b, c, q = tris[ic[rest], :, 0], tris[ic[rest], :, 1], tris[ic[rest], :, 2], q[rest]
            side = np.minimum(np.minimum(_cross(a, b, q), _cross(b, c, q)), _cross(c, a, q))
            hit[rest] = np.any(side >= -1e-12, axis=1)
            # pairs run by point, then by increasing cell: keep each point's first
            found, first = np.unique(ip[hit], return_index=True)
            out[start + found] = ic[hit][first]
        if np.any(out < 0):
            raise ValueError(f"point {pts[np.argmax(out < 0)]} is outside the mesh")
        return out


def _cross(a, b, q):
    """Cross product of b - a with q - a: not negative when q is left of a->b."""
    return (b - a)[..., 0] * (q - a)[..., 1] - (b - a)[..., 1] * (q - a)[..., 0]


def solve_problem(mesh, problem, k, ell="auto", method="sf"):
    """Assemble and solve one problem on one mesh.

    ``method`` selects the stabilization-free forms ("sf") or the classical
    stabilized baseline ("vem", which always runs on the standard ell = 0
    space).  Both paths share numbering, data evaluation and the boundary
    treatment; only the local matrices differ.
    """
    if method not in ("sf", "vem"):
        raise ValueError("method must be 'sf' or 'vem'")
    _check_ell(ell, mesh)
    if problem.boundary_classifier is not None:
        mesh = relabel_boundary(copy.copy(mesh), problem.boundary_classifier)
    if method == "vem":
        ell = 0
    placed = ShapeTable().place(mesh, range(mesh.n_cells))
    shifts = np.array([shift for _, shift in placed])
    spaces = [
        shape.space(k, _choose_ell(mesh, c, shape, k, ell))
        for c, (shape, _) in enumerate(placed)
    ]
    peclet, tau = np.empty(mesh.n_cells), np.empty(mesh.n_cells)
    blocks = []
    tables = None
    for cells in cell_chunks(spaces):
        space = spaces[cells[0]]
        if tables is None or tables.space is not space:
            # form tables live for one space only: a Voronoi mesh has one per cell
            tables = ShapeForms(space, stabilized=method == "vem")
        peclet[cells], tau[cells], matrices, loads = tables.batch(problem, shifts[cells])
        blocks.append((cells, matrices, loads))
    dofmap = DofMap(mesh, k)
    system = assemble(dofmap, blocks)
    apply_dirichlet(system, problem)
    solution = solve(system).attach_reconstructions(dofmap, spaces, peclet, tau)
    return SolveResult(solution, mesh, dofmap, spaces, shifts)


# -- experiment configuration -------------------------------------------------


@dataclass
class ExperimentConfig:
    """One experiment: problem, mesh family, order, refinements, outputs."""

    problem: str = "smooth"
    problem_kwargs: dict = field(default_factory=dict)
    family: str = "t1"
    k: int = 1
    ell: object = "auto"  # "auto", a fixed integer or a dict of them by vertex count
    refinements: tuple = (4, 8, 16, 32)
    baseline: bool = False
    seed: int = 0
    lloyd_iters: int = 100
    out_dir: str = None

    def __post_init__(self):
        if not 1 <= self.k <= 4:
            raise ValueError("order k must be in 1..4")
        if not self.refinements:
            raise ValueError("refinement schedule is empty")
        if any(b <= a for a, b in zip(self.refinements, self.refinements[1:])):
            raise ValueError("refinement schedule must strictly decrease h")

    def make_problem(self):
        return get_problem(self.problem, **self.problem_kwargs)


def _fmt(x):
    return format(float(x), ".17g")


class ConvergenceReport:
    """Per-refinement errors and the observed rates from the last two rows."""

    HEADER = "level,h_max,n_dof,err_sf,err_vem,ratio,mean_pe,alpha_sf,alpha_vem"

    def __init__(self, rows):
        self.rows = rows

    @staticmethod
    def rate(h_prev, h_cur, e_prev, e_cur):
        return float(np.log(e_prev / e_cur) / np.log(h_prev / h_cur))

    @property
    def alpha_sf(self):
        return self.rows[-1]["alpha_sf"] if len(self.rows) > 1 else None

    @property
    def alpha_vem(self):
        return self.rows[-1]["alpha_vem"] if len(self.rows) > 1 else None

    def to_csv(self):
        lines = [self.HEADER]
        for row in self.rows:
            cells = [
                str(row["level"]),
                _fmt(row["h_max"]),
                str(row["n_dof"]),
                _fmt(row["err_sf"]),
                _fmt(row["err_vem"]) if row["err_vem"] is not None else "",
                _fmt(row["ratio"]) if row["ratio"] is not None else "",
                _fmt(row["mean_pe"]),
                _fmt(row["alpha_sf"]) if row["alpha_sf"] is not None else "",
                _fmt(row["alpha_vem"]) if row["alpha_vem"] is not None else "",
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def run_convergence(config):
    """Solve on every refinement, compute energy errors and rates, write CSV."""
    problem = config.make_problem()
    if problem.exact_grad is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    with _RunLog(config) as log:
        rows = []
        for level, n in enumerate(config.refinements):
            mesh = generate_mesh(
                config.family, n, seed=config.seed, lloyd_iters=config.lloyd_iters,
                level=level,
            )
            res_sf = solve_problem(mesh, problem, config.k, ell=config.ell, method="sf")
            err_sf = res_sf.error(problem)
            err_vem = None
            if config.baseline:
                res_vem = solve_problem(mesh, problem, config.k, ell=config.ell, method="vem")
                err_vem = res_vem.error(problem)
            row = {
                "level": level,
                "h_max": mesh.max_diameter(),
                "n_dof": res_sf.solution.n_dofs,
                "err_sf": err_sf,
                "err_vem": err_vem,
                "ratio": (err_vem / err_sf) if err_vem is not None else None,
                "mean_pe": res_sf.mean_peclet,
                "alpha_sf": None,
                "alpha_vem": None,
            }
            if rows:
                prev = rows[-1]
                row["alpha_sf"] = ConvergenceReport.rate(
                    prev["h_max"], row["h_max"], prev["err_sf"], row["err_sf"]
                )
                if err_vem is not None and prev["err_vem"] is not None:
                    row["alpha_vem"] = ConvergenceReport.rate(
                        prev["h_max"], row["h_max"], prev["err_vem"], row["err_vem"]
                    )
            rows.append(row)
            log.line(
                f"level={level} n={n} h={row['h_max']:.6g} ndof={row['n_dof']} "
                f"err_sf={err_sf:.6e}"
                + (f" err_vem={err_vem:.6e}" if err_vem is not None else "")
            )
        report = ConvergenceReport(rows)
        if config.out_dir:
            report.write(os.path.join(config.out_dir, "convergence.csv"))
    return report


def run_field(config):
    """Solve once on the finest configured mesh and export the fields."""
    problem = config.make_problem()
    with _RunLog(config) as log:
        n = config.refinements[-1]
        mesh = generate_mesh(
            config.family, n, seed=config.seed, lloyd_iters=config.lloyd_iters
        )
        res = solve_problem(mesh, problem, config.k, ell=config.ell, method="sf")
        vertex_vals = res.solution.dofs[: mesh.n_vertices]
        summary = {
            "min_vertex": float(vertex_vals.min()),
            "max_vertex": float(vertex_vals.max()),
            "n_dof": res.solution.n_dofs,
            "mean_pe": res.mean_peclet,
            "result": res,
        }
        print(f"field: min={summary['min_vertex']:.6g} max={summary['max_vertex']:.6g}")
        log.line(
            f"field n={n} ndof={summary['n_dof']} min={summary['min_vertex']:.6g} "
            f"max={summary['max_vertex']:.6g}"
        )
        if config.out_dir:
            name = f"solution_{problem.name or config.problem}_{config.family}_k{config.k}.vtk"
            export_vtk(res.solution, mesh, os.path.join(config.out_dir, name))
    return summary


PROBE_MESH_SIZE = {"t1": 2, "t2": 2, "t3": 10}


def probe_table(config, orders=(1, 2, 3, 4), families=None):
    """Minimal increments per (family, vertex count, order).

    Each family contributes one representative mesh; every distinct cell
    shape is probed and entries aggregate by vertex count taking the largest
    increment (the safe choice when shapes of equal vertex count differ).
    Entries that exhaust the search cap are marked with an em dash.
    """
    if families is None:
        families = [config.family] if config.family else list(FAMILIES)
    with _RunLog(config) as log:
        table = {}
        for family in families:
            n = PROBE_MESH_SIZE[family]
            mesh = generate_mesh(
                family, n, seed=config.seed, lloyd_iters=config.lloyd_iters
            )
            seen = ShapeTable()
            seen.place(mesh, range(mesh.n_cells))
            for k in orders:
                for shape in seen.shapes.values():
                    n_v = len(shape.vertices)
                    try:
                        ell = shape.probe(k)
                    except ProbeError:
                        ell = None
                    key = (family, n_v, k)
                    cur = table.get(key)
                    if cur is None or (ell is not None and cur != "—" and ell > cur):
                        table[key] = ell if ell is not None else "—"
                    elif ell is None:
                        table[key] = "—"
            log.line(f"probed family={family} shapes={len(seen.shapes)}")
        if config.out_dir:
            path = os.path.join(config.out_dir, "probe_table.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("family,n_vertices,k,ell\n")
                for (family, n_v, k) in sorted(table):
                    fh.write(f"{family},{n_v},{k},{table[(family, n_v, k)]}\n")
    return table


def format_probe_table(table):
    """Pretty layout: one row per order, one column per (family, N_V)."""
    cols = sorted({(f, nv) for f, nv, _ in table})
    orders = sorted({k for _, _, k in table})
    head = "k    " + "  ".join(f"{f}:N_V={nv}" for f, nv in cols)
    lines = [head]
    for k in orders:
        cells = [str(table.get((f, nv, k), "")) for f, nv in cols]
        lines.append(f"k={k}  " + "  ".join(c.center(len(f"{f}:N_V={nv}")) for (f, nv), c in zip(cols, cells)))
    return "\n".join(lines)


class _RunLog:
    """Plain-text log of one harness run, written next to the other outputs.

    A context manager: the file is closed when the run ends, also on error.
    """

    def __init__(self, config):
        self._fh = None
        if config.out_dir:
            os.makedirs(config.out_dir, exist_ok=True)
            self._fh = open(
                os.path.join(config.out_dir, "run.log"), "a", encoding="utf-8"
            )
            self.line(f"config: {config}")

    def line(self, text):
        if self._fh is not None:
            self._fh.write(text + "\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._fh is not None:
            self._fh.close()
