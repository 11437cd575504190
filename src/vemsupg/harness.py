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
    DEFAULT_PROBE_TOL,
    ShapeForms,
    baseline_vem_forms,
    element_coefficients,
    first_coercive,
    probe_exhausted,
    probe_min_ell,
    rank_bound_ell,
    sf_forms,
)
from .geometry import ElementGeometry
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
    exact to the degree the space needs; the kernel and star center are
    computed once, by the first geometry, and the others reuse them.
    """

    def __init__(self, verts, anchor, cell):
        self.vertices = verts
        self.anchor = anchor
        self.cell = cell
        self.center = None  # (star center, kernel radius), from the first geometry
        self.spaces = {}
        self.probed = {}

    def space(self, k, ell):
        if (k, ell) not in self.spaces:
            geom = ElementGeometry(
                self.vertices, 2 * (k + ell) + 2, k + ell + 1, cell=self.cell,
                center=self.center,
            )
            self.center = geom.star_center, geom.kernel_radius
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

            self.probed[k] = first_coercive(trials(), DEFAULT_PROBE_TOL).ell
        return self.probed[k]


class ShapeTable:
    """The shapes met so far, keyed by ``_shape_signatures``.

    A cartesian grid has one shape and the pentagon tiling two; on a Voronoi
    mesh every cell is its own shape.
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
        placed = []
        for c, key, anchor in zip(cells, keys, anchors):
            shape = self.shapes.get(key)
            if shape is None:
                shape = self.shapes[key] = Shape(mesh.cell_vertices(c), anchor, c)
            placed.append((shape, anchor - shape.anchor))
        return placed


def _choose_ell(mesh, c, shape, k, ell_mode):
    if ell_mode == "auto":
        return shape.probe(k)
    if isinstance(ell_mode, dict):
        try:
            return ell_mode[len(mesh.cells[c])]
        except KeyError:
            raise KeyError(
                f"no fixed increment for {len(mesh.cells[c])}-vertex cells"
            ) from None
    return int(ell_mode)


def build_element(mesh, c, k, ell_mode, cache):
    """(space, shift, chosen ell) of one cell, from the shape table ``cache``.

    The cell is the shape's space translated by ``shift``.
    """
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
        self._boxes = None  # padded per-cell vertex extents, for ``sample``

    @property
    def mean_peclet(self):
        return float(np.mean(self.solution.peclet))

    def error(self, problem):
        return energy_error(self.spaces, self.shifts, self.solution, problem)

    def sample(self, points):
        """Evaluate the reconstructed solution at points inside the domain."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(len(pts))
        for j, pt in enumerate(pts):
            cell = self._locate(pt)
            space = self.spaces[cell]
            center = space.geom.star_center + self.shifts[cell]
            vals = eval_basis(space.basis_k, pt[None, :], center)
            out[j] = (self.solution.reconstructions[cell] @ vals)[0]
        return out

    def _locate(self, pt):
        """Lowest-index cell holding ``pt``: all-edges test, then fan triangles.

        Only cells whose padded vertex bounding box holds the point are
        tested.  Both tests accept points up to about 1e-12/|edge| outside a
        cell; the pad of 1e-3 of the box size covers that with a wide margin.
        """
        if self._boxes is None:
            loops = np.concatenate(self.mesh.cells)
            starts = np.cumsum([0] + [len(cell) for cell in self.mesh.cells[:-1]])
            xy = self.mesh.vertices[loops]
            lo = np.minimum.reduceat(xy, starts, axis=0)
            hi = np.maximum.reduceat(xy, starts, axis=0)
            pad = 1e-3 * (hi - lo).max(axis=1, keepdims=True)
            self._boxes = lo - pad, hi + pad
        lo, hi = self._boxes
        cands = np.flatnonzero(((lo <= pt) & (pt <= hi)).all(axis=1))
        for c in cands:
            verts = self.mesh.cell_vertices(c)
            nxt = np.roll(verts, -1, axis=0)
            d = nxt - verts
            rel = pt - verts
            side = d[:, 0] * rel[:, 1] - d[:, 1] * rel[:, 0]
            if np.all(side >= -1e-12):
                return int(c)
        # concave cells: fall back to the sub-triangulation test
        for c in cands:
            for tri in self.spaces[c].geom.triangles + self.shifts[c]:
                a, b, cc = tri
                s1 = (b - a)[0] * (pt - a)[1] - (b - a)[1] * (pt - a)[0]
                s2 = (cc - b)[0] * (pt - b)[1] - (cc - b)[1] * (pt - b)[0]
                s3 = (a - cc)[0] * (pt - cc)[1] - (a - cc)[1] * (pt - cc)[0]
                if min(s1, s2, s3) >= -1e-12:
                    return int(c)
        raise ValueError(f"point {pt} is outside the mesh")


def solve_problem(mesh, problem, k, ell="auto", method="sf"):
    """Assemble and solve one problem on one mesh.

    ``method`` selects the stabilization-free forms ("sf") or the classical
    stabilized baseline ("vem", which always runs on the standard ell = 0
    space).  Both paths share numbering, data evaluation and the boundary
    treatment; only the local matrices differ.
    """
    if method not in ("sf", "vem"):
        raise ValueError("method must be 'sf' or 'vem'")
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
    ell: object = "auto"  # "auto" or a fixed integer
    refinements: tuple = (4, 8, 16, 32)
    baseline: bool = False
    seed: int = 0
    lloyd_iters: int = 100
    out_dir: str = None

    def __post_init__(self):
        if not 1 <= self.k <= 4:
            raise ValueError("order k must be in 1..4")
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
    log = _RunLog(config)
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
    log.close()
    return report


def run_field(config):
    """Solve once on the finest configured mesh and export the fields."""
    problem = config.make_problem()
    log = _RunLog(config)
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
    log.close()
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
    log = _RunLog(config)
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
    log.close()
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
    """Plain-text log of one harness run, written next to the other outputs."""

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

    def close(self):
        if self._fh is not None:
            self._fh.close()
