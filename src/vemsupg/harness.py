"""Experiment driver: mesh families, solves, convergence studies, probe tables.

Every solve gets its element data from ``cell_spaces``, the one path from
cells to spaces.  A mesh's ``placement`` keys its cells by shape, in arrays:
translated copies of one cell (all cells of a cartesian grid, the two
pentagons of the concave tiling) share one kernel, star center and space,
built on the shape's first cell; on a Voronoi mesh every cell is its own
shape.  Shapes of one vertex count and (k, ell) are built in stacks of up
to ``STACK``: one stacked geometry, one stacked space and, in the solve,
one set of form tables.  The probe runs in rounds: every shape first tries
the smallest ell a dimension count allows, a round decides a stack of trial spaces with one
batched eigenvalue solve, the accepted members become a stack that the
solve keeps and the rejected shapes try the next ell.  The cells' spaces are
one table, ``CellSpaces``: the stacks, each cell's stack, member, ell and
shift, and the chunks of cells on one stack.  Every projector matrix is
translation-invariant, so a cell's shift from its shape's first cell only
moves the points at which velocity, source and exact solution are sampled:
the forms and loads (stacked blocks for ``assemble``), the reconstructions,
the energy error and ``sample`` run per chunk, each cell reading its
member's rows of the stack's tables, and no per-cell space, coefficient or
form object is made.  Shapes carry no spaces: a mesh is placed once, on
first use, and its spaces are built per call; the DOF map of each order k,
the assembly plan, is built on its first solve and kept on the mesh.  So are
the tables of post-processing, which depend on neither k nor ell: ``sample``
finds its points' cells with ``mesh.locate``, on the fan triangles and
bucket grid built from the placement on first use, and ``export_vtk`` takes
the mesh's ``vtk_geometry`` lines, formatted once.  A
solve returns the caller's mesh: test2's inflow labels are classified as
the DOF map reads the mesh's labels, on no relabelled copy.
"""

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .assemble import CHUNK, DiscreteSolution, apply_dirichlet, assemble, energy_error, export_vtk, solve
from .basis import MonomialBasis, eval_basis
# the one-cell forms and the one-geometry probe are not called here: callers
# and perfbench/tracing.py look them up on this module
from .forms import (  # noqa: F401
    DEFAULT_ELL_MAX,
    ShapeForms,
    baseline_vem_forms,
    coercive,
    element_coefficients,
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
    is_integer,
    place_shapes,
)
from .problems import get_problem
from .space import LocalSpace, dof_layout

FAMILIES = ("t1", "t2", "t3")


def generate_mesh(family, n, seed=0, lloyd_iters=100, level=0):
    """One mesh of the requested family at per-side resolution ``n``.

    The Voronoi family cannot be refined by splitting, so each level is
    regenerated with n^2 cells from a level-shifted seed.
    """
    _check_mesh_size(n)
    if family == "t1":
        return generate_cartesian(n, n)
    if family == "t2":
        return generate_concave_pentagons(n)
    if family == "t3":
        return generate_voronoi(n * n, lloyd_iters=lloyd_iters, seed=seed + level)
    raise ValueError(f"unknown mesh family {family!r}; choose from {FAMILIES}")


# -- from cells to spaces ---------------------------------------------------


def _stack_space(mesh, shapes, at, k, ell):
    """The stacked (k, ell) space of the shapes at positions ``at``, which have one vertex count."""
    cells = shapes.cell[at]
    geom = ElementGeometry(
        mesh.vertices[mesh.cell_table(cells)[0]], 2 * (k + ell) + 2, k + ell + 1,
        cell=cells.tolist(), center=(shapes.center[at], shapes.radius[at]),
    )
    return LocalSpace(geom, k, ell)


# shapes per stacked space; a stack's form tables and batch temporaries hold
# every point of every member, so this bounds their memory
STACK = 16


def _chunks(items):
    return [items[start : start + STACK] for start in range(0, len(items), STACK)]


def _shape_groups(mesh, shapes):
    """Positions and vertex count of the shapes of each vertex count, by vertex count."""
    n_v = mesh.cell_sizes[shapes.cell]
    for nv in np.unique(n_v).tolist():
        yield np.flatnonzero(n_v == nv), nv


def build_spaces(mesh, shapes, k, ell):
    """The (k, ``ell``) stacks of a ``Placement``'s shapes (STACK or fewer of one vertex count).

    ``ell`` is a count or a dict of counts by vertex count; stack and member are (S,) arrays.
    """
    stacks, (stack, member) = [], np.empty((2, len(shapes.cell)), dtype=int)
    for group, n_v in _shape_groups(mesh, shapes):
        for chunk in _chunks(group):
            stack[chunk], member[chunk] = len(stacks), np.arange(len(chunk))
            stacks.append(_stack_space(mesh, shapes, chunk, k,
                                       ell[n_v] if isinstance(ell, dict) else int(ell)))
    return stacks, stack, member


def probe_shapes(mesh, shapes, k):
    """Spaces of the smallest coercive increment of each shape at order k, probed in rounds.

    The ``Placement``'s shapes are grouped by vertex count.  A group's trials
    start at the rank bound: the increments below it are rejected by a
    dimension count, so their spaces are not built.  Each round builds the
    trial spaces of the group's pending shapes at one increment as stacks of
    STACK and decides each stack with one batched eigenvalue solve
    (``coercive``); the accepted members of a trial stack become a stack of
    their own, the rejected shapes go on to the next increment.  Returns
    (stacks, stack, member) as ``build_spaces`` does, stack and member -1
    for each shape still rejected at ``DEFAULT_ELL_MAX``, and those shapes'
    traces as ``probe_min_ell`` records them, keyed by shape position.
    """
    stacks, (stack, member) = [], np.full((2, len(shapes.cell)), -1)
    failed = {}
    for group, n_v in _shape_groups(mesh, shapes):
        start = rank_bound_ell(dof_layout(n_v, k).n_dofs, k)
        traces = {i: [(ell, None) for ell in range(min(start, DEFAULT_ELL_MAX + 1))]
                  for i in group.tolist()}
        for ell in range(start, DEFAULT_ELL_MAX + 1):
            rejected = []
            for chunk in _chunks(group):
                trial = _stack_space(mesh, shapes, chunk, k, ell)
                accepted, lam = coercive(trial)
                for i, rel in zip(chunk.tolist(), lam.tolist()):
                    traces[i].append((ell, rel))
                keep = np.flatnonzero(accepted)
                if len(keep):
                    stack[chunk[keep]], member[chunk[keep]] = len(stacks), np.arange(len(keep))
                    stacks.append(trial if len(keep) == len(chunk) else trial[keep])
                rejected += chunk[~accepted].tolist()
            group = np.array(rejected, dtype=int)
            if not len(group):
                break
        failed.update((i, traces[i]) for i in group.tolist())
    return (stacks, stack, member), failed


def _check_mesh_size(n):
    """Raise a one-line ``ValueError`` unless ``n`` is an integer >= 1."""
    if not (is_integer(n) and n >= 1):
        need = "at least 1" if is_integer(n) else "an integer"
        raise ValueError(f"mesh size n must be {need}, got {n!r}")


def _check_ell(ell, mesh):
    """Raise ``ValueError`` unless ``ell`` is "auto", a count >= 0 or a dict of counts.

    A dict maps vertex counts to counts and must hold every vertex count of ``mesh``.
    """
    if not (isinstance(ell, str) and ell == "auto" or is_integer(ell) and ell >= 0
            or isinstance(ell, dict) and all(is_integer(v) and v >= 0 for v in ell.values())):
        raise ValueError(f'ell must be "auto", an integer >= 0 or a dict of them, not {ell!r}')
    if isinstance(ell, dict):
        missing = [n_v for n_v in np.unique(mesh.cell_sizes).tolist() if n_v not in ell]
        if missing:
            c = int(np.argmax(np.isin(mesh.cell_sizes, missing)))
            raise ValueError(f"ell has no increment for {mesh.cell_sizes[c]}-vertex cells "
                             f"(the first is cell {c})")


def _spaces(mesh, shapes, k, ell_mode):
    """(stacks, stack, member) of ``shapes``: ``probe_shapes`` for "auto", else ``build_spaces``.

    A failed probe raises the ``ProbeError`` of the shape with the lowest cell.
    """
    if ell_mode != "auto":
        return build_spaces(mesh, shapes, k, ell_mode)
    spaces, failed = probe_shapes(mesh, shapes, k)
    if failed:
        i = min(failed, key=lambda i: shapes.cell[i])
        raise probe_exhausted(k, failed[i], int(shapes.cell[i]))
    return spaces


class CellSpaces:
    """The cells' spaces as arrays: cell c is member ``member[c]`` of ``stacks[stack[c]]``.

    Its element is that member (on its shape's first cell) moved by
    ``shift[c]``; ``ell`` holds each increment.  ``chunks`` lists the
    batches of at most CHUNK cells on one stack, as (stack, rows, cells).
    Stacks come in the order of their first cell, a stack's cells by member,
    then by cell, so the translates of one member fill chunks together.
    ``rows`` indexes the stack's tables for the chunk's cells: the member
    itself when they are translates of one member, so that stacked products
    broadcast its tables unbatched; every row when they are the members in
    order; else one row per cell.  ``spaces[c]``, cell c's one-cell view
    into its stack, is made on demand; the solve and its post-processing
    read the arrays.
    """

    def __init__(self, stacks, stack, member, shift):
        self.stacks, self.stack, self.member, self.shift = stacks, stack, member, shift
        self.ell = np.array([space.ell for space in stacks], dtype=int)[stack]
        n = len(stack)
        _, first, which = np.unique(stack, return_index=True, return_inverse=True)
        order = np.lexsort((np.arange(n), member, first[which]))  # stacks by first cell
        starts = np.flatnonzero(np.diff(stack[order], prepend=-1)).tolist() + [n]
        self.chunks = []
        for start, end in zip(starts, starts[1:]):  # the cells of one stack
            for lo in range(start, end, CHUNK):
                cells = order[lo : min(lo + CHUNK, end)]
                space, rows = stacks[stack[cells[0]]], member[cells]
                if (rows == rows[0]).all():
                    rows = rows[0]
                elif len(rows) == len(space.h_full) and (rows == np.arange(len(rows))).all():
                    rows = slice(None)
                self.chunks.append((space, rows, cells))

    def __len__(self):
        return len(self.stack)

    def __getitem__(self, c):
        return self.stacks[self.stack[c]][self.member[c]]


def cell_spaces(mesh, k, ell_mode):
    """The cells' ``CellSpaces``: the spaces of the mesh's shapes, with its placement's shifts."""
    shapes = mesh.placement
    stacks, stack, member = _spaces(mesh, shapes, k, ell_mode)
    return CellSpaces(stacks, stack[shapes.of], member[shapes.of], shapes.shift)


def build_element(mesh, c, k, ell_mode):
    """(space, shift, chosen ell) of one cell, placed on its own, so its shift is zero."""
    _check_ell(ell_mode, mesh)
    shapes = place_shapes(mesh, [c])
    [stack], _, _ = _spaces(mesh, shapes, k, ell_mode)
    return stack[0], shapes.shift[0], stack.ell


class SolveResult:
    """Everything one solve produced, for error evaluation and export.

    ``solution`` is the finished ``DiscreteSolution``, which keeps the solved
    ``ReducedSystem``.  Cell c's element is ``spaces[c]`` translated by
    ``spaces.shift[c]``: ``spaces`` is the solve's ``CellSpaces``.
    """

    def __init__(self, solution, mesh, dofmap, spaces):
        self.solution = solution
        self.mesh = mesh
        self.dofmap = dofmap
        self.spaces = spaces

    @property
    def mean_peclet(self):
        return float(np.mean(self.solution.peclet))

    def error(self, problem):
        return energy_error(self.spaces, self.solution, problem)

    def sample(self, points):
        """The solution at (n, 2) points or at one 2-vector, each on the first cell holding it.

        ``mesh.locate`` finds the cells, from the mesh's own table.
        """
        pts = np.asarray(points, dtype=float)
        pts = pts[None] if pts.shape == (2,) else pts
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must be (n, 2) or one 2-vector, not shape {pts.shape}")
        cells, spaces = self.mesh.locate(pts), self.spaces
        table = CellSpaces(spaces.stacks, spaces.stack[cells], spaces.member[cells],
                           spaces.shift[cells])
        local = pts - table.shift  # each point moved onto its cell's shape
        out = np.empty(len(pts))
        for stack, rows, group in table.chunks:
            # each point about its own member's center: (points, dim, 1) values
            vals = eval_basis(MonomialBasis(stack.geom[rows], stack.k), local[group][:, None])
            out[group] = np.sum(self.solution.reconstructions[cells[group]] * vals[..., 0], axis=1)
        return out


def solve_problem(mesh, problem, k, ell="auto", method="sf"):
    """Assemble and solve one problem on one mesh.

    ``method`` selects the stabilization-free forms ("sf") or the classical
    stabilized baseline ("vem", which always runs on the standard ell = 0
    space).  Both paths share numbering, data evaluation and the boundary
    treatment; only the local matrices differ.
    """
    if method not in ("sf", "vem"):
        raise ValueError("method must be 'sf' or 'vem'")
    if not (is_integer(k) and k >= 1):
        raise ValueError(f"order k must be an integer >= 1, not {k!r}")
    _check_ell(ell, mesh)
    if method == "vem":
        ell = 0
    # later solves on the mesh find its placement and DOF map
    spaces = cell_spaces(mesh, k, ell)
    dofmap = mesh.dof_map(k)
    peclet, tau = np.empty(mesh.n_cells), np.empty(mesh.n_cells)
    blocks = []
    tables = None
    for stack, rows, cells in spaces.chunks:
        if tables is None or tables.space is not stack:
            # form tables live for one stack only
            tables = ShapeForms(stack, stabilized=method == "vem")
        peclet[cells], tau[cells], matrices, loads = tables.batch(problem, rows, spaces.shift[cells])
        blocks.append((cells, matrices, loads))
    reduced = apply_dirichlet(assemble(dofmap, blocks), problem)
    solution = DiscreteSolution(reduced, *solve(reduced), spaces, peclet, tau)
    return SolveResult(solution, mesh, dofmap, spaces)


# -- experiment configuration -------------------------------------------------


@dataclass
class ExperimentConfig:
    """One experiment: problem, mesh family, order, refinements, outputs."""

    problem: str = "smooth"
    family: str = "t1"
    k: int = 1
    ell: object = "auto"  # "auto", a fixed integer or a dict of them by vertex count
    refinements: tuple = (4, 8, 16, 32)
    baseline: bool = False
    seed: int = 0
    lloyd_iters: int = 100
    out_dir: str = None

    def __post_init__(self):
        if not (is_integer(self.k) and 1 <= self.k <= 4):
            raise ValueError(f"order k must be an integer in 1..4, not {self.k!r}")
        if not isinstance(self.refinements, (list, tuple)):
            raise ValueError("refinements must be a list or tuple of mesh sizes, "
                             f"not {type(self.refinements).__name__}")
        if not self.refinements:
            raise ValueError("refinement schedule is empty")
        for n in self.refinements:
            _check_mesh_size(n)
        if any(b <= a for a, b in zip(self.refinements, self.refinements[1:])):
            raise ValueError("refinement schedule must strictly decrease h")

    def make_problem(self):
        return get_problem(self.problem)


def _fmt(x):
    """One CSV field: empty for None, an integer as it is, a float to 17 digits."""
    if x is None:
        return ""
    return str(x) if isinstance(x, numbers.Integral) else format(float(x), ".17g")


class ConvergenceReport:
    """Per-refinement errors and the observed rates between consecutive rows.

    ``rows`` hold level, h_max, n_dof, err_sf, err_vem (None without the
    baseline) and mean_pe; the report adds ratio, alpha_sf and alpha_vem.
    """

    HEADER = "level,h_max,n_dof,err_sf,err_vem,ratio,mean_pe,alpha_sf,alpha_vem"

    def __init__(self, rows):
        self.rows = [dict(row) for row in rows]
        for prev, row in zip([None] + self.rows, self.rows):
            row["ratio"] = None if row["err_vem"] is None else row["err_vem"] / row["err_sf"]
            for err, alpha in (("err_sf", "alpha_sf"), ("err_vem", "alpha_vem")):
                known = prev is not None and None not in (prev[err], row[err])
                row[alpha] = (self.rate(prev["h_max"], row["h_max"], prev[err], row[err])
                              if known else None)

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
        rows = [",".join(_fmt(row[name]) for name in self.HEADER.split(",")) for row in self.rows]
        return "\n".join([self.HEADER] + rows) + "\n"

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
                "mean_pe": res_sf.mean_peclet,
            }
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


def probe_table(config, orders=(1, 2, 3, 4), families=FAMILIES):
    """Minimal increments per (family, vertex count, order).

    Each family contributes one representative mesh; every distinct cell
    shape is probed and entries aggregate by vertex count taking the largest
    increment (the safe choice when shapes of equal vertex count differ).
    Entries that exhaust the search cap are marked with an em dash.
    """
    with _RunLog(config) as log:
        table = {}
        for family in families:
            n = PROBE_MESH_SIZE[family]
            mesh = generate_mesh(
                family, n, seed=config.seed, lloyd_iters=config.lloyd_iters
            )
            shapes = mesh.placement
            for k in orders:
                (stacks, stack, _), _ = probe_shapes(mesh, shapes, k)
                for at, n_v in _shape_groups(mesh, shapes):
                    found = stack[at].tolist()  # -1 where the probe fails
                    table[(family, n_v, k)] = "—" if -1 in found else max(
                        stacks[s].ell for s in found)
            log.line(f"probed family={family} shapes={len(shapes.cell)}")
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
