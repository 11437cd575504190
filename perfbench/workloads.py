"""The three benchmark workloads: set-up, one timed round, output checks.

A round is the same list of operations every time; an operation is one
``solve_problem`` call or one post-processing call (``energy_error``,
``sample``, ``export_vtk``).  Checks run after the timed rounds.
"""

import contextlib
import importlib
import io
import os
import re
import time

import numpy as np

import vemsupg.harness as harness
from vemsupg.basis import monomial_exponents, poly_dim
from vemsupg.errors import ElementQualityError, MeshError, ProbeError, SolveError
from vemsupg.forms import DEFAULT_PROBE_TOL, ProblemData, projected_gradient_gram
from vemsupg.geometry import ElementGeometry
from vemsupg.mesh import generate_cartesian, generate_concave_pentagons, generate_voronoi
from vemsupg.problems import problem_test1, problem_test2
from vemsupg.space import LocalSpace

# the package re-exports the function assemble() under the module's name
assemble = importlib.import_module("vemsupg.assemble")

LIBRARY_ERRORS = (ElementQualityError, MeshError, ProbeError, SolveError)
SOLVE_LINE = re.compile(r"^solve: n=(\d+) residual=(\S+)$")
RESIDUAL_TOL = 1e-10
PATCH_TOL = 1e-8
# test2 reference values from the characteristics of the reduced problem:
# above the internal layer u = 1, below it u = 0
LAYER_PROBES = ((0.25, 0.7, 1.0), (0.7, 0.25, 0.0))
LAYER_TOL = 0.05
# Voronoi sites are fixed: with Lloyd 100 and 256 cells the probe exhausts
# its cap at k = 3 for some site seeds (0, 4 and 6 among 0..8), and a
# workload whose operations fail on some seeds cannot be compared by seed.
VORONOI_SITE_SEED = 3


class Round:
    """Operations of one round, with their times and the solver's stdout."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.solves = 0
        self.solve_s = 0.0
        self.cells = 0
        self.post_s = 0.0
        self.solve_lines = []
        self.wall_s = 0.0
        self.values = []

    def solve(self, mesh, problem, k, **kwargs):
        self.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                res = harness.solve_problem(mesh, problem, k, **kwargs)
        except LIBRARY_ERRORS:
            self.failed += 1
            return None
        self.solve_s += time.perf_counter() - t0
        self.solves += 1
        self.cells += mesh.n_cells
        self.solve_lines.extend(out.getvalue().splitlines())
        return res

    def post(self, res, fn):
        """One post-processing call ``fn()`` on the result ``res`` of a solve."""
        self.attempted += 1
        if res is None:
            self.failed += 1
            return None
        t0 = time.perf_counter()
        try:
            value = fn()
        except LIBRARY_ERRORS:
            self.failed += 1
            return None
        self.post_s += time.perf_counter() - t0
        return value


def stratified_points(rng, n_x=20, n_y=10):
    """One uniform point in each cell of an n_x-by-n_y grid of the unit square.

    Stratified rather than plain uniform so that the share of points landing
    in concave cells, which sets the cost of ``sample``, hardly varies with
    the seed.
    """
    ix, iy = np.meshgrid(np.arange(n_x), np.arange(n_y), indexing="ij")
    lo = np.column_stack([ix.ravel() / n_x, iy.ravel() / n_y])
    return lo + rng.random((n_x * n_y, 2)) / np.array([n_x, n_y])


def patch_problem(k, kappa, rng):
    """Advection-diffusion problem whose exact solution is a random P_k polynomial."""
    coeff = rng.standard_normal(poly_dim(k))
    exps = monomial_exponents(k)
    beta = np.array([1.0, 0.545])

    def derivs(pts):
        x, y = np.atleast_2d(pts).T
        out = np.zeros((4, len(x)))  # u, u_x, u_y, lap u
        for c, (a, b) in zip(coeff, exps):
            out[0] += c * x**a * y**b
            if a:
                out[1] += c * a * x ** (a - 1) * y**b
            if b:
                out[2] += c * b * x**a * y ** (b - 1)
            if a > 1:
                out[3] += c * a * (a - 1) * x ** (a - 2) * y**b
            if b > 1:
                out[3] += c * b * (b - 1) * x**a * y ** (b - 2)
        return out

    return ProblemData(
        kappa=kappa,
        beta=beta,
        source=lambda p: -kappa * derivs(p)[3] + beta @ derivs(p)[1:3],
        dirichlet={"*": lambda p: derivs(p)[0]},
        exact=lambda p: derivs(p)[0],
        exact_grad=lambda p: derivs(p)[1:3].T,
        name="patch",
    )


def check_patch(mesh, cases, rng):
    """Failures of the patch test: a P_k solution is reproduced to PATCH_TOL.

    ``cases`` lists (k, ell) pairs; each runs at a diffusive and at an
    advection-dominated kappa.
    """
    failures = []
    for k, ell in cases:
        for kappa in (1.0, 1e-9):
            problem = patch_problem(k, kappa, rng)
            with contextlib.redirect_stdout(io.StringIO()):
                err = harness.solve_problem(mesh, problem, k, ell=ell).error(problem)
            if not err <= PATCH_TOL:
                failures.append(f"patch k={k} kappa={kappa:g}: energy error {err:.3e}")
    return failures


def _n_small(space):
    """Eigenvalues of the projected-gradient Gram below the pinned probe cutoff."""
    gram = projected_gradient_gram(space)
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    return int(np.sum(lam < DEFAULT_PROBE_TOL * lam[-1]))


class Workload:
    """Set-up (``make_inputs``), one round (``run``) and the output checks.

    ``run`` returns the round's numeric outputs as a list of floats and
    arrays; every round must reproduce them bit for bit.
    """

    name = None

    def __init__(self, seed, tiny, out_dir):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir
        self.mesh_generate_s = 0.0

    def generate(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        mesh = fn(*args, **kwargs)
        self.mesh_generate_s += time.perf_counter() - t0
        return mesh

    def round(self):
        r = Round()
        t0 = time.perf_counter()
        r.values = self.run(r)
        r.wall_s = time.perf_counter() - t0
        return r

    def check(self, rounds):
        """Descriptions of every failed check; empty when the outputs are right."""
        failures = []
        for r in rounds:
            if len(r.solve_lines) != r.solves:
                failures.append(f"{len(r.solve_lines)} solver lines for {r.solves} solves")
            for line in r.solve_lines:
                m = SOLVE_LINE.match(line)
                if m is None or not float(m.group(2)) <= RESIDUAL_TOL:
                    failures.append(f"bad solver line {line!r}")
            same = len(r.values) == len(rounds[0].values) and all(
                np.array_equal(a, b) for a, b in zip(r.values, rounds[0].values)
            )
            if not same:
                failures.append("rounds disagree: outputs are not deterministic")
        if rounds[-1].failed == 0:
            failures += self.check_outputs(rounds[-1].values)
        return failures


class CartLayerConv(Workload):
    """test1 boundary layer on cartesian grids, with and without stabilization."""

    name = "cart_layer_conv"
    ORDERS = ((1, {4: 1}), (3, {4: 2}))

    def make_inputs(self):
        self.levels = (8, 16) if self.tiny else (8, 16, 32)
        self.problem = problem_test1()
        self.meshes = [self.generate(generate_cartesian, n, n) for n in self.levels]

    def run(self, r):
        errors = []
        for k, ell in self.ORDERS:
            for mesh in self.meshes:
                for method in ("sf", "vem"):
                    res = r.solve(mesh, self.problem, k, ell=ell, method=method)
                    errors.append(r.post(res, lambda: res.error(self.problem)))
        return errors

    def check_outputs(self, errors):
        failures = []
        table = np.reshape(errors, (len(self.ORDERS), len(self.levels), 2))
        for (k, _), per_level in zip(self.ORDERS, table):
            for method, seq in zip(("sf", "vem"), per_level.T):
                if not np.all(np.diff(seq) < 0):
                    failures.append(f"k={k} {method} errors do not decrease: {seq}")
        e_sf, e_vem = table[-1, -1]
        if not e_sf <= e_vem:
            failures.append(f"finest k=3: sf error {e_sf:.4e} above vem {e_vem:.4e}")
        failures += check_patch(
            generate_cartesian(4, 4), self.ORDERS, np.random.default_rng(self.seed)
        )
        return failures


class LayerFields(Workload):
    """test2 internal layer at k = 1..3 with probed increments, then post-processing."""

    ORDERS = (1, 2, 3)

    def make_inputs(self):
        self.problem = problem_test2()
        self.mesh = self.make_mesh()
        self.points = stratified_points(np.random.default_rng(self.seed))
        self.results = {}  # solve results of the last round, for the checks

    def run(self, r):
        samples = []
        for k in self.ORDERS:
            res = r.solve(self.mesh, self.problem, k, ell="auto")
            path = os.path.join(self.out_dir, f"{self.name}_k{k}.vtk")
            samples.append(r.post(res, lambda: res.sample(self.points)))
            r.post(res, lambda: assemble.export_vtk(res.solution, self.mesh, path))
            self.results[k] = res
        return samples

    def check_outputs(self, samples):
        failures = []
        for k, res in self.results.items():
            vals = res.sample([[x, y] for x, y, _ in LAYER_PROBES])
            for (x, y, want), got in zip(LAYER_PROBES, vals):
                if not abs(got - want) <= LAYER_TOL:
                    failures.append(f"k={k}: u_h({x}, {y}) = {got:.4f}, expected {want}")
        failures += check_patch(
            self.patch_mesh(), [(k, "auto") for k in self.ORDERS],
            np.random.default_rng(self.seed),
        )
        return failures


class VoronoiAuto(LayerFields):
    """Voronoi cells: no shape repeats, so every cell pays geometry and probe."""

    name = "voronoi_auto"
    PROBE_CHECK_CELLS = 8

    def make_mesh(self):
        return self.generate(
            generate_voronoi, 64 if self.tiny else 256, lloyd_iters=100,
            seed=VORONOI_SITE_SEED,
        )

    def patch_mesh(self):
        return generate_voronoi(25, lloyd_iters=100, seed=VORONOI_SITE_SEED)

    def check_outputs(self, samples):
        """Also: on seeded cells the chosen increment is the minimal one (criterion 4)."""
        failures = super().check_outputs(samples)
        rng = np.random.default_rng(self.seed)
        cells = rng.choice(self.mesh.n_cells, self.PROBE_CHECK_CELLS, replace=False)
        for k, res in self.results.items():
            for c in cells:
                ell = res.spaces[c].ell
                if _n_small(res.spaces[c]) != 1:
                    failures.append(f"k={k} cell {c}: chosen ell={ell} fails the probe rule")
                if ell > 0:
                    geom = ElementGeometry(
                        self.mesh.cell_vertices(c), 2 * (k + ell - 1) + 2, k + ell, cell=c
                    )
                    if _n_small(LocalSpace(geom, k, ell - 1)) == 1:
                        failures.append(f"k={k} cell {c}: ell={ell - 1} already passes")
        return failures


class PentagonLayers(LayerFields):
    """Concave/convex pentagons: two shapes, so the probe runs through the cache."""

    name = "pentagon_layers"

    def make_mesh(self):
        return self.generate(generate_concave_pentagons, 8 if self.tiny else 16)

    def patch_mesh(self):
        return generate_concave_pentagons(4)


WORKLOADS = {w.name: w for w in (CartLayerConv, VoronoiAuto, PentagonLayers)}
