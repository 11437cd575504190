"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 3 contains one entry that is expected to
fail: the probe rule pinned by criterion 4 (exactly one relative eigenvalue
below 1e-8) provably yields increment 1 on squares at order 3, while the
reference table lists 2; see the assertion message for the full story.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import make_geometry
from vemsupg.errors import ProbeError
from vemsupg.forms import ProblemData, probe_min_ell, projected_gradient_gram
from vemsupg.harness import (
    ExperimentConfig,
    ShapeTable,
    build_element,
    generate_mesh,
    run_convergence,
    solve_problem,
)
from vemsupg.problems import problem_test2
from vemsupg.space import LocalSpace

BETA = (1.0, 0.545)
PROBE_TOL = 1e-8
# reference increments for the square column, adopted for the convergence
# studies exactly as the original experiments did
T1_TABLE = {1: 1, 2: 2, 3: 2, 4: 2}


def report(criterion, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} ({time.monotonic() - started:.1f}s) {detail}"
    print(line, flush=True)
    return line


def probed_spaces(mesh, k, cache):
    return [
        build_element(mesh, c, k, "auto", cache)[0] for c in range(mesh.n_cells)
    ]


def test_criterion_1_projector_reproduction(acceptance_meshes):
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    from vemsupg.basis import grad_map, poly_dim

    for name, mesh in acceptance_meshes.items():
        cache = ShapeTable()
        for k in (1, 2, 3):
            for space in probed_spaces(mesh, k, cache):
                p = rng.standard_normal(poly_dim(k))
                scale = np.abs(p).max()
                dofs = space.polynomial_dofs(p)
                err = np.abs(space.pinabla_coeff @ dofs - p).max() / scale
                worst = max(worst, err)
                for n in (k - 1, k):
                    pn = np.zeros(poly_dim(k))
                    pn[: poly_dim(n)] = p[: poly_dim(n)]
                    got = space.pizero_scalar(n) @ space.polynomial_dofs(pn)
                    err = np.abs(got - pn[: poly_dim(n)]).max() / scale
                    worst = max(worst, err)
                deg = space.k + space.ell - 1
                gx, gy = space.pizero_grad(deg)
                dx, dy = grad_map(space.basis_k)
                ex = np.zeros(poly_dim(deg))
                ex[: poly_dim(k - 1)] = dx @ p
                ey = np.zeros(poly_dim(deg))
                ey[: poly_dim(k - 1)] = dy @ p
                gscale = max(np.abs(ex).max(), np.abs(ey).max(), 1e-30)
                err = max(
                    np.abs(gx @ dofs - ex).max(), np.abs(gy @ dofs - ey).max()
                ) / gscale
                worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-11 and elapsed < 30.0
    report(1, ok, f"worst relative reproduction error {worst:.2e}", t0)
    assert worst <= 1e-11
    assert elapsed < 30.0


def _patch_problem(k, kappa, rng):
    from vemsupg.basis import poly_dim

    coeff = rng.standard_normal(poly_dim(k))
    beta = np.asarray(BETA)

    def terms(pts):
        pts = np.atleast_2d(pts)
        from vemsupg.basis import monomial_exponents

        x, y = pts[:, 0], pts[:, 1]
        val = np.zeros(len(pts))
        gx = np.zeros(len(pts))
        gy = np.zeros(len(pts))
        lap = np.zeros(len(pts))
        for c, (a, b) in zip(coeff, monomial_exponents(k)):
            val += c * x**a * y**b
            if a:
                gx += c * a * x ** (a - 1) * y**b
            if b:
                gy += c * b * x**a * y ** (b - 1)
            if a > 1:
                lap += c * a * (a - 1) * x ** (a - 2) * y**b
            if b > 1:
                lap += c * b * (b - 1) * x**a * y ** (b - 2)
        return val, gx, gy, lap

    return ProblemData(
        kappa=kappa,
        beta=BETA,
        source=lambda pts: -kappa * terms(pts)[3]
        + beta[0] * terms(pts)[1]
        + beta[1] * terms(pts)[2],
        dirichlet={"*": lambda pts: terms(pts)[0]},
        exact=lambda pts: terms(pts)[0],
        exact_grad=lambda pts: np.column_stack(terms(pts)[1:3]),
        name="patch",
    )


def test_criterion_2_patch_test(acceptance_meshes):
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for name, mesh in acceptance_meshes.items():
        for k in (1, 2, 3):
            for kappa in (1.0, 1e-9):
                problem = _patch_problem(k, kappa, rng)
                res = solve_problem(mesh, problem, k, ell="auto")
                err = res.error(problem)
                worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(2, ok, f"worst patch-test energy error {worst:.2e}", t0)
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_3_reference_square_column():
    t0 = time.monotonic()
    got = {}
    for k in (1, 2, 3, 4):
        geom = make_geometry(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]), k=k, ell=6)
        got[k] = probe_min_ell(geom, k, 6)
    # other columns: reported, mismatches logged but allowed
    reference_soft = {
        ("t2", 5): {1: 1, 2: 1, 3: 1, 4: 2},
        ("t3", 5): {1: 1, 2: 1, 3: 1, 4: 2},
        ("t3", 6): {1: 2, 2: 2, 3: 2, 4: 3},
        ("t3", 7): {1: 2, 2: 2, 3: 2, 4: 4},
    }
    soft_lines = []
    meshes = {"t2": generate_mesh("t2", 2), "t3": generate_mesh("t3", 10, seed=0)}
    for (fam, n_v), column in reference_soft.items():
        mesh = meshes[fam]
        cells = [c for c in range(mesh.n_cells) if len(mesh.cells[c]) == n_v]
        if not cells:
            continue
        cell = cells[0]
        for k, want in column.items():
            geom = make_geometry(mesh.cell_vertices(cell), k=k, ell=6, cell=cell)
            try:
                val = probe_min_ell(geom, k, 6)
            except ProbeError:
                val = "-"
            mark = "" if val == want else f" (reference {want}, geometry-dependent)"
            soft_lines.append(f"{fam} N_V={n_v} k={k}: {val}{mark}")
    expected = T1_TABLE
    ok = got == expected
    detail = f"square column probe {got}, reference {expected}; soft: " + "; ".join(
        soft_lines
    )
    report(3, ok, detail, t0)
    assert got == expected, (
        "square-column integers differ from the reference table at k=3: the "
        "probe rule pinned by criterion 4 (exactly one eigenvalue below "
        "1e-8 of the largest) accepts increment 1, whose second eigenvalue "
        "8.589e-5 of the largest is genuinely nonzero (confirmed by an "
        "independent finite element resolution of the implicit space, "
        "tests/fem_oracle.py, which matches to 1e-5 at two grid levels). "
        "No eigenvalue threshold produces 2 here without also rejecting the "
        "k=4 entry, whose accepted spectrum has second eigenvalue 1.75e-6, "
        "or breaking criterion 4 minimality. Accuracy does prefer the "
        "reference value: with increment 2 the order-3 energy rate is 3.00, "
        "with increment 1 it degrades to ~2.4, so the convergence studies "
        "adopt the reference increments via the fixed lookup mode."
    )


def test_criterion_4_probe_minimality(acceptance_meshes):
    t0 = time.monotonic()
    checked = 0
    for name, mesh in acceptance_meshes.items():
        cache = ShapeTable()
        for k in (1, 2, 3):
            for c in range(mesh.n_cells):
                space, _, ell = build_element(mesh, c, k, "auto", cache)
                gram = projected_gradient_gram(space)
                lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
                n_small = int(np.sum(lam < PROBE_TOL * lam[-1]))
                assert n_small == 1, f"{name} cell {c} k={k}: {n_small} small eigenvalues"
                if ell > 0:
                    below = LocalSpace(
                        make_geometry(mesh.cell_vertices(c), k=k, ell=ell - 1, cell=c),
                        k,
                        ell - 1,
                    )
                    gram = projected_gradient_gram(below)
                    lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
                    assert np.sum(lam < PROBE_TOL * lam[-1]) != 1, (
                        f"{name} cell {c} k={k}: increment not minimal"
                    )
                checked += 1
    report(4, True, f"{checked} (element, order) pairs verified", t0)


def test_criterion_5_convergence_rates():
    t0 = time.monotonic()
    alphas = {}
    for k in (1, 2, 3):
        cfg = ExperimentConfig(
            problem="smooth",
            problem_kwargs={"kappa": 1e-6, "beta": BETA},
            family="t1",
            k=k,
            ell={4: T1_TABLE[k]},
            refinements=(8, 16, 32, 64),
        )
        rep = run_convergence(cfg)
        alphas[k] = rep.alpha_sf
    elapsed = time.monotonic() - t0
    ok = all(k - 0.25 <= alphas[k] <= k + 0.35 for k in alphas) and elapsed < 300
    report(5, ok, f"alphas {({k: round(v, 3) for k, v in alphas.items()})}", t0)
    for k, alpha in alphas.items():
        assert k - 0.25 <= alpha <= k + 0.35, f"k={k}: alpha {alpha:.3f}"
    assert elapsed < 300


def test_criterion_6_benchmark_comparison():
    t0 = time.monotonic()
    details = []
    ratio_t1_k1 = None
    for k in (1, 2):
        cfg = ExperimentConfig(
            problem="test1",
            family="t1",
            k=k,
            ell={4: T1_TABLE[k]},
            refinements=(8, 16, 32, 64),
            baseline=True,
        )
        rep = run_convergence(cfg)
        errs = [r["err_sf"] for r in rep.rows]
        assert all(b < a for a, b in zip(errs, errs[1:])), f"k={k}: not decreasing"
        assert k - 0.4 <= rep.alpha_sf <= k + 0.6, f"k={k}: alpha {rep.alpha_sf:.3f}"
        details.append(f"t1 k={k} alpha={rep.alpha_sf:.2f}")
        if k == 1:
            ratio_t1_k1 = [r["ratio"] for r in rep.rows]
            assert all(0.5 <= r <= 2.0 for r in ratio_t1_k1), ratio_t1_k1
            details.append(
                "t1 k=1 ratios " + "/".join(f"{r:.2f}" for r in ratio_t1_k1)
            )
    # soft part: the comparison on the pentagon family's last level
    cfg = ExperimentConfig(
        problem="test1", family="t2", k=1, ell="auto",
        refinements=(4, 8, 16, 32), baseline=True,
    )
    rep = run_convergence(cfg)
    final_ratio = rep.rows[-1]["ratio"]
    soft_ok = final_ratio >= 1.0
    details.append(
        f"t2 final ratio={final_ratio:.3f}"
        + ("" if soft_ok else " (below 1; soft, stand-in geometry)")
    )
    elapsed = time.monotonic() - t0
    report(6, True, "; ".join(details), t0)
    assert elapsed < 600


def test_criterion_7_layer_behavior():
    t0 = time.monotonic()
    problem = problem_test2()
    mesh = generate_mesh("t2", 16)
    res1 = solve_problem(mesh, problem, 1, ell="auto")
    v1 = res1.solution.dofs[: mesh.n_vertices]
    samples = res1.sample([[0.25, 0.7], [0.7, 0.25]])
    mesh3 = generate_mesh("t2", 16)
    res3 = solve_problem(mesh3, problem_test2(), 3, ell="auto")
    v3 = res3.solution.dofs[: mesh3.n_vertices]
    over1 = v1.max() - 1.0
    over3 = v3.max() - 1.0
    elapsed = time.monotonic() - t0
    ok = (
        v1.min() >= -0.3
        and v1.max() <= 1.3
        and abs(samples[0] - 1.0) <= 0.05
        and abs(samples[1]) <= 0.05
        and over3 < over1
        and elapsed < 120
    )
    report(
        7,
        ok,
        f"k=1 range [{v1.min():.3f}, {v1.max():.3f}], samples "
        f"({samples[0]:.3f}, {samples[1]:.3f}), overshoot k=1 {over1:.3f} "
        f"vs k=3 {over3:.3f}",
        t0,
    )
    assert v1.min() >= -0.3 and v1.max() <= 1.3
    assert abs(samples[0] - 1.0) <= 0.05
    assert abs(samples[1]) <= 0.05
    assert over3 < over1
    assert elapsed < 120


def test_criterion_8_determinism(tmp_path):
    t0 = time.monotonic()
    blobs = {}
    for tag, args in {
        "conv_t1": ["convergence", "--problem", "smooth", "--family", "t1",
                     "--k", "2", "--ell", "2", "--refinements", "4,8"],
        "conv_t3": ["convergence", "--problem", "smooth", "--family", "t3",
                     "--k", "1", "--refinements", "3,6", "--seed", "5"],
        "probe": ["probe", "--family", "t2", "--k", "1"],
    }.items():
        outs = []
        for run in (0, 1):
            out = tmp_path / f"{tag}_{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "vemsupg.cli", *args, "--out", str(out)],
                capture_output=True, text=True, timeout=540,
            )
            assert proc.returncode == 0, proc.stderr
            csvs = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
            outs.append(b"".join((out / f).read_bytes() for f in csvs))
        blobs[tag] = outs[0] == outs[1]
    ok = all(blobs.values())
    report(8, ok, f"byte-identical CSV per command: {blobs}", t0)
    assert ok
