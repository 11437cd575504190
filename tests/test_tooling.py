"""The benchmark's tracer and workloads must keep working against the library.

The span tracer must find every name it patches, and every workload's round
must pass its own checks: the workloads read ``SolveResult.spaces``,
``error`` and ``sample``.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from conftest import share_voronoi

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_patches_resolve():
    tracing = _load("tracing")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.PATCHES
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing


def test_solve_result_error_calls_module_energy_error(monkeypatch):
    # the benchmark spans the energy error by patching this module attribute
    import vemsupg.harness as harness
    from vemsupg.mesh import generate_cartesian
    from vemsupg.problems import problem_smooth

    problem = problem_smooth()
    result = harness.solve_problem(generate_cartesian(2, 2), problem, 1, ell=1)
    calls = []
    real = harness.energy_error
    monkeypatch.setattr(
        harness, "energy_error", lambda *args: calls.append(args) or real(*args)
    )
    err = result.error(problem)
    assert len(calls) == 1
    assert err == real(*calls[0])


def test_solve_problem_calls_module_linear_algebra(monkeypatch):
    # the benchmark spans scatter, Dirichlet elimination and the linear solve
    # by patching these module attributes
    import vemsupg.harness as harness
    from vemsupg.mesh import generate_cartesian
    from vemsupg.problems import problem_smooth

    calls = []
    for name in ("assemble", "apply_dirichlet", "solve"):
        real = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    harness.solve_problem(generate_cartesian(2, 2), problem_smooth(), 1, ell=1)
    assert calls == ["assemble", "apply_dirichlet", "solve"]



@pytest.mark.parametrize("family", ["lloyd20-16", "t2-n4"])
def test_build_element_builds_what_the_solve_builds(family):
    # the benchmark spans harness.build_element, so it must stay the
    # library's path: each cell, placed on its own, gets the increment and
    # (up to its own star center's rounding) the H1 Gram and projector of
    # the solve's space for it
    import vemsupg.harness as harness
    from vemsupg.mesh import generate_voronoi
    from vemsupg.problems import problem_smooth

    if family == "t2-n4":
        mesh = harness.generate_mesh("t2", 4)
    else:
        mesh = generate_voronoi(16, lloyd_iters=20, seed=1)
    for k in (1, 2, 3):
        res = harness.solve_problem(mesh, problem_smooth(), k)
        for c, want in enumerate(res.spaces):
            space, shift, ell = harness.build_element(mesh, c, k, "auto")
            assert ell == space.ell == want.ell, (k, c)
            assert np.array_equal(shift, [0.0, 0.0])
            for name in ("h_full", "pinabla_coeff"):
                got, ref = getattr(space, name), getattr(want, name)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (k, c, name)

@pytest.mark.parametrize("name", ["cart_layer_conv", "voronoi_auto", "pentagon_layers"])
def test_workload_checks_pass_tiny(name, tmp_path, monkeypatch):
    # two tiny rounds, then the checks the benchmark runs after its rounds:
    # the first round places the meshes and builds their DOF maps, the second
    # reuses them, and the checks require the two to agree bit for bit
    workloads = _load("workloads")
    share_voronoi(monkeypatch, workloads)
    workload = workloads.WORKLOADS[name](1, True, str(tmp_path))
    workload.make_inputs()
    one, two = workload.round(), workload.round()
    assert one.failed == two.failed == 0
    assert workload.check([one, two]) == []


def test_one_center_lp_per_chunk_of_new_shapes(monkeypatch):
    # the benchmark's geometry.lp span counts calls of this module attribute,
    # so each call must be one chunk's LP: 16 Voronoi shapes in one call, the
    # two pentagon shapes of t2 in one, and 130 Voronoi shapes in chunks of 64
    import vemsupg.geometry as geometry
    from vemsupg.harness import generate_mesh, solve_problem
    from vemsupg.mesh import generate_voronoi
    from vemsupg.problems import problem_smooth

    sizes = []
    real = geometry.chebyshev_center
    monkeypatch.setattr(
        geometry, "chebyshev_center", lambda kernels: sizes.append(len(kernels)) or real(kernels)
    )
    solve_problem(generate_voronoi(16, lloyd_iters=20, seed=1), problem_smooth(), 2)
    assert sizes == [16]
    sizes.clear()
    solve_problem(generate_mesh("t2", 4), problem_smooth(), 2)
    assert sizes == [2]
    sizes.clear()
    solve_problem(generate_voronoi(130, lloyd_iters=20, seed=1), problem_smooth(), 1)
    assert sizes == [64, 64, 2]


def test_traced_tiny_round(tmp_path, monkeypatch):
    # the benchmark's --trace 1 mode on one tiny voronoi_auto round, twice,
    # as perfbench/selfcheck.py checks it: the rounds finish, exact counts
    # repeat, and the layer self times cover the traced wall time up to the
    # untraced rest (bench.other_s), which stays within 3% of it
    tracing, workloads = _load("tracing"), _load("workloads")
    share_voronoi(monkeypatch, workloads)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.PATCHES]
    workload = workloads.WORKLOADS["voronoi_auto"](1, True, str(tmp_path))
    workload.make_inputs()
    workload.round()
    tracer = tracing.Tracer()
    measured = []
    for _ in range(2):
        tracer.install()
        try:
            traced = tracer.span(tracing.ROOT, workload.round)
        finally:
            tracer.uninstall()
        assert traced.failed == 0
        measured.append(tracing.layer_metrics(tracer))
        tracer.reset()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in saved)
    (first, _), (second, wall) = measured
    counts = [name for name in first if not name.endswith(("_s", "_ms_per_point"))]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    covered = sum(v for name, v in second.items()
                  if name.endswith("_s") and name != "bench.other_s")
    assert abs(covered + second["bench.other_s"] - wall) <= 1e-6 * wall
    assert abs(covered - wall) <= 0.03 * wall, (covered, wall)
