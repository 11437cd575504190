"""The benchmark's span tracer must find every name it patches in the library."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_patches_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
