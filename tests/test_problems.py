import numpy as np
import pytest

from oracles import fd_gradient, fd_laplacian
from vemsupg.forms import ProblemData
from vemsupg.problems import _layer_parts, get_problem, problem_smooth, problem_test1, problem_test2


def layer_laplace(pts):
    """Laplacian of the test1 solution on its own, from the same closed-form parts."""
    pts = np.atleast_2d(pts)
    p, px, py, pxx, pyy, q, qx, qy, qxx, qyy = _layer_parts(pts[:, 0], pts[:, 1])
    e = np.exp(q)
    uxx = (pxx + 2.0 * px * qx + p * (qxx + qx**2)) * e
    uyy = (pyy + 2.0 * py * qy + p * (qyy + qy**2)) * e
    return uxx + uyy


class TestTest1:
    def test_boundary_zero(self):
        p = problem_test1()
        ys = np.linspace(0, 1, 13)
        left = np.column_stack([np.zeros(13), ys])
        top = np.column_stack([ys, np.ones(13)])
        assert p.exact(left) == pytest.approx(np.zeros(13), abs=1e-14)
        assert p.exact(top) == pytest.approx(np.zeros(13), abs=1e-14)

    def test_gradient_fd(self):
        p = problem_test1()
        pt = np.array([[0.3, 0.6]])
        got = p.exact_grad(pt)[0]
        ref = fd_gradient(p.exact, pt)[0]
        assert got == pytest.approx(ref, rel=1e-6)

    def test_laplacian_fd(self):
        p = problem_test1()
        pt = np.array([[0.5, 0.5]])
        kappa, beta = p.kappa, p.beta(pt)[0]
        f = p.source(pt)[0]
        lap = (beta @ p.exact_grad(pt)[0] - f) / kappa
        ref = fd_laplacian(p.exact, pt, step=2e-5)[0]
        assert lap == pytest.approx(ref, rel=1e-5)

    def test_coefficients(self):
        p = problem_test1()
        assert p.kappa == 1e-9
        assert p.beta_constant == pytest.approx([1.0, 0.545])


class TestTest2:
    def test_unit_velocity(self):
        p = problem_test2()
        assert np.hypot(*p.beta_constant) == pytest.approx(1.0, abs=1e-15)

    def test_zero_source(self):
        p = problem_test2()
        pts = np.random.default_rng(0).random((9, 2))
        assert np.all(p.source(pts) == 0.0)

    def test_classifier_splits_left_side(self):
        p = problem_test2()
        up = p.boundary_classifier(np.array([0.0, 0.4]), np.array([0.0, 0.6]), "left")
        lo = p.boundary_classifier(np.array([0.0, 0.0]), np.array([0.0, 0.1]), "left")
        other = p.boundary_classifier(np.array([0.3, 0.0]), np.array([0.4, 0.0]), "bottom")
        assert up == "inflow1"
        assert lo == "rest"
        assert other == "rest"

    def test_label_priority(self):
        p = problem_test2()
        assert p.label_rank("inflow1") < p.label_rank("rest")

    def test_discontinuity_vertex_resolves_high(self):
        # vertex exactly at (0, 0.2) is claimed by both labels; priority wins
        from vemsupg.assemble import DofMap
        from vemsupg.mesh import generate_cartesian

        mesh = generate_cartesian(5, 5)
        p = problem_test2()
        dofmap = DofMap(mesh, 1)
        idx, vals = dofmap.fixed, dofmap.boundary_values(p)
        target = None
        for i in idx:
            if np.allclose(mesh.vertices[i], [0.0, 0.2]):
                target = vals[np.nonzero(idx == i)[0][0]]
        assert target == pytest.approx(1.0)


class TestSmooth:
    def test_vanishes_on_boundary(self):
        p = problem_smooth()
        ts = np.linspace(0, 1, 11)
        for pts in (
            np.column_stack([ts, np.zeros(11)]),
            np.column_stack([ts, np.ones(11)]),
            np.column_stack([np.zeros(11), ts]),
            np.column_stack([np.ones(11), ts]),
        ):
            assert p.exact(pts) == pytest.approx(np.zeros(11), abs=1e-14)

    def test_gradient_fd(self):
        p = problem_smooth()
        pts = np.array([[0.21, 0.57], [0.75, 0.33]])
        assert p.exact_grad(pts) == pytest.approx(fd_gradient(p.exact, pts), rel=1e-6)

    def test_pure_diffusion_variant(self):
        p = problem_smooth(kappa=1.0, beta=(0.0, 0.0))
        pts = np.array([[0.5, 0.5]])
        # f = -kappa lap u = 2 pi^2 u at the center
        assert p.source(pts)[0] == pytest.approx(2 * np.pi**2, rel=1e-12)


@pytest.mark.parametrize("name", ["test1", "smooth"])
def test_source_matches_separate_derivative_calls(name):
    # each source evaluates grad u and lap u in one pass; its values equal
    # -kappa lap u + grad u . beta from a gradient and a Laplacian call
    p = get_problem(name)
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.random((40, 2)), 0.5 + 0.05 * rng.standard_normal((40, 2))])
    laplace = layer_laplace if name == "test1" else lambda x: -2.0 * np.pi**2 * p.exact(x)
    want = -p.kappa * laplace(pts) + p.exact_grad(pts) @ p.beta_constant
    assert np.abs(want).max() > 0.1
    assert np.array_equal(p.source(pts), want)


def test_registry():
    assert get_problem("smooth", kappa=0.5).kappa == 0.5
    with pytest.raises(KeyError):
        get_problem("nope")


def _data(kappa=1.0, beta=(1.0, 0.0)):
    return ProblemData(kappa, beta, lambda p: np.zeros(len(p)), {"*": lambda p: np.zeros(len(p))})


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf, 0.0, -1.0, "1", None, True])
def test_bad_diffusivity_rejected(kappa):
    # a NaN or infinite kappa used to pass and the solve then blamed the mesh;
    # a string or None died in numpy's isfinite; True was read as 1.0
    with pytest.raises(ValueError, match="^diffusivity must be positive and finite") as info:
        _data(kappa=kappa)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("beta", [(np.nan, 0.0), (np.inf, 1.0), (1.0, 2.0, 3.0), (1.0,),
                                  [[1.0, 0.0]], "ab"])
def test_bad_constant_velocity_rejected(beta):
    # non-finite entries reached the solve as a mesh error, a wrong length as
    # a reshape error inside the forms, and entries that are not numbers as
    # numpy's conversion error
    with pytest.raises(ValueError, match="^constant velocity must be a finite 2-vector") as info:
        _data(beta=beta)
    assert "\n" not in str(info.value)


# the optional inputs and the bad values each is given below
_BAD_OPTIONAL = [("label_priority", None), ("boundary_classifier", 5), ("exact", 3),
                 ("exact_grad", "x"), ("label_priority", "top")]
_KINDS = {"dirichlet": "a mapping of labels to callables",
          "label_priority": "a sequence of labels", "boundary_classifier": "callable or None",
          "exact": "callable or None", "exact_grad": "callable or None"}


@pytest.mark.parametrize("source, dirichlet, field", [
    (None, {"*": lambda p: np.zeros(len(p))}, "source"),
    (lambda p: np.zeros(len(p)), {"*": 0.0}, "dirichlet['*']"),
    (lambda p: np.zeros(len(p)), {"left": lambda p: np.zeros(len(p)), "top": None},
     "dirichlet['top']"),
    (lambda p: np.zeros(len(p)), None, "dirichlet"),
    *((lambda p: np.zeros(len(p)), {"*": lambda p: np.zeros(len(p))}, bad)
      for bad in _BAD_OPTIONAL),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_data_that_is_not_callable_rejected(source, dirichlet, field):
    # a None source used to construct, and the solve then died inside the
    # forms; a None dirichlet died in dict(); a None label_priority died in
    # list(), a boundary_classifier of 5 in the DOF map, an exact_grad of
    # "x" in the energy error, and an exact of 3 was kept; a label_priority
    # of "top" became the labels ['t', 'o', 'p']
    field, optional = (field[0], dict([field])) if isinstance(field, tuple) else (field, {})
    with pytest.raises(ValueError) as info:
        ProblemData(1.0, (1.0, 0.0), source, dirichlet, **optional)
    message = str(info.value)
    assert message.startswith(f"{field} must be {_KINDS.get(field, 'callable')}, not ")
    assert message.endswith(f"not {optional[field]!r}" if optional else "")
    assert "\n" not in message
