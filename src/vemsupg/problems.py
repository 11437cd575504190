"""Built-in benchmark problems on the unit square.

All problems have closed-form data; derivatives are differentiated by hand
and double-checked against finite differences in the test suite.
"""

import numpy as np

from .forms import ProblemData

# anisotropic boundary-layer solution: u = P exp(Q) with
#   P = c1 x y (x - 1)(y - 1)
#   Q = -c2 (c4 (c2 - x)^2 + c3 (c2 - y)^2 - c3 (c2 - x)(c2 - y))
_C1 = 3.0 / np.sqrt(2.0 * np.pi)
_C2 = 0.5
_C3 = 1000.0
_C4 = 1e3 / 3.3


def _split(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return pts[:, 0], pts[:, 1]


def _layer_parts(x, y):
    p = _C1 * x * y * (x - 1.0) * (y - 1.0)
    px = _C1 * y * (y - 1.0) * (2.0 * x - 1.0)
    py = _C1 * x * (x - 1.0) * (2.0 * y - 1.0)
    pxx = 2.0 * _C1 * y * (y - 1.0)
    pyy = 2.0 * _C1 * x * (x - 1.0)
    q = -_C2 * (_C4 * (_C2 - x) ** 2 + _C3 * (_C2 - y) ** 2 - _C3 * (_C2 - x) * (_C2 - y))
    qx = _C2 * (2.0 * _C4 * (_C2 - x) - _C3 * (_C2 - y))
    qy = _C2 * (2.0 * _C3 * (_C2 - y) - _C3 * (_C2 - x))
    qxx = -2.0 * _C2 * _C4
    qyy = -2.0 * _C2 * _C3
    return p, px, py, pxx, pyy, q, qx, qy, qxx, qyy


def _layer_u(pts):
    x, y = _split(pts)
    p, _, _, _, _, q, _, _, _, _ = _layer_parts(x, y)
    return p * np.exp(q)


def _layer_grad(pts):
    x, y = _split(pts)
    p, px, py, _, _, q, qx, qy, _, _ = _layer_parts(x, y)
    e = np.exp(q)
    return np.column_stack([(px + p * qx) * e, (py + p * qy) * e])


def _layer_grad_laplace(pts):
    x, y = _split(pts)
    p, px, py, pxx, pyy, q, qx, qy, qxx, qyy = _layer_parts(x, y)
    e = np.exp(q)
    grad = np.column_stack([(px + p * qx) * e, (py + p * qy) * e])
    uxx = (pxx + 2.0 * px * qx + p * (qxx + qx**2)) * e
    uyy = (pyy + 2.0 * py * qy + p * (qyy + qy**2)) * e
    return grad, uxx + uyy


def advection_diffusion_source(kappa, beta, grad_laplace):
    """Right-hand side -kappa lap u + beta . grad u for a known solution.

    ``grad_laplace`` maps points to (grad u, lap u), evaluated together.
    """
    beta = np.asarray(beta, dtype=float)

    def f(pts):
        g, lap = grad_laplace(pts)
        return -kappa * lap + g @ beta

    return f


def problem_test1():
    """Advection-dominated benchmark with the anisotropic layer solution."""
    kappa = 1e-9
    beta = (1.0, 0.545)
    return ProblemData(
        kappa=kappa,
        beta=beta,
        source=advection_diffusion_source(kappa, beta, _layer_grad_laplace),
        dirichlet={"*": _layer_u},
        exact=_layer_u,
        exact_grad=_layer_grad,
        name="test1",
    )


def _test2_classifier(p0, p1, old_label):
    # purely geometric so relabeling is idempotent
    on_left = abs(p0[0]) <= 1e-9 and abs(p1[0]) <= 1e-9
    if on_left and 0.5 * (p0[1] + p1[1]) >= 0.2:
        return "inflow1"
    return "rest"


def problem_test2():
    """Layer benchmark: zero source, discontinuous inflow data, theta = pi/4.

    The inflow value 1 on the left side above y = 0.2 propagates along the
    diagonal characteristics, producing an internal layer along y = x + 0.2
    and outflow layers at the top and right sides.
    """
    theta = np.pi / 4.0
    return ProblemData(
        kappa=1e-6,
        beta=(np.cos(theta), np.sin(theta)),
        source=lambda pts: np.zeros(len(np.atleast_2d(pts))),
        dirichlet={
            "inflow1": lambda pts: np.ones(len(np.atleast_2d(pts))),
            "rest": lambda pts: np.zeros(len(np.atleast_2d(pts))),
        },
        label_priority=["inflow1", "rest"],
        boundary_classifier=_test2_classifier,
        name="test2",
    )


def problem_smooth(kappa=1e-6, beta=(1.0, 0.545)):
    """Manufactured sine solution for clean convergence-rate checks."""

    def u(pts):
        x, y = _split(pts)
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_laplace(pts):
        x, y = _split(pts)
        sx, cx, sy, cy = np.sin(np.pi * x), np.cos(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * y)
        return np.column_stack([np.pi * cx * sy, np.pi * sx * cy]), -2.0 * np.pi**2 * (sx * sy)

    def grad(pts):
        return grad_laplace(pts)[0]

    return ProblemData(
        kappa=kappa,
        beta=beta,
        source=advection_diffusion_source(kappa, beta, grad_laplace),
        dirichlet={"*": u},
        exact=u,
        exact_grad=grad,
        name="smooth",
    )


PROBLEMS = {
    "test1": problem_test1,
    "test2": problem_test2,
    "smooth": problem_smooth,
}


def get_problem(name, **kwargs):
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}") from None
    return factory(**kwargs)
