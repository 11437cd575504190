"""SUPG coefficients and local discrete forms.

The stabilization-free scheme discretizes diffusion with the degree
k+ell-1 projected gradient and adds the streamline term weighted by the
element parameter tau; no extra stabilizing bilinear form is needed once
the increment ell makes the projected-gradient Gram matrix coercive.  The
classical comparison scheme keeps the degree k-1 projections everywhere
and restores coercivity with the usual dof-dof stabilization.
"""

import numpy as np
from scipy.linalg import eigh

from .basis import MonomialBasis, div_map, eval_basis, grad_map, laplace_map, mass_matrix
from .errors import ProbeError
from .space import LocalSpace

DEFAULT_PROBE_TOL = 1e-8
DEFAULT_ELL_MAX = 6


class ProblemData:
    """Coefficients, data and (optionally) the exact solution of one problem.

    Parameters
    ----------
    kappa : positive diffusivity
    beta : constant 2-vector or callable points (n, 2) -> (n, 2)
    source : callable points -> values (the right-hand side f)
    dirichlet : dict mapping boundary label -> callable points -> values;
        the key "*" is a wildcard fallback
    label_priority : labels in decreasing priority, breaking ties where two
        differently-labelled edges share a vertex
    exact, exact_grad : optional exact solution and gradient callables
    boundary_classifier : optional callable (p0, p1, old_label) -> label used
        to re-tag boundary edges before assembly
    """

    def __init__(self, kappa, beta, source, dirichlet, label_priority=(),
                 exact=None, exact_grad=None, boundary_classifier=None, name=""):
        if kappa <= 0:
            raise ValueError("diffusivity must be positive")
        self.kappa = float(kappa)
        if callable(beta):
            self.beta = beta
            self.beta_constant = None
        else:
            const = np.asarray(beta, dtype=float)
            self.beta = lambda pts: np.broadcast_to(const, (len(np.atleast_2d(pts)), 2))
            self.beta_constant = const
        self.source = source
        self.dirichlet = dict(dirichlet)
        self.label_priority = list(label_priority)
        self.exact = exact
        self.exact_grad = exact_grad
        self.boundary_classifier = boundary_classifier
        self.name = name

    def dirichlet_for(self, label):
        if label in self.dirichlet:
            return self.dirichlet[label]
        if "*" in self.dirichlet:
            return self.dirichlet["*"]
        return None

    def label_rank(self, label):
        try:
            return self.label_priority.index(label)
        except ValueError:
            return len(self.label_priority)


class ElementCoefficients:
    """Per-element SUPG data: local velocity bound, Peclet number and tau."""

    def __init__(self, kappa, beta_sup, peclet, tau):
        self.kappa = kappa
        self.beta_sup = beta_sup
        self.peclet = peclet
        self.tau = tau


class LocalForms:
    """Local matrices of one element over its DOF basis."""

    def __init__(self, a, b, d, rhs, stab=None):
        self.a = a
        self.b = b
        self.d = d
        self.rhs = rhs
        self.stab = stab

    @property
    def full(self):
        return self.a + self.b + self.d


def beta_sup(geom, beta):
    """Largest |beta| sampled over the element's volume and edge quadrature."""
    pts = np.vstack([geom.quad_points, geom.edge_points.reshape(-1, 2)])
    vals = np.asarray(beta(pts), dtype=float)
    return float(np.hypot(vals[:, 0], vals[:, 1]).max())


def tilde_c_k(basis, h_km1):
    """Largest c with c h^2 |lap p|^2 <= |grad p|^2 over P_k (k > 1).

    ``basis`` is the degree-k basis of the element and ``h_km1`` its degree
    k-1 mass matrix.  1/c is the largest eigenvalue of the pencil of the
    h^2-scaled Laplacian Gram and the gradient Gram on the non-constant
    members: the constant (member 0) spans the gradient Gram's kernel, so
    that Gram is positive definite on the others, and harmonic polynomials
    only add zero eigenvalues.  No cut-off is involved.
    """
    if basis.order <= 1:
        raise ValueError("inverse-inequality constant defined only for k > 1")
    dx, dy = grad_map(basis)
    s = dx.T @ h_km1 @ dx + dy.T @ h_km1 @ dy
    lap = laplace_map(basis)
    m = len(lap)  # the degree k-2 mass matrix is the leading block
    l = basis.scale**2 * (lap.T @ h_km1[:m, :m] @ lap)
    lam = eigh(l[1:, 1:], s[1:, 1:], eigvals_only=True)
    return float(1.0 / lam[-1])


def peclet_tau(geom, kappa, beta_e, k):
    """Element Peclet number and SUPG weight tau.

    Pe = m_k beta_e h / kappa with m_1 = 1/3 and m_k = 2 ``tilde_c_k`` for
    k > 1, the constant taken from the element's own degree-k basis;
    tau = h/(2 beta_e) min(1, Pe).  A vanishing velocity gives (0, 0), which
    turns all streamline terms off.
    """
    if kappa <= 0:
        raise ValueError("diffusivity must be positive")
    if k == 1:
        m_k = 1.0 / 3.0
    else:
        m_k = 2.0 * tilde_c_k(MonomialBasis(geom, k), mass_matrix(MonomialBasis(geom, k - 1)))
    pe, tau = _peclet_tau(geom.h, kappa, np.asarray(beta_e, dtype=float), m_k)
    return float(pe), float(tau), m_k


def _peclet_tau(h, kappa, beta_e, m_k):
    """Peclet numbers and tau for an array of velocity bounds ``beta_e``."""
    moving = beta_e != 0.0
    safe = np.where(moving, beta_e, 1.0)
    pe = np.where(moving, m_k * safe * h / kappa, 0.0)
    tau = np.where(moving, h / (2.0 * safe) * np.minimum(1.0, pe), 0.0)
    return pe, tau


def element_coefficients(geom, problem, k):
    """Bundle beta bound, Peclet number and tau for one element."""
    b_e = beta_sup(geom, problem.beta)
    pe, tau, _ = peclet_tau(geom, problem.kappa, b_e, k)
    return ElementCoefficients(problem.kappa, b_e, pe, tau)


def projected_gradient_gram(space):
    """Gram matrix of the degree k+ell-1 projected gradients of the DOF basis."""
    degree = space.k + space.ell - 1
    gx, gy = space.pizero_grad(degree)
    h = space.mass_block(degree)
    return gx.T @ h @ gx + gy.T @ h @ gy


def rank_bound_ell(n_dofs, k):
    """Smallest increment the probe rule can accept for ``n_dofs`` DOFs at order k.

    The degree k+ell-1 projected gradient maps the local space into
    [P_{k+ell-1}]^2, of dimension (k+ell)(k+ell+1), so its Gram has at least
    n_dofs - (k+ell)(k+ell+1) exact zero eigenvalues.  The rule allows one,
    so it rejects every ell with (k+ell)(k+ell+1) < n_dofs - 1.
    """
    ell = 0
    while (k + ell) * (k + ell + 1) < n_dofs - 1:
        ell += 1
    return ell


def probe_exhausted(k, trace, cell):
    """The ``ProbeError`` of a probe whose trials up to ``trace[-1]`` all failed."""
    return ProbeError(
        f"no increment <= {trace[-1][0]} makes the local form coercive (order {k})",
        trace=trace,
        cell=cell,
    )


def first_coercive(spaces):
    """First of ``spaces`` whose projected-gradient Gram has a 1-dim kernel.

    ``spaces`` yields the trial spaces of one element in increasing ell.  The
    Gram always annihilates constants; the rule accepts the first space for
    which exactly one relative eigenvalue stays below ``DEFAULT_PROBE_TOL``.
    The trace holds one entry per ell from 0 on: (ell, relative eigenvalues),
    or (ell, None) for an increment ``spaces`` skips.
    """
    trace = []
    for space in spaces:
        trace += [(ell, None) for ell in range(len(trace), space.ell)]
        gram = projected_gradient_gram(space)
        lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        lam_max = lam[-1]
        if lam_max <= 0.0:
            trace.append((space.ell, lam.tolist()))
            continue
        n_small = int(np.sum(lam < DEFAULT_PROBE_TOL * lam_max))
        trace.append((space.ell, (lam / lam_max).tolist()))
        if n_small == 1:
            return space
    raise probe_exhausted(space.k, trace, space.geom.cell)


def probe_min_ell(geom, k, ell_max=DEFAULT_ELL_MAX):
    """Smallest increment ``first_coercive`` accepts, all trials on ``geom``.

    The cap is >= 0 and the geometry exact to degree 2 (k + ell_max).
    """
    if ell_max < 0 or geom.exact_degree < 2 * (k + ell_max):
        raise ValueError("probe cap negative or geometry quadrature too weak for it")
    spaces = (LocalSpace(geom, k, ell) for ell in range(ell_max + 1))
    return first_coercive(spaces).ell


def _beta_at(problem, pts):
    return np.asarray(problem.beta(pts), dtype=float)


def _grad_values(space, degree, pts):
    """Projected-gradient values of every DOF basis function at ``pts``."""
    gx, gy = space.pizero_grad(degree)
    vals = eval_basis(MonomialBasis(space.geom, degree), pts)
    return vals.T @ gx, vals.T @ gy


def local_a_h(geom, space, coeffs, problem):
    """Diffusion plus streamline-streamline term, no added stabilization."""
    degree = space.k + space.ell - 1
    gx, gy = space.pizero_grad(degree)
    h = space.mass_block(degree)
    a = coeffs.kappa * (gx.T @ h @ gx + gy.T @ h @ gy)
    if coeffs.tau > 0.0:
        bvals = _beta_at(problem, geom.quad_points)
        vx, vy = _grad_values(space, degree, geom.quad_points)
        s = bvals[:, :1] * vx + bvals[:, 1:] * vy
        a = a + coeffs.tau * (s.T @ (geom.quad_weights[:, None] * s))
    return a


def local_b_h(geom, space, coeffs, problem):
    """Transport term tested against the degree k-1 scalar projection."""
    low = space.k - 1
    proj_v = space.pizero_scalar(low)
    mvals = eval_basis(MonomialBasis(geom, low), geom.quad_points)
    tvals = mvals.T @ proj_v
    bvals = _beta_at(problem, geom.quad_points)
    vx, vy = _grad_values(space, low, geom.quad_points)
    s = bvals[:, :1] * vx + bvals[:, 1:] * vy
    return tvals.T @ (geom.quad_weights[:, None] * s)


def local_d_h(geom, space, coeffs, problem):
    """SUPG consistency term with the Laplacian of the projected gradient."""
    n = space.n_dofs
    if coeffs.tau == 0.0 or space.k == 1:
        return np.zeros((n, n))
    low = space.k - 1
    gx, gy = space.pizero_grad(low)
    div = div_map(MonomialBasis(geom, low)) @ np.vstack([gx, gy])
    dvals = eval_basis(MonomialBasis(geom, low - 1), geom.quad_points).T @ div
    bvals = _beta_at(problem, geom.quad_points)
    vx, vy = _grad_values(space, space.k + space.ell - 1, geom.quad_points)
    s = bvals[:, :1] * vx + bvals[:, 1:] * vy
    return -coeffs.tau * coeffs.kappa * (s.T @ (geom.quad_weights[:, None] * dvals))


def local_rhs(geom, space, coeffs, problem):
    """Load vector (f, projected v + tau beta . projected grad v)."""
    fvals = np.asarray(problem.source(geom.quad_points), dtype=float)
    low = space.k - 1
    proj_v = space.pizero_scalar(low)
    tvals = eval_basis(MonomialBasis(geom, low), geom.quad_points).T @ proj_v
    test = tvals
    if coeffs.tau > 0.0:
        bvals = _beta_at(problem, geom.quad_points)
        vx, vy = _grad_values(space, space.k + space.ell - 1, geom.quad_points)
        test = tvals + coeffs.tau * (bvals[:, :1] * vx + bvals[:, 1:] * vy)
    return test.T @ (geom.quad_weights * fvals)


def sf_forms(geom, space, coeffs, problem):
    """All stabilization-free local forms of one element."""
    return LocalForms(
        a=local_a_h(geom, space, coeffs, problem),
        b=local_b_h(geom, space, coeffs, problem),
        d=local_d_h(geom, space, coeffs, problem),
        rhs=local_rhs(geom, space, coeffs, problem),
    )


def baseline_vem_forms(geom, space, coeffs, problem, sigma=None):
    """Classical VEM-SUPG forms on the standard (ell = 0) space.

    Diffusion and streamline terms use the degree k-1 projected gradient in
    both slots; coercivity comes from the dof-dof stabilization of the H1
    projection residual, scaled by sigma = kappa + tau beta_sup^2.
    """
    if space.ell != 0:
        raise ValueError("baseline forms require the standard space (ell = 0)")
    if sigma is None:
        sigma = coeffs.kappa + coeffs.tau * coeffs.beta_sup**2
    low = space.k - 1
    gx, gy = space.pizero_grad(low)
    h = space.mass_block(low)
    a = coeffs.kappa * (gx.T @ h @ gx + gy.T @ h @ gy)
    if coeffs.tau > 0.0:
        bvals = _beta_at(problem, geom.quad_points)
        vx, vy = _grad_values(space, low, geom.quad_points)
        s = bvals[:, :1] * vx + bvals[:, 1:] * vy
        a = a + coeffs.tau * (s.T @ (geom.quad_weights[:, None] * s))
    resid = np.eye(space.n_dofs) - space.pinabla_dof
    stab = sigma * (resid.T @ resid)
    return LocalForms(
        a=a + stab,
        b=local_b_h(geom, space, coeffs, problem),
        d=local_d_h(geom, space, coeffs, problem),
        rhs=local_rhs(geom, space, coeffs, problem),
        stab=stab,
    )


class ShapeForms:
    """Batched local forms of the translates of one cell shape at fixed (k, ell).

    Every projector matrix is translation-invariant, so the tables below
    (projected gradients, test functions and divergences at the shape's
    quadrature points, the diffusion Gram and the inverse-inequality
    constant) serve every cell of the shape.  Per cell only the samples of
    the velocity and of the source differ; ``batch`` takes them for many
    cells at once and forms the same matrices as ``sf_forms`` (or, with
    ``stabilized``, ``baseline_vem_forms``) with stacked matrix products.
    """

    def __init__(self, space, stabilized=False):
        if stabilized and space.ell != 0:
            raise ValueError("baseline forms require the standard space (ell = 0)")
        k, ell = space.k, space.ell
        low, degree = k - 1, k + ell - 1
        geom = space.geom
        pts = geom.quad_points
        self.space = space
        self.c_tilde = tilde_c_k(space.basis_k, space.mass_block(k - 1)) if k > 1 else None
        self.m_k = 1.0 / 3.0 if k == 1 else 2.0 * self.c_tilde
        self.gram = projected_gradient_gram(space)
        # degree k+ell-1 monomials at the points; lower degrees read leading columns
        vals = eval_basis(MonomialBasis(geom, degree), pts).T

        def at_points(coeffs):
            return vals[:, : len(coeffs)] @ coeffs

        low_grad = space.pizero_grad(low)
        self.grad = tuple(map(at_points, space.pizero_grad(degree)))
        self.grad_low = tuple(map(at_points, low_grad)) if low < degree else self.grad
        self.test = at_points(space.pizero_scalar(low))
        self.div = None
        if k > 1:
            self.div = at_points(div_map(MonomialBasis(geom, low)) @ np.vstack(low_grad))
        self.stab = None
        if stabilized:
            resid = np.eye(space.n_dofs) - space.pinabla_dof
            self.stab = resid.T @ resid
        # velocity samples for beta_sup: volume points first, then edges
        self.samples = np.vstack([pts, geom.edge_points.reshape(-1, 2)])

    def batch(self, problem, shifts):
        """Peclet numbers, tau, local matrices and loads of the cells at ``shifts`` (C, 2).

        Returns (C,), (C,), (C, n, n) and (C, n) arrays.  Each matrix is
        a + b + d, summed in the order of ``LocalForms.full``, with the
        stabilization of the baseline already in a.
        """
        geom = self.space.geom
        n_cells, nq = len(shifts), len(geom.quad_weights)
        w = geom.quad_weights
        kappa = problem.kappa
        pts = self.samples[None, :, :] + shifts[:, None, :]
        beta = _beta_at(problem, pts.reshape(-1, 2)).reshape(n_cells, -1, 2)
        beta_e = np.hypot(beta[..., 0], beta[..., 1]).max(axis=1)
        beta = beta[:, :nq]
        fvals = np.asarray(problem.source(pts[:, :nq].reshape(-1, 2)), dtype=float)
        pe, tau = _peclet_tau(geom.h, kappa, beta_e, self.m_k)

        def streamline(grad):
            return beta[..., :1] * grad[0] + beta[..., 1:] * grad[1]

        s = streamline(self.grad)
        s_t = s.transpose(0, 2, 1)
        t = tau[:, None, None]
        a = kappa * self.gram + t * (s_t @ (w[:, None] * s))
        if self.stab is not None:
            a = a + (kappa + tau * beta_e**2)[:, None, None] * self.stab
        s_low = s if self.grad_low is self.grad else streamline(self.grad_low)
        matrices = a + self.test.T @ (w[:, None] * s_low)
        if self.div is not None:
            matrices = matrices + (-t * kappa) * (s_t @ (w[:, None] * self.div))
        wf = w * fvals.reshape(n_cells, nq)
        loads = ((self.test + t * s).transpose(0, 2, 1) @ wf[..., None])[..., 0]
        return pe, tau, matrices, loads
