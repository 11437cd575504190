"""SUPG coefficients and local discrete forms.

The stabilization-free scheme discretizes diffusion with the degree
k+ell-1 projected gradient and adds the streamline term weighted by the
element parameter tau; no extra stabilizing bilinear form is needed once
the increment ell makes the projected-gradient Gram matrix coercive.  The
classical comparison scheme keeps the degree k-1 projections everywhere
and restores coercivity with the usual dof-dof stabilization.
"""

import numbers

import numpy as np

from .basis import MonomialBasis, div_map, eval_basis, grad_map, laplace_map
from .errors import ProbeError
from .space import LocalSpace

DEFAULT_PROBE_TOL = 1e-8
DEFAULT_ELL_MAX = 6


class ProblemData:
    """Coefficients, data and (optionally) the exact solution of one problem.

    Parameters
    ----------
    kappa : positive finite diffusivity
    beta : constant finite 2-vector or callable points (n, 2) -> (n, 2); a constant
        is kept as ``beta_constant`` (None for a callable), which the local
        forms read in place of sampling the field
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
        if not (isinstance(kappa, numbers.Real) and not isinstance(kappa, bool)
                and np.isfinite(kappa) and kappa > 0):
            raise ValueError(f"diffusivity must be positive and finite, not {kappa!r}")
        self.kappa = float(kappa)
        if callable(beta):
            self.beta = beta
            self.beta_constant = None
        else:
            try:
                const = np.asarray(beta, dtype=float)
            except (TypeError, ValueError):  # entries that are not numbers
                const = np.empty(0)
            if const.shape != (2,) or not np.isfinite(const).all():
                raise ValueError(f"constant velocity must be a finite 2-vector, not {beta!r}")
            self.beta = lambda pts: np.broadcast_to(const, (len(np.atleast_2d(pts)), 2))
            self.beta_constant = const
        if not callable(source):
            raise ValueError(f"source must be callable, not {source!r}")
        self.source = source
        try:
            self.dirichlet = dict(dirichlet)
        except (TypeError, ValueError):
            raise ValueError("dirichlet must be a mapping of labels to callables, "
                             f"not {dirichlet!r}") from None
        for label, g in self.dirichlet.items():
            if not callable(g):
                raise ValueError(f"dirichlet[{label!r}] must be callable, not {g!r}")
        if isinstance(label_priority, str) or not np.iterable(label_priority):
            raise ValueError("label_priority must be a sequence of labels, "
                             f"not {label_priority!r}")  # a string would split into characters
        self.label_priority = list(label_priority)
        for field, f in (("exact", exact), ("exact_grad", exact_grad),
                         ("boundary_classifier", boundary_classifier)):
            if f is not None and not callable(f):
                raise ValueError(f"{field} must be callable or None, not {f!r}")
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


def tilde_c_k(basis, h_km1):
    """Largest c with c h^2 |lap p|^2 <= |grad p|^2 over P_k (k > 1).

    ``basis`` is the degree-k basis of the element (or of a stack of them)
    and ``h_km1`` its degree k-1 mass matrix.  1/c is the largest eigenvalue
    of the pencil of the h^2-scaled Laplacian Gram and the gradient Gram on
    the non-constant members: the constant (member 0) spans the gradient
    Gram's kernel, so that Gram is positive definite on the others, and
    harmonic polynomials only add zero eigenvalues.  No cut-off is involved.
    The pencil is reduced by the Cholesky factor of the gradient Gram and
    solved by one batched ``eigvalsh``.
    """
    if basis.order <= 1:
        raise ValueError("inverse-inequality constant defined only for k > 1")
    dx, dy = grad_map(basis)
    s = dx.mT @ h_km1 @ dx + dy.mT @ h_km1 @ dy
    lap = laplace_map(basis)
    m = lap.shape[-2]  # the degree k-2 mass matrix is the leading block
    l = basis.scale[..., None, None] ** 2 * (lap.mT @ h_km1[..., :m, :m] @ lap)
    inv_low = np.linalg.inv(np.linalg.cholesky(s[..., 1:, 1:]))
    lam = np.linalg.eigvalsh(inv_low @ l[..., 1:, 1:] @ inv_low.mT)
    return 1.0 / lam[..., -1]


def _peclet_tau(h, kappa, beta_e, m_k):
    """Peclet numbers Pe = m_k beta_e h / kappa and SUPG weights tau = h/(2 beta_e) min(1, Pe).

    Takes arrays of velocity bounds ``beta_e``; a vanishing bound gives
    (0, 0), which turns all streamline terms off.
    """
    moving = beta_e != 0.0
    safe = np.where(moving, beta_e, 1.0)
    pe = np.where(moving, m_k * safe * h / kappa, 0.0)
    tau = np.where(moving, h / (2.0 * safe) * np.minimum(1.0, pe), 0.0)
    return pe, tau


def projected_gradient_gram(space):
    """Gram matrix of the degree k+ell-1 projected gradients of the DOF basis."""
    degree = space.k + space.ell - 1
    gx, gy = space.pizero_grad(degree)
    h = space.mass_block(degree)
    return gx.mT @ h @ gx + gy.mT @ h @ gy


def coercive(space):
    """The probe rule on every cell of ``space``: (accepted, relative eigenvalues).

    The projected-gradient Gram always annihilates constants; the rule
    accepts a cell for which exactly one eigenvalue stays below
    ``DEFAULT_PROBE_TOL`` of the largest.  The eigenvalues of a cell come
    relative to its largest, or as they are where the largest is not
    positive (such a cell is rejected).  One batched ``eigvalsh`` serves a
    stack.
    """
    gram = projected_gradient_gram(space)
    lam = np.linalg.eigvalsh(0.5 * (gram + gram.mT))
    top = lam[..., -1:]
    accepted = (top[..., 0] > 0.0) & (np.sum(lam < DEFAULT_PROBE_TOL * top, axis=-1) == 1)
    return accepted, np.divide(lam, top, out=lam.copy(), where=top > 0.0)


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


def probe_min_ell(geom, k, ell_max=DEFAULT_ELL_MAX):
    """Smallest increment ``coercive`` accepts, trials from 0 up on ``geom``.

    The cap is >= 0 and the geometry exact to degree 2 (k + ell_max).  The
    ``ProbeError`` of a failed probe holds one trace entry per trial: (ell,
    eigenvalues as ``coercive`` gives them).
    """
    if ell_max < 0 or geom.exact_degree < 2 * (k + ell_max):
        raise ValueError("probe cap negative or geometry quadrature too weak for it")
    trace = []
    for ell in range(ell_max + 1):
        accepted, lam = coercive(LocalSpace(geom, k, ell))
        trace.append((ell, lam.tolist()))
        if accepted:
            return ell
    raise probe_exhausted(k, trace, geom.cell)


class ShapeForms:
    """Batched local forms of the cells placed on a stack of shapes at fixed (k, ell).

    A cell's matrix is a_h + b_h + d_h.  With s = beta . (the degree k+ell-1
    projected gradient), a_h = kappa (projected-gradient Gram) + tau (s, s);
    b_h tests beta . (the degree k-1 projected gradient) against the degree
    k-1 L2 projection; d_h = -tau kappa (s, div of the degree k-1 projected
    gradient).  The load is (f, degree k-1 projection + tau s).  The
    classical baseline (``stabilized``, on ell = 0) adds to a_h the dof-dof
    stabilization sigma (I - Pi_nabla)^T (I - Pi_nabla), sigma = kappa + tau
    beta_e^2, with beta_e the largest |beta| at the cell's volume and edge
    quadrature points.  Pe and tau take m_1 = 1/3 and m_k = 2 ``tilde_c_k``.
    Every projector matrix is translation-invariant, so the tables below
    (per member of the stack: projected gradients, test functions and
    divergences at its quadrature points, the diffusion Gram and the
    inverse-inequality constant) serve every cell that is a translate of
    that member.  Per cell only the samples of the velocity and of the
    source differ; ``batch`` takes them for many cells at once.  A constant
    velocity does not differ either: then tau and every matrix depend on the
    member alone, and ``batch`` forms them once per member.
    """

    def __init__(self, space, stabilized=False):
        """Tables of the stack ``space`` (a stacked ``LocalSpace``, not a one-cell view)."""
        if stabilized and space.ell != 0:
            raise ValueError("baseline forms require the standard space (ell = 0)")
        k, ell = space.k, space.ell
        low, degree = k - 1, k + ell - 1
        geom = space.geom
        pts = geom.quad_points
        self.space = space
        self.c_tilde = tilde_c_k(space.basis_k, space.mass_block(k - 1)) if k > 1 else None
        self.m_k = np.full(len(pts), 1.0 / 3.0) if k == 1 else 2.0 * self.c_tilde
        self.gram = projected_gradient_gram(space)
        # degree k+ell-1 monomials at the points; lower degrees read leading columns
        vals = eval_basis(MonomialBasis(geom, degree), pts).mT

        def at_points(coeffs):
            return vals[..., : coeffs.shape[-2]] @ coeffs

        low_grad = space.pizero_grad(low)
        self.grad = tuple(map(at_points, space.pizero_grad(degree)))
        self.grad_low = tuple(map(at_points, low_grad)) if low < degree else self.grad
        self.test = at_points(space.pizero_scalar(low))
        self.div = None
        if k > 1:
            div = div_map(MonomialBasis(geom, low)) @ np.concatenate(low_grad, axis=-2)
            self.div = at_points(div)
        self.stab = None
        if stabilized:
            resid = np.eye(space.n_dofs) - space.pinabla_dof
            self.stab = resid.mT @ resid
        # samples of a callable velocity for beta_e: volume points first, then edges
        self.samples = np.concatenate([pts, geom.edge_points.reshape(len(pts), -1, 2)], axis=1)

    def batch(self, problem, at, shifts):
        """Peclet numbers, tau, local matrices and loads of cells placed on the stack.

        Cell i is a member of the stack translated by ``shifts[i]``; ``at``
        picks the cells' members (``rows`` of ``harness.CellSpaces.chunks``, or
        an index array).  Returns (C,), (C,), (C, n, n) and (C, n) arrays,
        the first three as read-only views.  Each matrix is a + b + d,
        summed in that order, with the stabilization of the baseline already
        in a.  A constant velocity (``problem.beta_constant``) is one sample,
        so beta_e = |beta|; on translates of one member (``at`` an int) the
        Peclet number, tau and matrix are then formed once and broadcast
        over the cells with stride 0.
        """
        geom = self.space.geom
        n_cells, nq = len(shifts), geom.quad_weights.shape[-1]
        w = geom.quad_weights[at][..., None]
        kappa = problem.kappa
        if problem.beta_constant is None:
            pts = self.samples[at] + shifts[:, None, :]
            beta = problem.beta(pts.reshape(-1, 2))
            beta = np.asarray(beta, dtype=float).reshape(n_cells, -1, 2)
        else:
            pts = geom.quad_points[at] + shifts[:, None, :]
            beta = problem.beta_constant.reshape(1, 1, 2)
        beta_e = np.hypot(beta[..., 0], beta[..., 1]).max(axis=1)
        beta = beta[:, :nq]
        fvals = np.asarray(problem.source(pts[:, :nq].reshape(-1, 2)), dtype=float)
        pe, tau = _peclet_tau(geom.h[at], kappa, beta_e, self.m_k[at])

        def streamline(grad):
            return beta[..., :1] * grad[0][at] + beta[..., 1:] * grad[1][at]

        s = streamline(self.grad)
        s_t = s.mT
        t = tau[:, None, None]
        a = kappa * self.gram[at] + t * (s_t @ (w * s))
        if self.stab is not None:
            a = a + (kappa + tau * beta_e**2)[:, None, None] * self.stab[at]
        s_low = s if self.grad_low is self.grad else streamline(self.grad_low)
        test = self.test[at]
        matrices = a + test.mT @ (w * s_low)
        if self.div is not None:
            matrices = matrices + (-t * kappa) * (s_t @ (w * self.div[at]))
        wf = w[..., 0] * fvals.reshape(n_cells, nq)
        loads = ((test + t * s).mT @ wf[..., None])[..., 0]
        matrices = np.broadcast_to(matrices, (n_cells,) + matrices.shape[-2:])
        return np.broadcast_to(pe, n_cells), np.broadcast_to(tau, n_cells), matrices, loads


def sf_forms(space, problem):
    """(Peclet number, tau, local matrix, load) of the one-cell ``space``, from ``ShapeForms``."""
    pe, tau, mat, rhs = ShapeForms(space.stack).batch(problem, space.index, np.zeros((1, 2)))
    return pe[0], tau[0], mat[0], rhs[0]


def baseline_vem_forms(space, problem):
    """``sf_forms`` with the stabilized baseline forms; ``space.ell`` must be 0."""
    pe, tau, mat, rhs = ShapeForms(space.stack, True).batch(problem, space.index, np.zeros((1, 2)))
    return pe[0], tau[0], mat[0], rhs[0]


def element_coefficients(space, problem):
    """(Peclet number, tau) of the one-cell ``space``."""
    return sf_forms(space, problem)[:2]
