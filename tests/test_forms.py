import itertools

import numpy as np
import pytest

from conftest import UNIT_SQUARE, make_geometry, swirl_problem
from oracles import Poly2, directional, tilde_c_k_by_schur
from vemsupg.basis import MonomialBasis, mass_matrix, poly_dim
from vemsupg.errors import ProbeError
from vemsupg.forms import (
    DEFAULT_ELL_MAX,
    DEFAULT_PROBE_TOL,
    ProblemData,
    ShapeForms,
    baseline_vem_forms,
    beta_sup,
    element_coefficients,
    local_a_h,
    local_b_h,
    local_d_h,
    local_rhs,
    peclet_tau,
    probe_min_ell,
    projected_gradient_gram,
    rank_bound_ell,
    sf_forms,
    tilde_c_k,
)
from vemsupg.harness import ShapeTable, generate_mesh
from vemsupg.mesh import generate_cartesian, generate_concave_pentagons, generate_voronoi
from vemsupg.problems import problem_smooth
from vemsupg.space import LocalSpace, dof_layout

BETA1 = (1.0, 0.545)


def make_problem(kappa=1.0, beta=BETA1, source=None):
    return ProblemData(
        kappa=kappa,
        beta=beta,
        source=source or (lambda pts: np.zeros(len(np.atleast_2d(pts)))),
        dirichlet={"*": lambda pts: np.zeros(len(np.atleast_2d(pts)))},
    )


class TestBetaSup:
    def test_constant_field(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        expect = np.sqrt(1.0 + 0.545**2)  # direct arithmetic oracle
        assert beta_sup(geom, make_problem().beta) == pytest.approx(expect, rel=1e-15)

    def test_zero_field(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        assert beta_sup(geom, make_problem(beta=(0.0, 0.0)).beta) == 0.0

    def test_unit_vector(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        beta = (np.cos(np.pi / 4), np.sin(np.pi / 4))
        assert beta_sup(geom, make_problem(beta=beta).beta) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_variable_field_max_over_samples(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        field = lambda pts: np.column_stack([pts[:, 0], np.zeros(len(pts))])
        got = beta_sup(geom, field)
        assert 0.9 < got <= 1.0  # sup of |x| over the square sampled at quadrature


def c_tilde(geom, k):
    """tilde_c_k from the element's own degree-k basis and degree k-1 mass matrix."""
    return tilde_c_k(MonomialBasis(geom, k), mass_matrix(MonomialBasis(geom, k - 1)))


class TestTildeC:
    def test_k1_not_defined(self):
        geom = make_geometry(UNIT_SQUARE, k=2, ell=0)
        with pytest.raises(ValueError):
            c_tilde(geom, 1)

    def test_scale_invariance(self):
        g1 = make_geometry(UNIT_SQUARE, k=2, ell=0)
        g2 = make_geometry(2.0 * UNIT_SQUARE, k=2, ell=0)
        c1 = c_tilde(g1, 2)
        c2 = c_tilde(g2, 2)
        assert c1 > 0
        assert c1 == pytest.approx(c2, rel=1e-10)

    def test_rayleigh_upper_bound(self):
        # p = m_(2,0) + m_(0,2) has nonzero laplacian; its quotient bounds the
        # minimum from above
        geom = make_geometry(UNIT_SQUARE, k=2, ell=0)
        c2 = c_tilde(geom, 2)
        p = Poly2.from_scaled_coeffs(
            [0, 0, 0, 1.0, 0, 1.0],
            MonomialBasis(geom, 2).exponents.tolist(),
            geom.h,
        )
        grad_sq = p.dx() * p.dx() + p.dy() * p.dy()
        lap = p.dx().dx() + p.dy().dy()
        lap_sq = lap * lap
        num = grad_sq.integrate(UNIT_SQUARE, geom.star_center)
        den = geom.h**2 * lap_sq.integrate(UNIT_SQUARE, geom.star_center)
        assert c2 <= num / den + 1e-12

    def test_harmonic_excluded(self):
        # harmonic members do not drive the constant to zero
        geom = make_geometry(UNIT_SQUARE, k=3, ell=0)
        assert c_tilde(geom, 3) > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_space_mass_block_matches_own(self, k):
        # the form tables read the leading block of the space's mass matrix
        verts = generate_voronoi(9, lloyd_iters=5, seed=2).cell_vertices(4)
        geom = make_geometry(verts, k=k, ell=1)
        space = LocalSpace(geom, k, 1)
        assert ShapeForms(space).c_tilde == pytest.approx(c_tilde(geom, k), rel=1e-10)

    def test_matches_schur_oracle(self):
        # one pencil on the non-constant members against the route that cuts
        # the Laplacian kernel at 1e-12 and takes a Schur complement
        meshes = [generate_mesh("t1", 2), generate_mesh("t2", 4),
                  generate_voronoi(64, lloyd_iters=100, seed=3)]
        for mesh in meshes:
            table = ShapeTable()
            table.place(mesh, range(mesh.n_cells))
            for shape in table.shapes.values():
                for k in (2, 3, 4):
                    space = shape.space(k, 0)
                    args = (space.basis_k, space.mass_block(k - 1))
                    want = tilde_c_k_by_schur(*args)
                    assert tilde_c_k(*args) == pytest.approx(want, rel=1e-12), (shape.cell, k)


class TestPecletTau:
    def test_advection_dominated_values(self):
        geom = make_geometry(0.1 * UNIT_SQUARE, k=1, ell=1)  # h = 0.1 sqrt(2)? no
        # build a square with diameter exactly 0.1
        side = 0.1 / np.sqrt(2.0)
        geom = make_geometry(side * UNIT_SQUARE, k=1, ell=1)
        assert geom.h == pytest.approx(0.1, rel=1e-14)
        beta_e = np.sqrt(1.0 + 0.545**2)
        pe, tau, m_k = peclet_tau(geom, 1e-9, beta_e, 1)
        assert m_k == pytest.approx(1.0 / 3.0)
        assert pe == pytest.approx(beta_e * 0.1 / 3.0 / 1e-9, rel=1e-13)
        assert pe > 1
        assert tau == pytest.approx(0.1 / (2 * beta_e), rel=1e-13)

    def test_diffusion_dominated_values(self):
        side = 0.1 / np.sqrt(2.0)
        geom = make_geometry(side * UNIT_SQUARE, k=1, ell=1)
        pe, tau, _ = peclet_tau(geom, 1.0, 1.0, 1)
        assert pe == pytest.approx(0.1 / 3.0, rel=1e-13)
        assert tau == pytest.approx(0.05 * pe, rel=1e-13)

    def test_zero_velocity_convention(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        pe, tau, _ = peclet_tau(geom, 1.0, 0.0, 1)
        assert (pe, tau) == (0.0, 0.0)

    def test_kappa_positive_required(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        with pytest.raises(ValueError):
            peclet_tau(geom, 0.0, 1.0, 1)

    def test_branch_continuity_at_peclet_one(self):
        # both branches of tau meet at Pe = 1: evaluating the capped and the
        # linear branch at the crossing gives bit-identical values
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        beta_e = 1.0
        capped = geom.h / (2 * beta_e) * min(1.0, 1.0)
        linear = geom.h / (2 * beta_e) * 1.0
        assert abs(capped - linear) <= 1e-15
        # and the sweep across the crossing is continuous to first order
        kappa_star = geom.h / 3.0  # Pe(kappa_star) = 1 exactly
        eps = 1e-12
        _, tau_lo, _ = peclet_tau(geom, kappa_star * (1 + eps), beta_e, 1)
        _, tau_hi, _ = peclet_tau(geom, kappa_star * (1 - eps), beta_e, 1)
        tau_at = geom.h / 2.0
        assert abs(tau_lo - tau_hi) <= 4 * eps * tau_at


class TestProbe:
    def test_square_verified_ground_truth(self):
        # frozen from two independent constructions (library machinery and a
        # fine P2 discretization of the implicit space definition); note the
        # k = 3 entry, where the reference table reports 2 but the minimal
        # increment under the one-small-eigenvalue rule is 1, with second
        # eigenvalue 8.589e-5 of the largest
        expect = {1: 1, 2: 2, 3: 1, 4: 2}
        for k, want in expect.items():
            geom = make_geometry(UNIT_SQUARE, k=k, ell=6)
            assert probe_min_ell(geom, k) == want

    def test_square_k1_rank_argument(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=6)
        space = LocalSpace(geom, 1, 0)
        gram = projected_gradient_gram(space)
        assert np.linalg.matrix_rank(gram, tol=1e-10) <= 2 < 3

    def test_generic_quadrilateral_k2(self):
        quad = np.array([[0, 0], [1.1, 0.12], [0.93, 1.04], [-0.08, 0.95]])
        geom = make_geometry(quad, k=2, ell=6)
        assert probe_min_ell(geom, 2) == 1

    def test_probe_cap_error_carries_trace(self):
        geom = make_geometry(UNIT_SQUARE, k=2, ell=1)
        with pytest.raises(ValueError):
            probe_min_ell(geom, 2)  # quadrature too weak for the cap
        geom = make_geometry(UNIT_SQUARE, k=2, ell=6)
        with pytest.raises(ValueError):
            probe_min_ell(geom, 2, ell_max=-1)  # no trial increment at all
        with pytest.raises(ProbeError) as err:
            probe_min_ell(geom, 2, ell_max=1)
        assert len(err.value.trace) == 2

    def test_cap_error_names_cell(self):
        # seed-0 Voronoi cell 130 exhausts the cap at order 3
        from vemsupg.mesh import generate_voronoi

        mesh = generate_voronoi(256, lloyd_iters=100, seed=0)
        geom = make_geometry(mesh.cell_vertices(130), k=3, ell=6, cell=130)
        with pytest.raises(ProbeError) as err:
            probe_min_ell(geom, 3)
        assert err.value.cell == 130
        assert str(err.value) == (
            "cell 130: no increment <= 6 makes the local form coercive (order 3)"
        )
        # the solve's own probe, on the shape's spaces, names the cell too
        from vemsupg.harness import solve_problem
        from vemsupg.problems import problem_test2

        mesh = generate_voronoi(64, lloyd_iters=20, seed=1)
        with pytest.raises(ProbeError) as err:
            solve_problem(mesh, problem_test2(), 3, ell="auto")
        assert err.value.cell == 6
        assert [ell for ell, _ in err.value.trace] == list(range(7))

    def test_solve_ell_frozen_on_voronoi(self):
        # per-cell increments of the 64-cell Lloyd-100 seed-3 Voronoi mesh,
        # frozen from the per-edge projector construction: a roundoff change
        # in the element data must not flip a probe decision
        from vemsupg.harness import solve_problem
        from vemsupg.mesh import generate_voronoi
        from vemsupg.problems import problem_test2

        expect = {
            1: "1111111111111111111111111111111111111111111111111111111111111111",
            2: "1211111121111111111221111111111111111111211111211111112111111211",
            3: "1311111121111111111221211121112111111111211111212111112211111112",
        }
        mesh = generate_voronoi(64, lloyd_iters=100, seed=3)
        for k, want in expect.items():
            res = solve_problem(mesh, problem_test2(), k, ell="auto")
            assert "".join(map(str, res.solution.ell)) == want, f"k={k}"

    @pytest.mark.slow
    def test_rank_bound_skips_only_rejected_trials(self):
        # every increment below the rank bound leaves at least two Gram
        # eigenvalues under the cutoff, so the rule rejects it, and the
        # solve's probe, which starts at the bound, picks the increment that
        # probe_min_ell picks from ell = 0 (or fails on the same cell)
        from vemsupg.harness import ShapeTable
        from vemsupg.mesh import generate_concave_pentagons, generate_voronoi

        meshes = {
            "lloyd100-seed3": generate_voronoi(64, lloyd_iters=100, seed=3),
            "lloyd20-seed1": generate_voronoi(64, lloyd_iters=20, seed=1),
            "t2-n4": generate_concave_pentagons(4),
        }
        skipped, fewest = 0, np.inf
        for name, mesh in meshes.items():
            for k, c in itertools.product((1, 2, 3, 4), range(mesh.n_cells)):
                where = (name, k, c)
                [(shape, _)] = ShapeTable().place(mesh, [c])
                start = rank_bound_ell(dof_layout(len(mesh.cells[c]), k).n_dofs, k)
                for ell in range(min(start, DEFAULT_ELL_MAX + 1)):
                    gram = projected_gradient_gram(shape.space(k, ell))
                    lam = np.linalg.eigvalsh(0.5 * (gram + gram.T))
                    n_small = int(np.sum(lam < DEFAULT_PROBE_TOL * lam[-1]))
                    assert n_small >= 2, (*where, ell)
                    skipped += 1
                    fewest = min(fewest, n_small)
                geom = make_geometry(mesh.cell_vertices(c), k=k, ell=6, cell=c)
                picks = []
                for probe in (lambda: probe_min_ell(geom, k),
                              lambda: shape.probe(k)):
                    try:
                        picks.append(probe())
                    except ProbeError as err:
                        picks.append(f"cell {err.cell} exhausted")
                assert picks[0] == picks[1], where
        assert skipped == 689 and fewest == 2

    def test_cap_error_without_builds(self, monkeypatch):
        # a regular 40-gon has 163 DOFs at k = 4: the rank bound is ell = 9,
        # above the cap, so the probe fails before it builds anything
        from vemsupg.geometry import ElementGeometry
        from vemsupg.harness import solve_problem
        from vemsupg.mesh import PolyMesh
        from vemsupg.problems import problem_smooth

        builds = []

        def counted(init):
            def wrapper(self, *args, **kwargs):
                builds.append(type(self).__name__)
                init(self, *args, **kwargs)

            return wrapper

        for cls in (ElementGeometry, LocalSpace):
            monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
        t = 2.0 * np.pi * np.arange(40) / 40
        polygon = 0.5 + 0.5 * np.column_stack([np.cos(t), np.sin(t)])
        mesh = PolyMesh(polygon, [list(range(40))])
        assert rank_bound_ell(dof_layout(40, 4).n_dofs, 4) == 9
        with pytest.raises(ProbeError) as err:
            solve_problem(mesh, problem_smooth(), 4, ell="auto")
        assert err.value.cell == 0
        assert str(err.value) == (
            "cell 0: no increment <= 6 makes the local form coercive (order 4)"
        )
        assert err.value.trace == [(ell, None) for ell in range(7)]
        assert builds == []

    def test_minimality(self):
        geom = make_geometry(UNIT_SQUARE, k=2, ell=6)
        ell = probe_min_ell(geom, 2)
        space = LocalSpace(geom, 2, ell - 1)
        gram = projected_gradient_gram(space)
        lam = np.linalg.eigvalsh(gram)
        assert np.sum(lam < 1e-8 * lam[-1]) > 1


@pytest.mark.slow
def test_probe_matches_fem_oracle():
    # the decisive cross-check for the k = 3 square entry: an independent
    # finite element resolution of the implicit space reproduces the same
    # second eigenvalue, so it is genuinely nonzero
    from fem_oracle import fem_probe_spectrum

    from vemsupg.geometry import ElementGeometry

    geom = ElementGeometry(UNIT_SQUARE, 2 * 4 + 2, 5)
    space = LocalSpace(geom, 3, 1)
    gram = projected_gradient_gram(space)
    lam = np.linalg.eigvalsh(gram)
    mine = lam / lam[-1]
    fem = fem_probe_spectrum(3, 1, n_grid=24)
    assert mine[1] == pytest.approx(8.589e-5, rel=1e-3)
    assert fem[1] == pytest.approx(mine[1], rel=1e-5)
    assert fem[2] == pytest.approx(mine[2], rel=1e-5)


def _poly_pair(space, rng):
    k = space.k
    p = rng.standard_normal(poly_dim(k))
    q = rng.standard_normal(poly_dim(k))
    return p, q


class TestLocalForms:
    @pytest.fixture()
    def square_space(self):
        geom = make_geometry(UNIT_SQUARE, k=2, ell=2)
        return geom, LocalSpace(geom, 2, 2)

    def test_a_h_constants_kernel(self, square_space):
        geom, space = square_space
        problem = make_problem(kappa=1.0)
        coeffs = element_coefficients(geom, problem, 2)
        a = local_a_h(geom, space, coeffs, problem)
        ones = space.polynomial_dofs(np.r_[1.0, np.zeros(5)])
        assert a @ ones == pytest.approx(np.zeros(space.n_dofs), abs=1e-12)
        assert a == pytest.approx(a.T, abs=1e-12)
        assert np.linalg.eigvalsh(a).min() > -1e-12

    def test_a_h_pure_diffusion_equals_gram(self, square_space):
        geom, space = square_space
        problem = make_problem(kappa=1.0, beta=(0.0, 0.0))
        coeffs = element_coefficients(geom, problem, 2)
        a = local_a_h(geom, space, coeffs, problem)
        assert a == pytest.approx(projected_gradient_gram(space), rel=1e-12)

    @pytest.mark.parametrize("k,ell", [(1, 1), (2, 2)])
    def test_a_h_polynomial_consistency(self, k, ell, mesh_t2):
        # on polynomials the discrete form equals the continuous one, by
        # exactness of projections; oracle integrates independently
        rng = np.random.default_rng(23)
        c = 1
        verts = mesh_t2.cell_vertices(c)
        geom = make_geometry(verts, k=k, ell=ell, cell=c)
        space = LocalSpace(geom, k, ell)
        problem = make_problem(kappa=0.7)
        coeffs = element_coefficients(geom, problem, k)
        a = local_a_h(geom, space, coeffs, problem)
        p, q = _poly_pair(space, rng)
        pd = space.polynomial_dofs(p)
        qd = space.polynomial_dofs(q)
        got = qd @ a @ pd
        exps = space.basis_k.exponents.tolist()
        pp = Poly2.from_scaled_coeffs(p, exps, geom.h)
        qq = Poly2.from_scaled_coeffs(q, exps, geom.h)
        grad_term = pp.dx() * qq.dx() + pp.dy() * qq.dy()
        sup_term = directional(pp.dx(), pp.dy(), BETA1) * directional(
            qq.dx(), qq.dy(), BETA1
        )
        expect = 0.7 * grad_term.integrate(verts, geom.star_center)
        expect += coeffs.tau * sup_term.integrate(verts, geom.star_center)
        assert got == pytest.approx(expect, rel=1e-11)

    def test_b_h_constant_column_zero(self, square_space):
        geom, space = square_space
        problem = make_problem()
        coeffs = element_coefficients(geom, problem, 2)
        b = local_b_h(geom, space, coeffs, problem)
        ones = space.polynomial_dofs(np.r_[1.0, np.zeros(5)])
        assert b @ ones == pytest.approx(np.zeros(space.n_dofs), abs=1e-13)

    def test_b_h_zero_velocity(self, square_space):
        geom, space = square_space
        problem = make_problem(beta=(0.0, 0.0))
        coeffs = element_coefficients(geom, problem, 2)
        assert np.all(local_b_h(geom, space, coeffs, problem) == 0.0)

    def test_b_h_polynomial_consistency_k1(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        space = LocalSpace(geom, 1, 1)
        problem = make_problem()
        coeffs = element_coefficients(geom, problem, 1)
        b = local_b_h(geom, space, coeffs, problem)
        rng = np.random.default_rng(29)
        p, q = _poly_pair(space, rng)
        pd = space.polynomial_dofs(p)
        qd = space.polynomial_dofs(q)
        got = qd @ b @ pd
        exps = space.basis_k.exponents.tolist()
        pp = Poly2.from_scaled_coeffs(p, exps, geom.h)
        qq = Poly2.from_scaled_coeffs(q, exps, geom.h)
        # test slot is projected onto constants for k = 1
        mean_q = qq.integrate(UNIT_SQUARE, geom.star_center) / geom.area
        bgrad = directional(pp.dx(), pp.dy(), BETA1)
        expect = mean_q * bgrad.integrate(UNIT_SQUARE, geom.star_center)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_d_h_zero_for_k1(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        space = LocalSpace(geom, 1, 1)
        problem = make_problem()
        coeffs = element_coefficients(geom, problem, 1)
        assert np.all(local_d_h(geom, space, coeffs, problem) == 0.0)

    def test_d_h_zero_velocity(self, square_space):
        geom, space = square_space
        problem = make_problem(beta=(0.0, 0.0))
        coeffs = element_coefficients(geom, problem, 2)
        assert np.all(local_d_h(geom, space, coeffs, problem) == 0.0)

    def test_d_h_polynomial_consistency_k2(self, square_space):
        geom, space = square_space
        problem = make_problem(kappa=0.3)
        coeffs = element_coefficients(geom, problem, 2)
        d = local_d_h(geom, space, coeffs, problem)
        rng = np.random.default_rng(31)
        p, q = _poly_pair(space, rng)
        pd = space.polynomial_dofs(p)
        qd = space.polynomial_dofs(q)
        got = qd @ d @ pd
        exps = space.basis_k.exponents.tolist()
        pp = Poly2.from_scaled_coeffs(p, exps, geom.h)
        qq = Poly2.from_scaled_coeffs(q, exps, geom.h)
        lap_p = pp.dx().dx() + pp.dy().dy()
        bgrad_q = directional(qq.dx(), qq.dy(), BETA1)
        expect = -coeffs.tau * 0.3 * (lap_p * bgrad_q).integrate(
            UNIT_SQUARE, geom.star_center
        )
        assert got == pytest.approx(expect, rel=1e-11)

    def test_rhs_zero_source(self, square_space):
        geom, space = square_space
        problem = make_problem()
        coeffs = element_coefficients(geom, problem, 2)
        assert np.all(local_rhs(geom, space, coeffs, problem) == 0.0)

    def test_rhs_unit_source_k1_mean(self):
        geom = make_geometry(UNIT_SQUARE, k=1, ell=1)
        space = LocalSpace(geom, 1, 1)
        problem = make_problem(
            beta=(0.0, 0.0), source=lambda pts: np.ones(len(np.atleast_2d(pts)))
        )
        coeffs = element_coefficients(geom, problem, 1)
        rhs = local_rhs(geom, space, coeffs, problem)
        # entry i equals the mean of phi_i times the area
        expect = space.moments[0, :]
        assert rhs == pytest.approx(expect, rel=1e-12)

    def test_rhs_polynomial_consistency(self, square_space):
        geom, space = square_space
        rng = np.random.default_rng(37)
        fcoef = rng.standard_normal(poly_dim(1))
        exps1 = MonomialBasis(geom, 1).exponents.tolist()
        fpoly = Poly2.from_scaled_coeffs(fcoef, exps1, geom.h)

        def source(pts):
            pts = np.atleast_2d(pts)
            out = np.zeros(len(pts))
            for (a, b), cc in fpoly.terms.items():
                out += cc * (pts[:, 0] - geom.star_center[0]) ** a * (
                    pts[:, 1] - geom.star_center[1]
                ) ** b
            return out

        problem = make_problem(source=source)
        coeffs = element_coefficients(geom, problem, 2)
        rhs = local_rhs(geom, space, coeffs, problem)
        p, _ = _poly_pair(space, rng)
        pd = space.polynomial_dofs(p)
        got = rhs @ pd
        exps = space.basis_k.exponents.tolist()
        pp = Poly2.from_scaled_coeffs(p, exps, geom.h)
        test_part = pp + coeffs.tau * directional(pp.dx(), pp.dy(), BETA1)
        expect = (fpoly * test_part).integrate(UNIT_SQUARE, geom.star_center)
        assert got == pytest.approx(expect, rel=1e-11)


class TestBaseline:
    @pytest.fixture()
    def square0(self):
        geom = make_geometry(UNIT_SQUARE, k=2, ell=0)
        return geom, LocalSpace(geom, 2, 0)

    def test_requires_standard_space(self):
        geom = make_geometry(UNIT_SQUARE, k=2, ell=1)
        space = LocalSpace(geom, 2, 1)
        problem = make_problem()
        coeffs = element_coefficients(geom, problem, 2)
        with pytest.raises(ValueError):
            baseline_vem_forms(geom, space, coeffs, problem)

    def test_stabilization_annihilates_polynomials(self, square0):
        geom, space = square0
        problem = make_problem()
        coeffs = element_coefficients(geom, problem, 2)
        forms = baseline_vem_forms(geom, space, coeffs, problem)
        rng = np.random.default_rng(41)
        p = rng.standard_normal(poly_dim(2))
        pd = space.polynomial_dofs(p)
        assert forms.stab @ pd == pytest.approx(np.zeros(space.n_dofs), abs=1e-10)

    def test_spd_beyond_constants(self, square0):
        geom, space = square0
        problem = make_problem()
        coeffs = element_coefficients(geom, problem, 2)
        forms = baseline_vem_forms(geom, space, coeffs, problem)
        lam = np.linalg.eigvalsh(0.5 * (forms.a + forms.a.T))
        assert lam[0] > -1e-12 * lam[-1]
        assert lam[1] > 1e-8 * lam[-1]  # what the stabilization buys

    def test_kappa_scaling(self, square0):
        geom, space = square0
        p1 = make_problem(kappa=1e-6)
        c1 = element_coefficients(geom, p1, 2)
        f1 = baseline_vem_forms(geom, space, c1, p1)
        p2 = make_problem(kappa=2e-6)
        c2 = element_coefficients(geom, p2, 2)
        f2 = baseline_vem_forms(geom, space, c2, p2)
        # advection-dominated regime: tau unchanged, consistency part and
        # sigma adjust with kappa; rebuild from hand-scaled pieces
        assert c2.tau == pytest.approx(c1.tau, rel=1e-13)
        gram = projected_gradient_gram(space)
        diff = f2.a - f1.a
        resid = np.eye(space.n_dofs) - space.pinabla_dof
        expect = (c2.kappa - c1.kappa) * (gram + resid.T @ resid)
        tol = 1e-11 * np.abs(f1.a).max()
        assert diff == pytest.approx(expect, abs=tol)


def test_sf_forms_bundle(mesh_t3):
    c = 2
    geom = make_geometry(mesh_t3.cell_vertices(c), k=1, ell=1, cell=c)
    space = LocalSpace(geom, 1, 1)
    problem = make_problem()
    coeffs = element_coefficients(geom, problem, 1)
    forms = sf_forms(geom, space, coeffs, problem)
    assert forms.full == pytest.approx(forms.a + forms.b + forms.d)
    gram = projected_gradient_gram(space)
    assert gram @ np.ones(space.n_dofs) == pytest.approx(
        np.zeros(space.n_dofs), abs=1e-12
    )


class TestShapeForms:
    MESHES = {
        "t1": lambda: generate_cartesian(3, 3),
        "t2": lambda: generate_concave_pentagons(2),
        "t3": lambda: generate_voronoi(16, lloyd_iters=20, seed=1),
    }

    @staticmethod
    def close(got, ref):
        return np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("method", ["sf", "vem"])
    @pytest.mark.parametrize("family", ["t1", "t2", "t3"])
    def test_batch_matches_per_element_forms(self, family, method):
        # each cell's stacked matrix, load, Peclet number and tau equal the
        # reference forms built on the cell's own geometry, to roundoff
        mesh = self.MESHES[family]()
        placed = ShapeTable().place(mesh, range(mesh.n_cells))
        shifts = np.array([shift for _, shift in placed])
        by_shape = {}
        for c, (shape, _) in enumerate(placed):
            by_shape.setdefault(shape, []).append(c)
        build = sf_forms if method == "sf" else baseline_vem_forms
        for k, problem in itertools.product((1, 2, 3), (problem_smooth(), swirl_problem())):
            for shape, cells in by_shape.items():
                ell = shape.probe(k) if method == "sf" else 0
                tables = ShapeForms(shape.space(k, ell), stabilized=method == "vem")
                pe, tau, mats, loads = tables.batch(problem, shifts[cells])
                for i, c in enumerate(cells):
                    geom = make_geometry(mesh.cell_vertices(c), k=k, ell=ell, cell=c)
                    coef = element_coefficients(geom, problem, k)
                    lf = build(geom, LocalSpace(geom, k, ell), coef, problem)
                    where = (k, problem.name, c)
                    assert self.close(mats[i], lf.full), where
                    assert self.close(loads[i], lf.rhs), where
                    assert pe[i] == pytest.approx(coef.peclet, rel=1e-12), where
                    assert tau[i] == pytest.approx(coef.tau, rel=1e-12), where
