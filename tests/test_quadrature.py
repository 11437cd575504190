import numpy as np
import pytest

from oracles import triangle_monomial_integral
from vemsupg.quadrature import (
    edge_rule,
    gauss_legendre_01,
    gauss_lobatto_interior,
    map_rule_to_triangle,
    triangle_rule,
)


@pytest.mark.parametrize("degree", [0, 1, 2, 4, 8, 13, 22])
def test_triangle_rule_exact_on_reference(degree):
    pts, w = triangle_rule(degree)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(0.5, rel=1e-14)
    tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            val = np.sum(w * pts[:, 0] ** p * pts[:, 1] ** q)
            exact = triangle_monomial_integral(tri, p, q)
            assert val == pytest.approx(exact, rel=1e-13, abs=1e-16)


@pytest.mark.parametrize(
    "tri", [[(0.2, -0.1), (1.3, 0.4), (0.5, 1.7)], [(0, 0), (2, 0), (0, 3)]]
)
def test_triangle_rule_mapped(tri):
    degree = 7
    ref_p, ref_w = triangle_rule(degree)
    pts, w = map_rule_to_triangle(ref_p, ref_w, np.asarray(tri, dtype=float))
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            val = np.sum(w * pts[:, 0] ** p * pts[:, 1] ** q)
            exact = triangle_monomial_integral(tri, p, q)
            assert val == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_gauss_legendre_01_exactness():
    x, w = gauss_legendre_01(4)
    for p in range(8):
        assert np.sum(w * x**p) == pytest.approx(1.0 / (p + 1), rel=1e-14)


def test_edge_rule_length_and_moment():
    p0, p1 = np.array([0.5, -1.0]), np.array([2.0, 1.5])
    pts, w, t = edge_rule(p0, p1, 5)
    assert w.sum() == pytest.approx(np.hypot(*(p1 - p0)), rel=1e-14)
    # integral of x along the segment
    length = np.hypot(*(p1 - p0))
    exact = 0.5 * (p0[0] + p1[0]) * length
    assert np.sum(w * pts[:, 0]) == pytest.approx(exact, rel=1e-14)


def test_lobatto_interior_nodes():
    assert gauss_lobatto_interior(1).size == 0
    assert gauss_lobatto_interior(2) == pytest.approx([0.5])
    # k = 3: roots of P_3' at +-1/sqrt(5), mapped to [0, 1]
    nodes = gauss_lobatto_interior(3)
    expect = 0.5 * (np.array([-1, 1]) / np.sqrt(5.0) + 1.0)
    assert nodes == pytest.approx(expect, rel=1e-14)
    # symmetry for every order used
    for k in range(2, 7):
        nodes = gauss_lobatto_interior(k)
        assert nodes == pytest.approx(1.0 - nodes[::-1], rel=1e-13)


def test_rules_are_cached_read_only():
    for rule, arg in ((triangle_rule, 6), (gauss_legendre_01, 5)):
        first = rule(arg)
        assert all(a is b for a, b in zip(first, rule(arg)))
        assert not any(a.flags.writeable for a in first)
        fresh = rule.__wrapped__(arg)
        assert all(np.array_equal(a, b) for a, b in zip(first, fresh))
    for k in (1, 2, 5):
        first = gauss_lobatto_interior(k)
        assert first is gauss_lobatto_interior(k) and not first.flags.writeable
        assert np.array_equal(first, gauss_lobatto_interior.__wrapped__(k))


def test_stacked_rules_match_single():
    rng = np.random.default_rng(3)
    p0, p1 = rng.random((2, 4, 3, 2))
    pts, w, t = edge_rule(p0, p1, 4)
    assert pts.shape == (4, 3, 4, 2) and w.shape == (4, 3, 4) and t.shape == (4,)
    for i, j in np.ndindex(4, 3):
        one = edge_rule(p0[i, j], p1[i, j], 4)
        assert pts[i, j] == pytest.approx(one[0], rel=1e-15)
        assert w[i, j] == pytest.approx(one[1], rel=1e-15)
    tris = np.array([[(0.2, -0.1), (1.3, 0.4), (0.5, 1.7)], [(0, 0), (2, 0), (0, 3)]])
    ref_p, ref_w = triangle_rule(5)
    pts, w = map_rule_to_triangle(ref_p, ref_w, tris)
    assert pts.shape == (2, len(ref_w), 2) and w.shape == (2, len(ref_w))
    for tri, p, wt in zip(tris, pts, w):
        one = map_rule_to_triangle(ref_p, ref_w, tri)
        assert p == pytest.approx(one[0], rel=1e-15)
        assert wt == pytest.approx(one[1], rel=1e-15)
