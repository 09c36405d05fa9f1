import numpy as np
import pytest

from pdwg.poly import (
    EdgeBasis,
    TriBasis,
    dim_poly2d,
    map_to_edge,
    map_to_triangle,
    project_edge,
    project_element,
    quad_edge,
    quad_triangle,
)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def longest_edge(coords):
    """Diameter of a triangle, computed as project_element does."""
    return max(np.hypot(*(coords[(i + 1) % 3] - coords[i])) for i in range(3))


def ref_monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle:
    a! b! / (a + b + 2)!."""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


class TestQuadTriangle:
    def test_degree_1_constant(self):
        rule = quad_triangle(1)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)

    def test_degree_4_x2y2(self):
        # oracle: int_0^1 int_0^{1-x} x^2 y^2 dy dx = 1/180
        rule = quad_triangle(4)
        val = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
        assert val == pytest.approx(1.0 / 180.0, abs=1e-15)

    def test_degree_4_not_exact_for_x5(self):
        # oracle: int x^5 = 1/42; a degree-4 rule must miss it
        rule = quad_triangle(4)
        val = np.sum(rule.weights * rule.points[:, 0] ** 5)
        assert abs(val - 1.0 / 42.0) > 1e-8

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_monomial_exactness_sweep(self, degree):
        rule = quad_triangle(degree)
        for a, b in [(d - i, i) for d in range(degree + 1) for i in range(d + 1)]:
            val = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            assert val == pytest.approx(ref_monomial_integral(a, b), abs=1e-13)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            quad_triangle(0)
        with pytest.raises(ValueError):
            quad_triangle(11)


class TestQuadEdge:
    def test_degree_1_constant(self):
        rule = quad_edge(1)
        assert rule.weights.sum() == pytest.approx(2.0, abs=1e-15)

    def test_degree_5_t4(self):
        rule = quad_edge(5)
        assert np.sum(rule.weights * rule.points**4) == pytest.approx(2.0 / 5.0, abs=1e-14)

    def test_degree_5_not_exact_for_t6(self):
        rule = quad_edge(5)
        val = np.sum(rule.weights * rule.points**6)
        assert abs(val - 2.0 / 7.0) > 1e-6

    @pytest.mark.parametrize("degree", range(1, 12))
    def test_monomial_exactness_sweep(self, degree):
        rule = quad_edge(degree)
        for p in range(degree + 1):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert np.sum(rule.weights * rule.points**p) == pytest.approx(exact, abs=1e-13)


class TestTriBasis:
    def test_dimension(self):
        assert dim_poly2d(0) == 1
        assert dim_poly2d(1) == 3
        assert dim_poly2d(2) == 6
        assert TriBasis(1).dim == 3

    def test_first_function_is_one(self):
        basis = TriBasis(1)
        pts = np.array([[0.3, 0.7], [0.1, 0.2]])
        vals = basis.eval(pts, np.array([0.5, 0.5]), 2.0)
        assert np.allclose(vals[:, 0], 1.0)

    @pytest.mark.parametrize("degree", [-1, 2, 3])
    def test_unsupported_degree_rejected(self, degree):
        with pytest.raises(ValueError, match="degree 0 or 1"):
            TriBasis(degree)

    @pytest.mark.parametrize("level", range(6))
    def test_mass_matrix_conditioning(self, level):
        # scaled monomials keep kappa under 100 for degree <= 1 at any size
        scale = 0.5**level
        coords = REF * scale
        rule = quad_triangle(4)
        pts, w = map_to_triangle(rule, coords)
        basis = TriBasis(1)
        vals = basis.eval(pts, coords.mean(axis=0), longest_edge(coords))
        M = vals.T @ (w[:, None] * vals)
        assert np.allclose(M, M.T)
        assert np.all(np.linalg.eigvalsh(M) > 0)
        assert np.linalg.cond(M) < 100


class TestProjection:
    def test_polynomial_reproduced(self):
        f = lambda x, y: 2.0 + 3.0 * x - 1.5 * y
        coeffs = project_element(f, 1, REF)
        # evaluating the projection at arbitrary points recovers f
        basis = TriBasis(1)
        pts = np.array([[0.2, 0.3], [0.1, 0.05], [0.4, 0.55]])
        vals = basis.eval(pts, REF.mean(axis=0), longest_edge(REF)) @ coeffs
        assert np.allclose(vals, f(pts[:, 0], pts[:, 1]), atol=1e-12)

    def test_mean_value_of_x_squared(self):
        # oracle: int x^2 over ref triangle = 1/12, area 1/2 -> mean 1/6
        coeffs = project_element(lambda x, y: x**2, 0, REF)
        assert coeffs[0] == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_orthogonality_residual(self):
        f = lambda x, y: np.sin(x)
        coeffs = project_element(f, 1, REF, quad_degree=8)
        rule = quad_triangle(8)
        pts, w = map_to_triangle(rule, REF)
        basis = TriBasis(1)
        vals = basis.eval(pts, REF.mean(axis=0), longest_edge(REF))
        resid = f(pts[:, 0], pts[:, 1]) - vals @ coeffs
        for m in range(3):
            assert abs(np.sum(w * resid * vals[:, m])) < 1e-12

    def test_idempotent(self):
        f = lambda x, y: np.cos(x) * y
        c1 = project_element(f, 1, REF, quad_degree=8)
        basis = TriBasis(1)
        center, h = REF.mean(axis=0), longest_edge(REF)
        c2 = project_element(
            lambda x, y: basis.eval(np.column_stack([x, y]), center, h) @ c1, 1, REF, quad_degree=8
        )
        assert np.max(np.abs(c2 - c1)) < 1e-13


class TestEdgeProjection:
    A = np.array([0.0, 0.0])
    B = np.array([2.0, 0.0])

    def test_constant_exact(self):
        coeffs = project_edge(lambda x, y: 4.0 + 0 * x, 1, self.A, self.B)
        assert coeffs == pytest.approx([4.0, 0.0], abs=1e-14)

    def test_mean_of_t_squared(self):
        # t = x - 1 on this edge; projecting t^2 onto P0 gives 1/3
        coeffs = project_edge(lambda x, y: (x - 1.0) ** 2, 0, self.A, self.B)
        assert coeffs[0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_orthogonality_residual(self):
        f = lambda x, y: np.cos(x)
        coeffs = project_edge(f, 1, self.A, self.B, quad_degree=15)
        rule = quad_edge(15)
        pts, w, t = map_to_edge(rule, self.A, self.B)
        vals = EdgeBasis(1).eval(t)
        resid = f(pts[:, 0], pts[:, 1]) - vals @ coeffs
        for m in range(2):
            assert abs(np.sum(w * resid * vals[:, m])) < 1e-12

    def test_idempotent(self):
        f = lambda x, y: np.exp(x)
        c1 = project_edge(f, 1, self.A, self.B, quad_degree=15)
        basis = EdgeBasis(1)
        c2 = project_edge(
            lambda x, y: basis.eval(x - 1.0) @ c1, 1, self.A, self.B, quad_degree=15
        )
        assert np.max(np.abs(c2 - c1)) < 1e-13


def test_tri_area_and_diameter():
    # element 0 of the coarse unit square is the reference triangle
    from pdwg.assembly import ElementTables
    from pdwg.mesh import build_coarse_mesh

    mesh = build_coarse_mesh("unit_square")
    assert np.array_equal(mesh.vertices[mesh.elements[0]], REF)
    geom = ElementTables(mesh, 1)
    assert geom.area[0] == pytest.approx(0.5)
    assert geom.diameter[0] == pytest.approx(np.sqrt(2.0))
    assert longest_edge(REF) == geom.diameter[0]
