import dataclasses

import numpy as np
import pytest

from helpers import refined, same_bits
from pdwg.assembly import ElementTables
from pdwg.mesh import build_coarse_mesh
from pdwg.poly import EdgeBasis, TriBasis, dim_poly2d, quad_edge, quad_triangle
from pdwg.weakspace import project_to_weak

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def longest_edge(coords):
    """Diameter of a triangle, its longest edge, as ``ElementTables.diameter``
    holds it."""
    return max(np.hypot(*(coords[(i + 1) % 3] - coords[i])) for i in range(3))


def reference_tables(degree, scale=1.0):
    """Element tables of degree ``degree`` on the coarse unit square scaled
    by ``scale``; element 0 is the reference triangle scaled, and its local
    edge 0 is mesh edge 0, from (0, 0) to (scale, 0)."""
    mesh = build_coarse_mesh("unit_square")
    mesh = dataclasses.replace(mesh, vertices=scale * mesh.vertices)
    assert np.array_equal(mesh.vertices[mesh.elements[0]], scale * REF)
    assert mesh.element_edges[0, 0] == 0 and list(mesh.edges[0]) == [0, 1]
    return ElementTables(mesh, degree)


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
        # scaled monomials keep kappa under 100 for degree <= 1 at any size;
        # the mass matrices are those project_to_weak solves with
        tables = ElementTables(refined("unit_square", level), 1)
        M = np.swapaxes(tables.lam0, 1, 2) @ (tables.qw[..., None] * tables.lam0)
        assert np.allclose(M, np.swapaxes(M, 1, 2))
        assert np.all(np.linalg.eigvalsh(M) > 0)
        assert np.all(np.linalg.cond(M) < 100)


class TestProjection:
    """The interior projection of ``project_to_weak`` on the reference
    triangle, element 0 of the coarse unit square."""

    def test_polynomial_reproduced(self):
        f = lambda x, y: 2.0 + 3.0 * x - 1.5 * y
        coeffs = project_to_weak(f, reference_tables(1))[0, :3]
        # evaluating the projection at arbitrary points recovers f
        basis = TriBasis(1)
        pts = np.array([[0.2, 0.3], [0.1, 0.05], [0.4, 0.55]])
        vals = basis.eval(pts, REF.mean(axis=0), longest_edge(REF)) @ coeffs
        assert np.allclose(vals, f(pts[:, 0], pts[:, 1]), atol=1e-12)

    def test_mean_value_of_x_squared(self):
        # oracle: int x^2 over ref triangle = 1/12, area 1/2 -> mean 1/6
        coeffs = project_to_weak(lambda x, y: x**2, reference_tables(0))[0, :1]
        assert coeffs[0] == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_orthogonality_residual(self):
        # orthogonal under the interior rule of the tables, which it uses
        f = lambda x, y: np.sin(x)
        tables = reference_tables(1)
        coeffs = project_to_weak(f, tables)[0, :3]
        pts, w = tables.qpts[0], tables.qw[0]
        basis = TriBasis(1)
        vals = basis.eval(pts, REF.mean(axis=0), longest_edge(REF))
        resid = f(pts[:, 0], pts[:, 1]) - vals @ coeffs
        for m in range(3):
            assert abs(np.sum(w * resid * vals[:, m])) < 1e-12

    def test_idempotent(self):
        f = lambda x, y: np.cos(x) * y
        tables = reference_tables(1)
        c1 = project_to_weak(f, tables)[0, :3]
        basis = TriBasis(1)
        center, h = REF.mean(axis=0), longest_edge(REF)
        c2 = project_to_weak(lambda x, y: basis.eval(np.stack([x, y], axis=-1), center, h) @ c1, tables)[0, :3]
        assert np.max(np.abs(c2 - c1)) < 1e-13


class TestEdgeBasis:
    def test_equals_the_power_form(self):
        # [1, t] is t ** [0, 1] bit for bit, signed zeros and non-finite t too.
        t = np.concatenate([np.linspace(-1.0, 1.0, 102), [-0.0, 0.0, 5e-324, -1e300, np.inf, np.nan]])
        t = t.reshape(3, -1)[:, ::2]
        for degree in (0, 1):
            assert same_bits(EdgeBasis(degree).eval(t), t[..., None] ** np.arange(degree + 1))

    @pytest.mark.parametrize("degree", [-1, 2])
    def test_unsupported_degree_rejected(self, degree):
        with pytest.raises(ValueError, match="degree 0 or 1"):
            EdgeBasis(degree)


class TestEdgeProjection:
    """The trace projection of ``project_to_weak`` on the edge from
    A = (0, 0) to B = (2, 0), where t = x - 1: edge 0 of the coarse unit
    square scaled by 2, in slots d0.. of element row 0."""

    @staticmethod
    def project(f, tables):
        d0 = tables.dim_lam0
        return project_to_weak(f, tables)[0, d0 : d0 + tables.j + 1]

    def test_constant_exact(self):
        coeffs = self.project(lambda x, y: 4.0 + 0 * x, reference_tables(1, scale=2.0))
        assert coeffs == pytest.approx([4.0, 0.0], abs=1e-14)

    def test_mean_of_t_squared(self):
        # t = x - 1 on this edge; projecting t^2 onto P0 gives 1/3
        coeffs = self.project(lambda x, y: (x - 1.0) ** 2, reference_tables(0, scale=2.0))
        assert coeffs[0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_orthogonality_residual(self):
        # orthogonal under the edge rule of the tables, which it uses
        f = lambda x, y: np.cos(x)
        tables = reference_tables(1, scale=2.0)
        coeffs = self.project(f, tables)
        pts, w, vals = tables.epts[0, 0], tables.ew[0, 0], tables.edge_trace[0, 0]
        resid = f(pts[:, 0], pts[:, 1]) - vals @ coeffs
        for m in range(2):
            assert abs(np.sum(w * resid * vals[:, m])) < 1e-12

    def test_idempotent(self):
        f = lambda x, y: np.exp(x)
        tables = reference_tables(1, scale=2.0)
        c1 = self.project(f, tables)
        basis = EdgeBasis(1)
        c2 = self.project(lambda x, y: basis.eval(x - 1.0) @ c1, tables)
        assert np.max(np.abs(c2 - c1)) < 1e-13


def test_tri_area_and_diameter():
    # element 0 of the coarse unit square is the reference triangle
    mesh = build_coarse_mesh("unit_square")
    assert np.array_equal(mesh.vertices[mesh.elements[0]], REF)
    geom = ElementTables(mesh, 1)
    assert geom.area[0] == pytest.approx(0.5)
    assert geom.diameter[0] == pytest.approx(np.sqrt(2.0))
    assert longest_edge(REF) == geom.diameter[0]
