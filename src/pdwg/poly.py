"""Polynomial bases on triangles and edges, quadrature, and L2 projections.

Triangle bases are monomials in centroid-scaled coordinates

    X = (x - x_c) / h_T,   Y = (y - y_c) / h_T,

which keeps local mass matrices well conditioned under refinement.
Edge bases are monomials in the affine arc-length parameter t in [-1, 1],
oriented from the edge endpoint with the lower vertex index to the higher
one, so that both elements sharing an edge evaluate traces identically.

Triangle quadrature uses a tensor Gauss-Legendre rule collapsed onto the
reference triangle (0,0), (1,0), (0,1); the point count is chosen from the
requested exactness degree, so the rule is provably exact for polynomials
up to that degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUAD_DEGREE = 10


def dim_poly2d(degree: int) -> int:
    """Dimension of P_degree on a triangle."""
    return (degree + 1) * (degree + 2) // 2


@dataclass(frozen=True)
class QuadRule:
    """Quadrature points and weights of a reference-cell rule."""

    points: np.ndarray
    weights: np.ndarray


def _frozen(rule: QuadRule) -> QuadRule:
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def quad_triangle(exactness_degree: int) -> QuadRule:
    """Rule on the reference triangle (0,0), (1,0), (0,1), exact for
    polynomials of total degree up to ``exactness_degree``.

    Built by collapsing a tensor Gauss-Legendre grid: with x = u and
    y = v (1 - u) the integral gains a factor (1 - u), so the u-direction
    needs one extra degree of exactness.  Rules are cached and their
    arrays frozen.
    """
    if not 1 <= exactness_degree <= MAX_QUAD_DEGREE:
        raise ValueError(
            f"unsupported triangle quadrature degree {exactness_degree}; "
            f"expected 1..{MAX_QUAD_DEGREE}"
        )
    nu = (exactness_degree + 3) // 2  # 2*nu - 1 >= degree + 1
    nv = (exactness_degree + 2) // 2  # 2*nv - 1 >= degree
    xu, wu = np.polynomial.legendre.leggauss(nu)
    xv, wv = np.polynomial.legendre.leggauss(nv)
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    w = (np.outer(wu * (1.0 - u), wv)).ravel()
    return _frozen(QuadRule(np.column_stack([x, y]), w))


@lru_cache(maxsize=None)
def quad_edge(exactness_degree: int) -> QuadRule:
    """Gauss-Legendre rule on [-1, 1], exact up to ``exactness_degree``.
    Rules are cached and their arrays frozen."""
    if exactness_degree < 1:
        raise ValueError(f"unsupported edge quadrature degree {exactness_degree}")
    n = (exactness_degree + 2) // 2  # 2n - 1 >= degree
    t, w = np.polynomial.legendre.leggauss(n)
    return _frozen(QuadRule(t, w))


class TriBasis:
    """Monomial basis of P_degree on a triangle, scaled about the centroid:
    {1} for degree 0 and {1, X, Y} for degree 1, the only degrees the
    method uses (j and k-1 for k=1)."""

    def __init__(self, degree: int):
        if degree not in (0, 1):
            raise ValueError(f"TriBasis supports degree 0 or 1, got {degree}")
        self.degree = degree
        self.dim = dim_poly2d(degree)

    def eval(self, pts: np.ndarray, centroid: np.ndarray, h) -> np.ndarray:
        """Basis values at physical points ``pts`` (..., npts, 2) of
        triangles with centroids (..., 2) and diameters (...); returns
        (..., npts, dim)."""
        pts = np.asarray(pts)
        vals = np.ones(pts.shape[:-1] + (self.dim,))
        if self.degree == 1:
            centroid = np.asarray(centroid)
            h = np.asarray(h, dtype=float)[..., None]
            vals[..., 1] = (pts[..., 0] - centroid[..., None, 0]) / h
            vals[..., 2] = (pts[..., 1] - centroid[..., None, 1]) / h
        return vals


class EdgeBasis:
    """Monomial basis of P_degree on an edge, in the parameter t in [-1, 1]:
    {1} for degree 0 and {1, t} for degree 1, the only degrees used."""

    def __init__(self, degree: int):
        if degree not in (0, 1):
            raise ValueError(f"EdgeBasis supports degree 0 or 1, got {degree}")
        self.dim = degree + 1

    def eval(self, t: np.ndarray) -> np.ndarray:
        """Basis values at parameter points t (...); returns (..., dim)."""
        t = np.asarray(t, dtype=float)
        vals = np.ones(t.shape + (self.dim,))
        if self.dim == 2:
            vals[..., 1] = t
        return vals


def map_to_triangle(rule: QuadRule, coords: np.ndarray):
    """Push a reference-triangle rule to a physical triangle.

    Returns physical points (n, 2) and weights scaled by 2*area (the
    reference triangle has measure 1/2).
    """
    v0, v1, v2 = coords
    pts = v0 + np.outer(rule.points[:, 0], v1 - v0) + np.outer(rule.points[:, 1], v2 - v0)
    area = 0.5 * abs(
        (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1])
    )
    return pts, rule.weights * (2.0 * area)


def map_to_edge(rule: QuadRule, a: np.ndarray, b: np.ndarray):
    """Push a [-1, 1] rule to the segment from a to b.

    Returns physical points (n, 2), weights scaled by |b - a| / 2, and the
    parameter values t (useful for evaluating edge bases).
    """
    t = rule.points
    pts = a + np.outer(0.5 * (t + 1.0), b - a)
    length = float(np.hypot(*(b - a)))
    return pts, rule.weights * (0.5 * length), t


def project_element(f, degree: int, coords: np.ndarray, quad_degree: int | None = None) -> np.ndarray:
    """L2 projection of f onto P_degree of the triangle with the given
    vertex coordinates; returns coefficients in the TriBasis ordering.

    ``quad_degree`` defaults to 2*degree + 2 and should be raised for
    non-polynomial f.
    """
    coords = np.asarray(coords, dtype=float)
    rule = quad_triangle(quad_degree if quad_degree is not None else 2 * degree + 2)
    pts, w = map_to_triangle(rule, coords)
    h = max(np.hypot(*(coords[(i + 1) % 3] - coords[i])) for i in range(3))
    V = TriBasis(degree).eval(pts, coords.mean(axis=0), h)
    M = V.T @ (w[:, None] * V)
    fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    b = V.T @ (w * fv)
    return np.linalg.solve(M, b)


def project_edge(f, degree: int, a: np.ndarray, b: np.ndarray, quad_degree: int | None = None) -> np.ndarray:
    """L2 projection of f onto P_degree of the segment a -> b; coefficients
    are in the EdgeBasis parameterization of that segment."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rule = quad_edge(quad_degree if quad_degree is not None else max(2 * degree + 2, 9))
    pts, w, t = map_to_edge(rule, a, b)
    basis = EdgeBasis(degree)
    V = basis.eval(t)
    M = V.T @ (w[:, None] * V)
    fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
    rhs = V.T @ (w * fv)
    return np.linalg.solve(M, rhs)
