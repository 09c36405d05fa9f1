"""Builders shared by the tests: refined meshes, one level's element
tables, DOF map and system built the way ``run_study`` builds them, the
full numbering of a system with its assembled sparse matrix, right-hand
side and solution vector, and single-element references for the batched
element tables."""

import numpy as np

import pdwg.assembly
from pdwg.assembly import ProblemSpec, assemble, build_contexts, classify_boundary
from pdwg.fields import constant
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.poly import EdgeBasis, TriBasis, quad_edge, quad_triangle
from pdwg.weakspace import DofMap


def refined(tag, level):
    """The coarse mesh of domain ``tag`` refined ``level`` times."""
    mesh = build_coarse_mesh(tag)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def tables_for(mesh, beta):
    """Element tables of ``mesh`` sampled for the convection ``beta`` with
    zero data, enough to classify its boundary."""
    zero = constant(0.0)
    spec = ProblemSpec(beta=beta, c=zero, f=zero, g=zero, tau=0.0, domain_tag=mesh.domain_tag)
    return build_contexts(mesh, spec)


def build_level(mesh, spec):
    """(tables, dofmap, system) of ``spec`` on ``mesh``: the tables first,
    then the classification, DOF map and assembled system read from them."""
    tables = build_contexts(mesh, spec)
    dofmap = DofMap(mesh, spec.j, classify_boundary(mesh, tables))
    return tables, dofmap, assemble(mesh, dofmap, tables)


def full_indices(dofmap):
    """(T, n_loc + 1) indices of every element's unknowns
    [lam_0; traces of edges 0, 1, 2; u_T] in the full system, -1 on
    outflow traces: lam_0 first, d0 per element in element order, then
    the unknowns of ``dofmap.element_indices``."""
    T, d0 = dofmap.mesh.num_elements, dofmap.dim_lam0
    idx = dofmap.element_indices
    lam0 = np.arange(T * d0).reshape(T, d0)
    return np.concatenate([lam0, np.where(idx >= 0, idx + T * d0, -1)], axis=1)


def full_rhs(system):
    """The right-hand side of ``system`` in the numbering of
    :func:`full_indices`."""
    return np.concatenate([system.rhs0.ravel(), system.rhs])


def full_vector(local, dofmap):
    """The vector in the numbering of :func:`full_indices` of element rows
    ``local`` laid out as ``Solution.local``."""
    idx = full_indices(dofmap)
    x, free = np.zeros(dofmap.n_total), idx >= 0
    x[idx[free]] = local[free]
    return x


def assembled_matrix(system):
    """The sparse CSR matrix of ``system`` in the numbering of
    :func:`full_indices`, summed from its element matrices by the scatter
    the solver uses, looked up when called so a test that patches
    ``pdwg.assembly.scatter`` sees the call."""
    idx = full_indices(system.dofmap)
    return pdwg.assembly.scatter(system.element_matrix, idx, system.dofmap.n_total).tocsr()


def same_bits(a, b):
    """True when two arrays hold the same dtype, shape and bytes, so
    signed zeros and NaN payloads count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def lapack_schur(E, d0):
    """The reference condensation of element matrices ``E`` (T, n, n) over
    [lam_0 (d0); y]: Z = E_00^{-1} [C, I] by numpy's batched LAPACK solve,
    one call per element, and K = E_yy - C^T Z[..., :n - d0]."""
    T, n = E.shape[:2]
    C = E[:, :d0, d0:]
    identity = np.broadcast_to(np.eye(d0), (T, d0, d0))
    Z = np.linalg.solve(E[:, :d0, :d0], np.concatenate([C, identity], axis=2))
    return Z, E[:, d0:, d0:] - np.swapaxes(C, 1, 2) @ Z[..., : n - d0]


def map_to_edge(rule, a, b):
    """Push a [-1, 1] rule to the segment from a to b: physical points
    (n, 2), weights scaled by |b - a| / 2, and the parameter values t."""
    t = rule.points
    pts = a + np.outer(0.5 * (t + 1.0), b - a)
    return pts, rule.weights * (0.5 * float(np.hypot(*(b - a)))), t


def project_element(f, degree, coords, quad_degree):
    """L2 projection of f onto P_degree of one triangle, one element at a
    time, on the triangle rule exact to ``quad_degree``; coefficients in
    the TriBasis ordering."""
    rule = quad_triangle(quad_degree)
    v0, v1, v2 = coords
    pts = v0 + np.outer(rule.points[:, 0], v1 - v0) + np.outer(rule.points[:, 1], v2 - v0)
    area = 0.5 * abs((v1[0] - v0[0]) * (v2[1] - v0[1]) - (v2[0] - v0[0]) * (v1[1] - v0[1]))
    w = rule.weights * (2.0 * area)
    h = max(np.hypot(*(coords[(i + 1) % 3] - coords[i])) for i in range(3))
    V = TriBasis(degree).eval(pts, coords.mean(axis=0), h)
    return np.linalg.solve(V.T @ (w[:, None] * V), V.T @ (w * f(pts[:, 0], pts[:, 1])))


def project_edge(f, degree, a, b):
    """L2 projection of f onto P_degree of the segment a -> b on the
    five-point Gauss rule, in the EdgeBasis parameter of that segment."""
    pts, w, t = map_to_edge(quad_edge(9), a, b)
    V = EdgeBasis(degree).eval(t)
    return np.linalg.solve(V.T @ (w[:, None] * V), V.T @ (w * f(pts[:, 0], pts[:, 1])))
