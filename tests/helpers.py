"""Builders shared by the tests: refined meshes, one level's element
tables, DOF map and system (``build_level``, the test-side build that
keeps the tables of the whole level, which ``run_level`` builds block by
block and drops before the solve), the full
numbering of a system with its assembled sparse matrix, right-hand
side and solution vector, single-element references for the batched
element tables, and the error norms and conservation checks evaluated
directly from the tables, the reference for the operators of
``pdwg.analysis``."""

import math

import numpy as np

import pdwg.assembly
from pdwg.analysis import ConservationReport, ErrorReport, nodal_interpolant
from pdwg.assembly import ElementTables, ProblemSpec, assemble, build_contexts, build_forms, classify_boundary
from pdwg.fields import constant, constant_vector
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.poly import EdgeBasis, TriBasis, quad_edge, quad_triangle
from pdwg.weakspace import DofMap


def refined(tag, level):
    """The coarse mesh of domain ``tag`` refined ``level`` times."""
    mesh = build_coarse_mesh(tag)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def tables_for(mesh, beta=constant_vector(1.0, -1.0), j=1):
    """Element tables of degree ``j`` of ``mesh`` for the convection
    ``beta`` with zero data: the geometry, quadrature and bases that the
    projection and the weak gradient read, with no straddling warning."""
    zero = constant(0.0)
    spec = ProblemSpec(beta=beta, c=zero, f=zero, g=zero, tau=0.0, domain_tag=mesh.domain_tag, j=j)
    return ElementTables(mesh, spec)


def forms_for(mesh, beta):
    """Element forms of ``mesh`` for the convection ``beta`` with zero
    data, enough to classify its boundary."""
    return build_forms(tables_for(mesh, beta))


def build_level(mesh, spec):
    """(tables, dofmap, system) of ``spec`` on ``mesh``: the tables of the
    whole level first, then the classification, DOF map and assembled
    system read from their element forms."""
    tables = build_contexts(mesh, spec)
    forms = build_forms(tables)
    dofmap = DofMap(mesh, spec.j, classify_boundary(mesh, forms))
    return tables, dofmap, assemble(mesh, dofmap, forms)


def full_of_condensed(dofmap):
    """The index in the full system of each unknown of
    ``dofmap.element_indices``: the traces in their order there from
    T d0 on, then u_T in element order from ``dofmap.n_lambda`` on."""
    T, n = dofmap.mesh.num_elements, dofmap.n_condensed
    u = dofmap.element_indices[:, -1]
    full, trace = np.empty(n, dtype=np.int64), np.ones(n, dtype=bool)
    trace[u] = False
    full[trace] = T * dofmap.dim_lam0 + np.arange(n - T)
    full[u] = dofmap.n_lambda + np.arange(T)
    return full


def full_indices(dofmap):
    """(T, n_loc + 1) indices of every element's unknowns
    [lam_0; traces of edges 0, 1, 2; u_T] in the full system, -1 on
    outflow traces: lam_0 first, d0 per element in element order, then
    the traces and last u_T, one per element in element order, so the
    first ``dofmap.n_lambda`` unknowns are the multiplier's."""
    T, d0 = dofmap.mesh.num_elements, dofmap.dim_lam0
    idx = dofmap.element_indices
    lam0 = np.arange(T * d0).reshape(T, d0)
    return np.concatenate([lam0, np.where(idx >= 0, full_of_condensed(dofmap)[idx], -1)], axis=1)


def full_rows(r0, r, dofmap):
    """The vector in the numbering of :func:`full_indices` of lam_0 rows
    ``r0`` and the rest ``r`` numbered by ``dofmap.element_indices``, as
    ``SaddleSystem`` holds its right-hand side and ``matvec`` returns."""
    x = np.empty(dofmap.n_total)
    x[: r0.size] = r0.ravel()
    x[full_of_condensed(dofmap)] = r
    return x


def full_rhs(system):
    """The right-hand side of ``system`` in the numbering of
    :func:`full_indices`."""
    return full_rows(system.rhs0, system.rhs, system.dofmap)


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


def direct_trace_values(local, tables):
    """lam_b at the edge quadrature points of each element's edges,
    (T, 3, ne), for element rows ``local`` laid out as ``Solution.local``."""
    traces = local[:, tables.dim_lam0 : -1].reshape(len(local), 3, -1)
    return np.einsum("tiqm,tim->tiq", tables.edge_trace, traces)


def direct_error_norms(local, tables):
    """``error_norms`` evaluated directly from the sampled ``tables`` at
    the quadrature points, for element rows ``local``."""
    mesh = tables.mesh
    diff = local[:, -1] - nodal_interpolant(tables.spec.exact_u, tables)
    lam0 = np.einsum("tqm,tm->tq", tables.lam0, local[:, : tables.dim_lam0])
    owner, edge = mesh.edge_elems[:, 0], mesh.edge_local[:, 0]
    lamb = direct_trace_values(local, tables)[owner, edge]
    lamb_sq = np.sum(tables.ew[owner, edge] * lamb * lamb, axis=1)
    return ErrorReport(
        err_u=math.sqrt(float(tables.area @ (diff * diff))),
        err_lam0=math.sqrt(float(np.sum(tables.qw * lam0 * lam0))),
        err_lamb=math.sqrt(float(tables.diameter[owner] @ lamb_sq)),
    )


def direct_conservation(local, tables):
    """``conservation_report`` evaluated directly from the sampled
    ``tables``: u_tilde, the flux F_h and its jumps formed at the
    quadrature points, for element rows ``local``."""
    mesh = tables.mesh
    u = local[:, -1]
    lam0 = local[:, : tables.dim_lam0]
    qw, ew = tables.qw, tables.ew
    utilde = u[:, None] + tables.spec.tau * np.einsum("tqm,tm->tq", tables.adjoint(), lam0)
    residuals = np.sum(qw * tables.c_q * utilde, axis=1) - np.sum(qw * tables.f_q, axis=1)
    lam0_on_e = np.einsum("tiqm,tm->tiq", tables.edge_lam0, lam0)
    stab = (lam0_on_e - direct_trace_values(local, tables)) / tables.diameter[:, None, None]
    residuals += np.sum(ew * (tables.beta_n * u[:, None, None] - stab), axis=(1, 2))
    flux = u[:, None] * tables.beta_int / qw.sum(axis=1)[:, None]
    flux_n = np.einsum("tc,tic->ti", flux, tables.normals)
    moments = np.einsum("tiq,tiqm->tim", ew * (flux_n[..., None] - stab), tables.edge_trace)
    interior = np.flatnonzero(mesh.edge_elems[:, 1] >= 0)
    (left, right), (left_i, right_i) = mesh.edge_elems[interior].T, mesh.edge_local[interior].T
    jumps = np.abs(moments[left, left_i] + moments[right, right_i]).max(axis=1)
    return ConservationReport(
        element_residuals=residuals,
        flux_jumps=jumps,
        interior_edges=interior,
        scale_f=max(1.0, float(np.abs(tables.f_q).max())),
    )
