"""Error norms, discrete diagnostics, conservation verification and
post-processing.

Error measurement follows the benchmark convention: the primal solution is
compared with the exact solution sampled at element centers (nodal point
interpolation), and the multiplier, whose exact value is zero, is measured
in an elementwise L2 norm plus an edge-weighted trace norm.  Conservation
is verified against the postprocessed solution

    u_tilde = u_h + tau (beta.grad(lam_0) - c lam_0)

and flux  F_h = beta u_h - 1/h_T (lam_0 - lam_b) n,  which satisfy

    int_{dT} F_h . n + int_T c u_tilde = int_T f

elementwise and have continuous normal flux across interior edges.  All
conservation integrals reuse the assembly quadrature rules, so the checks
hold to solver accuracy rather than quadrature accuracy.  Every check
reads the level's sampled element tables, and with them the problem
(tau, the coefficients and the exact solution) they were sampled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import ElementTables
from .mesh import Mesh
from .solver import Solution


@dataclass
class ErrorReport:
    """Discrete error norms of one solve."""

    err_u: float
    err_lam0: float
    err_lamb: float


@dataclass
class ConservationReport:
    """Elementwise balance residuals and interior-edge flux jumps."""

    element_residuals: np.ndarray
    flux_jumps: np.ndarray
    interior_edges: np.ndarray
    scale_f: float

    @property
    def max_element_residual(self) -> float:
        return float(np.abs(self.element_residuals).max())

    @property
    def max_flux_jump(self) -> float:
        return float(np.abs(self.flux_jumps).max()) if len(self.flux_jumps) else 0.0


def nodal_interpolant(exact_u, tables: ElementTables) -> np.ndarray:
    """Exact solution sampled at the element centroids of ``tables``, one
    value per element."""
    cx, cy = tables.centroid.T
    return np.asarray(exact_u(cx, cy), dtype=float).reshape(-1)


def error_norms(solution: Solution, tables: ElementTables) -> ErrorReport:
    """Norms ||u_h - I_h u||, ||lam_0||, and the h_T-weighted trace norm
    ||lam_b||, against the exact solution of the problem ``tables`` were
    sampled from, on their mesh.  Each edge is counted once, from its first
    incident element, which supplies its trace, quadrature weights and h_T."""
    exact_u = tables.spec.exact_u
    if exact_u is None:
        raise ValueError("error norms require an exact solution")
    mesh = tables.mesh
    diff = solution.local[:, -1] - nodal_interpolant(exact_u, tables)
    lam0 = np.einsum("tqm,tm->tq", tables.lam0, solution.local[:, : tables.dim_lam0])
    owner, local = mesh.edge_elems[:, 0], mesh.edge_local[:, 0]
    lamb = _trace_values(solution, tables)[owner, local]
    lamb_sq = np.sum(tables.ew[owner, local] * lamb * lamb, axis=1)
    return ErrorReport(
        err_u=math.sqrt(float(tables.area @ (diff * diff))),
        err_lam0=math.sqrt(float(np.sum(tables.qw * lam0 * lam0))),
        err_lamb=math.sqrt(float(tables.diameter[owner] @ lamb_sq)),
    )


def _trace_values(solution: Solution, tables: ElementTables) -> np.ndarray:
    """lam_b at the edge quadrature points of each element's edges,
    (T, 3, ne).  The sum over the db trace coefficients is spelled out:
    it adds the same products in the same order as the einsum
    "tiqm,tim->tiq", which starts from zero, so the final + 0.0 (turning
    a -0.0 sum into +0.0) makes it bitwise that einsum, at less cost."""
    basis = tables.edge_trace
    traces = solution.local[:, tables.dim_lam0 : -1].reshape(len(solution.local), 3, -1)
    values = basis[..., 0] * traces[:, :, None, 0]
    for m in range(1, traces.shape[-1]):
        values += basis[..., m] * traces[:, :, None, m]
    values += 0.0
    return values


def triple_norm_Wh(lam: np.ndarray, tables: ElementTables) -> float:
    """Multiplier seminorm of a weak function given as element rows
    [lam_0; traces of edges 0, 1, 2], shape (T, n_loc), on the mesh of
    the sampled ``tables``, with their problem's beta, c and tau:

        ( sum_T 1/h_T ||lam_0 - lam_b||_{dT}^2
              + tau ||beta.grad(lam_0) - c lam_0||_T^2 )^(1/2),

    which squares to the stabilizer quadratic form s(lam, lam)."""
    return math.sqrt(float(tables.stabilizer_energy(lam).sum()))


def conservation_report(solution: Solution, tables: ElementTables) -> ConservationReport:
    """Elementwise balance residuals of the conservation identity and the
    interior-edge normal-flux jumps tested against the edge trace basis,
    for the problem ``tables`` were sampled from, on their mesh.

    The jump test uses the flux the scheme itself transports: beta u_h is
    projected elementwise onto degree k-1 vectors (for elementwise
    constant convection this is the flux exactly).  Residuals reuse the
    assembly quadrature, so a converged solve drives them to solver
    tolerance.
    """
    mesh = tables.mesh
    u = solution.local[:, -1]
    lam0 = solution.local[:, : tables.dim_lam0]
    qw, ew = tables.qw, tables.ew

    # u_tilde = u_h + tau (beta.grad(lam_0) - c lam_0)
    utilde = u[:, None]
    tau = tables.spec.tau
    if tau > 0:
        utilde = utilde + tau * np.einsum("tqm,tm->tq", tables.adjoint(), lam0)
    residuals = np.sum(qw * tables.c_q * utilde, axis=1) - np.sum(qw * tables.f_q, axis=1)

    lam0_on_e = np.einsum("tiqm,tm->tiq", tables.edge_lam0, lam0)
    stab = (lam0_on_e - _trace_values(solution, tables)) / tables.diameter[:, None, None]
    residuals += np.sum(ew * (tables.beta_n * u[:, None, None] - stab), axis=(1, 2))

    # This side's contribution to <[F_h . n], trace basis>_e, with beta u_h
    # replaced by its L2 projection onto the constants.
    flux = u[:, None] * tables.beta_int / qw.sum(axis=1)[:, None]
    flux_n = np.einsum("tc,tic->ti", flux, tables.normals)
    moments = np.einsum("tiq,tiqm->tim", ew * (flux_n[..., None] - stab), tables.edge_trace)
    jump_moments = _sum_per_edge(mesh, moments)

    interior = np.flatnonzero(mesh.edge_elems[:, 1] >= 0)
    # The larger of the (one or two) trace moments, without a reduction
    # over that short axis.
    jumps = np.abs(jump_moments[interior])
    return ConservationReport(
        element_residuals=residuals,
        flux_jumps=np.maximum(jumps[:, 0], jumps[:, -1]),
        interior_edges=interior,
        scale_f=max(1.0, float(np.abs(tables.f_q).max())),
    )


def _sum_per_edge(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Sum element-edge rows ``values`` (T, 3, m) onto the mesh edges,
    (num_edges, m): one ``np.bincount`` per column, which adds in element
    order from 0 exactly as ``np.add.at`` does."""
    edges = mesh.element_edges.ravel()
    columns = values.reshape(len(edges), -1).T
    return np.stack([np.bincount(edges, col, mesh.num_edges) for col in columns], axis=-1)


@dataclass
class PostField:
    """Post-processed point values: vertex and edge-midpoint averages."""

    x: np.ndarray
    y: np.ndarray
    value: np.ndarray


def postprocess_averages(vals: np.ndarray, mesh: Mesh) -> PostField:
    """Averages of the piecewise constant u_h, given by its value on each
    element, (T,).  Vertex values are the unweighted mean of u_h over the
    elements sharing the vertex; edge-midpoint values average the one or
    two incident elements.  Duplicated crack vertices average per side."""
    nV = mesh.num_vertices
    vsum = np.bincount(mesh.elements.ravel(), weights=np.repeat(vals, 3), minlength=nV)
    vcnt = np.bincount(mesh.elements.ravel(), minlength=nV)
    vertex_vals = vsum / np.maximum(vcnt, 1)

    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    sides = mesh.edge_elems.ravel()
    edge_of = np.repeat(np.arange(mesh.num_edges), 2)[sides >= 0]
    esum = np.bincount(edge_of, weights=vals[sides[sides >= 0]], minlength=mesh.num_edges)
    ecnt = np.bincount(edge_of, minlength=mesh.num_edges)
    edge_vals = esum / np.maximum(ecnt, 1)

    x = np.concatenate([mesh.vertices[:, 0], mids[:, 0]])
    y = np.concatenate([mesh.vertices[:, 1], mids[:, 1]])
    value = np.concatenate([vertex_vals, edge_vals])
    return PostField(x=x, y=y, value=value)
