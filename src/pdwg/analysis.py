"""Error norms, discrete diagnostics, conservation verification, and
convergence orders.

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
hold to solver accuracy rather than quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import ElementTables, ProblemSpec, build_contexts
from .fields import evaluate_branches
from .mesh import BoundaryClassification, Mesh, owner_local_edges
from .solver import Solution
from .weakspace import PrimalFunction, WeakFunction


@dataclass
class ErrorReport:
    """Discrete error norms of one solve (None when not computed)."""

    err_u: float
    err_lam0: float
    err_lamb: float
    norm_mh: float | None = None
    norm_wh: float | None = None


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


def nodal_interpolant(exact_u, mesh: Mesh, k: int = 1) -> PrimalFunction:
    """Exact solution sampled at element centers as a piecewise constant."""
    if k != 1:
        raise ValueError("nodal interpolation is defined for k=1")
    coords = mesh.vertices[mesh.elements]
    centers = coords.mean(axis=1)
    vals = np.asarray(exact_u(centers[:, 0], centers[:, 1]), dtype=float)
    return PrimalFunction(coeffs=vals.reshape(-1, 1))


def error_norms(
    solution: Solution,
    spec: ProblemSpec,
    mesh: Mesh,
    tables: ElementTables | None = None,
) -> ErrorReport:
    """Norms ||u_h - I_h u||, ||lam_0||, and the h_T-weighted trace norm
    ||lam_b||.  Each edge is counted once, weighted by the diameter of its
    owner element (the lower incident element index)."""
    if spec.exact_u is None:
        raise ValueError("error norms require an exact solution")
    tables = tables if tables is not None else build_contexts(mesh, spec)
    interp = nodal_interpolant(spec.exact_u, mesh, spec.k)
    diff = solution.u.coeffs[:, 0] - interp.coeffs[:, 0]
    lam0 = np.einsum("tqm,tm->tq", tables.lam0, solution.lam.lam0)
    lamb = np.einsum("eqm,em->eq", _edge_rows(tables, tables.edge_trace), solution.lam.lamb)
    lamb_sq = np.sum(_edge_rows(tables, tables.ew) * lamb * lamb, axis=1)
    return ErrorReport(
        err_u=math.sqrt(float(tables.area @ (diff * diff))),
        err_lam0=math.sqrt(float(np.sum(tables.qw * lam0 * lam0))),
        err_lamb=math.sqrt(float(_edge_owner_diameters(tables) @ lamb_sq)),
    )


def _edge_rows(tables: ElementTables, values: np.ndarray) -> np.ndarray:
    """Per mesh edge, the rows of an element-edge table (T, 3, ...) seen
    from the edge's first incident element."""
    owner, local = owner_local_edges(tables.mesh, np.arange(tables.mesh.num_edges))
    return values[owner, local]


def _edge_owner_diameters(tables: ElementTables) -> np.ndarray:
    """Diameter of each edge's owner: its lower incident element index."""
    sides = tables.mesh.edge_elems
    owner = np.where(sides[:, 1] < 0, sides[:, 0], sides.min(axis=1))
    return tables.diameter[owner]


def _to_edges(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Sum per-element-edge values (T, 3, ne) at the edge quadrature points
    into per-edge values (E, ne) in each edge's own orientation.  The
    Gauss points are symmetric, so an element traversing an edge backwards
    sees them in reverse order."""
    aligned = np.where(mesh.element_edge_signs[..., None] > 0, values, values[..., ::-1])
    out = np.zeros((mesh.num_edges, values.shape[-1]))
    np.add.at(out, mesh.element_edges, aligned)
    return out


def triple_norm_Wh(lam: WeakFunction, spec: ProblemSpec, mesh: Mesh) -> float:
    """Multiplier seminorm

        ( sum_T 1/h_T ||lam_0 - lam_b||_{dT}^2
              + tau ||beta.grad(lam_0) - c lam_0||_T^2 )^(1/2),

    which squares to the stabilizer quadratic form s(lam, lam)."""
    tables = build_contexts(mesh, spec)
    return math.sqrt(float(tables.stabilizer_energy(tables.local_coefficients(lam), spec.tau).sum()))


def triple_norm_Mh(
    v: PrimalFunction,
    spec: ProblemSpec,
    mesh: Mesh,
    classification: BoundaryClassification,
) -> float:
    """Primal-space norm

        ( sum_T h_T^2 ||div(beta v) + c v||_T^2
          + sum_{e not in outflow} h_T ||[beta v . n]||_e^2 )^(1/2)

    with the jump equal to the one-sided value on inflow boundary edges.
    Requires the analytic divergence of beta (carried by the field);
    v is elementwise constant (k=1)."""
    if not all(hasattr(branch, "div") for branch in spec.beta.branches):
        raise ValueError("beta must provide an analytic divergence")
    tables = build_contexts(mesh, spec)
    vt = v.coeffs[:, 0]
    x, y = tables.qpts[..., 0], tables.qpts[..., 1]
    div = evaluate_branches(spec.beta.branches, tables.beta_branch[:, None], x, y, "div")
    resid = (div + tables.c_q) * vt[:, None]
    total = float(tables.diameter**2 @ np.sum(tables.qw * resid * resid, axis=1))

    bn = np.einsum("tiqc,tic->tiq", tables.beta_e, tables.normals)
    jump = _to_edges(mesh, bn * vt[:, None, None])
    weights = _edge_rows(tables, tables.ew)
    keep = (mesh.edge_elems[:, 1] >= 0) | classification.is_inflow
    per_edge = _edge_owner_diameters(tables) * np.sum(weights * jump * jump, axis=1)
    return math.sqrt(total + float(per_edge[keep].sum()))


def conservation_report(
    solution: Solution,
    spec: ProblemSpec,
    mesh: Mesh,
    tables: ElementTables | None = None,
) -> ConservationReport:
    """Elementwise balance residuals of the conservation identity and the
    interior-edge normal-flux jumps tested against the edge trace basis.

    The jump test uses the flux the scheme itself transports: beta u_h is
    projected elementwise onto degree k-1 vectors (for elementwise
    constant convection this is the flux exactly).  Residuals reuse the
    assembly quadrature, so a converged solve drives them to solver
    tolerance.
    """
    tables = tables if tables is not None else build_contexts(mesh, spec)
    u = solution.u.coeffs[:, 0]
    lam0 = solution.lam.lam0
    qw, ew = tables.qw, tables.ew

    # u_tilde = u_h + tau (beta.grad(lam_0) - c lam_0)
    utilde = np.broadcast_to(u[:, None], qw.shape)
    if spec.tau > 0:
        utilde = utilde + spec.tau * np.einsum("tqm,tm->tq", tables.adjoint(), lam0)
    residuals = np.sum(qw * tables.c_q * utilde, axis=1) - np.sum(qw * tables.f_q, axis=1)

    lam0_on_e = np.einsum("tiqm,tm->tiq", tables.edge_lam0, lam0)
    lamb_on_e = np.einsum("tiqm,tim->tiq", tables.edge_trace, solution.lam.lamb[mesh.element_edges])
    stab = (lam0_on_e - lamb_on_e) / tables.diameter[:, None, None]
    bn = np.einsum("tiqc,tic->tiq", tables.beta_e, tables.normals)
    residuals += np.sum(ew * (bn * u[:, None, None] - stab), axis=(1, 2))

    # This side's contribution to <[F_h . n], trace basis>_e, with beta u_h
    # replaced by its L2 projection onto the constants.
    flux = u[:, None] * np.einsum("tq,tqc->tc", qw, tables.beta_q) / qw.sum(axis=1)[:, None]
    flux_n = np.einsum("tc,tic->ti", flux, tables.normals)
    moments = np.einsum("tiq,tiqm->tim", ew * (flux_n[..., None] - stab), tables.edge_trace)
    jump_moments = np.zeros((mesh.num_edges, moments.shape[-1]))
    np.add.at(jump_moments, mesh.element_edges, moments)

    interior = np.flatnonzero(mesh.edge_elems[:, 1] >= 0)
    return ConservationReport(
        element_residuals=residuals,
        flux_jumps=np.abs(jump_moments[interior]).max(axis=1),
        interior_edges=interior,
        scale_f=max(1.0, float(np.abs(tables.f_q).max())),
    )


def convergence_orders(errors) -> list[float | None]:
    """Orders log2(e_{n-1} / e_n) between consecutive halved-h levels; the
    first entry is None."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two levels to compute orders")
    orders: list[float | None] = [None]
    for prev, cur in zip(errors, errors[1:]):
        if not (prev > 0 and cur > 0) or not (math.isfinite(prev) and math.isfinite(cur)):
            raise ValueError(f"cannot compute order from errors {prev}, {cur}")
        orders.append(math.log2(prev / cur))
    return orders


@dataclass
class PostField:
    """Post-processed point values: vertex and edge-midpoint averages."""

    x: np.ndarray
    y: np.ndarray
    value: np.ndarray


def postprocess_averages(u: PrimalFunction, mesh: Mesh) -> PostField:
    """Vertex values are the unweighted mean of u_h over the elements
    sharing the vertex; edge-midpoint values average the one or two
    incident elements.  Duplicated crack vertices average per side."""
    vals = u.coeffs[:, 0]
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
