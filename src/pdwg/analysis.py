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
hold to solver accuracy rather than quadrature accuracy.

Every check is linear or quadratic in one element's row of
``Solution.local``, so a level's checks are formed in two steps.
:func:`build_checks` reads the element tables, and with them their
problem (tau, the coefficients and the exact solution), before the
factor and writes their rows of :class:`LevelChecks`, small per-element
operators, one element block at a time; each block's tables can then be
dropped, and only these operators live through the factor.  After the
solve, :func:`error_norms` and :func:`conservation_report` apply them to
``Solution.local``.  The operators are formed from the tables'
quadrature, independently of the assembled element matrices, so the
conservation check also checks the assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import ElementTables, ProblemSpec
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


@dataclass
class LevelChecks:
    """The checks of one level's problem ``spec`` as per-element operators
    on element rows [lam_0 (d0); traces of edges 0, 1, 2 (3 db); u_T],
    laid out as ``Solution.local``, with phi the trace basis of an edge:

    - the moments of each side's F_h . n against phi on each local edge
      e, (T, 3, db) each: ``flux_trace`` (T, 3, db, db), <phi/h_T, sigma_b>_e
      over that edge's traces, ``flux_lam0`` (T, 3, db, d0 - 1),
      <phi/h_T, sigma_0>_e over the non-constant lam_0 basis functions,
      which the moments subtract (the first basis functions of both are
      the constant 1, so the constant lam_0's moments are
      ``flux_trace[..., 0]``), and ``flux_u`` (T, 3, db), <phi, beta_h . n>_e;
    - the element balance: its lam_0 and trace terms on the edges are the
      moments against phi_0 = 1 summed over the three edges, so only
      ``u_balance`` (T,), int_T c + int_dT beta.n, ``load`` (T,), int_T f,
      and, for tau > 0, ``tau_lam0`` (T, d0), tau (c, beta.grad(sigma_0)
      - c sigma_0)_T, are kept (None for tau = 0);
    - with an exact solution (None without): ``exact_u`` (T,), its
      values at the centroids, ``area`` and ``diameter`` h_T (T,), and
      ``lam0_mass`` (T, d0, d0), the lam_0 mass matrices;
    - ``scale_f``, max(1, max |f|) at the interior quadrature points.
    """

    mesh: Mesh
    spec: ProblemSpec
    flux_lam0: np.ndarray
    flux_trace: np.ndarray
    flux_u: np.ndarray
    u_balance: np.ndarray
    load: np.ndarray
    scale_f: float
    tau_lam0: np.ndarray | None = None
    exact_u: np.ndarray | None = None
    area: np.ndarray | None = None
    diameter: np.ndarray | None = None
    lam0_mass: np.ndarray | None = None


def nodal_interpolant(exact_u, tables: ElementTables) -> np.ndarray:
    """Exact solution sampled at the element centroids of ``tables``, one
    value per element."""
    cx, cy = tables.centroid.T
    return np.asarray(exact_u(cx, cy), dtype=float).reshape(-1)


def build_checks(tables: ElementTables, checks: LevelChecks | None = None) -> LevelChecks:
    """Write the error and conservation operators of the elements of
    ``tables`` into their rows of ``checks``, the checks of the tables'
    level and problem (new ones when None), and return ``checks``; the tables
    of a whole level give its checks in one call, and blocks of it give
    them block by block.  The operators are those of the problem the
    tables hold, formed from their quadrature exactly as the checks are
    defined, sigma running over the element's unknowns:

    - flux moments <F_h . n, phi>_e: lam_0 by -<phi/h_T, sigma_0>_e, that
      edge's traces by <phi/h_T, sigma_b>_e, and u_T by <phi, beta_h . n>_e,
      where beta u_h is replaced by its L2 projection onto the constants,
      beta_h = int_T beta / |T| (for elementwise constant convection the
      flux exactly);
    - balance: u_T by int_T c + int_dT beta.n and lam_0 by
      tau (c, beta.grad(sigma_0) - c sigma_0)_T, beside the flux moments
      against phi_0 = 1;
    - errors: the lam_0 mass matrices, and h_T, which scales the trace
      moments into the trace mass matrices h_T^2 <phi/h_T, phi>_e.

    The first trace and lam_0 basis functions are the constant 1, so
    <phi, 1>_e of the u_T and constant lam_0 moments is a trace moment.
    The weighted bases are formed one basis function at a time, as numpy
    broadcasts over a short last axis slowly, and the weighted trace
    basis is laid out contiguously, as numpy multiplies the small
    matrices fastest from it.  Raises ValueError for tables of another
    level or problem than ``checks``.
    """
    spec, mesh, rows = tables.spec, tables.mesh, tables.rows
    qw, ew, h = tables.qw, tables.ew, tables.diameter
    d0, db = tables.dim_lam0, tables.edge_trace.shape[-1]
    if checks is None:
        checks = _empty_checks(mesh, spec, d0, db)
    elif checks.mesh is not mesh or checks.spec is not spec:
        raise ValueError("element tables of another level or problem cannot be added to these checks")

    ew_h = ew / h[:, None, None]
    against = np.empty((len(h), 3, db, ew.shape[-1]))
    for m in range(db):
        np.multiply(ew_h, tables.edge_trace[..., m], out=against[..., m, :])
    flux_trace = np.matmul(against, tables.edge_trace, out=checks.flux_trace[rows])
    np.matmul(against, tables.edge_lam0[..., 1:], out=checks.flux_lam0[rows])
    beta_int, normals = tables.beta_int[:, None], tables.normals
    h_beta_n = beta_int[..., 0] * normals[..., 0] + beta_int[..., 1] * normals[..., 1]
    h_beta_n *= (h / tables.area)[:, None]
    np.multiply(h_beta_n[..., None], flux_trace[..., 0], out=checks.flux_u[rows])
    c_mass, beta_flux = np.einsum("tq,tq->t", qw, tables.c_q), np.einsum("tiq,tiq->t", ew, tables.beta_n)
    np.add(c_mass, beta_flux, out=checks.u_balance[rows])
    np.einsum("tq,tq->t", qw, tables.f_q, out=checks.load[rows])
    checks.scale_f = max(checks.scale_f, float(np.abs(tables.f_q).max()))
    if spec.tau > 0:
        np.multiply(spec.tau, tables.adjoint_moments(qw * tables.c_q), out=checks.tau_lam0[rows])
    if spec.exact_u is not None:
        weighted = np.empty_like(tables.lam0)
        for k in range(d0):
            np.multiply(qw, tables.lam0[..., k], out=weighted[..., k])
        checks.exact_u[rows] = nodal_interpolant(spec.exact_u, tables)
        checks.area[rows], checks.diameter[rows] = tables.area, h
        np.matmul(np.swapaxes(weighted, 1, 2), tables.lam0, out=checks.lam0_mass[rows])
    return checks


def _empty_checks(mesh: Mesh, spec: ProblemSpec, d0: int, db: int) -> LevelChecks:
    """The unwritten checks of ``spec`` on ``mesh`` for :func:`build_checks`."""
    T = mesh.num_elements
    checks = LevelChecks(
        mesh=mesh,
        spec=spec,
        flux_lam0=np.empty((T, 3, db, d0 - 1)),
        flux_trace=np.empty((T, 3, db, db)),
        flux_u=np.empty((T, 3, db)),
        u_balance=np.empty(T),
        load=np.empty(T),
        scale_f=1.0,
    )
    if spec.tau > 0:
        checks.tau_lam0 = np.empty((T, d0))
    if spec.exact_u is not None:
        checks.exact_u, checks.area, checks.diameter = np.empty(T), np.empty(T), np.empty(T)
        checks.lam0_mass = np.empty((T, d0, d0))
    return checks


def _quadratic(mass: np.ndarray, x: np.ndarray) -> float:
    """The sum over the leading axis of x_i^T mass_i x_i."""
    return float(np.einsum("im,im->", np.einsum("iml,il->im", mass, x), x))


def error_norms(solution: Solution, checks: LevelChecks) -> ErrorReport:
    """Norms ||u_h - I_h u||, ||lam_0||, and the h_T-weighted trace norm
    ||lam_b||, against the exact solution of the level's problem.  Each
    edge is counted once, from its first incident element, which supplies
    its trace, quadrature weights and h_T: its trace mass matrix is that
    element's trace moments scaled by h_T^2."""
    if checks.exact_u is None:
        raise ValueError("error norms require an exact solution")
    local, mesh, h = solution.local, checks.mesh, checks.diameter
    d0, db = checks.lam0_mass.shape[-1], checks.flux_trace.shape[-1]
    traces = local[:, d0:-1].reshape(len(local), 3, db)
    diff = local[:, -1] - checks.exact_u
    owner, edge = mesh.edge_elems[:, 0], mesh.edge_local[:, 0]
    trace_mass = checks.flux_trace[owner, edge] * (h * h)[owner, None, None]
    return ErrorReport(
        err_u=math.sqrt(float(checks.area @ (diff * diff))),
        err_lam0=math.sqrt(_quadratic(checks.lam0_mass, local[:, :d0])),
        err_lamb=math.sqrt(_quadratic(trace_mass, traces[owner, edge])),
    )


def triple_norm_Wh(lam: np.ndarray, tables: ElementTables) -> float:
    """Multiplier seminorm of a weak function given as element rows
    [lam_0; traces of edges 0, 1, 2], shape (T, n_loc), on the mesh of
    ``tables``, with their problem's beta, c and tau:

        ( sum_T 1/h_T ||lam_0 - lam_b||_{dT}^2
              + tau ||beta.grad(lam_0) - c lam_0||_T^2 )^(1/2),

    which squares to the stabilizer quadratic form s(lam, lam).  It reads
    the tables, so a solution's seminorm is taken while they are alive."""
    return math.sqrt(float(tables.stabilizer_energy(lam).sum()))


def conservation_report(solution: Solution, checks: LevelChecks) -> ConservationReport:
    """Elementwise balance residuals of the conservation identity and the
    interior-edge normal-flux jumps tested against the edge trace basis,
    by the operators of ``checks`` (see :func:`build_checks`).  Both
    reuse the assembly quadrature, so a converged solve drives them to
    solver tolerance.
    """
    local, mesh = solution.local, checks.mesh
    T, d0, db = len(local), checks.flux_lam0.shape[-1] + 1, checks.flux_trace.shape[-1]
    lam0, u = local[:, :d0], local[:, -1]
    traces = local[:, d0:-1].reshape(T, 3, 1, db)

    # Each side's moments of <[F_h . n], trace basis>_e, (T, 3, db), the
    # products over the short trace axis spelled out.  Before the u_T
    # term, those against the constant add up to the balance's edge terms.
    moments = checks.flux_trace[..., 0] * (traces[..., 0] - lam0[:, None, None, 0])
    for k in range(1, db):
        moments += checks.flux_trace[..., k] * traces[..., k]
    if d0 > 1:
        moments -= np.einsum("timk,tk->tim", checks.flux_lam0, lam0[:, 1:])
    residuals = moments[:, 0, 0] + moments[:, 1, 0] + moments[:, 2, 0] + checks.u_balance * u - checks.load
    if checks.tau_lam0 is not None:
        residuals += np.einsum("tk,tk->t", checks.tau_lam0, lam0)
    moments += checks.flux_u * u[:, None, None]
    moments = moments.reshape(-1, db)

    # Each interior edge's jump adds its two sides' moments, read through
    # its elements and local edges.  The larger of the (one or two) trace
    # moments is taken without a reduction over that short axis.
    interior = np.flatnonzero(mesh.edge_elems[:, 1] >= 0)
    left, right = (3 * mesh.edge_elems + mesh.edge_local)[interior].T
    jumps = np.abs(moments[left] + moments[right])
    return ConservationReport(
        element_residuals=residuals,
        flux_jumps=np.maximum(jumps[:, 0], jumps[:, -1]),
        interior_edges=interior,
        scale_f=checks.scale_f,
    )


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
    two incident elements (the final + 0.0 turns a -0.0 into +0.0).
    Duplicated crack vertices average per side."""
    nV = mesh.num_vertices
    vsum = np.bincount(mesh.elements.ravel(), weights=np.repeat(vals, 3), minlength=nV)
    vcnt = np.bincount(mesh.elements.ravel(), minlength=nV)
    vertex_vals = vsum / np.maximum(vcnt, 1)

    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    left, right = mesh.edge_elems.T
    edge_vals = np.where(right >= 0, (vals[left] + vals[right]) / 2, vals[left]) + 0.0

    x = np.concatenate([mesh.vertices[:, 0], mids[:, 0]])
    y = np.concatenate([mesh.vertices[:, 1], mids[:, 1]])
    value = np.concatenate([vertex_vals, edge_vals])
    return PostField(x=x, y=y, value=value)
