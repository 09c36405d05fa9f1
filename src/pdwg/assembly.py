"""Local forms and the global symmetric saddle-point system.

The discrete problem couples the primal unknown u (piecewise P_{k-1}) and
a weak-function multiplier lam (interior P_j per element plus trace P_j
per edge, traces vanishing on the outflow boundary):

    s(lam, sigma) + b(u, sigma) = <sigma_b, beta.n g>_{inflow} - (f, sigma_0)
    b(v, lam)                   = 0

with the per-element stabilizer

    s_T(rho, sigma) = 1/h_T <rho_0 - rho_b, sigma_0 - sigma_b>_{dT}
                    + tau (beta.grad(rho_0) - c rho_0,
                           beta.grad(sigma_0) - c sigma_0)_T

and coupling form b_T(v, sigma) = (v, beta . grad_w(sigma) - c sigma_0)_T.
Written in block form over x = [lam; u] the system is [[S, B], [B^T, 0]]
with symmetric positive semidefinite S, summed from the element blocks
with constrained outflow traces eliminated.

Every local form is evaluated for all elements at once from one set of
element tables (:class:`ElementTables`).  Variable coefficients are
evaluated pointwise at quadrature nodes; piecewise-defined fields are
resolved per element by the branch containing the element centroid (an
element whose vertices disagree with its centroid branch triggers a
configuration warning).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .fields import DerivedLoad, evaluate_branches
from .mesh import DOMAIN_TAGS, BoundaryClassification, Mesh, geometry_arrays, owner_local_edges
from .poly import EdgeBasis, TriBasis, quad_edge, quad_triangle
from .weakspace import DofMap, WeakFunction

DEFAULT_EDGE_QUAD_POINTS = 5


def default_quad_degree(j: int) -> int:
    """Interior quadrature exactness: 2j+2 makes every polynomial-data
    integral exact; two extra degrees keep the error of smooth non
    polynomial data (rotational convection, trigonometric loads) below
    discretization error at the refinement levels used here."""
    return 2 * j + 4


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one transport problem.

    beta / c / f / g are fields from :mod:`pdwg.fields`, which resolve
    their branch per element; ``f`` may be a :class:`DerivedLoad` to
    manufacture the load from the exact solution.  ``exact_u`` is any
    vectorized callable, optional and only used by the analysis layer.
    Construction raises ValueError naming the field for a non-finite or
    negative ``tau``, an unknown ``domain_tag``, k != 1 or j not in
    {k-1, k}, so a bad spec fails before any mesh is built.
    """

    beta: object
    c: object
    f: object
    g: object
    tau: float
    domain_tag: str
    exact_u: object = None
    k: int = 1
    j: int = 1
    quad_degree: int | None = None
    edge_quad_points: int = DEFAULT_EDGE_QUAD_POINTS

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be a finite nonnegative number, got {self.tau}")
        if self.domain_tag not in DOMAIN_TAGS:
            raise ValueError(f"domain_tag must be one of {DOMAIN_TAGS}, got {self.domain_tag!r}")
        if self.k != 1:
            raise ValueError(f"k must be 1 (only the lowest order is supported), got k={self.k}")
        if self.j not in (self.k - 1, self.k):
            raise ValueError(f"j must be k-1 or k, got j={self.j} for k={self.k}")

    @property
    def interior_degree(self) -> int:
        return self.quad_degree if self.quad_degree is not None else default_quad_degree(self.j)

    def with_overrides(self, **kwargs) -> "ProblemSpec":
        return replace(self, **kwargs)


@dataclass
class SaddleSystem:
    """Assembled sparse system [[S, B], [B^T, 0]] x = [rhs_lambda; 0],
    with the element blocks it was summed from: ``element_S`` (T, n_loc,
    n_loc) and ``element_B`` (T, n_loc) over the local multiplier
    coefficients laid out as ``dofmap.lambda_indices``."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    element_S: np.ndarray
    element_B: np.ndarray

    @property
    def n_lambda(self) -> int:
        return self.dofmap.n_lambda

    @property
    def n_u(self) -> int:
        return self.dofmap.n_u


class ElementTables:
    """Quadrature, basis and coefficient tables of a batch of elements.

    Every array has a leading axis over ``elements`` (all elements of the
    mesh by default), so each local form is one array expression over the
    batch.  With nq interior and ne edge quadrature points, d0 = dim P_j(T)
    and db = dim P_j(e):

    - ``area``, ``diameter`` (T,), ``centroid`` (T, 2), ``normals`` (T, 3, 2)
    - ``qpts`` (T, nq, 2), ``qw`` (T, nq); ``epts`` (T, 3, ne, 2), ``ew`` (T, 3, ne)
    - ``lam0`` (T, nq, d0), ``lam0_grad`` (T, nq, d0, 2), ``edge_lam0``
      (T, 3, ne, d0), and ``edge_trace`` (T, 3, ne, db), the trace basis
      in each edge's own orientation
    - ``G`` (T, 2, n_loc), the weak gradient: for k=1 its range is the
      constants, so G = (1/|T|) sum_e <lam_b, n>_e with a zero interior block

    :meth:`sample` adds the coefficients at the quadrature points:
    ``beta_q`` (T, nq, 2), ``beta_e`` (T, 3, ne, 2), ``c_q`` and ``f_q``
    (T, nq), with ``beta_branch`` (T,) the branch of beta per element.
    """

    def __init__(self, mesh: Mesh, j: int, interior_degree: int, edge_quad_points: int, elements=None):
        self.mesh = mesh
        self.elements = np.arange(mesh.num_elements) if elements is None else np.asarray(elements)
        geom = geometry_arrays(mesh, self.elements)
        self.area = geom.area
        self.diameter = geom.diameter
        self.centroid = geom.centroid
        self.normals = geom.edge_normals

        coords = mesh.vertices[mesh.elements[self.elements]]  # (T, 3, 2)
        v0, v1, v2 = coords[:, 0, None], coords[:, 1, None], coords[:, 2, None]
        rule = quad_triangle(interior_degree)
        ref_x, ref_y = rule.points[:, 0, None], rule.points[:, 1, None]
        self.qpts = v0 + ref_x * (v1 - v0) + ref_y * (v2 - v0)
        self.qw = rule.weights * (2.0 * self.area[:, None])

        erule = quad_edge(2 * edge_quad_points - 1)
        start = coords[:, :, None]
        step = np.roll(coords, -1, axis=1)[:, :, None] - start
        self.epts = start + 0.5 * (erule.points[:, None] + 1.0) * step
        self.ew = erule.weights * (0.5 * geom.edge_lengths[..., None])
        signs = mesh.element_edge_signs[self.elements][..., None]

        basis = TriBasis(j)
        self.lam0 = basis.eval(self.qpts, self.centroid, self.diameter)
        self.lam0_grad = basis.eval_grad(self.qpts, self.centroid, self.diameter)
        self.edge_lam0 = basis.eval(self.epts, self.centroid[:, None], self.diameter[:, None])
        self.edge_trace = EdgeBasis(j).eval(signs * erule.points)

        T, d0, db = len(self.elements), basis.dim, j + 1
        moments = np.einsum("tiq,tiqm->tim", self.ew, self.edge_trace)
        self.G = np.zeros((T, 2, d0 + 3 * db))
        self.G[:, :, d0:] = (
            (self.normals[..., None] * moments[:, :, None, :]).transpose(0, 2, 1, 3).reshape(T, 2, -1)
            / self.area[:, None, None]
        )

    @property
    def dim_lam0(self) -> int:
        return self.lam0.shape[-1]

    @property
    def n_loc(self) -> int:
        return self.G.shape[-1]

    def sample(self, spec: ProblemSpec) -> "ElementTables":
        """Evaluate beta, c and f at the quadrature points, each resolved
        per element by the branch holding its centroid.  Raises ValueError
        naming the field and element of the first non-finite sample."""
        cx, cy = self.centroid.T
        x, y = self.qpts[..., 0], self.qpts[..., 1]
        beta_branch = spec.beta.branch_index(cx, cy)
        c_branch = spec.c.branch_index(cx, cy)
        self.beta_branch = beta_branch
        self.beta_q = evaluate_branches(spec.beta.branches, beta_branch[:, None], x, y)
        self.beta_e = evaluate_branches(
            spec.beta.branches, beta_branch[:, None, None], self.epts[..., 0], self.epts[..., 1]
        )
        self.c_q = evaluate_branches(spec.c.branches, c_branch[:, None], x, y)
        if isinstance(spec.f, DerivedLoad):
            self.f_q = np.empty_like(self.c_q)
            for bi, ci in sorted(set(zip(beta_branch.tolist(), c_branch.tolist()))):
                rows = (beta_branch == bi) & (c_branch == ci)
                f = spec.f.bind(spec.beta.branches[bi], spec.c.branches[ci])
                self.f_q[rows] = f(x[rows], y[rows])
        else:
            f_branch = spec.f.branch_index(cx, cy)
            self.f_q = evaluate_branches(spec.f.branches, f_branch[:, None], x, y)
        for name, values in (("beta", self.beta_q), ("beta", self.beta_e), ("c", self.c_q), ("f", self.f_q)):
            _require_finite(name, values, self.elements, "element")
        self._warn_if_straddling(spec.beta)
        return self

    def _warn_if_straddling(self, beta):
        if len(beta.branches) == 1:
            return
        # Probe just inside each corner so vertices sitting exactly on an
        # aligned branch interface do not trigger false positives.
        coords = self.mesh.vertices[self.mesh.elements[self.elements]]
        probes = coords + 1e-6 * (self.centroid[:, None] - coords)
        corner = beta.branch_index(probes[..., 0], probes[..., 1])
        bad = self.elements[(corner != self.beta_branch[:, None]).any(axis=1)]
        if len(bad):
            warnings.warn(
                f"element {bad[0]} straddles a piecewise convection-field branch "
                f"boundary ({len(bad)} elements in all); each is assigned the "
                "branch of its centroid",
                stacklevel=3,
            )

    def local_coefficients(self, lam: WeakFunction) -> np.ndarray:
        """Local coefficient vectors [interior; traces of edges 0, 1, 2]
        of a weak function, shape (T, n_loc)."""
        traces = lam.lamb[self.mesh.element_edges[self.elements]]
        return np.concatenate([lam.lam0[self.elements], traces.reshape(len(self.elements), -1)], axis=1)

    def adjoint(self) -> np.ndarray:
        """beta.grad(sigma_0) - c sigma_0 for the interior basis at the
        interior quadrature points, shape (T, nq, d0)."""
        return np.einsum("tqc,tqmc->tqm", self.beta_q, self.lam0_grad) - self.c_q[..., None] * self.lam0

    def _jumps(self):
        """Rows of lam_0 - lam_b at the edge quadrature points over the
        local multiplier coefficients, (T, 3 ne, n_loc), with their weights
        ew / h_T, (T, 3 ne)."""
        d0, n = self.dim_lam0, self.n_loc
        db = (n - d0) // 3
        T = len(self.elements)
        D = np.zeros(self.ew.shape + (n,))
        D[..., :d0] = self.edge_lam0
        for i in range(3):
            D[:, i, :, d0 + i * db : d0 + (i + 1) * db] = -self.edge_trace[:, i]
        return D.reshape(T, -1, n), (self.ew / self.diameter[:, None, None]).reshape(T, -1)

    def stabilizer(self, tau: float) -> np.ndarray:
        """Symmetric positive semidefinite stabilizer matrices over the
        local multiplier coefficients, shape (T, n_loc, n_loc)."""
        D, w = self._jumps()
        S = np.swapaxes(D, 1, 2) @ (w[..., None] * D)
        if tau > 0:
            d0 = self.dim_lam0
            A = self.adjoint()
            S[:, :d0, :d0] += tau * (np.swapaxes(A, 1, 2) @ (self.qw[..., None] * A))
        return S

    def stabilizer_energy(self, x: np.ndarray, tau: float) -> np.ndarray:
        """s_T(x, x) of local coefficient vectors x (T, n_loc), summed from
        squares so it is nonnegative and vanishes exactly when lam_0 = lam_b
        at the edge points (and the adjoint term is zero), shape (T,)."""
        D, w = self._jumps()
        energy = np.einsum("tq,tq->t", w, (D @ x[..., None])[..., 0] ** 2)
        if tau > 0:
            Ax = self.adjoint() @ x[:, : self.dim_lam0, None]
            energy += tau * np.einsum("tq,tq->t", self.qw, Ax[..., 0] ** 2)
        return energy

    def coupling(self) -> np.ndarray:
        """b_T(1, sigma) = (1, beta . grad_w(sigma) - c sigma_0)_T over the
        local multiplier basis (the primal basis is the constant 1),
        shape (T, n_loc)."""
        B = np.einsum("tc,tcn->tn", np.einsum("tq,tqc->tc", self.qw, self.beta_q), self.G)
        B[:, : self.dim_lam0] -= np.einsum("tq,tqm->tm", self.qw * self.c_q, self.lam0)
        return B

    def load(self) -> np.ndarray:
        """Element loads -(f, sigma_0)_T over the interior basis, (T, d0)."""
        return -np.einsum("tq,tqm->tm", self.qw * self.f_q, self.lam0)

    def inflow_load(self, g, edges, rows, local) -> np.ndarray:
        """Inflow data terms <sigma_b, beta.n g>_e over the trace basis of
        the boundary edges ``edges``, edge ``edges[m]`` being local edge
        ``local[m]`` of table row ``rows[m]``; shape (len(edges), db).
        ``g`` takes the branch of the element's centroid."""
        pts = self.epts[rows, local]
        bn = np.einsum("mqc,mc->mq", self.beta_e[rows, local], self.normals[rows, local])
        cx, cy = self.centroid[rows].T
        gv = evaluate_branches(g.branches, g.branch_index(cx, cy)[:, None], pts[..., 0], pts[..., 1])
        _require_finite("g", gv, np.asarray(edges), "edge")
        return np.einsum("mq,mqk->mk", self.ew[rows, local] * bn * gv, self.edge_trace[rows, local])


def _require_finite(name: str, values: np.ndarray, ids: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if bad.any():
        raise ValueError(f"{name} has a non-finite value on {what} {ids[np.argmax(bad)]}")


def build_contexts(mesh: Mesh, spec: ProblemSpec, elements=None) -> ElementTables:
    """Element tables with the problem's coefficients sampled, for all
    elements (or the given ones), built in one pass so assembly and the
    analysis layer share identical integration data."""
    tables = ElementTables(mesh, spec.j, spec.interior_degree, spec.edge_quad_points, elements)
    return tables.sample(spec)


def local_stabilizer(mesh: Mesh, t: int, spec: ProblemSpec) -> np.ndarray:
    """Symmetric positive semidefinite stabilizer matrix over the local
    multiplier coefficients [interior; trace edge 0; 1; 2]."""
    return build_contexts(mesh, spec, [t]).stabilizer(spec.tau)[0]


def local_b_form(mesh: Mesh, t: int, spec: ProblemSpec) -> np.ndarray:
    """Local coupling block, shape (n_loc multiplier rows, dim_u columns):
    entry (sigma, v) = (v, beta . grad_w(sigma) - c sigma_0)_T."""
    return build_contexts(mesh, spec, [t]).coupling()[0][:, None]


def local_load(mesh: Mesh, t: int, spec: ProblemSpec) -> np.ndarray:
    """Element load -(f, sigma_0)_T over the local multiplier test block
    (trace entries zero)."""
    tables = build_contexts(mesh, spec, [t])
    out = np.zeros(tables.n_loc)
    out[: tables.dim_lam0] = tables.load()[0]
    return out


def inflow_edge_load(
    mesh: Mesh,
    e: int,
    spec: ProblemSpec,
    classification: BoundaryClassification,
) -> np.ndarray:
    """Inflow data term <sigma_b, beta.n g>_e over the trace test basis of
    one inflow boundary edge."""
    if not classification.is_inflow[e]:
        raise ValueError(f"edge {e} is not an inflow boundary edge")
    owner, local = owner_local_edges(mesh, [e])
    return build_contexts(mesh, spec, owner).inflow_load(spec.g, [e], [0], local)[0]


def assemble(
    mesh: Mesh,
    dofmap: DofMap,
    spec: ProblemSpec,
    tables: ElementTables | None = None,
) -> SaddleSystem:
    """Assemble the global saddle-point system.

    Outflow trace unknowns are eliminated (never indexed), which keeps the
    matrix exactly the variational problem on the constrained multiplier
    space.  The returned matrix is symmetric with an identically zero
    primal-primal block.
    """
    if dofmap.mesh is not mesh:
        raise ValueError("dofmap was built for a different mesh")
    if (dofmap.k, dofmap.j) != (spec.k, spec.j):
        raise ValueError(
            f"dofmap degrees (k={dofmap.k}, j={dofmap.j}) do not match "
            f"spec degrees (k={spec.k}, j={spec.j})"
        )
    if tables is None:
        tables = build_contexts(mesh, spec)
    idx = dofmap.lambda_indices
    if tables.mesh is not mesh or (len(tables.elements), tables.n_loc) != idx.shape:
        raise ValueError("element tables do not match the mesh and dofmap")

    S = tables.stabilizer(spec.tau)
    B = tables.coupling()
    s_free = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
    b_free = idx >= 0
    s_rows = np.broadcast_to(idx[:, :, None], S.shape)[s_free]
    s_cols = np.broadcast_to(idx[:, None, :], S.shape)[s_free]
    b_rows = idx[b_free]
    b_cols = np.broadcast_to(dofmap.u_start[:, None], idx.shape)[b_free]
    b_vals = B[b_free]
    n = dofmap.n_total
    A = sparse.coo_matrix(
        (
            np.concatenate([S[s_free], b_vals, b_vals]),
            (np.concatenate([s_rows, b_rows, b_cols]), np.concatenate([s_cols, b_cols, b_rows])),
        ),
        shape=(n, n),
    ).tocsr()

    rhs = np.zeros(n)
    rhs[idx[:, : dofmap.dim_lam0]] = tables.load()
    edges = dofmap.classification.inflow_edges
    starts = dofmap.lamb_start[edges]
    edges, starts = edges[starts >= 0], starts[starts >= 0]
    owner, local = owner_local_edges(mesh, edges)
    rhs[starts[:, None] + np.arange(dofmap.dim_lamb)] += tables.inflow_load(spec.g, edges, owner, local)
    return SaddleSystem(matrix=A, rhs=rhs, dofmap=dofmap, element_S=S, element_B=B)


def dump_matrixmarket(system: SaddleSystem, path) -> None:
    """Write the system matrix in MatrixMarket coordinate format with
    symmetric storage (for external validation)."""
    from scipy.io import mmwrite

    A = sparse.tril(system.matrix).tocoo()
    mmwrite(str(path), A, symmetry="symmetric")
