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
with symmetric positive semidefinite S.  It is the sum of one element
matrix E_T = [[S_T, B_T], [B_T^T, 0]] per element, over the element's
unknowns [lam_0; traces of edges 0, 1, 2; u_T] with constrained outflow
traces eliminated, and is kept as those element matrices: :func:`scatter`
sums them into a sparse matrix only when one is read.

Every local form is evaluated for all elements at once from one set of
element tables (:class:`ElementTables`), which compute the geometry of
every element and keep the problem they were sampled from, so every
later stage reads both from them.  Variable coefficients are evaluated
pointwise at quadrature nodes; piecewise-defined fields are resolved per
element by the branch containing the element centroid (an element whose
vertices disagree with its centroid branch of beta, c or f triggers a
configuration warning naming the field; inflow data g take the branch of
the centroid of the element owning the edge, with no warning).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse

from .fields import DerivedLoad, evaluate_branches, is_number
from .mesh import DOMAIN_TAGS, BoundaryClassification, Mesh, MeshError
from .poly import EdgeBasis, TriBasis, quad_edge, quad_triangle
from .weakspace import DofMap

# Five Gauss points per edge; the middle one, t = 0, is the edge midpoint.
EDGE_QUAD_DEGREE = 9
EDGE_MIDPOINT = 2

# Edges with |beta . n| at or below this are treated as outflow, so their
# trace unknowns are constrained.
CLASSIFY_EPS = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Data of one transport problem.

    beta / c / f / g are fields from :mod:`pdwg.fields`, which resolve
    their branch per element; ``f`` may be a :class:`DerivedLoad` to
    manufacture the load from the exact solution.  ``exact_u`` is any
    vectorized callable, optional and only used by the analysis layer.
    The primal degree ``k`` is fixed at 1 (u_h piecewise constant) and
    the multiplier degree ``j`` is k-1 or k.  Construction raises
    ValueError naming the field for a ``tau`` that is not a finite
    nonnegative int or float (a bool is not), an unknown ``domain_tag`` or
    a j other than the integer k-1 or k, so a bad spec fails before any
    mesh is built.
    """

    k: ClassVar[int] = 1

    beta: object
    c: object
    f: object
    g: object
    tau: float
    domain_tag: str
    exact_u: object = None
    j: int = 1

    def __post_init__(self):
        if not (is_number(self.tau) and np.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be a finite nonnegative number, got {self.tau!r}")
        if self.domain_tag not in DOMAIN_TAGS:
            raise ValueError(f"domain_tag must be one of {DOMAIN_TAGS}, got {self.domain_tag!r}")
        if type(self.j) is not int or self.j not in (self.k - 1, self.k):
            raise ValueError(f"j must be the integer k-1 or k, got j={self.j!r} for k={self.k}")


@dataclass
class SaddleSystem:
    """The system [[S, B], [B^T, 0]] x = [rhs_lambda; 0] held per element:
    ``element_matrix`` (T, n_loc + 1, n_loc + 1) holds E_T = [[S_T, B_T],
    [B_T^T, 0]] over [lam_0; traces of edges 0, 1, 2; u_T], ``rhs0`` (T, d0)
    the lam_0 rows of the right-hand side, and ``rhs`` the rest, numbered
    by ``dofmap.element_indices``.  The solver and ``pdwg verify`` read
    these; :meth:`matvec` and :attr:`nnz` do without the sparse ``matrix``,
    summed anew on every read and kept by no system, which only perfbench's
    counters read."""

    rhs: np.ndarray
    rhs0: np.ndarray
    dofmap: DofMap
    element_matrix: np.ndarray

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The assembled CSR matrix, lam_0 numbered first, summed anew on every read."""
        n0, idx = self.rhs0.size, self.dofmap.element_indices
        full = np.concatenate([np.arange(n0).reshape(self.rhs0.shape), np.where(idx >= 0, idx + n0, -1)], axis=1)
        return scatter(self.element_matrix, full, self.dofmap.n_total).tocsr()

    @property
    def nnz(self) -> int:
        """Stored entries of ``matrix``, explicit zeros included, counted
        from the element pattern: two unknowns share more than one element
        only as traces of one interior edge, which has exactly two."""
        free = self.dofmap.dim_lam0 + (self.dofmap.element_indices >= 0).sum(axis=1)
        interior = np.count_nonzero(self.dofmap.mesh.edge_elems[:, 1] >= 0)
        return int(free @ free - self.dofmap.dim_lamb**2 * interior)

    def matvec(self, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``matrix @ x`` applied element by element, equal to round-off, for
        x as element rows laid out as ``Solution.local``: (lam_0 rows, rest)."""
        d0, idx = self.dofmap.dim_lam0, self.dofmap.element_indices
        free = idx >= 0
        y = (self.element_matrix @ local[..., None])[..., 0]
        return y[:, :d0], np.bincount(idx[free], y[:, d0:][free], minlength=self.dofmap.n_condensed)


class ElementTables:
    """Geometry, quadrature, basis and coefficient tables of all elements
    of a mesh, and the problem they were sampled from.

    Every array has a leading axis over the T elements, so each local form
    is one array expression over the mesh.  The quadrature is fixed: the
    interior rule is exact to degree 2j+4 and the edge rule has five Gauss
    points.  The multiplier degree j is 0 or 1; any other j raises
    ValueError, and an element of non-positive area raises MeshError
    naming it.  With nq interior and ne edge quadrature points,
    d0 = dim P_j(T) and db = dim P_j(e):

    - ``area``, ``diameter`` (longest edge) (T,), ``centroid`` (T, 2), and
      ``normals`` (T, 3, 2), the outward unit normals in local edge order
    - ``qpts`` (T, nq, 2), ``qw`` (T, nq); ``epts`` (T, 3, ne, 2), ``ew`` (T, 3, ne)
    - ``lam0`` (T, nq, d0), ``edge_lam0`` (T, 3, ne, d0), and
      ``edge_trace`` (T, 3, ne, db), the trace basis in each edge's own
      orientation
    - ``G`` (T, 2, n_loc), the weak gradient: for k=1 its range is the
      constants, so G = (1/|T|) sum_e <lam_b, n>_e with a zero interior block

    :meth:`sample` keeps the problem as ``spec`` (ValueError until then)
    and adds its coefficients at the interior quadrature points: ``beta_q``
    (T, nq, 2), ``c_q`` and ``f_q`` (T, nq).  It also computes, once,
    ``beta_int`` (T, 2), the integral of beta over the element, and
    ``beta_n`` (T, 3, ne), beta . n at the edge points (beta itself is not
    kept there), which the forms, boundary classification and the
    conservation check read.
    The forms and the analysis read tau, g and the exact solution from
    ``spec``.
    """

    def __init__(self, mesh: Mesh, j: int):
        self.mesh = mesh
        self.j = j
        self._spec: ProblemSpec | None = None
        coords = mesh.vertices[mesh.elements]  # (T, 3, 2)
        T = len(coords)
        self.area = 0.5 * (
            (coords[:, 1, 0] - coords[:, 0, 0]) * (coords[:, 2, 1] - coords[:, 0, 1])
            - (coords[:, 2, 0] - coords[:, 0, 0]) * (coords[:, 1, 1] - coords[:, 0, 1])
        )
        if (self.area <= 0).any():
            bad = int(np.flatnonzero(self.area <= 0)[0])
            raise MeshError(f"element {bad} has non-positive area {self.area[bad]}")
        # Short axes (3 vertices, 2 coordinates) are spelled out below: numpy
        # reduces and broadcasts over them slowly, and each value is the
        # same expression, in the same order, as the reduction or broadcast.
        tangents = coords[:, [1, 2, 0]] - coords  # (T, 3, 2)
        lengths = np.hypot(tangents[:, :, 0], tangents[:, :, 1])
        self.diameter = np.maximum(np.maximum(lengths[:, 0], lengths[:, 1]), lengths[:, 2])
        self.centroid = (coords[:, 0] + coords[:, 1] + coords[:, 2]) / 3
        self.normals = np.empty((T, 3, 2))
        np.divide(tangents[:, :, 1], lengths, out=self.normals[..., 0])
        np.divide(-tangents[:, :, 0], lengths, out=self.normals[..., 1])

        # Interior exactness 2j+2 makes every polynomial-data integral exact;
        # two extra degrees keep the error of smooth non polynomial data
        # (rotational convection, trigonometric loads) below discretization
        # error at the refinement levels used here.
        rule = quad_triangle(2 * j + 4)
        ref_x, ref_y = rule.points.T
        erule = quad_edge(EDGE_QUAD_DEGREE)
        along = 0.5 * (erule.points + 1.0)
        self.qpts = np.empty((T, len(ref_x), 2))
        self.epts = np.empty((T, 3, len(along), 2))
        for c in range(2):
            v0, v1, v2 = coords[:, 0, c, None], coords[:, 1, c, None], coords[:, 2, c, None]
            self.qpts[..., c] = v0 + ref_x * (v1 - v0) + ref_y * (v2 - v0)
            self.epts[..., c] = coords[:, :, c, None] + along * tangents[:, :, c, None]
        self.qw = rule.weights * (2.0 * self.area[:, None])
        self.ew = erule.weights * (0.5 * lengths[..., None])
        signs = mesh.element_edge_signs[..., None]

        basis = TriBasis(j)
        self.lam0 = basis.eval(self.qpts, self.centroid, self.diameter)
        self.edge_lam0 = basis.eval(self.epts, self.centroid[:, None], self.diameter[:, None])
        self.edge_trace = EdgeBasis(j).eval(signs * erule.points)

        d0, db = basis.dim, j + 1
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

    @property
    def spec(self) -> ProblemSpec:
        if self._spec is None:
            raise ValueError("element table coefficients were never sampled; build tables with build_contexts")
        return self._spec

    def sample(self, spec: ProblemSpec) -> "ElementTables":
        """Keep ``spec`` and evaluate its beta, c and f at the quadrature
        points, each resolved per element by the branch holding its
        centroid; warns, naming the field, if a piecewise beta, c or f
        (one not derived from the exact solution) has an element whose
        corners lie in another branch.  Raises ValueError naming both degrees for a spec whose
        j is not the tables' degree, and naming the field and element of
        the first non-finite sample."""
        if spec.j != self.j:
            raise ValueError(f"a problem of degree j={spec.j} cannot be sampled on element tables of degree j={self.j}")
        cx, cy = self.centroid.T
        x, y = self.qpts[..., 0], self.qpts[..., 1]
        beta_branch = spec.beta.branch_index(cx, cy)
        c_branch = spec.c.branch_index(cx, cy)
        # The load first: a derived load makes the most temporaries, and the
        # arrays sampled after it reuse their memory, which lowers a study's
        # peak RSS (the same arrays and bits in any order).
        if isinstance(spec.f, DerivedLoad):
            # One branch per (beta, c) pair, pair (b, c) at b * len(cs) + c.
            cs = spec.c.branches
            pairs = [spec.f.bind(b, c) for b in spec.beta.branches for c in cs]
            self.f_q = evaluate_branches(pairs, (beta_branch * len(cs) + c_branch)[:, None], x, y)
        else:
            f_branch = spec.f.branch_index(cx, cy)
            self.f_q = evaluate_branches(spec.f.branches, f_branch[:, None], x, y)
        self.beta_q = evaluate_branches(spec.beta.branches, beta_branch[:, None], x, y)
        beta_e = evaluate_branches(
            spec.beta.branches, beta_branch[:, None, None], self.epts[..., 0], self.epts[..., 1]
        )
        self.c_q = evaluate_branches(spec.c.branches, c_branch[:, None], x, y)
        for name, values in (("beta", self.beta_q), ("beta", beta_e), ("c", self.c_q), ("f", self.f_q)):
            _require_finite(name, values, "element")
        self.beta_int = np.einsum("tq,tqc->tc", self.qw, self.beta_q)
        self.beta_n = np.einsum("tiqc,tic->tiq", beta_e, self.normals)
        self._warn_if_straddling("beta", spec.beta, beta_branch)
        self._warn_if_straddling("c", spec.c, c_branch)
        if not isinstance(spec.f, DerivedLoad):
            self._warn_if_straddling("f", spec.f, f_branch)
        self._spec = spec
        return self

    def _warn_if_straddling(self, name, field, branch):
        """Warn, naming the field, when an element's corners lie in another
        branch of ``field`` than ``branch``, the one its centroid took."""
        if len(field.branches) == 1:
            return
        # Probe just inside each corner so vertices sitting exactly on an
        # aligned branch interface do not trigger false positives.
        coords = self.mesh.vertices[self.mesh.elements]
        probes = coords + 1e-6 * (self.centroid[:, None] - coords)
        corner = field.branch_index(probes[..., 0], probes[..., 1])
        bad = np.flatnonzero((corner != branch[:, None]).any(axis=1))
        if len(bad):
            warnings.warn(
                f"element {bad[0]} straddles a branch boundary of the piecewise field {name} "
                f"({len(bad)} elements in all); each is assigned the branch of its centroid",
                stacklevel=3,
            )

    def adjoint(self) -> np.ndarray:
        """beta.grad(sigma_0) - c sigma_0 for the interior basis at the
        interior quadrature points, shape (T, nq, d0).  The basis {1, X, Y}
        has gradients 0, (1/h_T, 0) and (0, 1/h_T)."""
        A = -self.c_q[..., None] * self.lam0
        if self.dim_lam0 > 1:
            inv_h = (1.0 / self.diameter)[:, None]
            for k in (1, 2):  # per column, so numpy loops over the points
                A[..., k] += self.beta_q[..., k - 1] * inv_h
        return A

    def _jumps(self):
        """Rows of lam_0 - lam_b at the edge quadrature points over the
        local multiplier coefficients, (T, 3 ne, n_loc), with their weights
        ew / h_T, (T, 3 ne)."""
        d0, n = self.dim_lam0, self.n_loc
        db = (n - d0) // 3
        T = self.mesh.num_elements
        D = np.zeros(self.ew.shape + (n,))
        D[..., :d0] = self.edge_lam0
        for i in range(3):
            D[:, i, :, d0 + i * db : d0 + (i + 1) * db] = -self.edge_trace[:, i]
        return D.reshape(T, -1, n), (self.ew / self.diameter[:, None, None]).reshape(T, -1)

    def stabilizer(self) -> np.ndarray:
        """Symmetric positive semidefinite stabilizer matrices over the
        local multiplier coefficients, shape (T, n_loc, n_loc)."""
        D, w = self._jumps()
        S = np.swapaxes(D, 1, 2) @ (w[..., None] * D)
        tau = self.spec.tau
        if tau > 0:
            d0 = self.dim_lam0
            A = self.adjoint()
            S[:, :d0, :d0] += tau * (np.swapaxes(A, 1, 2) @ (self.qw[..., None] * A))
        # The products are symmetric only to round-off; mirror the upper
        # triangle so S (and the assembled matrix) is exactly symmetric.
        np.copyto(S, np.swapaxes(S, 1, 2), where=np.tri(self.n_loc, k=-1, dtype=bool))
        return S

    def stabilizer_energy(self, x: np.ndarray) -> np.ndarray:
        """s_T(x, x) of local coefficient vectors x (T, n_loc), summed from
        squares so it is nonnegative and vanishes exactly when lam_0 = lam_b
        at the edge points (and the adjoint term is zero), shape (T,)."""
        D, w = self._jumps()
        energy = np.einsum("tq,tq->t", w, (D @ x[..., None])[..., 0] ** 2)
        tau = self.spec.tau
        if tau > 0:
            Ax = self.adjoint() @ x[:, : self.dim_lam0, None]
            energy += tau * np.einsum("tq,tq->t", self.qw, Ax[..., 0] ** 2)
        return energy

    def coupling(self) -> np.ndarray:
        """b_T(1, sigma) = (1, beta . grad_w(sigma) - c sigma_0)_T over the
        local multiplier basis (the primal basis is the constant 1),
        shape (T, n_loc)."""
        B = np.einsum("tc,tcn->tn", self.beta_int, self.G)
        B[:, : self.dim_lam0] -= np.einsum("tq,tqm->tm", self.qw * self.c_q, self.lam0)
        return B

    def load(self) -> np.ndarray:
        """Element loads -(f, sigma_0)_T over the interior basis, (T, d0)."""
        return -np.einsum("tq,tqm->tm", self.qw * self.f_q, self.lam0)

    def inflow_load(self, edges, rows, local) -> np.ndarray:
        """Inflow data terms <sigma_b, beta.n g>_e over the trace basis of
        the boundary edges ``edges``, edge ``edges[m]`` being local edge
        ``local[m]`` of table row ``rows[m]``; shape (len(edges), db).
        ``g`` takes the branch of the element's centroid."""
        g = self.spec.g
        pts = self.epts[rows, local]
        bn = self.beta_n[rows, local]
        cx, cy = self.centroid[rows].T
        gv = evaluate_branches(g.branches, g.branch_index(cx, cy)[:, None], pts[..., 0], pts[..., 1])
        _require_finite("g", gv, "edge", np.asarray(edges))
        return np.einsum("mq,mqk->mk", self.ew[rows, local] * bn * gv, self.edge_trace[rows, local])


def _require_finite(name: str, values: np.ndarray, what: str, ids=None) -> None:
    """Raise naming the first row (element, or ``ids[row]``) of ``values``
    that holds a non-finite entry."""
    if np.isfinite(values).all():
        return
    row = int(np.argmin(np.isfinite(values).all(axis=tuple(range(1, values.ndim)))))
    raise ValueError(f"{name} has a non-finite value on {what} {row if ids is None else ids[row]}")


def scatter(blocks: np.ndarray, idx: np.ndarray, n: int) -> sparse.csc_matrix:
    """Sum element blocks (T, m, m) into an n x n CSC matrix, entry (a, b)
    of block t landing on (idx[t, a], idx[t, b]); rows and columns whose
    index is -1 are dropped.  Duplicates add up.  Built straight from the
    triplets, which skips the checks of a COO matrix converted after."""
    free = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
    rows = np.broadcast_to(idx[:, :, None], blocks.shape)[free]
    cols = np.broadcast_to(idx[:, None, :], blocks.shape)[free]
    return sparse.csc_matrix((blocks[free], (rows, cols)), shape=(n, n))


def build_contexts(mesh: Mesh, spec: ProblemSpec) -> ElementTables:
    """Element tables with the problem's coefficients sampled: the one
    pass over a level's geometry and coefficients that boundary
    classification, assembly and the analysis layer all read."""
    return ElementTables(mesh, spec.j).sample(spec)


def _require_sampled(tables: ElementTables, mesh: Mesh) -> None:
    if tables.mesh is not mesh:
        raise ValueError("element tables were built for a different mesh")
    tables.spec  # raises ValueError if the tables were never sampled


def classify_boundary(mesh: Mesh, tables: ElementTables) -> BoundaryClassification:
    """Split boundary edges into inflow (beta . n < -eps at the edge
    midpoint) and outflow.  Characteristic edges (|beta . n| <= eps) count
    as outflow so their trace unknowns are constrained.

    beta . n is read from the sampled ``tables`` of ``mesh``: at the
    middle node of the edge rule (the midpoint), with beta in the branch
    of the edge's first incident element and that element's outward
    normal.
    """
    _require_sampled(tables, mesh)
    edges = mesh.boundary_edges
    owner, local = mesh.edge_elems[edges, 0], mesh.edge_local[edges, 0]
    inflow = tables.beta_n[owner, local, EDGE_MIDPOINT] < -CLASSIFY_EPS
    return BoundaryClassification(inflow_edges=edges[inflow], outflow_edges=edges[~inflow])


def assemble(mesh: Mesh, dofmap: DofMap, tables: ElementTables) -> SaddleSystem:
    """Assemble the global saddle-point system of the problem the element
    tables of ``mesh`` were sampled from.

    Outflow trace unknowns are eliminated (never indexed), which keeps the
    system exactly the variational problem on the constrained multiplier
    space.  Its matrix is symmetric with an identically zero primal-primal
    block; it is held as the element matrices, and the sparse one is built
    only when ``SaddleSystem.matrix`` is read, which only perfbench's
    assembly counters do.
    """
    if dofmap.mesh is not mesh:
        raise ValueError("dofmap was built for a different mesh")
    _require_sampled(tables, mesh)
    if tables.j != dofmap.j:
        raise ValueError(f"element tables of degree j={tables.j} do not match the dofmap of degree j={dofmap.j}")
    idx = dofmap.element_indices

    # Element matrices over [lam_0; lam_b; u_T], loads over [lam_b; u_T].
    n, db = tables.n_loc, dofmap.dim_lamb
    E = np.zeros((mesh.num_elements, n + 1, n + 1))
    E[:, :n, :n] = tables.stabilizer()
    E[:, :n, n] = E[:, n, :n] = tables.coupling()
    F = np.zeros(idx.shape)
    edges = dofmap.classification.inflow_edges
    owner, local = mesh.edge_elems[edges, 0], mesh.edge_local[edges, 0]
    F[owner[:, None], db * local[:, None] + np.arange(db)] = tables.inflow_load(edges, owner, local)

    free = idx >= 0
    rhs = np.bincount(idx[free], F[free], minlength=dofmap.n_condensed)
    return SaddleSystem(rhs=rhs, rhs0=tables.load(), dofmap=dofmap, element_matrix=E)
