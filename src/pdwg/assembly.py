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

Every local form is evaluated for a block of elements at once from one
set of element tables (:class:`ElementTables`), built for one problem:
the geometry of those elements and the problem's coefficients on them.
:func:`build_forms` writes a block's element matrices and loads, over
the same element rows, into the level's :class:`LevelForms`: a boundary
edge's class and inflow load depend on its one element only.  Boundary
classification and assembly read the forms once every block is in, so
no table of the whole level need exist.
Variable coefficients are evaluated
pointwise at quadrature nodes; piecewise-defined fields are resolved per
element by the leaf, at any nesting depth, holding the centroid (an
element whose vertices disagree with its centroid leaf of beta, c or f
triggers a configuration warning naming the field; inflow data g take the
leaf of the centroid of the element owning the edge, with no warning).
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
    their leaf per element; ``f`` may be a :class:`DerivedLoad` to
    manufacture the load from the exact solution.  ``exact_u`` is any
    vectorized callable, optional and only used by the analysis layer.
    The primal degree ``k`` is fixed at 1 (u_h piecewise constant) and
    the multiplier degree ``j`` is k-1 or k.  Construction raises
    ValueError naming the field for a ``tau`` that is not a finite
    nonnegative int or float (a bool is not), an unknown ``domain_tag``,
    a j other than the integer k-1 or k, and, for a derived load, a
    leaf of its exact solution without a gradient or of beta without a
    divergence, so a bad spec fails before any mesh is built.
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
        if isinstance(self.f, DerivedLoad):
            needs = (("exact_u", self.f.exact, "grad", "gradient"), ("beta", self.beta, "div", "divergence"))
            for name, field, attr, what in needs:
                missing = [b.name for b in field.branches if getattr(b, attr) is None]
                if missing:
                    raise ValueError(f"{name} has no {what} on branch {missing[0]!r}; the derived load f needs one")


@dataclass
class SaddleSystem:
    """The system [[S, B], [B^T, 0]] x = [rhs_lambda; 0] held per element:
    ``element_matrix`` (T, n_loc + 1, n_loc + 1) holds E_T = [[S_T, B_T],
    [B_T^T, 0]] over [lam_0; traces of edges 0, 1, 2; u_T], ``rhs0`` (T, d0)
    the lam_0 rows of the right-hand side, and ``rhs`` the rest, numbered
    by ``dofmap.element_indices``: the traces in the factor's order, then
    u, so ``rhs[F db:]`` (F the free edges) is the u block, and so is that
    slice of :meth:`matvec`'s second part.  The solver and ``pdwg verify`` read
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
        d0 = self.dofmap.dim_lam0
        y = (self.element_matrix @ local[..., None])[..., 0]
        return y[:, :d0], self.dofmap.add(y[:, d0:])


class ElementTables:
    """Geometry, quadrature, basis and coefficient tables of the problem
    ``spec`` on the elements ``rows`` of a mesh (a slice; all of them by
    default), kept as ``spec``.

    Every array has a leading axis over those T elements, row t being
    element ``rows.start + t`` of the mesh, so each local form is one array
    expression over them.  ``pdwg.study.run_level`` builds the tables of
    one contiguous block of at most ``ELEMENT_BLOCK`` elements at a time,
    so a block holds all of this for its elements only, a few MB, and its
    element work stays in cache; tests and the projection take the tables
    of a whole level.  The quadrature is fixed: the
    interior rule is exact to degree 2j+4, j = ``spec.j``, and the edge
    rule has five Gauss points.  An element of non-positive area raises
    MeshError naming it by its number in the mesh.  With nq interior and
    ne edge quadrature points, d0 = dim P_j(T) and db = dim P_j(e):

    - ``area``, ``diameter`` (longest edge) (T,), ``centroid`` (T, 2), and
      ``normals`` (T, 3, 2), the outward unit normals in local edge order
    - ``qpts`` (T, nq, 2), ``qw`` (T, nq); ``epts`` (T, 3, ne, 2), ``ew`` (T, 3, ne)
    - ``lam0`` (T, nq, d0), ``edge_lam0`` (T, 3, ne, d0), and
      ``edge_trace`` (T, 3, ne, db), the trace basis in each edge's own
      orientation
    - ``G`` (T, 2, n_loc), the weak gradient: for k=1 its range is the
      constants, so G = (1/|T|) sum_e <lam_b, n>_e with a zero interior block
    - the coefficients at the interior quadrature points, ``beta_q``
      (T, nq, 2), ``c_q`` and ``f_q`` (T, nq), each resolved per element
      by the leaf holding its centroid; a derived load is formed from the
      sampled beta and c with div(beta) of the element's leaf and u,
      grad(u) pointwise.  A non-finite sample raises ValueError naming
      the field and the element
    - ``beta_int`` (T, 2), the integral of beta over the element, and
      ``beta_n`` (T, 3, ne), beta . n at the edge points (beta itself is
      not kept there), which the forms (the boundary edges' class too)
      and the conservation check read.

    The forms and the analysis read tau, g and the exact solution from
    ``spec``.
    """

    def __init__(self, mesh: Mesh, spec: ProblemSpec, rows: slice = slice(None)):
        self.mesh = mesh
        self.spec = spec
        self.rows = slice(*rows.indices(mesh.num_elements))
        j = spec.j
        coords = mesh.vertices[mesh.elements[self.rows]]  # (T, 3, 2)
        T = len(coords)
        self.area = 0.5 * (
            (coords[:, 1, 0] - coords[:, 0, 0]) * (coords[:, 2, 1] - coords[:, 0, 1])
            - (coords[:, 2, 0] - coords[:, 0, 0]) * (coords[:, 1, 1] - coords[:, 0, 1])
        )
        if (self.area <= 0).any():
            bad = int(np.flatnonzero(self.area <= 0)[0])
            raise MeshError(f"element {self.rows.start + bad} has non-positive area {self.area[bad]}")
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
        signs = mesh.element_edge_signs[self.rows, :, None]

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

        # The problem's coefficients, each in the leaf of the element's centroid.
        cx, cy = self.centroid.T
        x, y = self.qpts[..., 0], self.qpts[..., 1]
        beta_branch = spec.beta.branch_index(cx, cy)
        c_branch = spec.c.branch_index(cx, cy)
        self.beta_q = evaluate_branches(spec.beta.branches, beta_branch[:, None], x, y)
        self.c_q = evaluate_branches(spec.c.branches, c_branch[:, None], x, y)
        if isinstance(spec.f, DerivedLoad):
            exact = spec.f.exact
            u_branch = exact.branch_index(x, y)
            grad = evaluate_branches(exact.branches, u_branch, x, y, "grad")
            u = evaluate_branches(exact.branches, u_branch, x, y)
            div = evaluate_branches(spec.beta.branches, beta_branch[:, None], x, y, "div")
            self.f_q = self.beta_q[..., 0] * grad[..., 0] + self.beta_q[..., 1] * grad[..., 1] + div * u + self.c_q * u
        else:
            f_branch = spec.f.branch_index(cx, cy)
            self.f_q = evaluate_branches(spec.f.branches, f_branch[:, None], x, y)
        beta_e = evaluate_branches(
            spec.beta.branches, beta_branch[:, None, None], self.epts[..., 0], self.epts[..., 1]
        )
        elements = range(self.rows.start, self.rows.stop)
        for name, values in (("beta", self.beta_q), ("beta", beta_e), ("c", self.c_q), ("f", self.f_q)):
            _require_finite(name, values, "element", elements)
        self.beta_int = np.einsum("tq,tqc->tc", self.qw, self.beta_q)
        self.beta_n = np.einsum("tiqc,tic->tiq", beta_e, self.normals)

    @property
    def dim_lam0(self) -> int:
        return self.lam0.shape[-1]

    @property
    def n_loc(self) -> int:
        return self.G.shape[-1]

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

    def adjoint_moments(self, weight: np.ndarray) -> np.ndarray:
        """The sums over the interior quadrature points of ``weight``
        (T, nq) times :meth:`adjoint`, shape (T, d0), formed without its
        (T, nq, d0) table."""
        M = np.einsum("tq,tqk->tk", -weight * self.c_q, self.lam0)
        if self.dim_lam0 > 1:
            inv_h = 1.0 / self.diameter
            for k in (1, 2):
                M[:, k] += np.einsum("tq,tq->t", weight, self.beta_q[..., k - 1]) * inv_h
        return M

    def _jumps(self):
        """Rows of lam_0 - lam_b at the edge quadrature points over the
        local multiplier coefficients, (T, 3 ne, n_loc), with their weights
        ew / h_T, (T, 3 ne)."""
        d0, n = self.dim_lam0, self.n_loc
        db = (n - d0) // 3
        T = len(self.ew)
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


def _require_finite(name: str, values: np.ndarray, what: str, ids) -> None:
    """Raise naming ``ids[row]``, the number of the first row of ``values``
    that holds a non-finite entry."""
    if np.isfinite(values).all():
        return
    row = int(np.argmin(np.isfinite(values).all(axis=tuple(range(1, values.ndim)))))
    raise ValueError(f"{name} has a non-finite value on {what} {ids[row]}")


def scatter(blocks: np.ndarray, idx: np.ndarray, n: int) -> sparse.csc_matrix:
    """Sum element blocks (T, m, m) into an n x n CSC matrix, entry (a, b)
    of block t landing on (idx[t, a], idx[t, b]); rows and columns whose
    index is -1 are dropped.  Duplicates add up.  Built straight from the
    triplets, which skips the checks of a COO matrix converted after."""
    free = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)
    rows = np.broadcast_to(idx[:, :, None], blocks.shape)[free]
    cols = np.broadcast_to(idx[:, None, :], blocks.shape)[free]
    return sparse.csc_matrix((blocks[free], (rows, cols)), shape=(n, n))


def build_contexts(mesh: Mesh, spec: ProblemSpec, rows: slice | None = None) -> ElementTables:
    """The element tables of ``spec`` on a level, or on its element block
    ``rows``: the one pass over the geometry and coefficients that the
    checks, classification and assembly read.  The tables of a whole
    level warn with :func:`warn_straddling`; a caller that builds a level
    block by block warns once per level itself."""
    tables = ElementTables(mesh, spec, slice(None) if rows is None else rows)
    if rows is None:
        warn_straddling(mesh, spec)
    return tables


def warn_straddling(mesh: Mesh, spec: ProblemSpec) -> None:
    """Warn once for each piecewise beta, c or f of ``spec`` (f not
    derived from the exact solution) with elements of ``mesh`` whose
    corners lie in another leaf than the centroid that
    :class:`ElementTables` resolves them by, naming the field, the first
    such element and their count."""
    named = (("beta", spec.beta), ("c", spec.c), ("f", spec.f))
    fields = [(name, field) for name, field in named if not isinstance(field, DerivedLoad) and len(field.branches) > 1]
    if not fields:
        return
    coords = mesh.vertices[mesh.elements]
    # The tables' centroid expression, so each element takes the same
    # leaf; each corner is probed just inside, so vertices sitting
    # exactly on an aligned branch interface do not count.
    centroid = (coords[:, 0] + coords[:, 1] + coords[:, 2]) / 3
    probes = coords + 1e-6 * (centroid[:, None] - coords)
    for name, field in fields:
        corner = field.branch_index(probes[..., 0], probes[..., 1])
        bad = np.flatnonzero((corner != field.branch_index(*centroid.T)[:, None]).any(axis=1))
        if len(bad):
            warnings.warn(
                f"element {bad[0]} straddles a branch boundary of the piecewise field {name} "
                f"({len(bad)} elements in all); each is assigned the branch of its centroid",
                stacklevel=2,
            )


@dataclass
class LevelForms:
    """The element-local forms of one level, written one element block at
    a time by :func:`build_forms` from the block's tables, and all that
    boundary classification and assembly read once the tables are gone,
    over the element rows [lam_0; traces of edges 0, 1, 2; u_T]:

    - ``element_matrix`` (T, n_loc + 1, n_loc + 1), the element matrices
      E_T = [[S_T, B_T], [B_T^T, 0]];
    - ``load`` (T, n_loc + 1), the element loads: -(f, sigma_0)_T on
      lam_0, <sigma_b, beta.n g>_e on the traces of inflow edges, and
      zero elsewhere (g is never evaluated there);
    - ``inflow`` (T, 3), whether each local edge is an inflow boundary edge.
    """

    mesh: Mesh
    spec: ProblemSpec
    element_matrix: np.ndarray
    load: np.ndarray
    inflow: np.ndarray


def build_forms(tables: ElementTables, forms: LevelForms | None = None) -> LevelForms:
    """Write the element matrices, loads and inflow marks of the elements
    of ``tables`` into their rows of ``forms``, and return ``forms``: the
    forms of the tables' level and problem, new ones when None.  A
    boundary edge is inflow where beta . n < -``CLASSIFY_EPS`` at its
    midpoint, the middle node of the edge rule, with beta in the leaf of
    its element and that element's outward normal, else outflow
    (characteristic edges too, so their traces are constrained).  On the
    inflow edges only, g is evaluated in the leaf of the element's
    centroid and the edge's load written; :func:`assemble` checks that it
    is finite.  Raises ValueError for tables of another level or problem
    than ``forms``."""
    mesh, spec, n, d0 = tables.mesh, tables.spec, tables.n_loc, tables.dim_lam0
    ne, db = tables.ew.shape[-1], tables.edge_trace.shape[-1]
    if forms is None:
        T = mesh.num_elements
        forms = LevelForms(mesh, spec, np.zeros((T, n + 1, n + 1)), np.zeros((T, n + 1)), np.empty((T, 3), dtype=bool))
    elif forms.mesh is not mesh or forms.spec is not spec:
        raise ValueError("element tables of another level or problem cannot be added to these forms")
    lo, hi = tables.rows.start, tables.rows.stop
    E = forms.element_matrix[lo:hi]
    E[:, :n, :n] = tables.stabilizer()
    E[:, :n, n] = E[:, n, :n] = tables.coupling()
    forms.load[lo:hi, :d0] = tables.load()
    boundary = mesh.edge_elems[mesh.element_edges[lo:hi], 1] < 0
    forms.inflow[lo:hi] = boundary & (tables.beta_n[..., EDGE_MIDPOINT] < -CLASSIFY_EPS)
    # Each inflow edge read at row k = 3 t + i of the tables' per-edge
    # arrays, t its element's row and i its local edge.
    k = np.flatnonzero(forms.inflow[lo:hi])
    t, i = np.divmod(k, 3)
    pts, g = tables.epts.reshape(-1, ne, 2)[k], spec.g
    cx, cy = tables.centroid[t].T
    gv = evaluate_branches(g.branches, g.branch_index(cx, cy)[:, None], pts[..., 0], pts[..., 1])
    weighted = tables.ew.reshape(-1, ne)[k] * tables.beta_n.reshape(-1, ne)[k] * gv
    # Written through the (T_b, 3, db) view of the trace columns: their
    # (3 T_b, db) reshape would be a copy.
    traces = forms.load[lo:hi, d0:-1].reshape(-1, 3, db)
    traces[t, i] = np.einsum("mq,mqk->mk", weighted, tables.edge_trace.reshape(-1, ne, db)[k])
    return forms


def _require_level(forms: LevelForms, mesh: Mesh) -> None:
    if forms.mesh is not mesh:
        raise ValueError("element forms were built for a different mesh")


def classify_boundary(mesh: Mesh, forms: LevelForms) -> BoundaryClassification:
    """Split the boundary edges of the level's ``forms`` of ``mesh`` into
    inflow and outflow by ``forms.inflow``, which :func:`build_forms`
    marks at each edge's midpoint (characteristic edges are outflow);
    boundary edges are numbered in element order, so both are sorted."""
    _require_level(forms, mesh)
    edges = mesh.element_edges
    outflow = (mesh.edge_elems[edges, 1] < 0) & ~forms.inflow
    return BoundaryClassification(inflow_edges=edges[forms.inflow], outflow_edges=edges[outflow])


def assemble(mesh: Mesh, dofmap: DofMap, forms: LevelForms) -> SaddleSystem:
    """Assemble the global saddle-point system of the level whose element
    forms ``forms`` hold: its element matrices and its element loads,
    summed by ``dofmap`` but for the lam_0 rows.  Raises ValueError naming
    the level's first edge where g is not finite, after every block's
    coefficients were sampled, as with the tables of a whole level.

    Outflow trace unknowns are eliminated (never indexed), which keeps the
    system exactly the variational problem on the constrained multiplier
    space.  Its matrix is symmetric with an identically zero primal-primal
    block; it is held as the element matrices, and the sparse one is built
    only when ``SaddleSystem.matrix`` is read, which only perfbench's
    assembly counters do.
    """
    if dofmap.mesh is not mesh:
        raise ValueError("dofmap was built for a different mesh")
    _require_level(forms, mesh)
    if forms.spec.j != dofmap.j:
        raise ValueError(f"element tables of degree j={forms.spec.j} do not match the dofmap of degree j={dofmap.j}")
    d0, load = dofmap.dim_lam0, forms.load
    # Boundary edges are numbered in element order, each a local edge of
    # one element, so the first non-finite trace row names the first edge.
    _require_finite("g", load[:, d0:-1].reshape(-1, dofmap.dim_lamb), "edge", mesh.element_edges.ravel())
    rhs0, rhs = load[:, :d0].copy(), dofmap.add(load[:, d0:])
    return SaddleSystem(rhs=rhs, rhs0=rhs0, dofmap=dofmap, element_matrix=forms.element_matrix)


# A system is refused when A applied to x = (lam = 0, u = 1) is at most
# this fraction of max|B_T|.  With no inflow edge and c = 0 the constant
# u is in the kernel, A x = [B 1; 0] = 0 to round-off, and the ratio is
# at most 1e-15; it is at least 0.5 on every catalog system at levels
# 0-5, and one element's column of B at least 5.3e-3 of max|B_T|.
KERNEL_RATIO = 1e-8


def check_regular(system: SaddleSystem) -> None:
    """Raise ValueError before the factor if ``system`` is singular in a
    way its element matrices show: the constant u is in the kernel (A
    applied to lam = 0, u = 1 vanishes to ``KERNEL_RATIO`` of max|B_T|),
    or the u_T column of one element's B_T does, beta and c vanishing on
    it; the message names the cause, or the first such element."""
    E, dm = system.element_matrix, system.dofmap
    d0 = dm.dim_lam0
    # A x for that x is the sum of the element matrices' u_T columns,
    # [B 1; 0]; the scale is max|B_T| over them, outflow traces included.
    B = np.abs(E[:, :-1, -1])
    bmax = B.max()
    axmax = max(B[:, :d0].max(), np.abs(dm.add(E[:, d0:, -1])).max())
    if axmax <= KERNEL_RATIO * bmax:
        raise ValueError(
            f"the constant u is in the kernel: no inflow edge and no reaction "
            f"(max|A x| = {axmax:.1e} for lam = 0, u = 1, against max|B_T| = {bmax:.1e})"
        )
    # An element's column of B is its u_T column without outflow traces,
    # its magnitudes summed by a product: numpy reduces short rows slowly.
    B[:, d0:] *= dm.gather(np.ones(dm.n_condensed))[:, :-1]
    zero = B @ np.ones(B.shape[1]) <= KERNEL_RATIO * bmax
    if zero.any():
        raise ValueError(f"u_T of element {np.argmax(zero)} is in the kernel: beta and c vanish on it")
