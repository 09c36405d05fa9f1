"""Degrees of freedom for the weak and primal spaces, the L2 projection
into the weak space, and the discrete weak gradient.

The multiplier space pairs an interior polynomial of degree j per element
with an independent trace polynomial of degree j per edge; traces on
outflow edges are constrained to zero and never receive an index.  The
primal space is fully discontinuous, degree k-1 = 0 per element: one
constant per element.  Every layer from assembly to analysis holds an
element's unknowns as element rows [lam_0; traces of edges 0, 1, 2; u_T],
and a weak function as the rows without u_T, 0 on outflow traces.  lam_0
and u_T couple only within their element, so only the traces lam_b, the
unknowns the sparse LU factors, are numbered in the refinement-tree
order the factor runs in, once, by the rows of
``DofMap.element_indices``, with u_T after them; the solver renumbers
nothing.

The discrete weak gradient of a weak function v = {v0, vb} on a triangle T
is the vector polynomial of degree r = k-1 defined by

    (grad_w v, psi)_T = -(v0, div psi)_T + <vb, psi . n>_{dT}

for all vector polynomials psi of degree r.  For k=1 the range is the
constants, so grad_w v = (1/|T|) <vb, n>_{dT}; the element tables of
:mod:`pdwg.assembly` hold this closed form for every element.  The
projection and the commutativity check take those tables from the
caller, whatever their problem; this module builds none of its own.
"""

from __future__ import annotations

import numpy as np

from .mesh import BoundaryClassification, Mesh, refinement_depth
from .poly import dim_poly2d


class DofMap:
    """Numbering of the condensed unknowns [lam_b; u]: the traces in the
    fill-reducing order of the factor, then u.

    ``refine_uniform`` numbers the four children of element p as rows
    4p..4p+3, so on a mesh refined L times from C coarse elements the
    element numbers are a tree: the coarse elements grouped in pairs (a
    binary tree over their numbers), and below each one a base-4 tree of
    depth L.  The two elements a and b of an edge (b = a on the boundary)
    meet at one node of that tree, and the node's edges separate its
    children: this is nested dissection of a regular finite element mesh
    (George, SIAM J. Numer. Anal. 10, 1973).  An edge whose elements lie
    in one coarse element meets at the base-4 node ceil(bitlen(a ^ b) / 2)
    levels up; otherwise it meets at the binary node bitlen((a >> 2L) ^
    (b >> 2L)) levels above the coarse elements.  The free (non-outflow)
    edges are sorted stably by the end of their node's element range,
    then by the node's height, a postorder that puts each separator after
    its subtree.  Any element numbering gives a valid numbering; only the
    factor's fill depends on the refinement numbering.

    Each free edge takes dim P_j(e) consecutive indices from
    ``lamb_start`` (-1 on outflow edges), F db in all, and the u_T of
    element t takes index F db + t after them, ``n_condensed`` in all; the
    solver eliminates u_T in its element and factors the first F db only.
    ``element_indices`` (T, 3 db + 1), int32 (the index type SuperLU
    takes) and read-only, holds each element's indices of [traces of
    edges 0, 1, 2; u_T], -1 on outflow traces; :meth:`gather` and
    :meth:`add` move such rows from and to the condensed vector.
    ``separator_edges`` is the size of the root separator, the free edges
    whose elements lie in different coarse elements (the 2^L edges of the
    diagonal x + y = 1 on the unit square at level L).  lam_0 is not
    numbered, but ``n_lambda`` and ``n_total`` count it, as the full
    order.
    """

    def __init__(self, mesh: Mesh, j: int, classification: BoundaryClassification):
        if j not in (0, 1):
            raise ValueError(f"j must be k-1 or k, got j={j} for k=1")
        self.mesh = mesh
        self.j = j
        self.dim_lam0 = dim_poly2d(j)
        self.dim_lamb = db = j + 1

        T = mesh.num_elements
        free = np.ones(mesh.num_edges, dtype=bool)
        free[classification.outflow_edges] = False
        F = self.n_free_edges = int(free.sum())
        self.n_lambda = T * self.dim_lam0 + F * db
        self.n_u = T
        self.n_condensed = F * db + T

        L = refinement_depth(mesh)
        a, b = mesh.edge_elems[free].T
        b = np.where(b < 0, a, b)
        # The height h, in bits of the element number, of the node where a
        # and b meet: 2 bits per base-4 level, then 1 per binary level.  Its
        # element range ends at ((a >> h) + 1) << h.  bitlen is the exponent
        # of frexp, exact below 2^53.
        ca, cb = a >> 2 * L, b >> 2 * L
        split = ca != cb
        self.separator_edges = int(split.sum())
        h = np.where(split, 2 * L + np.frexp(ca ^ cb)[1], 2 * ((np.frexp(a ^ b)[1] + 1) // 2))
        start = np.empty(F, dtype=np.int64)
        start[np.lexsort((h, ((a >> h) + 1) << h))] = np.arange(0, F * db, db)

        self.lamb_start = np.full(mesh.num_edges, -1, dtype=np.int64)
        self.lamb_start[free] = start
        starts = self.lamb_start[mesh.element_edges][..., None]
        traces = np.where(starts < 0, -1, starts + np.arange(db)).reshape(T, -1)
        u = F * db + np.arange(T)
        self.element_indices = np.concatenate([traces, u[:, None]], axis=1).astype(np.int32)
        self.element_indices.setflags(write=False)
        # The rows' indices with outflow traces sent to one extra bin,
        # n_condensed, which gather reads as +0.0 and add drops.
        self._sink = np.where(self.element_indices < 0, self.n_condensed, self.element_indices).astype(np.int32)

    @property
    def n_total(self) -> int:
        return self.n_lambda + self.n_u

    def gather(self, y: np.ndarray) -> np.ndarray:
        """The condensed vector ``y`` as element rows over [traces of edges
        0, 1, 2; u_T], (T, 3 db + 1), +0.0 on outflow traces."""
        return np.append(y, 0.0)[self._sink]

    def add(self, rows: np.ndarray) -> np.ndarray:
        """Element rows (T, 3 db + 1) over [traces of edges 0, 1, 2; u_T]
        summed into the condensed vector, in element order; the rows'
        outflow entries are dropped."""
        return np.bincount(self._sink.ravel(), rows.ravel(), self.n_condensed + 1)[:-1]


def _l2(V, weights, w, pts) -> np.ndarray:
    """Batched L2 projections of w onto the bases V (..., nq, d) under the
    quadrature ``weights`` (..., nq) at ``pts`` (..., nq, 2), (..., d)."""
    # Mass matrix and moments in one product, so a w in the span of the
    # basis yields moments that are exact multiples of mass columns.
    wv = np.broadcast_to(np.asarray(w(pts[..., 0], pts[..., 1]), dtype=float), weights.shape)
    Mb = np.swapaxes(V, -1, -2) @ (weights[..., None] * np.concatenate([V, wv[..., None]], axis=-1))
    return np.linalg.solve(Mb[..., :-1], Mb[..., -1:])[..., 0]


def project_to_weak(w, tables) -> np.ndarray:
    """Componentwise L2 projection of a smooth function into the weak
    space of the element tables ``tables``, whatever their problem, as
    element rows [lam_0; traces of edges 0, 1, 2], shape (T, n_loc):
    interior projections onto P_j(T) and trace projections onto P_j(e) in
    each edge's own orientation, all elements and edges in one batch, on the
    fixed quadrature of the tables.  Each mesh edge is projected once, on
    its first incident element's edge table, so both elements of an
    interior edge hold the same trace."""
    mesh = tables.mesh
    lam0 = _l2(tables.lam0, tables.qw, w, tables.qpts)
    owner, local = mesh.edge_elems[:, 0], mesh.edge_local[:, 0]
    lamb = _l2(tables.edge_trace[owner, local], tables.ew[owner, local], w, tables.epts[owner, local])
    return np.concatenate([lam0, lamb[mesh.element_edges].reshape(len(lam0), -1)], axis=1)


def commutativity_check(w, grad_w, tables) -> float:
    """Max over elements of the L2 norm of

        grad_w(Q_h w) - Q_h(grad w),

    where the first term applies the discrete weak gradient to the
    projected weak function and the second projects the analytic gradient
    onto the constants (degree k-1 = 0), on the mesh and quadrature of the
    element tables ``tables``, whatever their problem.  Vanishes to
    quadrature accuracy for j in {k-1, k}, the degrees a problem takes.
    """
    lhs = np.einsum("tcn,tn->tc", tables.G, project_to_weak(w, tables))
    x, y = tables.qpts[..., 0], tables.qpts[..., 1]
    # L2 projection of grad w onto the constants.
    grad = np.stack([np.broadcast_to(np.asarray(g, dtype=float), x.shape) for g in grad_w(x, y)], axis=-1)
    rhs = np.einsum("tq,tqc->tc", tables.qw, grad) / tables.qw.sum(axis=1)[:, None]
    err2 = tables.area * ((lhs - rhs) ** 2).sum(axis=1)
    return float(np.sqrt(err2).max())
