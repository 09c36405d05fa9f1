"""Degrees of freedom for the weak and primal spaces, the L2 projection
into the weak space, and the discrete weak gradient.

The multiplier space pairs an interior polynomial of degree j per element
with an independent trace polynomial of degree j per edge; traces on
outflow edges are constrained to zero and never receive a global index.
The primal space is fully discontinuous, degree k-1 = 0 per element: one
constant per element.  Every layer from assembly to analysis sees an
element's unknowns in one layout, [lam_0; traces of edges 0, 1, 2; u_T],
whose global indices are the rows of ``DofMap.element_indices``.  A weak
function is held the same way, as element rows (T, n_loc) over
[lam_0; traces of edges 0, 1, 2], the layout without u_T:
``x[element_indices[:, :-1]]`` gathers it from a multiplier vector x,
with 0 put in the slots of outflow traces.

The discrete weak gradient of a weak function v = {v0, vb} on a triangle T
is the vector polynomial of degree r = k-1 defined by

    (grad_w v, psi)_T = -(v0, div psi)_T + <vb, psi . n>_{dT}

for all vector polynomials psi of degree r.  For k=1 the range is the
constants, so grad_w v = (1/|T|) <vb, n>_{dT}; the element tables of
:mod:`pdwg.assembly` hold this closed form for every element.
"""

from __future__ import annotations

import numpy as np

from .mesh import BoundaryClassification, Mesh
from .poly import dim_poly2d


class DofMap:
    """Global indexing for the multiplier and primal unknowns.

    Multiplier indices come first: one block of dim P_j(T) per element,
    then one block of dim P_j(e) per free (non-outflow) edge.  Primal
    indices follow, one constant per element.  ``element_indices``, shape
    (T, n_loc + 1), holds the global indices of each element's unknowns
    [lam_0; traces of edges 0, 1, 2; u_T], -1 on outflow traces.
    """

    def __init__(self, mesh: Mesh, j: int, classification: BoundaryClassification):
        if j not in (0, 1):
            raise ValueError(f"j must be k-1 or k, got j={j} for k=1")
        self.mesh = mesh
        self.classification = classification
        self.j = j
        self.dim_lam0 = dim_poly2d(j)
        self.dim_lamb = j + 1

        T = mesh.num_elements
        constrained = np.zeros(mesh.num_edges, dtype=bool)
        constrained[classification.outflow_edges] = True

        rank = np.cumsum(~constrained) - 1
        self.lamb_start = np.where(
            constrained, -1, T * self.dim_lam0 + rank * self.dim_lamb
        ).astype(np.int64)
        self.n_free_edges = int((~constrained).sum())
        self.n_lambda = T * self.dim_lam0 + self.n_free_edges * self.dim_lamb
        self.n_u = T

        elems = np.arange(T, dtype=np.int64)[:, None]
        starts = self.lamb_start[mesh.element_edges][..., None]
        traces = np.where(starts < 0, -1, starts + np.arange(self.dim_lamb))
        self.element_indices = np.concatenate(
            [elems * self.dim_lam0 + np.arange(self.dim_lam0), traces.reshape(T, -1), self.n_lambda + elems],
            axis=1,
        )
        self.element_indices.setflags(write=False)

    @property
    def n_total(self) -> int:
        return self.n_lambda + self.n_u


def project_to_weak(w, mesh: Mesh, j: int) -> np.ndarray:
    """Componentwise L2 projection of a smooth function into the weak
    space, as element rows [lam_0; traces of edges 0, 1, 2], shape
    (T, n_loc): interior projections onto P_j(T) and trace projections
    onto P_j(e) in each edge's own orientation, all elements and edges in
    one batch, on the fixed quadrature of the element tables.  Both
    elements of an interior edge hold the same trace."""
    from .assembly import ElementTables

    return _project(w, ElementTables(mesh, j))


def _l2(V, weights, w, pts) -> np.ndarray:
    """Batched L2 projections of w onto the bases V (..., nq, d) under the
    quadrature ``weights`` (..., nq) at ``pts`` (..., nq, 2), (..., d)."""
    # Mass matrix and moments in one product, so a w in the span of the
    # basis yields moments that are exact multiples of mass columns.
    wv = np.broadcast_to(np.asarray(w(pts[..., 0], pts[..., 1]), dtype=float), weights.shape)
    Mb = np.swapaxes(V, -1, -2) @ (weights[..., None] * np.concatenate([V, wv[..., None]], axis=-1))
    return np.linalg.solve(Mb[..., :-1], Mb[..., -1:])[..., 0]


def _project(w, tables) -> np.ndarray:
    """:func:`project_to_weak` on the quadrature of ``tables``.  Each mesh
    edge is projected once, on its first incident element's edge table."""
    mesh = tables.mesh
    lam0 = _l2(tables.lam0, tables.qw, w, tables.qpts)
    owner, local = mesh.edge_elems[:, 0], mesh.edge_local[:, 0]
    lamb = _l2(tables.edge_trace[owner, local], tables.ew[owner, local], w, tables.epts[owner, local])
    return np.concatenate([lam0, lamb[mesh.element_edges].reshape(len(lam0), -1)], axis=1)


def commutativity_check(w, grad_w, mesh: Mesh, j: int) -> float:
    """Max over elements of the L2 norm of

        grad_w(Q_h w) - Q_h(grad w),

    where the first term applies the discrete weak gradient to the
    projected weak function and the second projects the analytic gradient
    onto the constants (degree k-1 = 0).  Vanishes to quadrature accuracy
    for j in {k-1, k}; any other j raises ValueError.
    """
    from .assembly import ElementTables

    tables = ElementTables(mesh, j)
    lhs = np.einsum("tcn,tn->tc", tables.G, _project(w, tables))
    x, y = tables.qpts[..., 0], tables.qpts[..., 1]
    # L2 projection of grad w onto the constants.
    grad = np.stack([np.broadcast_to(np.asarray(g, dtype=float), x.shape) for g in grad_w(x, y)], axis=-1)
    rhs = np.einsum("tq,tqc->tc", tables.qw, grad) / tables.qw.sum(axis=1)[:, None]
    err2 = tables.area * ((lhs - rhs) ** 2).sum(axis=1)
    return float(np.sqrt(err2).max())
