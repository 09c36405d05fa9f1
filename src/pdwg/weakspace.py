"""Degrees of freedom for the weak and primal spaces, and the discrete
weak gradient.

The multiplier space pairs an interior polynomial of degree j per element
with an independent trace polynomial of degree j per edge; traces on
outflow edges are constrained to zero and never receive a global index.
The primal space is fully discontinuous, degree k-1 per element.

The discrete weak gradient of a weak function v = {v0, vb} on a triangle T
is the vector polynomial of degree r = k-1 defined by

    (grad_w v, psi)_T = -(v0, div psi)_T + <vb, psi . n>_{dT}

for all vector polynomials psi of degree r.  For k=1 the range is the
constants, so grad_w v = (1/|T|) <vb, n>_{dT}; the element tables of
:mod:`pdwg.assembly` hold this closed form for every element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BoundaryClassification, Mesh
from .poly import dim_poly2d, project_edge, project_element


class DofMap:
    """Global indexing for the multiplier and primal unknowns.

    Multiplier indices come first: one block of dim P_j(T) per element,
    then one block of dim P_j(e) per free (non-outflow) edge.  Primal
    indices follow, one block of dim P_{k-1}(T) per element.
    """

    def __init__(self, mesh: Mesh, k: int, j: int, classification: BoundaryClassification):
        if k != 1:
            raise ValueError(f"only the lowest order k=1 is supported, got k={k}")
        if j not in (k - 1, k):
            raise ValueError(f"j must be k-1 or k, got j={j} for k={k}")
        self.mesh = mesh
        self.classification = classification
        self.k = k
        self.j = j
        self.dim_lam0 = dim_poly2d(j)
        self.dim_lamb = j + 1
        self.dim_u = dim_poly2d(k - 1)

        T = mesh.num_elements
        E = mesh.num_edges
        constrained = np.zeros(E, dtype=bool)
        constrained[classification.outflow_edges] = True
        self.constrained_edge = constrained

        self.lam0_start = np.arange(T, dtype=np.int64) * self.dim_lam0
        rank = np.cumsum(~constrained) - 1
        self.lamb_start = np.where(
            constrained, -1, T * self.dim_lam0 + rank * self.dim_lamb
        ).astype(np.int64)
        self.n_free_edges = int((~constrained).sum())
        self.n_lambda = T * self.dim_lam0 + self.n_free_edges * self.dim_lamb
        self.n_u = T * self.dim_u
        self.u_start = self.n_lambda + np.arange(T, dtype=np.int64) * self.dim_u

        # Local multiplier blocks [interior; trace edge 0; 1; 2] of every
        # element, -1 marking constrained (outflow) trace entries.
        starts = self.lamb_start[mesh.element_edges][..., None]
        traces = np.where(starts < 0, -1, starts + np.arange(self.dim_lamb))
        self.lambda_indices = np.concatenate(
            [self.lam0_start[:, None] + np.arange(self.dim_lam0), traces.reshape(T, -1)], axis=1
        )
        self.lambda_indices.setflags(write=False)

    @property
    def n_total(self) -> int:
        return self.n_lambda + self.n_u

    def is_constrained_edge(self, e: int) -> bool:
        return bool(self.constrained_edge[e])

    def element_lambda_indices(self, t: int) -> np.ndarray:
        """Global indices of the local multiplier block of element t, laid
        out as [interior; trace edge 0; trace edge 1; trace edge 2], with
        -1 marking constrained (outflow) trace entries."""
        return self.lambda_indices[t]

    def free_trace_indices(self):
        """The free (non-outflow) edges and the global indices of their
        trace blocks, shape (n_free_edges, dim_lamb)."""
        free = np.flatnonzero(self.lamb_start >= 0)
        return free, self.lamb_start[free, None] + np.arange(self.dim_lamb)

    def u_indices(self, t: int) -> np.ndarray:
        return self.u_start[t] + np.arange(self.dim_u)


@dataclass
class WeakFunction:
    """Coefficients of a weak function: per-element interior polynomials
    (rows of ``lam0``) and per-edge trace polynomials (rows of ``lamb``).
    Trace rows on constrained edges are identically zero."""

    lam0: np.ndarray
    lamb: np.ndarray

    @classmethod
    def zeros(cls, dofmap: DofMap) -> "WeakFunction":
        return cls(
            lam0=np.zeros((dofmap.mesh.num_elements, dofmap.dim_lam0)),
            lamb=np.zeros((dofmap.mesh.num_edges, dofmap.dim_lamb)),
        )

    @classmethod
    def from_free_vector(cls, dofmap: DofMap, x: np.ndarray) -> "WeakFunction":
        wf = cls.zeros(dofmap)
        T = dofmap.mesh.num_elements
        wf.lam0[:] = x[: T * dofmap.dim_lam0].reshape(T, dofmap.dim_lam0)
        free, cols = dofmap.free_trace_indices()
        wf.lamb[free] = x[cols]
        return wf

    def free_vector(self, dofmap: DofMap) -> np.ndarray:
        x = np.zeros(dofmap.n_lambda)
        T = dofmap.mesh.num_elements
        x[: T * dofmap.dim_lam0] = self.lam0.ravel()
        free, cols = dofmap.free_trace_indices()
        x[cols] = self.lamb[free]
        return x


@dataclass
class PrimalFunction:
    """Coefficients of a fully discontinuous piecewise polynomial, one row
    of TriBasis(k-1) coefficients per element."""

    coeffs: np.ndarray

    @classmethod
    def from_vector(cls, dofmap: DofMap, x: np.ndarray) -> "PrimalFunction":
        T = dofmap.mesh.num_elements
        return cls(coeffs=x.reshape(T, dofmap.dim_u).copy())

    def vector(self) -> np.ndarray:
        return self.coeffs.ravel().copy()


def weak_gradient_local(
    mesh: Mesh,
    t: int,
    k: int,
    j: int,
    edge_quad_points: int = 5,
) -> np.ndarray:
    """Matrix of the discrete weak gradient on element t.

    Maps local weak-function coefficients [interior; 3 edge traces] to the
    coefficients of a degree k-1 vector polynomial; returned with shape
    (2, dim P_{k-1}, n_local).  Only k=1 is implemented: the range is the
    constants and the operator is the closed form of the element tables.
    """
    if k != 1:
        raise ValueError(f"the weak gradient is implemented for k=1 only, got k={k}")
    from .assembly import ElementTables

    return ElementTables(mesh, j, 1, edge_quad_points, [t]).G[0][:, None, :]


def project_to_weak(w, mesh: Mesh, j: int, quad_degree: int | None = None) -> WeakFunction:
    """Componentwise L2 projection of a smooth function into the weak
    space: interior projections onto P_j(T) and trace projections onto
    P_j(e) for every edge."""
    lam0 = np.zeros((mesh.num_elements, dim_poly2d(j)))
    for t in range(mesh.num_elements):
        lam0[t] = project_element(w, j, mesh.element_coords(t), quad_degree)
    lamb = np.zeros((mesh.num_edges, j + 1))
    for e in range(mesh.num_edges):
        a, b = mesh.edges[e]
        lamb[e] = project_edge(w, j, mesh.vertices[a], mesh.vertices[b])
    return WeakFunction(lam0=lam0, lamb=lamb)


def commutativity_check(
    w,
    grad_w,
    mesh: Mesh,
    k: int,
    j: int,
    quad_degree: int | None = None,
) -> float:
    """Max over elements of the L2 norm of

        grad_w(Q_h w) - Q_h(grad w),

    where the first term applies the discrete weak gradient to the
    projected weak function and the second projects the analytic gradient
    onto degree k-1.  Vanishes to quadrature accuracy for j >= k-1.
    """
    if j < k - 1:
        raise ValueError("commutativity requires j >= k-1")
    if k != 1:
        raise ValueError(f"the weak gradient is implemented for k=1 only, got k={k}")
    from .assembly import ElementTables

    qd = quad_degree if quad_degree is not None else 2 * j + 6
    tables = ElementTables(mesh, j, qd, 5)
    lhs = np.einsum("tcn,tn->tc", tables.G, tables.local_coefficients(project_to_weak(w, mesh, j, qd)))
    x, y = tables.qpts[..., 0], tables.qpts[..., 1]
    # L2 projection of grad w onto the constants.
    grad = np.stack([np.broadcast_to(np.asarray(g, dtype=float), x.shape) for g in grad_w(x, y)], axis=-1)
    rhs = np.einsum("tq,tqc->tc", tables.qw, grad) / tables.qw.sum(axis=1)[:, None]
    err2 = tables.area * ((lhs - rhs) ** 2).sum(axis=1)
    return float(np.sqrt(err2).max())
