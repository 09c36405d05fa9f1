"""Sparse solution of the symmetric indefinite saddle-point system.

The interior multiplier lam_0 couples only within its element: its block
of s(.,.) is a d0 x d0 symmetric positive definite block per element (a
P_j polynomial that vanishes on all of dT is zero, so this holds for
tau = 0 too), and its rows of b(.,.) touch only that element's u_T.
``solve`` therefore eliminates lam_0 element by element (static
condensation), factors the Schur complement over [lam_b; u] with a sparse
LU (SuperLU, threshold pivoting), and recovers lam_0 locally.  The
interior block has d0 = 1 (j = 0) or d0 = 3 (j = 1) unknowns; it is
inverted in closed form (d0 = 1) or by an L D L^T factorization written
out over the element axis (d0 = 3), where a pivot that is not positive
and finite raises :class:`SolverError` naming its element.

The factor runs in one fill-reducing order, :func:`nested_dissection`,
built from the mesh: a recursive coordinate bisection of the free edges,
cut between coordinate values, whose separators are the smaller side of
each cut read off the element-edge incidence, with every u_T placed after
the traces of its element.

Only [lam_b; u] is numbered (``DofMap.element_indices``); lam_0 stays in
its element rows.  Each condensed solve takes the lam_0 rows and the
condensed part of a right-hand side and hands back element rows
[lam_0; traces of edges 0, 1, 2; u_T], with 0 on outflow traces, so both
elements of an interior edge read its traces from one entry of the
factor's solution, bit for bit.  Iterative refinement adds correction
rows for b - A x, with A applied to the rows element by element by
:meth:`SaddleSystem.matvec` (no sparse matrix built), and the residual
contract is checked on the full system, lam_0 rows included.  The
refined rows are :attr:`Solution.local`.  A singular factor raises
:class:`SolverError`; there is no fallback.  Identical inputs produce
bitwise-identical solutions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem, scatter
from .weakspace import DofMap

DEFAULT_TOL = 1e-11
_REFINE_STEPS = 3
# Parts of at most this many free edges are not bisected further.  16
# rather than 64 takes the table5 L6 fill from 3.86M to 3.25M; 8 takes
# under 3% more off, for one more round per part.
_LEAF_EDGES = 16
# SuperLU keeps the diagonal pivot unless it is below this fraction of the
# column maximum.  The default 1.0 gives 8.8 times the fill at table5 L6
# (28.5M against 3.25M), and 0 leaves a first residual of 1.2e-2 on
# fig4_tau0 L6 (c = 0, tau = 0); the tests sweep the catalog against it.
_PIVOT_THRESHOLD = 0.01


class SolverError(RuntimeError):
    """Solve failed: singular system or residual contract missed."""


@dataclass
class Solution:
    """The refined element rows of the solve, ``local`` (T, n_loc + 1),
    over [lam_0; traces of edges 0, 1, 2; u_T] with 0 on outflow traces,
    and solve diagnostics."""

    local: np.ndarray
    residual: float
    info: dict


def schur_complement(E: np.ndarray, d0: int):
    """Eliminate the interior block of every element.

    ``E`` (T, n, n) holds the element matrices over [lam_0 (d0); y], with
    y = [lam_b; u_T] the unknowns kept.  With C = E_0y the coupling of
    lam_0 to y, Z = E_00^{-1} [C, I], shape (T, d0, m + d0), and with
    X = E_00^{-1} C = Z[..., :m] the condensed element matrices are

        K = E_yy - C^T X,   shape (T, m, m),

    m = n - d0.  Then lam_0 = Z[..., m:] r_0 - X y.

    d0 is 1 (j = 0) or 3 (j = 1); any other d0 raises ValueError.  With
    d0 = 1 the blocks are scalars a and Z = [C, 1] * (1 / a), which is
    bitwise what LAPACK's 1 x 1 solve returns (it multiplies by the
    inverted pivot).  With d0 = 3, :func:`_ldl_solve` factors every block
    as L D L^T, written out over the element axis.  Either way no LAPACK
    call is made per element.
    """
    if d0 not in (1, 3):
        raise ValueError(f"the interior block must be 1 x 1 or 3 x 3, got d0={d0}")
    n = E.shape[1]
    C = E[:, :d0, d0:]
    if d0 == 1:
        inv = 1.0 / E[:, :1, :1]
        Z = np.concatenate([C * inv, inv], axis=2)
    else:
        Z = _ldl_solve(E)
    K = E[:, d0:, d0:] - np.swapaxes(C, 1, 2) @ Z[..., : n - d0]
    return Z, K


def _ldl_solve(E: np.ndarray) -> np.ndarray:
    """Z = E_00^{-1} [C, I] for the 3 x 3 interior blocks E_00 of ``E``.

    Each symmetric positive definite block is factored as L D L^T, the
    Cholesky factorization without square roots, read from its lower
    triangle; forward substitution, the division by D and back
    substitution then run on the rows of [C, I].  Like LAPACK's solve,
    and unlike an explicit adjugate inverse, this is backward stable
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    chs. 10 and 14).  A pivot of D that is not positive and finite raises
    :class:`SolverError` naming the first such element.
    """
    T, n = E.shape[:2]
    a00, a10, a20 = E[:, 0, 0], E[:, 1, 0], E[:, 2, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        l10, l20 = a10 / a00, a20 / a00
        d1 = E[:, 1, 1] - l10 * a10
        v = E[:, 2, 1] - l20 * a10
        l21 = v / d1
        d2 = E[:, 2, 2] - l20 * a20 - l21 * v
    pivots = np.stack([a00, d1, d2], axis=1)
    bad = ~((pivots > 0) & (pivots < np.inf)).all(axis=1)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        raise SolverError(f"interior block of element {t} is not positive definite: LDL^T pivots {pivots[t]}")
    # [C, I] with the element axis last, so each row operation runs over
    # contiguous memory.
    R = np.zeros((3, n, T))
    R[:, : n - 3] = E[:, :3, 3:].transpose(1, 2, 0)
    R[0, n - 3] = R[1, n - 2] = R[2, n - 1] = 1.0
    y0, y1, y2 = R
    y1 -= l10 * y0
    y2 -= l20 * y0
    y2 -= l21 * y1
    y0 /= a00
    y1 /= d1
    y2 /= d2
    y1 -= l21 * y2
    y0 -= l10 * y1
    y0 -= l20 * y2
    return R.transpose(2, 0, 1)


def nested_dissection(dofmap: DofMap) -> tuple[np.ndarray, np.ndarray]:
    """Fill-reducing order of the condensed unknowns [lam_b; u_T].

    The free edges are split by a batched recursive coordinate bisection
    of their midpoints, one round of array operations per tree level.  A
    part with more than ``_LEAF_EDGES`` edges is cut along the longer side
    of its bounding box, between coordinate values: its edges at or above
    the median edge's value go right (strictly above, when that value is
    the part's smallest, so neither child is empty).  The separator is the
    smaller of two sets, the left edges that share an element with a right
    edge and the right edges that share an element with a left edge (the
    left one on a tie); on a mesh line that is the line itself, one edge
    per cell.  The part is laid out as left and right (each without the
    separator), then separator, the first two recursing in place.  A leaf
    keeps its edges in x order, and a mesh of no more than
    ``_LEAF_EDGES`` free edges keeps them in free-edge order.  The trace
    unknowns of an edge keep its place, and each u_T goes right after the
    last free trace of its element: its condensed diagonal
    -B_0^T S_00^{-1} B_0 is exactly 0 when c = 0, so it has to come after
    the unknowns that fill it in.

    Returns ``perm``, the condensed index placed at each position
    (perm[new] = old), and ``nodes``, one row (start, left, right,
    separator) per bisection: the first position of the node in the
    edge order and the sizes of its three parts, in edges.
    """
    mesh, T, db = dofmap.mesh, dofmap.mesh.num_elements, dofmap.dim_lamb
    F = dofmap.n_free_edges
    # Free-edge rank of each element edge, -1 (-1 // db) on outflow edges.
    elem_free = dofmap.lamb_start[mesh.element_edges] // db
    # Sort key of every free edge: twice its place in the edge order.
    edge_key = np.arange(0, 2 * F, 2)
    nodes = []
    if F > _LEAF_EDGES:
        free = dofmap.lamb_start >= 0
        ends = mesh.edges[free]
        x, y = (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]]).T
        # Both elements of each free edge; -1 (boundary) hits the last slot.
        elem0, elem1 = mesh.edge_elems[free].T.copy()
        # The free edges sorted along x and along y.  Every split reorders
        # both stably, so each part stays sorted along both axes and no
        # level sorts coordinates again.
        by_x, by_y = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
        has_left, has_right = np.zeros(T + 1, dtype=bool), np.zeros(T + 1, dtype=bool)
        key = np.empty(F, dtype=np.int64)
        starts, sizes = np.zeros(1, dtype=np.int64), np.array([F])
        while len(starts):
            m, stops = len(starts), starts + sizes - 1
            use_y = y[by_y[stops]] - y[by_y[starts]] > x[by_x[stops]] - x[by_x[starts]]
            part, first = np.repeat(np.arange(m), sizes), np.cumsum(sizes) - sizes
            pos = np.arange(len(part)) + (starts - first)[part]
            ex, ey = by_x[pos], by_y[pos]
            e = np.where(use_y[part], ey, ex)
            # Cut between coordinate values: the edges at or above the
            # median edge's value go right, or, when that value is the
            # part's smallest, the edges strictly above it.
            coord = np.where(use_y[part], y[e], x[e])
            median, low = coord[first + sizes // 2], coord[first]
            right = np.where((median == low)[part], coord > median[part], coord >= median[part])
            # No element couples the two children of a node, so an element
            # holds edges of at most one part.  An element holding edges of
            # both sides is cut, and either side's edges in cut elements
            # separate: take the smaller side, the left one on a tie.
            e0, e1, left = elem0[e], elem1[e], ~right
            has_left[:] = has_right[:] = False
            has_left[e0[left]] = has_left[e1[left]] = True
            has_right[e0[right]] = has_right[e1[right]] = True
            has_left[-1] = False
            cut_elem = has_left & has_right
            in_cut = cut_elem[e0] | cut_elem[e1]
            take_right = np.bincount(part[in_cut & right], minlength=m) < np.bincount(
                part[in_cut & left], minlength=m
            )
            sep = in_cut & (right == take_right[part])
            group = 3 * part + np.where(sep, 2, right)
            key[e] = group
            by_x[pos] = ex[np.argsort(key[ex], kind="stable")]
            by_y[pos] = ey[np.argsort(key[ey], kind="stable")]
            counts = np.bincount(group, minlength=3 * m).reshape(m, 3)
            nodes.append(np.column_stack([starts, counts]))
            starts = np.concatenate([starts, starts + counts[:, 0]])
            sizes = counts[:, :2].T.ravel()
            starts, sizes = starts[sizes > _LEAF_EDGES], sizes[sizes > _LEAF_EDGES]
        place = np.empty(F + 1, dtype=np.int64)
        place[by_x] = edge_key
        place[F] = -2
        edge_key, elem_key = place[:F], place[elem_free]
    else:
        elem_key = 2 * elem_free
    # u_T sorts right after the last free trace of its element, and before
    # everything if its element has none.
    last = np.maximum(np.maximum(elem_key[:, 0], elem_key[:, 1]), elem_key[:, 2])
    key = np.concatenate([np.repeat(edge_key, db), last + 1])
    perm = np.argsort(key, kind="stable")
    return perm, (np.concatenate(nodes) if nodes else np.zeros((0, 4), dtype=np.int64))


class _CondensedLU:
    """LU factor of the condensed system over y = [lam_b; u], the unknowns
    numbered by ``DofMap.element_indices``, with the element data that
    maps a right-hand side, its lam_0 rows and its y part, in and element
    rows out.  The condensed matrix is built and factored in the
    :func:`nested_dissection` order, position i holding y[perm[i]]."""

    def __init__(self, system: SaddleSystem):
        dm = system.dofmap
        Z, K = schur_complement(system.element_matrix, dm.dim_lam0)
        m = K.shape[-1]
        self.X, self.S00_inv = Z[..., :m], Z[..., m:]
        self.free = dm.element_indices >= 0
        self.order = dm.n_condensed
        start = time.perf_counter()
        self.perm, nodes = nested_dissection(dm)
        self.order_s = time.perf_counter() - start
        self.separator_edges = int(nodes[:, 3].sum())
        # int32, the index type SuperLU takes, so scipy keeps the indices
        # of the condensed matrix as they are instead of checking and
        # casting them.
        inv = np.empty(self.order, dtype=np.int32)
        inv[self.perm] = np.arange(self.order, dtype=np.int32)
        # The element indices in the factored (permuted) numbering.
        self.idx = np.where(self.free, inv[dm.element_indices], -1)
        Kc = scatter(K, self.idx, self.order)
        # The element matrices are in Kc now; free them before the factor.
        del K
        self.nnz = Kc.nnz
        try:
            self.lu = splu(
                Kc,
                permc_spec="NATURAL",
                diag_pivot_thresh=_PIVOT_THRESHOLD,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as err:
            raise SolverError(
                f"factorization failed ({err}): full order {dm.n_total}, nnz {system.nnz}; "
                f"condensed order {self.order}, nnz {self.nnz}"
            ) from err

    def solve(self, r0: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Element rows solving for lam_0 rows ``r0`` and the rest ``r``."""
        load = np.einsum("tim,ti->tm", self.X, r0)[self.free]
        rc = r[self.perm] - np.bincount(self.idx[self.free], load, self.order)
        y = self.lu.solve(rc)
        y_loc = np.where(self.free, y[self.idx], 0.0)
        lam0 = np.einsum("tij,tj->ti", self.S00_inv, r0) - np.einsum("tim,tm->ti", self.X, y_loc)
        return np.concatenate([lam0, y_loc], axis=1)


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` lies in the range ``solve`` accepts."""
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-14, 1e-6], got {tol}")


def solve(system: SaddleSystem, tol: float = DEFAULT_TOL) -> Solution:
    """Solve the assembled system to relative residual <= tol.

    Factors the condensed [lam_b; u] system once and refines on the full
    system, applied element by element.  Raises :class:`SolverError` if
    an interior block is not positive definite, the factor is singular or
    the residual contract is missed (relevant for tau=0 with j=k on very
    coarse meshes, where uniqueness needs a small enough mesh size).
    """
    check_tol(tol)
    b0, b = system.rhs0, system.rhs
    factor = _CondensedLU(system)
    # The full vector is the lam_0 rows, element by element, then the rest.
    bnorm = float(np.linalg.norm(np.concatenate([b0.ravel(), b])))

    def relative_residual(local):
        y0, y = system.matvec(local)
        r0, r = b0 - y0, b - y
        rnorm = float(np.linalg.norm(np.concatenate([r0.ravel(), r])))
        return r0, r, (rnorm / bnorm if bnorm > 0 else rnorm)

    local = factor.solve(b0, b)
    r0, r, rel = relative_residual(local)
    residuals = [rel]
    while residuals[-1] > tol and len(residuals) <= _REFINE_STEPS:
        local = local + factor.solve(r0, r)
        r0, r, rel = relative_residual(local)
        residuals.append(rel)
    residual = residuals[-1]
    if not np.isfinite(residual) or residual > tol:
        raise SolverError(
            f"residual contract missed: {residual:.3e} > {tol:.3e} "
            f"(order={system.dofmap.n_total}, condensed order={factor.order})"
        )

    info = {
        "method": "splu",
        "order": system.dofmap.n_total,
        "nnz": system.nnz,
        "condensed_order": factor.order,
        "condensed_nnz": factor.nnz,
        "ordering": "nested_dissection",
        "order_s": factor.order_s,
        "separator_edges": factor.separator_edges,
        "fill": int(factor.lu.nnz),
        "fill_per_nlogn": float(factor.lu.nnz / (factor.order * np.log2(factor.order))),
        "refine_steps": len(residuals) - 1,
        "initial_residual": residuals[0],
        "tol": tol,
    }
    return Solution(local=local, residual=residual, info=info)
