"""Sparse solution of the symmetric indefinite saddle-point system.

The interior multiplier lam_0 and the primal u_T belong to one element
each, so ``solve`` eliminates them in their element and factors only the
traces.  :func:`eliminate` runs one right-looking L D L^T factorization,
batched over the elements, on each element matrix ordered [lam_0; u_T;
traces]: first the d0 lam_0 pivots, d0 = 1 (j = 0) or 3 (j = 1), of a
block that is symmetric positive definite (a P_j polynomial that vanishes
on all of dT is zero, so this holds for tau = 0 too), where a pivot that
is not positive and finite raises :class:`SolverError` naming its
element; then u_T's pivot kappa = -B_0^T S_00^{-1} B_0 <= 0, exactly 0
where c = 0, shifted to p = kappa - delta max|k|^2 / max|K_tt| (k u_T's
column over the free traces, K_tt their block, delta = ``_SHIFT``): the
regularization that makes a saddle-point system quasi-definite
(Vanderbei, SIAM J. Optim. 5, 1995; Friedlander and Orban, Math.
Program. Comput. 4, 2012).  What is left of each element matrix is its
trace block K_tt - k k^T / p, the Schur complement of the semidefinite
stabilizer plus k k^T / |p|, so their sum is symmetric positive definite
on a regular system, and SuperLU factors it in double precision with no
row interchanges (``diag_pivot_thresh=0``) in the numbering of
``DofMap.element_indices``, the fill-reducing order read off the
refinement tree (:class:`pdwg.weakspace.DofMap`): this module orders
nothing.  No global matrix is kept beside the factor, and only each
pivot and its multiplier column stay of the element matrices.

A solve takes element rows [lam_0; traces of edges 0, 1, 2; u_T] of a
right-hand side, the trace rows being each element's share, and returns
element rows: forward substitution in each element, one SuperLU solve
of the summed trace rows, and back substitution in each element.  The
traces come from one entry of the trace solution, 0 on outflow edges, so
both elements of an interior edge hold them bit for bit
(:attr:`Solution.local`).

The shift changes the factor, not the system solved.  Iterative
refinement (Carson and Higham, SIAM J. Sci. Comput. 40, 2018) adds the
solve of the element-wise residual of the full, unshifted system
(:meth:`SaddleSystem.residual`) to the element rows until the residual's
summed trace rows and u_T rows are at double round-off, max|r| <= eps
max|K| max|x| (K the unshifted element matrices with lam_0 eliminated,
x the traces and u_T), or they stop halving, or ``_REFINE_STEPS``
corrections have run; this removes the shift's error.  Stopping at tol
would not do: with |f| up to 1e4 (fig8-fig10_f10000) a residual just
under 1e-11 leaves flux jumps of up to 5.8e-8.  The last residual is the
one the residual contract checks.

The shifted factor also "solves" a singular system, to a huge u with a
residual at round-off, so ``solve`` first refuses one with
:func:`pdwg.assembly.check_regular`.  ``info`` reports ``refine_steps``,
the corrections after the first solve, ``initial_residual``, the first
solve's ||b - A x|| / ||b||, ``factor_s``, the seconds of the SuperLU
call, ``separator_edges``, the DOF map's root separator, and
``row_interchanges``, the rows SuperLU moved (0).  A first solve that is
not finite, or a refinement that ends above tol, raises
:class:`SolverError`; there is no fallback.  Identical inputs produce
bitwise-identical solutions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem, check_regular, scatter

DEFAULT_TOL = 1e-11
# Correction solves after the first, at most.  Of the 528 catalog systems
# of levels 0-5, 4 take 0 steps, 380 one, 127 two and 17 three.
_REFINE_STEPS = 20
_EPS = np.finfo(float).eps
# delta of u_T's shifted pivot, relative to its element's scale.  Each of
# 1e-12, 1e-10, 1e-8 and 1e-6 keeps all 528 catalog systems of levels 0-5
# in contract, refined in at most 8, 3, 3 and 4 steps; at 1e-13 fig4_tau1
# and fig5_tau1 j = 1 level 5 miss it.  1e-10 is mid-window.
_SHIFT = 1e-10


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


def eliminate(A: np.ndarray, d0: int):
    """Eliminate each element's own unknowns, in place.

    ``A`` (n, n, T) holds the element matrices with the element axis last,
    so each row operation runs over contiguous memory, over [lam_0 (d0);
    u_T; traces], outflow traces zeroed.  A right-looking L D L^T step on
    pivot i divides its column below the diagonal into the multipliers and
    subtracts col col^T / d_i from the block below, which stays exactly
    symmetric.  The first d0 pivots are lam_0's; a pivot that is not
    positive and finite raises :class:`SolverError` naming the first such
    element.  Pivot d0 is u_T's, shifted to kappa - delta max|k|^2 /
    max|K_tt| (k its column, K_tt the trace block, delta = ``_SHIFT``).

    Returns the pivots (d0 + 1, T) and max|K|, K the element matrices
    after the lam_0 pivots; each multiplier column is left in A[i + 1:, i]
    and the trace blocks in A[d0 + 1:, d0 + 1:].
    """
    pivots = np.empty((d0 + 1, A.shape[-1]))
    for i in range(d0 + 1):
        col = A[i + 1 :, i]
        if i < d0:
            pivots[i] = A[i, i]
            bad = ~((pivots[i] > 0) & (pivots[i] < np.inf))
            if bad.any():
                t = int(np.flatnonzero(bad)[0])
                raise SolverError(
                    f"interior block of element {t} is not positive definite: LDL^T pivot {i} is {pivots[i, t]}"
                )
        else:
            kmax = np.abs(A[d0:, d0:]).max()
            shift = _SHIFT * np.abs(col).max(axis=0) ** 2 / np.abs(A[d0 + 1 :, d0 + 1 :]).max(axis=(0, 1))
            pivots[i] = A[i, i] - shift
        # One (m, m, T) temporary at a time, the largest array here.
        update = col[:, None] * col
        update /= pivots[i]
        A[i + 1 :, i + 1 :] -= update
        del update
        col /= pivots[i]
    return pivots, kmax


class _CondensedLU:
    """The element pivots and multiplier columns of :func:`eliminate` and
    the LU factor of the trace system that they leave.  ``kmax`` is the
    largest magnitude of the unshifted element matrices with lam_0
    eliminated; neither they nor the trace matrix are kept."""

    def __init__(self, system: SaddleSystem):
        dm = self.dofmap = system.dofmap
        d0, n = dm.dim_lam0, system.element_matrix.shape[-1]
        # [lam_0; u_T; traces] of [lam_0; traces; u_T], and back.
        self.own_first = np.r_[:d0, n - 1, d0 : n - 1]
        self.back = np.r_[:d0, d0 + 1 : n, d0]
        A = system.element_matrix.transpose(1, 2, 0)[np.ix_(self.own_first, self.own_first)]
        # Outflow traces are not unknowns: zero their rows and columns.
        free = np.ones(A.shape[1:])
        free[d0 + 1 :] = dm.gather(np.ones(dm.n_condensed)).T
        A *= free
        A *= free[:, None]
        self.pivots, self.kmax = eliminate(A, d0)
        self.cols = [A[i + 1 :, i].copy() for i in range(d0 + 1)]
        Kc = scatter(A[d0 + 1 :, d0 + 1 :].transpose(2, 0, 1), dm.element_indices, dm.n_condensed)
        # The trace blocks are in Kc now; free the elimination buffer before the factor.
        del A, free
        self.nnz = Kc.nnz
        start = time.perf_counter()
        try:
            # SuperLU keeps no reference to Kc, which goes on return.
            self.lu = splu(Kc, permc_spec="NATURAL", diag_pivot_thresh=0, options=dict(SymmetricMode=True))
        except RuntimeError as err:
            raise SolverError(
                f"factorization failed ({err}): full order {dm.n_total}, nnz {system.nnz}; "
                f"condensed order {dm.n_condensed}, nnz {self.nnz}"
            ) from err
        self.factor_s = time.perf_counter() - start

    def solve(self, r: np.ndarray) -> np.ndarray:
        """One solve with u_T's shifted pivots of the element rows ``r``
        (T, n_loc + 1), whose trace rows are summed, returning element
        rows, 0 on outflow traces."""
        dm, cols = self.dofmap, self.cols
        d0 = len(cols) - 1
        x = r.T[self.own_first]
        for i, col in enumerate(cols):
            x[i + 1 :] -= col * x[i]
        x[d0 + 1 :] = dm.gather(self.lu.solve(dm.add(x[d0 + 1 :].T))).T
        for i in reversed(range(d0 + 1)):
            x[i] = x[i] / self.pivots[i] - np.einsum("it,it->t", cols[i], x[i + 1 :])
        return np.take(x.T, self.back, axis=1)


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` lies in the range ``solve`` accepts."""
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-14, 1e-6], got {tol}")


def solve(system: SaddleSystem, tol: float = DEFAULT_TOL) -> Solution:
    """Solve the assembled system to relative residual <= tol.

    Refuses a singular system with ``check_regular`` (ValueError naming
    the kernel or the element), then eliminates lam_0 and u_T in their
    elements, u_T against its shifted pivot, factors the traces once, and
    refines the element rows: each step adds the solve of the element-wise
    residual of the full system until its summed trace rows and its u_T
    rows are at double round-off, max|r| <= eps max|K| max|x|, or stop
    halving, or ``_REFINE_STEPS`` corrections have run.  The last residual
    is checked against tol.  Raises :class:`SolverError` if an interior
    block is not positive definite, the first solve is not finite or the
    residual contract is missed (relevant for tau=0 with j=k on very
    coarse meshes, where uniqueness needs a small enough mesh size).
    """
    check_tol(tol)
    check_regular(system)
    dm = system.dofmap
    d0, n = dm.dim_lam0, dm.n_condensed
    factor = _CondensedLU(system)

    def full(rows):
        """The full vector of element rows: lam_0, the summed traces, u_T."""
        return np.concatenate([rows[:, :d0].ravel(), dm.add(rows[:, d0:-1]), rows[:, -1]])

    bnorm = float(np.linalg.norm(full(system.load)))
    bnorm = bnorm if bnorm > 0 else 1.0

    local = factor.solve(system.load)
    if not np.isfinite(local).all():
        raise SolverError(
            f"singular factor: the first solve is not finite "
            f"(full order {dm.n_total}, condensed order {n})"
        )
    residuals, last, steps = [], np.inf, 0
    while True:
        r = system.residual(local)
        rfull = full(r)
        residuals.append(float(np.linalg.norm(rfull)) / bnorm)
        rmax = np.abs(rfull[r[:, :d0].size :]).max()
        if rmax <= _EPS * factor.kmax * np.abs(local[:, d0:]).max() or rmax > last / 2 or steps == _REFINE_STEPS:
            break
        local, last, steps = local + factor.solve(r), rmax, steps + 1
    residual = residuals[-1]
    if not np.isfinite(residual) or residual > tol:
        raise SolverError(
            f"residual contract missed: {residual:.3e} > {tol:.3e} after {steps} refinement steps "
            f"(order={dm.n_total}, condensed order={n})"
        )

    info = {
        "method": "splu",
        "order": dm.n_total,
        "nnz": system.nnz,
        "condensed_order": n,
        "condensed_nnz": factor.nnz,
        "factor_s": factor.factor_s,
        "separator_edges": dm.separator_edges,
        "fill": int(factor.lu.nnz),
        # n log2 n vanishes at n = 1, where n stands in for it.
        "fill_per_nlogn": float(factor.lu.nnz / (n * max(np.log2(n), 1.0))),
        "row_interchanges": int(np.count_nonzero(factor.lu.perm_r != np.arange(n))),
        "refine_steps": steps,
        "initial_residual": residuals[0],
        "tol": tol,
    }
    return Solution(local=local, residual=residual, info=info)
