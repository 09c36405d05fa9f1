"""Sparse solution of the symmetric indefinite saddle-point system.

The interior multiplier lam_0 couples only within its element: its block
of s(.,.) is a d0 x d0 symmetric positive definite block per element (a
P_j polynomial that vanishes on all of dT is zero, so this holds for
tau = 0 too), and its rows of b(.,.) touch only that element's u_T.
``solve`` therefore eliminates lam_0 element by element (static
condensation), factors the Schur complement over [lam_b; u] with a sparse
LU (SuperLU, partial pivoting), and recovers lam_0 locally.

Iterative refinement runs on the full assembled system: each correction is
a condensed solve of b - A x, and the residual contract is checked on the
full system by an explicit matrix-vector product, so downstream
conservation and error checks can rely on it.  A singular factor raises
:class:`SolverError`; there is no fallback.  Identical inputs produce
bitwise-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem
from .weakspace import PrimalFunction, WeakFunction

DEFAULT_TOL = 1e-11
_REFINE_STEPS = 3


class SolverError(RuntimeError):
    """Solve failed: singular system or residual contract missed."""


@dataclass
class Solution:
    """Multiplier and primal coefficients with solve diagnostics."""

    lam: WeakFunction
    u: PrimalFunction
    residual: float
    info: dict


def schur_complement(S: np.ndarray, B: np.ndarray, d0: int):
    """Eliminate the interior block of every element.

    ``S`` (T, n, n) and ``B`` (T, n) are the element stabilizer and
    coupling blocks over the local multiplier [lam_0 (d0); lam_b], the
    primal unknown being one constant per element (k=1).  With
    C = [S_0b, B_0] the coupling of lam_0 to y = [lam_b; u_T], one batched
    solve gives Z = S_00^{-1} [C, I], shape (T, d0, m + d0), and with
    X = S_00^{-1} C = Z[..., :m] the condensed element matrices are

        K = [[S_bb, B_b], [B_b^T, 0]] - C^T X,   shape (T, m, m),

    m = n - d0 + 1.  Then lam_0 = Z[..., m:] r_0 - X y.
    """
    T, n = B.shape
    m = n - d0 + 1
    C = np.concatenate([S[:, :d0, d0:], B[:, :d0, None]], axis=2)
    identity = np.broadcast_to(np.eye(d0), (T, d0, d0))
    Z = np.linalg.solve(S[:, :d0, :d0], np.concatenate([C, identity], axis=2))
    K = np.zeros((T, m, m))
    K[:, :-1, :-1] = S[:, d0:, d0:]
    K[:, :-1, -1] = K[:, -1, :-1] = B[:, d0:]
    K -= np.swapaxes(C, 1, 2) @ Z[..., :m]
    return Z, K


class _CondensedLU:
    """LU factor of the condensed system over y = [lam_b; u], with the
    element data that maps a full right-hand side in and the full solution
    out.  The lam_0 unknowns come first in the full vector, d0 per element,
    so y is the tail of x."""

    def __init__(self, system: SaddleSystem):
        dm = system.dofmap
        d0 = dm.dim_lam0
        self.n0 = dm.mesh.num_elements * d0
        Z, K = schur_complement(system.element_S, system.element_B, d0)
        m = K.shape[-1]
        self.X, self.S00_inv = Z[..., :m], Z[..., m:]
        traces = dm.lambda_indices[:, d0:]
        # Condensed indices of [lam_b; u_T] per element, -1 on outflow traces.
        self.cidx = np.concatenate(
            [np.where(traces >= 0, traces - self.n0, -1), dm.u_start[:, None] - self.n0], axis=1
        )
        self.free = self.cidx >= 0
        self.order = dm.n_total - self.n0
        mask = self.free[:, :, None] & self.free[:, None, :]
        rows = np.broadcast_to(self.cidx[:, :, None], K.shape)[mask]
        cols = np.broadcast_to(self.cidx[:, None, :], K.shape)[mask]
        Kc = sparse.csc_matrix((K[mask], (rows, cols)), shape=(self.order, self.order))
        self.nnz = Kc.nnz
        try:
            self.lu = splu(Kc)
        except RuntimeError as err:
            A = system.matrix
            raise SolverError(
                f"factorization failed ({err}): full order {A.shape[0]}, nnz {A.nnz}; "
                f"condensed order {self.order}, nnz {self.nnz}"
            ) from err

    def solve(self, b: np.ndarray) -> np.ndarray:
        r0 = b[: self.n0].reshape(self.S00_inv.shape[:2])
        load = np.einsum("tim,ti->tm", self.X, r0)[self.free]
        rc = b[self.n0 :] - np.bincount(self.cidx[self.free], weights=load, minlength=self.order)
        y = self.lu.solve(rc)
        y_loc = np.where(self.free, y[self.cidx], 0.0)
        lam0 = np.einsum("tij,tj->ti", self.S00_inv, r0) - np.einsum("tim,tm->ti", self.X, y_loc)
        return np.concatenate([lam0.ravel(), y])


def solve(system: SaddleSystem, tol: float = DEFAULT_TOL) -> Solution:
    """Solve the assembled system to relative residual <= tol.

    Factors the condensed [lam_b; u] system once and refines on the full
    system.  Raises :class:`SolverError` if the factor is singular or the
    residual contract is missed (relevant for tau=0 with j=k on very
    coarse meshes, where uniqueness needs a small enough mesh size).
    """
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-14, 1e-6], got {tol}")
    A = system.matrix
    b = system.rhs
    factor = _CondensedLU(system)
    bnorm = float(np.linalg.norm(b))

    def relative_residual(x):
        r = b - A @ x
        rnorm = float(np.linalg.norm(r))
        return r, (rnorm / bnorm if bnorm > 0 else rnorm)

    x = factor.solve(b)
    r, rel = relative_residual(x)
    residuals = [rel]
    while residuals[-1] > tol and len(residuals) <= _REFINE_STEPS:
        x = x + factor.solve(r)
        r, rel = relative_residual(x)
        residuals.append(rel)
    residual = residuals[-1]
    if not np.isfinite(residual) or residual > tol:
        raise SolverError(
            f"residual contract missed: {residual:.3e} > {tol:.3e} "
            f"(order={A.shape[0]}, condensed order={factor.order})"
        )

    dofmap = system.dofmap
    lam = WeakFunction.from_free_vector(dofmap, x[: dofmap.n_lambda])
    u = PrimalFunction.from_vector(dofmap, x[dofmap.n_lambda :])
    info = {
        "method": "splu",
        "order": int(A.shape[0]),
        "nnz": int(A.nnz),
        "condensed_order": factor.order,
        "condensed_nnz": factor.nnz,
        "fill": int(factor.lu.nnz),
        "refine_steps": len(residuals) - 1,
        "initial_residual": residuals[0],
        "tol": tol,
    }
    return Solution(lam=lam, u=u, residual=residual, info=info)
