"""Sparse solution of the symmetric indefinite saddle-point system.

The interior multiplier lam_0 couples only within its element: its block
of s(.,.) is a d0 x d0 symmetric positive definite block per element (a
P_j polynomial that vanishes on all of dT is zero, so this holds for
tau = 0 too), and its rows of b(.,.) touch only that element's u_T.
``solve`` therefore eliminates lam_0 element by element (static
condensation), factors the Schur complement over [lam_b; u] with a sparse
LU (SuperLU, threshold pivoting) in single precision, refines its
solution in double, and recovers lam_0 locally.  The interior block has
d0 = 1 (j = 0) or d0 = 3 (j = 1) unknowns; it is inverted in closed form
(d0 = 1) or by an L D L^T factorization written out over the element
axis (d0 = 3), where a pivot that is not positive and finite raises
:class:`SolverError` naming its element.

Only [lam_b; u] is numbered, once, by ``DofMap.element_indices``, and
that numbering is already the factor's fill-reducing order (nested
dissection read off the refinement tree, :class:`pdwg.weakspace.DofMap`):
the condensed matrix, its right-hand side and solution live in it, and
this module orders nothing.  ``info["separator_edges"]`` is the DOF map's
root separator.  lam_0 stays in its element rows, and the right-hand
side is condensed once.  SuperLU factors the condensed matrix Kc with
its values cast to float32, which halves the bytes of every factor
value; no global matrix is kept beside the factor.  Each single-precision
solve scales its right-hand side by its largest magnitude, casts it to
float32, and casts the result back and unscales it.  lam_0 is recovered
from every solution, as element rows [lam_0; traces of edges 0, 1, 2;
u_T] with 0 on outflow traces, so both elements of an interior edge read
its traces from one entry of y, bit for bit; these rows are
:attr:`Solution.local`.  Iterative refinement in double (Langou et al.,
SC 2006; Carson and Higham, SIAM J. Sci. Comput. 40, 2018) forms the
residual of the full system from them, lam_0 rows included, with A
applied element by element by :meth:`SaddleSystem.matvec` (no sparse
matrix built), and adds a single-precision solve of its condensed part r
until max|r| <= eps max|Kc| max|y| (max|Kc| from the double values
before the cast), or r stops halving, or ``_REFINE_STEPS`` corrections
have run.  Stopping at tol would not do: the flux jumps scale with the
load, and with |f| up to 1e4 (fig8-fig10_f10000) a residual just under
1e-11 leaves jumps of up to 5.8e-8.  The last residual is the one the
residual contract checks.  ``info`` reports ``factor_dtype``
("float32"), ``refine_steps``, the corrections after the first solve,
``initial_residual``, the first solve's ||b - A x|| / ||b||, the
seconds of the SuperLU call, ``factor_s``, and ``row_interchanges``,
the rows its threshold pivoting moved.  A first solve that is not
finite (a singular factor), or a refinement that ends above tol,
raises :class:`SolverError`; there is no fallback.  Identical inputs produce bitwise-identical solutions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SaddleSystem, scatter

DEFAULT_TOL = 1e-11
# Correction solves after the first, at most.  A step gains about six
# digits on most systems (catalog levels 0-5 take at most 4 steps), but
# only one or two where tau = 0 and j = 1 leave the condensed system badly
# conditioned (fig10_f10000 j=1: 7 steps at level 7).
_REFINE_STEPS = 20
_EPS = np.finfo(float).eps
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


class _CondensedLU:
    """Single-precision LU factor of the condensed system over
    y = [lam_b; u] in the numbering of ``DofMap.element_indices``, with
    the element data that maps a right-hand side in (its lam_0 rows and
    its y part) and element rows out, and S_00^{-1} b_0 of the system's
    lam_0 loads b_0, formed once.  ``kmax`` is the largest magnitude of
    the condensed matrix, summed in double before its cast; the matrix
    itself is not kept."""

    def __init__(self, system: SaddleSystem):
        dm = self.dofmap = system.dofmap
        Z, K = schur_complement(system.element_matrix, dm.dim_lam0)
        m = K.shape[-1]
        self.X = Z[..., :m]
        self.lam0_load = np.einsum("tij,tj->ti", Z[..., m:], system.rhs0)
        self.order = dm.n_condensed
        Kc = scatter(K, dm.element_indices, self.order)
        # The element matrices are in Kc now; free them before the factor.
        del K
        self.nnz = Kc.nnz
        # The stopping rule's scale comes from the summed double values;
        # SuperLU then gets them cast to float32, and no global matrix
        # outlives the factor (SuperLU keeps no reference to its input).
        self.kmax = np.abs(Kc.data).max()
        Kc.data = Kc.data.astype(np.float32)
        start = time.perf_counter()
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
        self.factor_s = time.perf_counter() - start

    def condense(self, r0: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The condensed right-hand side for lam_0 rows ``r0`` and the
        rest ``r``."""
        return r - self.dofmap.add(np.einsum("tim,ti->tm", self.X, r0))

    def solve(self, rc: np.ndarray) -> np.ndarray:
        """One single-precision solve of Kc y = rc: rc is scaled by its
        largest magnitude, so float32 neither overflows nor underflows on
        it, solved in float32, and the result cast back and unscaled."""
        scale = np.abs(rc).max()
        if scale == 0.0:
            return np.zeros(self.order)
        return self.lu.solve((rc / scale).astype(np.float32)).astype(float) * scale

    def rows(self, y: np.ndarray) -> np.ndarray:
        """Element rows for the condensed solution ``y`` of the system's
        lam_0 loads: lam_0 recovered in each element, 0 on outflow
        traces."""
        y_loc = self.dofmap.gather(y)
        lam0 = self.lam0_load - np.einsum("tim,tm->ti", self.X, y_loc)
        return np.concatenate([lam0, y_loc], axis=1)


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` lies in the range ``solve`` accepts."""
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"tol must lie in [1e-14, 1e-6], got {tol}")


def solve(system: SaddleSystem, tol: float = DEFAULT_TOL) -> Solution:
    """Solve the assembled system to relative residual <= tol.

    Factors the condensed [lam_b; u] system once in single precision and
    refines its solution in double.  Every iterate is recovered as
    element rows and its residual formed on the full system, applied
    element by element; the condensed residual gives the next correction
    until it is at double round-off, max|r| <= eps max|Kc| max|y|, or
    stops halving, or ``_REFINE_STEPS`` corrections have run.  The last
    residual is checked against tol.  Raises :class:`SolverError` if an
    interior block is not positive definite, the factor is singular or
    the residual contract is missed (relevant for tau=0 with j=k on very
    coarse meshes, where uniqueness needs a small enough mesh size).
    """
    check_tol(tol)
    b0, b = system.rhs0, system.rhs
    factor = _CondensedLU(system)
    # The full vector is the lam_0 rows, element by element, then the rest.
    bnorm = float(np.linalg.norm(np.concatenate([b0.ravel(), b])))
    bnorm = bnorm if bnorm > 0 else 1.0

    y = factor.solve(factor.condense(b0, b))
    if not np.isfinite(y).all():
        raise SolverError(
            f"singular factor: the first solve is not finite "
            f"(full order {system.dofmap.n_total}, condensed order {factor.order})"
        )
    residuals, last, steps = [], np.inf, 0
    while True:
        local = factor.rows(y)
        y0, yc = system.matvec(local)
        r0, r = b0 - y0, b - yc
        residuals.append(float(np.linalg.norm(np.concatenate([r0.ravel(), r]))) / bnorm)
        res = factor.condense(r0, r)
        rmax = np.abs(res).max()
        if rmax <= _EPS * factor.kmax * np.abs(y).max() or rmax > last / 2 or steps == _REFINE_STEPS:
            break
        y, last, steps = y + factor.solve(res), rmax, steps + 1
    residual = residuals[-1]
    if not np.isfinite(residual) or residual > tol:
        raise SolverError(
            f"residual contract missed: {residual:.3e} > {tol:.3e} after {steps} refinement steps "
            f"(order={system.dofmap.n_total}, condensed order={factor.order})"
        )

    info = {
        "method": "splu",
        "order": system.dofmap.n_total,
        "nnz": system.nnz,
        "condensed_order": factor.order,
        "condensed_nnz": factor.nnz,
        "factor_s": factor.factor_s,
        "separator_edges": system.dofmap.separator_edges,
        "fill": int(factor.lu.nnz),
        "fill_per_nlogn": float(factor.lu.nnz / (factor.order * np.log2(factor.order))),
        "row_interchanges": int(np.count_nonzero(factor.lu.perm_r != np.arange(factor.order))),
        "factor_dtype": "float32",
        "refine_steps": steps,
        "initial_residual": residuals[0],
        "tol": tol,
    }
    return Solution(local=local, residual=residual, info=info)
