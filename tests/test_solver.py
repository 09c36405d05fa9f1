import numpy as np
import pytest

from pdwg.assembly import ProblemSpec, assemble
from pdwg.fields import constant, constant_vector
from pdwg.mesh import build_coarse_mesh, classify_boundary, refine_uniform
from pdwg.solver import SolverError, schur_complement, solve
from pdwg.weakspace import DofMap


def unit_problem(tau=1.0, level=2, domain="unit_square", j=1, c=1.0, beta=(1.0, -1.0)):
    spec = ProblemSpec(
        beta=constant_vector(*beta),
        c=constant(c),
        f=constant(1.0),
        g=constant(1.0),
        tau=tau,
        domain_tag=domain,
        j=j,
    )
    mesh = build_coarse_mesh(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    cls = classify_boundary(mesh, spec.beta)
    dm = DofMap(mesh, 1, j, cls)
    return mesh, dm, assemble(mesh, dm, spec)


class TestKernels:
    def test_hand_inverted_2x2(self):
        # S_00 = [[2, 1], [1, 2]] has inverse [[2, -1], [-1, 2]] / 3; with
        # C = [[1, 0], [0, 3]], C^T S_00^{-1} C = [[2/3, -1], [-1, 6]].
        S = np.array([[[2.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 5.0]]])
        B = np.array([[0.0, 3.0, 1.0]])
        Z, K = schur_complement(S, B, 2)
        S00_inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(Z[0], np.hstack([S00_inv @ [[1.0, 0.0], [0.0, 3.0]], S00_inv]), atol=1e-15)
        assert np.allclose(K[0], [[13.0 / 3.0, 2.0], [2.0, -6.0]], atol=1e-14)

    def test_random_bordered_saddle_against_dense(self):
        rng = np.random.default_rng(3)
        for d0, db in ((1, 1), (3, 2)):
            T, n = 7, d0 + 3 * db
            Q = rng.standard_normal((T, n, n))
            S = Q @ np.swapaxes(Q, 1, 2) + n * np.eye(n)
            B = rng.standard_normal((T, n))
            Z, K = schur_complement(S, B, d0)
            for t in range(T):
                # Dense elimination of the first d0 unknowns of [[S, B], [B^T, 0]].
                M = np.zeros((n + 1, n + 1))
                M[:n, :n] = S[t]
                M[:n, n] = M[n, :n] = B[t]
                M00_inv = np.linalg.inv(M[:d0, :d0])
                ref = M[d0:, d0:] - M[d0:, :d0] @ M00_inv @ M[:d0, d0:]
                assert np.allclose(K[t], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
                ref_Z = np.hstack([M00_inv @ M[:d0, d0:], M00_inv])
                assert np.allclose(Z[t], ref_Z, rtol=0, atol=1e-12 * np.abs(ref_Z).max())

    def test_singular_matrix_raises(self):
        # No convection and no reaction: u does not enter the equations.
        _, _, system = unit_problem(level=1, c=0.0, beta=(0.0, 0.0))
        with pytest.raises(SolverError, match="condensed order"):
            solve(system)


class TestSolve:
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("domain", ["unit_square", "l_shape"])
    def test_unit_solution_recovered(self, tau, domain):
        mesh, dm, system = unit_problem(tau=tau, level=2, domain=domain)
        sol = solve(system)
        assert np.max(np.abs(sol.u.coeffs - 1.0)) < 1e-10
        assert np.max(np.abs(sol.lam.lam0)) < 1e-10
        assert np.max(np.abs(sol.lam.lamb)) < 1e-10

    def test_residual_matches_recompute(self):
        _, dm, system = unit_problem()
        sol = solve(system)
        x = np.concatenate([sol.lam.free_vector(dm), sol.u.vector()])
        recomputed = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(
            system.rhs
        )
        assert abs(recomputed - sol.residual) <= 1e-14

    def test_constrained_traces_exactly_zero(self):
        _, dm, system = unit_problem()
        sol = solve(system)
        for e in dm.classification.outflow_edges:
            assert np.all(sol.lam.lamb[e] == 0.0)

    def test_determinism_bitwise(self):
        _, dm, system = unit_problem(level=2)
        a = solve(system)
        b = solve(system)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.lam.lam0, b.lam.lam0)
        assert np.array_equal(a.lam.lamb, b.lam.lamb)
        assert a.residual == b.residual

    def test_tolerance_validation(self):
        _, _, system = unit_problem(level=1)
        with pytest.raises(ValueError):
            solve(system, tol=1e-3)
        with pytest.raises(ValueError):
            solve(system, tol=1e-16)

    def test_diagnostics_fields(self):
        _, _, system = unit_problem(level=1)
        sol = solve(system)
        assert sol.info["method"] == "splu"
        assert sol.info["order"] == system.matrix.shape[0]
        assert sol.info["nnz"] > 0

    def test_condensed_diagnostics(self):
        _, dm, system = unit_problem(level=2)
        info = solve(system).info
        T = dm.mesh.num_elements
        assert info["condensed_order"] == dm.n_total - T * dm.dim_lam0
        assert 0 < info["condensed_nnz"] <= info["fill"]
        assert info["refine_steps"] in range(4)
        assert np.isfinite(info["initial_residual"])

    @pytest.mark.parametrize("domain", ["unit_square", "cracked_square"])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("j", [0, 1])
    def test_matches_dense_full_solve(self, j, tau, c, domain):
        _, dm, system = unit_problem(tau=tau, level=2, domain=domain, j=j, c=c)
        sol = solve(system)
        x = np.concatenate([sol.lam.free_vector(dm), sol.u.vector()])
        x_ref = np.linalg.solve(system.matrix.toarray(), system.rhs)
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
