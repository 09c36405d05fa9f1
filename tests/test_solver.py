import dataclasses
import weakref

import numpy as np
import pytest

import pdwg.solver
from helpers import (
    assembled_matrix,
    build_level,
    forms_for,
    assert_u_follows_the_traces,
    full_rhs,
    full_rows,
    full_vector,
    lapack_schur,
    refined,
    same_bits,
)
from pdwg.analysis import build_checks, conservation_report
from pdwg.assembly import ProblemSpec, classify_boundary, scatter
from pdwg.catalog import catalog, get_experiment
from pdwg.fields import constant, constant_vector
from pdwg.mesh import build_coarse_mesh, refine_uniform, refinement_depth
from pdwg.solver import (
    _REFINE_STEPS,
    SolverError,
    _CondensedLU,
    eliminate,
    solve,
)


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
    mesh = refined(domain, level)
    _, dm, system = build_level(mesh, spec)
    return mesh, dm, system


def catalog_systems(levels):
    """(name, j, level, system) for every catalog entry, j in {0, 1} and
    each of ``levels``, as the catalog sweep builds them."""
    for name, exp in catalog().items():
        for j in (0, 1):
            spec = dataclasses.replace(exp.spec, j=j)
            mesh = build_coarse_mesh(spec.domain_tag)
            for level in range(max(levels) + 1):
                if level in levels:
                    yield name, j, level, build_level(mesh, spec)[2]
                mesh = refine_uniform(mesh)


def assert_interior_traces_agree(sol, dm):
    """Both elements of every interior edge hold its traces bit for bit."""
    mesh, d0, db = dm.mesh, dm.dim_lam0, dm.dim_lamb
    interior = np.flatnonzero(mesh.edge_elems[:, 1] >= 0)
    assert len(interior) > 0
    slots = d0 + db * mesh.edge_local[interior, :, None] + np.arange(db)
    sides = sol.local[mesh.edge_elems[interior, :, None], slots]
    assert same_bits(sides[:, 0], sides[:, 1])


def own_first(system):
    """The element matrices of ``system`` as ``eliminate`` orders them,
    (T, n, n) over [lam_0; u_T; traces], outflow traces zeroed."""
    dm, E = system.dofmap, system.element_matrix
    d0, n = dm.dim_lam0, E.shape[-1]
    free = np.ones(E.shape[:2])
    free[:, d0:-1] = dm.gather(np.ones(dm.n_condensed))
    order = np.r_[:d0, n - 1, d0 : n - 1]
    return (E * free[:, :, None] * free[:, None, :])[:, order][:, :, order]


def dense_elimination(M, d0):
    """The float64 oracle of ``eliminate`` for element matrices M (T, n, n)
    over [lam_0 (d0); u_T; traces], by LAPACK: lam_0's block is R R^T
    (Cholesky), so its L D L^T has D = diag(R)^2 and the lam_0 multiplier
    columns are those of M_{:0} R^{-T} diag(R)^{-1}; K = M_yy - W^T W with
    W = R^{-1} M_{0y} is the Schur complement, and u_T's shifted pivot p,
    its multipliers k / p and the trace block K_tt - k k^T / p follow.
    Returns the pivots (T, d0 + 1), the lam_0 columns (T, n, d0), u_T's
    multipliers (T, m) and the trace blocks (T, m, m)."""
    R = np.linalg.cholesky(M[:, :d0, :d0])
    r = np.diagonal(R, axis1=1, axis2=2)
    W = np.linalg.solve(R, M[:, :d0])
    K = M[:, d0:, d0:] - np.swapaxes(W[:, :, d0:], 1, 2) @ W[:, :, d0:]
    k, Ktt = K[:, 1:, 0], K[:, 1:, 1:]
    p = K[:, 0, 0] - pdwg.solver._SHIFT * np.abs(k).max(axis=1) ** 2 / np.abs(Ktt).max(axis=(1, 2))
    S = Ktt - k[:, :, None] * k[:, None, :] / p[:, None, None]
    return np.column_stack([r**2, p]), np.swapaxes(W, 1, 2) / r[:, None, :], k / p[:, None], S


def eliminated(M, d0):
    """``eliminate`` run on element matrices M (T, n, n) ordered as
    :func:`own_first` returns them: the pivots (T, d0 + 1), each pivot's
    multiplier column, element axis first, and the trace blocks."""
    A = M.transpose(1, 2, 0).copy()
    pivots, _ = eliminate(A, d0)
    cols = [A[i + 1 :, i].T for i in range(d0 + 1)]
    return pivots.T, cols, A[d0 + 1 :, d0 + 1 :].transpose(2, 0, 1)


def condensed(system):
    """The condensed element matrices of ``system``, lam_0 eliminated by
    the LAPACK solve, over [traces; u_T] with outflow traces zeroed, and
    their indices with each u_T after every trace, u_T of element t at
    F db + t: the condensed matrix over [traces; u] they scatter into
    has order F db + T."""
    dm = system.dofmap
    K = lapack_schur(system.element_matrix, dm.dim_lam0)[1]
    u = dm.n_condensed + np.arange(len(K))[:, None]
    idx = np.concatenate([dm.element_indices, u], axis=1)
    free = idx >= 0
    return K * free[:, :, None] * free[:, None, :], idx


class TestKernels:
    def test_hand_inverted_3x3(self):
        # Over [lam_0 (3); u_T; one trace] the element matrix has S_00 =
        # [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], couplings B_0 = [0, 3, 0]
        # to u_T and [1, 0, 1] to the trace, S_bb = 5 and B_b = 1.  L D L^T
        # by hand: the lam_0 pivots are 2, 3/2 and 4/3, with multiplier
        # columns [-1/2, 0, 0, 1/2], [-2/3, 2, 1/3] and [3/2, 1]; they leave
        # [[-9, -2], [-2, 3]] over [u_T; trace], so k = -2, K_tt = 3, the
        # shifted pivot is p = -9 - 4 delta / 3, its multiplier -2 / p and
        # the trace block 3 - 4 / p.
        M = np.array(
            [
                [
                    [2.0, -1.0, 0.0, 0.0, 1.0],
                    [-1.0, 2.0, -1.0, 3.0, 0.0],
                    [0.0, -1.0, 2.0, 0.0, 1.0],
                    [0.0, 3.0, 0.0, 0.0, 1.0],
                    [1.0, 0.0, 1.0, 1.0, 5.0],
                ]
            ]
        )
        pivots, cols, S = eliminated(M, 3)
        p = -9.0 - 4.0 * pdwg.solver._SHIFT / 3.0
        assert np.allclose(pivots[0], [2.0, 1.5, 4.0 / 3.0, p], rtol=1e-15, atol=0)
        for col, want in zip(cols, [[-0.5, 0.0, 0.0, 0.5], [-2.0 / 3.0, 2.0, 1.0 / 3.0], [1.5, 1.0], [-2.0 / p]]):
            assert np.allclose(col[0], want, rtol=1e-15, atol=1e-15)
        assert np.allclose(S[0], [[3.0 - 4.0 / p]], rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "block",
        [
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # first pivot 0
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot 0
            [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],  # third pivot 0
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]],  # negative
            [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]],  # infinite
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]],
            # d0 = 1 (j = 0): the one pivot is checked too.
            [[0.0]],
            [[-2.0]],
            [[np.inf]],
            [[np.nan]],
        ],
    )
    def test_pivot_not_positive_and_finite_names_the_element(self, block):
        # Element 2 of four; the others are the identity.
        d0 = len(block)
        E = np.broadcast_to(np.eye(d0 + 3), (4, d0 + 3, d0 + 3)).copy()
        E[2, :d0, :d0] = block
        with pytest.raises(SolverError, match="element 2 is not positive definite"):
            eliminate(E.transpose(1, 2, 0).copy(), d0)

    def test_ldlt_matches_the_lapack_solve_on_the_catalog(self):
        # Every catalog element matrix at L0-3, tau = 1000 and 10000
        # included, against the LAPACK oracle.  Per element, the largest
        # error relative to the pivot is 6.8e-14 (table12 j=1 L3), of a
        # multiplier column relative to its largest entry 1.5e-13
        # (fig1_tau10000 j=1 L0), and of the shifted trace block relative
        # to its largest entry 1.2e-14 (table12 j=1 L0).
        taus = set()
        for name, j, level, system in catalog_systems((0, 1, 2, 3)):
            d0 = system.dofmap.dim_lam0
            M = own_first(system)
            pivots, cols, S = eliminated(M, d0)
            want_pivots, lam0_cols, u_col, want_S = dense_elimination(M, d0)
            assert (np.abs(pivots - want_pivots) / np.abs(want_pivots)).max() <= 3e-13, (name, j, level)
            for i, col in enumerate(cols):
                ref = lam0_cols[:, i + 1 :, i] if i < d0 else u_col
                scale = np.maximum(np.abs(ref).max(axis=1), np.finfo(float).tiny)
                assert (np.abs(col - ref).max(axis=1) / scale).max() <= 5e-13, (name, j, level, i)
            s_err = np.abs(S - want_S).max(axis=(1, 2)) / np.abs(want_S).max(axis=(1, 2))
            assert s_err.max() <= 5e-14, (name, j, level)
            taus.add(get_experiment(name).spec.tau)
        assert {1000.0, 10000.0} <= taus

    def test_random_bordered_saddle_against_dense(self):
        # Random symmetric positive definite S and couplings B over
        # [lam_0; u_T; traces]: the pivots, multipliers and trace blocks
        # against the LAPACK oracle, to 1e-12 of each element's largest.
        rng = np.random.default_rng(3)
        for d0, db in ((1, 1), (3, 2)):
            T, n = 7, d0 + 3 * db
            Q = rng.standard_normal((T, n, n))
            S = Q @ np.swapaxes(Q, 1, 2) + n * np.eye(n)
            B = rng.standard_normal((T, n))
            order = np.r_[:d0, n, d0:n]
            M = np.zeros((T, n + 1, n + 1))
            M[:, :n, :n] = S
            M[:, :n, n] = M[:, n, :n] = B
            M = M[:, order][:, :, order]
            got, want = eliminated(M, d0), dense_elimination(M, d0)
            assert np.allclose(got[0], want[0], rtol=1e-12, atol=0)
            for i, col in enumerate(got[1]):
                ref = want[1][:, i + 1 :, i] if i < d0 else want[2]
                assert np.abs(col - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.abs(got[2] - want[3]).max() <= 1e-12 * np.abs(want[3]).max()

    def test_singular_matrix_raises(self):
        # No convection and no reaction: u does not enter the equations, and
        # a direct solve refuses the system before any factor.
        _, _, system = unit_problem(level=1, c=0.0, beta=(0.0, 0.0))
        with pytest.raises(ValueError, match="the constant u is in the kernel"):
            solve(system)


class TestSolve:
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("domain", ["unit_square", "l_shape"])
    def test_unit_solution_recovered(self, tau, domain):
        mesh, dm, system = unit_problem(tau=tau, level=2, domain=domain)
        sol = solve(system)
        assert np.max(np.abs(sol.local[:, -1] - 1.0)) < 1e-10
        assert np.max(np.abs(sol.local[:, :-1])) < 1e-10

    def test_residual_matches_recompute(self):
        _, dm, system = unit_problem()
        sol = solve(system)
        x, b = full_vector(sol.local, dm), full_rhs(system)
        recomputed = np.linalg.norm(assembled_matrix(system) @ x - b) / np.linalg.norm(b)
        assert abs(recomputed - sol.residual) <= 1e-14

    def test_constrained_traces_exactly_zero(self):
        mesh, dm, system = unit_problem()
        sol = solve(system)
        outflow = dm.element_indices < 0
        cls = classify_boundary(mesh, forms_for(mesh, constant_vector(1.0, -1.0)))
        assert outflow.sum() == dm.dim_lamb * len(cls.outflow_edges) > 0
        assert np.all(sol.local[:, dm.dim_lam0 : -1][outflow] == 0.0)

    @pytest.mark.parametrize(
        "entry, j, level",
        [("table8", 1, 2), ("table9", 0, 3)],
        ids=["table8-j1-refined", "table9-j0"],
    )
    def test_interior_edge_traces_agree_on_both_sides(self, entry, j, level):
        # Both elements of an interior edge hold its traces bit for bit,
        # after the refinement that removes the shifted pivots' error.
        spec = dataclasses.replace(get_experiment(entry).spec, j=j)
        _, dm, system = build_level(refined(spec.domain_tag, level), spec)
        sol = solve(system)
        assert sol.info["refine_steps"] >= 1
        assert_interior_traces_agree(sol, dm)

    def test_determinism_bitwise(self):
        _, dm, system = unit_problem(level=2)
        a = solve(system)
        b = solve(system)
        assert np.array_equal(a.local, b.local)
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
        assert sol.info["order"] == assembled_matrix(system).shape[0]
        assert sol.info["nnz"] > 0

    @pytest.mark.parametrize("entry, moved", [("table5", 0), ("fig10_f10000", 83)])
    def test_row_interchanges_are_counted(self, monkeypatch, entry, moved):
        # j = 1 at level 3.  Unshifted, the condensed matrix over [traces;
        # u], each u_T numbered right after its element's last free trace,
        # needs threshold pivoting (0.01): SuperLU moves `moved` rows of it
        # in float32, where c = 0 leaves u_T's diagonal 0.  The shifted
        # trace matrix keeps its diagonal, and solve counts the rows its
        # factor moves: none, or those a pivoting factor of it moves.
        spec = dataclasses.replace(get_experiment(entry).spec, j=1)
        _, dm, system = build_level(refined(spec.domain_tag, 3), spec)
        K, idx = condensed(system)
        n, last = dm.n_condensed, dm.element_indices.max(axis=1)
        Kc = scatter(K, idx, n + dm.n_u)
        key = 2 * (np.arange(n + dm.n_u) // dm.dim_lamb)
        key[n:] = np.where(last < 0, -1, 2 * (last // dm.dim_lamb) + 1)
        order = np.argsort(key, kind="stable")
        splu = pdwg.solver.splu
        A = Kc[order][:, order].tocsc().astype(np.float32)
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))
        assert np.count_nonzero(lu.perm_r != np.arange(n + dm.n_u)) == moved
        assert solve(system).info["row_interchanges"] == 0
        factors = []

        def pivoting(A, **kwargs):
            factors.append(splu(A, **{**kwargs, "diag_pivot_thresh": 0.1}))
            return factors[-1]

        monkeypatch.setattr(pdwg.solver, "splu", pivoting)
        info = solve(system).info
        assert info["row_interchanges"] == np.count_nonzero(factors[0].perm_r != np.arange(n)) > 0

    def test_condensed_diagnostics(self):
        _, dm, system = unit_problem(level=1)
        info = solve(system).info
        # The factor's order is the free traces', the unknowns DofMap
        # numbers: lam_0 and u_T are eliminated in their elements.
        assert info["condensed_order"] == dm.n_condensed == dm.n_free_edges * dm.dim_lamb
        assert 0 < info["condensed_nnz"] <= info["fill"]
        assert "factor_dtype" not in info and info["row_interchanges"] == 0
        assert info["refine_steps"] in range(1, _REFINE_STEPS + 1)
        assert np.isfinite(info["initial_residual"])
        n = info["condensed_order"]
        assert "ordering" not in info and "order_s" not in info
        assert isinstance(info["factor_s"], float) and info["factor_s"] >= 0.0
        assert info["fill_per_nlogn"] == pytest.approx(info["fill"] / (n * np.log2(n)), rel=1e-15)
        # The root separator is the diagonal between the two coarse elements.
        assert info["separator_edges"] == 2
        _, dm, system = unit_problem(level=4)
        assert solve(system).info["separator_edges"] == dm.separator_edges == 2**4

    def test_fill_per_nlogn_at_order_one(self):
        # fig1_tau0 j=0 at level 0 has one free edge, so the factor has
        # order 1, where n log2 n is 0; the ratio is fill / n there.
        spec = dataclasses.replace(get_experiment("fig1_tau0").spec, j=0)
        info = solve(build_level(refined(spec.domain_tag, 0), spec)[2]).info
        assert info["condensed_order"] == 1 and info["fill_per_nlogn"] == info["fill"] == 2

    @pytest.mark.parametrize("case", [dict(level=3, j=1), dict(domain="cracked_square", level=2, j=0, c=0.0)])
    def test_factors_the_dofmap_numbering_as_it_is(self, monkeypatch, case):
        # SuperLU receives the trace blocks of the condensed element
        # matrices scattered by element_indices, with no permutation
        # between: the pattern bit for bit, in double precision.  The
        # values are the condensed matrix over [traces; u] with each u_T
        # eliminated against kappa - delta max|k|^2 / max|K_tt| (k its free
        # column, K_tt its element's free trace block), and the matrix is
        # symmetric positive definite.
        _, dm, system = unit_problem(**case)
        K, idx = condensed(system)
        n = dm.n_condensed
        expected = scatter(K[:, :-1, :-1], dm.element_indices, n)
        factored, splu = [], pdwg.solver.splu

        def capture(A, **kwargs):
            factored.append(A.copy())
            return splu(A, **kwargs)

        monkeypatch.setattr(pdwg.solver, "splu", capture)
        solve(system)
        (A,) = factored
        assert same_bits(A.indices, expected.indices) and same_bits(A.indptr, expected.indptr)
        assert A.dtype == np.float64
        # u_T lies in one element, so the u block of the condensed matrix is
        # diagonal, kappa.
        full = scatter(K, idx, n + dm.n_u).toarray()
        k, Ktt = np.abs(K[:, :-1, -1]), np.abs(K[:, :-1, :-1])
        p = np.diag(full)[n:] - pdwg.solver._SHIFT * k.max(axis=1) ** 2 / Ktt.max(axis=(1, 2))
        oracle = full[:n, :n] - full[:n, n:] @ (full[n:, :n] / p[:, None])
        dense = A.toarray()
        assert np.abs(dense - oracle).max() <= 1e-13 * np.abs(oracle).max()
        assert np.linalg.eigvalsh(dense).min() > 0

    def test_no_global_matrix_outlives_the_factor(self, monkeypatch):
        # The elimination buffer of the element matrices is gone before
        # SuperLU runs, which gets their scattered trace blocks in double
        # precision, and the matrix it got is gone once the factor is
        # built: SuperLU keeps no reference to it, and every later product
        # with A runs on the element matrices.
        _, _, system = unit_problem(level=3)
        buffers, received = [], []
        splu = pdwg.solver.splu

        def eliminate_spy(A, d0):
            buffers.append(weakref.ref(A))
            return eliminate(A, d0)

        def splu_spy(A, **kwargs):
            assert buffers[0]() is None and A.data.dtype == np.float64
            received.extend(weakref.ref(a) for a in (A, A.data, A.indices, A.indptr))
            return splu(A, **kwargs)

        monkeypatch.setattr(pdwg.solver, "eliminate", eliminate_spy)
        monkeypatch.setattr(pdwg.solver, "splu", splu_spy)
        factor = _CondensedLU(system)
        assert factor.lu.nnz > 0 and len(received) == 4
        assert all(ref() is None for ref in received)

    @pytest.mark.parametrize("domain", ["unit_square", "cracked_square"])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    @pytest.mark.parametrize("j", [0, 1])
    def test_matches_dense_full_solve(self, j, tau, c, domain):
        _, dm, system = unit_problem(tau=tau, level=2, domain=domain, j=j, c=c)
        x = full_vector(solve(system).local, dm)
        x_ref = np.linalg.solve(assembled_matrix(system).toarray(), full_rhs(system))
        assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


ORDERING_CASES = [
    dict(domain="unit_square", level=4, j=1),
    dict(domain="unit_square", level=3, j=0, beta=(1.0, 0.0)),
    dict(domain="l_shape", level=3, j=1),
    dict(domain="cracked_square", level=3, j=0),
    dict(domain="unit_square", level=1, j=1),
    dict(domain="l_shape", level=5, j=1, beta=(1.0, 0.0)),
    dict(domain="cracked_square", level=5, j=0),
]


def free_edge_positions(dm):
    """The place of every free edge, in edge order, among the free edges
    as ``element_indices`` numbers their traces."""
    starts = dm.lamb_start[dm.lamb_start >= 0]
    pos = np.empty(len(starts), dtype=np.int64)
    pos[np.argsort(starts)] = np.arange(len(starts))
    return pos


def free_edge_midpoints(dm):
    """(F, 2) midpoints of the free edges, in edge order."""
    return dm.mesh.vertices[dm.mesh.edges[dm.lamb_start >= 0]].mean(axis=1)


def tree_heights(dm):
    """Both elements a and b of every free edge (b = a on the boundary)
    and the levels of the refinement tree, as heights in bits of the
    element number: 2 per base-4 level below the coarse elements, then 1
    per binary level above them."""
    mesh = dm.mesh
    a, b = mesh.edge_elems[dm.lamb_start >= 0].T
    L = refinement_depth(mesh)
    C = build_coarse_mesh(mesh.domain_tag).num_elements
    assert mesh.num_elements == C * 4**L
    heights = list(range(0, 2 * L + 1, 2)) + list(range(2 * L + 1, 2 * L + (C - 1).bit_length() + 1))
    return a, np.where(b < 0, a, b), heights


class TestNestedDissection:
    """The numbering of ``DofMap.element_indices`` is the factor's
    nested dissection order, read off the refinement tree."""

    @pytest.mark.parametrize("case", ORDERING_CASES)
    def test_is_a_permutation(self, case):
        _, dm, _ = unit_problem(**case)
        idx = dm.element_indices
        numbered = np.unique(idx[idx >= 0])
        assert np.array_equal(numbered, np.arange(dm.n_condensed))
        # Each free edge holds db consecutive indices of its own.
        starts = np.sort(dm.lamb_start[dm.lamb_start >= 0])
        assert np.all(np.diff(starts) >= dm.dim_lamb)

    @pytest.mark.parametrize("case", ORDERING_CASES)
    def test_u_after_the_traces_of_its_element(self, case):
        _, _, system = unit_problem(**case)
        assert_u_follows_the_traces(system)

    @pytest.mark.parametrize("case", ORDERING_CASES)
    def test_no_element_couples_the_two_children_of_a_node(self, case):
        # Every tree node's edges are one block of the order with its
        # separator last, each child's edges a block before it, and no
        # element holds edges of two children outside the separator.
        _, dm, _ = unit_problem(**case)
        mesh, F = dm.mesh, dm.n_free_edges
        pos = free_edge_positions(dm)
        a, b, heights = tree_heights(dm)
        free = dm.lamb_start >= 0
        rank = np.where(free, np.cumsum(free) - 1, F)
        elem_edges = rank[mesh.element_edges]
        for lo, hi in zip(heights, heights[1:]):
            node = np.where(a >> hi == b >> hi, a >> hi, -1)
            child = np.where(a >> lo == b >> lo, a >> lo, -1)
            for n in np.unique(node[node >= 0]):
                mine, sep = node == n, (node == n) & (child < 0)
                assert np.ptp(pos[mine]) + 1 == mine.sum()
                assert pos[mine & ~sep].max(initial=-1) < pos[sep].min(initial=F)
                for c in np.unique(child[mine & ~sep]):
                    assert np.ptp(pos[child == c]) + 1 == (child == c).sum()
                # The child of each edge an element holds, -1 off this node,
                # on its separator and on outflow edges.
                held = np.append(np.where(mine & ~sep, child, -1), -1)[elem_edges]
                assert np.all((held == held.max(axis=1)[:, None]) | (held < 0))
        # The last level is the root, which holds every free edge.
        assert (node == 0).sum() == F

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_root_separator_is_one_mesh_line(self, level):
        # The unit square's two coarse triangles meet along the diagonal
        # x + y = 1, which separates the two halves and is numbered last.
        _, dm, _ = unit_problem(level=level)
        sep = dm.separator_edges
        assert sep == 2**level
        root_sep = np.argsort(free_edge_positions(dm))[-sep:]
        assert np.all(free_edge_midpoints(dm)[root_sep].sum(axis=1) == 1.0)


class TestOrderedFactor:
    def test_catalog_matches_dense_full_solve(self):
        for name, j, level, system in catalog_systems((0, 1, 2)):
            dm = system.dofmap
            sol = solve(system)
            x = full_vector(sol.local, dm)
            A = assembled_matrix(system)
            x_ref = np.linalg.solve(A.toarray(), full_rhs(system))
            # fig8_f0 at level 0 has a zero right-hand side: x must be 0.
            assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max(), (name, j, level)
            # The count and the residual product the solve takes from the
            # element matrices agree with the assembled matrix.  The two
            # products sum in different orders, so they differ by round-off
            # of |A| |x|, which is up to 400 times |A x| (table12, table16
            # and fig9_f10000).
            assert sol.info["nnz"] == A.nnz, (name, j, level)
            scale = np.linalg.norm(abs(A) @ abs(x))
            r = full_rows(system.residual(sol.local), dm)
            assert np.linalg.norm(r - (full_rhs(system) - A @ x)) <= 1e-14 * scale, (name, j, level)

    def test_refinement_residual_matches_the_assembled_product(self):
        # The shifted pivots leave an error, so this system is refined, and
        # the element-wise residual of the refined rows is the one reported.
        spec = dataclasses.replace(get_experiment("table8").spec, j=1)
        system = build_level(refined(spec.domain_tag, 2), spec)[2]
        sol = solve(system)
        assert sol.info["refine_steps"] >= 1
        x = full_vector(sol.local, system.dofmap)
        b = full_rhs(system)
        assembled = np.linalg.norm(b - assembled_matrix(system) @ x) / np.linalg.norm(b)
        assert abs(sol.residual - assembled) <= 1e-15

    @pytest.mark.parametrize("j", [0, 1])
    def test_forced_refinement_keeps_the_contract(self, monkeypatch, j):
        # The first solve is made 1e-3 too large, so refinement
        # has to start far above tol.  The residuals reported, first and
        # last, match the assembled product of the element rows they stand
        # for, lam_0 rows included, and the refined rows keep both sides
        # of every interior edge equal.
        spec = dataclasses.replace(get_experiment("table5").spec, j=j)
        _, dm, system = build_level(refined(spec.domain_tag, 2), spec)
        A, b = assembled_matrix(system), full_rhs(system)
        condensed_solve, rows = _CondensedLU.solve, []

        def spoiled_first(factor, r):
            x = condensed_solve(factor, r)
            if not rows:
                x = x * (1 + 1e-3)
                rows.append(x)
            return x

        monkeypatch.setattr(_CondensedLU, "solve", spoiled_first)

        def assembled_residual(local):
            return np.linalg.norm(b - A @ full_vector(local, dm)) / np.linalg.norm(b)

        sol = solve(system, tol=1e-14)
        assert sol.info["refine_steps"] >= 2 and sol.info["initial_residual"] > 1e-9
        assert abs(sol.info["initial_residual"] - assembled_residual(rows[0])) <= 1e-15
        assert abs(sol.residual - assembled_residual(sol.local)) <= 1e-15
        assert_interior_traces_agree(sol, dm)

    def test_catalog_sweep_starts_near_single_precision(self):
        # Guards the shift.  With delta = 1e-10 the first solve leaves a
        # relative residual of at most 2.8e-5 (fig9_f10000 j=1 L3), as near
        # single precision as a float32 factor's first solve (3.3e-5), and at
        # most 4 steps refine it (table12 j=1 L0, where the element-wise
        # residual carries round-off of |A| |x|, up to 400 times |A x|).
        # With 1e-12 the first residual reaches 1.1e-2 and a system takes 9
        # steps; with 1e-13 two systems at level 5 miss the contract.
        # SuperLU keeps a diagonal pivot unless it is 0
        # (diag_pivot_thresh=0), and the positive definite trace matrix
        # has none, so no system moves a row.
        count = 0
        for name, j, level, system in catalog_systems((0, 1, 2, 3)):
            info = solve(system).info
            assert info["refine_steps"] <= 4, (name, j, level, info)
            assert info["initial_residual"] <= 1e-4, (name, j, level, info)
            assert info["row_interchanges"] == 0, (name, j, level, info)
            count += 1
        assert count == 352

    @pytest.mark.parametrize("entry", ["fig8_f10000", "fig9_f10000", "fig10_f10000"])
    def test_flux_jump_where_the_margin_is_thinnest(self, entry):
        # With a float64 factor stopped at tol, the largest flux jumps of
        # catalog L0-5 were on these j = 1 systems (5.3e-10 on fig10_f10000
        # at level 5).  Refined to double round-off they are 1.4e-13 to
        # 1.6e-12.  The gate is the 1e-9 of acceptance criterion 6 and
        # ``pdwg verify``.
        spec = dataclasses.replace(get_experiment(entry).spec, j=1)
        tables, _, system = build_level(refined(spec.domain_tag, 5), spec)
        checks = build_checks(tables)
        sol = solve(system)
        assert sol.info["refine_steps"] >= 1
        assert conservation_report(sol, checks).max_flux_jump <= 1e-9

    def test_default_tol_refines_to_double_round_off(self):
        # Stopping at tol would end just under 1e-11; the refinement runs
        # on to the round-off of the element-wise product A x: the first
        # residual is 1.2e-10, the refined one 8.1e-16.
        spec = get_experiment("table5").spec
        sol = solve(build_level(refined(spec.domain_tag, 4), spec)[2])
        assert sol.info["tol"] == 1e-11 and sol.info["initial_residual"] > 1e-11
        assert sol.residual <= 1e-14

    @pytest.mark.parametrize("damping, solves", [(0.4, 2), (0.6, _REFINE_STEPS + 1)], ids=["stalls", "capped"])
    def test_slow_refinement_raises_within_the_step_cap(self, monkeypatch, damping, solves):
        # A solve that returns damping times the answer leaves 1 - damping
        # of the residual each step.  With damping 0.4 that is 0.6, not
        # halving, so refinement stops after one step; with 0.6 it is 0.4,
        # so refinement runs to the cap.  Both end far above tol and raise.
        condensed_solve, calls = _CondensedLU.solve, []

        def damped(factor, r):
            calls.append(1)
            return damping * condensed_solve(factor, r)

        monkeypatch.setattr(_CondensedLU, "solve", damped)
        _, _, system = unit_problem(level=2)
        with pytest.raises(SolverError, match="residual contract missed"):
            solve(system)
        assert len(calls) == solves

    def test_fill_at_table5_level6(self):
        spec = get_experiment("table5").spec
        info = solve(build_level(refined(spec.domain_tag, 6), spec)[2]).info
        # The refinement tree's order over the traces gives 3.97.
        assert info["fill_per_nlogn"] <= 4.0

    def test_fill_at_table3_level5(self):
        spec = get_experiment("table3").spec
        info = solve(build_level(refined(spec.domain_tag, 5), spec)[2]).info
        # The L-shape: 3.78 read off the refinement tree.
        assert info["fill_per_nlogn"] <= 3.8

    def test_fill_at_fig10_f10000_level5(self):
        # tau = 0 and j = 1 on the L-shape, where the multiplier block is
        # singular: the shifted u_T pivots make the trace matrix definite,
        # no row moves, and the fill is table3's on the same mesh, 3.78.
        spec = dataclasses.replace(get_experiment("fig10_f10000").spec, j=1)
        info = solve(build_level(refined(spec.domain_tag, 5), spec)[2]).info
        assert info["row_interchanges"] == 0 and info["fill_per_nlogn"] <= 3.8
