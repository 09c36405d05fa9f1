import dataclasses

import numpy as np
import pytest

from helpers import assembled_matrix, build_level, full_rhs, full_vector, lapack_schur, refined, same_bits
from pdwg.analysis import conservation_report
from pdwg.assembly import ProblemSpec
from pdwg.catalog import catalog, get_experiment
from pdwg.fields import constant, constant_vector
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.solver import _LEAF_EDGES, SolverError, _CondensedLU, nested_dissection, schur_complement, solve


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


class TestKernels:
    def test_hand_inverted_3x3(self):
        # S_00 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]] has inverse
        # [[3, 2, 1], [2, 4, 2], [1, 2, 3]] / 4.  With C = [[1, 0], [0, 3],
        # [1, 0]], X = S_00^{-1} C = [[1, 1.5], [1, 3], [1, 1.5]] and
        # C^T X = [[2, 3], [3, 9]].  The element matrix is [[S, B], [B^T, 0]]
        # with S_bb = 5 and B = [0, 3, 0, 1].
        E = np.array(
            [
                [
                    [2.0, -1.0, 0.0, 1.0, 0.0],
                    [-1.0, 2.0, -1.0, 0.0, 3.0],
                    [0.0, -1.0, 2.0, 1.0, 0.0],
                    [1.0, 0.0, 1.0, 5.0, 1.0],
                    [0.0, 3.0, 0.0, 1.0, 0.0],
                ]
            ]
        )
        Z, K = schur_complement(E, 3)
        S00_inv = np.array([[3.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 3.0]]) / 4.0
        assert np.allclose(Z[0], np.hstack([[[1.0, 1.5], [1.0, 3.0], [1.0, 1.5]], S00_inv]), atol=1e-15)
        assert np.allclose(K[0], [[3.0, -2.0], [-2.0, -9.0]], atol=1e-14)

    @pytest.mark.parametrize("d0", [0, 2, 4])
    def test_other_interior_sizes_rejected(self, d0):
        with pytest.raises(ValueError, match=f"d0={d0}"):
            schur_complement(np.eye(6)[None], d0)

    @pytest.mark.parametrize(
        "block",
        [
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # first pivot 0
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot 0
            [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],  # third pivot 0
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]],  # negative
            [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]],  # infinite
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]],
        ],
    )
    def test_pivot_not_positive_and_finite_names_the_element(self, block):
        # Element 2 of four; the others are the identity.
        E = np.broadcast_to(np.eye(6), (4, 6, 6)).copy()
        E[2, :3, :3] = block
        with pytest.raises(SolverError, match="element 2 is not positive definite"):
            schur_complement(E, 3)

    def test_ldlt_matches_the_lapack_solve_on_the_catalog(self):
        # Every catalog interior block at L0-3, tau = 1000 and 10000
        # included: per element, the largest error of Z relative to its
        # largest entry is 6.6e-14 (table16 j=1 L3), and of K 8.9e-15.  The
        # adjugate inverse reaches 4.4e-13 and 2.7e-13 and fails here.
        taus = set()
        for name, j, level, system in catalog_systems((0, 1, 2, 3)):
            E, d0 = system.element_matrix, system.dofmap.dim_lam0
            Z, K = schur_complement(E, d0)
            Z_ref, K_ref = lapack_schur(E, d0)
            z_err = np.abs(Z - Z_ref).max(axis=(1, 2)) / np.abs(Z_ref).max(axis=(1, 2))
            k_err = np.abs(K - K_ref).max(axis=(1, 2)) / np.abs(K_ref).max(axis=(1, 2))
            assert z_err.max() <= 2e-13 and k_err.max() <= 5e-14, (name, j, level)
            taus.add(get_experiment(name).spec.tau)
        assert {1000.0, 10000.0} <= taus

    def test_random_bordered_saddle_against_dense(self):
        rng = np.random.default_rng(3)
        for d0, db in ((1, 1), (3, 2)):
            T, n = 7, d0 + 3 * db
            Q = rng.standard_normal((T, n, n))
            S = Q @ np.swapaxes(Q, 1, 2) + n * np.eye(n)
            B = rng.standard_normal((T, n))
            E = np.zeros((T, n + 1, n + 1))
            E[:, :n, :n] = S
            E[:, :n, n] = E[:, n, :n] = B
            Z, K = schur_complement(E, d0)
            for t in range(T):
                # Dense elimination of the first d0 unknowns of [[S, B], [B^T, 0]].
                M = E[t]
                M00_inv = np.linalg.inv(M[:d0, :d0])
                ref = M[d0:, d0:] - M[d0:, :d0] @ M00_inv @ M[:d0, d0:]
                assert np.allclose(K[t], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
                ref_Z = np.hstack([M00_inv @ M[:d0, d0:], M00_inv])
                assert np.allclose(Z[t], ref_Z, rtol=0, atol=1e-12 * np.abs(ref_Z).max())

    def test_d0_1_closed_form_equals_the_lapack_solve(self):
        # With one interior unknown a, Z = [C, 1] * (1 / a) is what LAPACK's
        # 1 x 1 solve returns, bit for bit, and so is K built from it.
        rng = np.random.default_rng(11)
        T, n = 20000, 5
        E = rng.standard_normal((T, n, n)) * 10.0 ** rng.integers(-80, 80, (T, n, n))
        Z, K = schur_complement(E, 1)
        Z_ref, K_ref = lapack_schur(E, 1)
        assert same_bits(Z, Z_ref) and same_bits(K, K_ref)
        # Pivots at the ends of the double range, subnormal ones included.
        a = np.array([5e-324, 1e-310, 2.2e-308, 1e-200, 1e200, 1e308, -1e-320, -3.0])
        E = np.zeros((len(a), n, n))
        E[:, 0, 0] = a
        E[:, 0, 1:] = E[:, 1:, 0] = [1.0, 1e-10, 1e300, -0.0]
        with np.errstate(all="ignore"):
            assert same_bits(schur_complement(E, 1)[0], lapack_schur(E, 1)[0])

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
        assert np.max(np.abs(sol.local[:, -1] - 1.0)) < 1e-10
        assert np.max(np.abs(sol.local[:, :-1])) < 1e-10

    def test_residual_matches_recompute(self):
        _, dm, system = unit_problem()
        sol = solve(system)
        x, b = full_vector(sol.local, dm), full_rhs(system)
        recomputed = np.linalg.norm(assembled_matrix(system) @ x - b) / np.linalg.norm(b)
        assert abs(recomputed - sol.residual) <= 1e-14

    def test_constrained_traces_exactly_zero(self):
        _, dm, system = unit_problem()
        sol = solve(system)
        outflow = dm.element_indices < 0
        assert outflow.sum() == dm.dim_lamb * len(dm.classification.outflow_edges) > 0
        assert np.all(sol.local[:, dm.dim_lam0 :][outflow] == 0.0)

    @pytest.mark.parametrize(
        "entry, j, level, tol, steps",
        [("table8", 1, 2, 1e-14, 1), ("table9", 0, 3, 1e-11, 0)],
        ids=["table8-j1-refined", "table9-j0"],
    )
    def test_interior_edge_traces_agree_on_both_sides(self, entry, j, level, tol, steps):
        # Both elements of an interior edge hold its traces bit for bit,
        # after refinement too (table8 j = 1 at tol 1e-14 takes one step).
        spec = dataclasses.replace(get_experiment(entry).spec, j=j)
        _, dm, system = build_level(refined(spec.domain_tag, level), spec)
        sol = solve(system, tol=tol)
        assert sol.info["refine_steps"] == steps
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

    def test_condensed_diagnostics(self):
        _, dm, system = unit_problem(level=1)
        info = solve(system).info
        T = dm.mesh.num_elements
        assert info["condensed_order"] == dm.n_condensed == dm.n_total - T * dm.dim_lam0
        assert 0 < info["condensed_nnz"] <= info["fill"]
        assert info["refine_steps"] in range(4)
        assert np.isfinite(info["initial_residual"])
        n = info["condensed_order"]
        assert info["ordering"] == "nested_dissection"
        assert isinstance(info["order_s"], float) and info["order_s"] >= 0.0
        assert info["fill_per_nlogn"] == pytest.approx(info["fill"] / (n * np.log2(n)), rel=1e-15)
        # Level 1 has 12 free edges, at most _LEAF_EDGES: nothing is bisected.
        assert dm.n_free_edges <= _LEAF_EDGES
        assert info["separator_edges"] == 0
        _, dm, system = unit_problem(level=4)
        _, nodes = nested_dissection(dm)
        assert solve(system).info["separator_edges"] == nodes[:, 3].sum() > 0

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


def free_edge_order(perm, dm):
    """Free-edge ranks in the order ``perm`` places their traces."""
    db, F = dm.dim_lamb, dm.n_free_edges
    return perm[(perm < F * db) & (perm % db == 0)] // db


def free_edge_midpoints(dm):
    """(F, 2) midpoints of the free edges, by free-edge rank."""
    return dm.mesh.vertices[dm.mesh.edges[dm.lamb_start >= 0]].mean(axis=1)


class TestNestedDissection:
    @pytest.mark.parametrize("case", ORDERING_CASES)
    def test_is_a_permutation(self, case):
        _, dm, _ = unit_problem(**case)
        perm, _ = nested_dissection(dm)
        assert np.array_equal(np.sort(perm), np.arange(dm.n_condensed))

    @pytest.mark.parametrize("case", ORDERING_CASES)
    def test_u_after_the_traces_of_its_element(self, case):
        _, dm, _ = unit_problem(**case)
        perm, _ = nested_dissection(dm)
        place = np.argsort(perm)
        traces = dm.element_indices[:, :-1]
        trace_place = np.where(traces >= 0, place[traces], -1)
        u_place = place[dm.element_indices[:, -1]]
        assert np.all(u_place > trace_place.max(axis=1))

    @pytest.mark.parametrize("case", ORDERING_CASES)
    def test_no_element_couples_the_two_children_of_a_node(self, case):
        _, dm, _ = unit_problem(**case)
        perm, nodes = nested_dissection(dm)
        db, F = dm.dim_lamb, dm.n_free_edges
        edge_order = free_edge_order(perm, dm)
        assert np.array_equal(np.sort(edge_order), np.arange(F))
        traces = dm.element_indices[:, : -1 : db]
        elem_edges = np.where(traces >= 0, traces // db, F)
        assert (len(nodes) > 0) == (F > _LEAF_EDGES)
        for start, left, right, sep in nodes:
            assert min(left, right) > 0
            side = np.zeros(F + 1, dtype=int)
            side[edge_order[start : start + left]] = 1
            side[edge_order[start + left : start + left + right]] = 2
            sides = side[elem_edges]
            assert not np.any((sides == 1).any(axis=1) & (sides == 2).any(axis=1))

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_root_separator_is_one_mesh_line(self, level):
        # The unit square's 2^L x 2^L grid is cut along its middle line,
        # not along the two edges per cell beside it.
        _, dm, _ = unit_problem(level=level)
        perm, nodes = nested_dissection(dm)
        start, left, right, sep = nodes[0]
        assert sep == 2**level
        root_sep = free_edge_order(perm, dm)[start + left + right : start + left + right + sep]
        mid = free_edge_midpoints(dm)[root_sep]
        assert len(np.unique(mid[:, 0])) == 1 or len(np.unique(mid[:, 1])) == 1

    def test_cut_above_the_smallest_value_leaves_both_children(self):
        # In this L-shape some part has more than half of its edges at the
        # smallest coordinate of its longer side, so its median value is
        # that smallest value and only the edges above it go right.
        _, dm, _ = unit_problem(domain="l_shape", level=4, beta=(1.0, 0.0))
        perm, nodes = nested_dissection(dm)
        order, mid = free_edge_order(perm, dm), free_edge_midpoints(dm)
        reached = 0
        for start, left, right, sep in nodes:
            part = mid[order[start : start + left + right + sep]]
            extent = part.max(axis=0) - part.min(axis=0)
            coord = np.sort(part[:, int(extent[1] > extent[0])])
            if coord[len(coord) // 2] == coord[0]:
                reached += 1
                assert left > 0 and right > 0
        assert reached > 0

    def test_exactly_the_parts_above_the_leaf_size_are_split(self):
        _, dm, _ = unit_problem(level=5)
        _, nodes = nested_dissection(dm)
        parts = {(0, dm.n_free_edges)}
        for start, left, right, sep in nodes:
            assert (start, left + right + sep) in parts
            parts |= {(start, left), (start + left, right)}
        split = {(start, left + right + sep) for start, left, right, sep in nodes}
        assert len(split) == len(nodes) > 1
        assert split == {(start, size) for start, size in parts if size > _LEAF_EDGES}


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
            y0, y = system.matvec(sol.local)
            assert np.linalg.norm(np.concatenate([y0.ravel(), y]) - A @ x) <= 1e-14 * scale, (name, j, level)

    def test_refinement_residual_matches_the_assembled_product(self):
        # At tol 1e-14 this system takes one refinement step (first
        # residual 3.6e-14), so the element-wise residual both drives the
        # correction and is reported.
        spec = dataclasses.replace(get_experiment("table8").spec, j=1)
        system = build_level(refined(spec.domain_tag, 2), spec)[2]
        sol = solve(system, tol=1e-14)
        assert sol.info["refine_steps"] == 1
        x = full_vector(sol.local, system.dofmap)
        b = full_rhs(system)
        assembled = np.linalg.norm(b - assembled_matrix(system) @ x) / np.linalg.norm(b)
        assert abs(sol.residual - assembled) <= 1e-15

    @pytest.mark.parametrize("j", [0, 1])
    def test_forced_refinement_keeps_the_contract(self, monkeypatch, j):
        # The first condensed solve is rounded through float32, so its
        # residual is far above tol on any system and refinement has to
        # run.  The element-wise residuals it reports, first and last,
        # match the assembled product, lam_0 rows included, and the
        # correction rows keep both sides of every interior edge equal.
        condensed_solve, rows = _CondensedLU.solve, []

        def rounded_first(factor, r0, r):
            local = condensed_solve(factor, r0, r)
            rows.append(local if rows else local.astype(np.float32).astype(float))
            return rows[-1]

        monkeypatch.setattr(_CondensedLU, "solve", rounded_first)
        spec = dataclasses.replace(get_experiment("table5").spec, j=j)
        _, dm, system = build_level(refined(spec.domain_tag, 2), spec)
        A, b = assembled_matrix(system), full_rhs(system)

        def assembled_residual(local):
            return np.linalg.norm(b - A @ full_vector(local, dm)) / np.linalg.norm(b)

        sol = solve(system, tol=1e-14)
        assert sol.info["refine_steps"] >= 1 and sol.info["initial_residual"] > 1e-9
        assert abs(sol.info["initial_residual"] - assembled_residual(rows[0])) <= 1e-15
        assert abs(sol.residual - assembled_residual(sol.local)) <= 1e-15
        assert_interior_traces_agree(sol, dm)

    def test_catalog_sweep_needs_at_most_one_refinement(self):
        # Guards the pivot threshold: a smaller one lets SuperLU keep tiny
        # diagonal pivots of the c = 0 entries and refinement starts.
        count = 0
        for name, j, level, system in catalog_systems((0, 1, 2, 3)):
            info = solve(system).info
            assert info["refine_steps"] <= 1, (name, j, level, info)
            assert info["initial_residual"] <= 1e-10, (name, j, level, info)
            count += 1
        assert count == 352

    @pytest.mark.parametrize("entry", ["fig8_f10000", "fig9_f10000", "fig10_f10000"])
    def test_flux_jump_where_the_margin_is_thinnest(self, entry):
        # The largest flux jumps of catalog L0-5 are on these j = 1 systems
        # (5.3e-10 on fig10_f10000 at level 5).  The gate is the 1e-9 of
        # acceptance criterion 6 and ``pdwg verify``.
        spec = dataclasses.replace(get_experiment(entry).spec, j=1)
        tables, _, system = build_level(refined(spec.domain_tag, 5), spec)
        sol = solve(system)
        assert sol.info["initial_residual"] <= 1e-11
        assert conservation_report(sol, tables).max_flux_jump <= 1e-9

    def test_fill_at_table5_level6(self):
        spec = get_experiment("table5").spec
        info = solve(build_level(refined(spec.domain_tag, 6), spec)[2]).info
        # COLAMD gives 11.8 here, and separators cut at the median edge
        # (two edges per cell where one mesh line would do) 10.05; cutting
        # between coordinate values and taking the smaller side gives 7.86
        # with 64-edge leaves, and 6.60 with 16-edge leaves.
        assert info["fill_per_nlogn"] <= 6.7

    def test_fill_at_table3_level5(self):
        spec = get_experiment("table3").spec
        info = solve(build_level(refined(spec.domain_tag, 5), spec)[2]).info
        # The L-shape: 8.75 with 64-edge leaves, 7.40 with 16-edge leaves.
        assert info["fill_per_nlogn"] <= 7.5
