import dataclasses
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import pdwg.solver
import pdwg.study
from pdwg.analysis import (
    build_checks,
    conservation_report,
    error_norms,
    nodal_interpolant,
    postprocess_averages,
    triple_norm_Wh,
)
from helpers import (
    assembled_matrix,
    build_level,
    direct_conservation,
    direct_error_norms,
    full_indices,
    refined,
    same_bits,
    tables_for,
)
from pdwg.assembly import ProblemSpec, build_contexts
from pdwg.catalog import catalog, get_experiment
from pdwg.fields import constant, constant_vector
from pdwg.mesh import build_coarse_mesh
from pdwg.solver import solve
from pdwg.study import ROUNDOFF_ERROR, StudyReport, run_study
from pdwg.weakspace import project_to_weak


def make_spec(beta=(1.0, -1.0), c=1.0, f=1.0, g=1.0, tau=1.0, domain="unit_square", exact=None):
    return ProblemSpec(
        beta=constant_vector(*beta),
        c=constant(c),
        f=constant(f),
        g=constant(g),
        tau=tau,
        domain_tag=domain,
        exact_u=exact,
    )


def solved_unit_problem(level=2, tau=1.0, domain="unit_square"):
    """The level's checks, DOF map and solution of the constant solution."""
    spec = make_spec(tau=tau, domain=domain, exact=constant(1.0))
    tables, dm, system = build_level(refined(domain, level), spec)
    return build_checks(tables), dm, solve(system)


class TestNodalInterpolant:
    def test_constant(self):
        mesh = refined("unit_square", 1)
        interp = nodal_interpolant(lambda x, y: np.ones_like(x), tables_for(mesh))
        assert interp.shape == (mesh.num_elements,)
        assert np.allclose(interp, 1.0)

    def test_linear_is_centroid_value(self):
        mesh = build_coarse_mesh("unit_square")
        interp = nodal_interpolant(lambda x, y: x, tables_for(mesh))
        for t in range(mesh.num_elements):
            cx = mesh.vertices[mesh.elements[t]].mean(axis=0)[0]
            assert interp[t] == pytest.approx(cx, abs=1e-15)

    def test_smooth_sample(self):
        mesh = refined("unit_square", 2)
        interp = nodal_interpolant(lambda x, y: np.sin(x) * np.cos(y), tables_for(mesh))
        c = mesh.vertices[mesh.elements[5]].mean(axis=0)
        assert interp[5] == pytest.approx(math.sin(c[0]) * math.cos(c[1]))


class TestErrorNorms:
    def test_constant_offset(self):
        # u_h = I_h u + 0.5 on the unit square: ||e_h|| = 0.5 (area 1)
        checks, dm, sol = solved_unit_problem(level=2)
        sol.local[:, :-1] = 0.0
        sol.local[:, -1] = 1.5
        rep = error_norms(sol, checks)
        assert rep.err_u == pytest.approx(0.5, abs=1e-12)
        assert rep.err_lam0 == 0.0
        assert rep.err_lamb == 0.0

    def test_unit_solution_machine_accuracy(self):
        checks, dm, sol = solved_unit_problem(level=2)
        rep = error_norms(sol, checks)
        assert rep.err_u <= 1e-8
        assert rep.err_lam0 <= 1e-8
        assert rep.err_lamb <= 1e-8

    def test_requires_exact_solution(self):
        checks, dm, sol = solved_unit_problem(level=1)
        bare = make_spec()
        with pytest.raises(ValueError, match="exact solution"):
            error_norms(sol, build_checks(build_contexts(checks.mesh, bare)))


class TestTripleNormWh:
    def test_continuous_multiplier_vanishes_tau0(self):
        mesh = refined("unit_square", 1)
        spec = make_spec(tau=0.0)
        tables = build_contexts(mesh, spec)
        lam = project_to_weak(lambda x, y: x * 0 + 2.0, tables)
        assert triple_norm_Wh(lam, tables) < 1e-13

    def test_reference_triangle_value(self):
        # same oracle as the local stabilizer: lam0=x, lamb=0, tau=0 on
        # the corner element gives s = (1/3 + sqrt(2)/3)/sqrt(2)
        mesh = build_coarse_mesh("unit_square")
        spec = make_spec(tau=0.0)
        t = next(
            t for t in range(2)
            if any(np.allclose(v, (0, 0)) for v in mesh.vertices[mesh.elements[t]])
        )
        tables = build_contexts(mesh, spec)
        lam = np.zeros((mesh.num_elements, 3 + 3 * 2))
        # x = x_c + h_T X in the scaled basis {1, X, Y}
        lam[t, :3] = tables.centroid[t, 0], tables.diameter[t], 0.0
        expected = math.sqrt((1.0 / 3.0 + math.sqrt(2.0) / 3.0) / math.sqrt(2.0))
        assert triple_norm_Wh(lam, tables) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("domain", ["unit_square", "l_shape"])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_matches_assembled_quadratic_form(self, domain, tau):
        mesh = refined(domain, 1)
        spec = make_spec(tau=tau, domain=domain)
        tables, dm, system = build_level(mesh, spec)
        S = assembled_matrix(system)[: dm.n_lambda, : dm.n_lambda]
        idx = full_indices(dm)[:, :-1]
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.standard_normal(dm.n_lambda)
            lam = np.where(idx >= 0, x[idx], 0.0)
            quad = float(x @ (S @ x))
            norm = triple_norm_Wh(lam, tables)
            assert norm**2 == pytest.approx(quad, rel=1e-12, abs=1e-13)


class TestConservation:
    def test_unit_solution(self):
        checks, dm, sol = solved_unit_problem(level=2)
        rep = conservation_report(sol, checks)
        assert rep.max_element_residual <= 1e-10
        assert rep.max_flux_jump <= 1e-10
        assert rep.scale_f == 1.0

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_solved_smooth_problem(self, tau):
        rep = run_study(get_experiment("table5"), levels=(3, 3), tau=tau)
        row = rep.rows[0]
        assert row.cons_max_residual <= 1e-9 * row.cons_scale_f
        assert row.cons_max_flux_jump <= 1e-9

    def test_perturbation_detected(self):
        checks, dm, sol = solved_unit_problem(level=1)
        sol.local[0, -1] += 0.01
        rep = conservation_report(sol, checks)
        assert rep.max_element_residual > 1e-6

    def test_residual_scales_linearly_with_solution_error(self):
        # conservation quantities are linear in the algebraic residual, so
        # scaling a solution perturbation by 10 scales the maxima by 10
        checks, dm, sol = solved_unit_problem(level=1)
        rng = np.random.default_rng(5)
        du = rng.standard_normal(checks.mesh.num_elements)
        dl0 = rng.standard_normal((checks.mesh.num_elements, dm.dim_lam0))

        def perturbed(scale):
            import copy

            s = copy.deepcopy(sol)
            s.local[:, -1] += scale * du
            s.local[:, : dm.dim_lam0] += scale * dl0
            return conservation_report(s, checks)

        small = perturbed(1e-3)
        large = perturbed(1e-2)
        assert large.max_element_residual / small.max_element_residual == pytest.approx(
            10.0, rel=1e-3
        )
        assert large.max_flux_jump / small.max_flux_jump == pytest.approx(10.0, rel=1e-3)


def orders(errors):
    rows = [SimpleNamespace(err_u=e) for e in errors]
    return StudyReport(rows=rows).orders("err_u")


class TestChecks:
    def test_operators_equal_the_direct_formulas(self):
        # The per-element operators, formed before the factor, against the
        # checks evaluated directly at the quadrature points of the tables
        # (tests/helpers.py), over the catalog at levels 0-2 with j = k-1
        # and j = k.  They add the same terms in another order.
        for name, exp in catalog().items():
            for j in (0, 1):
                spec = dataclasses.replace(exp.spec, j=j)
                for level in range(3):
                    tables, _, system = build_level(refined(spec.domain_tag, level), spec)
                    checks = build_checks(tables)
                    sol = solve(system)
                    where = (name, j, level)
                    if spec.exact_u is not None:
                        got, want = error_norms(sol, checks), direct_error_norms(sol.local, tables)
                        for key in ("err_u", "err_lam0", "err_lamb"):
                            if getattr(want, key) > ROUNDOFF_ERROR:
                                assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=0), where
                    got, want = conservation_report(sol, checks), direct_conservation(sol.local, tables)
                    assert got.scale_f == want.scale_f, where
                    assert np.abs(got.element_residuals - want.element_residuals).max() <= 1e-12 * got.scale_f, where
                    assert np.array_equal(got.interior_edges, want.interior_edges), where
                    assert np.abs(got.flux_jumps - want.flux_jumps).max(initial=0.0) <= 1e-10, where

    def test_no_tables_alive_during_the_factor(self, monkeypatch):
        # run_level drops each level's element tables once its checks are
        # formed, so the factor of every level of a study runs without them.
        alive, factored = [], []
        build, splu = pdwg.study.build_contexts, pdwg.solver.splu

        def tracked_build(*args):
            tables = build(*args)
            alive.append(weakref.ref(tables))
            return tables

        def checked_splu(*args, **kwargs):
            factored.append([ref() is None for ref in alive])
            return splu(*args, **kwargs)

        monkeypatch.setattr(pdwg.study, "build_contexts", tracked_build)
        monkeypatch.setattr(pdwg.solver, "splu", checked_splu)
        run_study(get_experiment("table5"), levels=(0, 2))
        assert len(alive) == 3 and [len(dead) for dead in factored] == [1, 2, 3]
        assert all(all(dead) for dead in factored)


class TestOrders:
    def test_benchmark_row(self):
        result = orders([0.06461, 0.02966])
        assert result[0] is None
        assert result[1] == pytest.approx(1.123, abs=1e-3)

    def test_exact_halving_and_quartering(self):
        assert orders([0.4, 0.2])[1] == pytest.approx(1.0)
        assert orders([0.4, 0.1])[1] == pytest.approx(2.0)


class TestPostprocess:
    def test_constant_field(self):
        mesh = refined("unit_square", 1)
        field = postprocess_averages(np.full(mesh.num_elements, 3.0), mesh)
        assert np.allclose(field.value, 3.0)
        assert len(field.x) == mesh.num_vertices + mesh.num_edges

    def test_vertex_and_midpoint_averages(self):
        mesh = build_coarse_mesh("unit_square")
        u = np.array([7.0, 9.0])
        field = postprocess_averages(u, mesh)
        # vertex values: corners (1,0) and (0,1) touch both elements
        vertex_vals = field.value[: mesh.num_vertices]
        for v, (x, y) in enumerate(mesh.vertices):
            incident = [t for t in range(2) if v in mesh.elements[t]]
            expected = np.mean([u[t] for t in incident])
            assert vertex_vals[v] == pytest.approx(expected)
        # the interior (diagonal) edge midpoint averages both elements;
        # boundary edge midpoints take their single element's value
        edge_vals = field.value[mesh.num_vertices :]
        for e in range(mesh.num_edges):
            t1, t2 = mesh.edge_elems[e]
            if t2 >= 0:
                assert edge_vals[e] == pytest.approx(8.0)
            else:
                assert edge_vals[e] == pytest.approx(u[int(t1)])

    def test_matches_loop_reference(self):
        mesh = refined("cracked_square", 2)
        vals = np.sin(np.arange(mesh.num_elements, dtype=float))
        field = postprocess_averages(vals, mesh)
        vertex = np.zeros(mesh.num_vertices)
        count = np.zeros(mesh.num_vertices)
        for t, tri in enumerate(mesh.elements):
            for v in tri:
                vertex[v] += vals[t]
                count[v] += 1
        edge = [np.mean([vals[t] for t in pair if t >= 0]) for pair in mesh.edge_elems]
        assert np.array_equal(field.value[: mesh.num_vertices], vertex / count)
        assert np.allclose(field.value[mesh.num_vertices :], edge, rtol=0, atol=1e-15)

    def test_edge_values_equal_the_sum_and_count(self):
        # Bit for bit, signed zeros included, on values over 1e-300..1e300:
        # the edge values read from each edge's one or two elements are the
        # per-edge sums from 0 divided by the element counts.
        mesh = refined("cracked_square", 2)
        rng = np.random.default_rng(11)
        T = mesh.num_elements
        vals = rng.standard_normal(T) * 10.0 ** rng.integers(-300, 301, T)
        vals[::4] = -0.0
        vals[1::7] = 0.0
        sides = mesh.edge_elems.ravel()
        edge_of = np.repeat(np.arange(mesh.num_edges), 2)[sides >= 0]
        esum = np.bincount(edge_of, weights=vals[sides[sides >= 0]], minlength=mesh.num_edges)
        ecnt = np.bincount(edge_of, minlength=mesh.num_edges)
        expected = esum / np.maximum(ecnt, 1)
        assert (ecnt == 2).any() and (ecnt == 1).any()
        field = postprocess_averages(vals, mesh)
        assert same_bits(field.value[mesh.num_vertices :], expected)

    def test_crack_sides_average_separately(self):
        mesh = refined("cracked_square", 1)
        centroids = mesh.vertices[mesh.elements].mean(axis=1)
        vals = np.where(centroids[:, 1] > 0, 1.0, -1.0)
        field = postprocess_averages(vals, mesh)
        # both copies of the duplicated crack midpoint (0.5, 0) keep their
        # own side's value
        idx = np.flatnonzero(
            (np.abs(mesh.vertices[:, 0] - 0.5) < 1e-14)
            & (np.abs(mesh.vertices[:, 1]) < 1e-14)
        )
        assert len(idx) == 2
        got = sorted(field.value[i] for i in idx)
        assert got == pytest.approx([-1.0, 1.0])
