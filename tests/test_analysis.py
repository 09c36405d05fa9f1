import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pdwg.analysis import (
    _sum_per_edge,
    _trace_values,
    conservation_report,
    error_norms,
    nodal_interpolant,
    postprocess_averages,
    triple_norm_Wh,
)
from helpers import build_level, refined, same_bits
from pdwg.assembly import ElementTables, ProblemSpec, build_contexts
from pdwg.fields import constant, constant_vector
from pdwg.mesh import build_coarse_mesh
from pdwg.solver import Solution, solve
from pdwg.study import StudyReport
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
    spec = make_spec(tau=tau, domain=domain, exact=constant(1.0))
    tables, dm, system = build_level(refined(domain, level), spec)
    return tables, dm, solve(system)


class TestNodalInterpolant:
    def test_constant(self):
        mesh = refined("unit_square", 1)
        interp = nodal_interpolant(lambda x, y: np.ones_like(x), ElementTables(mesh, 1))
        assert interp.shape == (mesh.num_elements,)
        assert np.allclose(interp, 1.0)

    def test_linear_is_centroid_value(self):
        mesh = build_coarse_mesh("unit_square")
        interp = nodal_interpolant(lambda x, y: x, ElementTables(mesh, 1))
        for t in range(mesh.num_elements):
            cx = mesh.vertices[mesh.elements[t]].mean(axis=0)[0]
            assert interp[t] == pytest.approx(cx, abs=1e-15)

    def test_smooth_sample(self):
        mesh = refined("unit_square", 2)
        interp = nodal_interpolant(lambda x, y: np.sin(x) * np.cos(y), ElementTables(mesh, 1))
        c = mesh.vertices[mesh.elements[5]].mean(axis=0)
        assert interp[5] == pytest.approx(math.sin(c[0]) * math.cos(c[1]))


class TestErrorNorms:
    def test_constant_offset(self):
        # u_h = I_h u + 0.5 on the unit square: ||e_h|| = 0.5 (area 1)
        tables, dm, sol = solved_unit_problem(level=2)
        sol.local[:, :-1] = 0.0
        sol.local[:, -1] = 1.5
        rep = error_norms(sol, tables)
        assert rep.err_u == pytest.approx(0.5, abs=1e-12)
        assert rep.err_lam0 == 0.0
        assert rep.err_lamb == 0.0

    def test_unit_solution_machine_accuracy(self):
        tables, dm, sol = solved_unit_problem(level=2)
        rep = error_norms(sol, tables)
        assert rep.err_u <= 1e-8
        assert rep.err_lam0 <= 1e-8
        assert rep.err_lamb <= 1e-8

    def test_requires_exact_solution(self):
        tables, dm, sol = solved_unit_problem(level=1)
        bare = dataclasses.replace(tables.spec, exact_u=None)
        with pytest.raises(ValueError):
            error_norms(sol, build_contexts(tables.mesh, bare))
        with pytest.raises(ValueError, match="never sampled.*build_contexts"):
            error_norms(sol, ElementTables(tables.mesh, 1))


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
        from pdwg.poly import project_element

        lam = np.zeros((mesh.num_elements, 3 + 3 * 2))
        lam[t, :3] = project_element(lambda x, y: x, 1, mesh.vertices[mesh.elements[t]])
        expected = math.sqrt((1.0 / 3.0 + math.sqrt(2.0) / 3.0) / math.sqrt(2.0))
        tables = build_contexts(mesh, spec)
        assert triple_norm_Wh(lam, tables) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("domain", ["unit_square", "l_shape"])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_matches_assembled_quadratic_form(self, domain, tau):
        mesh = refined(domain, 1)
        spec = make_spec(tau=tau, domain=domain)
        tables, dm, system = build_level(mesh, spec)
        S = system.matrix[: dm.n_lambda, : dm.n_lambda]
        idx = dm.element_indices[:, :-1]
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.standard_normal(dm.n_lambda)
            lam = np.where(idx >= 0, x[idx], 0.0)
            quad = float(x @ (S @ x))
            norm = triple_norm_Wh(lam, tables)
            assert norm**2 == pytest.approx(quad, rel=1e-12, abs=1e-13)


class TestConservation:
    def test_unit_solution(self):
        tables, dm, sol = solved_unit_problem(level=2)
        rep = conservation_report(sol, tables)
        assert rep.max_element_residual <= 1e-10
        assert rep.max_flux_jump <= 1e-10
        assert rep.scale_f == 1.0

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_solved_smooth_problem(self, tau):
        from pdwg.catalog import get_experiment
        from pdwg.study import run_study

        rep = run_study(get_experiment("table5"), levels=(3, 3), tau=tau)
        row = rep.rows[0]
        assert row.cons_max_residual <= 1e-9 * row.cons_scale_f
        assert row.cons_max_flux_jump <= 1e-9

    def test_perturbation_detected(self):
        tables, dm, sol = solved_unit_problem(level=1)
        sol.local[0, -1] += 0.01
        rep = conservation_report(sol, tables)
        assert rep.max_element_residual > 1e-6

    def test_residual_scales_linearly_with_solution_error(self):
        # conservation quantities are linear in the algebraic residual, so
        # scaling a solution perturbation by 10 scales the maxima by 10
        tables, dm, sol = solved_unit_problem(level=1)
        rng = np.random.default_rng(5)
        du = rng.standard_normal(tables.mesh.num_elements)
        dl0 = rng.standard_normal((tables.mesh.num_elements, dm.dim_lam0))

        def perturbed(scale):
            import copy

            s = copy.deepcopy(sol)
            s.local[:, -1] += scale * du
            s.local[:, : dm.dim_lam0] += scale * dl0
            return conservation_report(s, tables)

        small = perturbed(1e-3)
        large = perturbed(1e-2)
        assert large.max_element_residual / small.max_element_residual == pytest.approx(
            10.0, rel=1e-3
        )
        assert large.max_flux_jump / small.max_flux_jump == pytest.approx(10.0, rel=1e-3)


def orders(errors):
    rows = [SimpleNamespace(err_u=e) for e in errors]
    return StudyReport("orders", rows=rows).orders("err_u")


class TestSumPerEdge:
    def test_equals_add_at(self):
        # Bit for bit, signed zeros included: one bincount per column adds
        # each edge's element rows from 0 in element order, as add.at does.
        mesh = refined("cracked_square", 2)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((mesh.num_elements, 3, 2)) * 10.0 ** rng.integers(-300, 300, (mesh.num_elements, 3, 2))
        values[::5] = -0.0
        expected = np.zeros((mesh.num_edges, 2))
        np.add.at(expected, mesh.element_edges, values)
        assert same_bits(_sum_per_edge(mesh, values), expected)


class TestTraceValues:
    @pytest.mark.parametrize("j", [0, 1])
    def test_equals_the_einsum(self, j):
        # Bit for bit, signed zeros included, on jittered vertices and
        # element rows over 1e-100..1e100: the spelled-out sum over the
        # trace coefficients is the einsum it replaces.
        mesh = refined("l_shape", 2)
        rng = np.random.default_rng(7)
        mesh = dataclasses.replace(mesh, vertices=mesh.vertices + 0.01 * rng.standard_normal(mesh.vertices.shape))
        tables = ElementTables(mesh, j)
        shape = (mesh.num_elements, tables.n_loc + 1)
        local = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100, shape)
        local[rng.random(shape) < 0.3] = -0.0
        local[rng.random(shape) < 0.2] = 0.0
        traces = local[:, tables.dim_lam0 : -1].reshape(len(local), 3, -1)
        expected = np.einsum("tiqm,tim->tiq", tables.edge_trace, traces)
        assert same_bits(_trace_values(Solution(local, 0.0, {}), tables), expected)


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
