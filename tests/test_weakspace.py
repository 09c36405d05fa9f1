import numpy as np
import pytest

from helpers import forms_for, map_to_edge, project_edge, project_element, refined, same_bits, tables_for
from pdwg.fields import constant_vector
from pdwg.assembly import classify_boundary
from pdwg.catalog import catalog
from pdwg.mesh import build_coarse_mesh, refine_uniform
from pdwg.poly import EdgeBasis, TriBasis, quad_edge
from pdwg.weakspace import (
    DofMap,
    commutativity_check,
    project_to_weak,
)

BETA = constant_vector(1.0, -1.0)


def make_dofmap(mesh, j=1, beta=BETA):
    return DofMap(mesh, j, classify_boundary(mesh, forms_for(mesh, beta)))


def coords_of(mesh, t):
    return mesh.vertices[mesh.elements[t]]


def find_reference_like_element(mesh):
    """Element of the coarse unit square congruent to the triangle
    (0,0),(1,0),(0,1): the one containing the origin corner."""
    for t in range(mesh.num_elements):
        coords = coords_of(mesh, t)
        if any(np.allclose(c, (0.0, 0.0)) for c in coords):
            return t
    raise AssertionError("no corner element found")


class TestDofMap:
    def test_unit_square_level0_counts(self):
        # beta=[1,-1]: outflow = bottom + right = 2 of 5 edges
        # N_u = 2, interior lambda = 2*3, free traces = 3*2 -> N_lambda = 12
        mesh = build_coarse_mesh("unit_square")
        dm = make_dofmap(mesh)
        assert dm.n_u == 2
        assert dm.n_lambda == 12
        assert dm.n_free_edges == 3

    def test_invariant_count_formula(self):
        for tag in ("unit_square", "l_shape", "cracked_square"):
            mesh = refined(tag, 2)
            cls = classify_boundary(mesh, forms_for(mesh, BETA))
            dm = DofMap(mesh, 1, cls)
            n_out = len(cls.outflow_edges)
            assert dm.n_lambda == mesh.num_elements * 3 + (mesh.num_edges - n_out) * 2

    def test_j0_dimensions(self):
        mesh = build_coarse_mesh("unit_square")
        dm = make_dofmap(mesh, j=0)
        assert dm.dim_lam0 == 1
        assert dm.dim_lamb == 1
        assert dm.n_lambda == 2 * 1 + 3 * 1

    def test_constrained_edges_have_no_indices(self):
        mesh = refined("unit_square", 1)
        cls = classify_boundary(mesh, forms_for(mesh, BETA))
        dm = DofMap(mesh, 1, cls)
        for e in cls.outflow_edges:
            assert dm.lamb_start[e] == -1
        outflow = np.isin(mesh.element_edges, cls.outflow_edges)
        traces = dm.element_indices[:, :-1].reshape(mesh.num_elements, 3, 2)
        assert np.all(traces[outflow] == -1) and np.all(traces[~outflow] >= 0)
        # Each free edge's traces are its db consecutive indices from
        # lamb_start, and no trace shares an index with a u_T.
        starts = dm.lamb_start[mesh.element_edges][..., None]
        assert np.array_equal(traces, np.where(starts < 0, -1, starts + np.arange(2)))
        assert not np.isin(traces, dm.element_indices[:, -1]).any()
        for t in range(mesh.num_elements):
            idx = dm.element_indices[t, :-1]
            free = idx[idx >= 0]
            assert len(np.unique(free)) == len(free)

    def test_indices_form_bijection(self):
        # Only the traces and u_T are numbered; lam_0 stays in its element.
        mesh = refined("l_shape", 1)
        dm = make_dofmap(mesh)
        T, db = mesh.num_elements, dm.dim_lamb
        assert dm.element_indices.shape == (T, 3 * db + 1)
        seen = set()
        for t in range(T):
            seen.update(int(i) for i in dm.element_indices[t] if i >= 0)
        assert seen == set(range(dm.n_condensed))
        assert dm.n_condensed == dm.n_free_edges * db + T == dm.n_total - T * dm.dim_lam0
        # int32, SuperLU's index type, and read-only.
        assert dm.element_indices.dtype == np.int32 and not dm.element_indices.flags.writeable

    @pytest.mark.parametrize("tag", ["unit_square", "l_shape", "cracked_square"])
    @pytest.mark.parametrize("j", [0, 1])
    def test_u_follows_the_last_trace_of_its_element(self, tag, j):
        # The free traces take the first F db indices, and the u_T of
        # element t takes F db + t, after every trace: the solver eliminates
        # u_T in its element and factors the traces only.
        mesh = refined(tag, 2)
        dm = make_dofmap(mesh, j=j)
        n = dm.n_free_edges * dm.dim_lamb
        assert dm.element_indices[:, :-1].max() == n - 1
        assert np.array_equal(dm.element_indices[:, -1], n + np.arange(mesh.num_elements))

    def test_gather_and_add_equal_the_masked_expressions(self):
        # Every catalog entry at levels 0-2 with j = 0 and 1, on values
        # with signed zeros: gather reads +0.0 on outflow traces, add sums
        # the free entries in element order, bit for bit as the masked
        # expressions the solver and matvec used did.
        rng = np.random.default_rng(5)
        for exp in catalog().values():
            for j in (0, 1):
                mesh = build_coarse_mesh(exp.spec.domain_tag)
                for _ in range(3):
                    dm = make_dofmap(mesh, j=j, beta=exp.spec.beta)
                    idx = dm.element_indices
                    free = idx >= 0
                    y = np.where(rng.random(dm.n_condensed) < 0.1, -0.0, rng.standard_normal(dm.n_condensed))
                    rows = np.where(rng.random(idx.shape) < 0.1, -0.0, rng.standard_normal(idx.shape))
                    assert same_bits(dm.gather(y), np.where(free, y[idx], 0.0))
                    assert same_bits(dm.add(rows), np.bincount(idx[free], rows[free], minlength=dm.n_condensed))
                    mesh = refine_uniform(mesh)

    def test_rejects_unsupported_degrees(self):
        mesh = build_coarse_mesh("unit_square")
        cls = classify_boundary(mesh, forms_for(mesh, BETA))
        with pytest.raises(ValueError):
            DofMap(mesh, 2, cls)
        with pytest.raises(ValueError):
            DofMap(mesh, -1, cls)


class TestWeakGradient:
    def test_gradient_of_h1_linear_is_classical(self):
        # v0 = x with matching trace: grad_w v = (1, 0) on any triangle
        mesh = refined("l_shape", 1)
        tables = tables_for(mesh)
        for t in [0, 3, mesh.num_elements - 1]:
            G = tables.G[t]
            # x = x_c + h_T X in the scaled basis {1, X, Y}
            local = [np.array([tables.centroid[t, 0], tables.diameter[t], 0.0])]
            for i in range(3):
                a_id = mesh.elements[t][i]
                b_id = mesh.elements[t][(i + 1) % 3]
                a, b = mesh.vertices[a_id], mesh.vertices[b_id]
                lo, hi = (a, b) if a_id < b_id else (b, a)
                # linear trace of x along the edge, in the global param
                mid = 0.5 * (lo + hi)
                half = 0.5 * (hi - lo)
                local.append(np.array([mid[0], half[0]]))
            val = G @ np.concatenate(local)
            assert np.allclose(val, [1.0, 0.0], atol=1e-12)

    def test_hypotenuse_trace_oracle(self):
        # oracle: v0=0, vb=1 on the hypotenuse of the reference-like
        # triangle, r=0: grad_w v = <1, n>_e |e| / |T| = (2, 2)
        mesh = build_coarse_mesh("unit_square")
        t = find_reference_like_element(mesh)
        coords = coords_of(mesh, t)
        G = tables_for(mesh).G[t]
        local = np.zeros(3 + 3 * 2)
        for i in range(3):
            a = coords[i]
            b = coords[(i + 1) % 3]
            on_axis = (abs(a[0]) < 1e-14 and abs(b[0]) < 1e-14) or (
                abs(a[1]) < 1e-14 and abs(b[1]) < 1e-14
            )
            if not on_axis:  # the hypotenuse
                local[3 + 2 * i] = 1.0
        val = G @ local
        assert np.allclose(val, [2.0, 2.0], atol=1e-12)

    def test_constant_weak_function_has_zero_gradient(self):
        mesh = refined("unit_square", 1)
        tables = tables_for(mesh)
        for t in range(mesh.num_elements):
            G = tables.G[t]
            local = np.zeros(9)
            local[0] = 1.0  # v0 = 1
            local[3::2] = 1.0  # vb = 1 on each edge
            val = G @ local
            assert np.max(np.abs(val)) < 1e-13

    @pytest.mark.parametrize("tag", ["unit_square", "l_shape", "cracked_square"])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_defining_identity_all_elements(self, tag, level):
        # (grad_w v, psi)_T = -(v0, div psi)_T + <vb, psi.n>_{dT}
        # for every local basis weak function against every psi
        mesh = refined(tag, level)
        basis_j = TriBasis(1)
        basis_e = EdgeBasis(1)
        erule = quad_edge(9)
        worst = 0.0
        tables = tables_for(mesh)
        for t in range(mesh.num_elements):
            G = tables.G[t]
            # r=0: psi in {(1,0),(0,1)}, div psi = 0
            # lhs[comp, n] = area * G[comp, n]
            lhs = tables.area[t] * G
            rhs = np.zeros_like(lhs)
            for i in range(3):
                a_id = mesh.elements[t][i]
                b_id = mesh.elements[t][(i + 1) % 3]
                pts, w, tloc = map_to_edge(erule, mesh.vertices[a_id], mesh.vertices[b_id])
                tglob = tloc if a_id < b_id else -tloc
                evals = basis_e.eval(tglob)
                n = tables.normals[t, i]
                lo = basis_j.dim + i * basis_e.dim
                for comp in range(2):
                    rhs[comp, lo : lo + basis_e.dim] = n[comp] * (w @ evals)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("tag", ["unit_square", "l_shape", "cracked_square"])
    @pytest.mark.parametrize("level", [0, 2])
    def test_commutativity_linear_exact(self, tag, level):
        mesh = refined(tag, level)
        res = commutativity_check(
            lambda x, y: 2.0 * x - y + 0.5,
            lambda x, y: (np.full_like(np.asarray(x, float), 2.0), np.full_like(np.asarray(x, float), -1.0)),
            tables_for(mesh),
        )
        assert res <= 1e-11

    def test_commutativity_x_squared(self):
        # both sides equal the elementwise constant (2 x_c, 0)
        mesh = refined("unit_square", 1)
        res = commutativity_check(
            lambda x, y: x**2,
            lambda x, y: (2.0 * np.asarray(x, float), np.zeros_like(np.asarray(x, float))),
            tables_for(mesh),
        )
        assert res <= 1e-12

        tables = tables_for(mesh)
        proj = project_to_weak(lambda x, y: x**2, tables)
        t = 0
        G = tables.G[t]
        centroid = coords_of(mesh, t).mean(axis=0)
        assert np.allclose(G @ proj[t], [2.0 * centroid[0], 0.0], atol=1e-12)

    def test_commutativity_smooth_with_enlarged_quadrature(self):
        mesh = refined("unit_square", 3)
        res = commutativity_check(
            lambda x, y: np.sin(x) * np.cos(y),
            lambda x, y: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)),
            tables_for(mesh),
        )
        assert res <= 1e-10

    @pytest.mark.parametrize("tag", ["unit_square", "l_shape", "cracked_square"])
    @pytest.mark.parametrize("j", [0, 1])
    def test_project_to_weak_matches_loop(self, tag, j):
        mesh = refined(tag, 3)

        def w(x, y):
            return np.sin(3.0 * x) * np.exp(y) + x * y

        # The element tables integrate on the interior rule of exactness 2j+4.
        proj = project_to_weak(w, tables_for(mesh, j=j))
        lam0 = np.array([project_element(w, j, coords_of(mesh, t), 2 * j + 4) for t in range(mesh.num_elements)])
        lamb = np.array([project_edge(w, j, *mesh.vertices[mesh.edges[e]]) for e in range(mesh.num_edges)])
        traces = lamb[mesh.element_edges].reshape(mesh.num_elements, -1)
        d0 = lam0.shape[1]
        assert proj.shape == (mesh.num_elements, d0 + traces.shape[1])
        assert np.allclose(proj[:, :d0], lam0, rtol=0, atol=1e-14 * np.abs(lam0).max())
        assert np.allclose(proj[:, d0:], traces, rtol=0, atol=1e-14 * np.abs(lamb).max())

        # Both elements of an interior edge hold the same trace, bit for bit.
        interior = np.flatnonzero(mesh.edge_elems[:, 1] >= 0)
        rows = proj[:, d0:].reshape(mesh.num_elements, 3, -1)
        sides = []
        for k in (0, 1):
            sides.append(rows[mesh.edge_elems[interior, k], mesh.edge_local[interior, k]])
        assert len(interior) and np.array_equal(sides[0], sides[1])

