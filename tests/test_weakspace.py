import numpy as np
import pytest

from pdwg.fields import constant_vector
from pdwg.mesh import build_coarse_mesh, classify_boundary, element_geometry, refine_uniform
from pdwg.poly import (
    EdgeBasis,
    TriBasis,
    map_to_edge,
    project_edge,
    project_element,
    quad_edge,
    quad_triangle,
)
from pdwg.weakspace import (
    DofMap,
    PrimalFunction,
    WeakFunction,
    commutativity_check,
    project_to_weak,
    weak_gradient_local,
)

BETA = constant_vector(1.0, -1.0)


def refined(tag, level):
    mesh = build_coarse_mesh(tag)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def make_dofmap(mesh, k=1, j=1, beta=BETA):
    return DofMap(mesh, k, j, classify_boundary(mesh, beta))


def find_reference_like_element(mesh):
    """Element of the coarse unit square congruent to the triangle
    (0,0),(1,0),(0,1): the one containing the origin corner."""
    for t in range(mesh.num_elements):
        coords = mesh.element_coords(t)
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
            dm = make_dofmap(mesh)
            n_out = len(dm.classification.outflow_edges)
            assert dm.n_lambda == mesh.num_elements * 3 + (mesh.num_edges - n_out) * 2

    def test_j0_dimensions(self):
        mesh = build_coarse_mesh("unit_square")
        dm = make_dofmap(mesh, j=0)
        assert dm.dim_lam0 == 1
        assert dm.dim_lamb == 1
        assert dm.n_lambda == 2 * 1 + 3 * 1

    def test_constrained_edges_have_no_indices(self):
        mesh = refined("unit_square", 1)
        dm = make_dofmap(mesh)
        for e in dm.classification.outflow_edges:
            assert dm.is_constrained_edge(e)
            assert dm.lamb_start[e] == -1
        for t in range(mesh.num_elements):
            idx = dm.element_lambda_indices(t)
            free = idx[idx >= 0]
            assert np.all(free < dm.n_lambda)
            assert len(np.unique(free)) == len(free)

    def test_indices_form_bijection(self):
        mesh = refined("l_shape", 1)
        dm = make_dofmap(mesh)
        seen = set()
        for t in range(mesh.num_elements):
            seen.update(int(i) for i in dm.element_lambda_indices(t) if i >= 0)
            seen.update(int(i) for i in dm.u_indices(t))
        assert seen == set(range(dm.n_total))

    def test_rejects_unsupported_degrees(self):
        mesh = build_coarse_mesh("unit_square")
        cls = classify_boundary(mesh, BETA)
        with pytest.raises(ValueError):
            DofMap(mesh, 2, 2, cls)
        with pytest.raises(ValueError):
            DofMap(mesh, 1, 2, cls)


class TestWeakFunctionRoundTrip:
    def test_free_vector_round_trip(self):
        mesh = refined("unit_square", 1)
        dm = make_dofmap(mesh)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(dm.n_lambda)
        wf = WeakFunction.from_free_vector(dm, x)
        assert np.allclose(wf.free_vector(dm), x)
        for e in dm.classification.outflow_edges:
            assert np.all(wf.lamb[e] == 0.0)


class TestWeakGradient:
    def test_gradient_of_h1_linear_is_classical(self):
        # v0 = x with matching trace: grad_w v = (1, 0) on any triangle
        mesh = refined("l_shape", 1)
        for t in [0, 3, mesh.num_elements - 1]:
            G = weak_gradient_local(mesh, t, k=1, j=1)
            lam0 = project_element(lambda x, y: x, 1, mesh.element_coords(t))
            local = [lam0]
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
            assert np.allclose(val[:, 0], [1.0, 0.0], atol=1e-12)

    def test_hypotenuse_trace_oracle(self):
        # oracle: v0=0, vb=1 on the hypotenuse of the reference-like
        # triangle, r=0: grad_w v = <1, n>_e |e| / |T| = (2, 2)
        mesh = build_coarse_mesh("unit_square")
        t = find_reference_like_element(mesh)
        coords = mesh.element_coords(t)
        G = weak_gradient_local(mesh, t, k=1, j=1)
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
        assert np.allclose(val[:, 0], [2.0, 2.0], atol=1e-12)

    def test_constant_weak_function_has_zero_gradient(self):
        mesh = refined("unit_square", 1)
        for t in range(mesh.num_elements):
            G = weak_gradient_local(mesh, t, k=1, j=1)
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
        rule = quad_triangle(4)
        erule = quad_edge(9)
        worst = 0.0
        for t in range(mesh.num_elements):
            geom = element_geometry(mesh, t)
            coords = mesh.element_coords(t)
            G = weak_gradient_local(mesh, t, k=1, j=1)
            area = geom.area
            # r=0: psi in {(1,0),(0,1)}, div psi = 0
            # lhs[comp, n] = area * G[comp, 0, n]
            lhs = area * G[:, 0, :]
            rhs = np.zeros_like(lhs)
            for i in range(3):
                a_id = mesh.elements[t][i]
                b_id = mesh.elements[t][(i + 1) % 3]
                pts, w, tloc = map_to_edge(erule, mesh.vertices[a_id], mesh.vertices[b_id])
                tglob = tloc if a_id < b_id else -tloc
                evals = basis_e.eval(tglob)
                n = geom.edge_normals[i]
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
            mesh, k=1, j=1,
        )
        assert res <= 1e-11

    def test_commutativity_x_squared(self):
        # both sides equal the elementwise constant (2 x_c, 0)
        mesh = refined("unit_square", 1)
        res = commutativity_check(
            lambda x, y: x**2,
            lambda x, y: (2.0 * np.asarray(x, float), np.zeros_like(np.asarray(x, float))),
            mesh, k=1, j=1,
        )
        assert res <= 1e-12

        proj = project_to_weak(lambda x, y: x**2, mesh, j=1)
        t = 0
        G = weak_gradient_local(mesh, t, 1, 1)
        local = np.concatenate(
            [proj.lam0[t]] + [proj.lamb[mesh.element_edges[t, i]] for i in range(3)]
        )
        centroid = mesh.element_coords(t).mean(axis=0)
        assert np.allclose((G @ local)[:, 0], [2.0 * centroid[0], 0.0], atol=1e-12)

    def test_commutativity_smooth_with_enlarged_quadrature(self):
        mesh = refined("unit_square", 3)
        res = commutativity_check(
            lambda x, y: np.sin(x) * np.cos(y),
            lambda x, y: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)),
            mesh, k=1, j=1, quad_degree=8,
        )
        assert res <= 1e-10

    @pytest.mark.parametrize("tag", ["unit_square", "l_shape", "cracked_square"])
    @pytest.mark.parametrize("j", [0, 1])
    def test_project_to_weak_matches_loop(self, tag, j):
        mesh = refined(tag, 3)

        def w(x, y):
            return np.sin(3.0 * x) * np.exp(y) + x * y

        proj = project_to_weak(w, mesh, j, quad_degree=8)
        lam0 = np.array([project_element(w, j, mesh.element_coords(t), 8) for t in range(mesh.num_elements)])
        lamb = np.array([project_edge(w, j, *mesh.vertices[mesh.edges[e]]) for e in range(mesh.num_edges)])
        assert np.allclose(proj.lam0, lam0, rtol=0, atol=1e-14 * np.abs(lam0).max())
        assert np.allclose(proj.lamb, lamb, rtol=0, atol=1e-14 * np.abs(lamb).max())

    def test_commutativity_requires_j_at_least_k_minus_1(self):
        mesh = build_coarse_mesh("unit_square")
        with pytest.raises(ValueError):
            commutativity_check(lambda x, y: x, lambda x, y: (1.0, 0.0), mesh, k=2, j=0)


class TestPrimalFunction:
    def test_vector_round_trip(self):
        mesh = refined("unit_square", 1)
        dm = make_dofmap(mesh)
        x = np.arange(dm.n_u, dtype=float)
        u = PrimalFunction.from_vector(dm, x)
        assert np.allclose(u.vector(), x)
        assert u.coeffs.shape == (mesh.num_elements, 1)
