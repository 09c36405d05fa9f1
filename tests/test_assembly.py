import dataclasses
import warnings

import numpy as np
import pytest

from helpers import assembled_matrix, build_level, forms_for, full_indices, full_rhs, refined, same_bits, tables_for
from pdwg.analysis import build_checks
from pdwg.assembly import (
    EDGE_MIDPOINT,
    ProblemSpec,
    assemble,
    build_contexts,
    build_forms,
    classify_boundary,
)
from pdwg.catalog import catalog, get_experiment
from pdwg.fields import (
    DerivedLoad,
    HalfPlane,
    Piecewise,
    SCALAR_FIELDS,
    constant,
    constant_vector,
    rotation,
)
from pdwg.mesh import build_coarse_mesh
from pdwg.poly import TriBasis
from pdwg.weakspace import DofMap


def make_spec(beta=(1.0, -1.0), c=1.0, f=0.0, g=0.0, tau=1.0, domain="unit_square", **kw):
    return ProblemSpec(
        beta=constant_vector(*beta),
        c=constant(c),
        f=constant(f),
        g=constant(g),
        tau=tau,
        domain_tag=domain,
        **kw,
    )


def pair_load(exact, beta, c, x, y):
    """beta . grad u + u div beta + c u for one (beta, c) leaf pair and one
    leaf of the exact solution, every field called on the points (x, y):
    the reference that the sampled derived load must equal bit for bit."""
    ux, uy = exact.grad(x, y)
    bx, by = beta(x, y)
    u = exact(x, y)
    return bx * ux + by * uy + beta.div(x, y) * u + c(x, y) * u


def per_pair_load(tables, spec):
    """The derived load of ``spec`` at the interior points of ``tables``,
    each (beta, c) leaf pair with each leaf of the exact solution evaluated
    on the C-ordered copy of the points it holds: beta and c by the leaf at
    the element's centroid, the exact solution by the leaf at the point."""
    x, y = tables.qpts[..., 0], tables.qpts[..., 1]
    cx, cy = tables.centroid.T
    bi, ci = spec.beta.branch_index(cx, cy)[:, None], spec.c.branch_index(cx, cy)[:, None]
    exact = spec.f.exact
    ui = exact.branch_index(x, y)
    f = np.empty_like(x)
    for b, beta in enumerate(spec.beta.branches):
        for k, c in enumerate(spec.c.branches):
            for e, u in enumerate(exact.branches):
                at = (bi == b) & (ci == k) & (ui == e)
                f[at] = pair_load(u, beta, c, x[at], y[at])
    return f


def coords_of(mesh, t):
    return mesh.vertices[mesh.elements[t]]


def corner_element(mesh):
    for t in range(mesh.num_elements):
        if any(np.allclose(v, (0.0, 0.0)) for v in coords_of(mesh, t)):
            return t
    raise AssertionError


def local_coeffs_interior_x(mesh, t):
    """Local multiplier coefficients for lam0 = x = x_c + h_T X, lam_b = 0."""
    tables = tables_for(mesh)
    return np.concatenate([[tables.centroid[t, 0], tables.diameter[t], 0.0], np.zeros(6)])


class TestLocalStabilizer:
    def test_reference_triangle_interior_only(self):
        # oracle: h^-1 * contour integral of x^2 over the triangle
        # (0,0),(1,0),(0,1): (1/3 + sqrt(2)/3) / sqrt(2)
        mesh = build_coarse_mesh("unit_square")
        t = corner_element(mesh)
        spec = make_spec(tau=0.0)
        S = build_contexts(mesh, spec).stabilizer()[t]
        rho = local_coeffs_interior_x(mesh, t)
        expected = (1.0 / 3.0 + np.sqrt(2.0) / 3.0) / np.sqrt(2.0)
        assert rho @ S @ rho == pytest.approx(expected, abs=1e-13)

    def test_reference_triangle_with_transport_term(self):
        # adding tau=1, beta=(1,0), c=0 contributes int_T 1 = 1/2
        mesh = build_coarse_mesh("unit_square")
        t = corner_element(mesh)
        spec = make_spec(beta=(1.0, 0.0), c=0.0, tau=1.0)
        S = build_contexts(mesh, spec).stabilizer()[t]
        rho = local_coeffs_interior_x(mesh, t)
        expected = (1.0 / 3.0 + np.sqrt(2.0) / 3.0) / np.sqrt(2.0) + 0.5
        assert rho @ S @ rho == pytest.approx(expected, abs=1e-13)

    def test_kernel_of_stabilizer(self):
        # rho0 = rho_b = x with beta=(1,0), c=0 satisfies beta.grad - c = ...
        # nonzero; use rho = constant 1 with c=0 instead: both terms vanish
        mesh = build_coarse_mesh("unit_square")
        t = corner_element(mesh)
        spec = make_spec(beta=(1.0, -1.0), c=0.0, tau=1.0)
        S = build_contexts(mesh, spec).stabilizer()[t]
        rho = np.zeros(9)
        rho[0] = 1.0
        rho[3::2] = 1.0
        assert abs(rho @ S @ rho) < 1e-14

    def test_symmetric_psd(self):
        mesh = refined("l_shape", 1)
        spec = make_spec(tau=2.5)
        stabilizers = build_contexts(mesh, spec).stabilizer()
        for t in (0, 5, 11):
            S = stabilizers[t]
            assert np.allclose(S, S.T)
            assert np.min(np.linalg.eigvalsh(S)) > -1e-13

    @pytest.mark.parametrize("tau", [0.0, 1.0, 1e4])
    def test_exactly_symmetric(self, tau):
        mesh = refined("l_shape", 1)
        for j in (0, 1):
            S = build_contexts(mesh, make_spec(tau=tau, j=j)).stabilizer()
            assert np.array_equal(S, np.swapaxes(S, 1, 2))

    def test_adjoint_matches_finite_difference(self):
        # beta.grad(sigma_0) - c sigma_0 at every interior quadrature point,
        # with the derivative along beta taken by central differences
        mesh = refined("l_shape", 1)
        for j in (0, 1):
            tables = build_contexts(mesh, make_spec(beta=(0.7, -1.3), c=0.4, j=j))
            basis, step = TriBasis(j), 1e-6 * tables.beta_q
            fd = (
                basis.eval(tables.qpts + step, tables.centroid, tables.diameter)
                - basis.eval(tables.qpts - step, tables.centroid, tables.diameter)
            ) / 2e-6
            expected = fd - tables.c_q[..., None] * tables.lam0
            assert tables.adjoint().shape == (mesh.num_elements, tables.qw.shape[1], 3 if j else 1)
            assert np.allclose(tables.adjoint(), expected, rtol=0, atol=1e-8)

    def test_adjoint_moments_sum_the_adjoint(self):
        mesh = refined("l_shape", 1)
        for j in (0, 1):
            tables = build_contexts(mesh, make_spec(beta=(0.7, -1.3), c=0.4, j=j))
            weight = tables.qw * tables.c_q
            expected = np.einsum("tq,tqk->tk", weight, tables.adjoint())
            assert np.allclose(tables.adjoint_moments(weight), expected, rtol=0, atol=1e-14 * np.abs(expected).max())


class TestLocalBForm:
    def hyp_trace_sigma(self, mesh, t):
        coords = coords_of(mesh, t)
        sigma = np.zeros(9)
        for i in range(3):
            a, b = coords[i], coords[(i + 1) % 3]
            on_axis = (abs(a[0]) < 1e-14 and abs(b[0]) < 1e-14) or (
                abs(a[1]) < 1e-14 and abs(b[1]) < 1e-14
            )
            if not on_axis:
                sigma[3 + 2 * i] = 1.0
        return sigma

    def test_hypotenuse_sigma_beta11(self):
        # oracle: b_T = area * beta . (2,2) = 2 for beta=(1,1)
        mesh = build_coarse_mesh("unit_square")
        t = corner_element(mesh)
        spec = make_spec(beta=(1.0, 1.0), c=3.0, tau=0.0)
        B = build_contexts(mesh, spec).coupling()[t]
        sigma = self.hyp_trace_sigma(mesh, t)
        assert sigma @ B == pytest.approx(2.0, abs=1e-13)

    def test_hypotenuse_sigma_beta_1m1(self):
        mesh = build_coarse_mesh("unit_square")
        t = corner_element(mesh)
        spec = make_spec(beta=(1.0, -1.0), c=0.0, tau=0.0)
        B = build_contexts(mesh, spec).coupling()[t]
        sigma = self.hyp_trace_sigma(mesh, t)
        assert sigma @ B == pytest.approx(0.0, abs=1e-13)

    def test_constant_weak_function(self):
        # sigma = {1, 1}: grad_w sigma = 0, so b_T = -(1, c)_T = -area
        mesh = build_coarse_mesh("unit_square")
        t = corner_element(mesh)
        spec = make_spec(beta=(0.7, 0.3), c=1.0, tau=0.0)
        B = build_contexts(mesh, spec).coupling()[t]
        sigma = np.zeros(9)
        sigma[0] = 1.0
        sigma[3::2] = 1.0
        area = tables_for(mesh).area[t]
        assert sigma @ B == pytest.approx(-area, abs=1e-13)


class TestLocalLoads:
    def test_interior_load(self):
        mesh = build_coarse_mesh("unit_square")
        t = corner_element(mesh)
        spec = make_spec(f=1.0)
        load = build_contexts(mesh, spec).load()[t]
        # first interior basis function is the constant 1
        assert load[0] == pytest.approx(-0.5, abs=1e-14)
        assert load.shape == (3,)

    def test_zero_load(self):
        mesh = build_coarse_mesh("unit_square")
        spec = make_spec(f=0.0)
        assert np.all(build_contexts(mesh, spec).load()[0] == 0.0)

    def test_inflow_edge_unit_data(self):
        # level-0 left edge: length 1, beta.n = -1, g = 1, sigma_b = 1
        mesh = build_coarse_mesh("unit_square")
        spec = make_spec(g=1.0)
        forms = build_forms(build_contexts(mesh, spec))
        cls = classify_boundary(mesh, forms)
        left = [
            e
            for e in cls.inflow_edges
            if np.allclose(mesh.vertices[mesh.edges[e], 0], 0.0)
        ]
        assert len(left) == 1
        # The load sits on the traces of the edge's local edge i in its
        # element's row, after the d0 = 3 lam_0 entries, db = 2 per edge.
        t, i = mesh.edge_elems[left[0], 0], mesh.edge_local[left[0], 0]
        vec = forms.load[t, 3 + 2 * i : 5 + 2 * i]
        assert vec[0] == pytest.approx(-1.0, abs=1e-14)
        assert vec[1] == pytest.approx(0.0, abs=1e-14)  # odd moment vanishes

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_trace_loads_lie_on_the_marked_inflow_edges(self, name):
        # Levels 0-2, both j: the inflow marks are the local edges of the
        # classified inflow edges, which with the outflow edges are the
        # boundary edges, both sorted, and the trace and u_T columns of
        # the element loads vanish off the marks.
        for level in range(3):
            mesh = refined(get_experiment(name).spec.domain_tag, level)
            for j in (0, 1):
                spec = dataclasses.replace(get_experiment(name).spec, j=j)
                forms = build_forms(build_contexts(mesh, spec))
                cls = classify_boundary(mesh, forms)
                assert np.array_equal(forms.inflow, np.isin(mesh.element_edges, cls.inflow_edges))
                both = np.concatenate([cls.inflow_edges, cls.outflow_edges])
                assert np.array_equal(np.sort(both), mesh.boundary_edges)
                assert all((np.diff(part) > 0).all() for part in (cls.inflow_edges, cls.outflow_edges))
                traces = forms.load[:, -1 - 3 * (j + 1) : -1].reshape(-1, 3, j + 1)
                assert not traces[~forms.inflow].any() and not forms.load[:, -1].any()


class TestAssemble:
    def build(self, spec, level=1):
        mesh = refined(spec.domain_tag, level)
        _, dm, system = build_level(mesh, spec)
        return mesh, dm, system

    def test_symmetry_and_zero_block(self):
        spec = make_spec(f=1.0, g=1.0)
        mesh, dm, system = self.build(spec, level=2)
        A = assembled_matrix(system)
        asym = abs(A - A.T)
        assert (asym.max() if asym.nnz else 0.0) <= 1e-13
        uu = A[dm.n_lambda :, dm.n_lambda :]
        assert uu.count_nonzero() == 0

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("entry", ["table5", "table19"])
    def test_matrix_property_is_the_assembled_matrix(self, entry, j):
        # perfbench's assembly counters read SaddleSystem.matrix, which
        # numbers lam_0 itself, first, then the unknowns of element_indices:
        # it is the full-order matrix, bit for bit, in that numbering, on
        # the unit square (table5) and the cracked square (table19).
        spec = dataclasses.replace(get_experiment(entry).spec, j=j)
        _, dm, system = self.build(spec, level=2)
        A, ref = system.matrix.tocoo(), assembled_matrix(system).tocoo()
        assert A.shape == (dm.n_total, dm.n_total)
        n0, idx = system.rhs0.size, dm.element_indices
        own = np.concatenate([np.arange(n0).reshape(system.rhs0.shape), np.where(idx >= 0, idx + n0, -1)], axis=1)
        full, free = full_indices(dm), own >= 0
        renumber = np.empty(dm.n_total, dtype=np.int64)
        renumber[full[free]] = own[free]
        rows, cols = renumber[ref.row], renumber[ref.col]
        order = np.lexsort((cols, rows))
        assert np.array_equal(A.row, rows[order]) and np.array_equal(A.col, cols[order])
        assert same_bits(A.data, ref.data[order])
        assert A.nnz == system.nnz

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("scale", [1.0, -0.0])
    def test_inflow_loads_equal_their_sum_from_zero(self, j, scale):
        # Each inflow trace is written once, and equals the element-row
        # sum from 0 over [traces; u_T]: scale -0.0 turns loads into -0.0,
        # which that sum makes +0.0.
        mesh = refined("l_shape", 2)
        forms = build_forms(build_contexts(mesh, dataclasses.replace(get_experiment("table7").spec, j=j)))
        cls = classify_boundary(mesh, forms)
        dm = DofMap(mesh, j, cls)
        forms.load *= scale
        edges, db, idx = cls.inflow_edges, dm.dim_lamb, dm.element_indices
        owner, cols = mesh.edge_elems[edges, 0, None], db * mesh.edge_local[edges, 0, None] + np.arange(db)
        F = np.zeros(idx.shape)
        F[owner, cols] = forms.load[:, dm.dim_lam0 :][owner, cols]
        assert ((F == 0) & np.signbit(F)).any() == np.signbit(scale)
        free = idx >= 0
        expected = np.bincount(idx[free], F[free], minlength=dm.n_condensed)
        assert same_bits(assemble(mesh, dm, forms).rhs, expected)

    def test_unit_solution_satisfies_system(self):
        # beta=[1,-1], c=1, f=c, g=1: (u=1, lam=0) solves the discrete
        # equations exactly, so the plug-in residual is at rounding level
        for tau in (0.0, 1.0):
            spec = make_spec(beta=(1.0, -1.0), c=1.0, f=1.0, g=1.0, tau=tau)
            mesh, dm, system = self.build(spec, level=2)
            x = np.zeros(dm.n_total)
            x[dm.n_lambda :] = 1.0
            resid = np.max(np.abs(assembled_matrix(system) @ x - full_rhs(system)))
            assert resid < 1e-12

    def test_stabilizer_kernel_quadratic_form(self):
        # lam0 = lamb = x + y is continuous and transport-free for
        # beta=[1,-1], c=0, so s(lam, lam) = 0
        spec = make_spec(beta=(1.0, -1.0), c=0.0, f=0.0, g=0.0, tau=1.0)
        mesh = refined(spec.domain_tag, 1)
        from pdwg.weakspace import project_to_weak

        lam = project_to_weak(lambda x, y: x + y, tables_for(mesh))
        # the kernel statement needs the full function, outflow traces
        # included, so assemble on an all-inflow classification that
        # constrains no trace
        import pdwg.mesh as mesh_mod

        all_in = mesh_mod.BoundaryClassification(
            inflow_edges=mesh.boundary_edges,
            outflow_edges=np.array([], dtype=np.int64),
        )
        dm_all = DofMap(mesh, 1, all_in)
        system_all = assemble(mesh, dm_all, build_forms(build_contexts(mesh, spec)))
        x_all = np.zeros(dm_all.n_lambda)
        x_all[full_indices(dm_all)[:, :-1]] = lam
        S_all = assembled_matrix(system_all)[: dm_all.n_lambda, : dm_all.n_lambda]
        assert abs(x_all @ (S_all @ x_all)) < 1e-12

    def test_u_rows_couple_only_to_own_element(self):
        spec = make_spec()
        mesh, dm, system = self.build(spec, level=1)
        A = assembled_matrix(system)
        for t in range(mesh.num_elements):
            row = A[dm.n_lambda + t]
            cols = row.indices
            allowed = set(int(i) for i in full_indices(dm)[t] if i >= 0)
            assert set(cols.tolist()) <= allowed
            assert A[dm.n_lambda + t, dm.n_lambda + t] == 0.0

    def test_mismatched_dofmap_rejected(self):
        spec = make_spec()
        mesh = refined("unit_square", 1)
        other = refined("unit_square", 1)
        cls = classify_boundary(other, forms_for(other, spec.beta))
        dm = DofMap(other, 1, cls)
        forms = build_forms(build_contexts(mesh, spec))
        with pytest.raises(ValueError):
            assemble(mesh, dm, forms)
        with pytest.raises(ValueError, match="element forms were built for a different mesh"):
            assemble(other, dm, forms)
        cls = classify_boundary(mesh, forms_for(mesh, spec.beta))
        with pytest.raises(ValueError, match="another level or problem"):
            build_forms(build_contexts(other, spec), forms)
        with pytest.raises(ValueError, match="another level or problem"):
            build_checks(build_contexts(other, spec), build_checks(build_contexts(mesh, spec)))
        # Blocks 0-3 and 4-7 of two problems on one mesh: table6 (tau = 0)
        # has no tau operator for table5's block, and table5 and fig1_tau1
        # (both tau = 1) would mix their operators.
        for first, second in (("table6", "table5"), ("table5", "fig1_tau1")):
            a = build_contexts(mesh, get_experiment(first).spec, slice(0, 4))
            b = build_contexts(mesh, get_experiment(second).spec, slice(4, 8))
            with pytest.raises(ValueError, match="another level or problem"):
                build_forms(b, build_forms(a))
            with pytest.raises(ValueError, match="another level or problem"):
                build_checks(b, build_checks(a))
        with pytest.raises(ValueError, match="tables of degree j=1 .* dofmap of degree j=0"):
            assemble(mesh, DofMap(mesh, 0, cls), forms)

    def test_one_pair_derived_load_equals_the_masked_path(self):
        # One (beta, c) pair holds every element, so f is evaluated once on
        # the same C-ordered copies that selecting every row would make.
        exact = SCALAR_FIELDS["sin_pix_cos_piy"]
        spec = make_spec(exact_u=exact, tau=0.5)
        spec = dataclasses.replace(spec, f=DerivedLoad(exact))
        tables = build_contexts(refined("l_shape", 2), spec)
        assert same_bits(tables.f_q, per_pair_load(tables, spec))

    def test_two_branch_derived_load_equals_the_per_pair_path(self):
        # pw_const_flip splits at x + y = 1 and c at x = 1, both mesh lines
        # of the L shape, so three (beta, c) pairs hold elements and the
        # fourth none; each pair's load is evaluated on its own rows.
        exact = SCALAR_FIELDS["sin_pix_cos_piy"]
        c = Piecewise("c_split", pieces=((HalfPlane(1.0, 0.0, 1.0), constant(1.0)),), otherwise=constant(2.5))
        spec = dataclasses.replace(
            get_experiment("table23").spec, c=c, f=DerivedLoad(exact), exact_u=exact, tau=0.5
        )
        assert spec.beta.name == "pw_const_flip"
        tables = build_contexts(refined("l_shape", 2), spec)
        cx, cy = tables.centroid.T
        bi, ci = spec.beta.branch_index(cx, cy), c.branch_index(cx, cy)
        assert len(set(zip(bi.tolist(), ci.tolist()))) == 3
        assert same_bits(tables.f_q, per_pair_load(tables, spec))

    @pytest.mark.parametrize("j", [0, 1])
    def test_piecewise_exact_derived_load_equals_the_per_pair_path(self, j):
        # ridge_with_plateau picks its branch per point, across the elements
        # of both branches of fig3's pw_rotation.
        exact = SCALAR_FIELDS["ridge_with_plateau"]
        spec = dataclasses.replace(get_experiment("fig3_tau1").spec, f=DerivedLoad(exact), exact_u=exact, j=j)
        assert spec.beta.name == "pw_rotation"
        tables = build_contexts(refined("unit_square", 3), spec)
        x, y = tables.qpts[..., 0], tables.qpts[..., 1]
        assert len(np.unique(exact.branch_index(x, y))) == 2
        assert len(np.unique(spec.beta.branch_index(*tables.centroid.T))) == 2
        assert same_bits(tables.f_q, per_pair_load(tables, spec))

    def test_derived_load_samples_beta_and_c_once_at_the_interior_points(self):
        # beta at the interior and at the edge points, c at the interior
        # points: the load is formed from beta_q and c_q.
        calls = {"beta": 0, "c": 0}

        def counted(name, field):
            def fn(x, y):
                calls[name] += 1
                return field.fn(x, y)

            return dataclasses.replace(field, fn=fn)

        exact = SCALAR_FIELDS["sin_x_cos_y"]
        spec = ProblemSpec(
            beta=counted("beta", rotation(0.5, 0.5)), c=counted("c", constant(2.0)),
            f=DerivedLoad(exact), g=exact, tau=1.0, domain_tag="unit_square",
        )
        tables = build_contexts(refined("unit_square", 2), spec)
        assert calls == {"beta": 2, "c": 1}
        assert same_bits(tables.f_q, per_pair_load(tables, spec))

    @pytest.mark.parametrize("j", [0, 1])
    def test_stored_beta_integral_and_normal_flux_equal_their_expressions(self, j):
        # Jittered vertices and a rotational beta, so no product or sum is
        # exact: beta_int and beta_n equal, bit for bit, the contractions
        # the coupling form, the inflow load and the conservation check
        # evaluated, and the midpoint sum of classify_boundary.
        mesh = refined("l_shape", 2)
        rng = np.random.default_rng(5)
        mesh = dataclasses.replace(mesh, vertices=mesh.vertices + 0.01 * rng.standard_normal(mesh.vertices.shape))
        spec = dataclasses.replace(make_spec(domain="l_shape", j=j), beta=rotation(0.3, 0.7))
        t = build_contexts(mesh, spec)
        beta_e = np.stack(spec.beta(t.epts[..., 0], t.epts[..., 1]), axis=-1)
        assert same_bits(t.beta_int, np.einsum("tq,tqc->tc", t.qw, t.beta_q))
        assert same_bits(t.beta_n, np.einsum("tiqc,tic->tiq", beta_e, t.normals))
        rows, local = rng.integers(0, mesh.num_elements, 40), rng.integers(0, 3, 40)
        bn = np.einsum("mqc,mc->mq", beta_e[rows, local], t.normals[rows, local])
        assert same_bits(t.beta_n[rows, local], bn)
        b, n = beta_e[rows, local, EDGE_MIDPOINT], t.normals[rows, local]
        assert same_bits(t.beta_n[rows, local, EDGE_MIDPOINT], b[:, 0] * n[:, 0] + b[:, 1] * n[:, 1])

    def test_straddling_piecewise_beta_warns(self):
        beta = Piecewise(
            "bad_split",
            pieces=((HalfPlane(1.0, 0.0, 0.4), constant_vector(1.0, 0.0)),),
            otherwise=constant_vector(-1.0, 0.0),
        )
        spec = ProblemSpec(
            beta=beta,
            c=constant(0.0),
            f=constant(0.0),
            g=constant(0.0),
            tau=0.0,
            domain_tag="unit_square",
        )
        mesh = refined("unit_square", 1)
        with pytest.warns(UserWarning, match="straddles a branch boundary of the piecewise field beta "):
            build_contexts(mesh, spec)

    @pytest.mark.parametrize("names", [("c",), ("f",), ("c", "f")], ids="-".join)
    def test_straddling_piecewise_c_or_f_warns(self, names):
        # x = 0.3 is no mesh line at level 2: it cuts the 8 elements of
        # the column 0.25 < x < 0.5; each straddling field warns once, in
        # the order beta, c, f
        split = Piecewise("off_line", pieces=((HalfPlane(1.0, 0.0, 0.3), constant(1.0)),), otherwise=constant(2.0))
        spec = dataclasses.replace(make_spec(), **dict.fromkeys(names, split))
        with pytest.warns(UserWarning) as record:
            build_contexts(refined("unit_square", 2), spec)
        assert len(record) == len(names)
        for name, warning in zip(names, record):
            assert f"straddles a branch boundary of the piecewise field {name} (8 elements in all)" in str(
                warning.message
            )

    def test_nested_piecewise_c_takes_one_leaf_per_element_and_warns(self):
        # Below the mesh line x + y = 1, c splits again at x = 0.3, which is
        # no mesh line at level 2: 5 elements straddle the inner interface,
        # and each takes the leaf at its centroid at every interior point.
        inner = Piecewise("inner", pieces=((HalfPlane(1.0, 0.0, 0.3), constant(1.0)),), otherwise=constant(2.0))
        c = Piecewise("nested", pieces=((HalfPlane(1.0, 1.0, 1.0), inner),), otherwise=constant(3.0))
        assert [leaf(0.0, 0.0) for leaf in c.branches] == [1.0, 2.0, 3.0]
        with pytest.warns(UserWarning) as record:
            tables = build_contexts(refined("unit_square", 2), dataclasses.replace(make_spec(), c=c))
        assert len(record) == 1
        assert "element 1 straddles a branch boundary of the piecewise field c (5 elements in all)" in str(
            record[0].message
        )
        leaf = c.branch_index(*tables.centroid.T)
        assert set(leaf.tolist()) == {0, 1, 2}
        assert np.array_equal(tables.c_q, np.broadcast_to(1.0 + leaf[:, None], tables.c_q.shape))

    @pytest.mark.parametrize("j", [0, 1])
    def test_nested_beta_derived_load_equals_the_per_pair_path(self, j):
        # beta nests a split at x = 1/2 below x + y = 1, both mesh lines, so
        # all three leaves hold elements; each leaf's divergence enters f.
        inner = Piecewise(
            "inner", pieces=((HalfPlane(1.0, 0.0, 0.5), constant_vector(1.0, -1.0)),), otherwise=rotation(0.5, 0.5)
        )
        beta = Piecewise("nested", pieces=((HalfPlane(1.0, 1.0, 1.0), inner),), otherwise=constant_vector(-1.0, 1.0))
        exact = SCALAR_FIELDS["sin_x_cos_y"]
        spec = ProblemSpec(beta=beta, c=constant(1.0), f=DerivedLoad(exact), g=exact, tau=1.0,
                           domain_tag="unit_square", j=j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = build_contexts(refined("unit_square", 2), spec)
        assert set(beta.branch_index(*tables.centroid.T).tolist()) == {0, 1, 2}
        assert same_bits(tables.f_q, per_pair_load(tables, spec))

    def test_aligned_piecewise_c_and_f_do_not_warn(self):
        # x + y = 1 is a mesh line at every level
        split = HalfPlane(1.0, 1.0, 1.0)
        spec = dataclasses.replace(
            make_spec(),
            c=Piecewise("c_split", pieces=((split, constant(1.0)),), otherwise=constant(2.0)),
            f=Piecewise("f_split", pieces=((split, constant(0.5)),), otherwise=constant(-1.0)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_level(refined("unit_square", 2), spec)

    def test_aligned_piecewise_beta_does_not_warn(self):
        beta = Piecewise(
            "aligned_split",
            pieces=((HalfPlane(1.0, 1.0, 1.0), constant_vector(1.0, -1.0)),),
            otherwise=constant_vector(-1.0, 1.0),
        )
        spec = ProblemSpec(
            beta=beta,
            c=constant(1.0),
            f=DerivedLoad(SCALAR_FIELDS["sin_pix_cos_piy"]),
            g=SCALAR_FIELDS["sin_pix_cos_piy"],
            tau=1.0,
            domain_tag="unit_square",
        )
        mesh = refined("unit_square", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_level(mesh, spec)

    def test_beta_and_c_resolve_branches_independently(self):
        # beta splits along x = 1/2 and c along y = 1/2 (both mesh lines),
        # so elements take every (beta, c) branch pair; the manufactured
        # load of each element uses its own pair
        beta = Piecewise(
            "left_right",
            pieces=((HalfPlane(1.0, 0.0, 0.5), constant_vector(1.0, 0.5)),),
            otherwise=constant_vector(-0.5, 1.0),
        )
        c = Piecewise(
            "low_high", pieces=((HalfPlane(0.0, 1.0, 0.5), constant(2.0)),), otherwise=constant(-3.0)
        )
        exact = SCALAR_FIELDS["sin_x_cos_y"]
        spec = ProblemSpec(
            beta=beta, c=c, f=DerivedLoad(exact), g=exact, tau=1.0, domain_tag="unit_square"
        )
        mesh = refined("unit_square", 2)
        tables = build_contexts(mesh, spec)
        pairs = set()
        for t in range(mesh.num_elements):
            cx, cy = coords_of(mesh, t).mean(axis=0)
            b = beta.branches[int(beta.branch_index(cx, cy))]
            ct = c.branches[int(c.branch_index(cx, cy))]
            pairs.add((b.name, ct.name))
            x, y = tables.qpts[t, :, 0], tables.qpts[t, :, 1]
            assert np.array_equal(tables.beta_q[t], np.stack(b(x, y), axis=-1))
            assert np.array_equal(tables.c_q[t], ct(x, y))
            assert np.allclose(tables.f_q[t], pair_load(exact, b, ct, x, y), rtol=0, atol=1e-14)
        assert len(pairs) == 4

    def test_non_finite_coefficient_names_field_and_element(self):
        spec = make_spec(c=float("nan"))
        with pytest.raises(ValueError, match="c has a non-finite value on element 0"):
            self.build(spec)

    def test_non_finite_inflow_data_names_edge(self):
        spec = make_spec(g=float("inf"))
        mesh = refined("unit_square", 1)
        first = int(classify_boundary(mesh, forms_for(mesh, spec.beta)).inflow_edges[0])
        with pytest.raises(ValueError, match=f"g has a non-finite value on edge {first}"):
            build_level(mesh, spec)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            make_spec(tau=-1.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be a finite"):
            make_spec(tau=tau)

    @pytest.mark.parametrize("tau", ["1", None, True, False])
    def test_non_number_tau_rejected(self, tau):
        # Only an int or float is a number, as for config numbers (fields.number).
        with pytest.raises(ValueError, match="tau must be a finite nonnegative number, got "):
            make_spec(tau=tau)

    @pytest.mark.parametrize(
        "override,field",
        [({"domain_tag": "disk"}, "domain_tag"), ({"j": 0.5}, "j"), ({"j": 2}, "j"), ({"j": -1}, "j")],
    )
    def test_bad_spec_rejected_naming_field(self, override, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            dataclasses.replace(make_spec(), **override)

    def test_k_is_fixed_at_one(self):
        spec = make_spec()
        assert spec.k == 1 and ProblemSpec.k == 1
        assert "k" not in {f.name for f in dataclasses.fields(ProblemSpec)}
