from dataclasses import replace

import numpy as np
import pytest

from helpers import forms_for, refined, same_bits, tables_for
from pdwg.assembly import EDGE_QUAD_DEGREE, classify_boundary
from pdwg.fields import constant_vector, rotation
from pdwg.mesh import (
    DOMAIN_TAGS,
    MeshError,
    build_coarse_mesh,
    domain_area,
    refine_uniform,
)
from pdwg.poly import quad_edge, quad_triangle

BETA_DOWN_RIGHT = constant_vector(1.0, -1.0)


def euler_ok(mesh):
    T = mesh.num_elements
    E = mesh.num_edges
    B = len(mesh.boundary_edges)
    return 2 * E == 3 * T + B


class TestCoarseMeshes:
    def test_unit_square_counts(self):
        mesh = build_coarse_mesh("unit_square")
        assert mesh.num_elements == 2
        assert mesh.num_edges == 5
        assert len(mesh.boundary_edges) == 4

    def test_l_shape_counts(self):
        # hand count of the 6-triangle layout: V=8, T=6, B=8, 2E=3T+B -> E=13
        mesh = build_coarse_mesh("l_shape")
        assert mesh.num_vertices == 8
        assert mesh.num_elements == 6
        assert mesh.num_edges == 13
        assert len(mesh.boundary_edges) == 8

    def test_cracked_square_counts(self):
        # 8 triangles; (1,0) duplicated; crack edge duplicated:
        # V=10, T=8, B=10 (8 outer + 2 crack lips), 2E=3T+B -> E=17
        mesh = build_coarse_mesh("cracked_square")
        assert mesh.num_vertices == 10
        assert mesh.num_elements == 8
        assert mesh.num_edges == 17
        assert len(mesh.boundary_edges) == 10
        dup = np.flatnonzero(
            (np.abs(mesh.vertices[:, 0] - 1.0) < 1e-14)
            & (np.abs(mesh.vertices[:, 1]) < 1e-14)
        )
        assert len(dup) == 2

    def test_unknown_tag(self):
        with pytest.raises(MeshError):
            build_coarse_mesh("hexagon")

    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    def test_euler_relation(self, tag):
        assert euler_ok(build_coarse_mesh(tag))


class TestRefinement:
    def test_unit_square_level1_counts(self):
        mesh = refined("unit_square", 1)
        assert mesh.num_elements == 8
        assert len(mesh.boundary_edges) == 8
        assert mesh.num_edges == 16

    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    def test_element_count_multiplies_by_four(self, tag):
        mesh = build_coarse_mesh(tag)
        for _ in range(3):
            fine = refine_uniform(mesh)
            assert fine.num_elements == 4 * mesh.num_elements
            mesh = fine

    def test_level_n_count(self):
        assert refined("unit_square", 4).num_elements == 2 * 4**4

    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    def test_children_of_element_p_are_rows_4p_to_4p_plus_3(self, tag):
        # The numbering the solver's order reads the refinement tree from:
        # three corners, each at its parent vertex's slot, then the middle.
        mesh = build_coarse_mesh(tag)
        for _ in range(3):
            fine = refine_uniform(mesh)
            corners = mesh.vertices[mesh.elements]
            # Points 0-5 of each parent: v0, v1, v2, m01, m12, m20.
            points = np.concatenate([corners, 0.5 * (corners + corners[:, [1, 2, 0]])], axis=1)
            expected = points[:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]].reshape(-1, 3, 2)
            assert np.array_equal(fine.vertices[fine.elements], expected)
            mesh = fine

    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
    def test_euler_relation_all_levels(self, tag, level):
        assert euler_ok(refined(tag, level))

    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    def test_area_preserved(self, tag):
        mesh = build_coarse_mesh(tag)
        for level in range(6):
            total = tables_for(mesh).area.sum()
            assert abs(total - domain_area(tag)) < 1e-13, f"level {level}"
            mesh = refine_uniform(mesh)

    def test_h_halves_exactly(self):
        coarse = build_coarse_mesh("unit_square")
        fine = refine_uniform(coarse)
        h_coarse = tables_for(coarse).diameter.max()
        h_fine = tables_for(fine).diameter.max()
        assert h_fine == pytest.approx(0.5 * h_coarse, abs=1e-15)

    def test_crack_midpoint_duplicated(self):
        mesh = refined("cracked_square", 1)
        dup = np.flatnonzero(
            (np.abs(mesh.vertices[:, 0] - 0.5) < 1e-14)
            & (np.abs(mesh.vertices[:, 1]) < 1e-14)
        )
        assert len(dup) == 2

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_crack_edges_all_boundary(self, level):
        mesh = refined("cracked_square", level)
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        horizontal = (
            np.abs(mesh.vertices[mesh.edges[:, 0], 1]) < 1e-14
        ) & (np.abs(mesh.vertices[mesh.edges[:, 1], 1]) < 1e-14)
        on_crack = horizontal & (mids[:, 0] > 1e-14) & (mids[:, 0] < 1.0 - 1e-14)
        assert on_crack.sum() == 2 ** (level + 1)  # two lips, 2^level pieces each
        assert np.all(mesh.edge_elems[on_crack, 1] < 0)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_crack_blocks_adjacency(self, level):
        # BFS over edge adjacency restricted to centroids with 0 < x < 1
        # must not connect the sides of the slit.
        mesh = refined("cracked_square", level)
        centroids = mesh.vertices[mesh.elements].mean(axis=1)
        in_band = (centroids[:, 0] > 0.0) & (centroids[:, 0] < 1.0)
        neighbors = {t: [] for t in range(mesh.num_elements)}
        for e in range(mesh.num_edges):
            t1, t2 = mesh.edge_elems[e]
            if t2 >= 0:
                neighbors[int(t1)].append(int(t2))
                neighbors[int(t2)].append(int(t1))
        below = [t for t in range(mesh.num_elements) if in_band[t] and centroids[t, 1] < 0]
        seen = set(below)
        stack = list(below)
        while stack:
            t = stack.pop()
            for s in neighbors[t]:
                if in_band[s] and s not in seen:
                    seen.add(s)
                    stack.append(s)
        assert all(centroids[t, 1] < 0 for t in seen)


def loop_topology(elements):
    """Reference edge discovery: a dict over sorted vertex pairs, edges
    numbered in order of first appearance."""
    index, edges, incid = {}, [], []
    for t, tri in enumerate(elements.tolist()):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            e = index.setdefault((min(a, b), max(a, b)), len(edges))
            if e == len(edges):
                edges.append((min(a, b), max(a, b)))
                incid.append([])
            incid[e].append((t, i, 1 if a < b else -1))
    return edges, incid


class TestVectorizedTopology:
    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    def test_matches_loop_reference(self, tag):
        mesh = build_coarse_mesh(tag)
        for _ in range(4):
            edges, incid = loop_topology(mesh.elements)
            assert mesh.edges.tolist() == [list(e) for e in edges]
            for e, inc in enumerate(incid):
                for t, i, sign in inc:
                    assert mesh.element_edges[t, i] == e
                    assert mesh.element_edge_signs[t, i] == sign
                plus_first = sorted(inc, key=lambda x: -x[2])
                expected = [x[0] for x in plus_first] + [-1] * (2 - len(inc))
                assert mesh.edge_elems[e].tolist() == expected
            present = mesh.edge_elems >= 0
            sides = mesh.element_edges[mesh.edge_elems[present], mesh.edge_local[present]]
            assert np.array_equal(sides, np.nonzero(present)[0])
            assert np.all(mesh.edge_local[~present] == -1)
            mesh = refine_uniform(mesh)

    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_boundary_edges_follow_their_elements(self, tag, level):
        # Boundary edges are numbered in (element, local edge) order, so a
        # level's element blocks hold them in order, and the first block
        # with a non-finite g names the level's first such edge.
        mesh = refined(tag, level)
        b = mesh.boundary_edges
        key = 3 * mesh.edge_elems[b, 0] + mesh.edge_local[b, 0]
        assert np.all(np.diff(key) > 0)

    def test_refinement_children_match_loop_reference(self):
        mesh = refine_uniform(build_coarse_mesh("l_shape"))
        fine = refine_uniform(mesh)
        nV = mesh.num_vertices
        for t, (v0, v1, v2) in enumerate(mesh.elements.tolist()):
            m01, m12, m20 = (nV + mesh.element_edges[t]).tolist()
            assert fine.elements[4 * t : 4 * t + 4].tolist() == [
                [v0, m01, m20], [m01, v1, m12], [m20, m12, v2], [m01, m12, m20]
            ]

    def test_edge_with_three_elements_rejected(self):
        from pdwg.mesh import _build_topology

        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
        # edge (0, 1) shared by three triangles
        elements = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
        with pytest.raises(MeshError, match="edge 0"):
            _build_topology(vertices, elements, "unit_square")

    def test_same_direction_traversal_rejected(self):
        from pdwg.mesh import _build_topology

        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 2.0]])
        elements = [(0, 1, 2), (0, 1, 3)]
        with pytest.raises(MeshError, match="same direction"):
            _build_topology(vertices, elements, "unit_square")


class TestElementGeometry:
    def test_reference_like_element(self):
        mesh = build_coarse_mesh("unit_square")
        geom = tables_for(mesh)
        assert geom.area[0] == pytest.approx(0.5)
        assert geom.diameter[0] == pytest.approx(np.sqrt(2.0))
        assert np.allclose(geom.centroid[0], mesh.vertices[mesh.elements[0]].mean(axis=0))

    @pytest.mark.parametrize("tag", DOMAIN_TAGS)
    def test_closed_polygon(self, tag):
        mesh = refined(tag, 2)
        geom = tables_for(mesh)
        coords = mesh.vertices[mesh.elements]
        sides = np.roll(coords, -1, axis=1) - coords
        edge_lengths = np.hypot(sides[..., 0], sides[..., 1])
        for t in range(mesh.num_elements):
            total = (edge_lengths[t, :, None] * geom.normals[t]).sum(axis=0)
            assert np.max(np.abs(total)) < 1e-14
            assert np.allclose(np.hypot(*geom.normals[t].T), 1.0)

    def test_level1_child_area(self):
        mesh = refined("unit_square", 1)
        area = tables_for(mesh).area
        for t in range(mesh.num_elements):
            assert area[t] == pytest.approx(0.125)

    def test_normals_point_outward(self):
        mesh = build_coarse_mesh("l_shape")
        geom = tables_for(mesh)
        for t in range(mesh.num_elements):
            coords = mesh.vertices[mesh.elements[t]]
            for i in range(3):
                mid = 0.5 * (coords[i] + coords[(i + 1) % 3])
                assert np.dot(mid - geom.centroid[t], geom.normals[t, i]) > 0

    @pytest.mark.parametrize("j", [0, 1])
    def test_spelled_out_axes_equal_the_array_forms(self, j):
        # Jittered vertices, so no sum is exact in any order: the tables'
        # geometry and quadrature points equal, bit for bit, the reductions
        # and broadcasts over the (T, 3, 2) vertex stack they spell out.
        mesh = refined("l_shape", 2)
        rng = np.random.default_rng(3)
        mesh = replace(mesh, vertices=mesh.vertices + 0.01 * rng.standard_normal(mesh.vertices.shape))
        tables = tables_for(mesh, j=j)
        coords = mesh.vertices[mesh.elements]
        sides = np.roll(coords, -1, axis=1) - coords
        lengths = np.hypot(sides[..., 0], sides[..., 1])
        normals = np.stack([sides[..., 1], -sides[..., 0]], axis=-1) / lengths[..., None]
        v0, v1, v2 = coords[:, 0, None], coords[:, 1, None], coords[:, 2, None]
        ref_x, ref_y = quad_triangle(2 * j + 4).points.T[..., None]
        t = quad_edge(EDGE_QUAD_DEGREE).points[:, None]
        assert same_bits(tables.centroid, coords.mean(axis=1))
        assert same_bits(tables.diameter, lengths.max(axis=1))
        assert same_bits(tables.normals, normals)
        assert same_bits(tables.qpts, v0 + ref_x * (v1 - v0) + ref_y * (v2 - v0))
        assert same_bits(tables.epts, coords[:, :, None] + 0.5 * (t + 1.0) * sides[:, :, None])

    def test_clockwise_element_rejected_by_tables(self):
        # A Mesh built directly, bypassing the topology checks.
        mesh = build_coarse_mesh("unit_square")
        elements = mesh.elements.copy()
        elements[1] = elements[1, ::-1]
        clockwise = replace(mesh, elements=elements)
        with pytest.raises(MeshError, match="element 1 has non-positive area"):
            forms_for(clockwise, BETA_DOWN_RIGHT)


def edge_set_on(mesh, predicate):
    out = set()
    for e in mesh.boundary_edges:
        a, b = mesh.edges[e]
        if predicate(mesh.vertices[a]) and predicate(mesh.vertices[b]):
            out.add(int(e))
    return out


class TestClassifyBoundary:
    def test_unit_square_down_right(self):
        mesh = refined("unit_square", 2)
        cls = classify_boundary(mesh, forms_for(mesh, BETA_DOWN_RIGHT))
        expected_in = edge_set_on(mesh, lambda v: v[0] < 1e-14) | edge_set_on(
            mesh, lambda v: v[1] > 1 - 1e-14
        )
        assert set(cls.inflow_edges.tolist()) == expected_in
        assert set(cls.inflow_edges.tolist()) | set(cls.outflow_edges.tolist()) == set(
            mesh.boundary_edges.tolist()
        )
        assert not set(cls.inflow_edges.tolist()) & set(cls.outflow_edges.tolist())

    def test_unit_square_up_right(self):
        mesh = refined("unit_square", 1)
        cls = classify_boundary(mesh, forms_for(mesh, constant_vector(1.0, 1.0)))
        expected_in = edge_set_on(mesh, lambda v: v[0] < 1e-14) | edge_set_on(
            mesh, lambda v: v[1] < 1e-14
        )
        assert set(cls.inflow_edges.tolist()) == expected_in

    def test_l_shape_reentrant_edges(self):
        # walk of the boundary: the segment (2,1)-(1,1) has outward normal
        # (0,1) so beta=[1,-1] flows in; (1,1)-(1,2) has normal (1,0), out.
        mesh = build_coarse_mesh("l_shape")
        cls = classify_boundary(mesh, forms_for(mesh, BETA_DOWN_RIGHT))
        reentrant_top = edge_set_on(
            mesh, lambda v: abs(v[1] - 1.0) < 1e-14 and v[0] >= 1.0 - 1e-14
        )
        reentrant_right = edge_set_on(
            mesh, lambda v: abs(v[0] - 1.0) < 1e-14 and v[1] >= 1.0 - 1e-14
        )
        assert reentrant_top and reentrant_top <= set(cls.inflow_edges.tolist())
        assert reentrant_right and reentrant_right <= set(cls.outflow_edges.tolist())

    def test_characteristic_edge_goes_to_outflow(self):
        mesh = build_coarse_mesh("unit_square")
        cls = classify_boundary(mesh, forms_for(mesh, constant_vector(1.0, 0.0)))
        bottom = edge_set_on(mesh, lambda v: v[1] < 1e-14)
        top = edge_set_on(mesh, lambda v: v[1] > 1 - 1e-14)
        assert (bottom | top) <= set(cls.outflow_edges.tolist())

    def test_rotational_on_cracked_square(self):
        # clockwise rotation about the crack tip: the lower lip of the
        # slit is inflow, the upper lip outflow
        mesh = refined("cracked_square", 1)
        cls = classify_boundary(mesh, forms_for(mesh, rotation(0.0, 0.0)))
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        for e in mesh.boundary_edges:
            if 1e-14 < mids[e, 0] < 1 - 1e-14 and abs(mids[e, 1]) < 1e-14:
                t = mesh.edge_elems[e, 0]
                above = mesh.vertices[mesh.elements[t]].mean(axis=0)[1] > 0
                if above:
                    assert e in cls.outflow_edges
                else:
                    assert e in cls.inflow_edges

    def test_tables_of_another_mesh_rejected(self):
        mesh = build_coarse_mesh("unit_square")
        other = build_coarse_mesh("unit_square")
        with pytest.raises(ValueError, match="different mesh"):
            classify_boundary(mesh, forms_for(other, BETA_DOWN_RIGHT))


def test_classification_matches_pointwise_reference():
    from pdwg.fields import HalfPlane, Piecewise

    beta = Piecewise(
        "pw",
        pieces=((HalfPlane(1.0, 1.0, 1.0), rotation(0.0, 0.0)),),
        otherwise=constant_vector(-1.0, 0.3),
    )
    mesh = refined("cracked_square", 2)
    cls = classify_boundary(mesh, forms_for(mesh, beta))
    geom = tables_for(mesh)
    inflow = []
    for e in mesh.boundary_edges:
        t = int(mesh.edge_elems[e, 0])
        n = geom.normals[t, list(mesh.element_edges[t]).index(e)]
        mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
        branch = beta.branches[int(beta.branch_index(*geom.centroid[t]))]
        bx, by = branch(np.array([mid[0]]), np.array([mid[1]]))
        if bx[0] * n[0] + by[0] * n[1] < -1e-12:
            inflow.append(int(e))
    assert cls.inflow_edges.tolist() == inflow
    assert sorted(cls.outflow_edges.tolist() + inflow) == mesh.boundary_edges.tolist()

