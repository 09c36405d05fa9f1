"""Triangulations of the benchmark domains with refinement.

Three domains are built in: the unit square (0,1)^2, the L-shaped domain
with vertices (0,0), (2,0), (2,1), (1,1), (1,2), (0,2), and the square
(-1,1)^2 slit along the segment (0,1) x {0}.  Coarse meshes split every
unit square cell by its lower-right to upper-left diagonal, so the line
x + y = 1 used by the piecewise-coefficient benchmarks is a mesh line of
the unit square and L-shaped meshes at every refinement level.  The slit
is modeled topologically: vertices and edges on the open crack are
duplicated (one copy per side), so no element adjacency crosses the crack
while the geometry stays exact.

Meshes are immutable after construction; refinement returns a new mesh in
which every triangle is replaced by the four congruent children obtained
by connecting edge midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOMAIN_TAGS = ("unit_square", "l_shape", "cracked_square")


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with element/edge/vertex connectivity.

    ``edges[e] = (a, b)`` with a < b; the edge parameterization runs from
    vertex a to vertex b.  ``edge_elems[e] = (left, right)`` holds the
    incident elements, with the element traversing a -> b in its
    counterclockwise loop first and -1 marking a missing (boundary) side;
    ``edge_local[e, k]`` is the local index of edge e in element
    ``edge_elems[e, k]`` (-1 on a missing side).  ``element_edges[t, i]``
    is the edge spanned by local vertices (i, i+1 mod 3) of element t, and
    ``element_edge_signs[t, i]`` is +1 when that traversal agrees with the
    edge's own a -> b orientation.
    """

    vertices: np.ndarray
    elements: np.ndarray
    edges: np.ndarray
    edge_elems: np.ndarray
    edge_local: np.ndarray
    element_edges: np.ndarray
    element_edge_signs: np.ndarray
    domain_tag: str

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edges(self) -> np.ndarray:
        """Indices of edges with exactly one incident element."""
        return np.flatnonzero(self.edge_elems[:, 1] < 0)


@dataclass(frozen=True)
class BoundaryClassification:
    """Partition of the boundary edges into inflow and outflow sets
    (:func:`pdwg.assembly.classify_boundary`)."""

    inflow_edges: np.ndarray
    outflow_edges: np.ndarray


class MeshError(ValueError):
    """Raised for invalid mesh topology or geometry."""


def _build_topology(vertices, elements, domain_tag) -> Mesh:
    """Derive edge connectivity from an element list and validate it.

    Edges are numbered in order of first appearance along the element
    list (element by element, local edges 0, 1, 2)."""
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)

    coords = vertices[elements]
    signed = 0.5 * (
        (coords[:, 1, 0] - coords[:, 0, 0]) * (coords[:, 2, 1] - coords[:, 0, 1])
        - (coords[:, 2, 0] - coords[:, 0, 0]) * (coords[:, 1, 1] - coords[:, 0, 1])
    )
    if np.any(signed <= 0):
        bad = np.flatnonzero(signed <= 0)
        raise MeshError(f"elements {bad.tolist()} are not counterclockwise")

    # Half edges (a, b) of every element in traversal order, element-major.
    a = elements.ravel()
    b = elements[:, [1, 2, 0]].ravel()
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    # Half edges sorted stably by their vertex pair: each run of equal
    # pairs is one edge, and the run's first half edge is its first
    # appearance in the element list.
    key = lo * len(vertices) + hi
    order = np.argsort(key, kind="stable")
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[order[1:]], key[order[:-1]], out=starts[1:])
    first = np.zeros(len(key), dtype=bool)
    first[order[starts]] = True
    # Edges numbered by first appearance, handed to every half edge of the run.
    number = np.cumsum(first) - 1
    edge_of = np.empty(len(key), dtype=np.int64)
    edge_of[order] = number[order[starts]][np.cumsum(starts) - 1]
    forward = a < b
    sign = np.where(forward, 1, -1).astype(np.int8)

    edges = np.column_stack([lo, hi])[first]
    count = np.bincount(edge_of, minlength=len(edges))
    plus = np.bincount(edge_of[forward], minlength=len(edges))
    bad_count = count > 2
    bad_sign = (count == 2) & (plus != 1)
    if np.any(bad_count | bad_sign):
        e = int(np.flatnonzero(bad_count | bad_sign)[0])
        if bad_count[e]:
            raise MeshError(f"edge {e} has {count[e]} incident elements")
        raise MeshError(f"edge {e} traversed twice in the same direction")

    # The +1 traversal takes the first slot of a shared edge.
    slot = np.where(forward | (count[edge_of] == 1), 0, 1)
    edge_elems = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_local = np.full((len(edges), 2), -1, dtype=np.int64)
    half = np.arange(len(key))
    edge_elems[edge_of, slot] = half // 3
    edge_local[edge_of, slot] = half % 3

    return Mesh(
        vertices=vertices,
        elements=elements,
        edges=edges,
        edge_elems=edge_elems,
        edge_local=edge_local,
        element_edges=edge_of.reshape(-1, 3),
        element_edge_signs=sign.reshape(-1, 3),
        domain_tag=domain_tag,
    )


# Coarse meshes: lattice points (the vertices, in order) and unit square
# cells given as the vertex indices of their lower-left, lower-right,
# upper-right and upper-left corners.  The cracked square has a second copy
# of (1, 0), vertex 9, for the upper lip of the slit; the crack tip (0, 0)
# stays single because the domain is connected around it.
_COARSE = {
    "unit_square": ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)]),
    "l_shape": (
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2)],
        [(0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 7, 6)],
    ),
    "cracked_square": (
        [(-1, -1), (0, -1), (1, -1), (-1, 0), (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1), (1, 0)],
        [(0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 7, 6), (4, 9, 8, 7)],
    ),
}


def build_coarse_mesh(domain_tag: str) -> Mesh:
    """Coarse triangulation of one of the three benchmark domains.

    unit_square:    2 triangles on (0,1)^2,
    l_shape:        6 triangles (one split per unit square cell),
    cracked_square: 8 triangles on (-1,1)^2 with the segment (0,1) x {0}
                    duplicated so the two sides of the slit are detached.

    Every cell is split by its lower-right -> upper-left diagonal into the
    counterclockwise triangles (ll, lr, ul) and (lr, ur, ul).
    """
    if domain_tag not in _COARSE:
        raise MeshError(f"unknown domain tag {domain_tag!r}; expected one of {DOMAIN_TAGS}")
    lattice, cells = _COARSE[domain_tag]
    elements = np.array(cells)[:, [0, 1, 3, 1, 2, 3]].reshape(-1, 3)
    return _build_topology(np.array(lattice, dtype=float), elements, domain_tag)


def refinement_depth(mesh: Mesh) -> int:
    """The number L of ``refine_uniform`` steps from the coarse mesh of
    ``mesh.domain_tag`` to ``mesh``, read off its element count: C 4^L
    elements for the coarse mesh's C."""
    return (mesh.num_elements // (2 * len(_COARSE[mesh.domain_tag][1]))).bit_length() // 2


def refine_uniform(mesh: Mesh) -> Mesh:
    """Replace every triangle by four congruent children via edge midpoints.

    The children of element p are rows 4p..4p+3 of the refined mesh: the
    corner triangles at its vertices 0, 1 and 2, each keeping that vertex
    in its own slot, then the middle triangle (m01, m12, m20) of its edge
    midpoints.  So the element numbers of a mesh refined L times are a
    tree, coarse element c holding rows c 4^L .. (c + 1) 4^L - 1, which
    the numbering of :class:`pdwg.weakspace.DofMap` reads off.  Midpoints
    are created per edge, so duplicated crack edges receive duplicated
    midpoints and the slit stays open.
    """
    nV = mesh.num_vertices
    mid_coords = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mid_coords])

    v0, v1, v2 = mesh.elements.T
    m01, m12, m20 = (nV + mesh.element_edges).T
    # Four children per element, in order: three corners, then the middle.
    children = [v0, m01, m20, m01, v1, m12, m20, m12, v2, m01, m12, m20]
    elements = np.stack(children, axis=1).reshape(-1, 3)

    return _build_topology(vertices, elements, mesh.domain_tag)


def domain_area(domain_tag: str) -> float:
    """Exact measure of a benchmark domain."""
    return {"unit_square": 1.0, "l_shape": 3.0, "cracked_square": 4.0}[domain_tag]
