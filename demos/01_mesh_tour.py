"""Tour of the three benchmark domains: coarse meshes, uniform refinement,
and inflow/outflow classification.

Run from the repository root:  PYTHONPATH=src python3 demos/01_mesh_tour.py
"""

import numpy as np

from pdwg.fields import constant_vector, rotation
from pdwg.mesh import (
    build_coarse_mesh,
    classify_boundary,
    domain_area,
    dump_mesh,
    geometry_arrays,
    refine_uniform,
)

for tag in ("unit_square", "l_shape", "cracked_square"):
    mesh = build_coarse_mesh(tag)
    print(f"== {tag}")
    for level in range(4):
        T = mesh.num_elements
        E = mesh.num_edges
        B = len(mesh.boundary_edges)
        area = geometry_arrays(mesh).area.sum()
        print(
            f"  level {level}: T={T:5d} E={E:5d} B={B:4d}  "
            f"2E-3T-B={2 * E - 3 * T - B}  area={area:.13f} "
            f"(exact {domain_area(tag)})"
        )
        mesh = refine_uniform(mesh)

# The cracked square is slit along (0,1) x {0}: the midpoint of the crack
# exists once per side after refinement.
mesh = refine_uniform(build_coarse_mesh("cracked_square"))
dup = np.flatnonzero(
    (np.abs(mesh.vertices[:, 0] - 0.5) < 1e-14) & (np.abs(mesh.vertices[:, 1]) < 1e-14)
)
print(f"\ncracked square level 1: vertex (0.5, 0) appears {len(dup)} times")

# Boundary classification depends on the convection field.
mesh = refine_uniform(build_coarse_mesh("unit_square"))
for beta, label in (
    (constant_vector(1.0, -1.0), "beta=[1,-1]"),
    (rotation(0.5, 0.5), "beta=[y-0.5,-x+0.5]"),
):
    cls = classify_boundary(mesh, beta)
    print(f"{label}: {len(cls.inflow_edges)} inflow, {len(cls.outflow_edges)} outflow edges")

dump_mesh(mesh, "unit_square_level1.txt", classify_boundary(mesh, constant_vector(1.0, -1.0)))
print("wrote unit_square_level1.txt (vertex / element / edge sections)")
