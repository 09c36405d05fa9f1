"""Tour of the three benchmark domains: coarse meshes, uniform refinement,
element areas from the element tables, and inflow/outflow classification
read from a problem's element tables.

Run from the repository root:  PYTHONPATH=src python3 demos/01_mesh_tour.py
"""

import numpy as np

from pdwg.assembly import ElementTables, build_contexts, classify_boundary
from pdwg.catalog import get_experiment
from pdwg.mesh import build_coarse_mesh, domain_area, refine_uniform

for tag in ("unit_square", "l_shape", "cracked_square"):
    mesh = build_coarse_mesh(tag)
    print(f"== {tag}")
    for level in range(4):
        T = mesh.num_elements
        E = mesh.num_edges
        B = len(mesh.boundary_edges)
        area = ElementTables(mesh, j=1).area.sum()
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

# Boundary classification depends on the convection field, which it reads
# from the element tables of a problem on the mesh.
mesh = refine_uniform(build_coarse_mesh("unit_square"))
for name, label in (("table5", "beta=[1,-1]"), ("fig1_tau1", "beta=[y-0.5,-x+0.5]")):
    cls = classify_boundary(mesh, build_contexts(mesh, get_experiment(name).spec))
    print(f"{label}: {len(cls.inflow_edges)} inflow, {len(cls.outflow_edges)} outflow edges")
